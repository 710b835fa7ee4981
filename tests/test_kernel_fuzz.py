"""Kernel fuzzing: random syscall storms must preserve global invariants,
and twin kernels driven by the same seed must agree bit-for-bit.

The differential half runs >= 200 seeded cases across three claims:

* batched probe syscalls == the equivalent sequential calls, including
  under injected latency noise (the jitter streams are keyed per probe,
  not per syscall, so both forms draw identical noise);
* an installed-but-inert :class:`FaultInjector` is indistinguishable
  from no injector at all (the off-switch really is off);
* a noisy machine (faults, jitter, interference) replays byte-identically
  from its seed.

Every assertion message carries the reproducing seed.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    FaultInjector,
    InjectionConfig,
    Kernel,
    LatencyNoise,
    MILLIS,
    noise_profile,
    syscalls as sc,
)
from repro.sim.errors import SimOSError
from repro.sim.inject import horizon_after
from tests.conftest import KIB, MIB, small_config


def chaos_process(seed: int, steps: int):
    """A process issuing a random but self-consistent syscall stream."""
    rng = random.Random(seed)
    open_fds = []
    regions = []
    my_files = []

    def random_path():
        return f"/mnt0/fz{rng.randrange(6)}"

    for _ in range(steps):
        action = rng.randrange(10)
        try:
            if action == 0:
                fd = (yield sc.create(random_path())).value
                open_fds.append(fd)
                my_files.append(random_path())
            elif action == 1:
                fd = (yield sc.open(random_path())).value
                open_fds.append(fd)
            elif action == 2 and open_fds:
                yield sc.write(open_fds[-1], rng.randrange(1, 64 * KIB))
            elif action == 3 and open_fds:
                yield sc.pread(open_fds[-1], rng.randrange(128 * KIB), 4 * KIB)
            elif action == 4 and open_fds:
                yield sc.close(open_fds.pop())
            elif action == 5:
                region = (yield sc.vm_alloc(rng.randrange(1, 32) * 4 * KIB)).value
                regions.append(region)
            elif action == 6 and regions:
                yield sc.touch(regions[-1], 0)
            elif action == 7 and regions:
                yield sc.vm_free(regions.pop())
            elif action == 8:
                yield sc.sleep(rng.randrange(1, 100_000))
            else:
                yield sc.stat(random_path())
        except SimOSError:
            continue
    return "survived"


@settings(max_examples=25, deadline=None)
@given(
    seeds=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=4),
    steps=st.integers(min_value=5, max_value=60),
)
def test_chaos_processes_preserve_invariants(seeds, steps):
    kernel = Kernel(small_config())
    processes = [
        kernel.spawn(chaos_process(seed, steps), f"chaos{i}")
        for i, seed in enumerate(seeds)
    ]
    kernel.run()
    # Everyone survived their own errors.
    assert all(p.result == "survived" for p in processes)
    # Clock only ever moved forward and the pools balance.
    assert kernel.clock.now >= 0
    mm = kernel.mm
    assert 0 <= mm.file_pool_used() <= mm.file_capacity_pages
    assert mm.dirty_file_pages >= 0
    # All process memory was released at exit.
    for process in processes:
        assert kernel.oracle.resident_anon_pages(process.pid) == 0
    # Filesystem bitmaps agree with inode block maps.
    for fs in kernel._fs_by_id.values():
        mapped = sum(len(inode.blocks) for inode in fs.inodes.values())
        used = sum(cg.data_blocks - cg.free_block_count for cg in fs.groups)
        assert used == mapped


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_chaos_is_deterministic(seed):
    def run():
        kernel = Kernel(small_config())
        kernel.run_process(chaos_process(seed, 40), "chaos")
        return kernel.clock.now
    assert run() == run()


# ---------------------------------------------------------------------------
# Differential fuzzing: twin kernels must agree bit-for-bit
# ---------------------------------------------------------------------------
def state_digest(kernel: Kernel) -> str:
    """Hash of everything observable about the machine's final state:
    the clock, the memory pools (every page in replacement order with
    its dirty/reference state, plus hit/miss counters), and the full
    filesystem image."""
    mm = kernel.mm
    pools = {id(mm._file_pool): mm._file_pool, id(mm._anon_pool): mm._anon_pool}
    parts = [
        f"clock:{kernel.clock.now}",
        f"filepool:{mm.file_pool_used()}",
        f"dirty:{mm.dirty_file_pages}",
        f"swap:{kernel.oracle.swap_used_slots()}",
        f"pools:{[_policy_dump(pool) for pool in pools.values()]}",
    ]
    for fs_id in sorted(kernel._fs_by_id):
        fs = kernel._fs_by_id[fs_id]
        for ino in sorted(fs.inodes):
            inode = fs.inodes[ino]
            parts.append(
                f"fs{fs_id}/ino{ino}:{inode.kind.name}:{inode.size}"
                f":{inode.mtime}:{tuple(inode.blocks)}"
            )
        parts.append(
            f"fs{fs_id}/free:{tuple(cg.free_block_count for cg in fs.groups)}"
        )
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


PROBE_FILE_BYTES = 64 * KIB
PROBE_REGION_PAGES = 16


def probe_process(seed: int, steps: int, batch: bool, page: int = 4 * KIB):
    """Mixed probe workload in batched or sequential form.

    The RNG draws are identical for both forms — only the syscall
    shape differs — so a correct kernel (and a correct injector) must
    land both twins on the same final state and clock.
    """
    rng = random.Random(seed)
    paths = []
    for i in range(4):
        path = f"/mnt0/pf{i}"
        fd = (yield sc.create(path)).value
        yield sc.write(fd, PROBE_FILE_BYTES)
        yield sc.close(fd)
        paths.append(path)
    fds = []
    for path in paths:
        # ``open`` is fault-eligible; injected streaks cap at
        # max_consecutive=2, so a few blind retries always succeed.
        for _attempt in range(8):
            try:
                fds.append((yield sc.open(path)).value)
                break
            except SimOSError:
                continue
    region = (yield sc.vm_alloc(PROBE_REGION_PAGES * page)).value

    for _ in range(steps):
        action = rng.randrange(3)
        try:
            if action == 0:
                fd = fds[rng.randrange(len(fds))]
                offsets = [
                    rng.randrange(PROBE_FILE_BYTES)
                    for _ in range(rng.randrange(1, 6))
                ]
                if batch:
                    yield sc.pread_batch(fd, [(o, 1) for o in offsets])
                else:
                    for offset in offsets:
                        yield sc.pread(fd, offset, 1)
            elif action == 1:
                count = rng.randrange(1, len(paths) + 1)
                if batch:
                    yield sc.stat_batch(paths[:count])
                else:
                    for path in paths[:count]:
                        yield sc.stat(path)
            else:
                start = rng.randrange(PROBE_REGION_PAGES // 2)
                npages = rng.randrange(1, PROBE_REGION_PAGES - start + 1)
                if batch:
                    yield sc.touch_batch(region, start, npages)
                else:
                    for index in range(start, start + npages):
                        yield sc.touch(region, index)
        except SimOSError:
            # Injected transients (the replay fuzz) are survivable; the
            # jitter-only twins never fault, so batch and sequential
            # forms cannot diverge through this handler.
            continue

    for fd in fds:
        yield sc.close(fd)
    yield sc.vm_free(region)
    return "survived"


def _probe_jitter_config(seed: int) -> InjectionConfig:
    """Latency-only noise: faults and scheduler jitter are keyed per
    *syscall*, which batched and sequential forms issue in different
    numbers; the per-probe jitter streams are the equivalence claim."""
    return InjectionConfig(
        seed=seed,
        latency=LatencyNoise(
            jitter_ns=15_000,
            spike_prob=0.05,
            spike_ns=4 * MILLIS,
            granularity_ns=5_000,
        ),
        touch_latency=LatencyNoise(jitter_ns=80, spike_prob=0.01, spike_ns=50_000),
    )


def _run_probe_twin(seed: int, batch: bool, noisy: bool, workout: bool):
    kernel = Kernel(small_config())
    injector = None
    if noisy:
        injector = FaultInjector(_probe_jitter_config(seed))
        injector.install(kernel)
    mapped = None
    if workout:
        # Snapshot while the workout's region is still mapped: freeing
        # it drops every anon page the touch paths placed.
        mapped = kernel.run_process(
            vector_workout(seed, 20, batch, lambda: state_digest(kernel)), "vw"
        )
    result = kernel.run_process(probe_process(seed, 12, batch), "probe")
    assert result == "survived"
    return kernel.clock.now, state_digest(kernel), mapped


@pytest.mark.parametrize("noisy", [False, True])
def test_differential_batch_vs_sequential(noisy):
    """60 twin pairs per mode: batched and sequential probes agree.

    Half the pairs first run :func:`vector_workout`, so every batch
    path (whole-run touches, long pread batches, stat replays) is
    checked against its one-call-per-page form.
    """
    for case in range(60):
        seed = 0xD1F + 977 * case
        workout = case % 2 == 0
        seq = _run_probe_twin(seed, batch=False, noisy=noisy, workout=workout)
        bat = _run_probe_twin(seed, batch=True, noisy=noisy, workout=workout)
        assert seq == bat, (
            f"batch/sequential divergence (noisy={noisy}): reproduce with "
            f"seed={seed} (clock/digest {seq} != {bat})"
        )


def churn_probe_process(seed: int, steps: int):
    """Metadata probes racing namespace churn, for the dcache twins.

    Every observation a process could use to distinguish the memoizing
    name cache from raw walks — stat fields, per-probe elapsed times,
    readdir listings, which paths exist at all — is folded into the
    returned fingerprint.  Unlike :func:`probe_process` this stream is
    mutation-heavy: rename, unlink-then-recreate, and directory growth
    interleave with the probes, so any stale dcache entry shows up as a
    fingerprint divergence (wrong inode, wrong times, or a probe that
    should have failed but didn't).
    """
    rng = random.Random(seed)
    yield sc.mkdir("/mnt0/churn")
    live = []
    for i in range(6):
        path = f"/mnt0/churn/c{i}"
        fd = (yield sc.create(path)).value
        yield sc.write(fd, 500 + 131 * i)
        yield sc.close(fd)
        live.append(path)
    fingerprint = []
    fresh = 0
    for _ in range(steps):
        action = rng.randrange(7)
        try:
            if action == 0:
                result = yield sc.stat(rng.choice(live))
                stat = result.value
                fingerprint.append(
                    (stat.ino, stat.size, stat.mtime, stat.ctime,
                     result.elapsed_ns)
                )
            elif action == 1:
                paths = [rng.choice(live) for _ in range(rng.randrange(1, 5))]
                result = yield sc.stat_batch(paths)
                for probe in result.value:
                    fingerprint.append(
                        (probe.stat.ino, probe.stat.size, probe.stat.mtime,
                         probe.stat.ctime, probe.elapsed_ns)
                    )
            elif action == 2:
                victim = rng.randrange(len(live))
                fresh += 1
                target = f"/mnt0/churn/r{fresh}"
                yield sc.rename(live[victim], target)
                live[victim] = target
            elif action == 3:
                victim = rng.choice(live)
                yield sc.unlink(victim)
                fd = (yield sc.create(victim)).value
                yield sc.write(fd, rng.randrange(1, 2048))
                yield sc.close(fd)
            elif action == 4:
                fresh += 1
                path = f"/mnt0/churn/n{fresh}"
                fd = (yield sc.create(path)).value
                yield sc.close(fd)
                live.append(path)
            elif action == 5:
                names = (yield sc.readdir("/mnt0/churn")).value
                fingerprint.append(tuple(names))
            else:
                # A probe of a name that churn may have moved away: the
                # error-vs-success outcome is part of the fingerprint.
                fresh_name = f"/mnt0/churn/r{rng.randrange(1, fresh + 2)}"
                try:
                    stat = (yield sc.stat(fresh_name)).value
                    fingerprint.append(("hit", stat.ino))
                except SimOSError:
                    fingerprint.append(("miss", fresh_name))
        except SimOSError:
            continue
    return hashlib.sha256(repr(fingerprint).encode()).hexdigest()


def _run_churn_twin(seed: int, name_cache: bool, noisy: bool):
    kernel = Kernel(small_config(), name_cache=name_cache)
    if noisy:
        FaultInjector(_probe_jitter_config(seed)).install(kernel)
    digest = kernel.run_process(churn_probe_process(seed, 40), "churn")
    return digest, kernel.clock.now, state_digest(kernel)


@pytest.mark.parametrize("noisy", [False, True])
def test_differential_dcache_on_vs_off(noisy):
    """30 twin pairs per mode: a kernel with the name-lookup cache is
    byte-indistinguishable from one without it, under namespace churn
    designed to leave stale walk memos behind."""
    for case in range(30):
        seed = 0xDCAC + 389 * case
        on = _run_churn_twin(seed, name_cache=True, noisy=noisy)
        off = _run_churn_twin(seed, name_cache=False, noisy=noisy)
        assert on == off, (
            f"dcache on/off divergence (noisy={noisy}): reproduce with "
            f"seed={seed} ({on} != {off})"
        )


def test_differential_inert_injector_is_noop():
    """40 twin pairs: an all-defaults injector changes nothing."""
    for case in range(40):
        seed = 0xBEEF + 31 * case

        def run(install: bool):
            kernel = Kernel(small_config())
            injector = None
            if install:
                injector = FaultInjector(InjectionConfig())
                injector.install(kernel)
            kernel.run_process(chaos_process(seed, 30), "chaos")
            if injector is not None:
                assert injector.schedule == [], f"seed={seed}"
                injector.uninstall()
            return kernel.clock.now, state_digest(kernel)

        bare, inert = run(False), run(True)
        assert bare == inert, (
            f"inert injector perturbed the machine: reproduce with "
            f"seed={seed} ({bare} != {inert})"
        )


def test_differential_noisy_replay_is_deterministic():
    """40 seeds x replay: the full noise profile is a pure function of
    its seed — same fault schedule, same interference, same machine."""
    for case in range(40):
        seed = 0xACE + 613 * case
        level = 0.25 + 0.25 * (case % 4)

        def run():
            kernel = Kernel(small_config())
            injector = FaultInjector(noise_profile(level, seed=seed))
            injector.install(kernel)
            injector.spawn_interference(
                kernel, horizon_after(kernel, 50 * MILLIS)
            )
            kernel.spawn(chaos_process(seed, 25), "chaos")
            kernel.spawn(probe_process(seed, 8, batch=bool(case % 2)), "probe")
            kernel.run()
            return (
                kernel.clock.now,
                state_digest(kernel),
                injector.schedule_digest(),
            )

        first, second = run(), run()
        assert first == second, (
            f"noisy run did not replay: reproduce with seed={seed} "
            f"level={level}"
        )


# ---------------------------------------------------------------------------
# Batch-path workout and touch-syscall routing
# ---------------------------------------------------------------------------
def vector_workout(seed: int, steps: int, batch: bool, snapshot, page: int = 4 * KIB):
    """A stream shaped to cross every batch path *and* its per-page
    fallback: contiguous zero-fill runs, resident re-touch runs,
    strided batches, uniform and mixed-length pread batches of 10-12
    probes, dcache stat replays, and large writeback storms.

    ``batch=False`` issues the same RNG draws as one ``touch``,
    ``pread`` or ``stat`` per page, probe or path, so a correct kernel
    lands both forms on the same clock and machine state.  Returns
    ``snapshot()`` taken just before the region is freed.
    """
    rng = random.Random(seed)

    def touches(region, start, npages, stride=1):
        if batch:
            yield sc.touch_batch(region, start, npages, stride=stride)
        else:
            for index in range(start, start + npages, stride):
                yield sc.touch(region, index)

    def preads(fd, probes):
        if batch:
            yield sc.pread_batch(fd, probes)
        else:
            for offset, nbytes in probes:
                yield sc.pread(fd, offset, nbytes)

    fd = (yield sc.create("/mnt0/vw.dat")).value
    yield sc.write(fd, 2 * MIB)  # 512 dirty blocks: one large writeback storm
    region = (yield sc.vm_alloc(64 * page)).value
    yield from touches(region, 0, 64)  # tier-2 zero-fill run
    paths = []
    for i in range(3):
        path = f"/mnt0/vw{i}"
        nfd = (yield sc.create(path)).value
        yield sc.write(nfd, 16 * KIB)
        yield sc.close(nfd)
        paths.append(path)
    for _ in range(steps):
        action = rng.randrange(6)
        if action == 0:
            start, npages = rng.randrange(32), 1 + rng.randrange(32)
            if batch:
                yield sc.touch_range(region, start, npages)
            else:
                yield from touches(region, start, npages)
        elif action == 1:
            yield from touches(
                region, rng.randrange(8), 1 + rng.randrange(16), 1 + rng.randrange(3)
            )
        elif action == 2:
            offsets = [rng.randrange(2 * MIB) for _ in range(12)]
            length = 1 if rng.randrange(2) else 1 + rng.randrange(64)
            yield from preads(fd, [(o, length) for o in offsets])
        elif action == 3:
            # Mixed lengths; some spill over a page edge (pread_at path).
            probes = [
                (rng.randrange(2 * MIB), 1 + rng.randrange(8 * KIB))
                for _ in range(10)
            ]
            yield from preads(fd, probes)
        elif action == 4:
            if batch:
                yield sc.stat_batch(paths)
            else:
                for path in paths:
                    yield sc.stat(path)
        else:
            yield sc.write(fd, rng.randrange(1, 128 * KIB))
    yield sc.close(fd)
    mapped = snapshot()
    yield sc.vm_free(region)
    return mapped


@pytest.mark.parametrize("noisy", [False, True])
def test_differential_touch_range_vs_touch_batch(noisy):
    """touch_range must be touch_batch at stride 1 with no predicate:
    same per-page times, same clock, same machine, with and without
    probe jitter (the two syscalls share one interior; this pins the
    routing)."""
    for case in range(12):
        seed = 0x7A9 + 211 * case
        rng = random.Random(seed)
        plan = [
            (rng.randrange(24), 1 + rng.randrange(40))
            for _ in range(10)
        ]

        def run(use_range: bool):
            kernel = Kernel(small_config())
            if noisy:
                FaultInjector(_probe_jitter_config(seed)).install(kernel)

            def app():
                region = (yield sc.vm_alloc(64 * 4 * KIB)).value
                collected = []
                for start, npages in plan:
                    if use_range:
                        result = yield sc.touch_range(region, start, npages)
                        collected.append(list(result.value))
                    else:
                        result = yield sc.touch_batch(region, start, npages)
                        collected.append(list(result.value.elapsed_ns))
                yield sc.vm_free(region)
                return collected
            times = kernel.run_process(app(), "touch")
            return times, kernel.clock.now, state_digest(kernel)

        as_range, as_batch = run(True), run(False)
        assert as_range == as_batch, (
            f"touch_range/touch_batch divergence (noisy={noisy}): "
            f"reproduce with seed={seed}"
        )


# ---------------------------------------------------------------------------
# Policy batch primitives: batched update == sequential fold
# ---------------------------------------------------------------------------
def _policy_dump(policy):
    """Complete visible state of a policy, for exact twin comparison."""
    from repro.sim.cache.clockpolicy import ClockPolicy
    from repro.sim.cache.segmap import SegmapPolicy

    if isinstance(policy, ClockPolicy):
        rings = [
            [(key, frame.referenced, frame.dirty) for key, frame in ring.items()]
            for ring in (policy._file_ring, policy._anon_ring)
        ]
        state = ("clock", rings)
    elif isinstance(policy, SegmapPolicy):
        state = (
            "segmap",
            [(owner, list(pages.items())) for owner, pages in policy._owners.items()],
            sorted(policy._first_seen.items()),
        )
    else:
        state = ("lru", list(policy._pages.items()))
    return state, policy.stats.hits, policy.stats.misses, len(policy)


def _fresh_policies():
    from repro.sim.cache.clockpolicy import ClockPolicy
    from repro.sim.cache.lru import LRUPolicy
    from repro.sim.cache.segmap import SegmapPolicy

    return [LRUPolicy(), ClockPolicy(), SegmapPolicy()]


@settings(max_examples=60, deadline=None)
@given(
    warm=st.lists(
        st.tuples(st.integers(min_value=0, max_value=30), st.booleans()),
        max_size=24,
    ),
    hit_picks=st.lists(st.integers(min_value=0, max_value=30), max_size=12),
    batch_dirty=st.booleans(),
    fresh=st.sets(st.integers(min_value=100, max_value=130), max_size=12),
)
def test_policy_batch_equals_sequential_fold(warm, hit_picks, batch_dirty, fresh):
    """``touch_cached_many`` == N resident touches (and nothing at all
    when any key is absent), ``insert_absent_many`` == N absent
    touches, for every policy.

    The twin policies see the same warm-up stream; then one applies the
    batched primitives while the other folds the equivalent ``touch``
    loop, and their full state (order, dirty/reference bits, owner
    bookkeeping, hit/miss counters) must match exactly.
    """
    from repro.sim.cache.base import FileKey

    def key_of(i):
        return FileKey(0, 1 + i % 3, i)  # a few distinct owners

    for batched, folded in zip(_fresh_policies(), _fresh_policies()):
        for i, dirty in warm:
            batched.touch(key_of(i), dirty)
            folded.touch(key_of(i), dirty)

        resident = {key for key in batched.keys()}
        hits = [key_of(i) for i in hit_picks if key_of(i) in resident]
        absent = [key_of(i) for i in sorted(fresh)]
        if absent:
            # All or nothing: one absent key anywhere leaves no trace.
            assert not batched.touch_cached_many(hits + absent[:1], batch_dirty)
            assert _policy_dump(batched) == _policy_dump(folded)
        assert batched.touch_cached_many(hits, batch_dirty)
        for key in hits:
            folded.touch(key, batch_dirty)

        if absent:
            batched.insert_absent_many(absent, batch_dirty)
            for key in absent:
                folded.touch(key, batch_dirty)

        assert _policy_dump(batched) == _policy_dump(folded), (
            type(batched).__name__
        )

        # And the two must keep agreeing through victim selection.
        if len(batched):
            want = min(len(batched), 5)
            assert [e.key for e in batched.pop_victims(want)] == [
                e.key for e in folded.pop_victims(want)
            ], type(batched).__name__


# ---------------------------------------------------------------------------
# Attribution invariants: random storms must stay correctly attributed
# ---------------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    seeds=st.lists(st.integers(min_value=0, max_value=10_000), min_size=2, max_size=4),
    steps=st.integers(min_value=10, max_value=50),
)
def test_chaos_attribution_invariants(seeds, steps):
    """Whatever the interleave, the attribution bookkeeping must close.

    Three ledgers are checked against each other:

    * every pid stamped on an event or span (and every instigator /
      victim of a reclaim) is a pid the kernel actually spawned, or the
      0 = unattributed bucket;
    * the per-pid syscall ledger sums to the kernel's aggregate
      per-syscall counters, name by name;
    * the interference matrix has exactly one (instigator, victim) cell
      increment per ``kernel.reclaim`` event, so its cell sum equals the
      reclaim event count.
    """
    from repro.obs.views import interference_matrix, split_by_pid

    kernel = Kernel(small_config())
    processes = [
        kernel.spawn(chaos_process(seed, steps), f"chaos{i}")
        for i, seed in enumerate(seeds)
    ]
    kernel.run()
    assert all(p.result == "survived" for p in processes)

    spawned = {p.pid for p in processes}
    records = list(kernel.obs.events)

    # 1. Every attributed record names a real process (0 = host-side).
    for record in records:
        pid = record.get("pid")
        assert pid is None or pid in spawned, record
    for record in records:
        if record.get("type") == "event" and record.get("name") == "kernel.reclaim":
            attrs = record["attrs"]
            assert attrs["instigator_pid"] in spawned | {0}, record
            assert attrs["victim_pid"] in spawned | {0}, record
            assert sum(attrs["victims_by_pid"].values()) == attrs["pages"], record

    # 2. The per-pid syscall ledger sums to the aggregate counters.
    assert set(kernel.obs.syscalls_by_pid) <= spawned
    totals = {}
    for by_pid in kernel.obs.syscalls_by_pid.values():
        for name, count in by_pid.items():
            totals[name] = totals.get(name, 0) + count
    for name, count in totals.items():
        counter = kernel.obs.metrics.counter(f"kernel.syscall.{name}.calls")
        assert counter.value == count, (
            f"per-pid ledger for {name!r} sums to {count}, "
            f"aggregate counter says {counter.value}"
        )

    # 3. One matrix cell increment per reclaim event.
    matrix = interference_matrix(records)
    reclaims = sum(
        1 for r in records
        if r.get("type") == "event" and r.get("name") == "kernel.reclaim"
    )
    assert sum(sum(row.values()) for row in matrix.values()) == reclaims

    # 4. The per-pid views partition the stream: nothing lost, nothing
    #    double-counted.
    buckets = split_by_pid(records)
    assert sum(len(b) for b in buckets.values()) == len(records)


# ======================================================================
# Covert-channel replay
# ======================================================================
def test_differential_channels_noisy_replay():
    """Same (seed, config) ⇒ identical decoded bits and obs digest.

    The covert-channel harness stacks every determinism-sensitive layer
    at once — arena interleaving, tagged step boundaries, the injector's
    full noise ladder (including interference tenants), and the framing
    codec — so a byte-identical replay here pins all of them together.
    """
    from repro.experiments.channels import run_channel

    for channel in ("residency", "writeback"):
        first = run_channel(channel, noise=0.5, n_bits=24)
        second = run_channel(channel, noise=0.5, n_bits=24)
        assert first.decoded_bits == second.decoded_bits, channel
        assert first.digest == second.digest, channel
        assert first.latencies == second.latencies, channel
        assert first.frame_span_ns == second.frame_span_ns, channel
