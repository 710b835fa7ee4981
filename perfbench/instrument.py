"""Host-side instrumentation the benchmark installs around the simulator.

Everything here wraps public entry points from outside: class methods
are replaced on the class, module functions in every module that
imported them, and per-machine syscall handlers through the kernel's
own ``SyscallTable``.  Nothing is edited in the program, and every
replacement is undone by :meth:`Patcher.restore`.

Two instruments share one :class:`Patcher`:

* :class:`MachineProbe` (always on) times set-up per machine -- from
  the start of ``Kernel.__init__`` to the end of that machine's first
  ``Oracle.flush_file_cache()``, or to the end of construction if the
  machine is never flushed -- counts simulated syscalls completed, and
  keeps each trial's returned value so the output check can compare
  trials one by one.
* :class:`Tracer` (``--trace 1`` only) opens a span at each layer
  boundary and charges every span its *self* time: its duration minus
  the part of it that child spans cover.  Self times of all layers plus
  the root's own self time (``untraced_s``) add up to the traced wall
  time exactly.
"""

from __future__ import annotations

import importlib
import sys
import weakref
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.experiments import runner
from repro.obs import Observability
from repro.sim.arena import Arena
from repro.sim.dispatch import SyscallTable
from repro.sim.inject import FaultInjector
from repro.sim.kernel import Kernel, Oracle

_MISSING = object()


# ======================================================================
# Patching
# ======================================================================
class Patcher:
    """Replace attributes and put every original back afterwards."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        """Set ``owner.name = make(original)``; the name must be owner's own."""
        original = vars(owner).get(name, _MISSING)
        if original is _MISSING:
            raise AttributeError(f"{owner!r} does not define {name!r} itself")
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def patch_everywhere(
        self, module: Any, name: str, make: Callable[[Any], Any]
    ) -> None:
        """Patch a module function and every module-level alias of it.

        Drivers import functions by name (``from ... import run_trials``),
        so the defining module alone would miss their calls.
        """
        original = getattr(module, name)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            if mod is not None and vars(mod).get(name, _MISSING) is original:
                self._saved.append((mod, name, original))
                setattr(mod, name, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def saved(self) -> List[Tuple[Any, str, Any]]:
        return list(self._saved)


# ======================================================================
# Per-machine accounting (both modes)
# ======================================================================
class Machine:
    """One simulated machine's set-up window and final counters."""

    __slots__ = (
        "start_ns", "setup_end_ns", "flushed", "syscalls_at_setup",
        "syscalls", "dcache", "disk_requests", "cache_hits",
        "cache_misses", "reclaims",
    )

    def __init__(self, start_ns: int) -> None:
        self.start_ns = start_ns
        self.setup_end_ns = start_ns
        self.flushed = False
        self.syscalls_at_setup = 0
        self.syscalls = 0
        self.dcache = (0, 0, 0)  # hits, misses, invalidations
        self.disk_requests = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.reclaims = 0

    @property
    def setup_ns(self) -> int:
        return self.setup_end_ns - self.start_ns


def completed_syscalls(obs: Any) -> int:
    """Syscalls that completed on this machine (the per-pid ledger sum)."""
    return sum(sum(calls.values()) for calls in obs.syscalls_by_pid.values())


def _read_final(machine: Machine, obs: Any, mm: Any, dcache: Any, disks: List[Any]) -> None:
    machine.syscalls = completed_syscalls(obs)
    if dcache is not None:
        machine.dcache = (dcache.hits, dcache.misses, dcache.invalidations)
    machine.disk_requests = sum(d.stats.reads + d.stats.writes for d in disks)
    pool = mm.file_pool_stats()
    machine.cache_hits = pool.hits
    machine.cache_misses = pool.misses
    machine.reclaims = mm.daemon_stats.activations


class MachineProbe:
    """Set-up timing, syscall counts and trial values for one workload run.

    Final counters are read when a machine is garbage-collected (a
    ``weakref.finalize`` holding only objects the kernel owns), or by
    :meth:`finish` for machines still alive when the run ends.
    """

    def __init__(self) -> None:
        self.machines: List[Machine] = []
        self.trial_values: List[Any] = []
        self._finalizers: List[Any] = []
        self._by_oracle: "weakref.WeakKeyDictionary[Any, Tuple[Machine, Any]]" = (
            weakref.WeakKeyDictionary()
        )
        self._by_kernel: "weakref.WeakKeyDictionary[Any, Machine]" = (
            weakref.WeakKeyDictionary()
        )

    def install(self, patcher: Patcher) -> None:
        probe = self

        def kernel_init(original: Callable) -> Callable:
            def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
                machine = Machine(perf_counter_ns())
                probe.machines.append(machine)
                # Registered first: the constructor builds ``kernel.oracle``.
                probe._by_kernel[self] = machine
                original(self, *args, **kwargs)
                machine.setup_end_ns = perf_counter_ns()
                probe._finalizers.append(
                    weakref.finalize(
                        self, _read_final, machine, self.obs, self.mm,
                        self.vfs.dcache, [*self.data_disk_list, self.swap_disk],
                    )
                )

            return __init__

        def oracle_init(original: Callable) -> Callable:
            def __init__(self: Any, kernel: Any) -> None:
                original(self, kernel)
                machine = probe._by_kernel.get(kernel)
                if machine is not None:
                    probe._by_oracle[self] = (machine, kernel.obs)

            return __init__

        def flush(original: Callable) -> Callable:
            def flush_file_cache(self: Any, *args: Any, **kwargs: Any) -> Any:
                result = original(self, *args, **kwargs)
                entry = probe._by_oracle.get(self)
                if entry is not None and not entry[0].flushed:
                    machine, obs = entry
                    machine.setup_end_ns = perf_counter_ns()
                    machine.flushed = True
                    machine.syscalls_at_setup = completed_syscalls(obs)
                return result

            return flush_file_cache

        def trials(original: Callable) -> Callable:
            def run_trials(specs: Sequence[Any], *args: Any, **kwargs: Any) -> List[Any]:
                values = original(specs, *args, **kwargs)
                probe.trial_values.extend(values)
                return values

            return run_trials

        patcher.patch(Kernel, "__init__", kernel_init)
        patcher.patch(Oracle, "__init__", oracle_init)
        patcher.patch(Oracle, "flush_file_cache", flush)
        patcher.patch_everywhere(runner, "run_trials", trials)

    def finish(self) -> None:
        """Read the counters of machines that are still alive."""
        for finalizer in self._finalizers:
            finalizer()
        self._finalizers.clear()

    @property
    def setup_ns(self) -> int:
        return sum(m.setup_ns for m in self.machines)

    @property
    def syscalls(self) -> int:
        return sum(m.syscalls for m in self.machines)

    @property
    def syscalls_after_setup(self) -> int:
        return sum(m.syscalls - m.syscalls_at_setup for m in self.machines)


# ======================================================================
# Span tracing (--trace 1)
# ======================================================================
class Tracer:
    """A span stack charging each layer bucket its self time.

    ``_stack[-1]`` accumulates the time covered by the children of the
    innermost open span; ``_stack[0]`` belongs to the root.  A bucket's
    cell is ``[self_ns, calls]``.
    """

    def __init__(self) -> None:
        self.cells: Dict[str, List[int]] = {}
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = [0]
        self.root_ns = 0

    # --- core ------------------------------------------------------------
    def cell(self, bucket: str) -> List[int]:
        cell = self.cells.get(bucket)
        if cell is None:
            cell = self.cells[bucket] = [0, 0]
        return cell

    def wrap(self, bucket: str, fn: Callable) -> Callable:
        """``fn`` timed as a span charged to ``bucket``."""
        cell = self.cell(bucket)
        stack = self._stack
        clock = perf_counter_ns

        def span(*args: Any, **kwargs: Any) -> Any:
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                cell[0] += elapsed - stack.pop()
                cell[1] += 1
                stack[-1] += elapsed

        span.__wrapped__ = fn  # type: ignore[attr-defined]
        span.perfbench_bucket = bucket  # type: ignore[attr-defined]
        return span

    def body(self, bucket: str, gen: Any) -> "TimedBody":
        return TimedBody(gen, self.cell(bucket), self._stack)

    def run_root(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as the root span; its own self time is ``untraced``."""
        self._stack[:] = [0]
        t0 = perf_counter_ns()
        try:
            return fn()
        finally:
            self.root_ns = perf_counter_ns() - t0

    @property
    def untraced_ns(self) -> int:
        return self.root_ns - self._stack[0]

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # --- layer table -----------------------------------------------------
    def install(self, patcher: Patcher, syscalls: Iterable[str]) -> None:
        """Wrap each layer's public entry points (see ``LAYER_METHODS``)."""
        for module_name, qualname, bucket in LAYER_METHODS:
            owner: Any = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            if path:
                patcher.patch(owner, attr, lambda f, b=bucket: self.wrap(b, f))
            else:
                patcher.patch_everywhere(owner, attr, lambda f, b=bucket: self.wrap(b, f))
        self._install_special(patcher, frozenset(syscalls))

    def _install_special(self, patcher: Patcher, known: frozenset) -> None:
        tracer = self

        def syscall_span(name: str, handler: Callable) -> Callable:
            bucket = f"syscall.{name}" if name in known else "syscall.other"
            return tracer.wrap(bucket, handler)

        def is_syscall_span(handler: Any) -> bool:
            return str(getattr(handler, "perfbench_bucket", "")).startswith("syscall.")

        def register(original: Callable) -> Callable:
            def register(self: Any, name: str, handler: Callable) -> None:
                original(self, name, syscall_span(name, handler))

            return register

        def kernel_init(original: Callable) -> Callable:
            def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
                original(self, *args, **kwargs)
                # Platform overrides replaced some registered handlers.
                table = self.syscalls
                for name in list(table.names()):
                    handler = table.get(name)
                    if not is_syscall_span(handler):
                        table.override(name, syscall_span(name, handler))

            return __init__

        def spawn(original: Callable) -> Callable:
            def spawn(self: Any, gen: Any, name: str = "") -> Any:
                return original(self, tracer.body(process_bucket(name), gen), name)

            return spawn

        def spawn_piped(original: Callable) -> Callable:
            def spawn_with_pipe_ends(
                self: Any, gen_factory: Callable, ends: Any, name: str = ""
            ) -> Any:
                bucket = process_bucket(name)

                def factory(*fds: int) -> Any:
                    return tracer.body(bucket, gen_factory(*fds))

                return original(self, factory, ends, name)

            return spawn_with_pipe_ends

        installed: "weakref.WeakSet[Any]" = weakref.WeakSet()

        def install(original: Callable) -> Callable:
            def install(self: Any, kernel: Any) -> Any:
                result = original(self, kernel)
                installed.add(self)
                # The injector's dispatch wrappers sit outside the syscall
                # spans: their own cost is the injector's self time.
                table = kernel.syscalls
                for name in list(table.names()):
                    table.override(name, tracer.wrap("inject", table.get(name)))
                return result

            return install

        def uninstall(original: Callable) -> Callable:
            def uninstall(self: Any) -> None:
                if self in installed:
                    installed.discard(self)
                    tracer.count("inject.faults", self.faults_injected)
                original(self)

            return uninstall

        def arena_run(original: Callable) -> Callable:
            def run(self: Any, *args: Any, **kwargs: Any) -> Any:
                before = self.total_turns
                try:
                    return original(self, *args, **kwargs)
                finally:
                    tracer.count("arena.turns", self.total_turns - before)

            return run

        def run_trials(original: Callable) -> Callable:
            def run_trials(specs: Sequence[Any], *args: Any, **kwargs: Any) -> Any:
                tracer.count("runner.trials", len(specs))
                return original(specs, *args, **kwargs)

            return run_trials

        def dump_records(original: Callable) -> Callable:
            # The original is a generator; materialise it inside the span
            # so the export cost is charged to obs, not to the caller.
            def dump_records(self: Any) -> Any:
                return iter(list(original(self)))

            return tracer.wrap("obs.dump", dump_records)

        patcher.patch(SyscallTable, "register", register)
        patcher.patch(Kernel, "__init__", kernel_init)
        patcher.patch(Kernel, "spawn", spawn)
        patcher.patch(Kernel, "spawn_with_pipe_ends", spawn_piped)
        patcher.patch(FaultInjector, "install", install)
        patcher.patch(FaultInjector, "uninstall", uninstall)
        patcher.patch(Arena, "run", arena_run)
        patcher.patch_everywhere(runner, "run_trials", run_trials)
        patcher.patch(Observability, "dump_records", dump_records)


class TimedBody:
    """A process body whose every resumption is a span.

    Forwards ``send``/``throw``/``close`` to the wrapped generator
    unchanged, so the kernel sees the same yielded syscalls, values and
    exceptions.
    """

    __slots__ = ("_gen", "_cell", "_stack")

    def __init__(self, gen: Any, cell: List[int], stack: List[int]) -> None:
        self._gen = gen
        self._cell = cell
        self._stack = stack

    def __iter__(self) -> "TimedBody":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        return self._resume(self._gen.send, value)

    def throw(self, *args: Any) -> Any:
        return self._resume(self._gen.throw, *args)

    def _resume(self, step: Callable, *args: Any) -> Any:
        stack = self._stack
        stack.append(0)
        t0 = perf_counter_ns()
        try:
            return step(*args)
        finally:
            elapsed = perf_counter_ns() - t0
            cell = self._cell
            cell[0] += elapsed - stack.pop()
            cell[1] += 1
            stack[-1] += elapsed

    def close(self) -> None:
        self._gen.close()


def process_bucket(name: str) -> str:
    """Which ``proc.*`` bucket a process body's resumptions go to.

    By process name, as the drivers spawn them: set-up and cache-warming
    processes; injector background processes; ICL clients (FCCD, FLDC,
    MAC and the FLDC refresher); everything else is an application.
    """
    if name.startswith(("setup", "warm")):
        return "proc.setup"
    if "inject" in name:
        return "proc.inject"
    if name.startswith(("fccd", "fldc", "mac", "refresh")):
        return "proc.icl"
    return "proc.app"


#: (module, attribute path, bucket).  A dotted path patches a method on
#: its class; a bare name patches a module function and its aliases.
LAYER_METHODS: Tuple[Tuple[str, str, str], ...] = (
    # sim.kernel
    ("repro.sim.kernel", "Kernel.__init__", "kernel.boot"),
    ("repro.sim.kernel", "Kernel.run", "kernel.loop"),
    ("repro.sim.kernel", "Kernel.run_until_blocked", "kernel.loop"),
    ("repro.sim.kernel", "Kernel.run_process", "kernel.loop"),
    ("repro.sim.kernel", "Kernel.spawn", "kernel.loop"),
    ("repro.sim.kernel", "Kernel.spawn_with_pipe_ends", "kernel.loop"),
    ("repro.sim.kernel", "Oracle.flush_file_cache", "kernel.flush"),
    # sim.proc
    ("repro.sim.proc.scheduler", "Scheduler.next_ready", "sched.next_ready"),
    # sim.fs
    ("repro.sim.fs.ffs", "FFS.__init__", "ffs.mkfs"),
    ("repro.sim.fs.ffs", "CylinderGroup.__init__", "ffs.mkfs"),
    ("repro.sim.fs.ffs", "FFS.create", "ffs.alloc"),
    ("repro.sim.fs.ffs", "FFS.unlink", "ffs.alloc"),
    ("repro.sim.fs.ffs", "FFS.rmdir", "ffs.alloc"),
    ("repro.sim.fs.ffs", "FFS.rename", "ffs.alloc"),
    ("repro.sim.fs.ffs", "FFS.alloc_blocks", "ffs.alloc"),
    ("repro.sim.fs.ffs", "FFS.free_block_list", "ffs.alloc"),
    ("repro.sim.fs.ffs", "FFS.grow_to_size", "ffs.alloc"),
    ("repro.sim.fs.ffs", "FFS.free_blocks_total", "ffs.alloc"),
    ("repro.sim.fs.namei", "NameLayer.resolve", "namei.walk"),
    ("repro.sim.fs.namei", "NameLayer.resolve_memo", "namei.walk"),
    ("repro.sim.fs.namei", "NameLayer.resolve_parent", "namei.walk"),
    ("repro.sim.fs.namei", "NameLayer.walk_fast", "dcache.lookup"),
    ("repro.sim.fs.dcache", "NameCache.lookup", "dcache.lookup"),
    ("repro.sim.fs.dcache", "NameCache.store", "dcache.lookup"),
    ("repro.sim.fs.dcache", "NameCache.invalidate", "dcache.lookup"),
    # sim.pagecache
    ("repro.sim.pagecache", "PageCacheManager.read_file_pages", "pagecache.io"),
    ("repro.sim.pagecache", "PageCacheManager.write_file_pages", "pagecache.io"),
    ("repro.sim.pagecache", "PageCacheManager.dispose_victims", "pagecache.writeback"),
    ("repro.sim.pagecache", "PageCacheManager.write_block_runs", "pagecache.writeback"),
    ("repro.sim.pagecache", "PageCacheManager.throttle_dirty", "pagecache.throttle"),
    # sim.vm
    ("repro.sim.vm.physmem", "MemoryManager.touch_file", "mm.touch_file"),
    ("repro.sim.vm.physmem", "MemoryManager.touch_file_cached", "mm.touch_file"),
    ("repro.sim.vm.physmem", "MemoryManager.touch_files_cached", "mm.touch_file"),
    ("repro.sim.vm.physmem", "MemoryManager.touch_file_pages_resident", "mm.touch_file"),
    ("repro.sim.vm.physmem", "MemoryManager.anon_fault", "mm.anon_fault"),
    ("repro.sim.vm.physmem", "MemoryManager.anon_fault_resident", "mm.anon_fault"),
    ("repro.sim.vm.physmem", "MemoryManager.touch_anon_resident_run", "mm.anon_fault"),
    ("repro.sim.vm.physmem", "MemoryManager.anon_zero_fill_run", "mm.anon_fault"),
    ("repro.sim.vm.physmem", "MemoryManager.oldest_dirty_file_keys", "mm.dirty_scan"),
    ("repro.sim.vm.physmem", "MemoryManager.free_anon_pages", "mm.release"),
    ("repro.sim.vm.physmem", "MemoryManager.release_process", "mm.release"),
    ("repro.sim.vm.physmem", "MemoryManager.drop_file_page", "mm.release"),
    # sim.disk
    ("repro.sim.disk", "Disk.access", "disk.access"),
    ("repro.sim.disk", "Disk.access_runs", "disk.access"),
    # sim.arena
    ("repro.sim.arena", "Arena.__init__", "arena.grant"),
    ("repro.sim.arena", "Arena.add_client", "arena.grant"),
    ("repro.sim.arena", "Arena.run", "arena.grant"),
    # sim.inject
    ("repro.sim.inject", "FaultInjector.install", "inject"),
    ("repro.sim.inject", "FaultInjector.uninstall", "inject"),
    ("repro.sim.inject", "FaultInjector.probe_elapsed", "inject"),
    ("repro.sim.inject", "FaultInjector.spawn_interference", "inject"),
    # obs
    ("repro.obs", "Observability.record_syscall", "obs.record"),
    ("repro.obs", "Observability.record_syscall_error", "obs.record"),
    ("repro.obs", "Observability.count", "obs.record"),
    ("repro.obs", "Observability.gauge_set", "obs.record"),
    ("repro.obs", "Observability.observe", "obs.record"),
    ("repro.obs", "Observability.event", "obs.record"),
    ("repro.obs", "Observability.span", "obs.record"),
    ("repro.obs", "Observability.span_batch", "obs.record"),
    ("repro.obs.events", "Span.start", "obs.record"),
    ("repro.obs.events", "Span.end", "obs.record"),
    ("repro.obs", "Observability.collect", "obs.dump"),
    ("repro.obs", "MetricsCapture.samples", "obs.dump"),
    ("repro.obs.metrics", "merge_samples", "obs.dump"),
    ("repro.obs.export", "stream_digest", "obs.dump"),
    ("repro.obs.views", "client_rollup", "obs.dump"),
    # experiments
    ("repro.experiments.runner", "run_trials", "runner"),
)


# ======================================================================
# Per-layer metrics
# ======================================================================
#: Syscalls the workloads issue, each with its own metrics; any other
#: syscall is charged to ``syscall.other``.
LAYER_SYSCALLS: Tuple[str, ...] = (
    "arena_park", "close", "compute", "create", "fstat", "fsync", "gettime",
    "mkdir", "open", "pread", "pread_batch", "pwrite", "read", "readdir",
    "rename", "rmdir", "sleep", "stat", "stat_batch", "touch", "touch_batch",
    "touch_range", "unlink", "utimes", "vm_alloc", "vm_free", "write",
)

#: Bucket -> reported self-time metric.
SELF_TIME_METRICS: Tuple[Tuple[str, str], ...] = (
    ("kernel.boot", "kernel.boot_s"),
    ("ffs.mkfs", "ffs.mkfs_s"),
    ("kernel.loop", "kernel.loop_self_s"),
    ("kernel.flush", "kernel.flush_s"),
    ("sched.next_ready", "sched.next_ready_s"),
    ("namei.walk", "namei.walk_s"),
    ("dcache.lookup", "dcache.lookup_s"),
    ("ffs.alloc", "ffs.alloc_s"),
    ("pagecache.io", "pagecache.io_s"),
    ("pagecache.writeback", "pagecache.writeback_s"),
    ("pagecache.throttle", "pagecache.throttle_s"),
    ("mm.touch_file", "mm.touch_file_s"),
    ("mm.anon_fault", "mm.anon_fault_s"),
    ("mm.dirty_scan", "mm.dirty_scan_s"),
    ("mm.release", "mm.release_s"),
    ("disk.access", "disk.access_s"),
    ("proc.icl", "proc.icl_self_s"),
    ("proc.app", "proc.app_self_s"),
    ("proc.inject", "proc.inject_self_s"),
    ("proc.setup", "proc.setup_self_s"),
    ("arena.grant", "arena.grant_self_s"),
    ("inject", "inject.self_s"),
    ("runner", "runner.self_s"),
    ("obs.record", "obs.record_s"),
    ("obs.dump", "obs.dump_s"),
) + tuple(
    (f"syscall.{name}", f"syscall.{name}.self_s") for name in LAYER_SYSCALLS + ("other",)
)

#: Reported call counts: metric -> bucket whose spans are counted.
CALL_COUNTS: Tuple[Tuple[str, str], ...] = (
    ("kernel.boots", "kernel.boot"),
    ("mm.dirty_scans", "mm.dirty_scan"),
) + tuple(
    (f"syscall.{name}.calls", f"syscall.{name}") for name in LAYER_SYSCALLS + ("other",)
)

#: Every per-layer metric with its unit, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    tuple((metric, "s") for _bucket, metric in SELF_TIME_METRICS)
    + tuple((metric, "count") for metric, _bucket in CALL_COUNTS)
    + (
        ("dcache.hits", "count"), ("dcache.misses", "count"),
        ("dcache.hit_ratio", "ratio"), ("dcache.invalidations", "count"),
        ("disk.requests", "count"), ("cache.hit_ratio", "ratio"),
        ("mm.reclaims", "count"), ("arena.turns", "count"),
        ("inject.faults", "count"), ("runner.trials", "count"),
        ("untraced_s", "s"), ("traced_wall_s", "s"), ("layer_share", "ratio"),
        ("trace_overhead", "ratio"),
    )
)


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(tracer: Tracer, probe: MachineProbe) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric except ``trace_overhead`` for one traced run."""
    cells = tracer.cells
    unknown = set(cells) - {bucket for bucket, _metric in SELF_TIME_METRICS}
    if unknown:
        raise KeyError(f"buckets without a metric: {sorted(unknown)}")
    metrics: Dict[str, float] = {
        metric: cells.get(bucket, (0, 0))[0] / 1e9 for bucket, metric in SELF_TIME_METRICS
    }
    metrics.update(
        (metric, cells.get(bucket, (0, 0))[1]) for metric, bucket in CALL_COUNTS
    )
    machines = probe.machines
    hits = sum(m.dcache[0] for m in machines)
    misses = sum(m.dcache[1] for m in machines)
    cache_hits = sum(m.cache_hits for m in machines)
    cache_misses = sum(m.cache_misses for m in machines)
    metrics.update({
        "dcache.hits": hits,
        "dcache.misses": misses,
        "dcache.hit_ratio": _ratio(hits, hits + misses),
        "dcache.invalidations": sum(m.dcache[2] for m in machines),
        "disk.requests": sum(m.disk_requests for m in machines),
        "cache.hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
        "mm.reclaims": sum(m.reclaims for m in machines),
        "arena.turns": tracer.counts.get("arena.turns", 0),
        "inject.faults": tracer.counts.get("inject.faults", 0),
        "runner.trials": tracer.counts.get("runner.trials", 0),
        "untraced_s": tracer.untraced_ns / 1e9,
        "traced_wall_s": tracer.root_ns / 1e9,
        "layer_share": 1 - _ratio(tracer.untraced_ns, tracer.root_ns),
    })
    return metrics
