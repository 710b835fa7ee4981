"""Robustness sweep: ICL answer accuracy versus injected noise.

Each trial builds a small kernel, installs a :class:`FaultInjector`
with :func:`noise_profile`'s ladder (latency jitter and spikes,
transient EAGAIN/EINTR faults, scheduling jitter, and — from level 0.3
— background interference processes), runs one ICL question whose
ground truth the oracle knows, and scores the answer:

* **FCCD** — half of a directory's files are re-read after a cache
  flush; the score is the fraction of (cached, cold) pairs the inferred
  ordering puts in the right relative order.
* **FLDC** — files are created in a known order under randomised names;
  the score is pairwise agreement between ``layout_order`` and creation
  order.
* **MAC** — two admission decisions: a modest request on a free machine
  (must grant, within oracle availability) and an impossible request
  (must deny); the score is the fraction decided correctly.

Every trial runs in a *hardened* and an *unhardened* variant sharing
the same injection seed, so each row of the figure compares the two
configurations under byte-identical fault schedules.  Hardened means
the defaults grown for this purpose: bounded retry-with-backoff on
probe syscalls, probe re-sampling with outlier rejection (FCCD),
confidence-gated ordering, and windowed+retried verify loops (MAC).
Unhardened means ``NO_RETRY`` and every hardening knob at its off
default — a transient fault is an unanswered question (accuracy 0).

``NOISE_BUDGET`` is the documented level up to which hardened answers
are expected to stay correct; the differential harness and the tracked
benchmark both assert at that level.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.harness import FigureResult, mean_std
from repro.experiments.runner import TrialSpec, derive_seed, run_trials
from repro.icl.fccd import FCCD
from repro.icl.fldc import FLDC
from repro.icl.mac import MAC
from repro.sim import (
    FaultInjector,
    Kernel,
    MachineConfig,
    MILLIS,
    NOISE_DOMAINS,
    TransientError,
    noise_profile,
)
from repro.sim import syscalls as sc
from repro.sim.inject import horizon_after
from repro.toolbox.cluster import two_means
from repro.toolbox.retry import NO_RETRY
from repro.workloads.files import create_files

KIB = 1024
MIB = 1024 * 1024

#: Noise level (see :func:`repro.sim.inject.noise_profile`) up to which
#: the hardened ICLs are expected to keep answering correctly.  At 0.5:
#: 10 us probe jitter, 5% 8 ms spikes, 5% transient faults, 25 us
#: scheduling jitter, plus a cache dirtier and a CPU hog.
NOISE_BUDGET = 0.5

LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)

#: How long the background interference processes run past the point
#: the ICL starts probing (simulated time).
INTERFERENCE_HORIZON_NS = 300 * MILLIS


def fccd_trial_config() -> MachineConfig:
    """Small pages so repeated probe rounds stay Heisenberg-safe.

    A prediction unit spans 16 pages; five probe rounds self-cache at
    most 5 of them, so a cold unit still answers slow with high
    probability on every round.
    """
    return MachineConfig(
        page_size=16 * KIB,
        memory_bytes=64 * MIB,
        kernel_reserved_bytes=8 * MIB,
        data_disks=1,
    )


def small_trial_config() -> MachineConfig:
    """The FLDC/MAC machine: 56 MB available, 64 KiB pages."""
    return MachineConfig(
        page_size=64 * KIB,
        memory_bytes=64 * MIB,
        kernel_reserved_bytes=8 * MIB,
        data_disks=1,
    )


def _pairwise_accuracy(order: Sequence[str], rank: Mapping[str, int]) -> float:
    """Fraction of pairs ``order`` places consistently with ``rank``."""
    correct = total = 0
    for i, first in enumerate(order):
        for second in order[i + 1 :]:
            total += 1
            if rank[first] < rank[second]:
                correct += 1
    return correct / total if total else 1.0


def _binary_ordering_accuracy(
    order: Sequence[str], cached: Sequence[str]
) -> float:
    """Fraction of (cached, cold) pairs ordered cached-first."""
    position = {path: i for i, path in enumerate(order)}
    cached_set = set(cached)
    cold = [p for p in order if p not in cached_set]
    pairs = [(c, u) for c in cached if c in position for u in cold]
    if not pairs:
        return 1.0
    correct = sum(1 for c, u in pairs if position[c] < position[u])
    return correct / len(pairs)


def _install_noise(
    kernel: Kernel,
    level: float,
    seed: int,
    domains: Optional[Tuple[str, ...]] = None,
) -> FaultInjector:
    injector = FaultInjector(noise_profile(level, seed=seed, domains=domains))
    injector.install(kernel)
    injector.spawn_interference(
        kernel, horizon_after(kernel, INTERFERENCE_HORIZON_NS)
    )
    return injector


# ======================================================================
# Trial functions (module-level: picklable for the process pool)
# ======================================================================
def _fccd_robustness_trial(
    seed: int,
    *,
    config: MachineConfig,
    level: float,
    hardened: bool,
    domains: Optional[Tuple[str, ...]] = None,
    nfiles: int = 8,
    file_kib: int = 1024,
) -> Dict[str, object]:
    """Cached/cold ordering accuracy for one FCCD sweep under noise."""
    kernel = Kernel(config)
    directory = "/mnt0/rob"

    def setup():
        yield sc.mkdir(directory)
        paths = yield from create_files(directory, nfiles, file_kib * KIB)
        return paths

    paths = kernel.run_process(setup(), "setup")
    kernel.oracle.flush_file_cache()
    cached = paths[0::2]

    def warm():
        for path in cached:
            fd = (yield sc.open(path)).value
            size = (yield sc.fstat(fd)).value.size
            for offset in range(0, size, 256 * KIB):
                yield sc.pread(fd, offset, 256 * KIB)
            yield sc.close(fd)

    kernel.run_process(warm(), "warm")

    injector = _install_noise(kernel, level, seed, domains)
    fccd = FCCD(
        rng=random.Random(seed),
        access_unit_bytes=file_kib * KIB,
        prediction_unit_bytes=256 * KIB,
        obs=kernel.obs,
        retry=None if hardened else NO_RETRY,
        max_resamples=2 if hardened else 0,
    )

    def probe():
        try:
            if hardened:
                ordered, plans, _conf = yield from fccd.order_files_confident(
                    paths, rounds=3
                )
            else:
                ordered, plans = yield from fccd.order_files(paths)
        except TransientError:
            return None
        return ordered, plans

    process = kernel.spawn(probe(), "fccd")
    kernel.run()
    injector.uninstall()
    if process.result is None:
        return {"accuracy": 0.0, "answer": None}
    ordered, plans = process.result
    # The semantic answer is the inferred cached/cold partition (the
    # relative order of two equally-cold files is not a claim the probe
    # times support); two-means on the per-file scores recovers it.
    split = two_means([plans[path].mean_probe_ns for path in paths])
    inferred_cached = sorted(paths[i] for i in split.low_group)
    return {
        "accuracy": _binary_ordering_accuracy(ordered, cached),
        "answer": inferred_cached,
    }


def _fldc_robustness_trial(
    seed: int,
    *,
    config: MachineConfig,
    level: float,
    hardened: bool,
    domains: Optional[Tuple[str, ...]] = None,
    nfiles: int = 12,
) -> Dict[str, object]:
    """Creation-order recovery accuracy for one FLDC sweep under noise."""
    kernel = Kernel(config)
    rng = random.Random(seed)
    # Names whose lexical order is uncorrelated with creation order, so
    # only the probed i-numbers can recover the truth.
    names = [f"n{rng.randrange(10 ** 8):08d}-{i:02d}" for i in range(nfiles)]
    directory = "/mnt0/robdir"

    def setup():
        yield sc.mkdir(directory)
        paths = yield from create_files(directory, nfiles, 4 * KIB, names=names)
        return paths

    creation_order = kernel.run_process(setup(), "setup")

    injector = _install_noise(kernel, level, seed, domains)
    # Per-path stat (not one batched call) in both variants: the two
    # configurations must face the same number of fault opportunities.
    fldc = FLDC(
        rng=random.Random(seed),
        obs=kernel.obs,
        batch_probes=False,
        retry=None if hardened else NO_RETRY,
    )
    presented = sorted(creation_order)

    def probe():
        try:
            ordered, _stats = yield from fldc.layout_order(presented)
        except TransientError:
            return None
        return ordered

    process = kernel.spawn(probe(), "fldc")
    kernel.run()
    injector.uninstall()
    ordered = process.result
    if ordered is None:
        return {"accuracy": 0.0, "answer": None}
    rank = {path: i for i, path in enumerate(creation_order)}
    return {
        "accuracy": _pairwise_accuracy(ordered, rank),
        "answer": list(ordered),
    }


def _mac_robustness_trial(
    seed: int,
    *,
    config: MachineConfig,
    level: float,
    hardened: bool,
    domains: Optional[Tuple[str, ...]] = None,
) -> Dict[str, object]:
    """Admission-decision correctness for one MAC run under noise."""
    kernel = Kernel(config)
    injector = _install_noise(kernel, level, seed, domains)
    available = config.available_bytes
    mac = MAC(
        page_size=config.page_size,
        initial_increment_bytes=4 * MIB,
        max_increment_bytes=16 * MIB,
        rng=random.Random(seed),
        obs=kernel.obs,
        retry=None if hardened else NO_RETRY,
        robust_verify=hardened,
        verify_retries=2 if hardened else 0,
    )

    def app():
        try:
            # A modest request on an otherwise free machine: must grant,
            # and the grant must fit inside what the oracle says exists.
            allocation = yield from mac.gb_alloc(16 * MIB, 32 * MIB, MIB)
            grant_ok = (
                allocation is not None
                and 16 * MIB <= allocation.granted_bytes <= available
            )
            if allocation is not None:
                yield from mac.gb_free(allocation)
            # An impossible request: more than physical memory. Must deny.
            impossible = available + 16 * MIB
            over = yield from mac.gb_alloc(impossible, impossible, MIB)
            deny_ok = over is None
            if over is not None:
                yield from mac.gb_free(over)
        except TransientError:
            return None
        return {"grant": bool(grant_ok), "deny": bool(deny_ok)}

    process = kernel.spawn(app(), "mac")
    kernel.run()
    injector.uninstall()
    decisions = process.result
    if decisions is None:
        return {"accuracy": 0.0, "answer": None}
    accuracy = (int(decisions["grant"]) + int(decisions["deny"])) / 2.0
    return {"accuracy": accuracy, "answer": decisions}


_TRIAL_FNS = {
    "fccd": _fccd_robustness_trial,
    "fldc": _fldc_robustness_trial,
    "mac": _mac_robustness_trial,
}


def _trial_spec(
    experiment_id: str,
    icl: str,
    level: float,
    hardened: bool,
    trial: int,
    base_seed: int,
    domains: Optional[Tuple[str, ...]] = None,
) -> TrialSpec:
    config = fccd_trial_config() if icl == "fccd" else small_trial_config()
    # Hardened and unhardened variants share a seed (only ``hardened``
    # differs in params), so each comparison faces the identical fault
    # schedule; the cache still keys on the full params.
    return TrialSpec(
        experiment_id=experiment_id,
        trial_index=trial,
        fn=_TRIAL_FNS[icl],
        params=dict(
            config=config, level=level, hardened=hardened, domains=domains
        ),
        seed=derive_seed(f"robustness-{icl}-{level:.2f}", trial, base_seed),
    )


# ======================================================================
# Assembly
# ======================================================================
def robustness_noise_sweep(
    levels: Sequence[float] = LEVELS,
    trials: int = 3,
    icls: Sequence[str] = ("fccd", "fldc", "mac"),
    seed: int = 59,
    domain: Optional[str] = None,
) -> FigureResult:
    """ICL answer accuracy vs injected noise, hardened vs unhardened.

    ``domain`` restricts the injector to one noise family (a member of
    :data:`repro.sim.NOISE_DOMAINS`: ``"latency"``, ``"faults"``,
    ``"sched"``, or ``"background"``) so an accuracy drop — or a covert
    channel's capacity loss under the same injector — can be attributed
    to a specific defensive knob instead of the whole ladder at once.
    ``None`` keeps the full profile.
    """
    unknown = [name for name in icls if name not in _TRIAL_FNS]
    if unknown:
        raise ValueError(f"unknown ICL(s): {', '.join(unknown)}")
    if domain is not None and domain not in NOISE_DOMAINS:
        raise ValueError(
            f"unknown noise domain {domain!r};"
            f" choices: {', '.join(NOISE_DOMAINS)}"
        )
    domains = None if domain is None else (domain,)
    result = FigureResult(
        figure_id="robustness" if domain is None else f"robustness-{domain}",
        title="ICL answer accuracy vs injected noise level"
        + ("" if domain is None else f" ({domain}-only noise)"),
        columns=[
            "icl",
            "noise_level",
            "hardened_acc",
            "hardened_std",
            "baseline_acc",
            "baseline_std",
        ],
        scale_note=(
            f"noise budget {NOISE_BUDGET}; {trials} trial(s) per cell;"
            " shared fault schedules per (level, trial);"
            f" domains={'all' if domain is None else domain}"
        ),
    )
    cells: List[Tuple[str, float, bool]] = []
    specs: List[TrialSpec] = []
    for icl in icls:
        for level in levels:
            for hardened in (True, False):
                for trial in range(trials):
                    specs.append(
                        _trial_spec(
                            result.figure_id, icl, level, hardened, trial, seed, domains
                        )
                    )
                    cells.append((icl, level, hardened))
    values = run_trials(specs)
    scores: Dict[Tuple[str, float, bool], List[float]] = {}
    for (icl, level, hardened), value in zip(cells, values):
        scores.setdefault((icl, level, hardened), []).append(
            float(value["accuracy"])
        )
    for icl in icls:
        for level in levels:
            hard_mean, hard_std = mean_std(scores[(icl, level, True)])
            base_mean, base_std = mean_std(scores[(icl, level, False)])
            result.add(
                icl=icl,
                noise_level=level,
                hardened_acc=round(hard_mean, 4),
                hardened_std=round(hard_std, 4),
                baseline_acc=round(base_mean, 4),
                baseline_std=round(base_std, 4),
            )
    result.notes.append(
        "hardened = retry+backoff, resampling, confidence gate, windowed"
        " verify; baseline = NO_RETRY with every hardening knob off"
    )
    result.notes.append(
        f"acceptance: hardened accuracy >= 0.9 at level {NOISE_BUDGET}"
        " while the baseline demonstrably degrades"
    )
    return result


def differential_answers(
    level: float = NOISE_BUDGET,
    trials: int = 2,
    icls: Sequence[str] = ("fccd", "fldc", "mac"),
    seed: int = 59,
) -> Dict[str, bool]:
    """Twin-kernel differential check at one noise level.

    For each ICL, run the hardened variant on a quiet machine and on a
    noisy twin driven by the same seed; report whether every pair of
    answers (orderings, admission decisions) matches.  With ``level``
    at or below :data:`NOISE_BUDGET` the expected value is all-True.
    """
    verdict: Dict[str, bool] = {}
    for icl in icls:
        matches = True
        for trial in range(trials):
            quiet_spec = _trial_spec("robustness", icl, 0.0, True, trial, seed)
            noisy = _trial_spec("robustness", icl, level, True, trial, seed)
            # Quiet twin must share the noisy twin's seed so the only
            # difference between the kernels is the injected noise.
            quiet = TrialSpec(
                experiment_id=quiet_spec.experiment_id,
                trial_index=quiet_spec.trial_index,
                fn=quiet_spec.fn,
                params=dict(quiet_spec.params, level=0.0),
                seed=noisy.resolved_seed(),
            )
            quiet_value, noisy_value = run_trials([quiet, noisy])
            matches = matches and quiet_value["answer"] == noisy_value["answer"]
        verdict[icl] = matches
    return verdict
