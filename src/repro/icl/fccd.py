"""FCCD — the File-Cache Content Detector (§4.1).

Algorithmic knowledge assumed: *only* that the file cache replaces pages
based on time of last access, so spatially adjacent pages tend to be
cached or evicted together.  From there:

* files are split into **access units** (default from the microbenchmark
  repository; the paper measured 20 MB as delivering near-peak disk
  bandwidth on its platform);
* each access unit is divided into **prediction units** (default 5 MB)
  and one 1-byte ``pread`` probe is issued at a *random* byte inside
  each — random, so that a stale previous probe cannot masquerade as a
  cache hit (§4.1.2), and so repeated probing gains confidence;
* access units are **sorted by total probe time** — no platform-specific
  hit/miss threshold is needed, and a multi-level storage hierarchy
  orders correctly (closest first);
* files smaller than one page are never probed (probing them would pull
  them into the cache whole — the Heisenberg effect, §4.1.4); they
  report a fake, very high probe time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional, Sequence, Tuple

from repro.icl.base import ICL, TechniqueProfile, register_icl
from repro.sim import syscalls as sc
from repro.sim.clock import SECONDS
from repro.toolbox.cluster import two_means
from repro.toolbox.outliers import mad_clip

MIB = 1024 * 1024

DEFAULT_ACCESS_UNIT = 20 * MIB
DEFAULT_PREDICTION_UNIT = 5 * MIB

# Reported for unprobeable (sub-page) files: "a 'fake' high probe-time".
FAKE_HIGH_PROBE_NS = 10 * SECONDS

# Conservative page-size knowledge for the Heisenberg guard.  An ICL on a
# real system would use getpagesize(); any file at least this large is
# safe to probe on every platform we model.
SAFE_PROBE_MIN_BYTES = 64 * 1024


@dataclass(frozen=True)
class AccessSegment:
    """One (offset, length) unit of a file, with its measured probe time."""

    offset: int
    length: int
    probe_ns: int
    probes: int

    @property
    def mean_probe_ns(self) -> float:
        return self.probe_ns / max(self.probes, 1)


@dataclass
class FilePlan:
    """FCCD's answer for one file: segments ordered fastest-probe-first."""

    path: str
    size: int
    segments: List[AccessSegment] = field(default_factory=list)

    @property
    def total_probe_ns(self) -> int:
        return sum(s.probe_ns for s in self.segments)

    @property
    def total_probes(self) -> int:
        return sum(s.probes for s in self.segments)

    @property
    def mean_probe_ns(self) -> float:
        """Per-probe average — the per-file score used to order files."""
        probes = self.total_probes
        if probes == 0:
            return float(FAKE_HIGH_PROBE_NS)
        return self.total_probe_ns / probes

    def ordered_segments(self) -> List[AccessSegment]:
        return sorted(self.segments, key=lambda s: (s.probe_ns, s.offset))

    def ordered_ranges(self) -> List[Tuple[int, int]]:
        """The (offset, length) list the paper's library interface returns."""
        return [(s.offset, s.length) for s in self.ordered_segments()]


@register_icl
class FCCD(ICL):
    """File-Cache Content Detector."""

    name = "fccd"
    profile = TechniqueProfile(
        knowledge="Cache replacement approximates LRU; neighbours co-evicted",
        outputs="Time for 1-byte read probes",
        statistics="Sort by probe time; cluster for composition",
        benchmarks="Access unit from disk-bandwidth microbenchmark",
        probes="Random byte per prediction unit",
        known_state="None",
        feedback="Access-unit-sized reads keep cache chunk-aligned",
    )

    def __init__(
        self,
        repository=None,
        rng=None,
        access_unit_bytes: Optional[int] = None,
        prediction_unit_bytes: Optional[int] = None,
        probe_placement: str = "random",
        obs=None,
        batch_probes: bool = True,
        retry=None,
        max_resamples: int = 0,
        step_markers: bool = False,
    ) -> None:
        """``probe_placement`` is ``"random"`` (the paper's choice) or
        ``"fixed"`` (probe the middle byte of every prediction unit).
        Fixed placement exists for the ablation benchmark: a stale
        probe from an earlier run sits at exactly the same offset, so a
        re-probe reports its own earlier Heisenberg side-effects as
        cache contents (§4.1.2's failure scenario).

        ``batch_probes`` (default on) issues each access unit's probes
        as one vectored ``pread_batch`` instead of per-probe ``pread``
        calls.  Probe placement, per-probe simulated times, and cache
        effects are bit-identical either way; batching only removes the
        simulator's per-call dispatch cost.

        ``max_resamples`` (default 0, i.e. off) is the noise-hardening
        budget: repeated probing may re-probe a file up to this many
        extra rounds when outlier rejection discards observations, and
        confidence-gated ordering may re-plan when the cached/uncached
        clustering is ambiguous."""
        super().__init__(repository, rng, obs, retry, step_markers)
        self.batch_probes = batch_probes
        if max_resamples < 0:
            raise ValueError("max_resamples must be >= 0")
        self.max_resamples = max_resamples
        if probe_placement not in ("random", "fixed"):
            raise ValueError(f"unknown probe placement {probe_placement!r}")
        self.probe_placement = probe_placement
        if access_unit_bytes is None:
            access_unit_bytes = int(
                self.repository.get("fccd.access_unit_bytes", DEFAULT_ACCESS_UNIT)
            )
        if prediction_unit_bytes is None:
            prediction_unit_bytes = min(DEFAULT_PREDICTION_UNIT, access_unit_bytes)
        if access_unit_bytes <= 0 or prediction_unit_bytes <= 0:
            raise ValueError("units must be positive")
        if prediction_unit_bytes > access_unit_bytes:
            raise ValueError("prediction unit cannot exceed the access unit")
        self.access_unit_bytes = access_unit_bytes
        self.prediction_unit_bytes = prediction_unit_bytes

    # ------------------------------------------------------------------
    # Unit geometry
    # ------------------------------------------------------------------
    def segments_of(self, size: int, align: int = 1) -> List[Tuple[int, int]]:
        """Split [0, size) into access units respecting ``align`` boundaries.

        Records must not straddle units (§4.1.2), so each unit's length
        is rounded down to a multiple of ``align`` (except a final
        remainder shorter than one aligned record).
        """
        if align <= 0:
            raise ValueError("alignment must be positive")
        unit = max(self.access_unit_bytes // align, 1) * align
        segments = []
        offset = 0
        while offset < size:
            length = min(unit, size - offset)
            segments.append((offset, length))
            offset += length
        return segments

    def _probe_points(self, offset: int, length: int, size: int) -> List[int]:
        """Probe offsets, one per prediction-unit window."""
        points = []
        window_start = offset
        end = offset + length
        while window_start < end:
            window_len = min(self.prediction_unit_bytes, end - window_start)
            if self.probe_placement == "random":
                points.append(window_start + self.rng.randrange(window_len))
            else:
                points.append(window_start + window_len // 2)
            window_start += window_len
        return [min(p, size - 1) for p in points if size > 0]

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def probe_fd(self, fd: int, size: int, align: int = 1) -> Generator:
        """Probe an open file; returns a list of :class:`AccessSegment`.

        Sub-page files are not probed (Heisenberg guard) and come back
        with the fake high probe time.
        """
        if size < SAFE_PROBE_MIN_BYTES:
            length = max(size, 0)
            self.obs.count("icl.fccd.unprobeable_files")
            return [AccessSegment(0, length, FAKE_HIGH_PROBE_NS, 0)]
        segments: List[AccessSegment] = []
        for offset, length in self.segments_of(size, align):
            points = self._probe_points(offset, length, size)
            if self.batch_probes:
                with self.obs.span_batch(
                    "fccd.probe_batch", len(points), offset=offset, length=length
                ) as span:
                    probes = (
                        yield from self._retry(
                            sc.pread_batch(fd, [(p, 1) for p in points])
                        )
                    ).value
                    total = sum(p.elapsed_ns for p in probes)
                    count = len(probes)
                    span.attrs["probe_ns"] = total
            else:
                total = 0
                count = 0
                with self.obs.span(
                    "fccd.probe_batch", offset=offset, length=length
                ) as span:
                    for point in points:
                        result = yield from self._retry(sc.pread(fd, point, 1))
                        total += result.elapsed_ns
                        count += 1
                    span.attrs["probes"] = count
                    span.attrs["probe_ns"] = total
            self.obs.count("icl.fccd.probes", count)
            segments.append(AccessSegment(offset, length, total, count))
            # One access unit's probes = one arena step (no-op unless
            # step_markers is set — see ICL.checkpoint).
            yield from self.checkpoint()
        return segments

    def probe_fd_repeated(
        self, fd: int, size: int, align: int = 1, rounds: int = 3
    ) -> Generator:
        """Multiple probe rounds, medianed per segment (§4.1.2).

        Random placement "has the added benefit that an application can
        probe the file cache repeatedly for increased confidence": each
        round lands on fresh offsets, and the per-segment *median* of
        the rounds rejects one-off outliers — a probe that queued behind
        another process's disk I/O, or one that lucked onto the single
        cached page of a cold unit.
        """
        if rounds < 1:
            raise ValueError("need at least one probe round")
        all_rounds = []
        for _ in range(rounds):
            segments = yield from self.probe_fd(fd, size, align)
            all_rounds.append(segments)
        if self.max_resamples:
            # Noise hardening: when MAD rejection discards any round's
            # observation, a contaminated sample slipped in — spend the
            # resample budget on fresh rounds so the median rests on
            # clean observations (§4.1.2's "increased confidence").
            budget = self.max_resamples
            while budget and self._rounds_contaminated(all_rounds):
                self.obs.count("icl.resample")
                segments = yield from self.probe_fd(fd, size, align)
                all_rounds.append(segments)
                budget -= 1
        merged: List[AccessSegment] = []
        for per_segment in zip(*all_rounds):
            times = sorted(s.probe_ns for s in per_segment)
            if self.max_resamples:
                kept = mad_clip(times, nmads=3.0)
                if kept:
                    times = sorted(kept)
            median = times[len(times) // 2]
            first = per_segment[0]
            merged.append(
                AccessSegment(
                    offset=first.offset,
                    length=first.length,
                    probe_ns=median,
                    probes=sum(s.probes for s in per_segment),
                )
            )
        return merged

    @staticmethod
    def _rounds_contaminated(all_rounds: Sequence[Sequence[AccessSegment]]) -> bool:
        """True when MAD rejection discards any segment's observation."""
        for per_segment in zip(*all_rounds):
            times = [s.probe_ns for s in per_segment]
            if len(mad_clip(times, nmads=3.0)) < len(times):
                return True
        return False

    def plan_file(self, path: str, align: int = 1, rounds: int = 1) -> Generator:
        """Open, probe, and close one file; returns a :class:`FilePlan`.

        ``rounds > 1`` probes repeatedly and medians the observations —
        worthwhile when other processes' I/O adds timing noise.
        """
        with self.obs.span("fccd.plan_file", path=path, rounds=rounds) as span:
            fd = (yield from self._retry(sc.open(path))).value
            try:
                size = (yield from self._retry(sc.fstat(fd))).value.size
                span.attrs["size"] = size
                if rounds == 1:
                    segments = yield from self.probe_fd(fd, size, align)
                else:
                    segments = yield from self.probe_fd_repeated(
                        fd, size, align, rounds
                    )
            finally:
                yield sc.close(fd)
        self.obs.count("icl.fccd.files_planned")
        return FilePlan(path=path, size=size, segments=segments)

    def best_ranges(self, path: str, align: int = 1) -> Generator:
        """The common library call: (offset, length) pairs, cached-first."""
        plan = yield from self.plan_file(path, align)
        return plan.ordered_ranges()

    # ------------------------------------------------------------------
    # Ordering many files
    # ------------------------------------------------------------------
    def plan_files(self, paths: Sequence[str], align: int = 1) -> Generator:
        """Probe each file; returns {path: FilePlan}."""
        plans = {}
        for path in paths:
            plans[path] = yield from self.plan_file(path, align)
        return plans

    def order_files(self, paths: Sequence[str], align: int = 1) -> Generator:
        """Best whole-file access order: lowest mean probe time first.

        Ties (and the unprobeable) keep their command-line order, which
        is what an unmodified application would have used anyway.
        """
        plans = yield from self.plan_files(paths, align)
        indexed = list(enumerate(paths))
        indexed.sort(key=lambda pair: (plans[pair[1]].mean_probe_ns, pair[0]))
        return [path for _i, path in indexed], plans

    def order_files_confident(
        self,
        paths: Sequence[str],
        align: int = 1,
        rounds: int = 3,
        min_confidence: float = 0.25,
    ) -> Generator:
        """Noise-hardened ordering with a confidence-gated answer.

        Each file is probed ``rounds`` times (medianed, outlier-clipped,
        resampled within :attr:`max_resamples` — see
        :meth:`probe_fd_repeated`), then the per-file scores are
        two-means clustered into cached/uncached populations.  The
        split's :attr:`~repro.toolbox.cluster.ClusterSplit.confidence`
        (variance explained) gates the answer: below ``min_confidence``
        the whole sweep is re-planned, up to :attr:`max_resamples`
        times, and a final low-confidence answer is reported via the
        ``icl.low_confidence`` counter/event so callers (and the
        robustness harness) can treat it as "don't know" rather than
        silently trusting a coin flip.

        Returns ``(ordered_paths, plans, confidence)``.  Note a
        genuinely uniform population (everything cached, or nothing)
        legitimately scores low; the gate bounds *wrong* answers, the
        caller decides what low confidence means for its workload.
        """
        attempts = 0
        while True:
            plans = {}
            for path in paths:
                plans[path] = yield from self.plan_file(path, align, rounds=rounds)
            scores = [plans[path].mean_probe_ns for path in paths]
            split = two_means(scores) if scores else None
            confidence = split.confidence if split is not None else 0.0
            if confidence >= min_confidence or attempts >= self.max_resamples:
                break
            attempts += 1
            self.obs.count("icl.resample")
        if confidence < min_confidence:
            self.obs.count("icl.low_confidence")
            self.obs.event(
                "icl.low_confidence",
                icl="fccd",
                confidence=round(confidence, 4),
                files=len(paths),
            )
        indexed = list(enumerate(paths))
        indexed.sort(key=lambda pair: (plans[pair[1]].mean_probe_ns, pair[0]))
        return [path for _i, path in indexed], plans, confidence
