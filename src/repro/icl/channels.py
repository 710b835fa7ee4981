"""Covert channels built from the paper's inference primitives.

The case-study ICLs infer page-cache state for *control*; their
descendants (*Page Cache Attacks*, Gruss et al.; *Sync+Sync*, Jiang &
Wang) show the same two signals form *communication* channels between
tenants who share nothing but the kernel:

* **residency channel** — the sender encodes a bit by touching (or not
  touching) the pages of one *cell* of a shared-visibility file; the
  receiver replays FCCD's probe discipline (1-byte ``pread_batch``
  sweeps, summed elapsed times) over the same cell and reads the bit
  back as fast-vs-slow.
* **dirty-writeback channel** — the sender modulates the kernel's
  bdflush-style dirty throttle (``PageCacheManager.throttle_dirty``):
  a 1-cell parks the dirty-page count just below the limit, so the
  receiver's small write crosses it and pays the flush; a 0-cell leaves
  the count near zero and the same write completes in microseconds.
  Sync+Sync's observation, on this simulator's writeback path.

Framing is shared by both channels.  A frame is a *calibration
preamble* (alternating 1/0 symbol cells — known plaintext the receiver
clusters with :func:`~repro.toolbox.cluster.two_means` to measure the
channel's separation) followed by Manchester-coded payload bits: bit 1
is the cell pair (1, 0), bit 0 is (0, 1).  Decoding is differential —
compare the two halves of each pair — so no absolute latency threshold
is needed, the same sort-don't-threshold stance the paper takes in
§4.1 (and the preamble threshold only breaks exact ties).  Optional
even parity over fixed-size blocks gives the receiver an error signal
that needs no ground truth.

Every method that talks to the OS is a generator subroutine
(``yield from`` inside a simulated process), and the drive loops tag
their :meth:`~repro.icl.base.ICL.checkpoint` boundaries with
``("tx"|"rx", cell_index)`` so an arena harness can align the two
clients' turns cell by cell (:mod:`repro.sim.arena`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Sequence, Tuple

from repro.icl.base import ICL, TechniqueProfile, register_icl
from repro.sim import syscalls as sc
from repro.toolbox.cluster import two_means

__all__ = [
    "FrameSpec",
    "DecodeResult",
    "encode_frame",
    "decode_frame",
    "frame_cells",
    "ber",
    "payload_bits",
    "ResidencyChannelSender",
    "ResidencyChannelReceiver",
    "WritebackChannelSender",
    "WritebackChannelReceiver",
]


# ======================================================================
# Framing codec (host-side: pure functions of bits and latencies)
# ======================================================================
@dataclass(frozen=True)
class FrameSpec:
    """Wire format of one frame, shared by sender and receiver.

    ``preamble_cells`` alternating known symbols calibrate the receiver;
    ``parity="even"`` appends one even-parity bit after every
    ``parity_block`` payload bits (and after the final partial block),
    Manchester-coded like the payload.
    """

    preamble_cells: int = 8
    parity: str = "none"  # "none" | "even"
    parity_block: int = 8

    def __post_init__(self) -> None:
        if self.preamble_cells < 2 or self.preamble_cells % 2:
            raise ValueError("preamble_cells must be an even count >= 2")
        if self.parity not in ("none", "even"):
            raise ValueError(f"unknown parity mode {self.parity!r}")
        if self.parity_block < 1:
            raise ValueError("parity_block must be >= 1")


def _framed_bits(bits: Sequence[int], spec: FrameSpec) -> List[int]:
    """Payload bits with parity bits interleaved per block."""
    if spec.parity == "none":
        return list(bits)
    framed: List[int] = []
    for start in range(0, len(bits), spec.parity_block):
        block = list(bits[start : start + spec.parity_block])
        framed.extend(block)
        framed.append(sum(block) % 2)
    return framed


def encode_frame(bits: Sequence[int], spec: FrameSpec = FrameSpec()) -> List[int]:
    """Payload bits → per-cell symbols (1 = assert the channel state).

    Layout: ``preamble_cells`` alternating 1/0 cells, then one Manchester
    pair per framed bit — (1, 0) encodes 1, (0, 1) encodes 0.
    """
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"payload bits must be 0 or 1, got {bit!r}")
    cells = [1 - (i % 2) for i in range(spec.preamble_cells)]
    for bit in _framed_bits(bits, spec):
        cells.extend((1, 0) if bit else (0, 1))
    return cells


def frame_cells(nbits: int, spec: FrameSpec = FrameSpec()) -> int:
    """Total cells a frame of ``nbits`` payload bits occupies."""
    return len(encode_frame([0] * nbits, spec))


@dataclass
class DecodeResult:
    """One decoded frame plus the receiver's channel-quality evidence."""

    bits: List[int]
    parity_errors: int = 0
    #: two-means split of the preamble cells — ``confidence`` near 1.0
    #: means the channel's two states are cleanly separable.
    threshold: float = 0.0
    confidence: float = 0.0
    cells: int = 0
    raw_bits: List[int] = field(default_factory=list)


def decode_frame(
    latencies: Sequence[float],
    spec: FrameSpec = FrameSpec(),
    one_is_slow: bool = False,
) -> DecodeResult:
    """Per-cell latencies → payload bits, differentially.

    The convention is "symbol 1 reads fast" (residency: a touched cell
    is cached); pass ``one_is_slow=True`` for channels where asserting
    the state makes the probe *slower* (writeback: a loaded throttle
    spikes the receiver's write).  Each Manchester pair decodes by
    comparing its two halves; the preamble's two-means threshold breaks
    exact ties only.
    """
    n = len(latencies)
    if n < spec.preamble_cells or (n - spec.preamble_cells) % 2:
        raise ValueError(
            f"frame of {n} cells does not fit spec (preamble "
            f"{spec.preamble_cells} + Manchester pairs)"
        )
    # Work in signal space: smaller value == symbol 1.
    signal = [-x for x in latencies] if one_is_slow else list(latencies)
    split = two_means(signal[: spec.preamble_cells])
    threshold, confidence = split.threshold, split.confidence
    raw: List[int] = []
    for i in range(spec.preamble_cells, n, 2):
        first, second = signal[i], signal[i + 1]
        if first < second:
            raw.append(1)
        elif second < first:
            raw.append(0)
        else:
            raw.append(1 if first <= threshold else 0)
    bits: List[int] = []
    parity_errors = 0
    if spec.parity == "none":
        bits = list(raw)
    else:
        i = 0
        while i < len(raw):
            chunk = raw[i : i + spec.parity_block + 1]
            data, parity = chunk[:-1], chunk[-1]
            if len(chunk) < 2:
                # A lone trailing cell pair: data with its parity lost.
                data, parity = chunk, None
            bits.extend(data)
            if parity is not None and sum(data) % 2 != parity:
                parity_errors += 1
            i += len(chunk)
    return DecodeResult(
        bits=bits,
        parity_errors=parity_errors,
        threshold=threshold,
        confidence=confidence,
        cells=n,
        raw_bits=raw,
    )


def ber(sent: Sequence[int], received: Sequence[int]) -> float:
    """Bit-error rate; a length mismatch counts every missing bit wrong."""
    if not sent and not received:
        return 0.0
    errors = sum(1 for a, b in zip(sent, received) if a != b)
    errors += abs(len(sent) - len(received))
    return errors / max(len(sent), len(received))


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def payload_bits(seed: int, nbits: int) -> List[int]:
    """A deterministic pseudorandom payload (splitmix64 bit stream)."""
    bits: List[int] = []
    x = seed & _MASK64
    while len(bits) < nbits:
        x = (x + _GOLDEN) & _MASK64
        z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        for shift in range(0, 64, 1):
            bits.append((z >> shift) & 1)
            if len(bits) == nbits:
                break
    return bits


# ======================================================================
# Residency channel (Page Cache Attacks lineage)
# ======================================================================
class _CellFile(ICL):
    """Shared plumbing: a file partitioned into page-group cells."""

    def __init__(
        self,
        path: str,
        page_size: int,
        pages_per_cell: int = 2,
        **kwargs: object,
    ) -> None:
        super().__init__(**kwargs)  # type: ignore[arg-type]
        if page_size < 1 or pages_per_cell < 1:
            raise ValueError("page_size and pages_per_cell must be >= 1")
        self.path = path
        self.page_size = page_size
        self.pages_per_cell = pages_per_cell

    def cell_probes(self, cell: int) -> List[Tuple[int, int]]:
        """The 1-byte probe list covering ``cell``'s page group."""
        base = cell * self.pages_per_cell
        return [
            ((base + j) * self.page_size, 1) for j in range(self.pages_per_cell)
        ]


@register_icl
class ResidencyChannelSender(_CellFile):
    """Encodes symbols by pulling (or not pulling) cell pages into cache.

    Each frame cell owns a fresh page group of the shared-visibility
    file (cold at frame start — the move-to-known-state step), so the
    receiver's own probes never contaminate a later cell: the Heisenberg
    problem is designed out rather than corrected for.
    """

    name = "chan-res-tx"
    profile = TechniqueProfile(
        knowledge="page cache is shared across tenants; algorithm: touched pages stay resident",
        outputs="None",
        statistics="None",
        benchmarks="None",
        probes="reads that pull a cell's pages into the cache (symbol 1)",
        known_state="cold target file at frame start; fresh page group per cell",
        feedback="None",
    )

    def send(self, cells: Sequence[int]) -> Generator:
        """Transmit one frame of cell symbols; one tagged step per cell."""
        fd = (yield from self._retry(sc.open_(self.path))).value
        sent = 0
        for index, symbol in enumerate(cells):
            yield from self.checkpoint(tag=("tx", index))
            if symbol:
                probes = self.cell_probes(index)
                with self.obs.span_batch(
                    "channel.residency.tx_cell", probes=len(probes), cell=index
                ):
                    yield from self._retry(sc.pread_batch(fd, probes))
                self.obs.count("channel.residency.tx_touched")
            self.obs.count("channel.tx_cells")
            sent += 1
        yield sc.close(fd)
        return {"cells_sent": sent}


@register_icl
class ResidencyChannelReceiver(_CellFile):
    """Reads symbols back as per-cell probe latency (FCCD's discipline)."""

    name = "chan-res-rx"
    profile = TechniqueProfile(
        knowledge="algorithm: cached pages answer 1-byte reads orders of magnitude faster",
        outputs="per-cell summed probe latency",
        statistics="two-means preamble calibration; Manchester pairwise compare",
        benchmarks="None",
        probes="1-byte pread batches over each cell's page group",
        known_state="None",
        feedback="None",
    )

    def receive(self, ncells: int) -> Generator:
        """Probe ``ncells`` cells in frame order; returns latencies."""
        fd = (yield from self._retry(sc.open_(self.path))).value
        latencies: List[int] = []
        for index in range(ncells):
            yield from self.checkpoint(tag=("rx", index))
            probes = self.cell_probes(index)
            with self.obs.span_batch(
                "channel.residency.rx_cell", probes=len(probes), cell=index
            ):
                reads = (yield from self._retry(sc.pread_batch(fd, probes))).value
            latencies.append(sum(p.elapsed_ns for p in reads))
            self.obs.count("channel.rx_cells")
        yield sc.close(fd)
        return latencies

    def decode(
        self, latencies: Sequence[float], spec: FrameSpec = FrameSpec()
    ) -> DecodeResult:
        return decode_frame(latencies, spec, one_is_slow=False)


# ======================================================================
# Dirty-writeback channel (Sync+Sync lineage)
# ======================================================================
@register_icl
class WritebackChannelSender(ICL):
    """Modulates the dirty throttle from a private file.

    ``load_pages`` must park the machine-wide dirty count just *below*
    the bdflush limit (the caller derives it from the parameter
    repository's ``dirty_limit_frac`` knowledge: limit minus a margin
    smaller than the receiver's probe write).  Every cell starts with
    an ``fsync`` — the move-to-known-state step that clears the
    sender's own residue so a 1-cell never self-triggers the flush it
    is arming for the receiver.
    """

    name = "chan-wb-tx"
    profile = TechniqueProfile(
        knowledge="parameters: dirty-page limit fraction of file-cache capacity",
        outputs="None",
        statistics="None",
        benchmarks="None",
        probes="a large dirtying write arming the throttle (symbol 1)",
        known_state="fsync to a clean slate at every cell boundary",
        feedback="None",
    )

    def __init__(
        self, path: str, page_size: int, load_pages: int, **kwargs: object
    ) -> None:
        super().__init__(**kwargs)  # type: ignore[arg-type]
        if load_pages < 1:
            raise ValueError("load_pages must be >= 1")
        self.path = path
        self.page_size = page_size
        self.load_pages = load_pages

    def send(self, cells: Sequence[int]) -> Generator:
        fd = (yield from self._retry(sc.open_(self.path))).value
        sent = 0
        for index, symbol in enumerate(cells):
            yield from self.checkpoint(tag=("tx", index))
            yield sc.fsync(fd)
            if symbol:
                with self.obs.span("channel.writeback.tx_cell", cell=index):
                    yield sc.pwrite(fd, 0, self.load_pages * self.page_size)
                self.obs.count("channel.writeback.tx_loaded")
            self.obs.count("channel.tx_cells")
            sent += 1
        # Disarm: never leak a loaded throttle past the frame's end.
        yield sc.fsync(fd)
        yield sc.close(fd)
        return {"cells_sent": sent}


@register_icl
class WritebackChannelReceiver(ICL):
    """Senses the throttle with a small timed write to a private file.

    When the sender armed the limit, this write crosses it and the
    kernel charges the flush-to-target to *this* caller — a
    milliseconds-scale spike against a microseconds-scale clean write.
    The trailing ``fsync`` cleans the receiver's own residue so probe
    cells never accumulate toward the limit themselves.
    """

    name = "chan-wb-rx"
    profile = TechniqueProfile(
        knowledge="algorithm: the dirty-limit flush is charged to the crossing writer",
        outputs="per-cell write latency (throttle spikes)",
        statistics="two-means preamble calibration; inverted Manchester compare",
        benchmarks="None",
        probes="small timed writes crossing (or not) the dirty limit",
        known_state="fsync after every probe to shed own dirty pages",
        feedback="None",
    )

    def __init__(
        self, path: str, page_size: int, probe_pages: int = 32, **kwargs: object
    ) -> None:
        super().__init__(**kwargs)  # type: ignore[arg-type]
        if probe_pages < 1:
            raise ValueError("probe_pages must be >= 1")
        self.path = path
        self.page_size = page_size
        self.probe_pages = probe_pages

    def receive(self, ncells: int) -> Generator:
        fd = (yield from self._retry(sc.open_(self.path))).value
        latencies: List[int] = []
        for index in range(ncells):
            yield from self.checkpoint(tag=("rx", index))
            with self.obs.span("channel.writeback.rx_cell", cell=index):
                result = yield sc.pwrite(fd, 0, self.probe_pages * self.page_size)
            latencies.append(result.elapsed_ns)
            yield sc.fsync(fd)
            self.obs.count("channel.rx_cells")
        yield sc.close(fd)
        return latencies

    def decode(
        self, latencies: Sequence[float], spec: FrameSpec = FrameSpec()
    ) -> DecodeResult:
        return decode_frame(latencies, spec, one_is_slow=True)
