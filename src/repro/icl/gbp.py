"""gbp — the gray-box utility for *unmodified* applications (§4.1.2).

The paper's ``gbp`` is a command-line tool; its three modes map to three
generator entry points here:

* ``gbp -mem *``      → :func:`order_paths` with mode ``"mem"`` — print
  files in predicted best cache order (FCCD);
* ``gbp -file *``     → mode ``"file"`` — i-number order (FLDC);
* ``gbp -compose *``  → mode ``"compose"`` — clustered composition;
* ``gbp -mem -out f | app`` → :func:`stream_file`, which probes a single
  file, reads its data blocks in best probe order, and copies them to a
  pipe so an application reading stdin gets intra-file re-ordering
  without modification (at the price of an extra copy through the OS).

A fork/exec-style startup overhead is charged so the "unmodified app +
gbp" bars in Figure 3 carry the slight extra cost the paper reports.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from repro.icl.compose import compose_order
from repro.icl.fccd import FCCD
from repro.icl.fldc import FLDC
from repro.sim import syscalls as sc
from repro.sim.clock import MILLIS

MIB = 1024 * 1024

# Approximate fork+exec+libc startup of a 2001-era UNIX helper process.
STARTUP_COMPUTE_NS = 2 * MILLIS

MODES = ("mem", "file", "compose")


def order_paths(
    paths: Sequence[str],
    mode: str = "mem",
    fccd: Optional[FCCD] = None,
    fldc: Optional[FLDC] = None,
    align: int = 1,
) -> Generator:
    """The `gbp <mode> *` pipeline stage: returns re-ordered paths.

    Charges process-startup compute, then probes exactly as the linked
    library would — the residual gap between gb-app and app+gbp in
    Figure 3 comes from this startup plus the duplicate opens.
    """
    if mode not in MODES:
        raise ValueError(f"unknown gbp mode {mode!r}; expected one of {MODES}")
    yield sc.compute(STARTUP_COMPUTE_NS)
    if mode == "mem":
        ordered, _plans = yield from (fccd or FCCD()).order_files(paths, align)
        return ordered
    if mode == "file":
        ordered, _stats = yield from (fldc or FLDC()).layout_order(paths)
        return ordered
    composed = yield from compose_order(fccd or FCCD(), fldc or FLDC(), paths, align)
    return composed.order


def stream_file(
    path: str,
    out_fd: int,
    fccd: Optional[FCCD] = None,
    align: int = 1,
    chunk_bytes: int = 1 * MIB,
) -> Generator:
    """`gbp -mem -out path`: copy the file to ``out_fd`` in best probe order.

    Runs as its own process with the pipe's write end; the consumer
    (e.g. unmodified fastsort reading stdin) sees record-aligned data in
    cache-friendly order.  Returns total bytes streamed.
    """
    yield sc.compute(STARTUP_COMPUTE_NS)
    layer = fccd or FCCD()
    fd = (yield sc.open(path)).value
    streamed = 0
    try:
        size = (yield sc.fstat(fd)).value.size
        segments = yield from layer.probe_fd(fd, size, align)
        for segment in sorted(segments, key=lambda s: (s.probe_ns, s.offset)):
            offset = segment.offset
            end = segment.offset + segment.length
            while offset < end:
                take = min(chunk_bytes, end - offset)
                result = (yield sc.pread(fd, offset, take)).value
                if result.nbytes == 0:
                    break
                payload = result.data if result.data is not None else result.nbytes
                yield from _write_all(out_fd, payload, result.nbytes)
                offset += result.nbytes
                streamed += result.nbytes
    finally:
        yield sc.close(fd)
        yield sc.close(out_fd)
    return streamed


def _write_all(fd: int, payload, nbytes: int) -> Generator:
    """Write fully to a pipe, handling partial writes."""
    if isinstance(payload, (bytes, bytearray)):
        done = 0
        while done < len(payload):
            written = (yield sc.write(fd, payload[done:])).value
            done += written
    else:
        remaining = nbytes
        while remaining > 0:
            written = (yield sc.write(fd, remaining)).value
            remaining -= written
