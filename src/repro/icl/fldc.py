"""FLDC — the File Layout Detector and Controller (§4.2).

Algorithmic knowledge assumed (FFS descendants): files created together
in a directory get adjacent i-numbers *and* nearby data blocks inside
the directory's cylinder group.  Therefore:

* **detection** — ``stat()`` every file and sort by (filesystem,
  i-number); this approximates on-disk order without any privileged
  block-map access.  Sorting by i-number "essentially obviates the need
  to sort by directory" because i-numbers cluster per cylinder group.
* **control** — a directory *refresh* (§4.2.2) moves the system back to
  the known state where i-number order matches layout: copy files out
  to a temporary sibling directory smallest-first (large files, which
  decorrelate numbering from layout, get the late i-numbers), preserve
  timestamps, delete originals, rename the temporary into place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional, Sequence, Tuple

from repro.icl.base import ICL, TechniqueProfile, register_icl
from repro.sim import syscalls as sc
from repro.sim.fs.inode import StatResult

MIB = 1024 * 1024
COPY_CHUNK = 1 * MIB


@dataclass
class RefreshReport:
    """What a directory refresh did, for logging and tests."""

    directory: str
    files_moved: int
    bytes_copied: int
    order: List[str] = field(default_factory=list)


@register_icl
class FLDC(ICL):
    """File Layout Detector and Controller."""

    name = "fldc"
    profile = TechniqueProfile(
        knowledge="FFS: creation order ~ i-number order ~ block layout",
        outputs="i-numbers from stat(); stat latency",
        statistics="Sort by i-number",
        benchmarks="None",
        probes="stat() of each candidate file",
        known_state="Directory refresh re-packs layout",
        feedback="None",
    )

    def __init__(
        self, repository=None, rng=None, obs=None, batch_probes: bool = True,
        retry=None, step_markers: bool = False,
    ) -> None:
        """``batch_probes`` (default on) sweeps paths with one vectored
        ``stat_batch`` per call instead of per-path ``stat`` calls; path
        resolution walks identical cache state in identical order, so
        the observed i-numbers and stat latencies are unchanged."""
        super().__init__(repository, rng, obs, retry, step_markers)
        self.batch_probes = batch_probes

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------
    def stat_files(self, paths: Sequence[str]) -> Generator:
        """Probe each file with stat(); returns {path: StatResult}."""
        stats = {}
        if self.batch_probes:
            with self.obs.span_batch("fldc.stat_batch", len(paths)):
                results = (yield from self._retry(sc.stat_batch(list(paths)))).value
            for path, probe in zip(paths, results):
                stats[path] = probe.stat
        else:
            # Distinct span name: exported JSONL must distinguish the
            # sequential sweep from the vectored ``fldc.stat_batch``.
            with self.obs.span("fldc.stat_sweep", files=len(paths)):
                for path in paths:
                    stats[path] = (yield from self._retry(sc.stat(path))).value
        self.obs.count("icl.fldc.stats", len(paths))
        # One stat sweep = one arena step (no-op unless step_markers).
        yield from self.checkpoint()
        return stats

    def layout_order(self, paths: Sequence[str]) -> Generator:
        """Paths sorted by probable disk layout: (filesystem, i-number)."""
        stats = yield from self.stat_files(paths)
        ordered = sorted(paths, key=lambda p: (stats[p].fs_id, stats[p].ino))
        return ordered, stats

    def write_time_order(self, paths: Sequence[str]) -> Generator:
        """The LFS layout-knowledge module (§4.2.5 discussion).

        On a log-structured filesystem, blocks live where the log head
        was when they were written, so modification time — not i-number
        — predicts layout.  mtime has one-second resolution (the same
        limitation §4.2.1 notes for creation times), so same-second ties
        fall back to i-number, which on a fresh directory still encodes
        creation order.
        """
        stats = yield from self.stat_files(paths)
        ordered = sorted(
            paths, key=lambda p: (stats[p].mtime, stats[p].fs_id, stats[p].ino)
        )
        return ordered, stats

    @staticmethod
    def directory_order(paths: Sequence[str]) -> List[str]:
        """The weaker heuristic: group by directory name, then name.

        Needs no probes at all — pure algorithmic knowledge that files
        in one directory share a cylinder group (§4.2.1); Figure 5 shows
        it recovers only a fraction of the i-number ordering's benefit.
        """
        def split(path: str) -> Tuple[str, str]:
            head, _sep, tail = path.rpartition("/")
            return head, tail

        return sorted(paths, key=split)

    # ------------------------------------------------------------------
    # Control: directory refresh
    # ------------------------------------------------------------------
    def refresh_directory(
        self,
        dir_path: str,
        order: Optional[Sequence[str]] = None,
    ) -> Generator:
        """Re-pack a directory so i-number order matches layout again.

        Follows the paper's six steps (§4.2.2): temporary sibling
        directory; sort files by size (or caller-specified ``order``);
        copy in that order; restore timestamps (so make(1) still works);
        delete originals; rename the temporary over the old name.

        Only regular files are supported; a refresh of a directory with
        subdirectories raises.  The atomicity caveat of the paper
        (footnote 4) applies here too — the simulated kernel has no
        crash model, so the nightly fix-up script is out of scope.
        """
        dir_path = dir_path.rstrip("/")
        tmp_path = dir_path + ".gbrefresh"
        with self.obs.span("fldc.refresh", directory=dir_path) as span:
            names = (yield from self._retry(sc.readdir(dir_path))).value
            stats = {}
            if self.batch_probes and names:
                results = (
                    yield from self._retry(
                        sc.stat_batch([f"{dir_path}/{n}" for n in names])
                    )
                ).value
                for name, probe in zip(names, results):
                    stats[name] = probe.stat
            else:
                for name in names:
                    stats[name] = (
                        yield from self._retry(sc.stat(f"{dir_path}/{name}"))
                    ).value
            for name in names:
                if stats[name].kind.name != "FILE":
                    raise ValueError(
                        f"refresh_directory: {dir_path}/{name} is not a regular file"
                    )
            if order is None:
                # Smallest first; name breaks ties deterministically.
                ordered = sorted(names, key=lambda n: (stats[n].size, n))
            else:
                ordered = list(order)
                if sorted(ordered) != sorted(names):
                    raise ValueError(
                        "explicit refresh order must cover the directory"
                    )

            yield sc.mkdir(tmp_path)
            bytes_copied = 0
            for name in ordered:
                bytes_copied += yield from self._copy_file(
                    f"{dir_path}/{name}", f"{tmp_path}/{name}"
                )
                st = stats[name]
                yield sc.utimes(f"{tmp_path}/{name}", st.atime, st.mtime)
                # Each copied file is an arena step: a refresh of a big
                # directory must not monopolize the shared kernel.
                yield from self.checkpoint()
            for name in ordered:
                yield sc.unlink(f"{dir_path}/{name}")
            yield sc.rmdir(dir_path)
            yield sc.rename(tmp_path, dir_path)
            span.attrs["files_moved"] = len(ordered)
            span.attrs["bytes_copied"] = bytes_copied
        self.obs.count("icl.fldc.refreshes")
        return RefreshReport(
            directory=dir_path,
            files_moved=len(ordered),
            bytes_copied=bytes_copied,
            order=ordered,
        )

    def _copy_file(self, src: str, dst: str) -> Generator:
        """Copy one file, preserving real content where it exists."""
        in_fd = (yield from self._retry(sc.open(src))).value
        out_fd = (yield sc.create(dst)).value
        copied = 0
        try:
            while True:
                result = (yield sc.read(in_fd, COPY_CHUNK)).value
                if result.eof:
                    break
                payload = result.data if result.data is not None else result.nbytes
                yield sc.write(out_fd, payload)
                copied += result.nbytes
        finally:
            yield sc.close(in_fd)
            yield sc.close(out_fd)
        return copied
