"""Earliest-ready cooperative scheduler.

Each step picks the READY process with the smallest ``ready_at`` and lets
it issue exactly one syscall; the syscall's simulated duration pushes the
process's next readiness into the future.  Because issue order always
follows readiness order, shared resources (disks via ``busy_until``,
memory pools via eviction state) see requests in correct time order, and
competing processes interleave realistically — which is what makes the
multi-process MAC experiment (Figure 7) meaningful.

Two fast paths keep the dispatch loop thin (the probe-heavy experiments
issue millions of syscalls through it):

* **single-runner slot** — while exactly one process is in the ready
  structure (the overwhelmingly common case: one ICL process driving a
  quiet machine), its entry lives in a one-element slot and dispatch
  never touches the heap at all; the slot spills into the heap the
  moment a second entry arrives, preserving (ready_at, seq) order.
* **incremental counts + pruning** — READY/BLOCKED counts are maintained
  at each transition instead of scanned, and finished processes move out
  of :attr:`processes` into :attr:`finished` (kept for ``waitpid``), so
  liveness queries never walk a long-dead population.

Stale heap entries (left when a queued process is superseded or blocked
out-of-band) are skipped lazily on pop, and the heap is compacted
whenever it grows beyond twice the runnable population.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import SnapshotStats
from repro.sim.proc.process import Process, ProcessState

# Below this size the heap is left alone: compaction bookkeeping would
# cost more than the handful of stale pops it saves.
COMPACT_MIN_ENTRIES = 16

# Hoisted: an enum member lookup through the class costs ~10x a
# module-global load, and the dispatch loop tests every entry.
_READY = ProcessState.READY


@dataclass
class SchedulerStats(SnapshotStats):
    """Dispatch accounting: how often the CPU changed hands.

    A *dispatch* is one scheduling decision; a *context switch* is a
    dispatch that picked a different process than the previous one —
    the quantity MAC's settle pause (and Figure 7's interleaving)
    depends on.  ``fast_dispatches`` counts dispatches served from the
    single-runner slot without touching the heap; ``heap_compactions``
    counts stale-entry sweeps.
    """

    dispatches: int = 0
    context_switches: int = 0
    fast_dispatches: int = 0
    heap_compactions: int = 0


class Scheduler:
    """Ready queue keyed by (ready_at, sequence), with a fast slot."""

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, int]] = []  # (ready_at, seq, pid)
        # Single-runner fast slot; invariant: non-None only while the
        # heap is empty, so ordering against heap entries never arises.
        self._fast: Optional[Tuple[int, int, int]] = None
        self._seq = 0
        self.processes: Dict[int, Process] = {}  # live (READY/BLOCKED) only
        self.finished: Dict[int, Process] = {}  # DONE, kept for waitpid
        self.stats = SchedulerStats()
        self._last_pid: Optional[int] = None
        self._runnable = 0
        self._blocked = 0
        #: Optional interference hook (repro.sim.inject): called as
        #: ``hook(pid, at) -> extra_ns`` each time a process becomes
        #: ready, modelling stolen scheduler slots and coarse timers.
        self.wake_delay_hook: Optional[Callable[[int, int], int]] = None

    def add(self, process: Process) -> None:
        self.processes[process.pid] = process
        self._runnable += 1  # processes are born READY
        self.make_ready(process, process.ready_at)

    def make_ready(self, process: Process, at: int) -> None:
        if self.wake_delay_hook is not None:
            at += self.wake_delay_hook(process.pid, at)
        if process.state is ProcessState.BLOCKED:
            self._blocked -= 1
            self._runnable += 1
        process.state = ProcessState.READY
        process.ready_at = at
        self._seq += 1
        entry = (at, self._seq, process.pid)
        if self._fast is None and not self._heap:
            self._fast = entry
            return
        if self._fast is not None:
            heapq.heappush(self._heap, self._fast)
            self._fast = None
        heapq.heappush(self._heap, entry)

    def block(self, process: Process) -> None:
        """Mark blocked; its stale heap entries are skipped lazily."""
        if process.state is ProcessState.READY:
            self._runnable -= 1
            self._blocked += 1
        process.state = ProcessState.BLOCKED
        self._maybe_compact()

    def finish(self, process: Process) -> None:
        """Retire a process: prune it from the live table, keep its PCB.

        The PCB stays reachable through :attr:`finished` so a later
        ``waitpid`` can still collect the exit result.
        """
        if process.state is ProcessState.READY:
            self._runnable -= 1
        elif process.state is ProcessState.BLOCKED:
            self._blocked -= 1
        process.state = ProcessState.DONE
        self.processes.pop(process.pid, None)
        self.finished[process.pid] = process

    def reap(self, pid: int) -> bool:
        """Drop a DONE process's PCB entirely; ``waitpid`` loses sight of it.

        :attr:`finished` is kept for ``waitpid``, which means it grows
        without bound over a long run.  A parent that has already
        collected a child's result (the arena collecting its clients)
        reaps it so the retired population stays O(live), not O(ever
        spawned).  Returns False when the pid is not in ``finished``
        (still live, never spawned, or already reaped) — live processes
        are deliberately not reapable.
        """
        return self.finished.pop(pid, None) is not None

    def lookup(self, pid: int) -> Optional[Process]:
        """Find a process, live or finished (the waitpid view)."""
        process = self.processes.get(pid)
        if process is not None:
            return process
        return self.finished.get(pid)

    def next_ready(self) -> Optional[Process]:
        """Pop the earliest READY process, discarding stale entries.

        An entry is live when its pid is still in :attr:`processes`
        (finished and reaped pids are not), READY, and due at the
        entry's time; anything else was superseded or blocked.
        """
        get = self.processes.get
        stats = self.stats
        while True:
            if self._fast is not None:
                entry_at, _seq, pid = self._fast
                self._fast = None
                fast = True
            elif self._heap:
                entry_at, _seq, pid = heapq.heappop(self._heap)
                fast = False
            else:
                return None
            process = get(pid)
            if (
                process is not None
                and process.state is _READY
                and process.ready_at == entry_at
            ):
                stats.dispatches += 1
                if fast:
                    stats.fast_dispatches += 1
                if pid != self._last_pid:
                    stats.context_switches += 1
                    self._last_pid = pid
                return process

    def _maybe_compact(self) -> None:
        """Rebuild the heap when stale entries dominate live ones."""
        heap = self._heap
        if len(heap) < COMPACT_MIN_ENTRIES or len(heap) <= 2 * self._runnable:
            return
        get = self.processes.get
        live = []
        for entry in heap:
            process = get(entry[2])
            if (
                process is not None
                and process.state is _READY
                and process.ready_at == entry[0]
            ):
                live.append(entry)
        heapq.heapify(live)
        self._heap = live
        self.stats.heap_compactions += 1

    def runnable_count(self) -> int:
        return self._runnable

    def blocked_count(self) -> int:
        return self._blocked

    def blocked(self) -> List[Process]:
        return [p for p in self.processes.values() if p.state is ProcessState.BLOCKED]

    def live_count(self) -> int:
        return len(self.processes)
