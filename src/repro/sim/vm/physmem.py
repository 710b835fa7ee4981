"""The memory manager: physical page pools shared by files and processes.

Two pool arrangements exist, selected by the platform personality:

* **unified** (linux22, solaris7): one replacement pool holds file data
  pages, metadata pages, and anonymous pages.  A process growing its heap
  steals from the file cache and vice versa — the contention fastsort
  suffers from in Figure 3 and the property MAC relies on in §4.3.
* **split** (netbsd15): file and metadata pages live in a fixed-size
  buffer cache; anonymous pages get the remainder.

The manager never performs I/O.  Faults and inserts return the list of
victim pages that must be written back (anon pages get a swap slot
assigned here); the kernel turns those into clustered disk writes and
charges the faulting process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.obs import DISABLED, Observability
from repro.sim.cache.base import (
    AnonKey,
    CachePolicy,
    CacheStats,
    FileKey,
    MetaKey,
    PageEntry,
    PageKey,
)
from repro.sim.config import MachineConfig, PlatformSpec
from repro.sim.errors import OutOfMemory
from repro.sim.vm.pagedaemon import PageDaemonStats
from repro.sim.vm.swap import SwapSpace


class FaultKind(Enum):
    """What servicing an anonymous-page touch required."""

    RESIDENT = "resident"
    ZERO_FILL = "zero_fill"
    SWAP_IN = "swap_in"


@dataclass
class FaultResult:
    """Outcome of an anonymous fault: its kind plus any eviction work."""

    kind: FaultKind
    evictions: List[PageEntry] = field(default_factory=list)
    swapin_slot: Optional[int] = None


class MemoryManager:
    """Owns the page pools, swap space, and reclaim accounting."""

    def __init__(
        self,
        config: MachineConfig,
        platform: PlatformSpec,
        swap_capacity_pages: int,
        obs: Optional[Observability] = None,
    ) -> None:
        self.config = config
        self.platform = platform
        self.obs = obs if obs is not None else DISABLED
        self.swap = SwapSpace(swap_capacity_pages)
        self.daemon_stats = PageDaemonStats()
        self._anon_resident: Dict[int, int] = {}
        self._dirty_file_pages = 0
        # Who inserted each resident file/meta page (anon keys carry
        # their pid already).  Host-side attribution metadata, kept only
        # when obs is enabled and a process is current; what lets a
        # reclaim event name its victims, not just its instigator.
        self._page_owner: Dict[PageKey, int] = {}

        plan = platform.make_pools(config)
        self._file_pool: CachePolicy = plan.file_pool
        self._file_capacity = plan.file_capacity_pages
        self._anon_pool: CachePolicy = plan.anon_pool
        self._anon_capacity = plan.anon_capacity_pages
        self._unified = plan.unified

        # File-eviction epoch: bumped whenever any page might leave the
        # file pool (reclaim victims, explicit drops).  While the epoch
        # is unchanged, a key sequence once verified fully resident is
        # *still* fully resident — inserts never remove — so the stat
        # fast path can skip membership checks and use the policy's
        # replay token (see CachePolicy.replay_token).  Plain attribute
        # (not a property): it is read once per fast-path probe.
        self.file_epoch: int = 0
        #: Bound pass-throughs for the per-probe fast path — one call
        #: deep instead of a wrapper method per probe.
        self.replay_file_touches = self._file_pool.replay
        self.file_replay_token = self._file_pool.replay_token

        # Pull-style sources: read only when metrics are collected.  In
        # unified mode one pool serves both roles, so "cache.file"
        # covers every page class.  Never registered on the shared
        # DISABLED instance — its registry must stay empty.
        if self.obs.enabled:
            self.obs.metrics.register_stats("vm.daemon", self.daemon_stats)
            self.obs.metrics.register_stats("cache.file", self._file_pool.stats)
            if not self._unified:
                self.obs.metrics.register_stats(
                    "cache.anon", self._anon_pool.stats
                )
        # Fault-kind counters are on the page-touch hot path; cache the
        # instrument references and branch on ``enabled`` directly.
        self._fault_counters = {
            FaultKind.RESIDENT: self.obs.metrics.counter("vm.fault.resident"),
            FaultKind.ZERO_FILL: self.obs.metrics.counter("vm.fault.zero_fill"),
            FaultKind.SWAP_IN: self.obs.metrics.counter("vm.fault.swap_in"),
        }

    # ------------------------------------------------------------------
    # Capacity / occupancy
    # ------------------------------------------------------------------
    @property
    def unified(self) -> bool:
        return self._unified

    @property
    def file_capacity_pages(self) -> int:
        return self._file_capacity

    def file_pool_used(self) -> int:
        return len(self._file_pool)

    def anon_pool_used(self) -> int:
        return len(self._anon_pool)

    def resident_anon_pages(self, pid: int) -> int:
        return self._anon_resident.get(pid, 0)

    def file_pool_stats(self) -> CacheStats:
        """Hit/miss/eviction accounting of the (unified or file) pool."""
        return self._file_pool.stats

    def anon_pool_stats(self) -> CacheStats:
        return self._anon_pool.stats

    # ------------------------------------------------------------------
    # Reclaim (the page daemon)
    # ------------------------------------------------------------------
    def _reclaim(self, pool: CachePolicy, capacity: int, incoming: int) -> List[PageEntry]:
        """Make room for ``incoming`` pages; returns victims needing disposal."""
        shortfall = len(pool) + incoming - capacity
        if shortfall <= 0:
            return []
        batch = max(shortfall, self.config.reclaim_batch_pages)
        victims = pool.pop_victims(batch)
        if victims and pool is self._file_pool:
            # Pages left the file pool (or, on the OutOfMemory undo
            # below, were re-inserted as fresh frames): either way any
            # outstanding replay token may now be stale.
            self.file_epoch += 1
        # Decide, then mutate: both failures are detected while the only
        # change is the popped batch, which the undo puts back.
        free_slots = self.swap.free_slots
        if len(victims) < shortfall:
            # Pool cannot shrink enough: the machine is truly out of memory.
            error = f"cannot reclaim {shortfall} pages (pool has {len(pool)})"
        elif len(victims) > free_slots and self._slots_needed(victims) > free_slots:
            error = "swap space exhausted"
        else:
            error = ""
        if error:
            for entry in victims:
                pool.touch(entry.key, entry.dirty)  # undo
            raise OutOfMemory(error)
        stats = self.daemon_stats
        stats.activations += 1
        stats.pages_reclaimed += len(victims)
        anon = file_written = file_dropped = meta = 0
        owners = self._page_owner
        victims_by_pid: Dict[int, int] = {}
        for entry in victims:
            key = entry.key
            if isinstance(key, AnonKey):
                anon += 1
                self._anon_resident[key.pid] = self._anon_resident.get(key.pid, 1) - 1
                self.swap.swap_out(key)
                owner: Optional[int] = key.pid
            else:
                owner = owners.pop(key, None)
                if isinstance(key, FileKey):
                    if entry.dirty:
                        file_written += 1
                        self._dirty_file_pages -= 1
                    else:
                        file_dropped += 1
                elif isinstance(key, MetaKey):
                    if entry.dirty:
                        self._dirty_file_pages -= 1
                    meta += 1
            # Pid 0 stands for "unattributed" — pages inserted host-side
            # (setup writes, daemon work) before any process ran.
            victims_by_pid[owner if owner is not None else 0] = (
                victims_by_pid.get(owner if owner is not None else 0, 0) + 1
            )
        stats.anon_pages_swapped += anon
        stats.file_pages_written += file_written
        stats.file_pages_dropped += file_dropped
        stats.meta_pages_dropped += meta
        if self.obs.enabled:
            # Whose miss forced the eviction (the currently-dispatched
            # pid, 0 host-side) and whose pages died.  victim_pid is the
            # majority owner, smallest pid on ties — deterministic, and
            # exactly one (instigator, victim) pair per reclaim event so
            # interference-matrix cell sums equal the reclaim count.
            instigator = self.obs.current_pid
            victim = min(
                victims_by_pid,
                key=lambda p: (-victims_by_pid[p], p),
            )
            self.obs.event(
                "kernel.reclaim",
                pages=len(victims),
                anon=anon,
                file_written=file_written,
                file_dropped=file_dropped,
                meta=meta,
                instigator_pid=instigator if instigator is not None else 0,
                victim_pid=victim,
                victims_by_pid=victims_by_pid,
            )
        return victims

    def _slots_needed(self, victims: List[PageEntry]) -> int:
        """Fresh swap slots that swapping out ``victims`` would take."""
        slot_of = self.swap.slot_of
        return sum(
            1 for entry in victims
            if isinstance(entry.key, AnonKey) and slot_of(entry.key) is None
        )

    # ------------------------------------------------------------------
    # File / metadata pages
    # ------------------------------------------------------------------
    def file_cached(self, key: PageKey) -> bool:
        return self._file_pool.contains(key)

    def touch_file_cached(self, key: PageKey) -> bool:
        """Clean reference to an already-cached file page; True on a hit.

        The batched-read fast path.  On a hit, :meth:`touch_file` with
        ``dirty=False`` reduces to exactly the policy touch — the
        ``_reclaim`` probe it runs is provably a no-op, because inserts
        always reclaim the pool back under capacity first — so this skips
        straight to :meth:`CachePolicy.touch_cached`.  On a miss the
        caller must take the full :meth:`touch_file` path.
        """
        return self._file_pool.touch_cached(key)

    def touch_file_pages_resident(self, fs_id: int, ino: int, pages: Iterable[int]) -> bool:
        """All-or-nothing clean touch of one file's pages, in order.

        No kernel path calls this any more; it stays only because
        ``perfbench/instrument.py`` wraps it by name.  Remove the two
        together.
        """
        return self._file_pool.touch_cached_many(
            [FileKey(fs_id, ino, page) for page in pages]
        )

    def touch_files_cached(self, keys: Sequence[PageKey]) -> bool:
        """All-or-nothing clean touch of a resident key sequence.

        The name-cache replay: when every key is cached this is exactly
        ``len(keys)`` hit-path :meth:`touch_file` calls (same hit counts,
        same recency updates, no victims — hits never over-fill the
        pool); when any key is absent nothing changes and the caller
        must take the slow walk.
        """
        return self._file_pool.touch_cached_many(keys)

    def touch_file(self, key: PageKey, dirty: bool = False) -> List[PageEntry]:
        """Reference (inserting if absent) a file or metadata page.

        Returns eviction work the caller must perform.  The caller is
        responsible for any read I/O needed to *fill* the page; check
        :meth:`file_cached` first to decide.
        """
        incoming = 0 if self._file_pool.contains(key) else 1
        victims = self._reclaim(self._file_pool, self._file_capacity, incoming)
        if dirty and not self._file_pool.is_dirty(key):
            self._dirty_file_pages += 1
        self._file_pool.touch(key, dirty)
        if incoming and self.obs.enabled:
            pid = self.obs.current_pid
            if pid is not None:
                self._page_owner[key] = pid
        return victims

    def drop_file_page(self, key: PageKey) -> bool:
        if self._file_pool.is_dirty(key):
            self._dirty_file_pages -= 1
        removed = self._file_pool.remove(key)
        if removed:
            self.file_epoch += 1
            self._page_owner.pop(key, None)
        return removed

    def mark_file_clean(self, key: PageKey) -> None:
        if self._file_pool.is_dirty(key):
            self._dirty_file_pages -= 1
        self._file_pool.mark_clean(key)

    @property
    def dirty_file_pages(self) -> int:
        return self._dirty_file_pages

    def oldest_dirty_file_keys(self, count: int) -> List[PageKey]:
        """The first ``count`` dirty file/meta pages in eviction order.

        These are what the bdflush-style throttle writes back; callers
        then invoke :meth:`writeback_complete` per key.
        """
        found: List[PageKey] = []
        for key in self._file_pool.keys():
            if isinstance(key, AnonKey):
                continue
            if self._file_pool.is_dirty(key):
                found.append(key)
                if len(found) >= count:
                    break
        return found

    def writeback_complete(self, key: PageKey) -> None:
        """Mark a flushed page clean and demote it to recycle first."""
        self.mark_file_clean(key)
        self._file_pool.demote(key)

    def file_page_dirty(self, key: PageKey) -> bool:
        return self._file_pool.is_dirty(key)

    def file_keys(self) -> Iterator[PageKey]:
        """All file/meta keys (oracle use).  In unified mode filters anon."""
        for key in self._file_pool.keys():
            if not isinstance(key, AnonKey):
                yield key

    def dirty_file_keys(self) -> List[PageKey]:
        return [k for k in self.file_keys() if self._file_pool.is_dirty(k)]

    # ------------------------------------------------------------------
    # Anonymous pages
    # ------------------------------------------------------------------
    def anon_fault(self, key: AnonKey, touched_before: bool) -> FaultResult:
        """Service a write to an anonymous page.

        ``touched_before`` comes from the address space: an untouched page
        zero-fills, a touched-but-nonresident page swaps in.
        """
        enabled = self.obs.enabled
        if self._anon_pool.contains(key):
            self._anon_pool.touch(key, dirty=True)
            if enabled:
                self._fault_counters[FaultKind.RESIDENT].value += 1
            return FaultResult(FaultKind.RESIDENT)

        victims = self._reclaim(self._anon_pool, self._anon_capacity, 1)
        self._anon_pool.touch(key, dirty=True)
        self._anon_resident[key.pid] = self._anon_resident.get(key.pid, 0) + 1

        if touched_before and self.swap.slot_of(key) is not None:
            slot = self.swap.swap_in(key)
            if enabled:
                self._fault_counters[FaultKind.SWAP_IN].value += 1
            return FaultResult(FaultKind.SWAP_IN, victims, swapin_slot=slot)
        if enabled:
            self._fault_counters[FaultKind.ZERO_FILL].value += 1
        return FaultResult(FaultKind.ZERO_FILL, victims)

    def anon_fault_resident(self, key: AnonKey) -> bool:
        """RESIDENT-case anon fault without the FaultResult allocation.

        True when the page was resident, leaving pool state, dirty bit,
        and the fault counter exactly as :meth:`anon_fault`'s resident
        branch would; False means the caller must run the full fault.
        """
        if not self._anon_pool.touch_cached(key, dirty=True):
            return False
        if self.obs.enabled:
            self._fault_counters[FaultKind.RESIDENT].value += 1
        return True

    def anon_resident(self, key: AnonKey) -> bool:
        return self._anon_pool.contains(key)

    def touch_anon_resident_run(
        self, pid: int, start: int, stop: int, step: int = 1
    ) -> int:
        """Bulk RESIDENT-case fault over a strided page run.

        When every page of ``range(start, stop, step)`` (absolute page
        numbers) is resident, dirty-touch them all — pool state, hit
        counts, and the fault counter exactly as that many
        :meth:`anon_fault_resident` calls in order — and return the page
        count.  Returns 0 (nothing mutated) when any page is absent,
        sending the caller down the per-page fault path.
        """
        keys = [AnonKey(pid, page) for page in range(start, stop, step)]
        if not self._anon_pool.touch_cached_many(keys, True):
            return 0
        count = len(keys)
        if self.obs.enabled:
            self._fault_counters[FaultKind.RESIDENT].value += count
        return count

    def anon_zero_fill_run(self, pid: int, start: int, stop: int) -> bool:
        """Bulk ZERO_FILL: insert ``[start, stop)`` as one batch.

        Preconditions checked here: the pool has room for the whole run
        without reclaiming (so no intermediate step of the equivalent
        sequential faults would have evicted anything) and no page of
        the run is already resident.  The caller guarantees the pages
        were never touched (fresh region pages — so no swap slots
        exist).  On True, pool state, miss counts, per-pid residency,
        and the fault counter match ``stop - start`` sequential
        zero-fill faults; on False nothing is mutated.
        """
        count = stop - start
        pool = self._anon_pool
        if len(pool) + count > self._anon_capacity:
            return False
        keys = [AnonKey(pid, page) for page in range(start, stop)]
        contains = pool.contains
        if any(contains(key) for key in keys):
            return False
        pool.insert_absent_many(keys, True)
        self._anon_resident[pid] = self._anon_resident.get(pid, 0) + count
        if self.obs.enabled:
            self._fault_counters[FaultKind.ZERO_FILL].value += count
        return True

    def free_anon_pages(self, pid: int, keys: List[AnonKey]) -> int:
        """Release pages on vm_free/exit; returns pages actually resident.

        Free storms are region-sized (thousands of pages), so the loop
        binds the pool's remove once and skips the swap-slot sweep
        entirely while no page of any process is swapped out — the
        common case for a machine that never came under pressure.
        """
        freed = 0
        remove = self._anon_pool.remove
        for key in keys:
            if remove(key):
                freed += 1
        if self.swap.in_use():
            discard = self.swap.discard
            for key in keys:
                discard(key)
        if freed:
            self._anon_resident[pid] = self._anon_resident.get(pid, freed) - freed
        return freed

    def release_process(self, pid: int, keys: List[AnonKey]) -> None:
        """Drop every page of an exiting process."""
        for key in keys:
            self._anon_pool.remove(key)
        self.swap.discard_process(pid)
        self._anon_resident.pop(pid, None)
