"""The VM fault layer: anonymous-memory syscalls and fault servicing.

Sits between the memory syscalls (``vm_alloc`` / ``vm_free`` /
``touch`` / ``touch_range`` / ``touch_batch``) and the
:class:`~repro.sim.vm.physmem.MemoryManager` below.  The memory manager
classifies each touch (resident / zero-fill / swap-in) and nominates
eviction victims; this layer turns the classification into simulated
time — fault overhead, page zeroing, swap-in I/O — and routes victim
writebacks through the
:class:`~repro.sim.pagecache.PageCacheManager`, exactly as the file
side does, so anonymous and file-backed memory share one writeback
path on unified-VM platforms.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.sim.cache.base import AnonKey
from repro.sim.clock import Clock
from repro.sim.config import MachineConfig
from repro.sim.disk import Disk
from repro.sim.dispatch import SyscallTable
from repro.sim.errors import InvalidArgument
from repro.sim.pagecache import PageCacheManager
from repro.sim.proc.process import Process
from repro.sim.syscalls import TouchBatchResult
from repro.sim.vm.physmem import FaultKind, MemoryManager


class VMLayer:
    """Anonymous-memory syscalls: allocation, touches, batched touches."""

    def __init__(
        self,
        config: MachineConfig,
        clock: Clock,
        mm: MemoryManager,
        swap_disk: Disk,
        page_cache: PageCacheManager,
    ) -> None:
        self.config = config
        self.clock = clock
        self.mm = mm
        self.swap_disk = swap_disk
        self.page_cache = page_cache
        #: Optional fault injector (repro.sim.inject.FaultInjector); when
        #: set, per-touch elapsed times pass through ``probe_elapsed`` so
        #: batched and sequential touches observe one noise stream (and
        #: the batch's early-stop predicate sees the noisy time, exactly
        #: like the user-space sequential loop would).
        self.inject: Optional[Any] = None

    def register_syscalls(self, table: SyscallTable) -> None:
        table.register("vm_alloc", self.sys_vm_alloc)
        table.register("vm_free", self.sys_vm_free)
        table.register("touch", self.sys_touch)
        table.register("touch_range", self.sys_touch_range)
        table.register("touch_batch", self.sys_touch_batch)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def sys_vm_alloc(self, process: Process, nbytes: int, label: str = ""):
        if nbytes <= 0:
            raise InvalidArgument("vm_alloc needs a positive size")
        npages = -(-nbytes // self.config.page_size)
        region = process.address_space.allocate(npages, label)
        return region.region_id, self.config.syscall_overhead_ns

    def sys_vm_free(self, process: Process, region_id: int):
        space = process.address_space
        region = space.region(region_id)
        touched = [
            AnonKey(process.pid, page)
            for page in region.page_numbers()
            if page in space.touched
        ]
        self.mm.free_anon_pages(process.pid, touched)
        space.free(region_id)
        return None, self.config.syscall_overhead_ns

    # ------------------------------------------------------------------
    # Touches
    # ------------------------------------------------------------------
    def touch_one(self, process: Process, region_id: int, page_index: int, t: int) -> int:
        """Service one page touch starting at time ``t``; returns new time."""
        space = process.address_space
        region = space.region(region_id)
        if not 0 <= page_index < region.npages:
            raise InvalidArgument(
                f"page {page_index} outside region of {region.npages} pages"
            )
        page = region.base_page + page_index
        key = AnonKey(process.pid, page)
        touched_before = page in space.touched
        fault = self.mm.anon_fault(key, touched_before)
        space.touched.add(page)
        cfg = self.config
        if fault.kind is FaultKind.RESIDENT:
            return t + cfg.mem_touch_ns
        t += cfg.fault_overhead_ns
        t = self.page_cache.dispose_victims(fault.evictions, t)
        if fault.kind is FaultKind.ZERO_FILL:
            return t + cfg.page_zero_ns
        _s, t = self.swap_disk.access(
            fault.swapin_slot, 1, t, cfg.page_size, write=False
        )
        return t + cfg.mem_touch_ns

    def sys_touch(self, process: Process, region_id: int, page_index: int):
        t0 = self.clock.now
        t = self.touch_one(process, region_id, page_index, t0)
        duration = t - t0
        if self.inject is not None:
            duration = self.inject.probe_elapsed("touch", duration)
        return None, duration

    def sys_touch_range(self, process: Process, region_id: int, start_page: int, npages: int):
        """Touch pages in order; shares :meth:`_touch_run` with touch_batch.

        Routing through the batch interior (rather than a bare
        ``touch_one`` loop) gives touch_range the same resident fast
        check and, when the injector is inert, the same whole-run
        paths — it previously re-walked the full per-page fault path at
        tens of host-milliseconds per warm-up call.
        """
        if npages <= 0:
            raise InvalidArgument("touch_range needs a positive page count")
        times, _stopped, total = self._touch_run(
            process, region_id, start_page, npages, 1, None, 1, 1
        )
        return times, total

    def sys_touch_batch(
        self,
        process: Process,
        region_id: int,
        start_page: int,
        npages: int,
        stride: int = 1,
        threshold_ns: Optional[int] = None,
        slow_count: int = 1,
        slow_window: int = 1,
    ):
        """Vectored page touches with MAC's windowed early-stop predicate.

        Without ``threshold_ns`` this is ``touch_range`` with a stride.
        With it, touching stops right after the page whose slow
        observation is the ``slow_count``-th within ``slow_window`` page
        indexes — so an aborted batch leaves the memory pool in exactly
        the state the equivalent sequential touch loop (which aborts at
        the same page) would have left it.
        """
        if npages <= 0:
            raise InvalidArgument("touch_batch needs a positive page count")
        if stride <= 0:
            raise InvalidArgument("touch_batch needs a positive stride")
        if slow_count < 1 or slow_window < 1:
            raise InvalidArgument("need slow_count >= 1 and slow_window >= 1")
        times, stopped, total = self._touch_run(
            process, region_id, start_page, npages, stride,
            threshold_ns, slow_count, slow_window,
        )
        return TouchBatchResult(tuple(times), stopped), total

    def _touch_run(
        self,
        process: Process,
        region_id: int,
        start_page: int,
        npages: int,
        stride: int,
        threshold_ns: Optional[int],
        slow_count: int,
        slow_window: int,
    ):
        """Shared touch interior; returns ``(per_page_times, stopped, total)``.

        Three tiers, each bit-identical in simulated time and pool state
        to the per-page loop below it:

        1. **Resident run** — every page of the strided run is resident
           (one all-or-nothing policy touch over the run's keys): charge
           ``mem_touch_ns`` per page.  Valid only when no touch can
           exceed the early-stop threshold, so the predicate provably
           never trips.
        2. **Zero-fill run** — a contiguous, never-touched run the pool
           can absorb without reclaiming: one batched insert,
           ``fault_overhead + page_zero`` per page.
        3. **Per-page loop** — everything else (mixed runs, swap-ins,
           reclaim pressure, an active injector, predicate-visible slow
           touches): the resident fast check per page, ``touch_one``
           for real faults, noise and early-stop applied per touch.
        """
        t0 = self.clock.now
        space = process.address_space
        region = space.region(region_id)
        last_index = start_page + ((npages - 1) // stride) * stride
        in_bounds = 0 <= start_page and last_index < region.npages
        base_page = region.base_page
        cfg = self.config
        mem_touch_ns = cfg.mem_touch_ns
        pid = process.pid
        inject = self.inject

        if inject is None and in_bounds:
            # Tier 1: the whole strided run is resident.  Guard the
            # early-stop predicate: a resident touch costs exactly
            # mem_touch_ns, so with mem_touch_ns <= threshold no
            # observation can be slow and the predicate cannot trip.
            if threshold_ns is None or mem_touch_ns <= threshold_ns:
                count = self.mm.touch_anon_resident_run(
                    pid, base_page + start_page, base_page + last_index + 1, stride
                )
                if count:
                    return [mem_touch_ns] * count, False, count * mem_touch_ns
            # Tier 2: a fresh contiguous run (no page ever touched, so
            # zero-fill faults with no swap slots) the pool can take
            # without evicting at any intermediate step.
            zero_ns = cfg.fault_overhead_ns + cfg.page_zero_ns
            if (
                stride == 1
                and (threshold_ns is None or zero_ns <= threshold_ns)
                and space.touched.isdisjoint(
                    range(base_page + start_page, base_page + start_page + npages)
                )
                and self.mm.anon_zero_fill_run(
                    pid, base_page + start_page, base_page + start_page + npages
                )
            ):
                space.touched.update(
                    range(base_page + start_page, base_page + start_page + npages)
                )
                return [zero_ns] * npages, False, npages * zero_ns

        # Tier 3: the per-page loop.  Fast path for the resident case
        # (MAC's verify loops re-touch pages that are overwhelmingly
        # still resident): skip the per-page region lookup/bounds check
        # — validated once for the whole strided range above — and the
        # FaultResult allocation.  Any fault that needs real work falls
        # back to ``touch_one``.
        t = t0
        times: List[int] = []
        append = times.append
        slow_marks: List[int] = []
        stopped = False
        touched = space.touched
        resident_touch = self.mm.anon_fault_resident
        for index in range(start_page, start_page + npages, stride):
            before = t
            page = base_page + index
            if in_bounds and page in touched and resident_touch(AnonKey(pid, page)):
                t += mem_touch_ns
                elapsed = mem_touch_ns
            else:
                t = self.touch_one(process, region_id, index, t)
                elapsed = t - before
            if inject is not None:
                # Noise the touch before the early-stop predicate reads
                # it, exactly as the sequential user-space loop would.
                elapsed = inject.probe_elapsed("touch", elapsed)
                t = before + elapsed
            append(elapsed)
            if threshold_ns is not None and elapsed > threshold_ns:
                slow_marks.append(index)
                recent = sum(1 for m in slow_marks if index - m < slow_window)
                if recent >= slow_count:
                    stopped = True
                    break
        return times, stopped, t - t0


__all__ = ["VMLayer"]
