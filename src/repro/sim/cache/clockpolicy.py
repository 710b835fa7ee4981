"""Clock (second-chance) replacement — the ``linux22`` personality.

An approximation of LRU: pages sit on a circular list with a reference
bit; the hand sweeps, clearing bits, and evicts the first unreferenced
page it finds.  Because the hand moves in insertion order and scans clear
long runs of bits, eviction proceeds in *chunks* of pages inserted
together — the spatial-locality property Figure 1 of the paper measures
(the presence of one probed page predicts its neighbours).

Victim preference mirrors Linux 2.2: the kernel ran ``shrink_mmap``
(page/buffer-cache pages) to exhaustion before ever calling ``swap_out``
on process memory, so file pages are reclaimed first, absolutely, and
anonymous pages are touched only when no file page remains.  That
asymmetry is what lets gb-fastsort's granted buffers coexist with heavy
file streaming without paging (§4.3.3) and gives MAC its "available =
everything but competitors' anonymous memory" semantics.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List

from repro.sim.cache.base import AnonKey, CachePolicy, PageEntry, PageKey


class _Frame:
    __slots__ = ("referenced", "dirty")

    def __init__(self, dirty: bool) -> None:
        self.referenced = True
        self.dirty = dirty


class ClockPolicy(CachePolicy):
    """Second-chance over two insertion-ordered rings (file, then anon).

    Each ring is an OrderedDict walked from the front; giving a page a
    second chance moves it to the back (equivalent to the hand passing
    it and wrapping around), which keeps victim selection O(1) amortized.
    """

    def __init__(self) -> None:
        super().__init__()
        self._file_ring: "OrderedDict[PageKey, _Frame]" = OrderedDict()
        self._anon_ring: "OrderedDict[PageKey, _Frame]" = OrderedDict()

    def _ring_of(self, key: PageKey) -> "OrderedDict[PageKey, _Frame]":
        return self._anon_ring if isinstance(key, AnonKey) else self._file_ring

    def _reference(self, key: PageKey, dirty: bool) -> bool:
        frame = self._ring_of(key).get(key)
        if frame is None:
            return False
        frame.referenced = True
        frame.dirty = frame.dirty or dirty
        return True

    def _insert(self, key: PageKey, dirty: bool) -> None:
        self._ring_of(key)[key] = _Frame(dirty)

    def touch_cached_many(self, keys, dirty: bool = False) -> bool:
        """Fused all-or-nothing replay: a clock hit sets the bit."""
        ring_of = self._ring_of
        frames = []
        for key in keys:
            frame = ring_of(key).get(key)
            if frame is None:
                return False
            frames.append(frame)
        if dirty:
            for frame in frames:
                frame.referenced = True
                frame.dirty = True
        else:
            for frame in frames:
                frame.referenced = True
        self.stats.hits += len(frames)
        return True

    def insert_absent_many(self, keys, dirty: bool) -> None:
        """Batched insert at the back of the ring, in key order."""
        ring_of = self._ring_of
        for key in keys:
            ring_of(key)[key] = _Frame(dirty)
        self.stats.misses += len(keys)

    def replay_token(self, keys):
        """The frame objects themselves: frames are identity-stable while
        resident (a second-chance rotation re-inserts the same frame),
        so while no page leaves the pool a replay needs no key hashing
        at all — just a reference-bit store per frame."""
        ring_of = self._ring_of
        return tuple(ring_of(key)[key] for key in keys)

    def replay(self, token) -> None:
        for frame in token:
            frame.referenced = True
        self.stats.hits += len(token)

    def contains(self, key: PageKey) -> bool:
        return key in self._ring_of(key)

    def is_dirty(self, key: PageKey) -> bool:
        frame = self._ring_of(key).get(key)
        return bool(frame and frame.dirty)

    def mark_clean(self, key: PageKey) -> None:
        frame = self._ring_of(key).get(key)
        if frame is not None:
            frame.dirty = False

    def remove(self, key: PageKey) -> bool:
        return self._ring_of(key).pop(key, None) is not None

    def demote(self, key: PageKey) -> None:
        ring = self._ring_of(key)
        frame = ring.get(key)
        if frame is not None:
            frame.referenced = False
            ring.move_to_end(key, last=False)
            self.stats.demotions += 1

    @staticmethod
    def _sweep(ring: "OrderedDict[PageKey, _Frame]", victims: List[PageEntry],
               count: int) -> None:
        # Each pass around the ring clears every reference bit, so the
        # loop terminates: by the second pass a page is unreferenced
        # unless re-touched, and pop_victims runs atomically.
        while ring and len(victims) < count:
            key, frame = ring.popitem(last=False)
            if frame.referenced:
                frame.referenced = False
                ring[key] = frame  # second chance: rotate to back
            else:
                victims.append(PageEntry(key, frame.dirty))

    def pop_victims(self, count: int) -> List[PageEntry]:
        victims: List[PageEntry] = []
        self._sweep(self._file_ring, victims, count)
        if len(victims) < count:
            self._sweep(self._anon_ring, victims, count)
        self.stats.evictions += len(victims)
        return victims

    def __len__(self) -> int:
        return len(self._file_ring) + len(self._anon_ring)

    def keys(self) -> Iterator[PageKey]:
        yield from self._file_ring.keys()
        yield from self._anon_ring.keys()
