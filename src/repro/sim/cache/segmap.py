"""Page-holding replacement — the ``solaris7`` personality.

The paper observed (§4.1.3) that the Solaris 7 file-cache manager "keeps
a single portion of the file in cache, so that repeated accesses to that
file hit in the cache", and that "once a file (or portion of a file) is
placed in the Solaris file cache, it is quite difficult to dislodge, even
under repeated scans of different files".

This policy reproduces exactly that observable behaviour without claiming
to be the real segmap implementation: victims are taken from the *most
recently first-cached* owner (file or process), and within an owner the
*most recently inserted* page goes first.  Consequences:

* a scan of a file larger than memory keeps its earliest-read prefix
  resident forever (warm re-scans are fast without any gray-box help);
* later files cannot dislodge earlier ones — their own fresh pages are
  chosen as victims instead.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Dict, Iterator, List, Tuple

from repro.sim.cache.base import AnonKey, CachePolicy, FileKey, MetaKey, PageEntry, PageKey

Owner = Tuple


def _owner_of(key: PageKey) -> Owner:
    if isinstance(key, FileKey):
        return ("f", key.fs_id, key.ino)
    if isinstance(key, MetaKey):
        return ("m", key.fs_id)
    if isinstance(key, AnonKey):
        return ("a", key.pid)
    raise TypeError(f"unknown page key type: {key!r}")


class SegmapPolicy(CachePolicy):
    """Evict newest-owner-first, newest-insertion-first inside an owner."""

    def __init__(self) -> None:
        super().__init__()
        # owner -> insertion-ordered pages (value = dirty bit)
        self._owners: Dict[Owner, "OrderedDict[PageKey, bool]"] = {}
        self._first_seen: Dict[Owner, int] = {}
        # Max-heap (lazy) of (-first_seen, owner) for victim owner choice.
        self._heap: List[Tuple[int, Owner]] = []
        self._seq = 0
        self._count = 0

    def _pages_of(self, key: PageKey) -> "OrderedDict[PageKey, bool]":
        owner = _owner_of(key)
        pages = self._owners.get(owner)
        if pages is None:
            pages = self._owners[owner] = OrderedDict()
            self._seq += 1
            self._first_seen[owner] = self._seq
            heapq.heappush(self._heap, (-self._seq, owner))
        return pages

    def _reference(self, key: PageKey, dirty: bool) -> bool:
        pages = self._owners.get(_owner_of(key))
        if pages is None or key not in pages:
            return False
        if dirty:
            pages[key] = True
        return True

    def _insert(self, key: PageKey, dirty: bool) -> None:
        self._pages_of(key)[key] = dirty
        self._count += 1

    def touch_cached_many(self, keys, dirty: bool = False) -> bool:
        """Fused all-or-nothing replay: a clean segmap hit moves nothing."""
        owners = self._owners
        for key in keys:
            pages = owners.get(_owner_of(key))
            if pages is None or key not in pages:
                return False
        if dirty:
            for key in keys:
                owners[_owner_of(key)][key] = True
        self.stats.hits += len(keys)
        return True

    def insert_absent_many(self, keys, dirty: bool) -> None:
        """Batched insert in key order (owner rows created on demand)."""
        pages_of = self._pages_of
        for key in keys:
            pages_of(key)[key] = dirty
        self._count += len(keys)
        self.stats.misses += len(keys)

    def replay_token(self, keys):
        """A clean segmap hit mutates nothing, so the hit count is the
        entire replay state."""
        return len(keys)

    def replay(self, token) -> None:
        self.stats.hits += token

    def contains(self, key: PageKey) -> bool:
        pages = self._owners.get(_owner_of(key))
        return bool(pages) and key in pages

    def is_dirty(self, key: PageKey) -> bool:
        pages = self._owners.get(_owner_of(key))
        return bool(pages) and pages.get(key, False)

    def mark_clean(self, key: PageKey) -> None:
        pages = self._owners.get(_owner_of(key))
        if pages and key in pages:
            pages[key] = False

    def remove(self, key: PageKey) -> bool:
        owner = _owner_of(key)
        pages = self._owners.get(owner)
        if not pages or key not in pages:
            return False
        del pages[key]
        self._count -= 1
        if not pages:
            self._forget(owner)
        return True

    def _forget(self, owner: Owner) -> None:
        self._owners.pop(owner, None)
        self._first_seen.pop(owner, None)
        # Heap entry is removed lazily in pop_victims.

    def pop_victims(self, count: int) -> List[PageEntry]:
        victims: List[PageEntry] = []
        while self._count and len(victims) < count:
            neg_seen, owner = self._heap[0]
            pages = self._owners.get(owner)
            if pages is None or self._first_seen.get(owner) != -neg_seen:
                heapq.heappop(self._heap)  # stale entry
                continue
            key, dirty = pages.popitem(last=True)
            self._count -= 1
            victims.append(PageEntry(key, dirty))
            if not pages:
                heapq.heappop(self._heap)
                self._forget(owner)
        self.stats.evictions += len(victims)
        return victims

    def __len__(self) -> int:
        return self._count

    def keys(self) -> Iterator[PageKey]:
        for pages in self._owners.values():
            yield from pages.keys()
