"""Common types for page-replacement policies.

Pages are identified by small tuples so they hash fast and print
readably:

* ``FileKey(fs_id, ino, page_index)``  — file data pages
* ``MetaKey(fs_id, block)``            — inode/metadata blocks
* ``AnonKey(pid, page_index)``         — anonymous (heap) pages
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, NamedTuple, Sequence, Union

from repro.obs.metrics import SnapshotStats


class FileKey(NamedTuple):
    fs_id: int
    ino: int
    index: int


class MetaKey(NamedTuple):
    fs_id: int
    block: int


class AnonKey(NamedTuple):
    pid: int
    index: int


PageKey = Union[FileKey, MetaKey, AnonKey]


class PageEntry(NamedTuple):
    """A victim nomination: which page, and whether it needs writeback."""

    key: PageKey
    dirty: bool


@dataclass
class CacheStats(SnapshotStats):
    """Access accounting shared by every replacement policy.

    ``hits``/``misses`` count :meth:`CachePolicy.touch` calls on
    present/absent pages, ``evictions`` counts victims surrendered by
    :meth:`CachePolicy.pop_victims`, and ``demotions`` counts
    drop-behind moves (:meth:`CachePolicy.demote` on a present page).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    demotions: int = 0


class CachePolicy(ABC):
    """Interface every replacement policy implements.

    Policies never perform I/O and never enforce capacity; they only
    maintain recency/reference state and nominate victims on demand.
    Every policy maintains a :class:`CacheStats`; hit/miss accounting is
    centralized in the base class's :meth:`touch` / :meth:`touch_cached`
    template methods, so subclasses implement only the two stat-free
    primitives :meth:`_reference` and :meth:`_insert` (plus eviction
    accounting inside ``pop_victims`` / ``demote``).
    """

    def __init__(self) -> None:
        self.stats = CacheStats()

    # Access template: one shared hit/miss bookkeeping path ------------
    def touch(self, key: PageKey, dirty: bool = False) -> None:
        """Record an access; inserts the page if it is not present."""
        if self._reference(key, dirty):
            self.stats.hits += 1
        else:
            self.stats.misses += 1
            self._insert(key, dirty)

    def touch_cached(self, key: PageKey, dirty: bool = False) -> bool:
        """Touch the page only if present; True on a hit.

        The batched-syscall fast path's primitive: one policy lookup,
        no insert, no miss accounting on the absent case (the caller
        falls back to the full :meth:`touch` path, which counts it).
        Shared here so every policy gets the fused form for free.
        """
        if self._reference(key, dirty):
            self.stats.hits += 1
            return True
        return False

    def touch_cached_many(self, keys: Sequence[PageKey], dirty: bool = False) -> bool:
        """All-or-nothing touch of a key sequence; True if all hit.

        The batch-hit primitive (name-cache replay, resident touch
        runs): when *every* key is present, re-reference each one **in
        order** (recency/reference/dirty updates exactly as
        ``len(keys)`` individual touches would) and count that many
        hits.  If any key is absent, mutate nothing — no stats, no
        recency movement — and return False so the caller falls back to
        the per-page path, which performs and accounts every touch
        itself.  Membership is verified for the whole sequence before
        the first reference so a late miss cannot leave partial hit
        counts behind.  Subclasses override with fused forms.
        """
        contains = self.contains
        for key in keys:
            if not contains(key):
                return False
        reference = self._reference
        for key in keys:
            reference(key, dirty)
        self.stats.hits += len(keys)
        return True

    def insert_absent_many(self, keys: Sequence[PageKey], dirty: bool) -> None:
        """Insert absent pages as one batch; ≡ ``len(keys)`` touch misses.

        Precondition: no key is present and the caller has verified
        capacity (no reclaim may be needed at any intermediate step).
        """
        insert = self._insert
        for key in keys:
            insert(key, dirty)
        self.stats.misses += len(keys)

    def replay_token(self, keys: Sequence[PageKey]) -> Any:
        """An opaque token for O(len)-cheap re-touches of resident keys.

        Contract: ``keys`` must all be resident *now*, and the token is
        valid only while **no page leaves this pool** (the memory
        manager's file-eviction epoch tracks exactly that).  While
        valid, :meth:`replay` must be observably identical to a
        successful :meth:`touch_cached_many` over the same keys —
        same recency/reference effects, same hit count.  Policies
        override to pre-resolve per-key lookups (e.g. clock caches the
        frame objects, so a replay is pure attribute stores).
        """
        return tuple(keys)

    def replay(self, token: Any) -> None:
        """Re-touch a :meth:`replay_token`'s keys without membership checks."""
        reference = self._reference
        for key in token:
            reference(key, False)
        self.stats.hits += len(token)

    @abstractmethod
    def _reference(self, key: PageKey, dirty: bool) -> bool:
        """Re-reference ``key`` iff present; True on a hit.

        Must update recency/reference state and the dirty bit exactly
        as a hit in the policy's replacement discipline demands, and
        must NOT touch :attr:`stats` — the template methods do that.
        """

    @abstractmethod
    def _insert(self, key: PageKey, dirty: bool) -> None:
        """Insert an absent page as the most recently used (no stats)."""

    @abstractmethod
    def contains(self, key: PageKey) -> bool:
        """True if the page is currently cached."""

    @abstractmethod
    def is_dirty(self, key: PageKey) -> bool:
        """True if the page is cached and has unwritten modifications."""

    @abstractmethod
    def mark_clean(self, key: PageKey) -> None:
        """Clear the dirty bit after a writeback (no-op if absent)."""

    @abstractmethod
    def remove(self, key: PageKey) -> bool:
        """Drop the page (truncate/unlink/free); True if it was present."""

    @abstractmethod
    def pop_victims(self, count: int) -> List[PageEntry]:
        """Remove and return up to ``count`` victims, best-first."""

    def demote(self, key: PageKey) -> None:
        """Make the page the next eviction candidate (drop-behind).

        Called after a written-back page's data is safely on disk so
        streaming writers recycle their own pages.  Policies without a
        meaningful "front" may ignore it; the default is a no-op.
        """

    @abstractmethod
    def __len__(self) -> int:
        """Number of cached pages."""

    @abstractmethod
    def keys(self) -> Iterator[PageKey]:
        """Iterate over cached page keys (oracle/testing use)."""

    # Convenience shared by all policies -------------------------------
    def remove_many(self, keys: Iterable[PageKey]) -> int:
        removed = 0
        for key in keys:
            if self.remove(key):
                removed += 1
        return removed

    def dirty_keys(self) -> List[PageKey]:
        return [k for k in self.keys() if self.is_dirty(k)]
