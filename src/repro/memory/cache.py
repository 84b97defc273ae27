"""A set-associative, write-back cache with way partitioning.

This one model serves as L1D, L2 and LLC.  The LLC additionally supports
shrinking/growing its *active* ways at run time, which is how Triage's
way partitioning carves a metadata store out of the data array (paper
Section 3: "we partition the last-level cache by assigning separate ways
to data and metadata").
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Union

from repro.memory.address import LINE_SIZE
from repro.replacement.base import ReplacementPolicy


@dataclass(slots=True)
class CacheLine:
    """One resident cache line."""

    line: int  # full line address (byte address >> 6)
    dirty: bool = False
    #: None, or the prefetcher kind ("l1"/"l2") that brought the line in
    #: and has not yet seen a demand touch.
    prefetched: Optional[str] = None
    pc: int = 0  # PC of the filling access


@dataclass(slots=True)
class AccessOutcome:
    """What happened on a cache access or fill."""

    hit: bool
    #: Prefetcher kind if this was the first demand touch of a
    #: prefetched line, else None.
    prefetch_hit: Optional[str] = None
    evicted: Optional[CacheLine] = None  # victim displaced by a fill


#: Shared outcomes for the two overwhelmingly common cases.  Treat them
#: as immutable: :meth:`Cache.access` returns these instead of allocating
#: a fresh record per miss / plain hit.
_MISS = AccessOutcome(hit=False)
_PLAIN_HIT = AccessOutcome(hit=True)


def set_count(
    name: str, size_bytes: int, ways: int, line_size: int = LINE_SIZE
) -> int:
    """Sets of a ``size_bytes``/``ways`` cache; raises unless a power of two."""
    num_sets = size_bytes // (line_size * ways)
    if num_sets <= 0 or num_sets & (num_sets - 1):
        raise ValueError(
            f"{name}: geometry {size_bytes}B/{ways}-way/{line_size}B "
            f"yields {num_sets} sets (must be a positive power of two)"
        )
    return num_sets


class Cache:
    """Set-associative cache keyed by line address.

    Parameters
    ----------
    name:
        Label used in stats and error messages (``"L1D"``, ``"LLC"`` ...).
    size_bytes / ways / line_size:
        Geometry; ``size_bytes`` must divide evenly into power-of-two sets.
    policy:
        A replacement-policy name from :data:`repro.replacement.POLICIES`
        or an already-constructed :class:`ReplacementPolicy` (the latter is
        how Triage injects a shared Hawkeye predictor).
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        line_size: int = LINE_SIZE,
        policy: Union[str, ReplacementPolicy] = "lru",
    ):
        num_sets = set_count(name, size_bytes, ways, line_size)
        self.name = name
        self.size_bytes = size_bytes
        self.total_ways = ways
        self.active_ways = ways
        self.line_size = line_size
        self.num_sets = num_sets
        if isinstance(policy, str):
            # Local import avoids a cycle: repro.replacement re-exports us.
            from repro.replacement import make_policy

            self.policy = make_policy(policy, num_sets, ways)
        else:
            self.policy = policy
        # Policy hooks run on every access/fill; pre-bound methods avoid
        # re-creating a bound method per call.  The policy object is fixed
        # for the cache's lifetime (resize_ways mutates it in place), and
        # ``set_line_key`` is skipped entirely for policies that keep the
        # base no-op.
        self._policy_on_hit = self.policy.on_hit
        self._policy_on_fill = self.policy.on_fill
        self._policy_on_evict = self.policy.on_evict
        self._policy_victim = self.policy.victim
        self._policy_tracks_keys = (
            type(self.policy).set_line_key is not ReplacementPolicy.set_line_key
        )
        self._ways: List[List[Optional[CacheLine]]] = [
            [None] * ways for _ in range(num_sets)
        ]
        self._index: List[Dict[int, int]] = [dict() for _ in range(num_sets)]
        # Per-set min-heap of free (active) ways: fills pop the lowest
        # free way in O(log ways) instead of scanning every way; an
        # ascending range is already a valid heap.
        self._free: List[List[int]] = [list(range(ways)) for _ in range(num_sets)]
        self.hits = 0
        self.misses = 0

    # -- geometry helpers --------------------------------------------------

    def set_of(self, line: int) -> int:
        """Set index of a line address."""
        return line & (self.num_sets - 1)

    @property
    def active_size_bytes(self) -> int:
        """Capacity of the currently active ways."""
        return self.num_sets * self.active_ways * self.line_size

    # -- queries (no side effects) ----------------------------------------

    def contains(self, line: int) -> bool:
        """Return True if ``line`` is resident (no replacement update)."""
        return line in self._index[line & (self.num_sets - 1)]

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(idx) for idx in self._index)

    # -- access / fill / invalidate ----------------------------------------

    def access(self, line: int, pc: int = 0, is_write: bool = False) -> AccessOutcome:
        """Demand access: update replacement state on hit, never fill.

        On a miss the caller is expected to consult the next level and
        call :meth:`fill`.
        """
        set_idx = line & (self.num_sets - 1)
        way = self._index[set_idx].get(line)
        if way is None:
            self.misses += 1
            return _MISS
        self.hits += 1
        entry = self._ways[set_idx][way]
        if is_write:
            entry.dirty = True
        prefetch_hit = entry.prefetched
        self._policy_on_hit(set_idx, way, pc)
        if prefetch_hit is None:
            return _PLAIN_HIT
        entry.prefetched = None
        return AccessOutcome(True, prefetch_hit)

    def fill(
        self,
        line: int,
        pc: int = 0,
        dirty: bool = False,
        prefetched: Optional[str] = None,
    ) -> Optional[CacheLine]:
        """Install ``line``; return the victim (if a valid line was evicted).

        Filling a line that is already resident refreshes its replacement
        state and merges the dirty bit instead of duplicating it.
        """
        if self.active_ways == 0:
            return None  # fully partitioned away: nothing to install into
        set_idx = line & (self.num_sets - 1)
        index = self._index[set_idx]
        ways = self._ways[set_idx]
        existing = index.get(line)
        if existing is not None:
            if dirty:
                ways[existing].dirty = True
            self._policy_on_hit(set_idx, existing, pc)
            return None

        free = self._free[set_idx]
        victim: Optional[CacheLine] = None
        if free:
            way = heappop(free)
        else:
            way = self._policy_victim(set_idx, pc)
            victim = ways[way]
            del index[victim.line]
            self._policy_on_evict(set_idx, way)
        ways[way] = CacheLine(line, dirty, prefetched, pc)
        index[line] = way
        if self._policy_tracks_keys:
            self.policy.set_line_key(set_idx, way, line)
        self._policy_on_fill(set_idx, way, pc)
        return victim

    def invalidate(self, line: int) -> Optional[CacheLine]:
        """Drop ``line`` if resident; return it (caller handles writeback)."""
        set_idx = self.set_of(line)
        way = self._index[set_idx].pop(line, None)
        if way is None:
            return None
        entry = self._ways[set_idx][way]
        self._ways[set_idx][way] = None
        heappush(self._free[set_idx], way)
        self._policy_on_evict(set_idx, way)
        return entry

    def mark_dirty(self, line: int) -> bool:
        """Set the dirty bit of a resident line; return whether it was found."""
        set_idx = line & (self.num_sets - 1)
        way = self._index[set_idx].get(line)
        if way is None:
            return False
        self._ways[set_idx][way].dirty = True
        return True

    # -- way partitioning ---------------------------------------------------

    def set_active_ways(self, n: int) -> List[CacheLine]:
        """Restrict the cache to its first ``n`` ways.

        Shrinking invalidates (and returns) every line in the deactivated
        ways -- the paper flushes dirty lines when the data partition
        shrinks, so callers should write back dirty victims.  Growing just
        re-enables the ways; they refill naturally.
        """
        if not 0 <= n <= self.total_ways:
            raise ValueError(f"{self.name}: active ways {n} out of range")
        evicted: List[CacheLine] = []
        if n < self.active_ways:
            for set_idx in range(self.num_sets):
                ways = self._ways[set_idx]
                index = self._index[set_idx]
                for way in range(n, self.active_ways):
                    entry = ways[way]
                    if entry is not None:
                        evicted.append(entry)
                        del index[entry.line]
                        ways[way] = None
                        self.policy.on_evict(set_idx, way)
                # Deactivated ways leave the freelist (free or just
                # evicted alike); filtering can break the heap shape,
                # so restore it.
                free = [w for w in self._free[set_idx] if w < n]
                heapify(free)
                self._free[set_idx] = free
        elif n > self.active_ways:
            # Re-enabled ways are empty by construction (the shrink that
            # deactivated them evicted their lines); they refill naturally.
            reenabled = range(self.active_ways, n)
            for free in self._free:
                for way in reenabled:
                    heappush(free, way)
        self.active_ways = n
        self.policy.resize_ways(n)
        return evicted

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Cache({self.name}, {self.size_bytes}B, {self.total_ways}-way, "
            f"{self.num_sets} sets, active_ways={self.active_ways})"
        )
