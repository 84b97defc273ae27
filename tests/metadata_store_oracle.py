"""Reference oracle: the per-set, object-per-entry metadata store.

A frozen copy of :class:`repro.core.metadata_store.MetadataStore` as it
was before the store went flat and slot-indexed: per-set way lists of
:class:`MetadataEntry` objects, per-set trigger->way dicts and free-way
stacks, and replacement delegated to the ``repro.replacement`` policy
objects.  ``tests/test_metadata_store_oracle.py`` replays random
operation sequences on both and requires identical answers.  Do not
"fix" this file: it is the behaviour the flat store must reproduce.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.compressed_tags import CompressedTagTable
from repro.replacement.base import ReplacementPolicy
from repro.replacement.hawkeye import HawkeyePolicy, HawkeyePredictor
from repro.replacement.lru import LruPolicy
from repro.replacement.reuse_aware import ReuseAwarePolicy

#: 4-byte entries, 16 per 64 B LLC line.
ENTRY_BYTES = 4
ENTRIES_PER_LINE = 16
#: Bits of the successor's set_id stored verbatim (2048-set LLC, Table 1).
SET_ID_BITS = 11
#: Near-index capacity for ``index_mode="nonuniform"`` (entries).  Small
#: by design: Trimma's point is that a tiny near level captures most
#: lookups, not that the near level competes with the far array.
NEAR_INDEX_ENTRIES = 64


@dataclass(slots=True)
class MetadataEntry:
    """One correlation: ``trigger``'s PC-localized successor."""

    trigger: int  # trigger line address (identity within the set)
    next_compact: int  # compressed tag of the successor
    next_set_id: int  # set_id bits of the successor
    confidence: int = 1  # 1-bit counter guarding against noisy retraining


def _floor_pow2(n: int) -> int:
    return 1 << (n.bit_length() - 1) if n > 0 else 0


class MetadataStore:
    """Entry-granularity set-associative metadata table.

    ``capacity_bytes=None`` gives an unbounded store (the idealized
    PC-localized prefetcher of Figures 7/9); ``capacity_bytes=0`` gives a
    store where every lookup misses (the "no metadata" partition state).
    """

    def __init__(
        self,
        capacity_bytes: Optional[int] = 1024 * 1024,
        policy: str = "hawkeye",
        use_compressed_tags: bool = True,
        tag_bits: int = 10,
        track_reuse: bool = False,
        index_mode: str = "uniform",
        near_entries: int = NEAR_INDEX_ENTRIES,
    ):
        if index_mode not in ("uniform", "nonuniform"):
            raise ValueError(f"unknown index mode {index_mode!r}")
        self.policy_name = policy
        self.use_compressed_tags = use_compressed_tags
        self.tag_bits = tag_bits
        self.index_mode = index_mode
        #: Near-level index (non-uniform mode): trigger -> resident
        #: entry, LRU-bounded.  Entries are shared objects with the far
        #: array, so in-place confidence/successor updates stay coherent;
        #: eviction and resize invalidate near copies explicitly.
        self._near: "OrderedDict[int, MetadataEntry]" = OrderedDict()
        self._near_capacity = near_entries if index_mode == "nonuniform" else 0
        #: Optional observability sink (``.emit(category, severity, **f)``),
        #: attached by the simulation engine when tracing is enabled.
        self.events = None
        self._predictor = HawkeyePredictor()  # persists across resizes
        self.tag_table = CompressedTagTable(tag_bits) if use_compressed_tags else None
        self.track_reuse = track_reuse
        self.reuse_counts: Dict[int, int] = {}
        # Stats.
        self.lookups = 0
        self.lookup_hits = 0
        self.updates = 0
        self.inserts = 0
        self.evictions = 0
        #: Updates whose successor agreed/conflicted with the stored one;
        #: their ratio estimates pair stability (prefetch accuracy).
        self.update_agreements = 0
        self.update_conflicts = 0
        self.llc_accesses = 0  # energy model: each lookup/update touches LLC
        #: Lookups served by the near index level (non-uniform mode only);
        #: these are *not* counted into ``llc_accesses``.
        self.near_hits = 0
        self.unbounded = capacity_bytes is None
        self._unbounded_map: Dict[int, MetadataEntry] = {}
        self.capacity_bytes = 0
        self.num_sets = 0
        # Per-set fixed way arrays (stable way identity for the policy)
        # plus a trigger->way index for O(1) lookup.  ``_free`` holds each
        # set's unused ways as a descending stack: entries are only ever
        # removed by eviction-and-replace, never freed individually, so a
        # plain ``pop()`` yields the lowest free way with no scan.
        self._ways: List[List[Optional[MetadataEntry]]] = []
        self._index: List[Dict[int, int]] = []
        self._free: List[List[int]] = []
        self._policy: Optional[ReplacementPolicy] = None
        #: The policy, when it is a sampling Hawkeye (hot-path shortcut for
        #: :meth:`observe_access`, refreshed by :meth:`resize`).
        self._hawkeye: Optional[HawkeyePolicy] = None
        if not self.unbounded:
            self.resize(capacity_bytes)

    # -- geometry --------------------------------------------------------

    @property
    def capacity_entries(self) -> int:
        if self.unbounded:
            raise ValueError("unbounded store has no capacity")
        return self.num_sets * ENTRIES_PER_LINE

    def _set_of(self, trigger: int) -> int:
        return trigger & (self.num_sets - 1)

    def resize(self, capacity_bytes: int) -> None:
        """Re-provision the store to ``capacity_bytes``.

        Surviving entries are re-inserted into the new geometry up to the
        new capacity (the paper marks lines invalid on shrink; keeping the
        most recent survivors is the generous end of that behaviour and
        changes nothing downstream because discarded metadata is
        rebuilt from the training stream within one traversal).  The
        Hawkeye predictor's learned state persists across resizes.
        """
        if self.unbounded:
            raise ValueError("cannot resize an unbounded store")
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        old_entries = [
            entry
            for ways in self._ways
            for entry in ways
            if entry is not None
        ]
        if self.events is not None:
            self.events.emit(
                "meta_store.resize",
                "info",
                old_bytes=self.capacity_bytes,
                new_bytes=capacity_bytes,
                survivors=len(old_entries),
            )
        self.capacity_bytes = capacity_bytes
        self._near.clear()  # near copies would go stale across re-indexing
        self.num_sets = _floor_pow2(capacity_bytes // (ENTRY_BYTES * ENTRIES_PER_LINE))
        self._ways = [[None] * ENTRIES_PER_LINE for _ in range(self.num_sets)]
        self._index = [dict() for _ in range(self.num_sets)]
        self._free = [
            list(range(ENTRIES_PER_LINE - 1, -1, -1)) for _ in range(self.num_sets)
        ]
        if self.num_sets == 0:
            self._policy = None
            self._hawkeye = None
            return
        if self.policy_name == "hawkeye":
            self._policy = HawkeyePolicy(
                self.num_sets,
                ENTRIES_PER_LINE,
                predictor=self._predictor,
                auto_observe=False,
            )
        elif self.policy_name == "lru":
            self._policy = LruPolicy(self.num_sets, ENTRIES_PER_LINE)
        elif self.policy_name == "reuse":
            self._policy = ReuseAwarePolicy(self.num_sets, ENTRIES_PER_LINE)
        else:
            raise ValueError(f"unsupported metadata policy {self.policy_name!r}")
        self._hawkeye = (
            self._policy if isinstance(self._policy, HawkeyePolicy) else None
        )
        for entry in old_entries:
            set_idx = self._set_of(entry.trigger)
            if len(self._index[set_idx]) < ENTRIES_PER_LINE:
                self._install(entry, pc=0)

    # -- successor encode/decode ------------------------------------------

    def _encode(self, next_line: int) -> Tuple[int, int]:
        set_id = next_line & ((1 << SET_ID_BITS) - 1)
        tag = next_line >> SET_ID_BITS
        if self.tag_table is not None:
            return self.tag_table.compress(tag), set_id
        return tag, set_id

    def _decode(self, entry: MetadataEntry) -> Optional[int]:
        if self.tag_table is not None:
            tag = self.tag_table.expand(entry.next_compact)
            if tag is None:
                return None  # compressed tag recycled away
        else:
            tag = entry.next_compact
        return (tag << SET_ID_BITS) | entry.next_set_id

    # -- operations ----------------------------------------------------------

    def lookup(self, trigger: int, pc: int = 0) -> Optional[int]:
        """Probe the store; return the predicted successor line or None.

        Updates per-entry replacement state on hits (the paper probes the
        replacement predictors on every metadata access) but does NOT feed
        the Hawkeye sampler -- the owner decides that after learning
        whether the resulting prefetch was redundant.

        In non-uniform index mode the near level is probed first: a near
        hit is served without charging an LLC access or touching the far
        replacement state (Trimma's cheap hot-path level).
        """
        self.lookups += 1
        if self._near_capacity:
            near = self._near.get(trigger)
            if near is not None:
                self._near.move_to_end(trigger)
                self.near_hits += 1
                self.lookup_hits += 1
                if self.track_reuse:
                    self.reuse_counts[trigger] = (
                        self.reuse_counts.get(trigger, 0) + 1
                    )
                return self._decode(near)
        self.llc_accesses += 1
        if self.unbounded:
            entry = self._unbounded_map.get(trigger)
            if entry is None:
                return None
        else:
            if self.num_sets == 0:
                return None
            set_idx = trigger & (self.num_sets - 1)
            way = self._index[set_idx].get(trigger)
            if way is None:
                return None
            entry = self._ways[set_idx][way]
        self.lookup_hits += 1
        if self.track_reuse:
            self.reuse_counts[trigger] = self.reuse_counts.get(trigger, 0) + 1
        if not self.unbounded and self._policy is not None:
            self._policy.on_hit(set_idx, way, pc)
        if self._near_capacity:
            self._near_insert(entry)
        return self._decode(entry)

    def update(self, trigger: int, next_line: int, pc: int = 0) -> None:
        """Learn/refresh the correlation ``trigger -> next_line``.

        Existing entries follow the 1-bit confidence discipline: matching
        neighbors re-arm the counter, a first disagreement only drops it,
        and the neighbor is replaced when confidence is already 0.
        """
        self.updates += 1
        self.llc_accesses += 1
        compact, set_id = self._encode(next_line)
        entry = self._find(trigger)
        if entry is not None:
            if entry.next_compact == compact and entry.next_set_id == set_id:
                self.update_agreements += 1
                entry.confidence = 1
            elif entry.confidence > 0:
                self.update_conflicts += 1
                entry.confidence = 0
            else:
                self.update_conflicts += 1
                entry.next_compact = compact
                entry.next_set_id = set_id
                entry.confidence = 1
            self.observe_access(trigger, pc)
            return
        new_entry = MetadataEntry(trigger, compact, set_id)
        if self.unbounded:
            self._unbounded_map[trigger] = new_entry
            self.inserts += 1
            return
        if self.num_sets == 0:
            return  # zero-capacity store: metadata is discarded
        self._install(new_entry, pc)
        self.inserts += 1
        self.observe_access(trigger, pc)

    def observe_access(self, trigger: int, pc: int) -> None:
        """Feed one metadata access to the Hawkeye sampler (if active)."""
        if self._hawkeye is not None:
            self._hawkeye.observe(trigger & (self.num_sets - 1), trigger, pc)

    def record_prefetch_outcome(self, trigger: int, pc: int, redundant: bool) -> None:
        """Delayed training: count the metadata access behind a prefetch.

        Redundant prefetches (the line was already cached) are ignored so
        the replacement policy only values metadata that produces real
        memory-level benefit (paper Section 3).
        """
        if not redundant:
            self.observe_access(trigger, pc)

    def pair_stability(self) -> float:
        """Fraction of re-trained entries whose successor was unchanged.

        A proxy for prefetch accuracy: stable pairs produce correct
        prefetches, churning pairs produce wasted ones.  Defaults to 1.0
        before enough evidence accumulates.
        """
        total = self.update_agreements + self.update_conflicts
        return self.update_agreements / total if total >= 64 else 1.0

    def contains(self, trigger: int) -> bool:
        return self._find(trigger) is not None

    def occupancy(self) -> int:
        if self.unbounded:
            return len(self._unbounded_map)
        return sum(len(index) for index in self._index)

    def entries(self) -> List[MetadataEntry]:
        """All resident entries (test/analysis helper)."""
        if self.unbounded:
            return list(self._unbounded_map.values())
        return [e for ways in self._ways for e in ways if e is not None]

    # -- internals -----------------------------------------------------------

    def _near_insert(self, entry: MetadataEntry) -> None:
        """Refresh ``entry`` into the LRU-bounded near index level."""
        self._near[entry.trigger] = entry
        self._near.move_to_end(entry.trigger)
        if len(self._near) > self._near_capacity:
            self._near.popitem(last=False)

    def _find(self, trigger: int) -> Optional[MetadataEntry]:
        if self.unbounded:
            return self._unbounded_map.get(trigger)
        if self.num_sets == 0:
            return None
        set_idx = self._set_of(trigger)
        way = self._index[set_idx].get(trigger)
        return self._ways[set_idx][way] if way is not None else None

    def _install(self, entry: MetadataEntry, pc: int) -> None:
        set_idx = self._set_of(entry.trigger)
        ways = self._ways[set_idx]
        index = self._index[set_idx]
        free = self._free[set_idx]
        if free:
            way = free.pop()
        else:
            assert self._policy is not None
            way = self._policy.victim(set_idx, pc)
            victim = ways[way]
            assert victim is not None
            del index[victim.trigger]
            self._near.pop(victim.trigger, None)  # drop stale near copy
            self._policy.on_evict(set_idx, way)
            self.evictions += 1
            if self.events is not None:
                self.events.emit(
                    "meta_store.evict",
                    "debug",
                    set=set_idx,
                    way=way,
                    trigger=victim.trigger,
                )
        ways[way] = entry
        index[entry.trigger] = way
        if self._policy is not None:
            self._policy.set_line_key(set_idx, way, entry.trigger)
            self._policy.on_fill(set_idx, way, pc)
