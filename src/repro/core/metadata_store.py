"""Triage's on-chip metadata store.

The store lives in a way-partitioned slice of the LLC and maps a trigger
line address to its PC-localized successor.  Entries are 4 bytes: the
compressed tag of the trigger (its set_id is implicit), the compressed
tag + set_id of the successor, and a 1-bit confidence counter (paper
Section 3.2).  Sixteen tagged entries pack into one 64 B LLC line, so the
store behaves as a set-associative structure with 16-entry sets indexed
by the trigger address.

The state is flat and slot-indexed, like the hardware array: entry
``slot = set * 16 + way`` lives at index ``slot`` of a successor-code
list (``compact << 11 | set_id``), a confidence ``bytearray`` and a
trigger list, with one ``trigger -> slot`` dict in front and a per-set
fill count.  Entries are only ever removed by eviction-and-replace (or
dropped wholesale by :meth:`MetadataStore.resize`), so a set's occupied
ways are always ``0 .. fill - 1`` and the next free way is ``fill``.

Anything evicted is simply discarded: Triage has no off-chip metadata.
Replacement is the modified Hawkeye policy by default (``policy="lru"``
reproduces the paper's Figure 9 ablation, ``policy="reuse"`` is the
Triangel family's metadata-reuse-aware policy); each keeps its per-way
state in flat arrays over the same slots, with the same victim choice
as :class:`~repro.replacement.hawkeye.HawkeyePolicy`,
:class:`~repro.replacement.lru.LruPolicy` and
:class:`~repro.replacement.reuse_aware.ReuseAwarePolicy`.  The Hawkeye
sampler is fed by the owner (:class:`repro.core.triage.TriagePrefetcher`,
or the batched engine's fused trainers, which call the same methods) so
that metadata accesses producing *redundant* prefetches never train it.

``index_mode="nonuniform"`` enables a Trimma-style (arXiv 2402.16343)
non-uniform metadata index: a small fully-associative *near* buffer in
front of the set-associative *far* array.  Hot triggers are re-resolved
from the near level without touching the far structure at all -- no LLC
access is charged and the far replacement state is not perturbed --
modeling Trimma's observation that metadata lookups are heavily skewed
and the hot subset deserves a cheaper, finer-grained index level.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.compressed_tags import CompressedTagTable
from repro.replacement.hawkeye import MAX_RRPV, HawkeyePredictor
from repro.replacement.optgen import OptGen
from repro.replacement.reuse_aware import REUSE_CAP

#: 4-byte entries, 16 per 64 B LLC line.
ENTRY_BYTES = 4
ENTRIES_PER_LINE = 16
#: ``slot = set << WAY_BITS | way``.
WAY_BITS = 4
#: Bits of the successor's set_id stored verbatim (2048-set LLC, Table 1).
SET_ID_BITS = 11
SET_ID_MASK = (1 << SET_ID_BITS) - 1
#: Near-index capacity for ``index_mode="nonuniform"`` (entries).  Small
#: by design: Trimma's point is that a tiny near level captures most
#: lookups, not that the near level competes with the far array.
NEAR_INDEX_ENTRIES = 64
#: Replacement policies the store implements.
POLICIES = ("hawkeye", "lru", "reuse")
#: Hawkeye feeds about this many sets to OPTgen samplers (all sets of a
#: smaller store), each with a history of 8x the set's ways.
HAWKEYE_SAMPLED_SETS = 64
HAWKEYE_HISTORY_MULT = 8

_HAWKEYE, _LRU, _REUSE = 1, 2, 3
_KINDS = {"hawkeye": _HAWKEYE, "lru": _LRU, "reuse": _REUSE}
#: Hawkeye's friendly insertion ages every way of the set by one RRPV
#: step, saturating at ``MAX_RRPV - 1``: one ``bytes.translate``.
_AGE = bytes(v + 1 if v < MAX_RRPV - 1 else v for v in range(256))
_FRIENDLY = HawkeyePredictor.THRESHOLD


@dataclass(slots=True)
class MetadataEntry:
    """One correlation: ``trigger``'s PC-localized successor.

    A read-only view built by :meth:`MetadataStore.entries`; the store
    itself keeps no entry objects.
    """

    trigger: int  # trigger line address (identity within the set)
    next_compact: int  # compressed tag of the successor
    next_set_id: int  # set_id bits of the successor
    confidence: int = 1  # 1-bit counter guarding against noisy retraining


def _floor_pow2(n: int) -> int:
    return 1 << (n.bit_length() - 1) if n > 0 else 0


class MetadataStore:
    """Entry-granularity set-associative metadata table.

    ``capacity_bytes=None`` gives an unbounded store (the idealized
    PC-localized prefetcher of Figures 7/9; slots are then allocated in
    insertion order and never replaced); ``capacity_bytes=0`` gives a
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
        self.unbounded = capacity_bytes is None
        if not self.unbounded and policy not in POLICIES:
            raise ValueError(f"unsupported metadata policy {policy!r}")
        self.policy_name = policy
        self.use_compressed_tags = use_compressed_tags
        self.tag_bits = tag_bits
        self.index_mode = index_mode
        #: Near-level index (non-uniform mode): trigger -> far slot,
        #: LRU-bounded.  In-place confidence/successor updates stay
        #: coherent through the slot; eviction and resize invalidate near
        #: copies explicitly.
        self._near: "OrderedDict[int, int]" = OrderedDict()
        self._near_capacity = near_entries if index_mode == "nonuniform" else 0
        #: Optional observability sink (``.emit(category, severity, **f)``),
        #: attached by the simulation engine when tracing is enabled.
        self.events = None
        self.predictor = HawkeyePredictor()  # persists across resizes
        self._pred_counters = self.predictor._counters
        self._pred_mask = self.predictor.mask
        self.tag_table = CompressedTagTable(tag_bits) if use_compressed_tags else None
        self._id_to_tag = (
            self.tag_table._id_to_tag if self.tag_table is not None else None
        )
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
        self.capacity_bytes = 0
        self.num_sets = 0
        self._set_mask = -1
        #: Replacement kind (None: no replacement, i.e. unbounded).
        self._kind = None if self.unbounded else _KINDS[policy]
        # Slot-indexed entry state.
        self._slot: Dict[int, int] = {}
        self._trigger: List[int] = []
        self._succ: List[int] = []
        self._conf = bytearray()
        self._fill = bytearray()  # occupied ways per set
        # Replacement state: Hawkeye RRPVs and inserting/hitting PCs;
        # LRU/reuse recency stamps and (reuse) saturating reuse counts.
        self._rrpv = bytearray()
        self._line_pc: List[int] = []
        self._stamp: List[int] = []
        self._reuse = bytearray()
        self._clock = 0
        #: Sampled set -> (OPTgen, last PC per sampled key).
        self._samplers: Dict[int, Tuple[OptGen, Dict[int, int]]] = {}
        if not self.unbounded:
            self.resize(capacity_bytes)

    # -- geometry --------------------------------------------------------

    @property
    def capacity_entries(self) -> int:
        if self.unbounded:
            raise ValueError("unbounded store has no capacity")
        return self.num_sets * ENTRIES_PER_LINE

    def resize(self, capacity_bytes: int) -> None:
        """Re-provision the store to ``capacity_bytes``.

        Every array is rebuilt for the new geometry (replacement state
        and Hawkeye samplers start fresh; the Hawkeye predictor's learned
        state persists).  Surviving entries are then re-installed in
        their old order -- old set by old set, ways in order -- each
        while its new set has a free way.  A shrink therefore keeps the
        entries of the *lowest* old sets, not the most recent ones: with
        two full sets shrunk to one, set 0's sixteen entries survive and
        set 1's are dropped, whatever their age.  (The paper marks lines
        invalid on shrink; keeping some survivors is the generous end of
        that behaviour, and discarded metadata is rebuilt from the
        training stream within one traversal.)
        """
        if self.unbounded:
            raise ValueError("cannot resize an unbounded store")
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        trig, succ, conf = self._trigger, self._succ, self._conf
        survivors = [(trig[s], succ[s], conf[s]) for s in self._slots()]
        if self.events is not None:
            self.events.emit(
                "meta_store.resize",
                "info",
                old_bytes=self.capacity_bytes,
                new_bytes=capacity_bytes,
                survivors=len(survivors),
            )
        self.capacity_bytes = capacity_bytes
        self._near.clear()  # near copies would go stale across re-indexing
        ns = _floor_pow2(capacity_bytes // (ENTRY_BYTES * ENTRIES_PER_LINE))
        n = ns * ENTRIES_PER_LINE
        self.num_sets = ns
        self._set_mask = ns - 1
        self._slot = {}
        self._trigger = [0] * n
        self._succ = [0] * n
        self._conf = bytearray(n)
        self._fill = bytearray(ns)
        self._clock = 0
        kind = self._kind
        if kind == _HAWKEYE:
            self._rrpv = bytearray([MAX_RRPV]) * n
            self._line_pc = [0] * n
            stride = max(1, ns // HAWKEYE_SAMPLED_SETS)
            self._samplers = {
                s: (OptGen(ENTRIES_PER_LINE, HAWKEYE_HISTORY_MULT), {})
                for s in range(0, ns, stride)
            }
        else:
            self._stamp = [-1] * n
            if kind == _REUSE:
                self._reuse = bytearray(n)
        if not ns:
            return
        fill = self._fill
        for trigger, code, confidence in survivors:
            s = trigger & self._set_mask
            way = fill[s]
            if way < ENTRIES_PER_LINE:
                fill[s] = way + 1
                self._place(s << WAY_BITS | way, trigger, code, confidence, 0)

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
        slot = None
        if self._near_capacity:
            slot = self._near.get(trigger)
            if slot is not None:
                self._near.move_to_end(trigger)
                self.near_hits += 1
        if slot is None:
            self.llc_accesses += 1
            slot = self._slot.get(trigger)
            if slot is None:
                return None
            kind = self._kind
            if kind == _HAWKEYE:
                self._line_pc[slot] = pc
                self._rrpv[slot] = (
                    0
                    if self._pred_counters.get(
                        (pc ^ (pc >> 13) ^ (pc >> 26)) & self._pred_mask,
                        _FRIENDLY,
                    ) >= _FRIENDLY
                    else MAX_RRPV
                )
            elif kind is not None:
                self._clock += 1
                self._stamp[slot] = self._clock
                if kind == _REUSE and self._reuse[slot] < REUSE_CAP:
                    self._reuse[slot] += 1
            if self._near_capacity:
                near = self._near
                near[trigger] = slot
                if len(near) > self._near_capacity:
                    near.popitem(last=False)
        self.lookup_hits += 1
        if self.track_reuse:
            self.reuse_counts[trigger] = self.reuse_counts.get(trigger, 0) + 1
        code = self._succ[slot]
        id_to_tag = self._id_to_tag
        if id_to_tag is None:
            return code
        tag = id_to_tag.get(code >> SET_ID_BITS)
        if tag is None:
            return None  # compressed tag recycled away
        return tag << SET_ID_BITS | code & SET_ID_MASK

    def update(self, trigger: int, next_line: int, pc: int = 0) -> None:
        """Learn/refresh the correlation ``trigger -> next_line``.

        Existing entries follow the 1-bit confidence discipline: matching
        neighbors re-arm the counter, a first disagreement only drops it,
        and the neighbor is replaced when confidence is already 0.
        """
        self.updates += 1
        self.llc_accesses += 1
        tag_table = self.tag_table
        if tag_table is None:
            code = next_line  # uncompressed: the code is the line itself
        else:
            code = (
                tag_table.compress(next_line >> SET_ID_BITS) << SET_ID_BITS
                | next_line & SET_ID_MASK
            )
        slot = self._slot.get(trigger)
        if slot is not None:
            conf = self._conf
            if self._succ[slot] == code:
                self.update_agreements += 1
                conf[slot] = 1
            else:
                self.update_conflicts += 1
                if conf[slot]:
                    conf[slot] = 0
                else:
                    self._succ[slot] = code
                    conf[slot] = 1
            self.observe_access(trigger, pc)
            return
        if self.unbounded:
            self._slot[trigger] = len(self._trigger)
            self._trigger.append(trigger)
            self._succ.append(code)
            self._conf.append(1)
            self.inserts += 1
            return
        if not self.num_sets:
            return  # zero-capacity store: metadata is discarded
        s = trigger & self._set_mask
        way = self._fill[s]
        if way < ENTRIES_PER_LINE:
            self._fill[s] = way + 1
            slot = s << WAY_BITS | way
        else:
            slot = self._evict(s, pc)
        self._place(slot, trigger, code, 1, pc)
        self.inserts += 1
        self.observe_access(trigger, pc)

    def overwrite(self, trigger: int, next_line: int, pc: int = 0) -> None:
        """:meth:`update` without confidence protection (ablation).

        A resident entry's confidence is dropped first, so a disagreeing
        successor replaces it at once; an agreeing one still re-arms it.
        """
        slot = self._slot.get(trigger)
        if slot is not None:
            self._conf[slot] = 0
        self.update(trigger, next_line, pc)

    def observe_access(self, trigger: int, pc: int) -> None:
        """Feed one metadata access to the Hawkeye sampler (if active)."""
        sampler = self._samplers.get(trigger & self._set_mask)
        if sampler is None:
            return
        optgen, last_pcs = sampler
        verdict = optgen.access(trigger)
        if verdict is not None:
            # Credit the PC that last touched the key, not this one.
            self.predictor.train(last_pcs.get(trigger, pc), verdict)
        last_pcs[trigger] = pc
        if len(last_pcs) > 8 * optgen.window:
            # Bound sampler memory; dropping stale PCs only affects
            # training credit for accesses already outside OPT's window.
            last_pcs.clear()

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
        return trigger in self._slot

    def occupancy(self) -> int:
        return len(self._slot)

    def entries(self) -> List[MetadataEntry]:
        """All resident entries, set by set in way order (unbounded:
        insertion order), as read-only views (test/analysis helper)."""
        trig, succ, conf = self._trigger, self._succ, self._conf
        return [
            MetadataEntry(
                trig[s], succ[s] >> SET_ID_BITS, succ[s] & SET_ID_MASK, conf[s]
            )
            for s in self._slots()
        ]

    def near_triggers(self) -> List[int]:
        """Triggers resident in the near index level, LRU first."""
        return list(self._near)

    def sampler_accesses(self) -> int:
        """Metadata accesses fed to the Hawkeye OPTgen samplers so far
        (since the last resize, which starts fresh samplers)."""
        return sum(optgen.accesses for optgen, _ in self._samplers.values())

    # -- internals -----------------------------------------------------------

    def _slots(self) -> Sequence[int]:
        """Occupied slots in set-major, way order (unbounded: all)."""
        if self.unbounded:
            return range(len(self._trigger))
        fill = self._fill
        return [
            slot
            for s in range(self.num_sets)
            for slot in range(s << WAY_BITS, (s << WAY_BITS) + fill[s])
        ]

    def _evict(self, s: int, pc: int) -> int:
        """Pick and drop the victim of full set ``s``; return its slot."""
        base = s << WAY_BITS
        end = base + ENTRIES_PER_LINE
        kind = self._kind
        if kind == _HAWKEYE:
            rrpv = self._rrpv
            slot = rrpv.find(MAX_RRPV, base, end)
            if slot < 0:
                row = rrpv[base:end]
                slot = base + row.index(max(row))
                # Evicting a line the predictor liked: detrain its PC.
                self.predictor.train(self._line_pc[slot], False)
        elif kind == _LRU:
            row = self._stamp[base:end]
            slot = base + row.index(min(row))
        else:
            scores = list(zip(self._reuse[base:end], self._stamp[base:end]))
            slot = base + scores.index(min(scores))
        victim = self._trigger[slot]
        del self._slot[victim]
        self._near.pop(victim, None)  # drop stale near copy
        self.evictions += 1
        if self.events is not None:
            self.events.emit(
                "meta_store.evict",
                "debug",
                set=s,
                way=slot - base,
                trigger=victim,
            )
        return slot

    def _place(
        self, slot: int, trigger: int, code: int, confidence: int, pc: int
    ) -> None:
        """Install an entry at ``slot`` and run the policy's fill."""
        self._slot[trigger] = slot
        self._trigger[slot] = trigger
        self._succ[slot] = code
        self._conf[slot] = confidence
        kind = self._kind
        if kind == _HAWKEYE:
            self._line_pc[slot] = pc
            rrpv = self._rrpv
            if self._pred_counters.get(
                (pc ^ (pc >> 13) ^ (pc >> 26)) & self._pred_mask, _FRIENDLY
            ) >= _FRIENDLY:
                # Friendly insertion: age everyone else so stale friendly
                # lines eventually become evictable.
                base = slot & -ENTRIES_PER_LINE
                end = base + ENTRIES_PER_LINE
                rrpv[base:end] = rrpv[base:end].translate(_AGE)
                rrpv[slot] = 0
            else:
                rrpv[slot] = MAX_RRPV
        else:
            self._clock += 1
            self._stamp[slot] = self._clock
            if kind == _REUSE:
                self._reuse[slot] = 0
