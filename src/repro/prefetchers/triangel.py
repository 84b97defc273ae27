"""The Triangel prefetcher family (arXiv 2406.10627).

Triangel is the direct successor of Triage: a PC-localized temporal
prefetcher whose metadata lives entirely on chip.  It keeps Triage's
skeleton -- the :class:`~repro.core.training_unit.TrainingUnit` pairs
consecutive accesses by the same PC, the
:class:`~repro.core.metadata_store.MetadataStore` holds the resulting
correlations in a way-partitioned LLC slice -- and adds three mechanisms
that attack Triage's three weaknesses:

* **Sample Table** (accuracy): a small set-associative table samples
  (trigger, PC, successor) triples from the training stream and measures,
  per PC, whether its address pairs actually *repeat*.  PCs whose pairs
  churn never earn new metadata entries, so noisy streams stop evicting
  useful correlations.  Per-PC pattern confidence is a saturating counter
  that starts at the allocation threshold (new PCs are trusted until the
  samples prove otherwise).
* **Multi-step lookahead** (timeliness): the issue walk advances
  ``lookahead - 1 + degree`` hops down the successor chain, issuing
  every line it visits -- so prefetches run ahead of the demand stream
  instead of racing it one successor at a time.  (Triangel proper skips
  the near successors it believes are already in flight; our fill model
  is latency-free, so skipping buys nothing and the runahead depth is
  what pays: chains ramp ``lookahead`` lines per trigger instead of
  one.)  Every hop is still a metadata access and is charged to the LLC
  like Triage's degree walk.  Within one walk a line is never issued
  twice (chain loops terminate the walk), so lookahead depth cannot
  emit duplicate in-flight prefetches.
* **Reuse-aware metadata replacement** (on-chip budget): the metadata
  store runs :class:`~repro.replacement.reuse_aware.ReuseAwarePolicy`,
  which evicts never-reused entries before proven ones -- Triangel's
  answer to Hawkeye's sampler for the metadata budget.

**Degeneracy contract** (guarded by the differential tests): with
``sampling=False``, ``lookahead=1``, ``degree=1`` and the same
``replacement`` policy, a Triangel instance issues a bit-identical
prefetch stream to a Triage instance with the same store geometry.
This pins the shared training-unit and metadata-store plumbing: any
divergence in the degenerate configuration is a bug in the shared
layers, not a design difference.  (At ``degree > 1`` the families
intentionally differ on looping chains: Triage's walk re-issues a
revisited line, Triangel's never does.)
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.triage import TriageConfig, TriagePrefetcher
from repro.core.utility_partition import UtilityPartitionController
from repro.prefetchers.base import PrefetchCandidate

KB = 1024
MB = 1024 * KB


@dataclass
class TriangelConfig(TriageConfig):
    """Configuration for one Triangel instance.

    Inherits every Triage knob (store capacity, dynamic partitioning,
    tag compression, PC localization, ...) and adds the family's own:

    * ``lookahead`` -- extra successor-chain depth the issue walk covers
      beyond ``degree`` (1 = Triage's walk depth).
    * ``sampling`` -- enable the Sample Table's per-PC allocation gate
      (``False`` degrades training to Triage's always-allocate).
    * ``replacement`` -- defaults to ``"reuse"`` (the family's
      metadata-reuse-aware policy) instead of Triage's ``"hawkeye"``.
    """

    replacement: str = "reuse"
    #: Successor-chain depth issued per walk is ``lookahead - 1 + degree``.
    lookahead: int = 2
    #: Sample-Table gating of new metadata allocations.
    sampling: bool = True
    #: Sample Table geometry (sets x ways, LRU within a set).
    sample_sets: int = 64
    sample_ways: int = 4
    #: Only triggers with ``trigger % sample_rate == 0`` are inserted
    #: into the Sample Table on a sample miss (1 = sample everything).
    sample_rate: int = 1
    #: Saturation ceiling for the per-PC pattern-confidence counters.
    pattern_max: int = 7
    #: A PC may allocate new metadata while its confidence is at or
    #: above this; unseen PCs start exactly here (trusted until sampled).
    allocate_threshold: int = 2
    #: Bound on the per-PC confidence table (LRU-evicted beyond this).
    sample_pcs: int = 1024


@dataclass(slots=True)
class SampleEntry:
    """One sampled training triple: ``trigger`` was followed by
    ``successor`` in ``pc``'s stream when last observed."""

    pc: int
    successor: int


class SampleTable:
    """Set-associative sample store, LRU-replaced within each set.

    Keys are trigger line addresses; sets are ``OrderedDict``s so probe
    refresh and capacity eviction are both O(1).  The table is metadata
    *about* metadata: it never holds prefetch targets, only evidence of
    whether a (PC, pair) relationship repeats.
    """

    def __init__(self, num_sets: int = 64, num_ways: int = 4):
        if num_sets <= 0 or num_ways <= 0:
            raise ValueError("sample table geometry must be positive")
        self.num_sets = num_sets
        self.num_ways = num_ways
        self._sets: List["OrderedDict[int, SampleEntry]"] = [
            OrderedDict() for _ in range(num_sets)
        ]

    def _set_of(self, trigger: int) -> "OrderedDict[int, SampleEntry]":
        return self._sets[trigger % self.num_sets]

    def probe(self, trigger: int) -> Optional[SampleEntry]:
        """Return the live sample for ``trigger`` (refreshing its LRU
        position), or ``None``."""
        bucket = self._set_of(trigger)
        entry = bucket.get(trigger)
        if entry is not None:
            bucket.move_to_end(trigger)
        return entry

    def insert(self, trigger: int, pc: int, successor: int) -> None:
        bucket = self._set_of(trigger)
        bucket[trigger] = SampleEntry(pc, successor)
        bucket.move_to_end(trigger)
        if len(bucket) > self.num_ways:
            bucket.popitem(last=False)

    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self._sets)


class TriangelPrefetcher(TriagePrefetcher):
    """Triage's successor: sampled allocation, lookahead, reuse-aware
    replacement -- still not a byte of off-chip metadata."""

    name = "triangel"

    def __init__(self, config: Optional[TriangelConfig] = None, **kwargs):
        config = config or TriangelConfig()
        if config.lookahead < 1:
            raise ValueError("lookahead must be >= 1")
        super().__init__(config, **kwargs)
        self.sample_table = SampleTable(config.sample_sets, config.sample_ways)
        #: Per-PC pattern confidence (bounded LRU; values in
        #: ``[0, pattern_max]``, absent means ``allocate_threshold``).
        self._pattern_conf: "OrderedDict[int, int]" = OrderedDict()
        #: Per-PC temporal-reuse evidence (same bounds; observability
        #: only -- the allocation gate keys off pattern confidence).
        self._reuse_conf: "OrderedDict[int, int]" = OrderedDict()
        # Family-specific statistics.
        self.sample_hits = 0
        self.sample_pattern_matches = 0
        self.skipped_allocations = 0

    # -- prefetcher interface -------------------------------------------------

    def observe(
        self, pc: int, line: int, prefetch_hit: bool = False
    ) -> List[PrefetchCandidate]:
        stream_pc = pc if self.config.pc_localized else 0
        profile = self.profile
        if profile is not None:
            profile_start = time.perf_counter()

        # Same data-side glue as Triage: this event is an LLC data access
        # for the utility controller's bookkeeping.
        if isinstance(self.controller, UtilityPartitionController):
            self.controller.note_data_access(line)
            self.controller.usefulness = self.store.pair_stability()

        candidates = self._walk(line, stream_pc)
        self.metadata_llc_accesses = self.store.llc_accesses

        # Training: correlate with this PC's previous access, gated by
        # the Sample Table's verdict on this PC.
        prev = self.training_unit.observe(stream_pc, line)
        if prev is not None and prev != line:
            self._train(prev, line, stream_pc)

        self._apply_pending_partition()
        if profile is not None:
            profile.add("metadata_store", time.perf_counter() - profile_start)
        return candidates

    # -- issue walk -----------------------------------------------------------

    def _walk(self, trigger: int, stream_pc: int) -> List[PrefetchCandidate]:
        """Walk ``lookahead - 1 + degree`` hops, issuing every visit.

        Mirrors Triage's chain walk hop for hop (each hop is a metadata
        access; a lookup miss trains the store's replacement sampler
        immediately, since a missing entry can never produce a redundant
        prefetch).  ``seen`` guards the in-flight invariant: a line is
        never emitted twice from one walk, and a chain that loops back
        onto itself terminates the walk instead of re-issuing.
        """
        candidates: List[PrefetchCandidate] = []
        seen = {trigger}  # trigger itself plus every line the walk visited
        cursor = trigger
        for _ in range(self.config.lookahead - 1 + self.degree):
            self._note_controller_access(cursor)
            successor = self.store.lookup(cursor, stream_pc)
            if successor is None:
                self.store.observe_access(cursor, stream_pc)
                break
            if successor in seen:
                break  # chain loop: never re-issue an in-flight line
            seen.add(successor)
            candidates.append(
                PrefetchCandidate(
                    successor, context=(cursor, stream_pc), owner=self
                )
            )
            cursor = successor
        return candidates

    # -- training + sampling ---------------------------------------------------

    def _train(self, prev: int, line: int, stream_pc: int) -> None:
        if not self.config.sampling:
            allowed = True
        else:
            self._sample_train(prev, line, stream_pc)
            # Refreshing an existing correlation is always allowed; only
            # *new* allocations are gated by the PC's sampled confidence.
            allowed = self.store.contains(prev) or self._allocate_allowed(
                stream_pc
            )
        if not allowed:
            self.skipped_allocations += 1
            return
        self._learn(prev, line, stream_pc)

    def _sample_train(self, prev: int, line: int, stream_pc: int) -> None:
        """Fold one training pair into the Sample Table's evidence."""
        entry = self.sample_table.probe(prev)
        if entry is not None:
            self.sample_hits += 1
            self._bump(self._reuse_conf, stream_pc, +1)
            if entry.pc == stream_pc:
                if entry.successor == line:
                    self.sample_pattern_matches += 1
                    self._bump(self._pattern_conf, stream_pc, +1)
                else:
                    self._bump(self._pattern_conf, stream_pc, -1)
            entry.pc = stream_pc
            entry.successor = line
        elif prev % self.config.sample_rate == 0:
            self.sample_table.insert(prev, stream_pc, line)

    def _allocate_allowed(self, stream_pc: int) -> bool:
        conf = self._pattern_conf.get(stream_pc)
        if conf is None:
            return True  # unsampled PCs start at the threshold
        return conf >= self.config.allocate_threshold

    def _bump(
        self, table: "OrderedDict[int, int]", pc: int, delta: int
    ) -> None:
        value = table.get(pc)
        if value is None:
            value = self.config.allocate_threshold
        value = max(0, min(self.config.pattern_max, value + delta))
        table[pc] = value
        table.move_to_end(pc)
        if len(table) > self.config.sample_pcs:
            table.popitem(last=False)

    # -- observability ---------------------------------------------------------

    def pattern_confidence(self, pc: int) -> int:
        """This PC's current pattern confidence (threshold if unsampled)."""
        stream_pc = pc if self.config.pc_localized else 0
        conf = self._pattern_conf.get(stream_pc)
        return self.config.allocate_threshold if conf is None else conf

    def sample_stats(self) -> Dict[str, int]:
        """Sample-layer counters, for tests, reports and docs examples."""
        return {
            "sample_occupancy": self.sample_table.occupancy(),
            "sample_hits": self.sample_hits,
            "sample_pattern_matches": self.sample_pattern_matches,
            "skipped_allocations": self.skipped_allocations,
            "tracked_pcs": len(self._pattern_conf),
        }
