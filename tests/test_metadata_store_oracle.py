"""Differential test: the flat metadata store against its per-set oracle.

:mod:`tests.metadata_store_oracle` is the object-per-entry store the
flat, slot-indexed :class:`repro.core.metadata_store.MetadataStore`
replaced.  Random sequences of ``lookup`` / ``update`` / confidence-off
``update`` / ``observe_access`` / ``record_prefetch_outcome`` /
``resize`` run on both, over every replacement policy, both index modes,
compressed tags on and off and capacities from 0 to unbounded (small
triggers, so sets alias and fill; few PCs, so the Hawkeye predictor
flips; a tiny tag table, so compressed tags recycle).  Every return
value, counter, ``occupancy()``, ``entries()`` and the Hawkeye
predictor's counters must match after every operation.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.metadata_store import MetadataStore
from tests.metadata_store_oracle import MetadataStore as OracleStore

COUNTERS = (
    "lookups", "lookup_hits", "updates", "inserts", "evictions",
    "update_agreements", "update_conflicts", "llc_accesses", "near_hits",
    "capacity_bytes", "num_sets",
)
#: 0 (no sets), one set, a few sets, 64 sets (every set sampled) and
#: 128 sets (every other set sampled).
CAPACITIES = (0, 64, 128, 512, 4096, 8192)
#: Lookups and updates dominate and resizes are rare, so sets get to
#: fill up, hit and evict between geometry changes.
KINDS = (
    ("lookup",) * 20 + ("update",) * 20 + ("overwrite",) * 3
    + ("observe",) * 3 + ("outcome",) * 4 + ("resize",)
)


def _ops(seed: int, n: int) -> list:
    """``n`` random operations.  Drawn from a seeded PRNG rather than
    built by hypothesis, which favours small repeated values: sets only
    overflow (and replacement only matters) with many distinct triggers.
    """
    rng = random.Random(seed)
    ops = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.7:
            trigger = rng.randrange(40)  # a few sets' worth: fill and evict
        elif roll < 0.9:
            trigger = rng.randrange(300)
        else:
            trigger = rng.randrange(1 << 24) * 128  # aliases into set 0
        ops.append((
            rng.choice(KINDS),
            trigger,
            rng.randrange(1 << 22),  # successor: many compressed tags
            rng.randrange(6) * 0x1001,  # few PCs: the predictor flips
            rng.random() < 0.5,  # redundant prefetch outcome
            rng.choice(CAPACITIES),  # resize target
        ))
    return ops


def _counters(store) -> tuple:
    return tuple(getattr(store, name) for name in COUNTERS)


def _state(store, predictor) -> tuple:
    entries = [
        (e.trigger, e.next_compact, e.next_set_id, e.confidence)
        for e in store.entries()
    ]
    recycled = store.tag_table.recycled if store.tag_table is not None else None
    return (
        _counters(store), store.occupancy(), entries, dict(store.reuse_counts),
        dict(predictor._counters), recycled,
    )


def _apply(store, op, oracle: bool):
    kind, trigger, successor, pc, redundant, capacity = op
    if kind == "lookup":
        return store.lookup(trigger, pc)
    if kind == "update":
        return store.update(trigger, successor, pc)
    if kind == "overwrite":
        if oracle:
            # The confidence-off ablation as TriagePrefetcher did it.
            entry = store._find(trigger)
            if entry is not None:
                entry.confidence = 0
            return store.update(trigger, successor, pc)
        return store.overwrite(trigger, successor, pc)
    if kind == "observe":
        return store.observe_access(trigger, pc)
    if kind == "outcome":
        return store.record_prefetch_outcome(trigger, pc, redundant)
    if store.unbounded:
        return None
    return store.resize(capacity)


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.sampled_from(CAPACITIES + (None,)),
    policy=st.sampled_from(("hawkeye", "lru", "reuse")),
    index_mode=st.sampled_from(("uniform", "nonuniform")),
    compressed=st.booleans(),
    tag_bits=st.sampled_from((2, 10)),
    track_reuse=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    n_ops=st.integers(1, 400),
)
def test_flat_store_matches_per_set_oracle(
    capacity, policy, index_mode, compressed, tag_bits, track_reuse, seed,
    n_ops,
):
    kwargs = dict(
        capacity_bytes=capacity, policy=policy, index_mode=index_mode,
        use_compressed_tags=compressed, tag_bits=tag_bits,
        track_reuse=track_reuse, near_entries=4,
    )
    flat = MetadataStore(**kwargs)
    oracle = OracleStore(**kwargs)
    assert _state(flat, flat.predictor) == _state(oracle, oracle._predictor)
    for step, op in enumerate(_ops(seed, n_ops)):
        got = _apply(flat, op, oracle=False)
        want = _apply(oracle, op, oracle=True)
        assert got == want, (step, op)
        assert _counters(flat) == _counters(oracle), (step, op)
        assert flat.contains(op[1]) == oracle.contains(op[1]), (step, op)
        assert flat.near_triggers() == list(oracle._near), (step, op)
        if op[0] == "resize" or step % 16 == 0:
            assert _state(flat, flat.predictor) == _state(
                oracle, oracle._predictor
            ), (step, op)
    assert _state(flat, flat.predictor) == _state(oracle, oracle._predictor)
