"""The flat driver's fused Triage/Triangel trainers on every store variant.

The fused trainers reach the metadata store only through its methods,
so store variants the flat engine used to hand to ``observe`` -- the LRU
ablation, the Trimma-style non-uniform index, reuse tracking,
confidence-off updates, Triangel over Hawkeye -- now run fused as well.
Each must match the object-graph reference ``_simulate_scalar``: the
full result, and the store and sample-table state the run leaves behind.
"""

from __future__ import annotations

import pytest

from repro.core.triage import TriageConfig, TriagePrefetcher
from repro.experiments import common
from repro.prefetchers.triangel import TriangelConfig, TriangelPrefetcher
from repro.sim.single_core import _simulate_scalar, simulate
from repro.workloads.irregular import chain_trace
from tests.test_batched_engine import result_summary

KB = 1024
#: Small stores, so a few thousand accesses fill sets and evict.
CONFIGS = {
    "triage_lru": lambda: TriageConfig(metadata_capacity=2 * KB, replacement="lru"),
    "triage_nonuniform": lambda: TriageConfig(
        metadata_capacity=2 * KB, index_mode="nonuniform"
    ),
    "triage_confidence_off": lambda: TriageConfig(
        metadata_capacity=2 * KB, use_confidence=False
    ),
    "triage_track_reuse_degree2": lambda: TriageConfig(
        metadata_capacity=2 * KB, track_reuse=True, degree=2
    ),
    "triage_ideal_track_reuse": lambda: TriageConfig(
        metadata_capacity=None, use_compressed_tags=False, track_reuse=True
    ),
    "triage_dynamic_reuse": lambda: TriageConfig(
        dynamic=True, capacities=(0, 1 * KB, 2 * KB), replacement="reuse",
        epoch_accesses=300, partition_warmup_epochs=0,
    ),
    "triangel_hawkeye": lambda: TriangelConfig(
        metadata_capacity=2 * KB, replacement="hawkeye"
    ),
    "triangel_dynamic_nonuniform": lambda: TriangelConfig(
        dynamic=True, capacities=(0, 1 * KB, 2 * KB), index_mode="nonuniform",
        epoch_accesses=300, partition_warmup_epochs=0,
    ),
}


def _make(config):
    if isinstance(config, TriangelConfig):
        return TriangelPrefetcher(config)
    return TriagePrefetcher(config)


def _store_state(pf) -> dict:
    store = pf.store
    state = {
        "entries": store.entries(),
        "reuse_counts": store.reuse_counts,
        "near": store.near_triggers(),
        "counters": (
            store.lookups, store.lookup_hits, store.updates, store.inserts,
            store.evictions, store.update_agreements, store.update_conflicts,
            store.llc_accesses, store.near_hits,
        ),
        "predictor": store.predictor._counters,
    }
    if isinstance(pf, TriangelPrefetcher):
        state["sample"] = pf.sample_stats()
    return state


@pytest.fixture(scope="module")
def trace():
    # Short hot/warm chains: the stores hit, evict and (dynamic) resize.
    return chain_trace(
        "chains", 8_000, seed=1, hot_lines=300, warm_lines=600,
        cold_lines=2_000, hot_fraction=0.5, warm_fraction=0.3,
    )


def _refuse_observe(*_args, **_kwargs):
    raise AssertionError("the flat driver fell back to observe()")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fused_trainer_matches_object_engine(trace, name, monkeypatch):
    runs = {}
    for engine, driver in (("analytic", _simulate_scalar), ("batched", simulate)):
        if engine == "batched":
            # Prove the fused trainer ran: observe() must never be called.
            monkeypatch.setattr(TriagePrefetcher, "observe", _refuse_observe)
            monkeypatch.setattr(TriangelPrefetcher, "observe", _refuse_observe)
        pf = _make(CONFIGS[name]())
        result = driver(
            trace, pf, machine=common.MACHINE, warmup_accesses=2_000,
            epoch_accesses=700,
        )
        assert result.manifest.extra["engine"] == engine
        runs[engine] = (result_summary(result), _store_state(pf))
    assert runs["batched"] == runs["analytic"]
    store = runs["batched"][1]["counters"]
    assert store[1] > 0  # lookup hits
    assert store[4] > 0 or name == "triage_ideal_track_reuse"  # evictions
