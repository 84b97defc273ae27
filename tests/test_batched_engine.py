"""Differential and wiring tests for the flat single-core driver.

:func:`repro.sim.single_core.simulate` runs on the flat struct-of-arrays
engine and promises *bit-identical* results to the object-graph loop
``single_core._simulate_scalar`` (the reference here) -- same counters,
cycles, traffic, metadata accounting, partition history and KPIs.
These tests pin that contract:

* a hypothesis differential over adversarial little traces (small
  address alphabets force back-to-back repeats, the case the flat
  driver handles with its run-length L1 streak path),
* the bail-out to the object-graph loop for inputs outside the flat
  model (a non-LRU LLC, addresses beyond int64), and the object
  engine's own errors for inputs neither driver runs, and
* cache-key stability: result caches written before the engine knob
  was removed stay addressable.

The default golden replays cover the flat driver; a replay of the
fig05 golden through the object-graph reference lives in
``test_golden_figures.py``.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import keys as cache_keys
from repro.core.triage import TriageConfig
from repro.experiments import common
from repro.sim.batched import _bail_reason
from repro.sim.config import MachineConfig
from repro.sim.single_core import _simulate_scalar, simulate
from repro.workloads.base import Trace
from repro.workloads.regular import stream_trace


def result_summary(r):
    """Every externally observable field of a SimulationResult."""
    return {
        "counters": asdict(r.counters),
        "cycles": r.cycles,
        "instructions": r.instructions,
        "traffic": r.traffic,
        "meta_llc": r.metadata_llc_accesses,
        "meta_dram": r.metadata_dram_accesses,
        "final_cap": r.final_metadata_capacity,
        "part_hist": r.partition_history,
        "kpis": r.kpis(),
    }


# -- differential property ---------------------------------------------------
#
# Small alphabets are the point: with ~12 distinct lines and runs of up
# to 5, traces are saturated with consecutive repeats (the L1-streak
# fast path) *and* with conflict misses (MACHINE is the scaled-down
# test machine, so a dozen lines already exercises eviction, dirty
# writeback and Triage's metadata partition).


@st.composite
def little_traces(draw):
    n_pcs = draw(st.integers(min_value=1, max_value=6))
    n_lines = draw(st.integers(min_value=2, max_value=12))
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_pcs - 1),   # pc index
                st.integers(0, n_lines - 1),  # line index
                st.booleans(),                # write?
                st.integers(1, 5),            # run length (repeats!)
            ),
            min_size=8,
            max_size=60,
        )
    )
    pcs, addrs, writes = [], [], []
    for pc_i, line_i, write, run in steps:
        for _ in range(run):
            pcs.append(0x400000 + 4 * pc_i)
            addrs.append((line_i + 16) * 64)
            writes.append(write)
    return Trace(name="hyp", pcs=pcs, addrs=addrs, writes=writes,
                 category="irregular")


@pytest.mark.parametrize(
    "spec_name", ["none", "bo", "sms", "triage_dynamic", "triangel"]
)
@given(trace=little_traces(), warm_frac=st.sampled_from([0, 3]))
@settings(max_examples=15, deadline=None)
def test_batched_matches_scalar_bit_identical(spec_name, trace, warm_frac):
    warmup = len(trace) // warm_frac if warm_frac else 0
    kwargs = dict(
        machine=common.MACHINE,
        epoch_accesses=40,  # tiny epochs: boundaries land mid-streak
        warmup_accesses=warmup,
    )
    scalar = _simulate_scalar(trace, common.make_spec(spec_name), **kwargs)
    flat = simulate(trace, common.make_spec(spec_name), **kwargs)
    assert result_summary(flat) == result_summary(scalar)


def test_batched_matches_scalar_on_real_trace():
    # One real-workload leg with warmup and the default epoch length, so
    # the segment driver (no-repeat bulk path) is exercised end to end.
    trace = common.get_trace("mcf", 8_000)
    for spec_name in ("bo", "triage_512kb"):
        scalar = _simulate_scalar(trace, common.make_spec(spec_name),
                                  machine=common.MACHINE,
                                  warmup_accesses=2_000)
        flat = simulate(trace, common.make_spec(spec_name),
                        machine=common.MACHINE, warmup_accesses=2_000)
        assert result_summary(flat) == result_summary(scalar)
        assert flat.manifest.extra["engine"] == "batched"


def test_single_core_batched_survives_resize_to_zero():
    # A store shrunk to zero capacity has no replacement policy; the
    # fused trainers must keep running (and match the object engine).
    trace = stream_trace("s", 16_000, seed=2, n_streams=2, arena=60)
    kwargs = dict(machine=MachineConfig.scaled(16))
    dyn = TriageConfig(
        dynamic=True, capacities=(0, 8 * 1024, 16 * 1024),
        epoch_accesses=1_000, partition_warmup_epochs=0,
    )
    flat = simulate(trace, dyn, **kwargs)
    scalar = _simulate_scalar(trace, dyn, **kwargs)
    assert flat == scalar
    assert 0 in flat.partition_history


def test_zero_epoch_length_closes_an_epoch_per_access():
    # A non-positive epoch length resolves every access as its own
    # epoch on both drivers (the flat segment driver used to spin).
    trace = common.get_trace("mcf", 300)
    kwargs = dict(machine=common.MACHINE, epoch_accesses=0, warmup_accesses=50)
    flat = simulate(trace, "bo", **kwargs)
    scalar = _simulate_scalar(trace, "bo", **kwargs)
    assert result_summary(flat) == result_summary(scalar)


# -- bail-to-scalar fallback -------------------------------------------------


def test_bail_reasons():
    assert _bail_reason(common.MACHINE) is None
    srrip = replace(common.MACHINE, llc_policy="srrip")
    assert "non-LRU" in _bail_reason(srrip)


def test_batched_bails_to_scalar_for_non_lru_llc():
    srrip = replace(common.MACHINE, llc_policy="srrip")
    trace = common.get_trace("gcc_166", 2_000)
    fell_back = simulate(trace, "bo", machine=srrip)
    scalar = _simulate_scalar(trace, "bo", machine=srrip)
    assert result_summary(fell_back) == result_summary(scalar)
    assert fell_back.manifest.extra["engine"] == "analytic"


def test_addresses_beyond_int64_bail_to_scalar():
    big = 1 << 70
    trace = Trace(
        name="wide", pcs=[0x400000] * 6,
        addrs=[big, 64, big + 64, 128, big, 64], writes=[False] * 6,
    )
    fell_back = simulate(trace, "bo", machine=common.MACHINE)
    scalar = _simulate_scalar(trace, "bo", machine=common.MACHINE)
    assert result_summary(fell_back) == result_summary(scalar)
    assert fell_back.manifest.extra["engine"] == "analytic"


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"l1_prefetcher": "markov"}, "unknown l1 prefetcher 'markov'"),
        ({"l2_size": 3_000}, "L2_0: geometry 3000B/8-way/64B yields 5 sets"),
        (
            {"llc_size_per_core": 48 * 1024},
            "LLC: geometry 49152B/16-way/64B yields 48 sets",
        ),
    ],
    ids=["l1_prefetcher", "l2_sets", "llc_sets"],
)
def test_flat_raises_the_object_engine_errors(overrides, message):
    bad = replace(common.MACHINE, **overrides)
    trace = common.get_trace("gcc_166", 500)
    for driver in (simulate, _simulate_scalar):
        with pytest.raises(ValueError, match=message):
            driver(trace, "bo", machine=bad)


def test_batched_rejects_multicore_config():
    trace = common.get_trace("gcc_166", 500)
    with pytest.raises(ValueError, match="single-core"):
        simulate(trace, None, machine=MachineConfig.multi_core(4))


# -- cache-key stability ----------------------------------------------------
#
# Digests computed before the single-core engine knob was removed (with
# the knob unset, its default added no key entry).  Result caches on
# disk from that code must stay addressable, so these may only change
# with a deliberate KEY_SCHEMA_VERSION or package-version bump.


def test_spec_fingerprint_and_run_key_digests_are_pinned():
    assert cache_keys.spec_fingerprint("triage_1mb") == {
        "kind": "name", "name": "triage_1mb",
    }
    assert cache_keys.stable_hash(cache_keys.spec_fingerprint("triage_1mb")) == (
        "93855142fd0ddb2fcc7e23391651a5ef76b902a074402a0232946b9d71d7a978"
    )
    assert common._run_single_disk_key(
        "spec", "mcf", "triage_1mb", 60_000, 1, 1, common.MACHINE, True
    ) == "2b418bf7433a5696536e90ef32d4b8c94917aa2d1ed9f73e03e9b1f5a055fb7b"
    config_fp = cache_keys.spec_fingerprint(
        TriageConfig(metadata_capacity=512 * 1024)
    )
    assert cache_keys.run_key(
        "sweep", {"trace": "mcf", "n": 10_000}, config_fp,
        MachineConfig.single_core(), degree=2, warmup=1_000,
    ) == "89c7cdf0d1f65d30e5e14436519854e5b781fd78f530918d58da500eb9d555d2"
