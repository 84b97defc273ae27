"""Differential and wiring tests for the batched simulation engine.

``repro.sim.batched`` promises *bit-identical* results to the scalar
engine in :mod:`repro.sim.single_core` -- same counters, cycles,
traffic, metadata accounting, partition history and KPIs.  These tests
pin that contract:

* a hypothesis differential over adversarial little traces (small
  address alphabets force back-to-back repeats, the case the batched
  engine handles with its run-length L1 streak path),
* the engine-selection plumbing (``engine=`` argument, ``REPRO_ENGINE``
  env knob, warn-once fallback for junk values),
* the bail-to-scalar fallback for configs outside the fast path, and
* warm-cache separation: batched results may never be served from a
  memo or disk entry produced by a different engine.

A golden-replay leg under the batched engine lives in
``test_golden_figures.py`` next to the scalar one.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro import config
from repro.cache import keys as cache_keys
from repro.core.triage import TriageConfig
from repro.experiments import common
from repro.sim.batched import _bail_reason, simulate_batched
from repro.sim.config import MachineConfig
from repro.sim.single_core import simulate
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
    scalar = simulate(trace, common.make_spec(spec_name), engine="analytic",
                      **kwargs)
    batched = simulate_batched(trace, common.make_spec(spec_name), **kwargs)
    assert result_summary(batched) == result_summary(scalar)


def test_batched_matches_scalar_on_real_trace():
    # One real-workload leg with warmup and the default epoch length, so
    # the segment driver (no-repeat bulk path) is exercised end to end.
    trace = common.get_trace("mcf", 8_000)
    for spec_name in ("bo", "triage_512kb"):
        scalar = simulate(trace, common.make_spec(spec_name),
                          machine=common.MACHINE, warmup_accesses=2_000,
                          engine="analytic")
        batched = simulate_batched(trace, common.make_spec(spec_name),
                                   machine=common.MACHINE,
                                   warmup_accesses=2_000)
        assert result_summary(batched) == result_summary(scalar)


def test_single_core_batched_survives_resize_to_zero():
    # A store shrunk to zero capacity has no replacement policy; the
    # fused trainers must keep running (and match the object engine).
    trace = stream_trace("s", 16_000, seed=2, n_streams=2, arena=60)
    kwargs = dict(machine=MachineConfig.scaled(16))
    dyn = TriageConfig(
        dynamic=True, capacities=(0, 8 * 1024, 16 * 1024),
        epoch_accesses=1_000, partition_warmup_epochs=0,
    )
    batched = simulate(trace, dyn, engine="batched", **kwargs)
    scalar = simulate(trace, dyn, engine="analytic", **kwargs)
    assert batched == scalar
    assert 0 in batched.partition_history


# -- engine selection --------------------------------------------------------


def test_simulate_engine_argument_dispatches(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    trace = common.get_trace("gcc_166", 2_000)
    via_arg = simulate(trace, "bo", machine=common.MACHINE, engine="batched")
    direct = simulate_batched(trace, "bo", machine=common.MACHINE)
    assert result_summary(via_arg) == result_summary(direct)


def test_simulate_rejects_unknown_engine():
    trace = common.get_trace("gcc_166", 500)
    with pytest.raises(ValueError, match="unknown engine"):
        simulate(trace, None, machine=common.MACHINE, engine="vectorised")


def test_engine_env_resolution(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert config.engine_env() == "analytic"
    monkeypatch.setenv("REPRO_ENGINE", "batched")
    assert config.engine_env() == "batched"
    monkeypatch.setenv("REPRO_ENGINE", " Batched ")
    assert config.engine_env() == "batched"  # trimmed + lowercased


def test_engine_env_invalid_warns_once_and_falls_back(monkeypatch, capsys):
    bogus = "warp-drive"
    monkeypatch.setenv("REPRO_ENGINE", bogus)
    config.forget_warnings("env")
    assert config.engine_env() == "analytic"
    assert "REPRO_ENGINE" in capsys.readouterr().err
    # Second read: warn-once, silent fallback.
    assert config.engine_env() == "analytic"
    assert capsys.readouterr().err == ""


# -- bail-to-scalar fallback -------------------------------------------------


def test_bail_reasons():
    assert _bail_reason(common.MACHINE) is None
    srrip = replace(common.MACHINE, llc_policy="srrip")
    assert "non-LRU" in _bail_reason(srrip)


def test_batched_bails_to_scalar_for_non_lru_llc():
    srrip = replace(common.MACHINE, llc_policy="srrip")
    trace = common.get_trace("gcc_166", 2_000)
    fell_back = simulate_batched(trace, "bo", machine=srrip)
    scalar = simulate(trace, "bo", machine=srrip, engine="analytic")
    assert result_summary(fell_back) == result_summary(scalar)


def test_batched_rejects_multicore_config():
    trace = common.get_trace("gcc_166", 500)
    with pytest.raises(ValueError, match="single-core"):
        simulate_batched(trace, None, machine=MachineConfig.multi_core(4))


# -- warm-cache separation ---------------------------------------------------


def test_spec_fingerprint_folds_engine(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    default = cache_keys.spec_fingerprint("bo")
    assert "engine" not in default  # analytic keys stay byte-stable
    batched = cache_keys.spec_fingerprint("bo", engine="batched")
    assert batched["engine"] == "batched"
    assert {k: v for k, v in batched.items() if k != "engine"} == default
    # Ambient env resolves identically to the explicit argument.
    monkeypatch.setenv("REPRO_ENGINE", "batched")
    assert cache_keys.spec_fingerprint("bo") == batched


def test_run_single_memo_separates_engines(monkeypatch):
    # The same cell under two engines must be two memo entries -- a
    # batched run may never be answered with a cached analytic result
    # (and vice versa), even though their values agree by contract.
    common.clear_caches()
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    common.run_single("gcc_166", "none", n=1_000)
    keys_analytic = set(common._RUN_CACHE)
    monkeypatch.setenv("REPRO_ENGINE", "batched")
    common.run_single("gcc_166", "none", n=1_000)
    assert len(common._RUN_CACHE) == len(keys_analytic) + 1
    (new_key,) = set(common._RUN_CACHE) - keys_analytic
    assert new_key[-1] == "batched"
    common.clear_caches()
