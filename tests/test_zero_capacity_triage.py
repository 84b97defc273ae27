"""Metamorphic relation: a zero-capacity Triage is no L2 prefetcher at all.

With a 0-byte metadata store every lookup misses, so Triage (and
Triangel) never issues a prefetch and takes no LLC ways; the
simulated machine must behave exactly as with no L2 prefetcher.
Counters, cycles and off-chip traffic must match on the flat
single-core driver, on its object-graph reference and on
``simulate_multicore``.  (The store still counts its
lookups, so ``metadata_llc_accesses`` is the one field that differs.)
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.core.triage import TriageConfig
from repro.experiments import common
from repro.prefetchers.triangel import TriangelConfig
from repro.sim.config import MachineConfig
from repro.sim.multi_core import simulate_multicore
from repro.sim.single_core import _simulate_scalar, simulate
from repro.workloads import mixes, spec

ZERO = {
    "triage": lambda: TriageConfig(metadata_capacity=0),
    "triage_lru_nonuniform": lambda: TriageConfig(
        metadata_capacity=0, replacement="lru", index_mode="nonuniform",
        use_confidence=False,
    ),
    "triangel": lambda: TriangelConfig(metadata_capacity=0),
}


def _observable(result) -> tuple:
    return asdict(result.counters), result.cycles, result.traffic


@pytest.fixture(scope="module")
def mcf():
    return spec.make_trace(
        "mcf", n_accesses=20_000, seed=1, scale=common.SCALE
    )


@pytest.mark.parametrize(
    "driver",
    [
        pytest.param(_simulate_scalar, id="analytic"),
        pytest.param(simulate, id="batched"),
    ],
)
@pytest.mark.parametrize("name", sorted(ZERO))
def test_zero_capacity_single_core_equals_no_prefetcher(mcf, driver, name):
    warmup = len(mcf) // 4
    none = driver(mcf, None, machine=common.MACHINE, warmup_accesses=warmup)
    zero = driver(
        mcf, ZERO[name](), machine=common.MACHINE, warmup_accesses=warmup
    )
    assert zero.counters.accesses == len(mcf) - warmup
    assert zero.counters.prefetches_issued == 0
    assert zero.metadata_llc_accesses > 0  # the store was consulted
    assert _observable(zero) == _observable(none)


@pytest.mark.parametrize("name", sorted(ZERO))
def test_zero_capacity_multicore_equals_no_prefetcher(name):
    machine = MachineConfig.scaled(common.MULTI_SCALE, n_cores=2)
    traces = mixes.make_mix(
        2, 3, n_accesses_per_core=2_000, irregular_only=True,
        scale=common.MULTI_SCALE,
    )
    kwargs = dict(
        machine=machine, accesses_per_core=1_000,
        warmup_accesses_per_core=1_000,
    )
    none = simulate_multicore(traces, None, **kwargs)
    zero = simulate_multicore(traces, ZERO[name](), **kwargs)
    assert zero.traffic == none.traffic
    for got, want in zip(zero.per_core, none.per_core):
        assert got.counters.prefetches_issued == 0
        assert _observable(got) == _observable(want)
