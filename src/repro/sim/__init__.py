"""Simulation engine: configs, drivers, timing, stats and energy."""

from repro.sim.config import MachineConfig
from repro.sim.energy import metadata_energy, misb_vs_triage_energy
from repro.sim.factory import make_prefetcher
from repro.sim.multi_core import MultiCoreResult, simulate_multicore
from repro.sim.single_core import SimulationResult, simulate

__all__ = [
    "MachineConfig",
    "MultiCoreResult",
    "SimulationResult",
    "make_prefetcher",
    "metadata_energy",
    "misb_vs_triage_energy",
    "simulate",
    "simulate_multicore",
]
