"""Single-core trace simulation (the paper's Section 4.2 setup).

``simulate(trace, prefetcher=...)`` runs one workload through the Table-1
hierarchy: demand accesses walk L1D -> L2 -> LLC -> DRAM, the prefetcher
trains on the L2 miss + prefetch-hit stream and inserts into the L2, and
Triage's metadata store both occupies LLC ways (via way partitioning)
and is resized on the fly by the dynamic controller.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import List, Optional

from repro import config as config_mod
from repro.core.triage import TriagePrefetcher
from repro.memory.dram import DramModel
from repro.memory.hierarchy import CacheHierarchy, CoreCounters
from repro.obs import ObsSession, RunObserver, get_session
from repro.obs.manifest import build_manifest
from repro.prefetchers.base import BasePrefetcher
from repro.prefetchers.hybrid import HybridPrefetcher
from repro.prefetchers.stride import StridePrefetcher
from repro.sim.config import MachineConfig
from repro.sim.factory import PrefetcherSpec, make_prefetcher
from repro.sim.stats import SimulationResult
from repro.sim.timing import EpochLoad, resolve_epoch
from repro.workloads.base import Trace


def triage_components(prefetcher: Optional[BasePrefetcher]) -> List[TriagePrefetcher]:
    """All Triage instances inside ``prefetcher`` (hybrids included)."""
    if prefetcher is None:
        return []
    if isinstance(prefetcher, TriagePrefetcher):
        return [prefetcher]
    if isinstance(prefetcher, HybridPrefetcher):
        found: List[TriagePrefetcher] = []
        for component in prefetcher.components:
            found.extend(triage_components(component))
        return found
    return []


def attach_observability(
    run: RunObserver,
    triages: List[TriagePrefetcher],
    dram=None,
    profiler=None,
) -> None:
    """Point component observability hooks at an observed run.

    Hooks are plain attributes defaulting to ``None``; attaching them is
    the *only* thing that makes components emit, so the disabled path
    stays a single ``is None`` check per site.
    """
    for triage in triages:
        triage.events = run
        triage.store.events = run
        triage.store.predictor.events = run
        if triage.controller is not None:
            triage.controller.events = run
        if profiler is not None:
            triage.profile = profiler
    if dram is not None:
        dram.epoch_log = []


class _MetadataPartition:
    """Keeps the LLC's data ways in sync with Triage's metadata usage."""

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        config: MachineConfig,
        triages: List[TriagePrefetcher],
        charge_llc: bool = True,
    ):
        self.hierarchy = hierarchy
        self.config = config
        self.triages = triages
        self.charge_llc = charge_llc
        for triage in triages:
            triage.on_partition_change = lambda _capacity: self.apply()
        self.apply()

    def metadata_bytes(self) -> int:
        return sum(
            t.metadata_capacity_bytes for t in self.triages if not t.store.unbounded
        )

    def apply(self) -> None:
        if not self.charge_llc:
            return
        ways = self.config.metadata_ways(self.metadata_bytes())
        data_ways = self.config.llc_ways - ways
        if data_ways < 1:
            raise ValueError("metadata would consume the entire LLC")
        if data_ways != self.hierarchy.llc.active_ways:
            self.hierarchy.resize_llc_data_ways(data_ways)


def make_l1_prefetcher(config: MachineConfig) -> Optional[StridePrefetcher]:
    """The baseline L1D prefetcher from Table 1 (None when disabled)."""
    if config.l1_prefetcher == "none":
        return None
    if config.l1_prefetcher == "stride":
        return StridePrefetcher(degree=config.l1_prefetcher_degree)
    raise ValueError(f"unknown l1 prefetcher {config.l1_prefetcher!r}")


def simulate(
    trace: Trace,
    prefetcher: PrefetcherSpec = None,
    machine: Optional[MachineConfig] = None,
    degree: int = 1,
    epoch_accesses: int = 5_000,
    charge_metadata_to_llc: bool = True,
    warmup_accesses: int = 0,
    name: Optional[str] = None,
    obs: Optional[ObsSession] = None,
    engine: Optional[str] = None,
) -> SimulationResult:
    """Simulate ``trace`` on a single core and return the result.

    ``warmup_accesses`` mirrors the paper's methodology (each SimPoint is
    warmed before measurement): the first N accesses train caches and
    prefetchers but are excluded from every reported statistic.

    ``charge_metadata_to_llc=False`` gives Triage a free metadata store
    on the side (the "optimistic" configuration of Figure 7).

    ``obs`` is an explicit observability session; when omitted the
    globally enabled one (``repro.obs.enable``) is used, and when neither
    exists the run is uninstrumented (the default, zero-overhead path).

    ``engine`` picks the execution strategy: ``"analytic"`` is this
    module's scalar reference loop, ``"batched"`` the bit-identical
    struct-of-arrays fast path in :mod:`repro.sim.batched`.  ``None``
    defers to the ``REPRO_ENGINE`` environment knob (default analytic).
    """
    resolved = engine if engine is not None else config_mod.engine_env()
    if resolved == "batched":
        from repro.sim.batched import simulate_batched

        return simulate_batched(
            trace, prefetcher, machine=machine, degree=degree,
            epoch_accesses=epoch_accesses,
            charge_metadata_to_llc=charge_metadata_to_llc,
            warmup_accesses=warmup_accesses, name=name, obs=obs,
        )
    if resolved != "analytic":
        raise ValueError(
            f"unknown engine {resolved!r}; one of {config_mod.ENGINES}"
        )
    wall_start = time.perf_counter()
    config = machine or MachineConfig.single_core()
    if config.n_cores != 1:
        raise ValueError("simulate() is single-core; use simulate_multicore()")
    pf = make_prefetcher(prefetcher, degree=degree)
    hierarchy = CacheHierarchy(
        n_cores=1,
        l1_size=config.l1_size,
        l1_ways=config.l1_ways,
        l2_size=config.l2_size,
        l2_ways=config.l2_ways,
        llc_size_per_core=config.llc_size_per_core,
        llc_ways=config.llc_ways,
        llc_policy=config.llc_policy,
    )
    dram = DramModel(
        base_latency_cycles=config.dram_latency_cycles,
        bandwidth_bytes_per_cycle=config.dram_bandwidth_bytes_per_cycle,
    )
    triages = triage_components(pf)
    _MetadataPartition(hierarchy, config, triages, charge_metadata_to_llc)
    l1pf = make_l1_prefetcher(config)

    session = obs if obs is not None else get_session()
    run: Optional[RunObserver] = None
    prof = None
    sim_span = None
    if session is not None:
        run = session.begin_run(
            name or trace.name, pf.name if pf is not None else "none"
        )
        prof = session.profiler
        attach_observability(run, triages, dram=dram, profiler=prof)
        sim_span = _open_sim_span(
            session, run, "analytic",
            name or trace.name, pf.name if pf is not None else "none",
            t=wall_start,
        )
    prev_store = [(0, 0, 0) for _ in triages]  # (lookups, hits, evictions)

    counters = hierarchy.counters[0]
    total_cycles = 0.0
    # Epoch snapshots.
    prev = (0, 0, 0)  # (l2_hits, llc_hits, dram_accesses)
    prev_bytes = 0
    prev_coverage = (0, 0)  # (l2_prefetch_hits, would-have-missed)
    accesses_in_epoch = 0
    #: True until the warmup boundary passes.  Warmup epochs are not
    #: resolved or sampled at all: their rows would pollute the epoch
    #: time-series and leave warmup entries in ``dram.epoch_log`` (which
    #: ``_register_dram_metrics`` folds into the registry), and nothing
    #: downstream consumes warmup cycles -- the boundary resets them.
    in_warmup = warmup_accesses > 0
    # Warmup offsets, captured when measurement starts.
    traffic_offset: dict = {}
    metadata_llc_offset = 0
    metadata_dram_offset = 0

    def sample_epoch(load: EpochLoad, epoch_bytes: int, cycles: float) -> None:
        """One epoch row for the time-series sampler (observing only)."""
        nonlocal prev_coverage
        dram_info = dram.epoch_log[-1] if dram.epoch_log else {}
        useful = counters.l2_prefetch_hits
        would_miss = useful + counters.l2_demand_misses
        d_useful = useful - prev_coverage[0]
        d_would_miss = would_miss - prev_coverage[1]
        prev_coverage = (useful, would_miss)
        row = {
            "access_idx": counters.accesses,
            "cycles": cycles,
            "l2_hits": load.l2_hits,
            "llc_hits": load.llc_hits,
            "dram_accesses": load.dram_accesses,
            "epoch_bytes": epoch_bytes,
            "llc_data_ways": hierarchy.llc.active_ways,
            "coverage": d_useful / d_would_miss if d_would_miss else 0.0,
            "dram_utilization": dram_info.get("utilization", 0.0),
            "dram_queue_penalty_cycles": dram_info.get("queue_penalty_cycles", 0.0),
        }
        for i, triage in enumerate(triages):
            store = triage.store
            lookups, hits, evictions = (
                store.lookups, store.lookup_hits, store.evictions,
            )
            d_lookups = lookups - prev_store[i][0]
            d_hits = hits - prev_store[i][1]
            prefix = f"c0.t{i}." if len(triages) > 1 else "c0."
            capacity = 0 if store.unbounded else store.capacity_bytes
            row[prefix + "meta_capacity_bytes"] = capacity
            row[prefix + "meta_ways"] = config.metadata_ways(capacity)
            row[prefix + "meta_hit_rate"] = d_hits / d_lookups if d_lookups else 0.0
            row[prefix + "meta_evictions"] = evictions - prev_store[i][2]
            row[prefix + "meta_occupancy"] = store.occupancy()
            prev_store[i] = (lookups, hits, evictions)
        session.registry.histogram("dram.epoch_utilization_pct").observe(
            int(row["dram_utilization"] * 100)
        )
        run.sample_epoch(**row)

    def close_epoch() -> None:
        nonlocal prev, prev_bytes, accesses_in_epoch, total_cycles
        if accesses_in_epoch == 0:
            return
        if in_warmup:
            # Roll the snapshots without resolving or sampling: warmup
            # cycles are discarded at the boundary anyway.
            prev = (counters.l2_hits, counters.llc_hits, counters.dram_accesses)
            prev_bytes = hierarchy.traffic.total_bytes
            accesses_in_epoch = 0
            return
        load = EpochLoad(
            instructions=accesses_in_epoch * trace.instr_per_access,
            l2_hits=counters.l2_hits - prev[0],
            llc_hits=counters.llc_hits - prev[1],
            dram_accesses=counters.dram_accesses - prev[2],
            mlp=trace.mlp,
        )
        epoch_bytes = hierarchy.traffic.total_bytes - prev_bytes
        cycles = resolve_epoch([load], epoch_bytes, config, dram)[0]
        total_cycles += cycles
        if run is not None:
            sample_epoch(load, epoch_bytes, cycles)
        prev = (counters.l2_hits, counters.llc_hits, counters.dram_accesses)
        prev_bytes = hierarchy.traffic.total_bytes
        accesses_in_epoch = 0

    profiling = prof is not None
    t_stream = t_l1pf = t_l2pf = 0.0
    t0 = 0.0
    for access_idx, (pc, addr, is_write) in enumerate(trace):
        if access_idx == warmup_accesses and warmup_accesses > 0:
            # Warmup ends: drop the statistics gathered so far (state in
            # the caches, prefetchers and partition controller persists).
            hierarchy.counters[0] = CoreCounters()
            counters = hierarchy.counters[0]
            traffic_offset = hierarchy.traffic.snapshot()
            metadata_llc_offset = sum(t.store.llc_accesses for t in triages)
            if pf is not None:
                metadata_dram_offset = pf.metadata_dram_accesses
                if isinstance(pf, HybridPrefetcher):
                    metadata_dram_offset = pf.total_metadata_dram_accesses
            total_cycles = 0.0
            prev = (0, 0, 0)
            prev_bytes = hierarchy.traffic.total_bytes
            prev_coverage = (0, 0)
            accesses_in_epoch = 0
            in_warmup = False
            # Observability state gathered during warmup is dropped so a
            # warmed run reports only measured-window epochs: any stray
            # warmup records would otherwise inflate the folded
            # ``dram.queue_penalty_cycles`` registry counter.
            if dram.epoch_log:
                dram.epoch_log.clear()
            prev_store = [
                (t.store.lookups, t.store.lookup_hits, t.store.evictions)
                for t in triages
            ]
        if profiling:
            t0 = time.perf_counter()
        event = hierarchy.access(0, pc, addr, is_write)
        if profiling:
            t_stream += time.perf_counter() - t0
        accesses_in_epoch += 1
        if l1pf is not None:
            # The stride prefetcher trains on the L1D access stream.
            if profiling:
                t0 = time.perf_counter()
            for candidate in l1pf.observe(pc, event.line):
                hierarchy.prefetch(0, candidate.line, pc, kind="l1")
            if profiling:
                t_l1pf += time.perf_counter() - t0
        # Inlined event.trains_l2_prefetcher (property call per access).
        if pf is not None and (
            event.prefetch_hit_kind is not None or event.hit_level in ("llc", "dram")
        ):
            if profiling:
                t0 = time.perf_counter()
            candidates = pf.observe(
                event.pc, event.line,
                prefetch_hit=event.prefetch_hit_kind == "l2",
            )
            for candidate in candidates:
                source = hierarchy.prefetch(0, candidate.line, event.pc)
                owner = candidate.owner or pf
                owner.feedback(candidate, source)
            metadata_bytes = pf.drain_metadata_traffic()
            if metadata_bytes:
                hierarchy.traffic.add("metadata", metadata_bytes)
            if profiling:
                t_l2pf += time.perf_counter() - t0
        if accesses_in_epoch >= epoch_accesses:
            close_epoch()
    close_epoch()
    if profiling:
        # "metadata_store" (timed inside TriagePrefetcher.observe) is a
        # sub-slice of "l2_prefetcher", not an additional share.
        prof.add("l2_stream", t_stream, calls=len(trace))
        if l1pf is not None:
            prof.add("l1_prefetcher", t_l1pf)
        if pf is not None:
            prof.add("l2_prefetcher", t_l2pf)

    metadata_llc = sum(t.store.llc_accesses for t in triages) - metadata_llc_offset
    metadata_dram = pf.metadata_dram_accesses if pf is not None else 0
    if isinstance(pf, HybridPrefetcher):
        metadata_dram = pf.total_metadata_dram_accesses
    metadata_dram -= metadata_dram_offset
    partition_history = []
    final_capacity = None
    for triage in triages:
        if triage.controller is not None:
            partition_history = [
                d.capacity_bytes for d in triage.controller.decisions
            ]
        if not triage.store.unbounded:
            final_capacity = triage.metadata_capacity_bytes

    measured_accesses = len(trace) - min(warmup_accesses, len(trace))
    traffic = {
        category: total - traffic_offset.get(category, 0)
        for category, total in hierarchy.traffic.snapshot().items()
    }
    manifest = build_manifest(
        kind="single",
        workloads=[name or trace.name],
        prefetcher=pf.name if pf is not None else "none",
        config=config,
        seeds=[trace.metadata.get("seed")],
        trace_length=len(trace),
        warmup=warmup_accesses,
        instructions=measured_accesses * trace.instr_per_access,
        cycles=total_cycles,
        wall_time_s=time.perf_counter() - wall_start,
        extra={
            "engine": "analytic",
            "degree": degree,
            "charge_metadata_to_llc": charge_metadata_to_llc,
        },
    )
    result = SimulationResult(
        workload=name or trace.name,
        prefetcher=pf.name if pf is not None else "none",
        instructions=measured_accesses * trace.instr_per_access,
        cycles=total_cycles,
        counters=replace(counters),
        traffic=traffic,
        metadata_llc_accesses=metadata_llc,
        metadata_dram_accesses=metadata_dram,
        final_metadata_capacity=final_capacity,
        partition_history=partition_history,
        manifest=manifest,
    )
    manifest.extra["kpis"] = result.kpis()
    if run is not None:
        _register_run_metrics(session, counters, triages)
        _register_dram_metrics(session, dram)
        _finish_sim_span(
            session,
            sim_span,
            phases=(
                ("l2_stream", t_stream),
                ("l1_prefetcher", t_l1pf),
                ("l2_prefetcher", t_l2pf),
            ),
        )
        run.finish(manifest)
    return result


def _open_sim_span(session, run, engine, workload, prefetcher, t=None):
    """This run's ``sim.run`` span, or ``None`` when tracing is off.

    Under a current trace (a ``sweep.cell`` root, a serve request) the
    span attaches as a child; otherwise it roots a standalone trace
    keyed on the session's deterministic run id.
    """
    tracer = session.tracer
    if not tracer.enabled:
        return None
    attrs = {"engine": engine, "workload": workload, "prefetcher": prefetcher}
    if tracer.current() is not None:
        return tracer.start_span("sim.run", t=t, **attrs)
    return tracer.start_trace("sim.run", run.run_id, t=t, **attrs)


def _finish_sim_span(session, span, phases=(), t=None) -> None:
    """Close a run's ``sim.run`` span, filing profiler-phase children.

    Phase seconds are accumulated as raw ``perf_counter`` deltas (the
    access loop is too hot for live span bookkeeping); they are recorded
    as back-to-back measured segments so a waterfall still shows where
    the run's wall time went.  Empty phases (profiling off, component
    absent) are skipped, keeping serial/parallel trees structurally
    identical.
    """
    if span is None:
        return
    tracer = session.tracer
    base = span.start
    for name, seconds in phases:
        if seconds:
            tracer.event(span, f"phase.{name}", base, base + seconds)
            base += seconds
    tracer.finish(span, "ok", t=t)


def _register_dram_metrics(session, dram) -> None:
    """Fold a run's DRAM epoch log into the session registry."""
    if dram is not None and getattr(dram, "epoch_log", None):
        session.registry.counter("dram.queue_penalty_cycles").inc(
            int(sum(e["queue_penalty_cycles"] for e in dram.epoch_log))
        )


def _register_run_metrics(session, counters, triages) -> None:
    """Fold one finished core's component stats into the session registry."""
    reg = session.registry
    reg.counter("sim.runs").inc()
    reg.counter("sim.accesses").inc(counters.accesses)
    reg.counter("sim.dram_accesses").inc(counters.dram_accesses)
    reg.counter("sim.prefetches_issued").inc(counters.prefetches_issued)
    reg.counter("sim.prefetches_useful").inc(counters.l2_prefetch_hits)
    for triage in triages:
        store = triage.store
        reg.counter("triage.meta_store.lookups").inc(store.lookups)
        reg.counter("triage.meta_store.hits").inc(store.lookup_hits)
        reg.counter("triage.meta_store.inserts").inc(store.inserts)
        reg.counter("triage.meta_store.evictions").inc(store.evictions)
        if triage.controller is not None:
            reg.counter("triage.partition.decisions").inc(
                len(triage.controller.decisions)
            )
            reg.counter("triage.partition.changes").inc(
                sum(1 for d in triage.controller.decisions if d.changed)
            )
