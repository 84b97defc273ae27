"""Single-core trace simulation (the paper's Section 4.2 setup).

``simulate(trace, prefetcher=...)`` runs one workload through the Table-1
hierarchy: demand accesses walk L1D -> L2 -> LLC -> DRAM, the prefetcher
trains on the L2 miss + prefetch-hit stream and inserts into the L2, and
Triage's metadata store both occupies LLC ways (via way partitioning)
and is resized on the fly by the dynamic controller.

:func:`simulate` runs on the flat engine of :mod:`repro.sim.batched`: one
core from the per-core builder the multi-core driver shares, over a flat
LLC.  The object-graph loop (:func:`_simulate_scalar`, over ``Cache``/
``CacheHierarchy``) serves only the inputs the flat model cannot hold --
a non-LRU LLC policy, addresses beyond int64 -- with bit-identical
results, and is the differential tests' reference.  Both drivers share
the epoch rows, the warmup offsets and the result assembly below.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import replace
from typing import List, NamedTuple, Optional

import numpy as np

from repro.core.triage import TriagePrefetcher
from repro.memory.dram import DramModel
from repro.memory.hierarchy import CacheHierarchy, CoreCounters
from repro.obs import ObsSession, RunObserver, get_session
from repro.obs.manifest import build_manifest
from repro.prefetchers.base import BasePrefetcher
from repro.prefetchers.hybrid import HybridPrefetcher
from repro.prefetchers.stride import StridePrefetcher
from repro.sim.batched import (
    _FlatLLC,
    _bail_reason,
    _build_core,
    _l1_schedule,
    _run_segment,
    _set_counts,
)
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

    The run is split into epoch/warmup-bounded segments over one flat
    core and LLC; inputs outside the flat model take
    :func:`_simulate_scalar`.
    """
    wall_start = time.perf_counter()
    config = _check_config(machine)
    decoded = _decode_trace(trace) if _bail_reason(config) is None else None
    if decoded is None:
        return _simulate_scalar(
            trace, prefetcher, machine=machine, degree=degree,
            epoch_accesses=epoch_accesses,
            charge_metadata_to_llc=charge_metadata_to_llc,
            warmup_accesses=warmup_accesses, name=name, obs=obs,
        )
    lines, pcs, ws, heads = decoded
    n = len(trace)

    pf = make_prefetcher(prefetcher, degree=degree)
    sets = _set_counts(config, 1)
    triages = triage_components(pf)
    llc = _FlatLLC(config, sets[2], triages, charge_metadata_to_llc)
    m1, m2, m3 = sets[0] - 1, sets[1] - 1, llc.mask
    w1, w2 = config.l1_ways, config.l2_ways
    L3 = llc.sets
    free3 = llc.free
    dram = DramModel(
        base_latency_cycles=config.dram_latency_cycles,
        bandwidth_bytes_per_cycle=config.dram_bandwidth_bytes_per_cycle,
    )
    # Raises the object engine's error for an unknown L1 prefetcher.
    stride = make_l1_prefetcher(config) is not None

    session, run, sim_span = _observe(
        obs, name or trace.name, pf, triages, dram, "batched", wall_start
    )
    sampler = (
        _EpochSampler(session, run, dram, config, triages)
        if run is not None else None
    )
    core = _build_core(config, llc, pf, triages)
    L1, L2 = core.l1, core.l2
    insert_l1_prefetch = core.insert_l1
    train = core.train
    # Precomputed L1 stride schedule, one entry per head.
    sched = None
    if stride:
        sched = _l1_schedule(trace, lines, pcs, config.l1_prefetcher_degree)

    # ---- demand counters (flat locals, synced into ``counters``) -------
    counters = CoreCounters()
    acc = l1h = l2h = l2ph = llch = dramc = l1_useful = 0
    # Demand-path bytes; the core and the LLC partition count the rest.
    t_demand = t_writeback = 0

    def sync_state() -> None:
        counters.accesses = acc
        counters.l1_hits = l1h
        counters.l2_hits = l2h
        counters.l2_prefetch_hits = l2ph
        counters.llc_hits = llch
        counters.dram_accesses = dramc
        counters.l1pf_useful = l1_useful
        core.sync(counters)

    def traffic_totals() -> dict:
        """Off-chip bytes by category: demand path, core and partition."""
        t_pf, t_wb, t_md = core.traffic()
        return {
            "demand": t_demand,
            "prefetch": t_pf,
            "writeback": t_writeback + t_wb + llc.writeback,
            "metadata": t_md,
        }

    total_cycles = 0.0
    prev = (0, 0, 0)  # (l2_hits, llc_hits, dram_accesses)
    prev_bytes = 0
    in_epoch = 0
    in_warmup = warmup_accesses > 0
    window = _Window({}, 0, 0)
    ipa = trace.instr_per_access
    mlp = trace.mlp

    def close_epoch() -> None:
        nonlocal prev, prev_bytes, in_epoch, total_cycles
        if in_epoch == 0:
            return
        total_bytes = sum(traffic_totals().values())
        if in_warmup:
            prev = (l2h, llch, dramc)
            prev_bytes = total_bytes
            in_epoch = 0
            return
        load = EpochLoad(
            instructions=in_epoch * ipa,
            l2_hits=l2h - prev[0],
            llc_hits=llch - prev[1],
            dram_accesses=dramc - prev[2],
            mlp=mlp,
        )
        epoch_bytes = total_bytes - prev_bytes
        cycles = resolve_epoch([load], epoch_bytes, config, dram)[0]
        total_cycles += cycles
        if sampler is not None:
            sync_state()
            sampler.sample(counters, llc.active, load, epoch_bytes, cycles)
        prev = (l2h, llch, dramc)
        prev_bytes = total_bytes
        in_epoch = 0

    def warmup_reset() -> None:
        nonlocal acc, l1h, l2h, l2ph, llch, dramc, l1_useful, window
        nonlocal total_cycles, prev, prev_bytes, in_epoch, in_warmup
        sync_state()
        window = _open_window(pf, triages, dram, sampler, traffic_totals())
        acc = l1h = l2h = l2ph = llch = dramc = l1_useful = 0
        core.reset()
        total_cycles = 0.0
        prev = (0, 0, 0)
        prev_bytes = sum(window.traffic.values())
        in_epoch = 0
        in_warmup = False

    # ---- main loop ------------------------------------------------------
    # Segments end at epoch and warmup boundaries, which are counted in
    # accesses; ``_run_segment`` steps the heads among them, and every
    # other access repeats its head: an L1 hit that changes nothing else.
    pos = k = 0  # next access; next head
    w_pending = warmup_accesses > 0  # warmup boundary not yet crossed
    while pos < n:
        if w_pending and pos == warmup_accesses:
            warmup_reset()
            w_pending = False
        stop = min(n, pos + max(1, epoch_accesses - in_epoch))
        if w_pending and stop > warmup_accesses:
            stop = warmup_accesses
        kb = stop if heads is None else bisect_left(heads, stop, k)
        d = _run_segment(
            k, kb, pcs, lines, ws, sched, L1, L2, L3, free3,
            m1, m2, m3, w1, w2, insert_l1_prefetch, train,
        )
        l1h += d[0] + (stop - pos) - (kb - k)
        l2h += d[1]
        l2ph += d[2]
        llch += d[3]
        dramc += d[4]
        l1_useful += d[5]
        t_demand += d[6]
        t_writeback += d[7]
        acc += stop - pos
        in_epoch += stop - pos
        if in_epoch >= epoch_accesses:
            close_epoch()
        pos, k = stop, kb
    close_epoch()
    sync_state()
    llc.detach()
    loop_seconds = time.perf_counter() - wall_start
    if session is not None and session.profiler is not None:
        session.profiler.add("batched_core", loop_seconds, calls=n)
    return _finish_run(
        trace, name, pf, triages, config, counters, total_cycles,
        traffic_totals(), window, warmup_accesses, degree,
        charge_metadata_to_llc, wall_start, "batched", session, run,
        sim_span, dram, (("batched_core", loop_seconds),),
    )


def _simulate_scalar(
    trace: Trace,
    prefetcher: PrefetcherSpec = None,
    machine: Optional[MachineConfig] = None,
    degree: int = 1,
    epoch_accesses: int = 5_000,
    charge_metadata_to_llc: bool = True,
    warmup_accesses: int = 0,
    name: Optional[str] = None,
    obs: Optional[ObsSession] = None,
) -> SimulationResult:
    """The object-graph single-core loop (``Cache``/``CacheHierarchy``).

    Same contract as :func:`simulate`, which falls back to it for inputs
    outside the flat model; the differential tests use it as the
    reference.
    """
    wall_start = time.perf_counter()
    config = _check_config(machine)
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

    session, run, sim_span = _observe(
        obs, name or trace.name, pf, triages, dram, "analytic", wall_start
    )
    sampler = (
        _EpochSampler(session, run, dram, config, triages)
        if run is not None else None
    )

    counters = hierarchy.counters[0]
    total_cycles = 0.0
    # Epoch snapshots.
    prev = (0, 0, 0)  # (l2_hits, llc_hits, dram_accesses)
    prev_bytes = 0
    accesses_in_epoch = 0
    #: True until the warmup boundary passes (see :func:`_open_window`).
    in_warmup = warmup_accesses > 0
    window = _Window({}, 0, 0)

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
        if sampler is not None:
            sampler.sample(
                counters, hierarchy.llc.active_ways, load, epoch_bytes, cycles
            )
        prev = (counters.l2_hits, counters.llc_hits, counters.dram_accesses)
        prev_bytes = hierarchy.traffic.total_bytes
        accesses_in_epoch = 0

    profiling = session is not None and session.profiler is not None
    t_stream = t_l1pf = t_l2pf = 0.0
    t0 = 0.0
    for access_idx, (pc, addr, is_write) in enumerate(trace):
        if access_idx == warmup_accesses and warmup_accesses > 0:
            # Warmup ends: drop the statistics gathered so far (state in
            # the caches, prefetchers and partition controller persists).
            hierarchy.counters[0] = CoreCounters()
            counters = hierarchy.counters[0]
            window = _open_window(
                pf, triages, dram, sampler, hierarchy.traffic.snapshot()
            )
            total_cycles = 0.0
            prev = (0, 0, 0)
            prev_bytes = hierarchy.traffic.total_bytes
            accesses_in_epoch = 0
            in_warmup = False
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
        prof = session.profiler
        prof.add("l2_stream", t_stream, calls=len(trace))
        if l1pf is not None:
            prof.add("l1_prefetcher", t_l1pf)
        if pf is not None:
            prof.add("l2_prefetcher", t_l2pf)
    return _finish_run(
        trace, name, pf, triages, config, counters, total_cycles,
        hierarchy.traffic.snapshot(), window, warmup_accesses, degree,
        charge_metadata_to_llc, wall_start, "analytic", session, run,
        sim_span, dram,
        (
            ("l2_stream", t_stream),
            ("l1_prefetcher", t_l1pf),
            ("l2_prefetcher", t_l2pf),
        ),
    )


def _check_config(machine: Optional[MachineConfig]) -> MachineConfig:
    """The validated single-core machine of a run."""
    config = machine or MachineConfig.single_core()
    if config.n_cores != 1:
        raise ValueError("simulate() is single-core; use simulate_multicore()")
    return config


def _decode_trace(trace: Trace) -> Optional[tuple]:
    """The flat driver's pre-decoded trace, or None beyond int64.

    An access repeating its predecessor's ``(line, pc, is_write)``
    triple is a guaranteed L1 hit whose only effect is three counter
    increments, so the driver steps only the *heads* of such runs.
    Returns ``(lines, pcs, writes, heads)`` over the heads, where
    ``heads`` lists each head's access index (None when every access is
    a head).
    """
    try:
        line_arr = np.asarray(trace.addrs, dtype=np.int64) >> 6
        pc_arr = np.asarray(trace.pcs, dtype=np.int64)
    except OverflowError:
        return None
    write_arr = np.asarray(trace.writes, dtype=np.bool_)
    heads = None
    if len(trace) > 1:
        rep = line_arr[1:] == line_arr[:-1]
        rep &= pc_arr[1:] == pc_arr[:-1]
        rep &= write_arr[1:] == write_arr[:-1]
        if rep.any():
            keep = np.flatnonzero(~rep) + 1
            keep = np.concatenate(([0], keep))
            line_arr, pc_arr, write_arr = (
                line_arr[keep], pc_arr[keep], write_arr[keep]
            )
            heads = keep.tolist()
    return line_arr.tolist(), pc_arr.tolist(), write_arr.tolist(), heads


def _observe(obs, workload, pf, triages, dram, engine, wall_start) -> tuple:
    """``(session, run, sim_span)`` of an observed run, else Nones.

    ``pf`` is the run's prefetcher (its name labels the run) and
    ``triages`` every Triage component the run's hooks attach to.
    """
    session = obs if obs is not None else get_session()
    if session is None:
        return None, None, None
    prefetcher = pf.name if pf is not None else "none"
    run = session.begin_run(workload, prefetcher)
    attach_observability(run, triages, dram=dram, profiler=session.profiler)
    sim_span = _open_sim_span(
        session, run, engine, workload, prefetcher, t=wall_start
    )
    return session, run, sim_span


class _EpochSampler:
    """The per-epoch time-series rows of one observed single-core run."""

    def __init__(self, session, run, dram, config, triages):
        self.session = session
        self.run = run
        self.dram = dram
        self.config = config
        self.triages = triages
        #: The previous row's snapshots: coverage (useful prefetches,
        #: would-be misses) and each store's (lookups, hits, evictions).
        self.coverage = (0, 0)
        self.stores = [(0, 0, 0)] * len(triages)

    def restart(self) -> None:
        """Measurement starts: the next row's deltas count from here."""
        self.coverage = (0, 0)
        self.stores = [
            (t.store.lookups, t.store.lookup_hits, t.store.evictions)
            for t in self.triages
        ]

    def sample(
        self,
        counters: CoreCounters,
        llc_data_ways: int,
        load: EpochLoad,
        epoch_bytes: int,
        cycles: float,
    ) -> None:
        """Record one epoch row (observing only)."""
        dram_info = self.dram.epoch_log[-1] if self.dram.epoch_log else {}
        useful = counters.l2_prefetch_hits
        would_miss = useful + counters.l2_demand_misses
        d_useful = useful - self.coverage[0]
        d_would_miss = would_miss - self.coverage[1]
        self.coverage = (useful, would_miss)
        row = {
            "access_idx": counters.accesses,
            "cycles": cycles,
            "l2_hits": load.l2_hits,
            "llc_hits": load.llc_hits,
            "dram_accesses": load.dram_accesses,
            "epoch_bytes": epoch_bytes,
            "llc_data_ways": llc_data_ways,
            "coverage": d_useful / d_would_miss if d_would_miss else 0.0,
            "dram_utilization": dram_info.get("utilization", 0.0),
            "dram_queue_penalty_cycles": dram_info.get("queue_penalty_cycles", 0.0),
        }
        triages = self.triages
        for i, triage in enumerate(triages):
            store = triage.store
            lookups, hits, evictions = (
                store.lookups, store.lookup_hits, store.evictions,
            )
            d_lookups = lookups - self.stores[i][0]
            d_hits = hits - self.stores[i][1]
            prefix = f"c0.t{i}." if len(triages) > 1 else "c0."
            capacity = 0 if store.unbounded else store.capacity_bytes
            row[prefix + "meta_capacity_bytes"] = capacity
            row[prefix + "meta_ways"] = self.config.metadata_ways(capacity)
            row[prefix + "meta_hit_rate"] = d_hits / d_lookups if d_lookups else 0.0
            row[prefix + "meta_evictions"] = evictions - self.stores[i][2]
            row[prefix + "meta_occupancy"] = store.occupancy()
            self.stores[i] = (lookups, hits, evictions)
        self.session.registry.histogram("dram.epoch_utilization_pct").observe(
            int(row["dram_utilization"] * 100)
        )
        self.run.sample_epoch(**row)


class _Window(NamedTuple):
    """Counts at the start of the measured window (zero without warmup)."""

    traffic: dict
    metadata_llc: int
    metadata_dram: int


def _open_window(pf, triages, dram, sampler, traffic: dict) -> _Window:
    """Warmup ends: the offsets every reported statistic is taken from.

    Warmup epochs are never resolved or sampled: their rows would
    pollute the epoch time-series, and nothing downstream consumes
    warmup cycles.  DRAM epochs logged during warmup are dropped too, so
    they cannot inflate the folded ``dram.queue_penalty_cycles``
    registry counter.  Component state persists.
    """
    if dram.epoch_log:
        dram.epoch_log.clear()
    if sampler is not None:
        sampler.restart()
    return _Window(traffic, *_metadata_counts(pf, triages))


def _metadata_counts(pf, triages) -> tuple:
    """``(metadata LLC accesses, metadata DRAM accesses)`` so far."""
    if isinstance(pf, HybridPrefetcher):
        metadata_dram = pf.total_metadata_dram_accesses
    else:
        metadata_dram = pf.metadata_dram_accesses if pf is not None else 0
    return sum(t.store.llc_accesses for t in triages), metadata_dram


def _partition_outcome(triages) -> tuple:
    """``(partition history, final metadata capacity)`` of a run."""
    partition_history = []
    final_capacity = None
    for triage in triages:
        if triage.controller is not None:
            partition_history = [
                d.capacity_bytes for d in triage.controller.decisions
            ]
        if not triage.store.unbounded:
            final_capacity = triage.metadata_capacity_bytes
    return partition_history, final_capacity


def _finish_run(
    trace, name, pf, triages, config, counters, cycles, traffic, window,
    warmup, degree, charge_llc, wall_start, engine, session, run, sim_span,
    dram, phases,
) -> SimulationResult:
    """Result, manifest and observability close-out of a run.

    ``traffic`` holds the run's total bytes by category; the result
    reports them, like every other count, net of the warmup ``window``.
    """
    workload = name or trace.name
    prefetcher = pf.name if pf is not None else "none"
    metadata_llc, metadata_dram = _metadata_counts(pf, triages)
    partition_history, final_capacity = _partition_outcome(triages)
    n = len(trace)
    instructions = (n - min(warmup, n)) * trace.instr_per_access
    manifest = build_manifest(
        kind="single",
        workloads=[workload],
        prefetcher=prefetcher,
        config=config,
        seeds=[trace.metadata.get("seed")],
        trace_length=n,
        warmup=warmup,
        instructions=instructions,
        cycles=cycles,
        wall_time_s=time.perf_counter() - wall_start,
        extra={
            "engine": engine,
            "degree": degree,
            "charge_metadata_to_llc": charge_llc,
        },
    )
    result = SimulationResult(
        workload=workload,
        prefetcher=prefetcher,
        instructions=instructions,
        cycles=cycles,
        counters=replace(counters),
        traffic={
            category: total - window.traffic.get(category, 0)
            for category, total in traffic.items()
        },
        metadata_llc_accesses=metadata_llc - window.metadata_llc,
        metadata_dram_accesses=metadata_dram - window.metadata_dram,
        final_metadata_capacity=final_capacity,
        partition_history=partition_history,
        manifest=manifest,
    )
    manifest.extra["kpis"] = result.kpis()
    if run is not None:
        _register_run_metrics(session, counters, triages)
        _register_dram_metrics(session, dram)
        _finish_sim_span(session, sim_span, phases=phases)
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
