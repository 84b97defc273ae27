"""Multi-core simulation: private L1/L2 per core, shared LLC and DRAM.

Follows the paper's multi-programmed methodology: each core runs its own
trace; cores that exhaust their trace restart it so every benchmark
observes contention for the whole run; Triage computes a per-core
metadata allocation (per-core controllers and stores) and the shared LLC
loses one data way per allocated metadata way.

Bandwidth is the shared resource that makes these runs interesting: all
cores drain the same 32 GB/s DRAM model, so high-traffic prefetchers
(MISB's metadata, BO's inaccurate prefetches) inflate everyone's memory
latency -- the mechanism behind Figures 11, 12 and 17.

:func:`simulate_multicore` runs on the flat engine of
:mod:`repro.sim.batched`: N cores from the same per-core builder as the
single-core driver, stepped round-robin over one shared flat LLC.  The
object-graph loop (:func:`_simulate_multicore_scalar`) serves only the
inputs the flat model cannot hold (a non-LRU LLC policy, an empty
trace, values beyond int64), with bit-identical results.
"""

from __future__ import annotations

import time
from dataclasses import replace
from heapq import heappop
from typing import List, Optional, Sequence

import numpy as np

from repro.memory.dram import DramModel
from repro.memory.hierarchy import CacheHierarchy, CoreCounters
from repro.obs import ObsSession
from repro.obs.manifest import build_manifest
from repro.prefetchers.base import BasePrefetcher
from repro.sim.batched import (
    _FlatLLC,
    _bail_reason,
    _build_core,
    _set_counts,
    _stride_schedule,
)
from repro.sim.config import MachineConfig
from repro.sim.factory import PrefetcherSpec, make_prefetcher
from repro.sim.single_core import (
    _MetadataPartition,
    _finish_sim_span,
    _metadata_counts,
    _observe,
    _partition_outcome,
    _register_dram_metrics,
    _register_run_metrics,
    make_l1_prefetcher,
    triage_components,
)
from repro.sim.stats import MultiCoreResult, SimulationResult
from repro.sim.timing import EpochLoad, resolve_epoch
from repro.workloads.base import Trace


def simulate_multicore(
    traces: Sequence[Trace],
    prefetcher: PrefetcherSpec = None,
    machine: Optional[MachineConfig] = None,
    degree: int = 1,
    accesses_per_core: Optional[int] = None,
    epoch_accesses: int = 2_000,
    charge_metadata_to_llc: bool = True,
    warmup_accesses_per_core: int = 0,
    obs: Optional[ObsSession] = None,
) -> MultiCoreResult:
    """Simulate one trace per core on a shared LLC + DRAM.

    ``prefetcher`` is instantiated once per core (each core trains its own
    prefetcher, as in ChampSim); Triage instances additionally share the
    LLC partition, with the data-way count tracking the *sum* of per-core
    metadata allocations.

    ``obs`` works as in :func:`repro.sim.single_core.simulate`: explicit
    session, else the globally enabled one, else uninstrumented.
    """
    wall_start = time.perf_counter()
    config, accesses_per_core = _check_args(traces, machine, accesses_per_core)
    n_cores = len(traces)
    steps = warmup_accesses_per_core + accesses_per_core
    streams = (
        _decode_streams(traces, steps) if _bail_reason(config) is None else None
    )
    if streams is None:
        return _simulate_multicore_scalar(
            traces, prefetcher, machine=machine, degree=degree,
            accesses_per_core=accesses_per_core,
            epoch_accesses=epoch_accesses,
            charge_metadata_to_llc=charge_metadata_to_llc,
            warmup_accesses_per_core=warmup_accesses_per_core, obs=obs,
        )

    prefetchers: List[Optional[BasePrefetcher]] = [
        make_prefetcher(prefetcher, degree=degree) for _ in range(n_cores)
    ]
    sets = _set_counts(config, n_cores)
    core_triages = [triage_components(pf) for pf in prefetchers]
    all_triages = [t for ts in core_triages for t in ts]
    llc = _FlatLLC(config, sets[2], all_triages, charge_metadata_to_llc)
    dram = DramModel(
        base_latency_cycles=config.dram_latency_cycles,
        bandwidth_bytes_per_cycle=config.dram_bandwidth_bytes_per_cycle,
    )
    stride = make_l1_prefetcher(config) is not None
    session, run, sim_span = _observe(
        obs, "+".join(t.name for t in traces), prefetchers[0], all_triages,
        dram, "batched-multi", wall_start,
    )
    # One instance handed to every core (a live-instance spec) cannot be
    # trained by per-core fused trainers: their local partition-epoch
    # and sample-table counts would split its statistics.
    built = [pf for pf in prefetchers if pf is not None]
    mirror_ok = len({id(pf) for pf in built}) == len(built)
    cores = [
        _build_core(config, llc, pf, triages, mirror_ok)
        for pf, triages in zip(prefetchers, core_triages)
    ]
    # Per core: [l1_hits, l2_hits, l2_prefetch_hits, llc_hits,
    # dram_accesses, l1pf_useful].  The stride schedule runs over the
    # wrapped stream: the prefetcher's table carries across laps.
    cnts = [[0] * 6 for _ in range(n_cores)]
    lanes = [
        (
            lines, pcs, ws,
            _stride_schedule(lines, pcs, config.l1_prefetcher_degree)
            if stride else None,
            core.l1, core.l2, core.insert_l1, core.train, cnt,
        )
        for (lines, pcs, ws), core, cnt in zip(streams, cores, cnts)
    ]
    m1, m2, m3 = sets[0] - 1, sets[1] - 1, llc.mask
    w1, w2 = config.l1_ways, config.l2_ways
    L3 = llc.sets
    free3 = llc.free

    counters = [CoreCounters() for _ in range(n_cores)]
    per_core_cycles = [0.0] * n_cores
    prev = [(0, 0, 0)] * n_cores  # (l2_hits, llc_hits, dram_accesses)
    prev_store = [(0, 0)] * n_cores  # (lookups, hits) per core
    metadata_offset = [0] * n_cores
    prev_bytes = 0
    t_demand = t_writeback = 0  # demand-path bytes
    acc = in_epoch = 0
    # Warmup epochs are never resolved or sampled, as in the single-core
    # engine.
    in_warmup = warmup_accesses_per_core > 0
    traffic_offset: dict = {}

    def traffic_totals() -> dict:
        """Off-chip bytes by category: demand path, cores and partition."""
        totals = {
            "demand": t_demand,
            "prefetch": 0,
            "writeback": t_writeback + llc.writeback,
            "metadata": 0,
        }
        for core in cores:
            t_pf, t_wb, t_md = core.traffic()
            totals["prefetch"] += t_pf
            totals["writeback"] += t_wb
            totals["metadata"] += t_md
        return totals

    def sync_all() -> None:
        for c, cnt, core in zip(counters, cnts, cores):
            c.accesses = acc
            (
                c.l1_hits, c.l2_hits, c.l2_prefetch_hits,
                c.llc_hits, c.dram_accesses, c.l1pf_useful,
            ) = cnt
            core.sync(c)

    def close_epoch() -> None:
        nonlocal prev_bytes, in_epoch
        if in_epoch == 0:
            return
        total_bytes = sum(traffic_totals().values())
        if not in_warmup:
            loads = [
                EpochLoad(
                    instructions=in_epoch * trace.instr_per_access,
                    l2_hits=cnt[1] - snap[0],
                    llc_hits=cnt[3] - snap[1],
                    dram_accesses=cnt[4] - snap[2],
                    mlp=trace.mlp,
                )
                for trace, cnt, snap in zip(traces, cnts, prev)
            ]
            epoch_bytes = total_bytes - prev_bytes
            cycles = resolve_epoch(loads, epoch_bytes, config, dram)
            for core in range(n_cores):
                per_core_cycles[core] += cycles[core]
            if run is not None:
                sync_all()
                _sample_epoch(
                    session, run, dram, config, core_triages, prev_store,
                    llc.active, loads, epoch_bytes, cycles,
                )
        prev[:] = [(cnt[1], cnt[3], cnt[4]) for cnt in cnts]
        prev_bytes = total_bytes
        in_epoch = 0

    def warmup_reset() -> None:
        # Paper: "we warm the cache ... and measure the behavior of the
        # next N instructions".  Component state persists.
        nonlocal acc, in_epoch, in_warmup, prev_bytes, traffic_offset
        sync_all()
        for core in range(n_cores):
            cnts[core][:] = [0] * 6
            cores[core].reset()
            prev[core] = (0, 0, 0)
            per_core_cycles[core] = 0.0
            metadata_offset[core] = cores[core].traffic()[2]
            prev_store[core] = (
                sum(t.store.lookups for t in core_triages[core]),
                sum(t.store.lookup_hits for t in core_triages[core]),
            )
        acc = 0
        traffic_offset = traffic_totals()
        prev_bytes = sum(traffic_offset.values())
        in_epoch = 0
        in_warmup = False
        if dram.epoch_log:
            dram.epoch_log.clear()

    step = 0
    w_pending = warmup_accesses_per_core > 0
    while step < steps:
        if w_pending and step == warmup_accesses_per_core:
            warmup_reset()
            w_pending = False
        stop = step + max(1, epoch_accesses - in_epoch)
        if stop > steps:
            stop = steps
        if w_pending and stop > warmup_accesses_per_core:
            stop = warmup_accesses_per_core
        td, tw = _run_lanes(step, stop, lanes, L3, free3, m1, m2, m3, w1, w2)
        t_demand += td
        t_writeback += tw
        acc += stop - step
        in_epoch += stop - step
        if in_epoch >= epoch_accesses:
            close_epoch()
        step = stop
    close_epoch()
    sync_all()
    llc.detach()
    loop_seconds = time.perf_counter() - wall_start
    if session is not None and session.profiler is not None:
        session.profiler.add("batched_core", loop_seconds, calls=n_cores * steps)

    totals = traffic_totals()
    return _finish_run(
        traces, prefetchers, core_triages, counters, per_core_cycles,
        [core.traffic()[2] - off for core, off in zip(cores, metadata_offset)],
        {c: totals[c] - traffic_offset.get(c, 0) for c in totals},
        config, accesses_per_core, warmup_accesses_per_core, degree,
        wall_start, "batched", session, run, sim_span, dram,
        (("batched_core", loop_seconds),),
    )


def _run_lanes(
    a: int,
    b: int,
    lanes: list,
    L3: List[dict],
    free3: List[list],
    m1: int,
    m2: int,
    m3: int,
    w1: int,
    w2: int,
) -> tuple:
    """Round-robin demand path for steps ``[a, b)`` of every core.

    The multi-core twin of :func:`repro.sim.batched._run_segment`: each
    step runs one access per lane, in core order, on the lane's private
    L1/L2 and the shared LLC, then its L1 stride prefetches and its L2
    trainer.  The driver sizes segments so no epoch or warmup boundary
    falls inside.  Level counts accumulate in each lane's counter list;
    returns the segment's ``(demand, writeback)`` bytes.
    """
    td = tw = 0
    for i in range(a, b):
        for lines, pcs, ws, sched, L1, L2, insert_l1, train, cnt in lanes:
            line = lines[i]
            w = ws[i]
            tr = 0  # 0 no training event; 1 prefetch_hit False; 2 True
            d1 = L1[line & m1]
            v = d1.pop(line, None)
            if v is not None:
                cnt[0] += 1
                d1[line] = v | w
            else:
                d2 = L2[line & m2]
                v2 = d2.pop(line, None)
                if v2 is not None:
                    cnt[1] += 1
                    kd = v2 >> 1
                    if kd == 2:
                        cnt[2] += 1
                        tr = 2
                    elif kd == 1:
                        cnt[5] += 1
                        tr = 1
                    d2[line] = (v2 & 1) | w
                else:
                    tr = 1
                    s3 = line & m3
                    d3 = L3[s3]
                    v3 = d3.pop(line, None)
                    if v3 is not None:
                        cnt[3] += 1
                        d3[line] = v3
                    else:
                        cnt[4] += 1
                        td += 64
                        fr = free3[s3]
                        if fr:
                            way3 = heappop(fr)
                        else:
                            ol, ov = next(iter(d3.items()))
                            del d3[ol]
                            way3 = ov >> 1
                            if ov & 1:
                                tw += 64
                        d3[line] = way3 << 1
                    if len(d2) == w2:
                        ol, ov = next(iter(d2.items()))
                        del d2[ol]
                        if ov & 1:
                            dd = L3[ol & m3]
                            vv = dd.get(ol)
                            if vv is not None:
                                dd[ol] = vv | 1
                            else:
                                tw += 64
                    d2[line] = +w
                if len(d1) == w1:
                    ol, ov = next(iter(d1.items()))
                    del d1[ol]
                    if ov & 1:
                        dd = L2[ol & m2]
                        vv = dd.get(ol)
                        if vv is not None:
                            dd[ol] = vv | 1
                        else:
                            dd = L3[ol & m3]
                            vv = dd.get(ol)
                            if vv is not None:
                                dd[ol] = vv | 1
                            else:
                                tw += 64
                d1[line] = +w
            if sched is not None:
                cand = sched[i]
                if cand is not None:
                    for t_ in cand:
                        insert_l1(t_)
            if tr and train is not None:
                train(pcs[i], line, tr == 2)
    return td, tw


def _check_args(traces, machine, accesses_per_core) -> tuple:
    """Validated ``(config, accesses_per_core)`` for a multi-core run."""
    n_cores = len(traces)
    if n_cores == 0:
        raise ValueError("need at least one trace")
    config = machine or MachineConfig.multi_core(n_cores)
    if config.n_cores != n_cores:
        raise ValueError(
            f"machine is configured for {config.n_cores} cores, got {n_cores} traces"
        )
    if accesses_per_core is None:
        accesses_per_core = min(len(t) for t in traces)
    return config, accesses_per_core


def _decode_streams(traces: Sequence[Trace], steps: int) -> Optional[list]:
    """Each core's ``(lines, pcs, writes)`` for ``steps`` accesses.

    A core that exhausts its trace restarts it, so each stream is its
    trace repeated cyclically (or cut) to ``steps`` entries.  None when
    the flat model cannot take the input: an empty trace that must be
    stepped, or values beyond int64.
    """
    streams = []
    for trace in traces:
        if steps and not len(trace):
            return None
        try:
            line_arr = np.asarray(trace.addrs, dtype=np.int64) >> 6
            pc_arr = np.asarray(trace.pcs, dtype=np.int64)
        except OverflowError:
            return None
        write_arr = np.asarray(trace.writes, dtype=np.bool_)
        streams.append(tuple(
            np.resize(arr, steps).tolist()
            for arr in (line_arr, pc_arr, write_arr)
        ))
    return streams


def _sample_epoch(
    session, run, dram, config, core_triages, prev_store, llc_data_ways,
    loads, epoch_bytes, cycles,
) -> None:
    """One epoch row: the per-core way split the paper plots (Fig 15/19)."""
    dram_info = dram.epoch_log[-1] if dram.epoch_log else {}
    row = {
        "epoch_bytes": epoch_bytes,
        "llc_data_ways": llc_data_ways,
        "dram_utilization": dram_info.get("utilization", 0.0),
        "dram_queue_penalty_cycles": dram_info.get("queue_penalty_cycles", 0.0),
    }
    for core, triages in enumerate(core_triages):
        prefix = f"c{core}."
        row[prefix + "cycles"] = cycles[core]
        row[prefix + "dram_accesses"] = loads[core].dram_accesses
        lookups = sum(t.store.lookups for t in triages)
        hits = sum(t.store.lookup_hits for t in triages)
        d_lookups = lookups - prev_store[core][0]
        d_hits = hits - prev_store[core][1]
        prev_store[core] = (lookups, hits)
        capacity = sum(
            t.store.capacity_bytes for t in triages if not t.store.unbounded
        )
        row[prefix + "meta_capacity_bytes"] = capacity
        row[prefix + "meta_ways"] = config.metadata_ways(capacity)
        row[prefix + "meta_hit_rate"] = d_hits / d_lookups if d_lookups else 0.0
    session.registry.histogram("dram.epoch_utilization_pct").observe(
        int(row["dram_utilization"] * 100)
    )
    run.sample_epoch(**row)


def _finish_run(
    traces, prefetchers, core_triages, counters, per_core_cycles,
    per_core_metadata_bytes, traffic, config, accesses_per_core, warmup,
    degree, wall_start, engine, session, run, sim_span, dram, phases,
) -> MultiCoreResult:
    """Per-core results, manifest and observability close-out of a run."""
    prefetcher = prefetchers[0].name if prefetchers[0] is not None else "none"
    per_core_results = []
    for core, (pf, triages) in enumerate(zip(prefetchers, core_triages)):
        metadata_llc, metadata_dram = _metadata_counts(pf, triages)
        core_counters = counters[core]
        partition_history, final_capacity = _partition_outcome(triages)
        per_core_results.append(
            SimulationResult(
                workload=traces[core].name,
                prefetcher=pf.name if pf is not None else "none",
                instructions=accesses_per_core * traces[core].instr_per_access,
                cycles=per_core_cycles[core],
                counters=replace(core_counters),
                traffic={
                    "demand": core_counters.dram_accesses * 64,
                    "prefetch": core_counters.prefetch_fills_from_dram * 64,
                    "writeback": 0,
                    "metadata": per_core_metadata_bytes[core],
                },
                metadata_llc_accesses=metadata_llc,
                metadata_dram_accesses=metadata_dram,
                final_metadata_capacity=final_capacity,
                partition_history=partition_history,
            )
        )
    manifest = build_manifest(
        kind="multi",
        workloads=[t.name for t in traces],
        prefetcher=prefetcher,
        config=config,
        seeds=[t.metadata.get("seed") for t in traces],
        trace_length=accesses_per_core,
        warmup=warmup,
        instructions=sum(r.instructions for r in per_core_results),
        cycles=max(r.cycles for r in per_core_results),
        wall_time_s=time.perf_counter() - wall_start,
        extra={"engine": engine, "n_cores": len(traces), "degree": degree},
    )
    result = MultiCoreResult(
        workloads=[t.name for t in traces],
        prefetcher=prefetcher,
        per_core=per_core_results,
        traffic=traffic,
        manifest=manifest,
    )
    manifest.extra["kpis"] = result.kpis()
    if run is not None:
        for core_counters, triages in zip(counters, core_triages):
            _register_run_metrics(session, core_counters, triages)
        _register_dram_metrics(session, dram)
        _finish_sim_span(session, sim_span, phases=phases)
        run.finish(manifest)
    return result


def _simulate_multicore_scalar(
    traces: Sequence[Trace],
    prefetcher: PrefetcherSpec = None,
    machine: Optional[MachineConfig] = None,
    degree: int = 1,
    accesses_per_core: Optional[int] = None,
    epoch_accesses: int = 2_000,
    charge_metadata_to_llc: bool = True,
    warmup_accesses_per_core: int = 0,
    obs: Optional[ObsSession] = None,
) -> MultiCoreResult:
    """The object-graph multi-core loop (``Cache``/``CacheHierarchy``).

    Same contract as :func:`simulate_multicore`, which falls back to it
    for configurations outside the flat model; the differential tests
    use it as the reference.
    """
    wall_start = time.perf_counter()
    config, accesses_per_core = _check_args(traces, machine, accesses_per_core)
    n_cores = len(traces)

    prefetchers: List[Optional[BasePrefetcher]] = [
        make_prefetcher(prefetcher, degree=degree) for _ in range(n_cores)
    ]
    hierarchy = CacheHierarchy(
        n_cores=n_cores,
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
    core_triages = [triage_components(pf) for pf in prefetchers]
    all_triages = [t for triages in core_triages for t in triages]
    _MetadataPartition(hierarchy, config, all_triages, charge_metadata_to_llc)
    l1pfs = [make_l1_prefetcher(config) for _ in range(n_cores)]

    session, run, sim_span = _observe(
        obs, "+".join(t.name for t in traces), prefetchers[0], all_triages,
        dram, "analytic-multi", wall_start,
    )
    prev_store = [(0, 0) for _ in range(n_cores)]  # (lookups, hits) per core

    records = [list(t) for t in traces]
    positions = [0] * n_cores
    per_core_metadata_bytes = [0] * n_cores
    per_core_cycles = [0.0] * n_cores
    prev_counters = [(0, 0, 0)] * n_cores
    prev_bytes = 0
    accesses_in_epoch = 0
    # As in the single-core engine: warmup epochs are never resolved or
    # sampled, so warmup rows stay out of the epoch time-series and
    # ``dram.epoch_log`` holds only measured-window entries.
    in_warmup = warmup_accesses_per_core > 0
    traffic_offset: dict = {}

    def close_epoch() -> None:
        nonlocal prev_counters, prev_bytes, accesses_in_epoch
        if accesses_in_epoch == 0:
            return
        if in_warmup:
            for core in range(n_cores):
                counters = hierarchy.counters[core]
                prev_counters[core] = (
                    counters.l2_hits,
                    counters.llc_hits,
                    counters.dram_accesses,
                )
            prev_bytes = hierarchy.traffic.total_bytes
            accesses_in_epoch = 0
            return
        loads = []
        for core in range(n_cores):
            counters = hierarchy.counters[core]
            snap = prev_counters[core]
            loads.append(
                EpochLoad(
                    instructions=accesses_in_epoch * traces[core].instr_per_access,
                    l2_hits=counters.l2_hits - snap[0],
                    llc_hits=counters.llc_hits - snap[1],
                    dram_accesses=counters.dram_accesses - snap[2],
                    mlp=traces[core].mlp,
                )
            )
        epoch_bytes = hierarchy.traffic.total_bytes - prev_bytes
        cycles = resolve_epoch(loads, epoch_bytes, config, dram)
        for core in range(n_cores):
            per_core_cycles[core] += cycles[core]
            counters = hierarchy.counters[core]
            prev_counters[core] = (
                counters.l2_hits,
                counters.llc_hits,
                counters.dram_accesses,
            )
        if run is not None:
            _sample_epoch(
                session, run, dram, config, core_triages, prev_store,
                hierarchy.llc.active_ways, loads, epoch_bytes, cycles,
            )
        prev_bytes = hierarchy.traffic.total_bytes
        accesses_in_epoch = 0

    prof = session.profiler if session is not None else None
    profiling = prof is not None
    t_stream = t_l1pf = t_l2pf = 0.0
    t0 = 0.0
    for step in range(warmup_accesses_per_core + accesses_per_core):
        if step == warmup_accesses_per_core and warmup_accesses_per_core > 0:
            # Warmup ends (paper: "we warm the cache ... and measure the
            # behavior of the next N instructions").
            for core in range(n_cores):
                hierarchy.counters[core] = type(hierarchy.counters[core])()
                prev_counters[core] = (0, 0, 0)
                per_core_cycles[core] = 0.0
                per_core_metadata_bytes[core] = 0
            prev_bytes = hierarchy.traffic.total_bytes
            traffic_offset = hierarchy.traffic.snapshot()
            accesses_in_epoch = 0
            in_warmup = False
            if dram.epoch_log:
                dram.epoch_log.clear()
            for core in range(n_cores):
                prev_store[core] = (
                    sum(t.store.lookups for t in core_triages[core]),
                    sum(t.store.lookup_hits for t in core_triages[core]),
                )
        for core in range(n_cores):
            core_records = records[core]
            pc, addr, is_write = core_records[positions[core]]
            positions[core] = (positions[core] + 1) % len(core_records)
            if profiling:
                t0 = time.perf_counter()
            event = hierarchy.access(core, pc, addr, is_write)
            if profiling:
                t_stream += time.perf_counter() - t0
            l1pf = l1pfs[core]
            if l1pf is not None:
                if profiling:
                    t0 = time.perf_counter()
                for candidate in l1pf.observe(pc, event.line):
                    hierarchy.prefetch(core, candidate.line, pc, kind="l1")
                if profiling:
                    t_l1pf += time.perf_counter() - t0
            pf = prefetchers[core]
            # Inlined event.trains_l2_prefetcher (property call per access).
            if pf is not None and (
                event.prefetch_hit_kind is not None
                or event.hit_level in ("llc", "dram")
            ):
                if profiling:
                    t0 = time.perf_counter()
                candidates = pf.observe(
                    event.pc, event.line,
                    prefetch_hit=event.prefetch_hit_kind == "l2",
                )
                for candidate in candidates:
                    source = hierarchy.prefetch(core, candidate.line, event.pc)
                    owner = candidate.owner or pf
                    owner.feedback(candidate, source)
                metadata_bytes = pf.drain_metadata_traffic()
                if metadata_bytes:
                    hierarchy.traffic.add("metadata", metadata_bytes)
                    per_core_metadata_bytes[core] += metadata_bytes
                if profiling:
                    t_l2pf += time.perf_counter() - t0
        accesses_in_epoch += 1
        if accesses_in_epoch >= epoch_accesses:
            close_epoch()
    close_epoch()
    if profiling:
        # "metadata_store" (timed inside TriagePrefetcher.observe) is a
        # sub-slice of "l2_stream"/"l2_prefetcher", not an extra share.
        total_accesses = n_cores * (warmup_accesses_per_core + accesses_per_core)
        prof.add("l2_stream", t_stream, calls=total_accesses)
        if any(l1pf is not None for l1pf in l1pfs):
            prof.add("l1_prefetcher", t_l1pf)
        if any(pf is not None for pf in prefetchers):
            prof.add("l2_prefetcher", t_l2pf)

    traffic = {
        category: total - traffic_offset.get(category, 0)
        for category, total in hierarchy.traffic.snapshot().items()
    }
    return _finish_run(
        traces, prefetchers, core_triages, hierarchy.counters,
        per_core_cycles, per_core_metadata_bytes, traffic, config,
        accesses_per_core, warmup_accesses_per_core, degree, wall_start,
        "analytic", session, run, sim_span, dram,
        (
            ("l2_stream", t_stream),
            ("l1_prefetcher", t_l1pf),
            ("l2_prefetcher", t_l2pf),
        ),
    )
