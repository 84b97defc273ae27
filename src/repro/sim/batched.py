"""Flat struct-of-arrays building blocks of the simulation engines.

:func:`repro.sim.single_core.simulate` and
:func:`repro.sim.multi_core.simulate_multicore` both step cores built
by :func:`_build_core` over a :class:`_FlatLLC`; the demand path of one
core is :func:`_run_segment`, its L1 stride prefetches a precomputed
:func:`_stride_schedule`.  Results are **bit-identical** to the
object-graph loops the drivers keep as their reference and fallback
(same counters, traffic, cycles, metadata statistics and partition
history) while running several times faster.  The speed comes from
four structural changes, none of which alters simulated behaviour:

* **Trace pre-decode** -- the byte-address/PC/is-write streams are
  decoded once up front with ``numpy`` (line addresses, run-length
  analysis) instead of per access.
* **Flat dict caches** -- each cache set becomes a plain insertion-
  ordered ``dict`` whose order *is* the LRU order (hits re-insert, the
  victim is ``next(iter(set_dict))``), collapsing the object engine's
  Cache/policy/CacheLine object machinery into a handful of dict ops.
  LLC values carry their way id so Triage's way partitioning can evict
  exactly the deactivated ways, like ``Cache.set_active_ways``.
* **Run-length bulk blocks** -- consecutive repeats of the same
  ``(pc, line, is_write)`` triple after the first access are pure L1
  hits with no state change beyond three counters; the single-core
  pre-decode finds these streaks and the driver skips them in O(1) per
  epoch-bounded chunk.
* **Fused prefetcher trainers** -- Triage and Triangel (every store
  policy, index mode and ablation), Best-Offset and SMS train through
  flattened closures that work on the *real* component objects, so
  observable state (and therefore any later generic-path interaction,
  resize, or event emission) stays exactly as the object engine would
  leave it.  The Triage family's trainers make the same metadata-store
  calls as ``TriagePrefetcher.observe``/``feedback`` (the store is
  flat and slot-indexed itself) and only flatten the glue around
  them: training unit, partition-controller sampling, Triangel's
  sample table.  Anything else -- hybrids, MISB, the utility
  partition controller, a Triage instance shared by several cores --
  trains through the components' own ``observe``/``feedback``, still
  several times faster than the object engine because the demand path
  is flat.  Profiled runs keep the fused trainers; their time is filed
  under the single ``batched_core`` phase (``metadata_store`` is only
  timed on the ``observe`` path, as a sub-slice of ``batched_core``).

The flat LLC is LRU only: a run with another LLC policy takes the
object-graph loop (:func:`_bail_reason`).  Geometry the object engine
rejects raises its own error here too (:func:`_set_counts`).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, List, NamedTuple, Optional

from repro.core.partition import PartitionController
from repro.core.triage import TriagePrefetcher
from repro.memory.cache import set_count
from repro.memory.hierarchy import CoreCounters
from repro.prefetchers.base import BasePrefetcher
from repro.prefetchers.best_offset import BestOffsetPrefetcher
from repro.prefetchers.sms import SmsPrefetcher
from repro.prefetchers.triangel import SampleEntry, TriangelPrefetcher
from repro.sim.config import MachineConfig
from repro.workloads.base import Trace


def _bail_reason(config: MachineConfig) -> Optional[str]:
    """Why this config needs the object engine (None = flat is fine)."""
    if config.llc_policy != "lru":
        return "non-LRU LLC policy"
    return None


def _set_counts(config: MachineConfig, n_cores: int) -> tuple:
    """``(L1, L2, LLC)`` set counts of ``n_cores`` cores' caches.

    Raises the ``Cache`` constructor's error unless each is a positive
    power of two, as the object engine does.
    """
    return (
        set_count("L1D0", config.l1_size, config.l1_ways),
        set_count("L2_0", config.l2_size, config.l2_ways),
        set_count("LLC", config.llc_size_per_core * n_cores, config.llc_ways),
    )


def _stride_schedule(
    lines: List[int], pcs: List[int], deg: int
) -> List[Optional[tuple]]:
    """Replay the L1 stride prefetcher over an access stream.

    The stride prefetcher's state depends only on the access stream, not
    on cache contents, so its whole candidate schedule can be computed
    up front.  Entry ``i`` is a tuple of target lines the object
    :class:`~repro.prefetchers.stride.StridePrefetcher` would emit at
    access ``i`` (``None`` when it emits nothing).
    """
    st: dict = {}
    out: List[Optional[tuple]] = []
    ap = out.append
    for pc, line in zip(pcs, lines):
        e = st.get(pc)
        if e is None:
            if len(st) >= 256:  # StridePrefetcher default table_size
                del st[next(iter(st))]
            st[pc] = [line, 0, 0]  # [last_line, stride, confidence]
            ap(None)
            continue
        del st[pc]
        st[pc] = e
        stride = line - e[0]
        if not stride:
            ap(None)
            continue
        if stride == e[1]:
            if e[2] < 3:
                e[2] += 1
        else:
            e[2] -= 1
            if e[2] <= 0:
                e[1] = stride
                e[2] = 1
        e[0] = line
        if e[2] >= 2 and e[1]:
            s_ = e[1]
            cand = tuple(
                t_
                for t_ in (line + s_ * j_ for j_ in range(1, deg + 1))
                if t_ > 0
            )
            ap(cand if cand else None)
        else:
            ap(None)
    return out


def _l1_schedule(
    trace: Trace, lines: List[int], pcs: List[int], deg: int
) -> List[Optional[tuple]]:
    """Per-head L1 stride-prefetch candidates of one lap, cached on the trace.

    ``lines``/``pcs`` are the trace's run heads (accesses that do not
    repeat their predecessor).  Sweeps run every prefetcher config over
    the same traces, so the schedule is computed once per
    ``(trace, degree)``.  Repeated accesses are exact no-ops for the
    table (the entry is already most-recent and a zero stride changes
    nothing), so heads suffice.
    """
    cached = getattr(trace, "_batched_l1pf", None)
    if (
        cached is not None
        and cached[0] == deg
        and len(cached[1]) == len(lines)
    ):
        return cached[1]
    out = _stride_schedule(lines, pcs, deg)
    try:
        trace._batched_l1pf = (deg, out)
    except Exception:  # noqa: BLE001 -- slots-style traces: just recompute
        pass
    return out


def _run_segment(
    a: int,
    b: int,
    pcs: List[int],
    lines: List[int],
    ws: List[bool],
    sched: Optional[List[Optional[tuple]]],
    L1: List[dict],
    L2: List[dict],
    L3: List[dict],
    free3: List[list],
    m1: int,
    m2: int,
    m3: int,
    w1: int,
    w2: int,
    insert_l1,
    train,
) -> tuple:
    """Demand path for run heads ``[a, b)`` with no epoch/warmup checks.

    The arrays hold a trace's run heads (accesses that do not repeat
    their predecessor), with ``sched`` their L1 stride prefetches.  The
    driver sizes segments so no epoch or warmup boundary falls inside
    ``[a, b)``; the body then runs with true local counters and
    returns them as *deltas* -- the trainer closures keep mutating the
    engine's own traffic cells, and addition commutes, so the caller can
    fold the deltas in afterwards without lost updates.

    Returns ``(l1_hits, l2_hits, l2_prefetch_hits, llc_hits,
    dram_accesses, l1pf_useful, demand_bytes, writeback_bytes)``.
    """
    l1h = l2h = l2ph = llch = dramc = l1u = td = tw = 0
    for i in range(a, b):
        line = lines[i]
        w = ws[i]
        tr = 0  # 0 no training event; 1 prefetch_hit False; 2 True
        d1 = L1[line & m1]
        v = d1.pop(line, None)
        if v is not None:
            l1h += 1
            d1[line] = v | w
        else:
            d2 = L2[line & m2]
            v2 = d2.pop(line, None)
            if v2 is not None:
                l2h += 1
                kd = v2 >> 1
                if kd == 2:
                    l2ph += 1
                    tr = 2
                elif kd == 1:
                    l1u += 1
                    tr = 1
                d2[line] = (v2 & 1) | w
            else:
                tr = 1
                s3 = line & m3
                d3 = L3[s3]
                v3 = d3.pop(line, None)
                if v3 is not None:
                    llch += 1
                    d3[line] = v3
                else:
                    dramc += 1
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
    return (l1h, l2h, l2ph, llch, dramc, l1u, td, tw)


class _FlatLLC:
    """The flat shared LLC and the Triage way partition over it.

    ``sets`` are per-set plain dicts whose insertion order is the LRU
    order, with values ``way << 1 | dirty`` so partitioning can evict
    exactly the deactivated ways, like ``Cache.set_active_ways``;
    ``free`` holds each set's unused ways as a min-heap.  ``triages`` is
    every Triage component of every core sharing the LLC: the data-way
    count tracks the *sum* of their metadata allocations.
    """

    def __init__(
        self,
        config: MachineConfig,
        n_sets: int,
        triages: List[TriagePrefetcher],
        charge_llc: bool,
    ):
        self.config = config
        self.sets = [dict() for _ in range(n_sets)]
        # Ascending lists are valid heaps.
        self.free = [list(range(config.llc_ways)) for _ in range(n_sets)]
        self.mask = n_sets - 1
        self.active = config.llc_ways
        #: Bytes of dirty lines flushed by partition shrinks.
        self.writeback = 0
        self.triages = triages
        self.charge_llc = charge_llc
        self._own_hooks = [t.on_partition_change for t in triages]
        for t in triages:
            t.on_partition_change = self.apply_partition
        self.apply_partition()

    def detach(self) -> None:
        """Give every Triage component back the hook it had before.

        Called when a run ends.  The hooks tie the components and the
        LLC into reference cycles; cutting them lets both be freed by
        reference counting instead of lingering until the cycle
        collector runs, which holds a mix's stores in memory for several
        cells.
        """
        for t, hook in zip(self.triages, self._own_hooks):
            t.on_partition_change = hook

    def apply_partition(self, _capacity=None) -> None:
        if not self.charge_llc:
            return
        config = self.config
        meta_bytes = sum(
            t.metadata_capacity_bytes
            for t in self.triages
            if not t.store.unbounded
        )
        data_ways = config.llc_ways - config.metadata_ways(meta_bytes)
        if data_ways < 1:
            raise ValueError("metadata would consume the entire LLC")
        active = self.active
        if data_ways == active:
            return
        if data_ways < active:
            free3 = self.free
            for s, d3 in enumerate(self.sets):
                stale = [
                    (ln, v_) for ln, v_ in d3.items() if (v_ >> 1) >= data_ways
                ]
                for ln, v_ in stale:
                    del d3[ln]
                    if v_ & 1:
                        self.writeback += 64
                fr = [w_ for w_ in free3[s] if w_ < data_ways]
                heapify(fr)
                free3[s] = fr
        else:
            for fr in self.free:
                for w_ in range(active, data_ways):
                    heappush(fr, w_)
        self.active = data_ways


class _FlatCore(NamedTuple):
    """One core's flat private caches and L2-prefetcher wiring."""

    l1: List[dict]
    l2: List[dict]
    #: ``insert_l1(line)``: the L1 stride prefetcher's fill into L2.
    insert_l1: Callable[[int], None]
    #: ``train(pc, line, prefetch_hit)`` on every L2-miss / prefetch-hit
    #: event; None without an L2 prefetcher.
    train: Optional[Callable[[int, int, bool], None]]
    #: ``sync(counters)`` writes the prefetch-side counters into
    #: ``counters`` and the trainer's local partition-epoch and
    #: sample-table counts into the real components.
    sync: Callable[[CoreCounters], None]
    #: ``reset()`` zeroes the prefetch-side counters (warmup boundary).
    reset: Callable[[], None]
    #: ``traffic()`` -> ``(prefetch, writeback, metadata)`` bytes caused
    #: by this core's prefetches and prefetcher, since construction.
    traffic: Callable[[], tuple]


def _build_core(
    config: MachineConfig,
    llc: _FlatLLC,
    pf: Optional[BasePrefetcher],
    triages: List[TriagePrefetcher],
    mirror_ok: bool = True,
) -> _FlatCore:
    """One core's private flat L1/L2 over ``llc``, with its trainer.

    Shared by the single- and multi-core drivers.  L1/L2 values are
    ``prefetched_kind << 1 | dirty`` (kind: 0 none, 1 "l1", 2 "l2").  The
    core owns its prefetch-side counters; demand counters belong to the
    driver, which runs the demand path inline.  Build it after
    observability is attached: the trainers capture the components'
    event hooks.  ``mirror_ok=False`` (one component instance shared by
    several cores, whose partition-epoch and sample-table counts the
    per-core trainers would split) trains the Triage family through
    ``observe``/``feedback``.
    """
    ns1 = config.l1_size // (64 * config.l1_ways)
    ns2 = config.l2_size // (64 * config.l2_ways)
    m2 = ns2 - 1
    w2 = config.l2_ways
    L1 = [dict() for _ in range(ns1)]
    L2 = [dict() for _ in range(ns2)]
    L3 = llc.sets
    free3 = llc.free
    m3 = llc.mask
    pf_iss = pf_red = pf_llc = pf_dram = 0
    l1_iss = l1_red = l1_dram = 0
    t_prefetch = t_writeback = t_metadata = 0

    # ---- flat prefetch insertion (hierarchy.prefetch, kind="l2") -------
    def insert_l2_prefetch(t_line: int) -> str:
        nonlocal pf_iss, pf_red, pf_llc, pf_dram, t_prefetch, t_writeback
        d2 = L2[t_line & m2]
        if t_line in d2:
            pf_red += 1
            return "redundant"
        pf_iss += 1
        s3 = t_line & m3
        d3 = L3[s3]
        if t_line in d3:
            pf_llc += 1
            source = "llc"
        else:
            pf_dram += 1
            t_prefetch += 64
            fr = free3[s3]
            if fr:
                way3 = heappop(fr)
            else:
                ol, ov = next(iter(d3.items()))
                del d3[ol]
                way3 = ov >> 1
                if ov & 1:
                    t_writeback += 64
            d3[t_line] = way3 << 1
            source = "dram"
        if len(d2) == w2:
            ol, ov = next(iter(d2.items()))
            del d2[ol]
            if ov & 1:
                dd = L3[ol & m3]
                vv = dd.get(ol)
                if vv is not None:
                    dd[ol] = vv | 1
                else:
                    t_writeback += 64
        d2[t_line] = 4  # prefetched kind "l2", clean
        return source

    def insert_l1_prefetch(t_line: int) -> None:
        nonlocal l1_iss, l1_red, l1_dram, t_prefetch, t_writeback
        d2 = L2[t_line & m2]
        if t_line in d2:
            l1_red += 1
            return
        l1_iss += 1
        s3 = t_line & m3
        d3 = L3[s3]
        if t_line not in d3:
            l1_dram += 1
            t_prefetch += 64
            fr = free3[s3]
            if fr:
                way3 = heappop(fr)
            else:
                ol, ov = next(iter(d3.items()))
                del d3[ol]
                way3 = ov >> 1
                if ov & 1:
                    t_writeback += 64
            d3[t_line] = way3 << 1
        if len(d2) == w2:
            ol, ov = next(iter(d2.items()))
            del d2[ol]
            if ov & 1:
                dd = L3[ol & m3]
                vv = dd.get(ol)
                if vv is not None:
                    dd[ol] = vv | 1
                else:
                    t_writeback += 64
        d2[t_line] = 2  # prefetched kind "l1", clean

    # ---- fused prefetcher trainers -------------------------------------
    # ``train(pc, line, prefetch_hit)`` is called on every L2-miss /
    # prefetch-hit event.  The fused closures follow the components'
    # observe/feedback paths exactly.  The Triage family's metadata store
    # is only ever reached through its own methods (the calls
    # ``TriagePrefetcher.observe``/``feedback`` make); what is flattened
    # here is the glue around it: the training unit, the partition
    # controller's sampling and epoch count, and Triangel's sample table.
    # The controller's epoch count and Triangel's sample statistics live
    # in local ints and are written back by ``sync``.
    fused_triage = False
    fused_ctrl = None
    fused_triangel = False
    ctrl_acc = 0
    tg_hits = tg_matches = tg_skipped = 0

    def generic_train(pc_: int, line_: int, ph_: bool) -> None:
        nonlocal t_metadata
        for candidate in pf.observe(pc_, line_, prefetch_hit=ph_):
            source = insert_l2_prefetch(candidate.line)
            owner = candidate.owner or pf
            owner.feedback(candidate, source)
        metadata_bytes = pf.drain_metadata_traffic()
        if metadata_bytes:
            t_metadata += metadata_bytes

    train = None
    if pf is not None:
        train = generic_train
        ctrl = triages[0].controller if triages else None
        triage_ok = (
            mirror_ok
            and len(triages) == 1
            and triages[0] is pf
            and type(pf) in (TriagePrefetcher, TriangelPrefetcher)
            and pf._pending_capacity is None
            and (ctrl is None or type(ctrl) is PartitionController)
        )
        if triage_ok:
            store = pf.store
            lookup = store.lookup
            learn = store.update if pf.config.use_confidence else store.overwrite
            observe_access = store.observe_access
            record_outcome = store.record_prefetch_outcome
            pcl = pf.config.pc_localized
            tu = pf.training_unit._last
            tu_max = pf.training_unit.max_pcs

            if ctrl is not None:
                ctrl_mask = ctrl._sample_mask
                ctrl_epoch = ctrl.epoch_accesses
                sb_s = ctrl.sandbox_small
                sb_l = ctrl.sandbox_large
                ctrl_acc = ctrl._accesses_this_epoch

            def _ctrl_note(trigger: int):
                """PartitionController.note_access; returns pending bytes."""
                nonlocal ctrl_acc
                ctrl_acc += 1
                if ((trigger * 2654435761) >> 12) & ctrl_mask == 0:
                    sb_s.access(trigger)
                    sb_l.access(trigger)
                if ctrl_acc < ctrl_epoch:
                    return None
                ctrl._accesses_this_epoch = ctrl_acc
                decision = ctrl._decide()
                ctrl_acc = 0
                if decision.changed:
                    return decision.capacity_bytes
                return None

            def _repartition(pending: int) -> None:
                # Resize the store, then the LLC (the hook is
                # ``llc.apply_partition``), then emit -- as observe does.
                pf._pending_capacity = pending
                pf._apply_pending_partition()

            if type(pf) is TriagePrefetcher:
                deg = pf.degree

                def triage_train(pc_: int, line_: int, _ph: bool) -> None:
                    spc = pc_ if pcl else 0
                    pending = None
                    cand_t: list = []
                    cand_s: list = []
                    trigger = line_
                    for _ in range(deg):
                        if ctrl is not None:
                            p_ = _ctrl_note(trigger)
                            if p_ is not None:
                                pending = p_
                        successor = lookup(trigger, spc)
                        if successor is None:
                            observe_access(trigger, spc)
                            break
                        cand_t.append(trigger)
                        cand_s.append(successor)
                        trigger = successor
                    # TrainingUnit.observe; pop+reinsert ==
                    # get+set+move_to_end, one op cheaper.
                    prev_line = tu.pop(spc, None)
                    tu[spc] = line_
                    if prev_line is None and len(tu) > tu_max:
                        tu.popitem(last=False)
                    if prev_line is not None and prev_line != line_:
                        learn(prev_line, line_, spc)
                    if pending is not None:
                        _repartition(pending)
                    # Issue + delayed feedback (non-redundant trains the
                    # store's sampler).
                    for j_ in range(len(cand_s)):
                        record_outcome(
                            cand_t[j_], spc,
                            insert_l2_prefetch(cand_s[j_]) == "redundant",
                        )

                train = triage_train

            else:
                rp_hops = pf.config.lookahead - 1 + pf.degree
                contains = store.contains
                sampling = pf.config.sampling
                smp_sets = pf.sample_table._sets
                smp_nsets = pf.sample_table.num_sets
                smp_ways = pf.sample_table.num_ways
                sample_rate = pf.config.sample_rate
                pattern_conf = pf._pattern_conf
                reuse_conf = pf._reuse_conf
                alloc_thr = pf.config.allocate_threshold
                pat_max = pf.config.pattern_max
                sample_pcs_max = pf.config.sample_pcs
                tg_hits = pf.sample_hits
                tg_matches = pf.sample_pattern_matches
                tg_skipped = pf.skipped_allocations

                def _bump(table, pc_, delta):
                    v_ = table.get(pc_)
                    if v_ is None:
                        v_ = alloc_thr
                    v_ += delta
                    if v_ < 0:
                        v_ = 0
                    elif v_ > pat_max:
                        v_ = pat_max
                    table[pc_] = v_
                    table.move_to_end(pc_)
                    if len(table) > sample_pcs_max:
                        table.popitem(last=False)

                def triangel_train(pc_: int, line_: int, _ph: bool) -> None:
                    nonlocal tg_hits, tg_matches, tg_skipped
                    spc = pc_ if pcl else 0
                    pending = None
                    cand_t: list = []
                    cand_s: list = []
                    seen = {line_}
                    cursor = line_
                    for _ in range(rp_hops):
                        if ctrl is not None:
                            p_ = _ctrl_note(cursor)
                            if p_ is not None:
                                pending = p_
                        successor = lookup(cursor, spc)
                        if successor is None:
                            observe_access(cursor, spc)
                            break
                        if successor in seen:
                            break
                        seen.add(successor)
                        cand_t.append(cursor)
                        cand_s.append(successor)
                        cursor = successor
                    # pop+reinsert == get+set+move_to_end, one op cheaper.
                    prev_line = tu.pop(spc, None)
                    tu[spc] = line_
                    if prev_line is None and len(tu) > tu_max:
                        tu.popitem(last=False)
                    if prev_line is not None and prev_line != line_:
                        if sampling:
                            bucket = smp_sets[prev_line % smp_nsets]
                            se = bucket.get(prev_line)
                            if se is not None:
                                bucket.move_to_end(prev_line)
                                tg_hits += 1
                                _bump(reuse_conf, spc, 1)
                                if se.pc == spc:
                                    if se.successor == line_:
                                        tg_matches += 1
                                        _bump(pattern_conf, spc, 1)
                                    else:
                                        _bump(pattern_conf, spc, -1)
                                se.pc = spc
                                se.successor = line_
                            elif prev_line % sample_rate == 0:
                                bucket[prev_line] = SampleEntry(spc, line_)
                                bucket.move_to_end(prev_line)
                                if len(bucket) > smp_ways:
                                    bucket.popitem(last=False)
                            if contains(prev_line):
                                allowed = True
                            else:
                                cf = pattern_conf.get(spc)
                                allowed = cf is None or cf >= alloc_thr
                        else:
                            allowed = True
                        if allowed:
                            learn(prev_line, line_, spc)
                        else:
                            tg_skipped += 1
                    if pending is not None:
                        _repartition(pending)
                    for j_ in range(len(cand_s)):
                        record_outcome(
                            cand_t[j_], spc,
                            insert_l2_prefetch(cand_s[j_]) == "redundant",
                        )

                train = triangel_train
                fused_triangel = True
            fused_triage = True
            fused_ctrl = ctrl

        elif type(pf) is BestOffsetPrefetcher:
            bo = pf
            offsets_l = bo.offsets
            n_off = len(offsets_l)
            rr_t = bo._rr_table
            rr_mask = bo.rr_size - 1
            sc_max = bo.SCORE_MAX
            r_max = bo.ROUND_MAX
            bo_deg = bo.degree

            def bo_train(pc_: int, line_: int, _ph: bool) -> None:
                ti = bo._test_index
                probe = line_ - offsets_l[ti]
                if rr_t[(probe ^ (probe >> 8)) & rr_mask] == probe:
                    sc = bo._scores
                    s_ = sc[ti] + 1
                    sc[ti] = s_
                    if s_ >= sc_max:
                        bo._end_round()
                ti = bo._test_index + 1
                if ti >= n_off:
                    bo._test_index = 0
                    bo._round += 1
                    if bo._round >= r_max:
                        bo._end_round()
                else:
                    bo._test_index = ti
                rr_t[(line_ ^ (line_ >> 8)) & rr_mask] = line_
                if bo.prefetching_on:
                    boff = bo.best_offset
                    for j_ in range(1, bo_deg + 1):
                        insert_l2_prefetch(line_ + boff * j_)

            train = bo_train

        elif type(pf) is SmsPrefetcher and pf.region_lines > 0 and (
            pf.region_lines & (pf.region_lines - 1) == 0
        ):
            # Power-of-two regions (the only configured shape) let the
            # region/offset split run as shift/mask and the footprint
            # replay walk only the *set* bits, ascending, instead of
            # scanning every offset.  Other shapes use generic_train.
            sms = pf
            region_lines = sms.region_lines
            rshift = region_lines.bit_length() - 1
            rmask = region_lines - 1
            filt_t = sms._filter
            acc_t = sms._accumulation
            pht_t = sms._pht
            filt_cap = sms.filter_entries
            acc_cap = sms.accumulation_entries

            def sms_train(pc_: int, line_: int, _ph: bool) -> None:
                region = line_ >> rshift
                offset = line_ & rmask
                a_ = acc_t.get(region)
                if a_ is not None:
                    acc_t[region] = (a_[0], a_[1], a_[2] | (1 << offset))
                    acc_t.move_to_end(region)
                    return
                f_ = filt_t.get(region)
                if f_ is not None:
                    del filt_t[region]
                    t_pc, t_off = f_
                    if len(acc_t) >= acc_cap:
                        __, (o_sig, o_trig, o_fp) = acc_t.popitem(last=False)
                        sms._pht_store(o_sig, o_trig, o_fp)
                    acc_t[region] = (
                        (t_pc, t_off), t_off, (1 << t_off) | (1 << offset)
                    )
                    return
                if len(filt_t) >= filt_cap:
                    filt_t.popitem(last=False)
                filt_t[region] = (pc_, offset)
                rel = pht_t.get((pc_, offset))
                if rel is None:
                    return
                pht_t.move_to_end((pc_, offset))
                base_ = region << rshift
                m_ = rel & -2  # bit 0 is the trigger line itself
                while m_:
                    lsb = m_ & -m_
                    m_ ^= lsb
                    insert_l2_prefetch(
                        base_ + ((offset + lsb.bit_length() - 1) & rmask)
                    )

            train = sms_train

    def sync(counters: CoreCounters) -> None:
        counters.prefetches_issued = pf_iss
        counters.prefetches_redundant = pf_red
        counters.prefetch_fills_from_llc = pf_llc
        counters.prefetch_fills_from_dram = pf_dram
        counters.l1pf_issued = l1_iss
        counters.l1pf_redundant = l1_red
        counters.l1pf_fills_from_dram = l1_dram
        if fused_triage:
            pf.metadata_llc_accesses = pf.store.llc_accesses
        if fused_ctrl is not None:
            fused_ctrl._accesses_this_epoch = ctrl_acc
        if fused_triangel:
            pf.sample_hits = tg_hits
            pf.sample_pattern_matches = tg_matches
            pf.skipped_allocations = tg_skipped

    def reset() -> None:
        nonlocal pf_iss, pf_red, pf_llc, pf_dram, l1_iss, l1_red, l1_dram
        pf_iss = pf_red = pf_llc = pf_dram = 0
        l1_iss = l1_red = l1_dram = 0

    def traffic() -> tuple:
        return t_prefetch, t_writeback, t_metadata

    return _FlatCore(L1, L2, insert_l1_prefetch, train, sync, reset, traffic)
