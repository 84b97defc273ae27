"""Measurement helpers: order statistics, in-memory spans, machine stamp.

Nothing here imports the simulator, so the self-tests can exercise the
benchmark's own logic in isolation.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import time
from contextlib import contextmanager
from statistics import median
from typing import Dict, List, Sequence, Tuple

#: A timing's tail is the highest percentile with at least this many
#: samples beyond it.
TAIL_BEYOND = 10


def tail_rank(n: int) -> Tuple[int, int]:
    """(percentile, 1-based nearest rank) of the tail of ``n`` samples.

    The tail is the highest integer percentile in [51, 99] whose
    nearest-rank sample still has ``TAIL_BEYOND`` samples above it.
    With fewer than ``2 * TAIL_BEYOND`` samples no such percentile
    exists and the median rank is returned; callers stamp the
    percentile beside the value so a reader sees which one it is.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    for pct in range(99, 50, -1):
        rank = -(-pct * n // 100)  # ceil(pct * n / 100) in integers
        if n - rank >= TAIL_BEYOND:
            return pct, rank
    return 50, -(-50 * n // 100)


def tail(values: Sequence[float]) -> Tuple[float, int]:
    """(tail value, percentile) of ``values`` by :func:`tail_rank`.

    The fallback percentile 50 reports the median itself.
    """
    pct, rank = tail_rank(len(values))
    if pct == 50:
        return median(values), pct
    return sorted(values)[rank - 1], pct


def cell_medians(passes: Sequence[Sequence[Tuple[str, float]]]) -> Dict[str, float]:
    """Each cell's median repetition over the passes of a run.

    ``passes`` holds one ``(cell key, seconds)`` list per pass.  A host
    slow spell that covers part of a run moves a cell's median less
    than its total, and its minimum catches only the spells' gaps.
    """
    reps: Dict[str, List[float]] = {}
    for cells in passes:
        for key, seconds in cells:
            reps.setdefault(key, []).append(seconds)
    return {key: median(seconds) for key, seconds in reps.items()}


def calibrate(repeats: int = 3) -> float:
    """Median seconds of a fixed pure-Python + numpy kernel.

    Reported beside every result so runs on different machines can be
    told apart; no metric is normalised by it.
    """
    import numpy as np

    def kernel() -> int:
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) % 1_000_003
        rng = np.random.default_rng(12345)
        values = rng.integers(0, 1 << 40, size=400_000)
        values.sort()
        return acc + int(values[::4096].sum() % 1_000_003)

    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return median(times)


def machine_stamp() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "calib_s": calibrate(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


class Spans:
    """Spans recorded around the benchmark's calls into each layer.

    Each span has a name, start, end and parent.  When ``profiler`` (a
    :class:`repro.obs.profiling.PhaseTimer`) is set, a span also keeps
    the program's phase seconds credited while it was open, so per-cell
    phases can be made exclusive.
    """

    def __init__(self, profiler=None):
        self.records: List[Dict[str, object]] = []
        self._stack: List[int] = []
        self.profiler = profiler

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.records),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        before = dict(self.profiler.seconds) if self.profiler is not None else None
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if before is not None:
                record["phases"] = {
                    phase: seconds - before.get(phase, 0.0)
                    for phase, seconds in self.profiler.seconds.items()
                    if seconds != before.get(phase, 0.0)
                }

    def named(self, name: str) -> List[Dict[str, object]]:
        return [r for r in self.records if r["name"] == name]

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name: duration minus child-span durations."""
        child_total = [0.0] * len(self.records)
        for record in self.records:
            if record["parent"] is not None:
                child_total[record["parent"]] += duration(record)
        totals: Dict[str, float] = {}
        for record, children in zip(self.records, child_total):
            name = record["name"]
            totals[name] = totals.get(name, 0.0) + duration(record) - children
        return totals

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for record in self.records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


class NullSpans(Spans):
    """Span recorder for untraced runs: records nothing."""

    @contextmanager
    def span(self, name: str, **attrs):
        yield attrs


def duration(record: Dict[str, object]) -> float:
    return record["end"] - record["start"]


#: Program profiler phases and the phase each one is nested in, per
#: engine.  ``metadata_store`` is timed inside ``TriagePrefetcher.observe``,
#: so it is a slice of whichever phase called ``observe``.
_HOST_OF_METADATA = {"batched": "batched_core"}
PHASES = (
    "l2_stream",
    "l1_prefetcher",
    "l2_prefetcher_excl",
    "metadata_store",
    "batched_core",
    "trace_gen",
)


class AccountingError(RuntimeError):
    """Exclusive phases overlap: they sum to more than their span."""


def exclusive_phases(spans: Spans, wall: float, eps: float = 1e-6) -> Dict[str, float]:
    """Exclusive per-layer seconds of one traced segment, plus the rest.

    ``sim.simulate`` spans carry the program's profiler phases credited
    during the call; the nested ``metadata_store`` slice is subtracted
    from its host (``l2_prefetcher`` on the object-graph engines,
    ``batched_core`` on the batched one).  ``trace_gen`` is the
    benchmark's own ``workloads.make_trace`` spans.  ``unattributed`` is
    ``wall`` minus everything else, so the phases sum to ``wall``.
    """
    totals = {phase: 0.0 for phase in PHASES}
    for record in spans.named("workloads.make_trace"):
        totals["trace_gen"] += duration(record)
    for record in spans.named("sim.simulate"):
        got = dict(record.get("phases", {}))
        host = _HOST_OF_METADATA.get(record["attrs"].get("engine"), "l2_prefetcher")
        got[host] = got.get(host, 0.0) - got.get("metadata_store", 0.0)
        got["l2_prefetcher_excl"] = got.pop("l2_prefetcher", 0.0)
        cell = {phase: got.get(phase, 0.0) for phase in PHASES if phase != "trace_gen"}
        if min(cell.values()) < -eps or sum(cell.values()) > duration(record) + eps:
            raise AccountingError(
                f"phases {cell} do not fit in {duration(record):.6f}s "
                f"of cell {record['attrs'].get('cell')}"
            )
        for phase, seconds in cell.items():
            totals[phase] += seconds
    unattributed = wall - sum(totals.values())
    if unattributed < -eps:
        raise AccountingError(f"phases exceed the traced wall by {-unattributed:.6f}s")
    totals["unattributed"] = unattributed
    return totals
