"""Scoped wall-time attribution to named simulation phases.

``python -m repro profile <exp>`` answers "where does the wall time go"
without a real profiler's overhead: the engines bracket their phases
(trace generation, the L2 demand stream, the prefetcher, Triage's
metadata store) with :meth:`PhaseTimer.phase` or accumulate raw seconds
via :meth:`PhaseTimer.add`.  When profiling is off the engines skip the
timing calls entirely, so this module costs nothing by default.

Some phases are timed *inside* another one (:data:`NESTED`): Triage's
``metadata_store`` runs within ``l2_prefetcher`` on the object-graph
driver and within ``batched_core`` on the flat one.  The table shows
such a phase indented under its host and leaves it out of the total
and the shares, so the phases add up to the wall time they cover.

Beyond totals, each phase tracks the per-call spread (mean/min/max over
the individual :meth:`~PhaseTimer.add`/:meth:`~PhaseTimer.phase`
credits), which is what the benchmark harness's timing tables
(:mod:`repro.obs.bench`) consume.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

#: Phases timed inside another phase -> their possible hosts, in order.
NESTED: Dict[str, Tuple[str, ...]] = {
    "metadata_store": ("l2_prefetcher", "batched_core"),
}


class PhaseTimer:
    """Accumulates (seconds, call count, min/max credit) per phase name."""

    def __init__(self):
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.min_seconds: Dict[str, float] = {}
        self.max_seconds: Dict[str, float] = {}

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Credit ``seconds`` of wall time (over ``calls`` calls) to a phase."""
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + calls
        # Min/max track one *credit* each; a batched add (calls > 1)
        # contributes its per-call average, the only per-call figure it
        # still carries.
        per_call = seconds / calls if calls > 0 else seconds
        if name in self.min_seconds:
            self.min_seconds[name] = min(self.min_seconds[name], per_call)
            self.max_seconds[name] = max(self.max_seconds[name], per_call)
        else:
            self.min_seconds[name] = per_call
            self.max_seconds[name] = per_call

    @contextmanager
    def phase(self, name: str):
        """Context manager form of :meth:`add`."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    # -- reporting -------------------------------------------------------

    def _host(self, name: str) -> Optional[str]:
        """The recorded phase ``name`` was timed inside, if any."""
        for host in NESTED.get(name, ()):
            if host in self.seconds:
                return host
        return None

    @property
    def total_seconds(self) -> float:
        """Wall time covered: every phase not nested in a recorded host."""
        return sum(
            secs for name, secs in self.seconds.items()
            if self._host(name) is None
        )

    def mean_seconds(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.seconds.get(name, 0.0) / calls if calls else 0.0

    def sorted_phases(self) -> List[Tuple[str, float, int, float, float, float]]:
        """(name, seconds, calls, mean, min, max), most expensive first.

        Ties on total seconds break alphabetically, so the ordering is
        stable across runs and the bench timing tables diff cleanly.
        """
        return sorted(
            (
                (
                    name,
                    secs,
                    self.calls.get(name, 0),
                    self.mean_seconds(name),
                    self.min_seconds.get(name, 0.0),
                    self.max_seconds.get(name, 0.0),
                )
                for name, secs in self.seconds.items()
            ),
            key=lambda item: (-item[1], item[0]),
        )

    def table(self) -> str:
        """Aligned text table of phases with their share of total time.

        A nested phase follows its host as an indented row with no share.
        """
        total = self.total_seconds
        phases = self.sorted_phases()
        rows = [("phase", "seconds", "share", "calls", "mean", "min", "max")]

        def add_row(label, secs, calls, mean, lo, hi, share):
            rows.append(
                (
                    label,
                    f"{secs:.3f}",
                    share,
                    str(calls),
                    f"{mean:.6f}",
                    f"{lo:.6f}",
                    f"{hi:.6f}",
                )
            )

        for name, secs, *spread in phases:
            if self._host(name) is not None:
                continue
            share = secs / total if total else 0.0
            add_row(name, secs, *spread, f"{share:6.1%}")
            for sub, sub_secs, *sub_spread in phases:
                if self._host(sub) == name:
                    add_row("  " + sub, sub_secs, *sub_spread, "")
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        lines = ["== Wall-time by phase =="]
        for i, row in enumerate(rows):
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
            if i == 0:
                lines.append("-" * (sum(widths) + 6))
        lines.append(f"total: {total:.3f}s")
        return "\n".join(lines)
