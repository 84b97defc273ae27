"""Correctness gate: conservation laws, recorded digests, exact work counts.

A cell is one simulate call (one ``simulate_multicore`` call for a mix,
one grid cell for a sweep).  Every check returns a list of problems; an
empty list means the cell passed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional

LINE_BYTES = 64

#: Meta-store and partition counts read from the prefetcher objects.
STORE_FIELDS = ("lookups", "hits", "inserts", "evictions", "decisions", "changes")


@dataclass
class Cell:
    """One simulated cell and what the benchmark observed about it."""

    key: str
    seconds: float
    #: Trace accesses simulated, warmup included (all cores).
    accesses: int
    #: One ``SimulationResult`` per core.
    results: list = field(default_factory=list)
    #: Off-chip traffic by category (shared by all cores of a mix).
    traffic: Dict[str, int] = field(default_factory=dict)
    #: Engine named by the run manifest.
    engine: str = ""
    #: Summed ``STORE_FIELDS`` of the cell's Triage components, or
    #: ``None`` where the prefetcher objects live in another process.
    store: Optional[Dict[str, int]] = None
    error: Optional[str] = None


def store_counts(prefetchers: Iterable[object]) -> Dict[str, int]:
    """Summed meta-store and partition counts of the Triage components."""
    from repro import TriagePrefetcher

    counts = dict.fromkeys(STORE_FIELDS, 0)
    for pf in prefetchers:
        if not isinstance(pf, TriagePrefetcher):
            continue
        store = pf.store
        counts["lookups"] += store.lookups
        counts["hits"] += store.lookup_hits
        counts["inserts"] += store.inserts
        counts["evictions"] += store.evictions
        if pf.controller is not None:
            decisions = pf.controller.decisions
            counts["decisions"] += len(decisions)
            counts["changes"] += sum(1 for d in decisions if d.changed)
    return counts


def law_violations(cell: Cell) -> List[str]:
    """Conservation laws every result obeys, under either engine.

    Per core, L1/L2/LLC hits plus DRAM accesses equal accesses.  Over
    the cell, demand bytes are 64 x DRAM accesses, prefetch bytes are
    64 x (L2 + L1 prefetch fills from DRAM), and every traffic category
    is a whole number of lines.  ``useful <= issued`` is deliberately
    absent: prefetches issued in warmup are counted useful after it
    (see NOTES.md).
    """
    problems = []
    dram = fills = 0
    for core, result in enumerate(cell.results):
        c = result.counters
        if c.l1_hits + c.l2_hits + c.llc_hits + c.dram_accesses != c.accesses:
            problems.append(f"core {core}: level hits + DRAM != accesses")
        dram += c.dram_accesses
        fills += c.prefetch_fills_from_dram + c.l1pf_fills_from_dram
    traffic = cell.traffic
    if traffic.get("demand", 0) != LINE_BYTES * dram:
        problems.append("demand bytes != 64 x DRAM accesses")
    if traffic.get("prefetch", 0) != LINE_BYTES * fills:
        problems.append("prefetch bytes != 64 x prefetch fills from DRAM")
    for category, nbytes in sorted(traffic.items()):
        if nbytes % LINE_BYTES:
            problems.append(f"{category} bytes not a multiple of 64")
    return problems


def _core_stats(result) -> Dict[str, object]:
    return {
        "instructions": repr(result.instructions),
        "cycles": repr(result.cycles),
        "counters": asdict(result.counters),
        "traffic": result.traffic,
        "metadata_llc_accesses": result.metadata_llc_accesses,
        "metadata_dram_accesses": result.metadata_dram_accesses,
        "final_metadata_capacity": result.final_metadata_capacity,
        "partition_history": result.partition_history,
    }


def digest(cell: Cell) -> str:
    """Hash of every simulated statistic of the cell (not host times)."""
    payload = {
        "cores": [_core_stats(r) for r in cell.results],
        "traffic": cell.traffic,
        "store": cell.store,
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def check_cell(cell: Cell, recorded: Optional[Dict[str, str]]) -> List[str]:
    """All per-cell checks; ``recorded`` maps cell keys to digests."""
    if cell.error is not None:
        return [f"raised {cell.error}"]
    problems = law_violations(cell)
    if recorded is not None:
        want = recorded.get(cell.key)
        if want is None:
            problems.append("no recorded digest")
        elif want != digest(cell):
            problems.append("digest differs from the recorded one")
    return problems


def work_counts(cells: List[Cell]) -> Dict[str, float]:
    """Exact per-layer work counts of one pass, summed over its cells."""
    totals: Dict[str, float] = {}

    def add(name: str, value: float) -> None:
        totals[name] = totals.get(name, 0) + value

    for name in ("l1_hits", "l2_hits", "llc_hits", "dram_accesses"):
        add(f"memory.{name}", 0)
    for category in ("demand", "prefetch", "writeback", "metadata"):
        add(f"memory.traffic_bytes.{category}", 0)
    for name in ("issued", "useful", "redundant", "l1pf_issued",
                 "metadata_dram_accesses", "useful_gt_issued_cells"):
        add(f"prefetchers.{name}", 0)
    add("core.metadata_llc_accesses", 0)
    for cell in cells:
        for category, nbytes in cell.traffic.items():
            add(f"memory.traffic_bytes.{category}", nbytes)
        over = False
        for result in cell.results:
            c = result.counters
            add("memory.l1_hits", c.l1_hits)
            add("memory.l2_hits", c.l2_hits)
            add("memory.llc_hits", c.llc_hits)
            add("memory.dram_accesses", c.dram_accesses)
            add("prefetchers.issued", c.prefetches_issued)
            add("prefetchers.useful", c.l2_prefetch_hits)
            add("prefetchers.redundant", c.prefetches_redundant)
            add("prefetchers.l1pf_issued", c.l1pf_issued)
            add("prefetchers.metadata_dram_accesses", result.metadata_dram_accesses)
            add("core.metadata_llc_accesses", result.metadata_llc_accesses)
            over = over or c.l2_prefetch_hits > c.prefetches_issued
        add("prefetchers.useful_gt_issued_cells", int(over))
    issued = totals["prefetchers.issued"]
    totals["prefetchers.accuracy"] = totals["prefetchers.useful"] / issued if issued else 0.0
    return totals


def summed_store(cells: List[Cell]) -> Optional[Dict[str, int]]:
    """Store counts over the cells, or ``None`` if any cell lacks them."""
    if any(cell.store is None for cell in cells):
        return None
    totals = dict.fromkeys(STORE_FIELDS, 0)
    for cell in cells:
        for name in STORE_FIELDS:
            totals[name] += cell.store[name]
    return totals
