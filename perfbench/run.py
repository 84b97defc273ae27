"""Host-time benchmark of the simulator: one workload per invocation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload irregular_1c --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced segments and reports the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when a cell fails the correctness gate.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
DIGESTS = BENCH_DIR / "digests.json"
#: Seed at which every cell's statistics must match ``digests.json``.
DIGEST_SEED = 1
#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 5
#: Passes an untraced run makes at least, even past ``--seconds``, so
#: that every cell's median is taken over three repetitions or more.
MIN_PASSES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="shrink every input (self-tests); skips the digest check",
    )
    parser.add_argument(
        "--record-digests", action="store_true",
        help=f"run one pass and store its cell digests (seed {DIGEST_SEED})",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def hermetic_env() -> None:
    """Drop ambient REPRO_* knobs; select the batched single-core engine.

    The engine is chosen through the environment only, so the benchmark
    keeps working unchanged once the knob is removed from the program.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_ENGINE"] = "batched"


def import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("perfbench: the repro package (src/repro) is missing", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(ROOT)]


class Gate:
    """Tallies cells checked and the problems found."""

    def __init__(self, recorded):
        self.recorded = recorded
        self.attempted = 0
        self.problems = {}

    def check(self, cells, where: str) -> None:
        from perfbench.gate import check_cell

        for cell in cells:
            self.attempted += 1
            for problem in check_cell(cell, self.recorded):
                self.fail(where, cell.key, problem)

    def same(self, first, second, where: str, what: str) -> None:
        """Cells of two passes must have identical simulated statistics."""
        from perfbench.gate import digest

        for a, b in zip(first, second):
            if a.error is None and b.error is None and digest(a) != digest(b):
                self.fail(where, b.key, f"differs from the {what}")

    def fail(self, where: str, key: str, problem: str) -> None:
        self.problems.setdefault((where, key), []).append(problem)

    @property
    def failed(self) -> int:
        return len(self.problems)


def setup_probe_seconds(args) -> float:
    """CPU seconds from interpreter start to the first simulate call.

    Each probe is a fresh interpreter that imports the package, builds
    the workload's inputs and prints its own CPU time.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def measure_e2e(args, wl, gate: Gate):
    from perfbench.gate import digest
    from statistics import median

    from perfbench.measure import NullSpans, cell_medians, peak_rss_mb, tail
    from perfbench.workloads import Sweep

    setup = [setup_probe_seconds(args) for _ in range(SETUP_PROBES)]
    inputs = wl.inputs(args.seed, NullSpans())
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        p = wl.run_pass(inputs, NullSpans())
        passes.append(p)
        check_pass(gate, p, f"pass{len(passes)}")
        if args.record_digests:
            record_digests(args.workload, {c.key: digest(c) for c in p.cells})
            break
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now - start + (now - began) > args.seconds:
            break
    cell_s = cell_medians(
        [[(c.key, c.seconds) for c in p.cells if c.error is None] for p in passes]
    )
    if not cell_s:
        return {}, ""
    accesses = {c.key: c.accesses for p in passes for c in p.cells}
    # Host time is CPU time: on an idle host it equals wall time, and it
    # leaves out the time the OS gives other processes.  In-process cells
    # run back to back, so a typical pass costs the sum of the cells'
    # medians.  A sweep pass also costs its workers' CPU, fan-out and
    # cache writes, so it is taken whole.
    if isinstance(wl, Sweep):
        busy = median(p.cpu for p in passes)
    else:
        busy = sum(cell_s.values())
    tail_s, pct = tail(list(cell_s.values()))
    metrics = {
        "setup_s": (median(setup), "s"),
        "sim_accesses_per_s": (sum(accesses[k] for k in cell_s) / busy, "accesses/s"),
        "cell_s.p50": (median(cell_s.values()), "s"),
        "cell_s.tail": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    note = (
        f"# cell times are each cell's median of {len(passes)} passes; "
        f"cell_s.tail is p{pct} of {len(cell_s)} cells; "
        f"setup_s is the median of {SETUP_PROBES} fresh interpreters"
    )
    return metrics, note


def check_pass(gate: Gate, p, where: str) -> None:
    gate.check(p.cells, where)
    if p.warm_cells:
        gate.check(p.warm_cells, where + ".warm")
        gate.same(p.cells, p.warm_cells, where + ".warm", "cold sweep pass")


def segment(args, wl, traced: bool):
    """Inputs plus one pass; under an obs session with spans if ``traced``."""
    from repro import obs
    from perfbench.measure import NullSpans, Spans

    session = obs.enable(profile=True) if traced else None
    spans = Spans(session.profiler) if traced else NullSpans()
    try:
        start = time.perf_counter()
        with spans.span("bench.segment", traced=traced):
            inputs = wl.inputs(args.seed, spans)
            gen_s = time.perf_counter() - start
            p = wl.run_pass(inputs, spans)
        wall = time.perf_counter() - start
    finally:
        if traced:
            obs.disable()
    return {"wall": wall, "gen_s": gen_s, "pass": p, "inputs": inputs,
            "spans": spans, "session": session}


def registry_counts(session):
    registry = session.registry

    def value(name):
        metric = registry.get(name)
        return metric.dump() if metric is not None else 0

    counts = {
        name: value(f"triage.meta_store.{name}")
        for name in ("lookups", "hits", "inserts", "evictions")
    }
    counts["decisions"] = value("triage.partition.decisions")
    counts["changes"] = value("triage.partition.changes")
    counts["queue_penalty_cycles"] = value("dram.queue_penalty_cycles")
    return counts


def measure_layers(args, wl, gate: Gate):
    from perfbench.gate import STORE_FIELDS, summed_store, work_counts
    from statistics import median

    from perfbench.measure import AccountingError, exclusive_phases
    from perfbench.workloads import SWEEP_JOBS, Sweep

    pairs = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        untraced = segment(args, wl, traced=False)
        traced = segment(args, wl, traced=True)
        n = len(pairs) + 1
        check_pass(gate, untraced["pass"], f"untraced{n}")
        check_pass(gate, traced["pass"], f"traced{n}")
        gate.same(untraced["pass"].cells, traced["pass"].cells, f"traced{n}", "untraced pass")
        try:
            traced["phases"] = exclusive_phases(traced["spans"], traced["wall"])
        except AccountingError as exc:
            gate.fail(f"traced{n}", "phases", str(exc))
            traced["phases"] = None
        traced["registry"] = registry_counts(traced["session"])
        store = summed_store(traced["pass"].cells)
        if store is not None and any(
            store[k] != traced["registry"][k] for k in STORE_FIELDS
        ):
            gate.fail(f"traced{n}", "registry", "meta-store counts differ from the components'")
        pairs.append((untraced, traced))
        now = time.perf_counter()
        if now - start + (now - began) > args.seconds:
            break

    first = pairs[0][1]
    cells = first["pass"].cells
    p = first["pass"]
    n_pairs = len(pairs)

    def mean(values):
        values = list(values)
        return sum(values) / len(values)

    metrics = {}
    metrics["workloads.make_trace_s"] = (mean(u["gen_s"] for u, _ in pairs), "s")
    inputs = first["inputs"]
    metrics["workloads.accesses"] = (wl.input_accesses(first["inputs"]), "count")
    # Cell seconds: the call in-process, or the worker's own simulate time.
    simulate_s = mean(sum(c.seconds for c in t["pass"].cells) for _, t in pairs)
    metrics["sim.simulate_s"] = (simulate_s, "s")
    metrics["sim.us_per_access"] = (simulate_s / p.accesses * 1e6, "us")
    metrics["sim.cells"] = (len(cells), "count")
    metrics["sim.fallback_cells"] = (
        sum(1 for c in cells if c.error is None and c.engine != wl.expected_engine), "count"
    )
    phased = [t["phases"] for _, t in pairs if t["phases"] is not None]
    for phase in ("l2_stream", "metadata_store", "l2_prefetcher_excl", "l1_prefetcher",
                  "batched_core", "trace_gen", "unattributed"):
        value = mean(ph[phase] for ph in phased) if phased else 0.0
        metrics[f"phase.{phase}_s"] = (value, "s")
    units = {"memory.traffic_bytes": "B", "prefetchers.accuracy": "ratio"}
    for name, value in work_counts(cells).items():
        unit = next((u for prefix, u in units.items() if name.startswith(prefix)), "count")
        metrics[name] = (value, unit)
    registry = first["registry"]
    for name in ("lookups", "hits", "inserts", "evictions"):
        metrics[f"core.meta_store.{name}"] = (registry[name], "count")
    lookups = registry["lookups"]
    metrics["core.meta_store.hit_ratio"] = (
        registry["hits"] / lookups if lookups else 0.0, "ratio"
    )
    metrics["core.partition.decisions"] = (registry["decisions"], "count")
    metrics["core.partition.changes"] = (registry["changes"], "count")
    metrics["dram.queue_penalty_cycles"] = (registry["queue_penalty_cycles"], "cycles")
    passes = [t["pass"] for _, t in pairs] + [u["pass"] for u, _ in pairs]
    if isinstance(wl, Sweep):
        efficiency = mean(
            sum(c.seconds for c in s.cells) / (SWEEP_JOBS * s.wall) for s in passes
        )
        cell_p50 = median([c.seconds for s in passes for c in s.cells])
        hits = sum(
            1 for a, b in zip(p.cells, p.warm_cells)
            if a.error is None and b.error is None
            and a.results[0].manifest.to_dict() == b.results[0].manifest.to_dict()
        )
        cache = {
            "hits": hits,
            "misses": p.cache_entries,
            "errors": len(p.cells) - hits,
            "bytes": p.cache_bytes,
            "warm_pass_s": mean(s.warm_wall for s in passes),
        }
    else:
        efficiency = cell_p50 = 0.0
        cache = dict.fromkeys(("hits", "misses", "errors", "bytes", "warm_pass_s"), 0)
    metrics["parallel.efficiency"] = (efficiency, "ratio")
    metrics["parallel.cell_s.p50"] = (cell_p50, "s")
    for name in ("hits", "misses", "errors"):
        metrics[f"cache.{name}"] = (cache[name], "count")
    metrics["cache.bytes"] = (cache["bytes"], "B")
    metrics["cache.warm_pass_s"] = (cache["warm_pass_s"], "s")
    metrics["obs.overhead_pct"] = (
        (sum(t["wall"] for _, t in pairs) / sum(u["wall"] for u, _ in pairs) - 1) * 100, "%"
    )
    self_times = pairs[0][1]["spans"].self_seconds()
    note = (
        f"# {n_pairs} untraced/traced segment pair(s); span self seconds: "
        + ", ".join(f"{k}={v:.4f}" for k, v in sorted(self_times.items()))
    )
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for i, (_, t) in enumerate(pairs):
        t["spans"].write_jsonl(
            str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}-{i}.jsonl")
        )
    return metrics, note


def record_digests(workload: str, digests) -> None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table[workload] = digests
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def run_all(args) -> int:
    from perfbench.workloads import WORKLOADS

    code = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--tiny"] if args.tiny else [])
        code = max(code, subprocess.run(cmd).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    hermetic_env()
    import_program()
    if args.workload == "all":
        return run_all(args)
    from perfbench import workloads
    from perfbench.measure import machine_stamp

    wl = workloads.build(args.workload, args.tiny, OUT_DIR)
    if args.setup_probe:
        from perfbench.measure import NullSpans

        wl.inputs(args.seed, NullSpans())
        print(repr(time.process_time()))
        return 0
    if args.record_digests and (args.seed != DIGEST_SEED or args.tiny or args.trace):
        print("perfbench: --record-digests needs the default seed, size and --trace 0",
              file=sys.stderr)
        return 2
    recorded = None
    if args.seed == DIGEST_SEED and not args.tiny and not args.record_digests:
        table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        recorded = table.get(args.workload, {})
    stamp = machine_stamp()
    gate = Gate(recorded)
    if args.trace:
        metrics, note = measure_layers(args, wl, gate)
        metrics["machine.nproc"] = (stamp["nproc"], "count")
        metrics["machine.calib_s"] = (stamp["calib_s"], "s")
    else:
        metrics, note = measure_e2e(args, wl, gate)
    failed = gate.failed
    if args.trace:
        metrics["failed_frac"] = (failed / max(1, gate.attempted), "ratio")
    print(
        f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"nproc={stamp['nproc']} python={stamp['python']} calib_s={stamp['calib_s']:.4f}"
    )
    print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(f"# cells attempted={gate.attempted} failed={failed} "
          f"failed_frac={failed / max(1, gate.attempted):.4g}")
    for (where, key), problems in sorted(gate.problems.items()):
        print(f"perfbench: FAIL {where} {key}: {'; '.join(problems)}", file=sys.stderr)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, gate.attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
