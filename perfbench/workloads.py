"""The benchmark's workloads: inputs from a seed, then measured passes.

A pass issues every cell of the workload once, each after the previous
one returns (one closed-loop caller).  Why each workload exists and
which layers it stresses is in NOTES.md.
"""

from __future__ import annotations

import multiprocessing
import resource
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import repro
from repro.experiments import common
from repro.sim.config import MachineConfig
from repro.sim.sweep import sweep
from repro.workloads import mixes, spec

from perfbench.gate import Cell, store_counts

IRREGULAR = ("mcf", "omnetpp", "xalancbmk", "soplex_k")
IRREGULAR_CONFIGS = (
    "none", "triage_512kb", "triage_1mb", "triage_dynamic", "triangel", "misb",
)
MIX_CONFIGS = ("none", "triage_1mb", "triage_dynamic")
MIX_CORES = 4
#: Names that build the same prefetcher in ``sim.factory`` (what
#: ``sweep`` uses) and in ``experiments.common.make_spec``.
SWEEP_BENCHES = ("mcf", "omnetpp", "libquantum", "lbm", "bwaves", "milc")
SWEEP_CONFIGS = ("bo", "sms", "stms")
SWEEP_JOBS = 2


@dataclass
class Pass:
    """One measured pass over every cell of a workload."""

    wall: float
    cells: List[Cell]
    #: Sweep only: the warm (cache-served) pass and its wall time.
    warm_cells: List[Cell] = field(default_factory=list)
    warm_wall: float = 0.0
    #: Sweep only: result entries and bytes the cold pass left on disk.
    cache_entries: int = 0
    cache_bytes: int = 0
    #: Sweep only: CPU seconds of the cold pass, this process plus its
    #: reaped pool workers.
    cpu: float = 0.0

    @property
    def accesses(self) -> int:
        return sum(cell.accesses for cell in self.cells)


def process_and_children_cpu() -> float:
    """CPU seconds of this process plus those of its reaped children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + usage.ru_utime + usage.ru_stime


def reap_workers(timeout: float = 60.0) -> None:
    """Wait until every pool worker has exited and been reaped.

    ``sweep()`` returns while its discarded pool's workers may still be
    exiting; their CPU time reaches ``RUSAGE_CHILDREN`` only once they
    are reaped, and the benchmark leaves no process behind.
    """
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.005)


def _report(key: str) -> str:
    """Print the current exception's traceback; return its one-line form."""
    exc = sys.exc_info()[1]
    print(f"perfbench: cell {key} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)
    return repr(exc)


def _manifest_engine(result) -> str:
    manifest = result.manifest
    return str(manifest.extra.get("engine", "")) if manifest is not None else ""


class SingleCore:
    """SPEC-like traces x prefetchers, one ``repro.simulate`` call per cell."""

    expected_engine = "batched"

    def __init__(self, benches, configs, n_accesses: int):
        self.benches = tuple(benches)
        self.configs = tuple(configs)
        self.n_accesses = n_accesses

    def inputs(self, seed: int, spans):
        traces = []
        for bench in self.benches:
            with spans.span("workloads.make_trace", bench=bench):
                traces.append(
                    spec.make_trace(
                        bench, n_accesses=self.n_accesses, seed=seed,
                        scale=common.SCALE,
                    )
                )
        return traces

    def input_accesses(self, traces) -> int:
        return sum(len(t) for t in traces)

    def run_pass(self, traces, spans) -> Pass:
        cells = []
        start = time.perf_counter()
        for bench, trace in zip(self.benches, traces):
            warmup = int(len(trace) * common.WARMUP_FRACTION)
            for name in self.configs:
                key = f"{bench}/{name}"
                with spans.span("sim.simulate", cell=key) as attrs:
                    t0 = time.process_time()
                    try:
                        pf = common.make_spec(name)
                        result = repro.simulate(
                            trace, pf, machine=common.MACHINE,
                            warmup_accesses=warmup,
                        )
                    except Exception:
                        cells.append(
                            Cell(key, time.process_time() - t0, len(trace),
                                 error=_report(key))
                        )
                        continue
                    seconds = time.process_time() - t0
                    attrs["engine"] = _manifest_engine(result)
                cells.append(
                    Cell(key, seconds, len(trace), [result], result.traffic,
                         attrs["engine"], store_counts([pf]))
                )
        return Pass(time.perf_counter() - start, cells)


class Mix:
    """4-core irregular mixes on the object-graph multi-core engine."""

    expected_engine = "analytic"

    def __init__(self, n_mixes: int, configs, n_per_core: int):
        self.n_mixes = n_mixes
        self.configs = tuple(configs)
        self.n_per_core = n_per_core
        self.machine = MachineConfig.scaled(common.MULTI_SCALE, n_cores=MIX_CORES)

    def inputs(self, seed: int, spans):
        mix_traces = []
        for i in range(self.n_mixes):
            mix_seed = seed * self.n_mixes + i
            with spans.span("workloads.make_trace", mix_seed=mix_seed):
                mix_traces.append(
                    mixes.make_mix(
                        MIX_CORES, mix_seed,
                        n_accesses_per_core=self.n_per_core,
                        irregular_only=True, scale=common.MULTI_SCALE,
                    )
                )
        return mix_traces

    def input_accesses(self, mix_traces) -> int:
        return sum(len(t) for traces in mix_traces for t in traces)

    def run_pass(self, mix_traces, spans) -> Pass:
        cells = []
        half = self.n_per_core // 2
        accesses = MIX_CORES * 2 * half  # warmup and measured halves, all cores
        start = time.perf_counter()
        for i, traces in enumerate(mix_traces):
            label = "+".join(t.name for t in traces)
            for name in self.configs:
                key = f"mix{i}:{label}/{name}"
                made = []

                def factory(name=name, made=made):
                    pf = common.make_spec(name, scale=common.MULTI_SCALE)
                    made.append(pf)
                    return pf

                with spans.span("sim.simulate", cell=key) as attrs:
                    t0 = time.process_time()
                    try:
                        result = repro.simulate_multicore(
                            traces, factory, machine=self.machine,
                            accesses_per_core=half,
                            warmup_accesses_per_core=half,
                        )
                    except Exception:
                        cells.append(
                            Cell(key, time.process_time() - t0, accesses,
                                 error=_report(key))
                        )
                        continue
                    seconds = time.process_time() - t0
                    attrs["engine"] = _manifest_engine(result)
                cells.append(
                    Cell(key, seconds, accesses, list(result.per_core),
                         result.traffic, attrs["engine"], store_counts(made))
                )
        return Pass(time.perf_counter() - start, cells)


class Sweep:
    """``sweep()`` over a grid with worker processes and a result cache.

    Each pass sweeps cold into a fresh cache directory, then, after
    ``clear_caches()``, sweeps the same grid warm from that directory.
    Cell times are the workers' own simulate times (run manifests).
    """

    expected_engine = "batched"

    def __init__(self, benches, configs, n_accesses: int, out_dir: Path):
        self.benches = tuple(benches)
        self.configs = tuple(configs)
        self.n_accesses = n_accesses
        self.out_dir = out_dir

    def inputs(self, seed: int, spans):
        return seed  # sweep() generates its traces inside its cells

    def input_accesses(self, seed) -> int:
        return 0

    def keys(self) -> List[str]:
        return [
            f"{bench}/{name}"
            for bench in self.benches
            for name in ("baseline",) + self.configs
        ]

    def _sweep(self, seed: int, cache_dir: str) -> List[Cell]:
        records = sweep(
            list(self.benches),
            {name: name for name in self.configs},
            n_accesses=self.n_accesses,
            seed=seed,
            scale=common.SCALE,
            n_jobs=SWEEP_JOBS,
            cache_dir=cache_dir,
        )
        reap_workers()
        by_bench: Dict[str, list] = {}
        for record in records:
            by_bench.setdefault(record.workload, [record.baseline]).append(record.result)
        cells = []
        for key, result in zip(self.keys(), (r for b in self.benches for r in by_bench[b])):
            cells.append(
                Cell(key, result.manifest.wall_time_s, self.n_accesses, [result],
                     result.traffic, _manifest_engine(result))
            )
        return cells

    def run_pass(self, seed: int, spans) -> Pass:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="sweep-cache-", dir=self.out_dir)
        try:
            common.clear_caches()
            with spans.span("sim.sweep", sweep="cold"):
                start, cpu = time.perf_counter(), process_and_children_cpu()
                try:
                    cold = self._sweep(seed, cache_dir)
                except Exception:
                    error = _report("cold sweep")
                    cold = [Cell(k, 0.0, self.n_accesses, error=error) for k in self.keys()]
                wall = time.perf_counter() - start
                cpu = process_and_children_cpu() - cpu
            files = [p for p in Path(cache_dir).rglob("*") if p.is_file()]
            entries = sum(
                1 for p in files
                if p.suffix == ".json" and "results" in p.relative_to(cache_dir).parts
            )
            nbytes = sum(p.stat().st_size for p in files)
            common.clear_caches()
            with spans.span("sim.sweep", sweep="warm"):
                start = time.perf_counter()
                try:
                    warm = self._sweep(seed, cache_dir)
                except Exception:
                    error = _report("warm sweep")
                    warm = [Cell(k, 0.0, self.n_accesses, error=error) for k in self.keys()]
                warm_wall = time.perf_counter() - start
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return Pass(wall, cold, warm, warm_wall, entries, nbytes, cpu)


def build(name: str, tiny: bool, out_dir: Path):
    """The named workload at benchmark size (``tiny`` for self-tests)."""
    if name == "irregular_1c":
        return SingleCore(IRREGULAR, IRREGULAR_CONFIGS, 3_000 if tiny else 15_000)
    if name == "mix_4c":
        return Mix(2 if tiny else 10, MIX_CONFIGS, 1_000 if tiny else 1_500)
    if name == "sweep_2job":
        return Sweep(SWEEP_BENCHES, SWEEP_CONFIGS, 3_000 if tiny else 30_000, out_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("irregular_1c", "mix_4c", "sweep_2job")
