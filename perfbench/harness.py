"""Shared pieces of the benchmark: isolation, instrumentation, golden data.

Everything a run writes lives in a scratch directory inside the checkout
(``.perfbench_tmp/``), and the program's cache locations are pointed there
before any of it is imported, so a run never reads or writes the user's
``~/.cache/repro-traces``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from spans import Tracer, now

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"

COLD, WARM, SERVE = ("cold_trace",), ("warm_sweep",), ("serve_open",)
OFFLINE = COLD + WARM
EVERY = COLD + WARM + SERVE

#: per-layer metric (``*`` matches any suffix) -> (the workloads that
#: measure it, the end-to-end metric it should move and where); a traced
#: run reports 0 for a metric its workload does not measure
LAYER_MAP = {
    "workloads.build_source_ms": (COLD, "mevents_per_s on cold_trace; setup_s on warm_sweep and serve_open"),
    "isa.assemble_ms": (COLD, "mevents_per_s on cold_trace; setup_s on warm_sweep and serve_open"),
    "isa.interpret_ms": (OFFLINE, "mevents_per_s on cold_trace; setup_s on warm_sweep and serve_open (0 in warm_sweep's timed phase)"),
    "isa.minstr_per_s": (COLD, "mevents_per_s on cold_trace"),
    "isa.instr_count": (COLD, "mevents_per_s on cold_trace (the work it divides)"),
    "trace.pack_ms": (COLD, "mevents_per_s on cold_trace; setup_s on warm_sweep and serve_open"),
    "trace.shard_write_ms": (COLD, "mevents_per_s on cold_trace; setup_s on warm_sweep"),
    "trace.shard_bytes": (COLD, "mevents_per_s on cold_trace"),
    "trace.shard_read_ms": (OFFLINE, "mevents_per_s and setup_s on warm_sweep"),
    "trace.store_hits": (OFFLINE, "mevents_per_s and setup_s on warm_sweep (0 on a cold run)"),
    "trace.store_misses": (OFFLINE, "mevents_per_s on cold_trace (every build must miss)"),
    "sim.score_ms": (COLD, "mevents_per_s on cold_trace"),
    "sim.context_ms": (WARM, "mevents_per_s on warm_sweep"),
    "sim.fused_self_ms": (WARM, "mevents_per_s on warm_sweep"),
    "sim.family_ms.*": (WARM, "mevents_per_s on warm_sweep"),
    "sim.family_split_ratio": (WARM, "mevents_per_s on warm_sweep (what fusing across families saves)"),
    "sim.result_cache.*": (WARM, "mevents_per_s on warm_sweep"),
    "serve.*": (SERVE, "op_p50_ms and mevents_per_s on serve_open"),
    "unattributed_ms": (EVERY, "whichever end-to-end metric its workload reports"),
    "trace_overhead_frac": (EVERY, "none: the cost of tracing itself"),
}


def layer_entry(name: str) -> Optional[Tuple[Tuple[str, ...], str]]:
    """The :data:`LAYER_MAP` entry covering metric ``name``, if any."""
    if name in LAYER_MAP:
        return LAYER_MAP[name]
    for pattern, entry in LAYER_MAP.items():
        if pattern.endswith("*") and name.startswith(pattern[:-1]):
            return entry
    return None


def select_metrics(
    wanted: List[Dict[str, str]], values: Dict[str, float], workload: Optional[str]
) -> Tuple[Dict[str, Dict[str, Any]], List[str]]:
    """The metrics named in ``wanted`` with their values and units, and the
    names that are missing.  With a ``workload`` (the per-layer metrics), a
    metric that workload does not measure reads 0; every other missing or
    unmapped metric is reported as missing."""
    metrics: Dict[str, Dict[str, Any]] = {}
    missing: List[str] = []
    for entry in wanted:
        name = entry["name"]
        if name in values:
            metrics[name] = {"value": float(values[name]), "unit": entry["unit"]}
            continue
        layer = layer_entry(name) if workload else None
        if layer is not None and workload not in layer[0]:
            metrics[name] = {"value": 0.0, "unit": entry["unit"]}
        else:
            missing.append(name)
    return metrics, missing


def setup_environment(scratch: Path) -> None:
    """Point every cache the program knows at ``scratch`` (and keep
    bytecode out of the checkout) before the program is imported."""
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "default-cache")
    os.environ["XDG_CACHE_HOME"] = str(scratch / "xdg")
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    os.environ.pop("REPRO_BACKEND", None)
    sys.dont_write_bytecode = True


@contextmanager
def scratch_dir() -> Iterator[Path]:
    """A private directory under ``<checkout>/.perfbench_tmp``, removed
    on exit."""
    parent = ROOT / ".perfbench_tmp"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"run{os.getpid()}-", dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:
            pass


def fresh_dir(scratch: Path, prefix: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=prefix, dir=scratch))


def instrument(tracer: Tracer) -> None:
    """Wrap the program's public entry points in spans (see spans.Tracer)."""
    from repro.workloads import base as workloads_base

    classes = [type(workloads_base.get_workload(name)) for name in workloads_base.workload_names()]
    tracer.wrap_overrides(workloads_base.Workload, "build_source", "workloads.build_source", classes)
    tracer.wrap("repro.isa.assembler:assemble", "isa.assemble")
    tracer.wrap("repro.isa.cpu:CPU.run", "isa.interpret", after=_count_instructions)
    tracer.wrap("repro.trace.columnar:pack_records", "trace.pack")
    tracer.wrap("repro.trace.store:TraceStore.store", "trace.shard_write", after=_count_shard)
    tracer.wrap("repro.trace.store:TraceStore.load", "trace.shard_read", after=_count_load)
    tracer.wrap("repro.sim.sweep:TraceContext.__init__", "sim.context.init")
    tracer.wrap("repro.sim.sweep:TraceContext.hrt_keys", "sim.context.hrt_keys")
    tracer.wrap("repro.sim.sweep:TraceContext.history", "sim.context.history")
    tracer.wrap("repro.sim.sweep:TraceContext.global_history", "sim.context.global_history")
    tracer.wrap("repro.sim.sweep:fused_stats", "sim.fused")
    tracer.wrap("repro.sim.kernels:score_spec", "sim.score_spec")
    tracer.wrap("repro.sim.result_cache:ResultCache.get", "sim.result_cache.get", after=_count_result)
    tracer.wrap("repro.sim.result_cache:ResultCache.put", "sim.result_cache.put")


def _count_instructions(tracer: Tracer, result: Any, _args: tuple) -> None:
    mix = getattr(result, "mix", None)
    if mix is not None:
        tracer.count("isa.instr_count", mix.total_instructions)


def _count_shard(tracer: Tracer, result: Any, _args: tuple) -> None:
    try:
        tracer.count("trace.shard_bytes", Path(result).stat().st_size)
    except (TypeError, OSError):
        pass


def _count_load(tracer: Tracer, result: Any, _args: tuple) -> None:
    tracer.count("trace.store_misses" if result is None else "trace.store_hits")


def _count_result(tracer: Tracer, result: Any, _args: tuple) -> None:
    tracer.count("sim.result_cache.misses" if result is None else "sim.result_cache.hits")


def trace_digest(packed: Any) -> str:
    """Content digest of a packed trace's three columns."""
    from array import array

    digest = hashlib.sha256()
    digest.update(array("I", packed.pc).tobytes())
    digest.update(array("I", packed.target).tobytes())
    digest.update(bytes(packed.flags))
    return digest.hexdigest()


def mix_dict(mix: Any) -> Dict[str, int]:
    return {
        "conditional": mix.conditional,
        "returns": mix.returns,
        "imm_unconditional": mix.imm_unconditional,
        "reg_unconditional": mix.reg_unconditional,
        "non_branch": mix.non_branch,
    }


def stats_list(stats: Any) -> List[int]:
    return [
        stats.conditional_total,
        stats.conditional_correct,
        stats.returns_total,
        stats.returns_correct,
    ]


def load_golden() -> Dict[str, Any]:
    with GOLDEN.open() as handle:
        return json.load(handle)


def interpreter_start() -> None:
    """Start a fresh interpreter that imports the program and resolves its
    backend: the start-up every CLI invocation pays (part of set-up)."""
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro.cli, repro.sim.runner, repro.sim.backend as b; b.resolve_backend()",
        ],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
        timeout=120,
    )


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Checks:
    """Attempted and failed operations plus the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def fail(self, what: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(what)

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0


def ledger_lines(tracer: Tracer, title: str, reps: int, unattributed_ms: Optional[float] = None) -> List[str]:
    """The per-stage table, per tag, ms per repetition; time inside the
    timed window but outside every span is its own ``unattributed`` row."""
    rows = tracer.ledger()
    if len({tag for _name, tag in rows}) > 1:
        for (name, _tag), row in list(rows.items()):
            total = rows.setdefault((name, "all"), {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in total:
                total[key] += row[key]
    lines = [f"ledger: {title} (ms per repetition over {reps}; self excludes child spans)"]
    lines.append(f"  {'span':28s} {'tag':10s} {'calls':>7s} {'total_ms':>10s} {'self_ms':>10s}")
    for (name, tag), row in sorted(rows.items(), key=lambda item: (item[0][1] or "", item[0][0])):
        lines.append(
            f"  {name:28s} {tag or '-':10s} {row['calls'] / reps:7.1f}"
            f" {1e3 * row['total_s'] / reps:10.2f} {1e3 * row['self_s'] / reps:10.2f}"
        )
    if unattributed_ms is not None:
        lines.append(f"  {'unattributed':28s} {'-':10s} {'':7s} {unattributed_ms:10.2f} {unattributed_ms:10.2f}")
    if tracer.absent:
        lines.append("  absent entry points: " + ", ".join(tracer.absent))
    return lines


def timing_line(name: str, values: List[float], unit: str) -> str:
    """A timing as its median, the highest percentile with enough samples
    beyond it, and the sample count."""
    from spans import TAIL_SAMPLES, summarize

    summary = summarize(values)
    if summary["n"] == 0:
        return f"timing {name}: no samples"
    tail = (
        f"p{100 * summary['tail_q']:g}={summary['tail']:.4f}{unit}"
        if summary["tail_q"] is not None
        else f"no percentile has {TAIL_SAMPLES} samples beyond it"
    )
    return f"timing {name}: median={summary['median']:.4f}{unit} {tail} n={summary['n']}"


def optional_numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__
