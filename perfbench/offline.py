"""The offline workloads: ``cold_trace`` and ``warm_sweep``.

cold_trace
    From an empty trace store, build the eqntott, gcc and tomcatv test
    traces through ``TraceCache.get`` (assemble, interpret, pack, shard
    write) and score one AT spec on each.  The interpreter dominates.  The
    three programs span what an interpreter change depends on: tomcatv
    runs ~15 instructions per conditional branch, eqntott ~4, and gcc has
    by far the largest program (the slowest assemble).  Untraced runs build
    at 50000 conditional branches; traced runs at 200000, the size of the
    ROADMAP's per-stage baseline.
warm_sweep
    Set-up fills a store with all fourteen traces at the program's default
    length (50000 conditional branches); the timed part scores
    the paper grid (figures 5-9 plus gshare, perceptron and TAGE: 29 specs)
    with ``SweepRunner.run(jobs=1)`` from an empty result cache.  It reads
    shards through mmap and never runs the interpreter, so an interpreter
    change should move nothing here but ``setup_s``.
"""

from __future__ import annotations

import random
import shutil
import statistics
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Tuple

import harness
from harness import Checks, fresh_dir, mix_dict, stats_list, trace_digest
from spans import Tracer, now, uncovered

COLD_BENCHMARKS = ("eqntott", "gcc", "tomcatv")
COLD_SPEC = "AT(AHRT(512,12SR),PT(2^12,A2),)"
COLD_SCALE = 50_000
#: the size the ROADMAP's per-stage baseline was taken at: a traced
#: cold_trace run builds at this size, so its ledger reproduces that baseline
LEDGER_SCALE = 200_000

#: the program's default trace length (``DEFAULT_CONDITIONAL_BRANCHES``), so
#: per-cell fixed costs weigh what they do in a default ``repro run``
SWEEP_SCALE = 50_000
MODERN_SPECS = ("gshare(12)", "perceptron(12,512)", "tage(4,9)")

#: spec family of each scheme, for the per-family breakdown
FAMILIES = {
    "AT": "at",
    "ST": "st",
    "LS": "ls",
    "Profile": "static",
    "BTFN": "static",
    "AlwaysTaken": "static",
    "gshare": "gshare",
    "Perceptron": "perceptron",
    "TAGE": "tage",
}

SETUP_REPS = 3


def grid_specs() -> List[str]:
    """The paper grid: fig5, fig6, fig7 ladder, fig8 and fig9 specs (each
    once, canonical) plus the three modern predictors."""
    from repro.experiments import (
        fig5_automata,
        fig6_hrt,
        fig7_history_length,
        fig8_static_training,
        fig9_other_schemes,
    )
    from repro.predictors.spec import parse_spec

    specs: List[str] = []
    for module in (fig5_automata, fig6_hrt, fig7_history_length, fig8_static_training, fig9_other_schemes):
        for text in module.SPECS:
            canonical = parse_spec(text).canonical()
            if canonical not in specs:
                specs.append(canonical)
    specs.extend(parse_spec(text).canonical() for text in MODERN_SPECS)
    return specs


def _reps(seconds: float, body, traced: bool) -> None:
    """Run ``body(index, traced_rep)`` until ``seconds`` have passed (at
    least once; at least twice when traced runs alternate)."""
    deadline = now() + seconds
    index = 0
    while True:
        body(index, traced and index % 2 == 1)
        index += 1
        if now() >= deadline and index >= (2 if traced else 1):
            return


def _rate_and_cost(rep_ms: List[float], work: List[float]) -> Dict[str, float]:
    """mevents_per_s and op_p50_ms: medians over the repetitions."""
    return {
        "mevents_per_s": statistics.median(w / ms / 1e3 for w, ms in zip(work, rep_ms)),
        "op_p50_ms": statistics.median(rep_ms),
    }


class _Instrumented:
    """Install the tracer's wrappers for one repetition."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __enter__(self) -> Tracer:
        harness.instrument(self.tracer)
        return self.tracer

    def __exit__(self, *exc: Any) -> None:
        self.tracer.restore()


# ----------------------------------------------------------------------
# cold_trace
# ----------------------------------------------------------------------
def cold_trace(seed: int, seconds: float, traced: bool, scratch: Path, checks: Checks) -> Dict[str, Any]:
    from repro.predictors.spec import parse_spec
    from repro.sim import kernels
    from repro.workloads.base import TraceCache, get_workload

    scale = LEDGER_SCALE if traced else COLD_SCALE
    golden = harness.load_golden()["cold_trace"].get(str(scale))
    if golden is None:
        checks.fail(f"no golden table for cold_trace at scale {scale}")
    del seed  # the inputs are three fixed programs, built in a fixed order
    spec = parse_spec(COLD_SPEC)

    setups = []
    for _ in range(SETUP_REPS):
        started = now()
        harness.interpreter_start()
        store = fresh_dir(scratch, "cold-setup-")
        TraceCache(store)
        workloads = [get_workload(name) for name in COLD_BENCHMARKS]
        setups.append(now() - started)
        shutil.rmtree(store)

    tracer = Tracer()
    op_ms: List[float] = []
    walls = {False: [], True: []}
    windows: List[Tuple[float, float]] = []

    def rep(index: int, traced_rep: bool) -> None:
        store = fresh_dir(scratch, "cold-")
        cache = TraceCache(store)
        built = []
        with _Instrumented(tracer) if traced_rep else nullcontext():
            started = now()
            for workload in workloads:
                with tracer.tagged(workload.name) if traced_rep else nullcontext():
                    op_started = now()
                    trace = cache.get(workload, "test", scale)
                    stats = kernels.score_spec(spec, trace.packed(), backend="vector")
                    op_ms.append(1e3 * (now() - op_started))
                built.append((workload.name, trace, stats))
            finished = now()
        walls[traced_rep].append(finished - started)
        if traced_rep:
            windows.append((started, finished))
        rep_ms.append(1e3 * (finished - started))
        work.append(sum(trace.mix.total_instructions for _name, trace, _stats in built))
        for name, trace, stats in built:
            expected = (golden or {}).get(name)
            if expected is None:
                continue
            wrong = [
                what
                for what, ok in (
                    ("trace digest", trace_digest(trace.packed()) == expected["digest"]),
                    ("instruction mix", mix_dict(trace.mix) == expected["mix"]),
                    (f"{COLD_SPEC} counts", stats_list(stats) == expected["stats"]),
                )
                if not ok
            ]
            checks.check(not wrong, f"{name}: {', '.join(wrong)} differ from golden.json")
        shutil.rmtree(store)

    rep_ms: List[float] = []
    work: List[float] = []
    _reps(seconds, rep, traced)
    e2e = _rate_and_cost(rep_ms, work)
    lines = [
        f"cold_trace: scale={scale} programs={','.join(COLD_BENCHMARKS)} spec={COLD_SPEC} repetitions={len(rep_ms)}",
        harness.timing_line("setup", setups, "s"),
        harness.timing_line("cold build+score of the three programs", rep_ms, "ms"),
        harness.timing_line("cold build+score per program", op_ms, "ms"),
        f"rate: median {e2e['mevents_per_s']:.4f} M simulated instructions per host second",
    ]
    result = {
        "lines": lines,
        "e2e": dict(
            setup_s=statistics.median(setups),
            peak_rss_mb=harness.peak_rss_mb(),
            ops_ok_frac=checks.ok_frac,
            **e2e,
        ),
    }
    if traced:
        traced_reps = len(windows)
        counters = tracer.counters
        interpret_ms = tracer.self_ms("isa.interpret") / traced_reps
        layers = {
            "workloads.build_source_ms": tracer.self_ms("workloads.build_source") / traced_reps,
            "isa.assemble_ms": tracer.self_ms("isa.assemble") / traced_reps,
            "isa.interpret_ms": interpret_ms,
            "isa.instr_count": counters["isa.instr_count"] / traced_reps,
            "isa.minstr_per_s": (counters["isa.instr_count"] / traced_reps) / interpret_ms / 1e3
            if interpret_ms
            else 0.0,
            "trace.pack_ms": tracer.self_ms("trace.pack") / traced_reps,
            "trace.shard_write_ms": tracer.self_ms("trace.shard_write") / traced_reps,
            "trace.shard_bytes": counters["trace.shard_bytes"] / traced_reps,
            "trace.shard_read_ms": tracer.self_ms("trace.shard_read") / traced_reps,
            "trace.store_hits": counters["trace.store_hits"] / traced_reps,
            "trace.store_misses": counters["trace.store_misses"] / traced_reps,
            "sim.score_ms": tracer.self_ms("sim.score_spec") / traced_reps,
            "unattributed_ms": 1e3 * sum(uncovered(w, tracer.roots()) for w in windows) / traced_reps,
            "trace_overhead_frac": statistics.median(walls[True]) / statistics.median(walls[False]),
        }
        wall_ms = 1e3 * statistics.median(walls[True])
        lines.append(
            f"interpret share: {interpret_ms / wall_ms:.3f} of the traced repetition wall time"
            f" ({interpret_ms:.1f} of {wall_ms:.1f} ms)"
        )
        lines.extend(
            harness.ledger_lines(tracer, "cold_trace timed phase", traced_reps, layers["unattributed_ms"])
        )
        result["layers"] = layers
    return result


# ----------------------------------------------------------------------
# warm_sweep
# ----------------------------------------------------------------------
def _fill_store(store: Path, scale: int) -> Any:
    from repro.workloads.base import TraceCache, get_workload, workload_names

    cache = TraceCache(store)
    for name in workload_names():
        workload = get_workload(name)
        cache.get(workload, "test", scale)
        if workload.has_training_set:
            cache.get(workload, "train", scale)
    return cache


def _family_pass(cache: Any, specs: List[str], scale: int) -> Tuple[Dict[str, float], float]:
    """Score each benchmark once fused over the whole grid and once per
    family (each through its own ``fused_stats`` call, fresh contexts both
    times); returns ms per family and the split/fused time ratio."""
    from repro.predictors.spec import parse_spec
    from repro.sim import sweep as sweep_module
    from repro.workloads.base import get_workload, workload_names

    parsed = [parse_spec(text) for text in specs]
    family_ms: Dict[str, float] = {family: 0.0 for family in sorted(set(FAMILIES.values()))}
    fused_s = split_s = 0.0
    for name in workload_names():
        workload = get_workload(name)
        usable = [
            spec for spec in parsed
            if not (spec.scheme == "ST" and spec.data_mode == "Diff" and not workload.has_training_set)
        ]
        packed = cache.get(workload, "test", scale).packed()
        train = cache.get(workload, "train", scale).packed() if workload.has_training_set else None

        def score(group: List[Any]) -> float:
            started = now()
            context = sweep_module.TraceContext(packed)
            trainings = {"test": context}
            if train is not None and any(sweep_module.training_role(s) == "train" for s in group):
                trainings["train"] = sweep_module.TraceContext(train)
            sweep_module.fused_stats(group, packed, context=context, training_contexts=trainings)
            return now() - started

        fused_s += score(usable)
        for family in family_ms:
            group = [spec for spec in usable if FAMILIES.get(spec.scheme) == family]
            if group:
                elapsed = score(group)
                family_ms[family] += 1e3 * elapsed
                split_s += elapsed
    return family_ms, split_s / fused_s


def warm_sweep(seed: int, seconds: float, traced: bool, scratch: Path, checks: Checks) -> Dict[str, Any]:
    from repro.sim.result_cache import ResultCache
    from repro.sim.runner import SweepRunner
    from repro.workloads.base import TraceCache

    scale = SWEEP_SCALE
    golden = harness.load_golden()["warm_sweep"].get(str(scale))
    if golden is None:
        checks.fail(f"no golden table for warm_sweep at scale {scale}")
    specs = grid_specs()
    random.Random(seed).shuffle(specs)

    tracer = Tracer()
    setups = []
    setup_lines: List[str] = []
    store = None
    for index in range(SETUP_REPS):
        if store is not None:
            shutil.rmtree(store)
        started = now()
        harness.interpreter_start()
        store = fresh_dir(scratch, "warm-store-")
        with _Instrumented(tracer) if traced and index == 0 else nullcontext():
            _fill_store(store, scale)
        setups.append(now() - started)
        if traced and index == 0:
            setup_lines = harness.ledger_lines(tracer, "warm_sweep set-up (traced, not timed)", 1)
            tracer.reset()

    rep_ms: List[float] = []
    work: List[float] = []
    walls = {False: [], True: []}
    windows: List[Tuple[float, float]] = []
    results_dirs: List[Path] = []

    def rep(index: int, traced_rep: bool) -> None:
        results = fresh_dir(scratch, "results-")
        results_dirs.append(results)
        runner = SweepRunner(None, scale, TraceCache(store), backend="vector", result_cache=ResultCache(results))
        with _Instrumented(tracer) if traced_rep else nullcontext():
            started = now()
            sweep = runner.run(specs, jobs=1)
            finished = now()
        walls[traced_rep].append(finished - started)
        if traced_rep:
            windows.append((started, finished))
        evaluations = 0
        seen = 0
        for scheme, row in sweep.results.items():
            for benchmark, cell in row.items():
                seen += 1
                evaluations += cell.stats.conditional_total
                expected = (golden or {}).get(scheme, {}).get(benchmark)
                checks.check(stats_list(cell.stats) == expected, f"{scheme} on {benchmark}: counts differ")
        expected_cells = sum(len(row) for row in (golden or {}).values())
        if seen < expected_cells:
            checks.fail(f"{expected_cells - seen} grid cells missing", expected_cells - seen)
        work.append(evaluations)
        rep_ms.append(1e3 * (finished - started))

    _reps(seconds, rep, traced)
    e2e = _rate_and_cost(rep_ms, work)
    lines = [
        f"warm_sweep: scale={scale} specs={len(specs)} benchmarks=9 repetitions={len(rep_ms)} seed order starts {specs[0]}",
        harness.timing_line("setup", setups, "s"),
        harness.timing_line("grid sweep", rep_ms, "ms"),
        f"rate: median {e2e['mevents_per_s']:.4f} M spec x branch predictions per host second",
    ]
    result = {
        "lines": lines,
        "e2e": dict(
            setup_s=statistics.median(setups),
            peak_rss_mb=harness.peak_rss_mb(),
            ops_ok_frac=checks.ok_frac,
            **e2e,
        ),
    }
    if traced:
        traced_reps = len(windows)
        counters = dict(tracer.counters)
        timed = {
            "isa.interpret_ms": tracer.self_ms("isa.interpret") / traced_reps,
            "trace.shard_read_ms": tracer.self_ms("trace.shard_read") / traced_reps,
            "trace.store_hits": counters.get("trace.store_hits", 0) / traced_reps,
            "trace.store_misses": counters.get("trace.store_misses", 0) / traced_reps,
            "sim.context_ms": tracer.self_ms("sim.context.") / traced_reps,
            "sim.fused_self_ms": tracer.self_ms("sim.fused") / traced_reps,
            "sim.result_cache.put_ms": tracer.self_ms("sim.result_cache.put") / traced_reps,
            "sim.result_cache.misses": counters.get("sim.result_cache.misses", 0) / traced_reps,
            "unattributed_ms": 1e3 * sum(uncovered(w, tracer.roots()) for w in windows) / traced_reps,
            "trace_overhead_frac": statistics.median(walls[True]) / statistics.median(walls[False]),
        }
        lines.extend(setup_lines)
        lines.extend(
            harness.ledger_lines(tracer, "warm_sweep timed phase", traced_reps, timed["unattributed_ms"])
        )
        # the hit path: the same grid again over a filled result cache
        tracer.reset()
        runner = SweepRunner(None, scale, TraceCache(store), backend="vector", result_cache=ResultCache(results_dirs[-1]))
        with _Instrumented(tracer):
            runner.run(specs, jobs=1)
        timed["sim.result_cache.hit_ms"] = tracer.self_ms("sim.result_cache.get")
        timed["sim.result_cache.hits"] = tracer.counters.get("sim.result_cache.hits", 0)
        family_ms, split_ratio = _family_pass(TraceCache(store), specs, scale)
        for family, value in family_ms.items():
            timed[f"sim.family_ms.{family}"] = value
        timed["sim.family_split_ratio"] = split_ratio
        lines.append(
            "families: " + " ".join(f"{k}={v:.1f}ms" for k, v in family_ms.items())
            + f"; scored one family per fused_stats call the grid takes {split_ratio:.3f}x"
            " the time of one fused call (base: the fused call, fresh contexts both ways)"
        )
        result["layers"] = timed
    shutil.rmtree(store)
    return result
