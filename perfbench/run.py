"""The repository benchmark: one command per workload, metrics as JSON.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold_trace --seed 1 --seconds 15 --trace 0

Workloads: ``cold_trace`` (trace generation from assembly source),
``warm_sweep`` (the paper grid over stored traces) and ``serve_open`` (an
open-loop load on ``repro serve``).  ``--trace 0`` measures with nothing
instrumented and prints every end-to-end metric; ``--trace 1`` wraps the
program's entry points in spans and prints every per-layer metric, the
per-stage ledger and the cost of tracing.  The metric names and units come
from ``BENCHMARK.json``.

End-to-end metrics (every workload reports each):

* ``setup_s`` -- median of three set-ups (a fresh interpreter importing the
  package, plus the workload's own set-up: filling the trace store for
  warm_sweep, building traces and starting the server for serve_open);
* ``peak_rss_mb`` -- peak resident set of this process plus its largest child
  (offline workloads) or of the server process (serve_open);
* ``ops_ok_frac`` -- operations (trace builds, sweep cells, served frames)
  that passed every check, over those attempted;
* ``mevents_per_s`` -- simulated instructions (cold_trace) or spec x branch
  predictions (warm_sweep) per second, or the server's capacity in records
  answered per second (serve_open), measured with a fixed window of frames
  outstanding per session so that no offered rate bounds it;
* ``op_p50_ms`` -- median time of one repetition (offline workloads) or
  median frame latency from its due time at the mid rate (serve_open).

Every run checks each simulated statistic against ``golden.json`` (or, for
served sessions, against the offline engine) and exits 1 when any check
fails, when the workload raises, or when a metric it should report is
missing; the last line of standard output is the JSON result either way.
A traced cold_trace run builds its traces at 200000 conditional branches,
the size of the ROADMAP's per-stage baseline (golden.json covers it).
"""

from __future__ import annotations

import argparse
import json
import platform
import os
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold_trace", "warm_sweep", "serve_open")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import harness

    checks = harness.Checks()
    with harness.scratch_dir() as scratch:
        harness.setup_environment(scratch)
        sys.path.insert(0, str(harness.SRC))
        from repro.sim.backend import resolve_backend

        backend = resolve_backend("auto")
        print(
            f"environment: nproc={os.cpu_count()} python={platform.python_version()}"
            f" numpy={harness.optional_numpy_version()} backend={backend}"
        )
        if backend != "vector":
            print("perfbench: the vector backend (NumPy) is required", file=sys.stderr)
            return 2
        try:
            import offline
            import serve_open

            run = {
                "cold_trace": offline.cold_trace,
                "warm_sweep": offline.warm_sweep,
                "serve_open": serve_open.serve_open,
            }[args.workload]
            result = run(args.seed, args.seconds, bool(args.trace), scratch, checks)
        except Exception as error:
            # still print the result line: the run failed, with what it attempted
            traceback.print_exc()
            checks.fail(f"the workload raised {type(error).__name__}: {error}")
            result = None

    if args.trace:
        for name, (workloads, why) in harness.LAYER_MAP.items():
            print(f"layer map: {name} ({', '.join(workloads)}) -> {why}")
    metrics = {}
    if result is not None:
        for line in result["lines"]:
            print(line)
        if args.trace:
            metrics, missing = harness.select_metrics(spec["per_layer"], result["layers"], args.workload)
        else:
            metrics, missing = harness.select_metrics(spec["end_to_end"], result["e2e"], None)
        if missing:
            checks.fail(f"metrics not produced: {', '.join(missing)}")
    for error in checks.errors:
        print(f"CHECK FAILED: {error}")
    correct = checks.failed == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": checks.attempted, "failed": checks.failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
