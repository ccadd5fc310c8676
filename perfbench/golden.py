"""Regenerate ``golden.json``, the statistics every benchmark run must match.

    python3 perfbench/golden.py

Only rerun this when a change is *meant* to alter simulated results (a
workload generator or predictor semantics changed); a speed-only change
must leave the table identical.  The sweep cells come from the per-cell
reference path (``SweepRunner.run_one``), not the fused engine the
benchmark times, so the two paths check each other.
"""

from __future__ import annotations

import json
import sys

import harness
from harness import mix_dict, stats_list, trace_digest


def main() -> int:
    with harness.scratch_dir() as scratch:
        harness.setup_environment(scratch)
        sys.path.insert(0, str(harness.SRC))
        import offline
        from repro.predictors.spec import parse_spec
        from repro.sim import kernels
        from repro.sim.runner import SweepRunner
        from repro.workloads.base import TraceCache, get_workload, workload_names

        cache = TraceCache(harness.fresh_dir(scratch, "golden-"))
        cold = {}
        spec = parse_spec(offline.COLD_SPEC)
        for scale in (offline.COLD_SCALE, offline.LEDGER_SCALE):
            for name in offline.COLD_BENCHMARKS:
                trace = cache.get(get_workload(name), "test", scale)
                cold.setdefault(str(scale), {})[name] = {
                    "digest": trace_digest(trace.packed()),
                    "mix": mix_dict(trace.mix),
                    "stats": stats_list(kernels.score_spec(spec, trace.packed(), backend="vector")),
                }
        runner = SweepRunner(None, offline.SWEEP_SCALE, cache, backend="vector", result_cache=None)
        sweep = {}
        for text in offline.grid_specs():
            parsed = parse_spec(text)
            row = {}
            for name in workload_names():
                if parsed.scheme == "ST" and parsed.data_mode == "Diff" and not get_workload(name).has_training_set:
                    continue
                row[name] = stats_list(runner.run_one(parsed, name).stats)
            sweep[text] = row
    golden = {
        "cold_trace": cold,
        "warm_sweep": {str(offline.SWEEP_SCALE): sweep},
    }
    harness.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {harness.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
