"""Ratio gate for the interpreter's compiled tier.

:meth:`repro.isa.cpu.CPU.run` compiles a block once its entry pc has been
entered ``HOT_THRESHOLD`` times.  This bench times the default ``CPU.run``
against the never-compile setting (the threshold patched out of reach) in
one process, best of 3 fresh CPUs each, on tomcatv (long straight-line
loop bodies) and gcc (short blocks, many cold register-target entries) at
20,000 conditional branches, and asserts that the default is at least
:data:`RATIO_FLOOR` times faster.  Both sides pay their own compilation
and assembly is outside the timing.  The gate checks a ratio measured on
one machine, never an absolute time, and it runs the generated block code
on whichever Python version executes it.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_interpreter.py -q -s``.
"""

from __future__ import annotations

import sys
import time

import pytest

from repro.isa import cpu as cpu_module
from repro.isa.assembler import assemble
from repro.workloads.base import get_workload

RATIO_FLOOR = 1.5
SCALE = 20_000
REPEATS = 3


def _best_of(run):
    timings = []
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = run()
        timings.append(time.perf_counter() - start)
    return min(timings), result


@pytest.mark.parametrize("name", ["tomcatv", "gcc"])
def test_compiled_tier_beats_cold_tier(name, monkeypatch):
    workload = get_workload(name)
    program = assemble(workload.build_source(workload.dataset("test")))

    def run():
        return cpu_module.CPU(program).run(max_conditional_branches=SCALE)

    default_s, default = _best_of(run)
    monkeypatch.setattr(cpu_module, "HOT_THRESHOLD", sys.maxsize)
    cold_s, cold = _best_of(run)

    assert default.packed == cold.packed and default.mix == cold.mix
    ratio = cold_s / default_s
    print(
        f"\n{name} @ {SCALE}: default {default_s * 1e3:.1f} ms,"
        f" never-compile {cold_s * 1e3:.1f} ms, ratio {ratio:.2f}x"
        f" ({default.instructions_executed / default_s / 1e6:.2f} M instr/s)"
    )
    assert ratio >= RATIO_FLOOR, f"{name}: compiled tier only {ratio:.2f}x the cold tier"
