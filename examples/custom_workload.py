#!/usr/bin/env python3
"""Scenario: evaluating predictors on your own program.

The trace substrate is a real (small) RISC with an assembler, so you can
write any kernel, execute it, and feed the resulting branch trace to any
predictor — here, a binary-search kernel whose comparison branch is
data-dependent, a behaviour class the paper's scheme handles well when the
probe sequence repeats.

Run:  python examples/custom_workload.py
"""

from repro import measure_accuracy, parse_spec
from repro.isa import CPU, assemble
from repro.trace.stats import static_branch_census, taken_rate

# Binary search over a sorted table, repeated for a cyclic probe sequence.
SOURCE = """
_start:
    li   r20, table
    li   r21, probes
    li   r22, 0             ; probe index
search:
    shli r2, r22, 2
    add  r2, r2, r21
    ld   r3, 0(r2)          ; probe value
    addi r22, r22, 1
    li   r2, 16
    bge  r22, r2, wrap
back:
    li   r4, 0              ; lo
    li   r5, 63             ; hi
bisect:
    bgt  r4, r5, search     ; not found
    add  r6, r4, r5
    srai r6, r6, 1          ; mid
    shli r7, r6, 2
    add  r7, r7, r20
    ld   r8, 0(r7)
    beq  r8, r3, search     ; found
    blt  r8, r3, go_right   ; the data-dependent decision
    addi r5, r6, -1
    br   bisect
go_right:
    addi r4, r6, 1
    br   bisect
wrap:
    li   r22, 0
    br   back

.data
table:
""" + "\n".join(f"    .word {7 * i}" for i in range(64)) + """
probes:
""" + "\n".join(f"    .word {(railroad * 37) % 441}" for railroad in range(16))


def main() -> None:
    program = assemble(SOURCE)
    cpu = CPU(program)
    result = cpu.run(max_conditional_branches=40_000)
    trace = result.packed  # columnar; iterating it yields BranchRecords

    print(f"executed {result.instructions_executed} instructions")
    print(f"conditional branches: {result.mix.conditional}")
    print(f"static branch sites:  {static_branch_census(trace).static_conditional}")
    print(f"taken rate:           {taken_rate(trace):.2%}\n")

    for spec in (
        "AT(AHRT(512,12SR),PT(2^12,A2),)",
        "AT(AHRT(512,6SR),PT(2^6,A2),)",
        "LS(AHRT(512,A2),,)",
        "BTFN",
    ):
        predictor = parse_spec(spec).build()
        accuracy = measure_accuracy(predictor, trace)
        print(f"{spec:36s} {accuracy:.2%}")

    print(
        "\nThe probe sequence repeats every 16 searches, so the bisection"
        "\nbranch outcomes are periodic: long histories learn them, short"
        "\nhistories and per-branch counters cannot."
    )


if __name__ == "__main__":
    main()
