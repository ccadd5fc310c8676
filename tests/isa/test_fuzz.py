"""Whole-toolchain property tests: random programs through assembler,
encoder, disassembler and CPU.

The generator builds structurally valid programs (straight-line ALU work,
bounded loops, forward skips, a leaf call) so every property below must hold
for *any* output of the strategy: toolchain round-trips are exact, execution
is deterministic, r0 stays zero, and accounting invariants hold.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError
from repro.isa import cpu as cpu_module
from repro.isa.assembler import assemble
from repro.isa.cpu import CPU
from repro.isa.disassembler import disassemble_program
from repro.isa.encoding import decode_program, encode_program
from repro.trace.record import BranchClass

_REGS = [f"r{n}" for n in range(2, 12)]

_ALU = st.sampled_from(["add", "sub", "xor", "and", "or", "mul"])
_ALU_IMM = st.sampled_from(["addi", "muli", "andi", "ori", "xori"])
_REG = st.sampled_from(_REGS)
_IMM = st.integers(-200, 200)
_POS_IMM = st.integers(0, 200)


@st.composite
def _blocks(draw):
    """A list of source fragments; each fragment is a few instructions."""
    fragments = []
    block_count = draw(st.integers(1, 6))
    for index in range(block_count):
        kind = draw(st.integers(0, 3))
        if kind == 0:  # straight-line ALU
            lines = [
                f"    {draw(_ALU)} {draw(_REG)}, {draw(_REG)}, {draw(_REG)}"
                for _ in range(draw(st.integers(1, 4)))
            ]
        elif kind == 1:  # immediate ALU
            lines = [
                f"    {draw(_ALU_IMM)} {draw(_REG)}, {draw(_REG)}, {draw(_POS_IMM)}"
            ]
        elif kind == 2:  # bounded counted loop
            trip = draw(st.integers(1, 8))
            counter = draw(_REG)
            lines = [
                f"    li {counter}, {trip}",
                f"fz_loop{index}:",
                f"    addi {counter}, {counter}, -1",
                f"    bgt {counter}, r0, fz_loop{index}",
            ]
        else:  # forward skip over one instruction
            lines = [
                f"    beq {draw(_REG)}, {draw(_REG)}, fz_skip{index}",
                f"    addi {draw(_REG)}, {draw(_REG)}, 1",
                f"fz_skip{index}:",
            ]
        fragments.append("\n".join(lines))
    return fragments


@st.composite
def _programs(draw):
    fragments = draw(_blocks())
    use_call = draw(st.booleans())
    body = ["_start:"]
    body.extend(fragments)
    if use_call:
        body.append("    bsr fz_leaf")
    body.append("    halt")
    if use_call:
        body.append("fz_leaf:")
        body.append(f"    addi {draw(_REG)}, r0, 7")
        body.append("    rts")
    return "\n".join(body)


class TestToolchainProperties:
    @given(_programs())
    @settings(max_examples=60, deadline=None)
    def test_binary_round_trip(self, source):
        program = assemble(source)
        assert decode_program(encode_program(program.instructions)) == program.instructions

    @given(_programs())
    @settings(max_examples=40, deadline=None)
    def test_disassemble_reassemble_fixpoint(self, source):
        program = assemble(source)
        listing = "\n".join(
            line.split(":", 1)[1] for line in disassemble_program(program).splitlines()
        )
        assert assemble(listing).instructions == program.instructions

    @given(_programs())
    @settings(max_examples=40, deadline=None)
    def test_execution_deterministic(self, source):
        program = assemble(source)
        first = CPU(program).run(max_instructions=5_000)
        second = CPU(program).run(max_instructions=5_000)
        assert first.branch_records == second.branch_records
        assert first.instructions_executed == second.instructions_executed

    @given(_programs())
    @settings(max_examples=40, deadline=None)
    def test_execution_invariants(self, source):
        program = assemble(source)
        cpu = CPU(program)
        result = cpu.run(max_instructions=5_000)
        # r0 is hardwired zero
        assert cpu.regs[0] == 0
        # all registers hold 32-bit values
        assert all(0 <= value <= 0xFFFFFFFF for value in cpu.regs)
        # the mix accounts for every executed instruction
        assert result.mix.total_instructions == result.instructions_executed
        # branch records and mix agree
        conditionals = sum(
            1 for record in result.branch_records if record.cls is BranchClass.CONDITIONAL
        )
        assert conditionals == result.mix.conditional
        # these programs always halt within the cap
        assert result.halted

    @given(_programs())
    @settings(max_examples=40, deadline=None)
    def test_branch_records_reference_text_segment(self, source):
        program = assemble(source)
        result = CPU(program).run(max_instructions=5_000)
        for record in result.branch_records:
            assert program.text_base <= record.pc < program.text_end
            assert program.text_base <= record.target <= program.text_end


# ----------------------------------------------------------------------
# Differential fuzzing of the interpreter's tiers.
#
# CPU.run steps cold code one instruction at a time and compiles a block
# once its entry pc has been entered HOT_THRESHOLD times.  The programs
# below cover every opcode, faults (division by zero, wild register
# jumps, running off the end of the text segment), register jumps that
# land mid-block, and both run limits with a resume; whatever they do must
# be identical whether every block is compiled on first entry, none ever
# is, or the default threshold decides.
# ----------------------------------------------------------------------
_R_OPS = ["add", "sub", "mul", "divs", "rems", "and", "or", "xor", "shl", "shr", "sra"]
_I_OPS = ["addi", "muli", "andi", "ori", "xori", "shli", "shri", "srai"]
_COND_OPS = ["beq", "bne", "blt", "bge", "ble", "bgt"]
_SRC = st.sampled_from(["r0"] + _REGS)
_DST = st.sampled_from(["r0"] + _REGS + _REGS)  # r0 writes are discarded
_VALUE = st.one_of(st.integers(-(1 << 31), (1 << 32) - 1), st.sampled_from([0, 1, -1]))
_BASE, _JUMP = "r20", "r21"
_BUF_WORDS = 8


@st.composite
def _machine_fragment(draw, index):
    kind = draw(st.integers(0, 8))
    if kind == 0:  # register ALU, division by zero included
        return [
            f"    {draw(st.sampled_from(_R_OPS))} {draw(_DST)}, {draw(_SRC)}, {draw(_SRC)}"
            for _ in range(draw(st.integers(1, 4)))
        ]
    if kind == 1:  # immediate ALU and shifts
        return [
            f"    {draw(st.sampled_from(_I_OPS))} {draw(_DST)}, {draw(_SRC)}, {draw(_IMM)}"
            for _ in range(draw(st.integers(1, 4)))
        ] + [f"    lui {draw(_DST)}, {draw(st.integers(0, 0xFFFF))}"]
    if kind == 2:  # word and byte memory, through the buffer or a wild base
        lines = []
        for _ in range(draw(st.integers(1, 4))):
            base = draw(st.sampled_from([_BASE] * 6 + ["r0"] + _REGS[:3]))
            offset = draw(st.integers(-8, 4 * _BUF_WORDS + 8))
            op = draw(st.sampled_from(["ld", "st", "ldb", "stb"]))
            lines.append(f"    {op} {draw(_SRC if op in ('st', 'stb') else _DST)}, {offset}({base})")
        return lines
    if kind in (3, 4):  # counted loop, hot enough to compile at the default
        counter = f"r{12 + index % 4}"
        body = [
            f"    {draw(st.sampled_from(_R_OPS[:3] + _R_OPS[5:]))} {draw(_DST)}, {draw(_SRC)}, {draw(_SRC)}"
            for _ in range(draw(st.integers(0, 3)))
        ]
        lines = [f"    li {counter}, {draw(st.integers(1, 40))}"]
        if kind == 4:  # enter the loop body mid-block through a register
            lines += [f"    li {_JUMP}, fz_mid{index}", f"    jmp {_JUMP}"]
        return lines + [f"fz_top{index}:"] + body + [
            f"fz_mid{index}:",
            f"    addi {counter}, {counter}, -1",
            f"    bgt {counter}, r0, fz_top{index}",
        ]
    if kind == 5:  # forward skip on any condition
        return [
            f"    {draw(st.sampled_from(_COND_OPS))} {draw(_SRC)}, {draw(_SRC)}, fz_skip{index}",
            f"    addi {draw(_DST)}, {draw(_SRC)}, 1",
            f"fz_skip{index}:",
        ]
    if kind == 6:  # calls: bsr, or jsr through a register
        if draw(st.booleans()):
            return ["    bsr fz_leaf"]
        link = draw(st.sampled_from([_JUMP, "r1"]))  # jsr r1 reads r1 before linking
        return [f"    li {link}, fz_leaf", f"    jsr {link}"]
    if kind == 7:  # an unconditional hop, with nop filler
        return [f"    br fz_hop{index}", "    nop", f"fz_hop{index}:", "    nop"]
    # a rare wild register jump: usually a fetch fault
    if draw(st.integers(0, 4)) == 0:
        return [f"    jmp {draw(_SRC)}"]
    return ["    nop"]


@st.composite
def _machine_programs(draw):
    """Leaf subroutine first, then ``_start``; without the final ``halt``
    execution runs off the end of the text segment."""
    lines = ["fz_leaf:", f"    addi {draw(st.sampled_from(_REGS))}, {draw(_SRC)}, 7", "    rts", "_start:"]
    lines.append(f"    li {_BASE}, fz_buf")
    for register in _REGS:
        lines.append(f"    li {register}, {draw(_VALUE)}")
    for index in range(draw(st.integers(1, 8))):
        lines.extend(draw(_machine_fragment(index)))
    if draw(st.integers(0, 4)):
        lines.append("    halt")
    lines += [".data", "fz_buf:"] + [f"    .word {draw(_VALUE) & 0xFFFFFFFF}" for _ in range(_BUF_WORDS)]
    return "\n".join(lines)


_LIMITS = st.fixed_dictionaries(
    {
        "max_instructions": st.one_of(st.none(), st.integers(0, 3_000)),
        "max_conditional_branches": st.one_of(st.none(), st.integers(0, 200)),
    }
)

#: compile on first entry, never compile, and the default.
_THRESHOLDS = (1, sys.maxsize, cpu_module.HOT_THRESHOLD)


def _observe(program, threshold, runs):
    """Everything two runs (the second resuming the first) make visible."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cpu_module, "HOT_THRESHOLD", threshold)
        cpu = CPU(program)
        for limits in runs:
            try:
                result = cpu.run(**limits)
            except ExecutionError as exc:
                seen.append(("fault", type(exc), exc.pc, str(exc)))
            else:
                packed = result.packed
                seen.append((
                    list(packed.pc), list(packed.target), bytes(packed.flags),
                    result.mix, result.instructions_executed, result.halted, result.final_pc,
                ))
            seen.append((list(cpu.regs), sorted(cpu.memory._words.items()), cpu.pc, cpu.halted))
    return seen


class TestTierEquivalence:
    @given(_machine_programs(), _LIMITS, _LIMITS)
    @settings(max_examples=150, deadline=None)
    def test_tiers_agree(self, source, first, second):
        program = assemble(source)
        reference = _observe(program, _THRESHOLDS[0], (first, second))
        for threshold in _THRESHOLDS[1:]:
            assert _observe(program, threshold, (first, second)) == reference

    @given(_machine_programs())
    @settings(max_examples=40, deadline=None)
    def test_mix_matches_columns(self, source):
        program = assemble(source)
        try:
            result = CPU(program).run(max_instructions=5_000)
        except ExecutionError:
            return
        flags = result.packed.flags
        assert result.mix.total_instructions == result.instructions_executed
        assert result.mix.total_branches == len(flags)
        assert result.mix.conditional == result.packed.num_conditional
