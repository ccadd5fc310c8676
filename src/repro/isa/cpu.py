"""Instruction-level interpreter that writes the branch trace as columns.

This is the counterpart of the paper's Motorola 88100 ISIM: it executes an
assembled :class:`~repro.isa.program.Program`, counts the dynamic
instruction mix per class (Figures 3 and 4), and appends every executed
branch straight into the ``pc``/``target``/``flags`` columns of a
:class:`~repro.trace.columnar.PackedTrace`, so no per-branch record is ever
boxed.  Every trace event passes through :meth:`CPU.run`, which makes it the
single performance-critical function in the repository.

Execution is tiered.  An *entry pc* is a point where execution arrives
after a control transfer (or where a run starts).

* **Cold tier.**  A flat dispatch chain over integer opcode values with
  everything hot cached in locals steps one instruction at a time until the
  next control transfer.  Each instruction's semantics are a line or two.
* **Hot tier.**  Once an entry pc has been entered :data:`HOT_THRESHOLD`
  times, the straight-line run from it to its first control transfer is
  translated into one generated Python function: registers become
  constant-index list operations, ``r0`` folds to ``0``, and the trailing
  branch appends its own column entries and returns the next pc.  The run
  loop then dispatches that function once per block.  Blocks that differ
  only in immediates, pcs and targets share one compiled factory, so a
  program pays the Python compiler once per block *shape*.

Compiling lazily on the N-th entry rather than every basic block up front
pays off because compiling costs tens of microseconds: a program like gcc
has thousands of static leaders that run only a few times (its
computed-goto dispatch and every ``rts`` enter code through register
targets), and compiling them all would cost more than interpreting them.

The mix is counted per block, not per instruction: the run tallies
instructions and conditional branches, and the other branch classes are
counted from the flag column when the run ends.  A conditional branch
always ends a block, so ``max_conditional_branches`` stays exact; when
fewer instructions remain under ``max_instructions`` than the next block
holds, the rest runs through the cold tier.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError, ExecutionError
from repro.isa.instructions import B_FORMAT, J_FORMAT, Instruction, Opcode
from repro.isa.memory import Memory
from repro.isa.program import Program
from repro.trace.columnar import _ADDR_TYPECODE, PackedTrace, pack_flags
from repro.trace.record import BranchClass, BranchRecord, InstructionMix

#: entries into a pc after which the block starting there is compiled.
HOT_THRESHOLD = 16

_WORD = 0xFFFFFFFF
_SIGN = 0x80000000

# Flag bytes of the unconditional classes (a conditional's is 0 or 1).
_F_RTS = pack_flags(True, BranchClass.RETURN, False)
_F_BR = pack_flags(True, BranchClass.IMM_UNCONDITIONAL, False)
_F_BSR = pack_flags(True, BranchClass.IMM_UNCONDITIONAL, True)
_F_JMP = pack_flags(True, BranchClass.REG_UNCONDITIONAL, False)
_F_JSR = pack_flags(True, BranchClass.REG_UNCONDITIONAL, True)


def _signed(value: int) -> int:
    """Interpret a 32-bit unsigned register value as signed."""
    return value - 0x100000000 if value & _SIGN else value


@dataclass
class CPUResult:
    """Outcome of one :meth:`CPU.run` call."""

    mix: InstructionMix
    packed: PackedTrace
    instructions_executed: int
    halted: bool
    final_pc: int

    @property
    def conditional_branches(self) -> int:
        return self.mix.conditional

    @property
    def branch_records(self) -> List[BranchRecord]:
        """The trace as boxed records, unpacked from :attr:`packed` on
        every access; hot paths read the columns instead."""
        return self.packed.to_records()


#: a compiled block: (function returning the next pc, instruction count,
#: 1 if it ends in a conditional branch else 0).
_Block = Tuple[Callable[[], int], int, int]


class CPU:
    """The interpreter.

    Args:
        program: assembled program; its data segment is loaded into memory.
        memory: optional pre-populated :class:`~repro.isa.memory.Memory`
            (a fresh one is created otherwise).

    Registers are exposed as the ``regs`` list for tests and for workloads
    that want to pass parameters in registers.  ``r0`` reads as zero;
    writes to it are discarded.
    """

    def __init__(self, program: Program, memory: Optional[Memory] = None):
        self.program = program
        self.memory = memory if memory is not None else Memory()
        for address, word in program.data:
            self.memory.store_word(address, word)
        self.regs: List[int] = [0] * 32
        self.pc = program.entry
        self.halted = False
        self._blocks: Dict[int, _Block] = {}
        self._entries: Dict[int, int] = {}
        # Compiled block factories by source: blocks that differ only in
        # their constants share one (see _block_source).
        self._factories: Dict[str, Callable[..., Callable[[], int]]] = {}
        # The globals of every compiled block; each run binds the register
        # file, memory and its own trace columns' appends here.
        self._namespace: Dict[str, Any] = {"E": ExecutionError}

    def run(
        self,
        max_instructions: Optional[int] = None,
        max_conditional_branches: Optional[int] = None,
        collect_branches: bool = True,
    ) -> CPUResult:
        """Execute until HALT or a limit is reached.

        A second call resumes where the previous one stopped.

        Args:
            max_instructions: stop after this many dynamic instructions.
            max_conditional_branches: stop after this many conditional
                branches have executed (the paper's per-benchmark cap).
            collect_branches: when False, the result's trace is empty (mix
                statistics are still counted) — useful for mix-only runs.

        Raises:
            ConfigError: a limit is negative.
            ExecutionError: division by zero, or an instruction fetch
                outside the text segment; ``self.pc`` is the faulting pc.
        """
        for name, limit in (
            ("max_instructions", max_instructions),
            ("max_conditional_branches", max_conditional_branches),
        ):
            if limit is not None and limit < 0:
                raise ConfigError(f"{name} must be >= 0, got {limit}")

        program = self.program
        instrs = program.instructions
        text_base = program.text_base
        n_instrs = len(instrs)
        pc = self.pc
        blocks = self._blocks
        entries = self._entries
        threshold = HOT_THRESHOLD

        pcs, targets, flags = array(_ADDR_TYPECODE), array(_ADDR_TYPECODE), bytearray()
        namespace = self._namespace
        namespace["R"] = regs = self.regs
        namespace["M"] = mem_words = self.memory._words  # noqa: SLF001 - hot path, same package
        namespace["P"] = pc_append = pcs.append
        namespace["T"] = target_append = targets.append
        namespace["F"] = flag_append = flags.append

        executed = n_cond = 0
        halted = False
        limit_i = max_instructions if max_instructions is not None else sys.maxsize
        limit_b = max_conditional_branches if max_conditional_branches is not None else -1

        # Opcode integer constants, cached as locals.
        NOP, HALT = int(Opcode.NOP), int(Opcode.HALT)
        ADD, SUB, MUL, DIVS, REMS = (
            int(Opcode.ADD), int(Opcode.SUB), int(Opcode.MUL),
            int(Opcode.DIVS), int(Opcode.REMS),
        )
        AND_, OR_, XOR_ = int(Opcode.AND), int(Opcode.OR), int(Opcode.XOR)
        SHL, SHR, SRA = int(Opcode.SHL), int(Opcode.SHR), int(Opcode.SRA)
        ADDI, MULI = int(Opcode.ADDI), int(Opcode.MULI)
        ANDI, ORI, XORI = int(Opcode.ANDI), int(Opcode.ORI), int(Opcode.XORI)
        SHLI, SHRI, SRAI, LUI = (
            int(Opcode.SHLI), int(Opcode.SHRI), int(Opcode.SRAI), int(Opcode.LUI),
        )
        LD, ST, LDB, STB = int(Opcode.LD), int(Opcode.ST), int(Opcode.LDB), int(Opcode.STB)
        BEQ, BNE, BLT, BGE, BLE, BGT = (
            int(Opcode.BEQ), int(Opcode.BNE), int(Opcode.BLT),
            int(Opcode.BGE), int(Opcode.BLE), int(Opcode.BGT),
        )
        BR, BSR, JMP, JSR, RTS = (
            int(Opcode.BR), int(Opcode.BSR), int(Opcode.JMP),
            int(Opcode.JSR), int(Opcode.RTS),
        )

        try:
            while n_cond != limit_b:
                # pc is an entry pc: dispatch its block, hot or cold.
                if pc in blocks:
                    run_block, length, ends_conditional = blocks[pc]
                    if executed + length <= limit_i:
                        executed += length
                        n_cond += ends_conditional
                        pc = run_block()
                        continue
                else:
                    seen = entries.get(pc, 0) + 1
                    entries[pc] = seen
                    if seen >= threshold and self._compile(pc) is not None:
                        continue

                # Cold tier: step until a control transfer, HALT or the
                # instruction limit.
                while executed != limit_i:
                    index = (pc - text_base) >> 2
                    if pc & 3 or not 0 <= index < n_instrs:
                        raise ExecutionError("instruction fetch outside text segment", pc=pc)
                    op, rd, rs1, rs2, imm = instrs[index]
                    executed += 1
                    next_pc = pc + 4

                    if op == ADDI:
                        if rd:
                            regs[rd] = (regs[rs1] + imm) & _WORD
                    elif BEQ <= op <= BGT:
                        a = regs[rs1]
                        b = regs[rs2]
                        if op == BEQ:
                            taken = a == b
                        elif op == BNE:
                            taken = a != b
                        else:
                            sa = a - 0x100000000 if a & _SIGN else a
                            sb = b - 0x100000000 if b & _SIGN else b
                            if op == BLT:
                                taken = sa < sb
                            elif op == BGE:
                                taken = sa >= sb
                            elif op == BLE:
                                taken = sa <= sb
                            else:
                                taken = sa > sb
                        target = next_pc + (imm << 2)
                        n_cond += 1
                        pc_append(pc)
                        target_append(target & _WORD)
                        flag_append(1 if taken else 0)
                        pc = target if taken else next_pc
                        break
                    elif op == LD:
                        if rd:
                            regs[rd] = mem_words.get((regs[rs1] + imm) >> 2, 0)
                    elif op == ST:
                        address = regs[rs1] + imm
                        mem_words[address >> 2] = regs[rd]
                    elif op == ADD:
                        if rd:
                            regs[rd] = (regs[rs1] + regs[rs2]) & _WORD
                    elif op == SUB:
                        if rd:
                            regs[rd] = (regs[rs1] - regs[rs2]) & _WORD
                    elif op == MUL:
                        if rd:
                            regs[rd] = (_signed(regs[rs1]) * _signed(regs[rs2])) & _WORD
                    elif op == AND_:
                        if rd:
                            regs[rd] = regs[rs1] & regs[rs2]
                    elif op == OR_:
                        if rd:
                            regs[rd] = regs[rs1] | regs[rs2]
                    elif op == XOR_:
                        if rd:
                            regs[rd] = regs[rs1] ^ regs[rs2]
                    elif op == SHL:
                        if rd:
                            regs[rd] = (regs[rs1] << (regs[rs2] & 31)) & _WORD
                    elif op == SHR:
                        if rd:
                            regs[rd] = regs[rs1] >> (regs[rs2] & 31)
                    elif op == SRA:
                        if rd:
                            regs[rd] = (_signed(regs[rs1]) >> (regs[rs2] & 31)) & _WORD
                    elif op == MULI:
                        if rd:
                            regs[rd] = (_signed(regs[rs1]) * imm) & _WORD
                    elif op == ANDI:
                        if rd:
                            regs[rd] = regs[rs1] & (imm & 0xFFFF)
                    elif op == ORI:
                        if rd:
                            regs[rd] = regs[rs1] | (imm & 0xFFFF)
                    elif op == XORI:
                        if rd:
                            regs[rd] = regs[rs1] ^ (imm & 0xFFFF)
                    elif op == SHLI:
                        if rd:
                            regs[rd] = (regs[rs1] << (imm & 31)) & _WORD
                    elif op == SHRI:
                        if rd:
                            regs[rd] = regs[rs1] >> (imm & 31)
                    elif op == SRAI:
                        if rd:
                            regs[rd] = (_signed(regs[rs1]) >> (imm & 31)) & _WORD
                    elif op == LUI:
                        if rd:
                            regs[rd] = (imm & 0xFFFF) << 16
                    elif op == LDB:
                        address = regs[rs1] + imm
                        word = mem_words.get(address >> 2, 0)
                        if rd:
                            regs[rd] = (word >> ((3 - (address & 3)) * 8)) & 0xFF
                    elif op == STB:
                        address = regs[rs1] + imm
                        windex = address >> 2
                        shift = (3 - (address & 3)) * 8
                        word = mem_words.get(windex, 0)
                        mem_words[windex] = (word & ~(0xFF << shift)) | ((regs[rd] & 0xFF) << shift)
                    elif op == DIVS:
                        divisor = _signed(regs[rs2])
                        if divisor == 0:
                            raise ExecutionError("division by zero", pc=pc)
                        quotient = int(_signed(regs[rs1]) / divisor)  # trunc toward zero
                        if rd:
                            regs[rd] = quotient & _WORD
                    elif op == REMS:
                        divisor = _signed(regs[rs2])
                        if divisor == 0:
                            raise ExecutionError("division by zero", pc=pc)
                        dividend = _signed(regs[rs1])
                        if rd:
                            regs[rd] = (dividend - int(dividend / divisor) * divisor) & _WORD
                    elif op == BR:
                        target = next_pc + (imm << 2)
                        pc_append(pc)
                        target_append(target & _WORD)
                        flag_append(_F_BR)
                        pc = target
                        break
                    elif op == BSR:
                        target = next_pc + (imm << 2)
                        regs[1] = next_pc
                        pc_append(pc)
                        target_append(target & _WORD)
                        flag_append(_F_BSR)
                        pc = target
                        break
                    elif op == RTS:
                        target = regs[1]
                        pc_append(pc)
                        target_append(target)
                        flag_append(_F_RTS)
                        pc = target
                        break
                    elif op == JMP:
                        target = regs[rs1]
                        pc_append(pc)
                        target_append(target)
                        flag_append(_F_JMP)
                        pc = target
                        break
                    elif op == JSR:
                        target = regs[rs1]
                        regs[1] = next_pc
                        pc_append(pc)
                        target_append(target)
                        flag_append(_F_JSR)
                        pc = target
                        break
                    elif op == NOP:
                        pass
                    elif op == HALT:
                        halted = True
                        pc = next_pc
                        break
                    else:  # pragma: no cover - enum is closed, defensive only
                        raise ExecutionError(f"unimplemented opcode {op}", pc=pc)

                    pc = next_pc
                if halted or executed == limit_i:
                    break
        except ExecutionError as exc:
            self.pc = exc.pc
            raise

        self.pc = pc
        self.halted = halted
        mix = InstructionMix(
            conditional=n_cond,
            returns=flags.count(_F_RTS),
            imm_unconditional=flags.count(_F_BR) + flags.count(_F_BSR),
            reg_unconditional=flags.count(_F_JMP) + flags.count(_F_JSR),
            non_branch=executed - len(flags),
        )
        if collect_branches:
            packed = PackedTrace(pcs, targets, bytes(flags))
        else:
            packed = PackedTrace(array(_ADDR_TYPECODE), array(_ADDR_TYPECODE), b"")
        return CPUResult(
            mix=mix,
            packed=packed,
            instructions_executed=executed,
            halted=halted,
            final_pc=pc,
        )

    def _compile(self, pc: int) -> Optional[_Block]:
        """Translate the block entered at ``pc`` and cache it (None when it
        holds no instruction the hot tier runs: a fetch fault or HALT)."""
        translated = _block_source(self.program, pc)
        if translated is None:
            return None
        source, constants, length, ends_conditional = translated
        factory = self._factories.get(source)
        if factory is None:
            namespace = self._namespace
            exec(compile(source, "<block>", "exec"), namespace)
            factory = self._factories[source] = namespace.pop("make")
        block = (factory(*constants), length, ends_conditional)
        self._blocks[pc] = block
        return block


# ----------------------------------------------------------------------
# block translation
# ----------------------------------------------------------------------
#: R-format ALU templates over the operand expressions ``{a}``/``{b}``.
_R_TEMPLATES = {
    int(Opcode.ADD): "({a} + {b}) & 4294967295",
    int(Opcode.SUB): "({a} - {b}) & 4294967295",
    # the low 32 bits of a product do not depend on the operands' signs
    int(Opcode.MUL): "({a} * {b}) & 4294967295",
    int(Opcode.AND): "{a} & {b}",
    int(Opcode.OR): "{a} | {b}",
    int(Opcode.XOR): "{a} ^ {b}",
    int(Opcode.SHL): "({a} << ({b} & 31)) & 4294967295",
    int(Opcode.SHR): "{a} >> ({b} & 31)",
    # (r ^ 2147483648) - 2147483648 is the signed view of a register value
    int(Opcode.SRA): "((({a} ^ 2147483648) - 2147483648) >> ({b} & 31)) & 4294967295",
}

#: I-format ALU templates over ``{a}`` and a constant ``{k}``, with the
#: function deriving that constant from the immediate.
_I_TEMPLATES: Dict[int, Tuple[str, Callable[[int], int]]] = {
    int(Opcode.ADDI): ("({a} + {k}) & 4294967295", lambda imm: imm),
    int(Opcode.MULI): ("({a} * {k}) & 4294967295", lambda imm: imm),
    int(Opcode.ANDI): ("{a} & {k}", lambda imm: imm & 0xFFFF),
    int(Opcode.ORI): ("{a} | {k}", lambda imm: imm & 0xFFFF),
    int(Opcode.XORI): ("{a} ^ {k}", lambda imm: imm & 0xFFFF),
    int(Opcode.SHLI): ("({a} << {k}) & 4294967295", lambda imm: imm & 31),
    int(Opcode.SHRI): ("{a} >> {k}", lambda imm: imm & 31),
    int(Opcode.SRAI): (
        "((({a} ^ 2147483648) - 2147483648) >> {k}) & 4294967295", lambda imm: imm & 31
    ),
    int(Opcode.LUI): ("{k}", lambda imm: (imm & 0xFFFF) << 16),
}

#: conditional-branch conditions; a signed order is the unsigned order of
#: the values with their sign bits flipped.
_B_TEMPLATES = {
    int(Opcode.BEQ): "{a} == {b}",
    int(Opcode.BNE): "{a} != {b}",
    int(Opcode.BLT): "({a} ^ 2147483648) < ({b} ^ 2147483648)",
    int(Opcode.BGE): "({a} ^ 2147483648) >= ({b} ^ 2147483648)",
    int(Opcode.BLE): "({a} ^ 2147483648) <= ({b} ^ 2147483648)",
    int(Opcode.BGT): "({a} ^ 2147483648) > ({b} ^ 2147483648)",
}

#: opcodes that end a block (and belong to it).
_CONTROL = frozenset(int(op) for op in B_FORMAT | J_FORMAT)


def _reg(number: int) -> str:
    """Source for reading a register; ``r0`` folds to the constant 0."""
    return f"R[{number}]" if number else "0"


def _instruction_lines(
    pc: int, instruction: Instruction, const: Callable[[int], str]
) -> Optional[List[str]]:
    """Source lines for one instruction, or None when it ends the block
    without belonging to it (HALT).  Control transfers end in ``return``.

    Register numbers are written into the source; every other value (the
    immediate, pcs and targets) goes through ``const``, which names it as
    a closure variable of the block.
    """
    op, rd, rs1, rs2, imm = (int(field) for field in instruction)
    a, b = _reg(rs1), _reg(rs2)
    next_pc = pc + 4
    if op in _R_TEMPLATES:
        return [f"R[{rd}] = " + _R_TEMPLATES[op].format(a=a, b=b)] if rd else []
    if op in _I_TEMPLATES:
        template, derive = _I_TEMPLATES[op]
        return [f"R[{rd}] = " + template.format(a=a, k=const(derive(imm)))] if rd else []
    if op in (Opcode.DIVS, Opcode.REMS):
        lines = [
            f"d = ({b} ^ 2147483648) - 2147483648",
            f"if not d: raise E('division by zero', pc={const(pc)})",
        ]
        if rd:
            lines.append(f"x = ({a} ^ 2147483648) - 2147483648")
            result = "int(x / d)" if op == Opcode.DIVS else "x - int(x / d) * d"
            lines.append(f"R[{rd}] = ({result}) & 4294967295")
        return lines
    if op == Opcode.LD:
        return [f"R[{rd}] = M.get(({a} + {const(imm)}) >> 2, 0)"] if rd else []
    if op == Opcode.ST:
        return [f"M[({a} + {const(imm)}) >> 2] = {_reg(rd)}"]
    if op == Opcode.LDB:
        if not rd:
            return []
        return [
            f"a = {a} + {const(imm)}",
            f"R[{rd}] = (M.get(a >> 2, 0) >> ((3 - (a & 3)) * 8)) & 255",
        ]
    if op == Opcode.STB:
        return [
            f"a = {a} + {const(imm)}",
            "i = a >> 2",
            "s = (3 - (a & 3)) * 8",
            f"M[i] = (M.get(i, 0) & ~(255 << s)) | (({_reg(rd)} & 255) << s)",
        ]
    if op in _B_TEMPLATES:
        target = next_pc + (imm << 2)
        return [
            f"P({const(pc)}); T({const(target & _WORD)})",
            "if " + _B_TEMPLATES[op].format(a=a, b=b) + ":",
            f"    F(1); return {const(target)}",
            f"F(0); return {const(next_pc)}",
        ]
    if op in (Opcode.BR, Opcode.BSR):
        target = next_pc + (imm << 2)
        lines = [f"R[1] = {const(next_pc)}"] if op == Opcode.BSR else []
        flag = _F_BSR if op == Opcode.BSR else _F_BR
        return lines + [
            f"P({const(pc)}); T({const(target & _WORD)}); F({flag}); return {const(target)}"
        ]
    if op in (Opcode.JMP, Opcode.JSR, Opcode.RTS):
        if op == Opcode.RTS:
            lines, flag = ["t = R[1]"], _F_RTS
        elif op == Opcode.JMP:
            lines, flag = [f"t = {a}"], _F_JMP
        else:
            lines, flag = [f"t = {a}", f"R[1] = {const(next_pc)}"], _F_JSR
        return lines + [f"P({const(pc)}); T(t); F({flag}); return t"]
    if op == Opcode.NOP:
        return []
    return None  # HALT, or an opcode the cold tier reports


def _block_source(
    program: Program, pc: int
) -> Optional[Tuple[str, List[int], int, int]]:
    """Translate the block entered at ``pc``.

    Returns the source of a factory ``make(k0, k1, ...)`` that returns the
    block function, the constants to call it with, the block's instruction
    count and 1 if it ends in a conditional branch.  Blocks that differ only
    in their constants share one source, so a program compiles each shape
    once.  The block runs up to and including its first control transfer,
    and stops short of a HALT or the end of the text segment (the cold tier
    executes those).  Only integers taken from the decoded instructions are
    interpolated into the source.
    """
    instrs = program.instructions
    index = (pc - program.text_base) >> 2
    if pc & 3 or index < 0:
        return None
    constants: List[int] = []

    def const(value: int) -> str:
        constants.append(value)
        return f"k{len(constants) - 1}"

    body: List[str] = []
    length = 0
    transfers = False
    while index + length < len(instrs) and not transfers:
        instruction = instrs[index + length]
        lines = _instruction_lines(pc + 4 * length, instruction, const)
        if lines is None:
            break
        body.extend(lines)
        length += 1
        transfers = instruction.opcode in _CONTROL
    if not length:
        return None
    if not transfers:
        body.append(f"return {const(pc + 4 * length)}")
    parameters = ", ".join(f"k{i}" for i in range(len(constants)))
    source = f"def make({parameters}):\n    def block():\n" + "".join(
        f"        {line}\n" for line in body
    ) + "    return block\n"
    return source, constants, length, int(instrs[index + length - 1].opcode in _B_TEMPLATES)
