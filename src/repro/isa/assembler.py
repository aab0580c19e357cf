"""A tiny two-pass assembler for the toy ISA.

The assembler exists so that the kernel workloads and the examples can be
written as readable assembly text instead of hand-constructed
:class:`~repro.isa.instruction.StaticInstruction` lists.

Syntax
------

* One instruction per line; ``#`` starts a comment.
* Labels end with ``:`` and start a new basic block.
* Integer registers are ``r0``–``r31``, FP registers ``f0``–``f31``.
* Operand order follows the opcode definition: destination first (if
  any), then sources, then an immediate or label.
* Store syntax is ``sw rVALUE, rBASE, offset`` (value first).

Example::

    loop:
        lw   r2, r1, 0
        add  r3, r3, r2
        addi r1, r1, 4
        addi r4, r4, -1
        bne  r4, r0, loop
"""

from __future__ import annotations

from typing import List

from repro.errors import AssemblyError
from repro.isa.instruction import (
    NUM_LOGICAL_PER_CLASS,
    LogicalRegister,
    StaticInstruction,
    fp_reg,
    int_reg,
)
from repro.isa.opcodes import OPCODES
from repro.isa.program import BasicBlock, Program

__all__ = ["assemble", "AssemblyError"]


def _parse_register(token: str, line_no: int) -> LogicalRegister:
    token = token.strip()
    if len(token) < 2 or token[0] not in ("r", "f"):
        raise AssemblyError(f"line {line_no}: expected register, got {token!r}")
    try:
        index = int(token[1:])
    except ValueError as exc:
        raise AssemblyError(f"line {line_no}: bad register {token!r}") from exc
    # Checked here: a negative index would wrap around the register tuple.
    if not 0 <= index < NUM_LOGICAL_PER_CLASS:
        raise AssemblyError(
            f"line {line_no}: logical register index {index} out of range "
            f"[0, {NUM_LOGICAL_PER_CLASS})"
        )
    return int_reg(index) if token[0] == "r" else fp_reg(index)


def _parse_immediate(token: str, line_no: int) -> int:
    try:
        return int(token, 0)
    except ValueError as exc:
        raise AssemblyError(f"line {line_no}: bad immediate {token!r}") from exc


def _looks_like_register(token: str) -> bool:
    return len(token) >= 2 and token[0] in ("r", "f") and token[1:].isdigit()


def assemble(text: str, base_pc: int = 0x1000) -> Program:
    """Assemble ``text`` into a :class:`~repro.isa.program.Program`.

    Raises
    ------
    AssemblyError
        On unknown mnemonics, malformed operands or undefined labels.
    """
    blocks: List[BasicBlock] = []
    current = BasicBlock(label="__entry__")
    blocks.append(current)
    seen_labels: set[str] = set()
    pending_labels: List[tuple[str, int]] = []

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue

        while ":" in line:
            label, _, rest = line.partition(":")
            label = label.strip()
            if not label or " " in label:
                raise AssemblyError(f"line {line_no}: bad label {label!r}")
            if label in seen_labels:
                raise AssemblyError(f"line {line_no}: duplicate label {label!r}")
            seen_labels.add(label)
            current = BasicBlock(label=label)
            blocks.append(current)
            line = rest.strip()
        if not line:
            continue

        instruction = _parse_instruction(line, line_no, pending_labels)
        current.append(instruction)

    blocks = [b for b in blocks if b.instructions or b.label != "__entry__"]
    if not blocks or not any(b.instructions for b in blocks):
        raise AssemblyError("program has no instructions")

    for label, line_no in pending_labels:
        if label not in seen_labels:
            raise AssemblyError(f"line {line_no}: undefined label {label!r}")

    return Program(blocks, base_pc=base_pc)


def _parse_instruction(
    line: str, line_no: int, pending_labels: List[tuple[str, int]]
) -> StaticInstruction:
    parts = line.split(None, 1)
    mnemonic = parts[0].lower()
    if mnemonic not in OPCODES:
        raise AssemblyError(f"line {line_no}: unknown mnemonic {mnemonic!r}")
    opcode = OPCODES[mnemonic]
    operand_text = parts[1] if len(parts) > 1 else ""
    tokens = [t.strip() for t in operand_text.split(",") if t.strip()]

    expected = (1 if opcode.has_dest else 0) + opcode.num_sources
    takes_trailer = opcode.has_immediate or opcode.op_class.is_branch
    if takes_trailer:
        if len(tokens) not in (expected, expected + 1):
            raise AssemblyError(
                f"line {line_no}: {mnemonic} expects {expected} register operands "
                f"plus an optional immediate/label, got {len(tokens)} operands"
            )
    elif len(tokens) != expected:
        raise AssemblyError(
            f"line {line_no}: {mnemonic} expects {expected} operands, got {len(tokens)}"
        )

    dest = None
    position = 0
    if opcode.has_dest:
        dest = _parse_register(tokens[position], line_no)
        position += 1
    sources = tuple(
        _parse_register(tokens[position + i], line_no) for i in range(opcode.num_sources)
    )
    position += opcode.num_sources

    immediate = 0
    target_label = None
    if position < len(tokens):
        trailer = tokens[position]
        if _looks_like_register(trailer):
            raise AssemblyError(
                f"line {line_no}: unexpected extra register operand {trailer!r}"
            )
        if opcode.op_class.is_branch:
            target_label = trailer
            pending_labels.append((trailer, line_no))
        else:
            immediate = _parse_immediate(trailer, line_no)
    elif opcode.op_class.is_branch:
        raise AssemblyError(f"line {line_no}: branch {mnemonic} needs a target label")

    try:
        return StaticInstruction(
            opcode=opcode,
            dest=dest,
            sources=sources,
            immediate=immediate,
            target_label=target_label,
        )
    except ValueError as exc:
        raise AssemblyError(f"line {line_no}: {exc}") from exc
