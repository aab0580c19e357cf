"""Unit tests for the assembler and the static program executor."""

import pytest

from repro.errors import AssemblyError
from repro.isa.assembler import assemble
from repro.isa.instruction import RegisterClass, fp_reg, int_reg
from repro.isa.opcodes import OpClass
from repro.isa.program import register_class_mix, registers_touched


class TestAssembler:
    def test_simple_program(self):
        program = assemble("""
            li r1, 5
            li r2, 7
            add r3, r1, r2
        """)
        assert len(program) == 3
        assert program.instructions[2].opcode.mnemonic == "add"

    def test_labels_and_branches(self):
        program = assemble("""
            li r1, 3
            li r2, 0
        loop:
            addi r1, r1, -1
            bne r1, r2, loop
        """)
        assert len(program) == 4
        assert program.label_address("loop") == program.base_pc + 2 * 4

    def test_comments_and_blank_lines_ignored(self):
        program = assemble("""
            # leading comment

            li r1, 1   # trailing comment
        """)
        assert len(program) == 1

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblyError):
            assemble("bogus r1, r2, r3")

    def test_undefined_label(self):
        with pytest.raises(AssemblyError):
            assemble("jmp nowhere")

    def test_duplicate_label(self):
        with pytest.raises(AssemblyError):
            assemble("""
            a:
                li r1, 1
            a:
                li r2, 2
            """)

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblyError):
            assemble("add r1, r2")

    def test_branch_without_target(self):
        with pytest.raises(AssemblyError):
            assemble("beq r1, r2")

    def test_bad_register_name(self):
        with pytest.raises(AssemblyError):
            assemble("add r1, r2, x3")

    def test_register_out_of_range(self):
        # ``r-1`` must not wrap around to r31.
        for text in ("add r1, r2, r99", "add r1, r2, r-1", "fadd f1, f2, f32"):
            with pytest.raises(AssemblyError, match="out of range"):
                assemble(text)

    def test_registers_are_the_canonical_objects(self):
        inst = assemble("fadd f1, f2, f3\nadd r1, r2, r31").instructions
        assert inst[0].dest is fp_reg(1) and inst[1].sources[1] is int_reg(31)

    def test_empty_program_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("# nothing here")

    def test_fp_registers(self):
        program = assemble("fadd f1, f2, f3")
        inst = program.instructions[0]
        assert inst.dest.reg_class is RegisterClass.FP
        assert all(s.reg_class is RegisterClass.FP for s in inst.sources)


class TestProgramExecution:
    def test_loop_executes_expected_count(self):
        program = assemble("""
            li r1, 4
            li r2, 0
        loop:
            addi r1, r1, -1
            bne r1, r2, loop
        """)
        dynamic = list(program.run())
        # 2 setup + 4 iterations of (addi, bne)
        assert len(dynamic) == 2 + 4 * 2
        branches = [d for d in dynamic if d.is_branch]
        assert [b.branch_taken for b in branches] == [True, True, True, False]

    def test_memory_round_trip(self):
        program = assemble("""
            li r1, 0x2000
            li r2, 42
            sw r2, r1, 0
            lw r3, r1, 0
            sw r3, r1, 8
        """)
        dynamic = list(program.run())
        loads = [d for d in dynamic if d.op_class is OpClass.LOAD]
        stores = [d for d in dynamic if d.op_class is OpClass.STORE]
        assert len(loads) == 1 and len(stores) == 2
        assert loads[0].mem_address == 0x2000
        assert stores[1].mem_address == 0x2008

    def test_max_instructions_bounds_execution(self):
        program = assemble("""
        forever:
            addi r1, r1, 1
            jmp forever
        """)
        dynamic = list(program.run(max_instructions=50))
        assert len(dynamic) == 50

    def test_pc_progression(self):
        program = assemble("""
            li r1, 1
            li r2, 2
        """)
        dynamic = list(program.run())
        assert dynamic[1].pc == dynamic[0].pc + 4

    def test_registers_touched_helper(self):
        program = assemble("add r3, r1, r2")
        touched = registers_touched(program)
        assert len(touched) == 3

    def test_register_class_mix_helper(self):
        program = assemble("""
            add r3, r1, r2
            fadd f3, f1, f2
        """)
        mix = register_class_mix(program)
        assert mix[RegisterClass.INT] == 1
        assert mix[RegisterClass.FP] == 1
