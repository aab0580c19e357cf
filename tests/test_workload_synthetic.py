"""Unit tests for the synthetic workload generator."""

import pytest

from repro.errors import WorkloadError
from repro.isa.instruction import FP_LOGICAL_REGISTERS, INT_LOGICAL_REGISTERS
from repro.isa.opcodes import OpClass
from repro.workloads.profiles import get_profile
from repro.workloads.spec_suites import SPEC95
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.trace import materialize


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = list(SyntheticWorkload(get_profile("gcc")).instructions(500))
        b = list(SyntheticWorkload(get_profile("gcc")).instructions(500))
        assert len(a) == len(b) == 500
        for x, y in zip(a, b):
            assert x.op_class is y.op_class
            assert x.dest == y.dest
            assert x.sources == y.sources
            assert x.branch_taken == y.branch_taken
            assert x.mem_address == y.mem_address

    def test_different_seed_different_stream(self):
        a = list(SyntheticWorkload(get_profile("gcc"), seed=1).instructions(500))
        b = list(SyntheticWorkload(get_profile("gcc"), seed=2).instructions(500))
        assert any(x.op_class is not y.op_class or x.sources != y.sources
                   for x, y in zip(a, b))

    def test_restart_reproduces_prefix(self):
        workload = SyntheticWorkload(get_profile("swim"))
        first = list(workload.instructions(200))
        second = list(workload.instructions(400))
        for x, y in zip(first, second[:200]):
            assert x.op_class is y.op_class and x.sources == y.sources


class TestStreamShape:
    def test_count_respected(self):
        stream = list(SyntheticWorkload(get_profile("li")).instructions(321))
        assert len(stream) == 321
        assert [inst.seq for inst in stream] == list(range(321))

    def test_positive_count_required(self):
        with pytest.raises(WorkloadError):
            list(SyntheticWorkload(get_profile("li")).instructions(0))

    def test_realized_mix_close_to_profile(self):
        profile = get_profile("gcc")
        trace = materialize("gcc", SyntheticWorkload(profile).instructions(8000))
        mix = trace.mix()
        for op_class, target in profile.instruction_mix.items():
            if target < 0.02:
                continue
            assert mix.get(op_class, 0.0) == pytest.approx(target, abs=0.03)

    def test_branches_have_targets_and_outcomes(self):
        stream = SyntheticWorkload(get_profile("compress")).instructions(2000)
        branches = [inst for inst in stream if inst.is_branch]
        assert branches, "expected some branches"
        assert all(inst.branch_target > 0 for inst in branches)
        taken_fraction = sum(b.branch_taken for b in branches) / len(branches)
        assert 0.3 < taken_fraction < 1.0

    def test_memory_instructions_have_addresses(self):
        stream = SyntheticWorkload(get_profile("swim")).instructions(2000)
        for inst in stream:
            if inst.op_class.is_memory:
                assert inst.mem_address is not None and inst.mem_address > 0

    def test_fp_benchmark_uses_fp_registers(self):
        stream = SyntheticWorkload(get_profile("tomcatv")).instructions(2000)
        fp_dests = sum(1 for inst in stream
                       if inst.dest is not None and inst.dest.reg_class.value == "fp")
        assert fp_dests > 200

    def test_int_benchmark_has_no_fp_ops(self):
        stream = SyntheticWorkload(get_profile("go")).instructions(2000)
        assert all(not inst.op_class.is_fp for inst in stream)

    def test_sources_match_op_class_arity(self):
        for inst in SyntheticWorkload(get_profile("perl")).instructions(2000):
            if inst.op_class is OpClass.LOAD:
                assert len(inst.sources) == 1
            elif inst.op_class is OpClass.NOP:
                assert len(inst.sources) == 0
            else:
                assert len(inst.sources) <= 2

    def test_registers_are_the_canonical_objects(self):
        canonical = {(reg.reg_class, reg.index): reg
                     for reg in INT_LOGICAL_REGISTERS + FP_LOGICAL_REGISTERS}
        for inst in SyntheticWorkload(get_profile("wave5")).instructions(2000):
            for reg in (inst.dest, *inst.sources):
                if reg is not None:
                    assert reg is canonical[reg.reg_class, reg.index]


class TestPaperProperties:
    """Properties the paper's argument relies on."""

    @pytest.mark.parametrize("name", ["gcc", "swim", "ijpeg", "mgrid"])
    def test_most_values_read_at_most_twice(self, name):
        trace = materialize(name, SyntheticWorkload(get_profile(name)).instructions(6000))
        distribution = trace.value_read_counts()
        total = sum(distribution.values())
        at_most_two = sum(count for reads, count in distribution.items() if reads <= 2)
        assert at_most_two / total > 0.8

    def test_every_benchmark_generates(self):
        for name in SPEC95:
            stream = list(SyntheticWorkload(get_profile(name)).instructions(300))
            assert len(stream) == 300
