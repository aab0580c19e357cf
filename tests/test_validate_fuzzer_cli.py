"""Tests for the scenario fuzzer, the seed runner and the CLI."""

from __future__ import annotations

import json
import random

import pytest

from repro.isa.assembler import assemble
from repro.validate.__main__ import main
from repro.validate.fuzzer import FuzzScenario, generate_scenario, random_program
from repro.validate.oracle import run_oracle
from repro.validate.runner import SeedTask, run_seed, run_validation


class TestScenarioGeneration:
    def test_same_seed_same_scenario(self):
        assert generate_scenario(7, quick=True) == generate_scenario(7, quick=True)

    def test_different_seeds_differ(self):
        scenarios = {generate_scenario(seed, quick=True) for seed in range(1, 15)}
        assert len(scenarios) > 1

    def test_scenario_sources_are_all_reachable(self):
        sources = {
            generate_scenario(seed, quick=True).source for seed in range(1, 40)
        }
        assert sources == {"synthetic", "kernel", "program"}

    def test_config_point_is_constructible_and_random(self):
        configs = {
            generate_scenario(seed, quick=True).config_fields
            for seed in range(1, 12)
        }
        assert len(configs) > 1
        for seed in range(1, 12):
            config = generate_scenario(seed, quick=True).config()
            assert config.num_int_physical > 32

    def test_trace_build_is_deterministic(self):
        scenario = generate_scenario(3, quick=True)
        first = run_oracle(iter(scenario.build_trace()), scenario.instructions)
        second = run_oracle(iter(scenario.build_trace()), scenario.instructions)
        assert first.digest == second.digest

    def test_describe_is_json_serializable(self):
        for seed in range(1, 8):
            descriptor = generate_scenario(seed, quick=True).describe()
            assert json.loads(json.dumps(descriptor))["seed"] == seed


class TestRandomProgram:
    @pytest.mark.parametrize("seed", range(1, 21))
    def test_generated_programs_assemble_and_terminate(self, seed):
        text = random_program(random.Random(f"test:{seed}"))
        program = assemble(text)
        trace = list(program.run(max_instructions=50_000))
        # Termination by construction: the run must fall off the end well
        # before the safety cap.
        assert 0 < len(trace) < 50_000

    def test_program_scenarios_produce_valid_streams(self):
        scenario = FuzzScenario(
            seed=0, source="program", benchmark="p", workload_seed=0,
            instructions=200, stream_slack=0,
            program_text=random_program(random.Random("x")),
        )
        trace = scenario.build_trace()
        run_oracle(iter(trace), 200)  # raises on any stream invariant breach


class TestRunSeed:
    def test_run_seed_matches_cli_semantics(self):
        task = SeedTask(seed=2, quick=True, name_filter="monolithic")
        result = run_seed(task)
        assert result.ok
        assert result.scenario["seed"] == 2
        assert len(result.outcomes) == 3
        assert "--seed 2" in task.repro_command()
        assert "--filter monolithic" in task.repro_command()

    def test_parallel_and_serial_runs_agree(self):
        serial = run_validation([1, 2], quick=True, name_filter="monolithic-1c")
        parallel = run_validation(
            [1, 2], quick=True, name_filter="monolithic-1c", jobs=2
        )
        assert serial.ok and parallel.ok
        assert [s.oracle["digest"] for s in serial.scenarios] == [
            s.oracle["digest"] for s in parallel.scenarios
        ]


class TestCli:
    def test_quick_run_exits_zero(self, capsys):
        assert main(["--seeds", "2", "--quick", "--quiet",
                     "--filter", "monolithic-1c"]) == 0
        out = capsys.readouterr().out
        assert "verdict: OK" in out

    def test_list_mode(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "monolithic-1c" in out and "rfc-never-demand" in out

    def test_explicit_seeds_and_json_output(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = main(["--seed", "4", "--seed", "6", "--quick", "--quiet",
                     "--filter", "monolithic-1c", "--json", str(path)])
        assert code == 0
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["seeds"] == [4, 6]
        assert payload["ok"] is True

    def test_injected_fault_fails_the_run(self, capsys):
        code = main(["--seed", "1", "--quick", "--quiet",
                     "--filter", "monolithic",
                     "--inject-fault", "monolithic-1c:13"])
        assert code == 1
        out = capsys.readouterr().out
        assert "verdict: DIVERGENT" in out
        assert "at commit 13" in out
        assert "--inject-fault monolithic-1c:13" in out  # repro line

    def test_bad_filter_is_a_usage_error(self, capsys):
        assert main(["--seeds", "1", "--filter", "nosucharch"]) == 2
        assert "matches nothing" in capsys.readouterr().err

    def test_bad_fault_spec_is_a_usage_error(self, capsys):
        assert main(["--seed", "1", "--inject-fault", "nocolon"]) == 2
        assert "fault" in capsys.readouterr().err

    def test_non_positive_seeds_rejected(self, capsys):
        assert main(["--seeds", "0"]) == 2
        assert "--seeds" in capsys.readouterr().err

    def test_non_positive_jobs_rejected(self, capsys):
        assert main(["--seeds", "1", "--quick", "--quiet", "--jobs", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "jobs must be at least 1" in err

    @pytest.mark.parametrize("flag, value", [("--sample", "10:5"), ("--instructions", "99")])
    def test_sampled_accuracy_flags_rejected_in_fuzz_mode(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--seeds", "1", flag, value])
        assert exit_info.value.code == 2
        assert f"{flag} only applies with --sampled-accuracy" in capsys.readouterr().err

    def test_non_positive_checkpoint_interval_rejected(self, capsys):
        assert main(["--seeds", "1", "--checkpoint-interval", "0"]) == 2
        assert "checkpoint" in capsys.readouterr().err
