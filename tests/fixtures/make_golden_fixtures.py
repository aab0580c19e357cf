"""Regenerate the golden simulation-statistics fixtures.

The fixtures in this directory pin down the exact ``SimulationStats``
produced by the simulator for one scenario per register-file
architecture.  ``tests/test_golden_stats.py`` asserts that the current
code reproduces them bit-for-bit, which is what lets the hot-path
optimization work on the pipeline/execute/regfile layers claim "faster,
not different".

The committed fixtures were generated from the seed-equivalent code path
(commit ``6af343d``, before the hot-path optimization pass).  Only
regenerate them when the simulation *semantics* are changed on purpose —
never to make a failing parity test pass:

    PYTHONPATH=src python tests/fixtures/make_golden_fixtures.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

FIXTURE_DIR = Path(__file__).resolve().parent

sys.path.insert(0, str(FIXTURE_DIR.parents[1] / "src"))

from repro.experiments.common import (  # noqa: E402
    OneLevelBankedFactory,
    RegisterFileCacheFactory,
    SingleBankedFactory,
)
from repro.pipeline.config import ProcessorConfig  # noqa: E402
from repro.pipeline.processor import simulate  # noqa: E402
from repro.workloads.profiles import get_profile  # noqa: E402
from repro.workloads.synthetic import SyntheticWorkload  # noqa: E402

#: Instructions committed per scenario (stream is longer so the pipeline
#: never drains early).
INSTRUCTIONS = 2500
STREAM_LENGTH = 3500

#: name -> (profile, factory, config overrides)
SCENARIOS = {
    "single_banked_1c": (
        "gcc",
        SingleBankedFactory(latency=1, bypass_levels=1, name="1-cycle single-banked"),
        {},
    ),
    "single_banked_2c_full_bypass": (
        "gcc",
        SingleBankedFactory(
            latency=2, bypass_levels=2, read_ports=6, write_ports=4,
            name="2-cycle single-banked, full bypass",
        ),
        {},
    ),
    "single_banked_2c_1_bypass": (
        "perl",
        SingleBankedFactory(
            latency=2, bypass_levels=1, name="2-cycle single-banked, 1 bypass",
        ),
        {},
    ),
    "one_level_banked": (
        "gcc",
        OneLevelBankedFactory(num_banks=4, read_ports_per_bank=2,
                              write_ports_per_bank=2),
        {},
    ),
    "register_file_cache": (
        "gcc",
        RegisterFileCacheFactory(
            caching="non-bypass", fetch="prefetch-first-pair",
            upper_read_ports=4, upper_write_ports=2, lower_write_ports=4,
            buses=2, upper_capacity=16,
        ),
        {},
    ),
    "register_file_cache_ready_occupancy": (
        "swim",
        RegisterFileCacheFactory(caching="ready", fetch="fetch-on-demand"),
        {"collect_occupancy": True},
    ),
    # The one policy pair that runs both the ready-caching consumer query
    # and the prefetch-on-issue hook.
    "register_file_cache_ready_prefetch": (
        "fpppp",
        RegisterFileCacheFactory(
            caching="ready", fetch="prefetch-first-pair",
            upper_read_ports=4, upper_write_ports=2, lower_write_ports=4,
            buses=2,
        ),
        {},
    ),
}


def run_scenario(name: str) -> dict:
    profile_name, factory, overrides = SCENARIOS[name]
    workload = SyntheticWorkload(get_profile(profile_name))
    config = ProcessorConfig(max_instructions=INSTRUCTIONS, **overrides)
    stats = simulate(workload.instructions(STREAM_LENGTH), factory, config,
                     benchmark_name=profile_name)
    return stats.to_dict()


def main() -> int:
    for name in SCENARIOS:
        payload = run_scenario(name)
        path = FIXTURE_DIR / f"golden_{name}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path} (cycles={payload['cycles']}, "
              f"ipc={payload['committed_instructions'] / payload['cycles']:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
