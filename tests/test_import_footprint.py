"""The package runs on the standard library; the process pool loads on demand.

``import repro``, the simulator, trace record/replay, the sweep engine
and the service must run on the standard library alone, so the first
test runs them under ``python -S`` (no site-packages, hence no numpy) in
a subprocess; since all of that runs with ``jobs=1``, it must not load
``multiprocessing`` either.  The Table 2 access-time calibration
(:mod:`repro.hwmodel.access_time`) solves its fit exactly in fractions;
the second test checks that it loads no numpy either, and the rest that
its numbers are the ones the numpy least-squares fit produced.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.hwmodel.access_time import _CALIBRATION_POINTS, access_time_ns
from repro.hwmodel.configurations import TABLE2_CONFIGURATIONS

SRC = os.path.dirname(os.path.dirname(repro.__file__))


def _run(code: str, *flags: str) -> subprocess.CompletedProcess:
    prelude = f"import sys\nsys.path.insert(0, {SRC!r})\n"
    return subprocess.run(
        [sys.executable, *flags, "-c", prelude + textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120,
    )


STDLIB_ONLY = """
    import repro
    from repro import ProcessorConfig, RegisterFileCache, simulate
    from repro.experiments import ExperimentSettings, figure6, figure7, value_reuse
    from repro.experiments.scheduler import SweepEngine
    from repro.service.app import ServiceApp
    from repro.trace import record_trace, replay_simulate
    from repro.workloads.profiles import get_profile
    from repro.workloads.synthetic import SyntheticWorkload

    N = 500
    config = ProcessorConfig(max_instructions=N)
    stream = SyntheticWorkload(get_profile("gcc")).instructions(N)
    live = simulate(stream, RegisterFileCache, config, benchmark_name="gcc")
    trace = record_trace(
        "gcc", SyntheticWorkload(get_profile("gcc")).instructions(N), config,
        {"kind": "synthetic-profile", "benchmark": "gcc", "instructions": N},
    )
    replayed = replay_simulate(trace, RegisterFileCache, config)
    assert live.committed_instructions == replayed.committed_instructions == N
    assert live.cycles == replayed.cycles

    settings = ExperimentSettings(instructions_per_benchmark=N,
                                  benchmarks=["gcc", "swim"])
    for module in (figure6, figure7, value_reuse):
        assert module.plan(settings)
    SweepEngine(jobs=1).close()
    ServiceApp(cache_dir=None, jobs=1).stop()

    assert "numpy" not in sys.modules, "numpy was imported"
    # The worker pool, and with it multiprocessing, loads only when a
    # pool starts (jobs > 1).
    for name in ("multiprocessing", "concurrent.futures.process"):
        assert name not in sys.modules, f"{name} was imported"
    print("ok")
"""


def test_simulator_runs_on_the_standard_library_only():
    result = _run(STDLIB_ONLY, "-S")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


def test_hardware_model_loads_no_numpy():
    result = _run("""
        from repro.experiments import figure9_table2
        figure9_table2._table2_rows()
        print("numpy" in sys.modules)
    """)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"]


#: access_time_ns at the calibration points, as the numpy least-squares
#: fit computed it.
CALIBRATION_ACCESS_NS = {
    (128, 3, 2): 4.715000000000004,
    (128, 3, 3): 4.970000000000004,
    (128, 4, 3): 5.225000000000003,
    (128, 4, 4): 5.480000000000004,
    (16, 3, 4): 2.4465714285714313,
    (16, 4, 5): 2.5562857142857167,
    (16, 4, 6): 2.61114285714286,
    (16, 4, 7): 2.6660000000000026,
}

#: C1–C4: (single-banked access time, RFC cycle time, RFC lower-bank
#: access time), all in ns, from the same model.
TABLE2_TIMES_NS = {
    "C1": (4.715000000000004, 2.4465714285714313, 4.4600000000000035),
    "C2": (4.970000000000004, 2.5562857142857167, 4.715000000000004),
    "C3": (5.225000000000003, 2.61114285714286, 4.970000000000004),
    "C4": (5.480000000000004, 2.6660000000000026, 5.225000000000003),
}


def test_calibration_points_unchanged():
    computed = {
        (registers, reads, writes): access_time_ns(registers, reads, writes)
        for registers, reads, writes, _ in _CALIBRATION_POINTS
    }
    assert computed.keys() == CALIBRATION_ACCESS_NS.keys()
    for point, value in CALIBRATION_ACCESS_NS.items():
        assert computed[point] == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("configuration", TABLE2_CONFIGURATIONS,
                         ids=lambda configuration: configuration.name)
def test_table2_cycle_times_unchanged(configuration):
    geometry = configuration.cache_geometry
    computed = (
        configuration.single_banked_access_time_ns(),
        geometry.cycle_time_ns(),
        geometry.lower_access_time_ns(),
    )
    assert computed == pytest.approx(TABLE2_TIMES_NS[configuration.name], rel=1e-12)
