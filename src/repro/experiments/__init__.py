"""Experiment harness: one module per figure/table of the paper's evaluation.

Every experiment module exposes ``run(settings, cache)``, which
assembles an :class:`~repro.experiments.common.ExperimentResult` (whose
``render()`` prints the same rows/series the paper reports) by reading
simulation results through a
:class:`~repro.experiments.common.SimulationCache`.  The points it reads
are its plan: :func:`~repro.experiments.common.plan` runs it once over
stand-in results and returns them as
:class:`~repro.experiments.scheduler.SimulationPoint` objects, which the
scheduler deduplicates across experiments and fans out over worker
processes.  This holds because ``run`` reads the same points whatever
the results hold.  ``run`` never simulates:
:meth:`~repro.experiments.scheduler.SweepEngine.execute` fills the store
first, and reading a point missing from it raises
:class:`~repro.errors.ReproError`.

The :mod:`repro.experiments.runner` module ties them together for the
command line::

    python -m repro.experiments.runner --experiment figure6 --instructions 8000
    python -m repro.experiments.runner --experiment all --jobs 8 --cache-dir .simcache
"""

from repro.experiments.common import (
    ExperimentSettings,
    ExperimentResult,
    SimulationCache,
    architecture_factories,
    one_cycle_factory,
    two_cycle_full_bypass_factory,
    two_cycle_one_bypass_factory,
)
from repro.experiments import (
    ablations,
    figure1,
    figure2,
    figure3,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9_table2,
    value_reuse,
    headline,
)

__all__ = [
    "ExperimentSettings",
    "ExperimentResult",
    "SimulationCache",
    "architecture_factories",
    "one_cycle_factory",
    "two_cycle_full_bypass_factory",
    "two_cycle_one_bypass_factory",
    "figure1",
    "figure2",
    "figure3",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9_table2",
    "value_reuse",
    "headline",
    "ablations",
]
