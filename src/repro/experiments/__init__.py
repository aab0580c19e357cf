"""Experiment harness: one module per figure/table of the paper's evaluation.

Every experiment module exposes two functions:

* ``plan(settings)`` declares the simulation points the experiment needs
  as :class:`~repro.experiments.scheduler.SimulationPoint` objects; the
  scheduler deduplicates them across experiments and fans them out over
  worker processes.
* ``run(settings, cache)`` assembles an
  :class:`~repro.experiments.common.ExperimentResult` (whose ``render()``
  prints the same rows/series the paper reports) by reading the results
  of exactly those points through a
  :class:`~repro.experiments.common.SimulationCache`.  It never
  simulates: :meth:`~repro.experiments.scheduler.SweepEngine.execute`
  fills the store first, and reading a point the plan does not declare
  raises :class:`~repro.errors.ReproError`.

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
