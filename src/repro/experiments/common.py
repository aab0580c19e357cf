"""Shared infrastructure for the experiment harness.

The register-file architecture factories defined here are **frozen
dataclasses**, not lambdas: the parallel scheduler ships them to worker
processes (they must pickle) and the persistent result store fingerprints
their parameters (they must be introspectable).  Calling an instance
builds a fresh register-file model, exactly like the old closures did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.analysis.metrics import harmonic_mean
from repro.errors import ConfigurationError, ReproError
from repro.experiments.scheduler import SimulationPoint
from repro.experiments.store import ResultStore
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.stats import SimulationStats
from repro.regfile.banked import OneLevelBankedRegisterFile
from repro.regfile.base import RegisterFileModel, UNLIMITED
from repro.regfile.cache import RegisterFileCache
from repro.regfile.monolithic import SingleBankedRegisterFile
from repro.sampling.spec import SamplingSpec
from repro.workloads.spec_suites import SPECFP95, SPECINT95

#: Type of a register file factory as accepted by the processor model.
RegfileFactory = Callable[[], RegisterFileModel]


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by all experiments.

    ``instructions_per_benchmark`` trades fidelity for run time; the
    default keeps a full-suite experiment in the tens of seconds on a
    laptop.  ``benchmarks`` restricts the suite (useful for quick
    looks).  ``sampling`` switches every point of the run from exact
    simulation to systematic interval sampling (``--sample`` on the
    runner; exact is the default).
    """

    instructions_per_benchmark: int = 8_000
    warmup_instructions: int = 2_000
    benchmarks: Optional[Sequence[str]] = None
    base_config: ProcessorConfig = field(default_factory=ProcessorConfig)
    sampling: Optional[SamplingSpec] = None

    def __post_init__(self) -> None:
        if self.instructions_per_benchmark <= 0:
            raise ConfigurationError("instructions_per_benchmark must be positive")
        if self.warmup_instructions < 0:
            raise ConfigurationError("warmup_instructions cannot be negative")
        if self.benchmarks is not None and not list(self.benchmarks):
            raise ConfigurationError(
                "benchmark filter is empty (omit it to run the full suite)"
            )

    def suite_selection(self, which: str) -> Sequence[str]:
        """Benchmarks of a suite ("int", "fp" or "all"), honouring the filter.

        May be empty (a valid FP-only filter selects nothing from "int";
        experiments simply skip that suite).  A filter naming benchmarks
        that do not exist anywhere raises, listing the unknown names —
        the old behaviour of silently falling back to the suite's first
        benchmark hid typos.
        """
        if which == "int":
            names = SPECINT95
        elif which == "fp":
            names = SPECFP95
        else:
            names = SPECINT95 + SPECFP95
        if self.benchmarks is None:
            return names
        known = set(SPECINT95 + SPECFP95)
        unknown = sorted(name for name in self.benchmarks if name not in known)
        if unknown:
            raise ConfigurationError(
                f"unknown benchmarks in filter: {', '.join(unknown)} "
                f"(known: {', '.join(SPECINT95 + SPECFP95)})"
            )
        return [name for name in names if name in self.benchmarks]

    def suite(self, which: str) -> Sequence[str]:
        """Like :meth:`suite_selection`, but an empty selection raises.

        Raises
        ------
        ConfigurationError
            If the ``benchmarks`` filter names unknown benchmarks, or if
            it excludes every benchmark of the explicitly requested suite.
        """
        selected = self.suite_selection(which)
        if not selected:
            raise ConfigurationError(
                f"benchmark filter {sorted(self.benchmarks or ())} matches "
                f"no benchmark of suite {which!r}"
            )
        return selected

    def active_suite_labels(self) -> List[tuple]:
        """The ("int"/"fp", display label) pairs the filter leaves non-empty.

        Experiments iterate this instead of a hard-coded
        ``(("int", "SpecInt95"), ("fp", "SpecFP95"))`` so that a
        single-suite ``--benchmarks`` filter runs the one suite it names
        rather than failing on the other.
        """
        return [
            (suite, label)
            for suite, label in (("int", "SpecInt95"), ("fp", "SpecFP95"))
            if self.suite_selection(suite)
        ]

    def processor_config(self, **overrides) -> ProcessorConfig:
        """Processor configuration with the experiment's instruction budget."""
        merged = {"max_instructions": self.instructions_per_benchmark}
        merged.update(overrides)
        return self.base_config.with_overrides(**merged)


@dataclass
class ExperimentResult:
    """The outcome of one experiment: a title, text body and raw data."""

    name: str
    title: str
    body: str
    data: dict = field(default_factory=dict)

    def render(self) -> str:
        header = f"=== {self.name}: {self.title} ==="
        return f"{header}\n{self.body}\n"


# ----------------------------------------------------------------------
# architecture factories (picklable, introspectable)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SingleBankedFactory:
    """Builds single-banked register files of a fixed latency/bypass depth."""

    latency: int = 1
    bypass_levels: int = 1
    read_ports: Optional[int] = UNLIMITED
    write_ports: Optional[int] = UNLIMITED
    name: str = "single-banked"

    def __call__(self) -> SingleBankedRegisterFile:
        return SingleBankedRegisterFile(
            latency=self.latency,
            bypass_levels=self.bypass_levels,
            read_ports=self.read_ports,
            write_ports=self.write_ports,
            name=self.name,
        )


@dataclass(frozen=True)
class RegisterFileCacheFactory:
    """Builds register file caches; policies are referenced by name.

    The names are those of :mod:`repro.regfile.cache`.  Unlike a bare
    ``RegisterFileCache()``, the default fetch policy here is the paper's
    ``prefetch-first-pair``.
    """

    caching: str = "non-bypass"
    fetch: str = "prefetch-first-pair"
    upper_read_ports: Optional[int] = UNLIMITED
    upper_write_ports: Optional[int] = UNLIMITED
    lower_write_ports: Optional[int] = UNLIMITED
    buses: Optional[int] = UNLIMITED
    upper_capacity: int = 16
    lower_read_latency: int = 1

    def __call__(self) -> RegisterFileCache:
        return RegisterFileCache(
            upper_capacity=self.upper_capacity,
            caching=self.caching,
            fetch=self.fetch,
            upper_read_ports=self.upper_read_ports,
            upper_write_ports=self.upper_write_ports,
            lower_write_ports=self.lower_write_ports,
            num_buses=self.buses,
            lower_read_latency=self.lower_read_latency,
        )


@dataclass(frozen=True)
class OneLevelBankedFactory:
    """Builds the one-level interleaved-bank organisation of Figure 4a."""

    num_banks: int = 2
    read_ports_per_bank: int = 2
    write_ports_per_bank: int = 2

    def __call__(self) -> OneLevelBankedRegisterFile:
        return OneLevelBankedRegisterFile(
            num_banks=self.num_banks,
            read_ports_per_bank=self.read_ports_per_bank,
            write_ports_per_bank=self.write_ports_per_bank,
        )


def one_cycle_factory(read_ports: Optional[int] = UNLIMITED,
                      write_ports: Optional[int] = UNLIMITED) -> RegfileFactory:
    """Non-pipelined single-banked register file (1 cycle, 1 bypass level)."""
    return SingleBankedFactory(
        latency=1, bypass_levels=1, read_ports=read_ports, write_ports=write_ports,
        name="1-cycle single-banked",
    )


def two_cycle_full_bypass_factory(read_ports: Optional[int] = UNLIMITED,
                                  write_ports: Optional[int] = UNLIMITED) -> RegfileFactory:
    """Pipelined single-banked register file with full (two-level) bypass."""
    return SingleBankedFactory(
        latency=2, bypass_levels=2, read_ports=read_ports, write_ports=write_ports,
        name="2-cycle single-banked, full bypass",
    )


def two_cycle_one_bypass_factory(read_ports: Optional[int] = UNLIMITED,
                                 write_ports: Optional[int] = UNLIMITED) -> RegfileFactory:
    """Pipelined single-banked register file with a single bypass level."""
    return SingleBankedFactory(
        latency=2, bypass_levels=1, read_ports=read_ports, write_ports=write_ports,
        name="2-cycle single-banked, 1 bypass",
    )


def architecture_factories() -> Dict[str, RegfileFactory]:
    """The three architectures compared throughout the paper (unlimited ports)."""
    return {
        "1-cycle": one_cycle_factory(),
        "register file cache": RegisterFileCacheFactory(),
        "2-cycle, 1-bypass": two_cycle_one_bypass_factory(),
        "2-cycle, full bypass": two_cycle_full_bypass_factory(),
    }


# ----------------------------------------------------------------------
# simulation points and stored results
# ----------------------------------------------------------------------


def experiment_point(
    settings: ExperimentSettings,
    benchmark: str,
    factory: RegfileFactory,
    key: str,
    config: Optional[ProcessorConfig] = None,
) -> SimulationPoint:
    """The point of ``benchmark`` on the architecture labelled ``key``.

    The one constructor shared by the ``plan`` side (:func:`suite_points`)
    and the ``run`` side (:class:`SimulationCache`), so a declared point
    and the result an experiment reads always carry the same store key.
    """
    return SimulationPoint(
        benchmark=benchmark,
        factory=factory,
        architecture=key,
        config=config or settings.processor_config(),
        warmup_instructions=settings.warmup_instructions,
        sampling=settings.sampling,
    )


class SimulationCache:
    """Read-only view of a result store for the experiment ``run`` functions.

    Results live in a :class:`~repro.experiments.store.ResultStore`,
    keyed by a content hash of the benchmark, the architecture (factory
    parameters included) and the **full** processor configuration — two
    configs differing in any field never collide.  The store is filled
    beforehand by :meth:`~repro.experiments.scheduler.SweepEngine.execute`
    over the experiments' ``plan`` points; the cache never simulates, so
    a point missing from the store is an error, not a slow path.
    """

    def __init__(self, settings: ExperimentSettings, store: ResultStore) -> None:
        self.settings = settings
        self.store = store

    def stats(
        self,
        benchmark: str,
        factory: RegfileFactory,
        key: str,
        config: Optional[ProcessorConfig] = None,
    ) -> SimulationStats:
        """The stored result of ``benchmark`` on the architecture ``key``.

        Raises
        ------
        ReproError
            If the store holds no result for the point: the experiment's
            ``plan`` does not declare it.
        """
        point = experiment_point(self.settings, benchmark, factory, key, config)
        store_key = point.store_key()
        stats = self.store.get(store_key)
        if stats is None:
            raise ReproError(
                f"no stored result for benchmark {benchmark!r} on architecture "
                f"{key!r} (store key {store_key}): the experiment's plan() does "
                f"not declare this point"
            )
        return stats

    def suite_ipcs(
        self,
        suite: str,
        factory: RegfileFactory,
        key: str,
        config: Optional[ProcessorConfig] = None,
    ) -> Dict[str, float]:
        """IPC of every benchmark of ``suite`` on one architecture."""
        return {
            benchmark: self.stats(benchmark, factory, key, config).ipc
            for benchmark in self.settings.suite(suite)
        }


def suite_points(
    settings: ExperimentSettings,
    suites: Sequence[str],
    factory: RegfileFactory,
    key: str,
    config: Optional[ProcessorConfig] = None,
) -> List[SimulationPoint]:
    """The simulation points ``suite_ipcs`` reads, one per benchmark.

    The ``plan`` function of each figure module is built out of these;
    the scheduler deduplicates overlapping declarations across figures.
    """
    benchmarks: List[str] = []
    for suite in suites:
        benchmarks.extend(settings.suite_selection(suite))
    return [
        experiment_point(settings, benchmark, factory, key, config)
        for benchmark in dict.fromkeys(benchmarks)
    ]


def suite_harmonic_mean(ipcs: Mapping[str, float]) -> float:
    """Harmonic mean over a benchmark → IPC mapping."""
    return harmonic_mean(ipcs.values())


def with_hmean(ipcs: Mapping[str, float]) -> Dict[str, float]:
    """Copy of ``ipcs`` with an ``Hmean`` entry appended."""
    extended = dict(ipcs)
    extended["Hmean"] = suite_harmonic_mean(ipcs)
    return extended
