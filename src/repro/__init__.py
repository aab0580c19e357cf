"""repro — reproduction of "Multiple-Banked Register File Architectures".

The package implements, from scratch, everything the ISCA 2000 paper by
Cruz, González, Valero and Topham needs:

* a cycle-level dynamically scheduled superscalar processor model
  (:mod:`repro.pipeline`) with all its substrates (fetch and branch
  prediction, renaming, caches, load/store queue, issue/execute/commit),
* the register file architectures under study (:mod:`repro.regfile`):
  monolithic single-banked files of configurable latency and bypass
  depth, the one-level multiple-banked organisation, and the two-level
  *register file cache* with its caching and prefetching policies,
* SPEC95-substitute workloads (:mod:`repro.workloads`),
* analytical register-file area and access-time models
  (:mod:`repro.hwmodel`),
* the experiment harness regenerating every figure and table of the
  paper's evaluation (:mod:`repro.experiments`).

Quickstart
----------

>>> from repro import (ProcessorConfig, RegisterFileCache, simulate,
...                    SyntheticWorkload, get_profile)
>>> workload = SyntheticWorkload(get_profile("gcc"))
>>> stats = simulate(
...     workload.instructions(5000),
...     regfile_factory=RegisterFileCache,
...     config=ProcessorConfig(max_instructions=5000),
...     benchmark_name="gcc",
... )
>>> 0.0 < stats.ipc < 8.0
True
"""

from repro.errors import (
    ReproError,
    ConfigurationError,
    AssemblyError,
    SimulationError,
    RenameError,
    RegisterFileError,
    WorkloadError,
    ModelError,
)
from repro.isa import (
    OpClass,
    Opcode,
    DynamicInstruction,
    StaticInstruction,
    LogicalRegister,
    RegisterClass,
    Program,
    assemble,
)
from repro.workloads import (
    BenchmarkProfile,
    SyntheticWorkload,
    get_profile,
    all_profiles,
    SPECINT95,
    SPECFP95,
    SPEC95,
    Trace,
    materialize,
    KERNELS,
    kernel_workload,
)
from repro.regfile import (
    RegisterFileModel,
    SingleBankedRegisterFile,
    RegisterFileCache,
    OneLevelBankedRegisterFile,
    UNLIMITED,
)
from repro.pipeline import (
    ProcessorConfig,
    Processor,
    SimulationStats,
    simulate,
)
from repro.hwmodel import (
    RegisterFileGeometry,
    area_lambda2,
    access_time_ns,
    RegisterFileCacheGeometry,
    TABLE2_CONFIGURATIONS,
    pareto_frontier,
)
from repro.analysis import harmonic_mean, speedup, relative_series
from repro.version import __version__

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ConfigurationError",
    "AssemblyError",
    "SimulationError",
    "RenameError",
    "RegisterFileError",
    "WorkloadError",
    "ModelError",
    # isa
    "OpClass",
    "Opcode",
    "DynamicInstruction",
    "StaticInstruction",
    "LogicalRegister",
    "RegisterClass",
    "Program",
    "assemble",
    # workloads
    "BenchmarkProfile",
    "SyntheticWorkload",
    "get_profile",
    "all_profiles",
    "SPECINT95",
    "SPECFP95",
    "SPEC95",
    "Trace",
    "materialize",
    "KERNELS",
    "kernel_workload",
    # register files
    "RegisterFileModel",
    "SingleBankedRegisterFile",
    "RegisterFileCache",
    "OneLevelBankedRegisterFile",
    "UNLIMITED",
    # pipeline
    "ProcessorConfig",
    "Processor",
    "SimulationStats",
    "simulate",
    # hardware models
    "RegisterFileGeometry",
    "area_lambda2",
    "access_time_ns",
    "RegisterFileCacheGeometry",
    "TABLE2_CONFIGURATIONS",
    "pareto_frontier",
    # analysis
    "harmonic_mean",
    "speedup",
    "relative_series",
]
