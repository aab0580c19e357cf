"""Workloads: SPEC95-substitute synthetic benchmarks and ISA kernels.

The paper evaluates on the full SPEC95 suite compiled for Alpha and
simulated for 100M instructions.  Neither the binaries nor an Alpha
tool-chain are available here, so this package provides the substitution
documented in ``README.md`` ("Workloads"): per-benchmark *profiles*
capturing the workload properties the register-file study is sensitive
to (instruction mix, dataflow distance, branch behaviour, memory
locality), and a seeded generator that turns a profile into a
deterministic dynamic instruction stream.  Hand-written kernels in the toy ISA are also provided for the
examples and integration tests.
"""

from repro.workloads.profiles import (
    BenchmarkProfile,
    BranchProfile,
    MemoryProfile,
    get_profile,
    all_profiles,
)
from repro.workloads.spec_suites import (
    SPECINT95,
    SPECFP95,
    SPEC95,
    suite_for,
)
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.kernels import (
    KERNELS,
    dot_product_program,
    vector_scale_program,
    linked_list_walk_program,
    stencil_program,
    matmul_program,
    hash_lookup_program,
    kernel_workload,
)
from repro.workloads.trace import Trace, materialize

__all__ = [
    "BenchmarkProfile",
    "BranchProfile",
    "MemoryProfile",
    "get_profile",
    "all_profiles",
    "SPECINT95",
    "SPECFP95",
    "SPEC95",
    "suite_for",
    "SyntheticWorkload",
    "KERNELS",
    "dot_product_program",
    "vector_scale_program",
    "linked_list_walk_program",
    "stencil_program",
    "matmul_program",
    "hash_lookup_program",
    "kernel_workload",
    "Trace",
    "materialize",
]
