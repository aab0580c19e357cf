"""Quickstart: simulate one benchmark on two register file architectures.

Run with::

    python examples/quickstart.py [benchmark] [instructions]

This compares the paper's proposed *register file cache* (a 16-register
fully-associative upper bank over the 128-register file, non-bypass
caching, prefetch-first-pair) against the ideal non-pipelined 1-cycle
register file, on one SPEC95-like synthetic workload.
"""

from __future__ import annotations

import sys

from repro import (
    ProcessorConfig,
    RegisterFileCache,
    SingleBankedRegisterFile,
    SyntheticWorkload,
    get_profile,
    simulate,
)


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "gcc"
    instructions = int(sys.argv[2]) if len(sys.argv) > 2 else 8_000

    workload = SyntheticWorkload(get_profile(benchmark))
    config = ProcessorConfig(max_instructions=instructions)

    ideal = simulate(
        workload.instructions(instructions + 2000),
        regfile_factory=lambda: SingleBankedRegisterFile(latency=1),
        config=config,
        benchmark_name=benchmark,
    )
    cache = simulate(
        workload.instructions(instructions + 2000),
        regfile_factory=lambda: RegisterFileCache(
            caching="non-bypass", fetch="prefetch-first-pair"
        ),
        config=config,
        benchmark_name=benchmark,
    )

    print(f"benchmark: {benchmark} ({instructions} committed instructions)")
    print(f"  1-cycle single-banked register file : IPC = {ideal.ipc:.3f}")
    print(f"  register file cache (16 + 128 regs)  : IPC = {cache.ipc:.3f}")
    print(f"  IPC ratio                            : {cache.ipc / ideal.ipc:.3f}")
    print()
    print("register file cache internals:")
    for key, value in sorted(cache.regfile_statistics.items()):
        print(f"  {key:32s} {value}")
    print()
    print(f"branch prediction accuracy: {cache.branch_prediction_accuracy:.3f}")
    print(f"D-cache hit rate          : {cache.dcache_hit_rate:.3f}")
    print(f"operands caught on bypass : {cache.bypass_operand_fraction:.1%}")


if __name__ == "__main__":
    main()
