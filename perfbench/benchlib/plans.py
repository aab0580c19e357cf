"""The inputs of every workload, derived from the workload seed.

A seed picks the *order* of the inputs — which simulate call, sweep
point or job comes when, and for ``service-warm`` which fresh
configuration lands in which block and which plans surround it; it
never changes how much work a run contains.  Every simulated point has
a stable id, the key of its recorded output digest in ``digests.json``.

Work sizes are fixed per run rather than per second: the tail rule
picks its percentile from the sample count, so a run whose count moved
with the machine's speed would report a different percentile after a
speed-up.  ``--seconds`` only caps a run on a machine too slow to
finish it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.common import (
    OneLevelBankedFactory,
    RegisterFileCacheFactory,
    SingleBankedFactory,
)
from repro.experiments.scheduler import SimulationPoint
from repro.pipeline.config import ProcessorConfig
from repro.sampling import parse_sampling

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ----------------------------------------------------------------------
# point-live: repro.pipeline.processor.simulate on pre-generated streams
# ----------------------------------------------------------------------

POINT_LIVE_BENCHMARKS = ("gcc", "swim", "fpppp")
POINT_LIVE_INSTRUCTIONS = 5_000
#: Generated stream length over the commit budget, so the pipeline
#: never drains before it commits ``POINT_LIVE_INSTRUCTIONS``.
POINT_LIVE_STREAM_SLACK = 1.5
POINT_LIVE_ARCHITECTURES = {
    "mono-1c": SingleBankedFactory(
        latency=1, bypass_levels=1, name="1-cycle single-banked"),
    "banked-4x2r2w": OneLevelBankedFactory(
        num_banks=4, read_ports_per_bank=2, write_ports_per_bank=2),
    "rfc-4r2w-2bus": RegisterFileCacheFactory(
        upper_read_ports=4, upper_write_ports=2, lower_write_ports=4, buses=2),
}
#: Rotations per run; each rotation simulates every (benchmark,
#: architecture) pair once, in its own seeded order.
POINT_LIVE_ROTATIONS = 8


def point_live_id(benchmark: str, architecture: str) -> str:
    return f"point-live/{benchmark}/{architecture}/{POINT_LIVE_INSTRUCTIONS}"


def point_live_plan(seed: int) -> List[List[Tuple[str, str]]]:
    """``POINT_LIVE_ROTATIONS`` rotations of (benchmark, architecture)."""
    rng = _rng("point-live", seed)
    pairs = [(benchmark, architecture)
             for benchmark in POINT_LIVE_BENCHMARKS
             for architecture in POINT_LIVE_ARCHITECTURES]
    rotations = []
    for _ in range(POINT_LIVE_ROTATIONS):
        rotation = list(pairs)
        rng.shuffle(rotation)
        rotations.append(rotation)
    return rotations


# ----------------------------------------------------------------------
# sweep-cold: SweepEngine.execute over a figure-style matrix
# ----------------------------------------------------------------------

SWEEP_BENCHMARKS = ("gcc", "fpppp")
SWEEP_INSTRUCTIONS = 8_000
SWEEP_SAMPLE = "3000:200:200"
#: Every register-file family of the paper: three monolithic timings,
#: one-level banked, the register file cache across caching and fetch
#: policies, and the port-constrained register file cache.
SWEEP_ARCHITECTURES = {
    "mono-1c": SingleBankedFactory(
        latency=1, bypass_levels=1, name="1-cycle single-banked"),
    "mono-2c-full-bypass": SingleBankedFactory(
        latency=2, bypass_levels=2, name="2-cycle single-banked, full bypass"),
    "mono-2c-1-bypass": SingleBankedFactory(
        latency=2, bypass_levels=1, name="2-cycle single-banked, 1 bypass"),
    "banked-4x2r2w": OneLevelBankedFactory(
        num_banks=4, read_ports_per_bank=2, write_ports_per_bank=2),
    "rfc-non-bypass": RegisterFileCacheFactory(
        caching="non-bypass", fetch="prefetch-first-pair"),
    "rfc-ready": RegisterFileCacheFactory(
        caching="ready", fetch="prefetch-first-pair"),
    "rfc-always-demand": RegisterFileCacheFactory(
        caching="always", fetch="fetch-on-demand"),
    "rfc-ported": RegisterFileCacheFactory(
        upper_read_ports=4, upper_write_ports=2, lower_write_ports=4, buses=2),
}
#: Sweeps per run, each on a fresh cache directory.
SWEEP_UNITS = 3
#: Instruction budget of the untimed warm-up sweep that is part of set-up.
SWEEP_WARMUP_INSTRUCTIONS = 1_200
SWEEP_WARMUP_SAMPLE = "400:100:100"


@dataclass(frozen=True)
class PlannedPoint:
    """A simulation point plus the id of its recorded digest."""

    id: str
    point: SimulationPoint


def _sweep_points(benchmarks, architectures, instructions: int,
                  sample: str) -> List[PlannedPoint]:
    spec = parse_sampling(sample)
    config = ProcessorConfig(max_instructions=instructions)
    planned = []
    for benchmark in benchmarks:
        # Exact points first, so the trace recording always doubles as
        # the first exact point's run; the seed never changes the work.
        for mode, sampling in (("exact", None), ("sampled", spec)):
            for architecture in architectures:
                planned.append(PlannedPoint(
                    id=f"sweep-cold/{benchmark}/{architecture}/{mode}/{instructions}",
                    point=SimulationPoint(
                        benchmark=benchmark,
                        factory=SWEEP_ARCHITECTURES[architecture],
                        architecture=architecture,
                        config=config,
                        sampling=sampling,
                    ),
                ))
    return planned


def sweep_plan(seed: int) -> List[PlannedPoint]:
    """The 32-point sweep in seeded order (``mono-1c`` leads each benchmark)."""
    rng = _rng("sweep-cold", seed)
    benchmarks = list(SWEEP_BENCHMARKS)
    rng.shuffle(benchmarks)
    rest = [name for name in SWEEP_ARCHITECTURES if name != "mono-1c"]
    rng.shuffle(rest)
    return _sweep_points(benchmarks, ["mono-1c"] + rest,
                         SWEEP_INSTRUCTIONS, SWEEP_SAMPLE)


def sweep_warmup_points() -> List[SimulationPoint]:
    """A two-point sweep that loads every lazily imported module."""
    return [planned.point for planned in _sweep_points(
        ("gcc",), ("mono-1c",), SWEEP_WARMUP_INSTRUCTIONS, SWEEP_WARMUP_SAMPLE)]


# ----------------------------------------------------------------------
# service-warm: one closed-loop client of the HTTP sweep service
# ----------------------------------------------------------------------

SERVICE_SETTINGS = {"instructions": 2_000, "warmup_instructions": 500,
                    "benchmarks": ["gcc", "swim"]}
#: Figure plans computed during set-up and resubmitted as cached jobs.
SERVICE_PLANS = {
    name: {"figure": name, "settings": SERVICE_SETTINGS}
    for name in ("figure6", "figure7", "value_reuse")
}
SERVICE_BLOCKS = 40
#: Each block holds one fresh job and three resubmissions of every plan.
SERVICE_CACHED_PER_PLAN = 3
#: Every this many fresh jobs, one uses a new instruction budget, which
#: forces a trace recording; the others replay an existing trace.
SERVICE_RECORDING_EVERY = 5
_FRESH_CACHING = ("non-bypass", "ready", "always", "never")
_FRESH_FETCH = ("prefetch-first-pair", "fetch-on-demand")
_FRESH_READ_PORTS = (2, 4)
#: Budgets above the plans' that only fresh recording jobs use.
_FRESH_BUDGET_STEPS = 4


@dataclass(frozen=True)
class ServiceJob:
    """One submission of the service-warm sequence."""

    kind: str  # "cached" or "fresh"
    #: Plan name for cached jobs, digest id for fresh ones.
    name: str
    spec: dict


def _fresh_spec(benchmark: str, label: str, parameters: dict,
                instructions: int) -> dict:
    return {"points": [{
        "benchmark": benchmark,
        "architecture": label,
        "factory": {"type": "RegisterFileCacheFactory", "parameters": parameters},
        "config": {"max_instructions": instructions},
        "warmup_instructions": SERVICE_SETTINGS["warmup_instructions"],
    }]}


def fresh_pools() -> Tuple[Dict[str, dict], Dict[str, dict]]:
    """Fresh job specs by digest id: (replay pool, recording pool).

    The pools hold exactly the fresh jobs of one run, so every seed
    submits the same configurations, in its own order.
    """
    base = SERVICE_SETTINGS["instructions"]
    replay: Dict[str, dict] = {}
    recording: Dict[str, dict] = {}
    for benchmark in SERVICE_SETTINGS["benchmarks"]:
        for caching in _FRESH_CACHING:
            for fetch in _FRESH_FETCH:
                for ports in _FRESH_READ_PORTS:
                    label = f"rfc-{caching}-{fetch}-{ports}r2w-2bus"
                    parameters = {"caching": caching, "fetch": fetch,
                                  "upper_read_ports": ports,
                                  "upper_write_ports": 2,
                                  "lower_write_ports": 4, "buses": 2}
                    replay[f"service-warm/{benchmark}/{label}/{base}"] = (
                        _fresh_spec(benchmark, label, parameters, base))
        for step in range(1, _FRESH_BUDGET_STEPS + 1):
            budget = base + 8 * step
            recording[f"service-warm/{benchmark}/rfc-default/{budget}"] = (
                _fresh_spec(benchmark, "rfc-default", {}, budget))
    return replay, recording


def service_plan(seed: int) -> List[List[ServiceJob]]:
    """``SERVICE_BLOCKS`` blocks of ten jobs, one of them fresh."""
    rng = _rng("service-warm", seed)
    replay, recording = fresh_pools()
    replay_ids = sorted(replay)
    recording_ids = sorted(recording)
    rng.shuffle(replay_ids)
    rng.shuffle(recording_ids)
    blocks = []
    for index in range(SERVICE_BLOCKS):
        cached = [ServiceJob("cached", name, SERVICE_PLANS[name])
                  for name in SERVICE_PLANS
                  for _ in range(SERVICE_CACHED_PER_PLAN)]
        rng.shuffle(cached)
        if index % SERVICE_RECORDING_EVERY == SERVICE_RECORDING_EVERY - 1:
            fresh_id = recording_ids.pop()
            fresh = ServiceJob("fresh", fresh_id, recording[fresh_id])
        else:
            fresh_id = replay_ids.pop()
            fresh = ServiceJob("fresh", fresh_id, replay[fresh_id])
        cached.insert(rng.randrange(len(cached) + 1), fresh)
        blocks.append(cached)
    return blocks
