"""The paper's headline claims, derived from Figures 6 and 9.

* The register file cache degrades IPC by about 10% (SpecInt95) and 2%
  (SpecFP95) with respect to a non-pipelined single-banked register file
  (unlimited ports), and
* outperforms it by 87% / 92% in instruction throughput once the register
  file access time determines the cycle time and the best configuration
  is chosen for each architecture;
* versus the 2-cycle single-banked file with one bypass level it gains
  about 10% / 4% IPC and 9% (SpecInt95) throughput.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.experiments import figure6, figure9_table2
from repro.experiments.common import (
    ExperimentResult,
    ExperimentSettings,
    SimulationCache,
)

#: The numbers the paper reports, for side-by-side comparison.
PAPER_CLAIMS = {
    ("SpecInt95", "IPC vs 1-cycle"): -10.0,
    ("SpecFP95", "IPC vs 1-cycle"): -2.0,
    ("SpecInt95", "IPC vs 2-cycle/1-bypass"): 10.0,
    ("SpecFP95", "IPC vs 2-cycle/1-bypass"): 4.0,
    ("SpecInt95", "throughput vs 1-cycle (best config)"): 87.0,
    ("SpecFP95", "throughput vs 1-cycle (best config)"): 92.0,
    ("SpecInt95", "throughput vs 2-cycle/1-bypass (best config)"): 9.0,
    ("SpecFP95", "throughput vs 2-cycle/1-bypass (best config)"): 0.0,
}


def run(
    settings: ExperimentSettings,
    cache: SimulationCache,
) -> ExperimentResult:
    """Compute the headline claims on the simulated workloads."""
    ipc_result = figure6.run(settings, cache)
    throughput_result = figure9_table2.run(settings, cache)

    measured: dict[tuple[str, str], float] = {}
    for _suite, label in settings.active_suite_labels():
        summary = ipc_result.data[label + "_summary"]
        measured[(label, "IPC vs 1-cycle")] = summary["vs_one_cycle_pct"]
        measured[(label, "IPC vs 2-cycle/1-bypass")] = summary["vs_two_cycle_pct"]
        best = throughput_result.data[label + "_best"]
        rfc = best["non-bypass caching + prefetch-first-pair"]
        measured[(label, "throughput vs 1-cycle (best config)")] = (
            100.0 * (rfc / best["1-cycle"] - 1.0)
        )
        measured[(label, "throughput vs 2-cycle/1-bypass (best config)")] = (
            100.0 * (rfc / best["2-cycle, 1-bypass"] - 1.0)
        )

    rows = []
    for (suite, metric), paper_value in PAPER_CLAIMS.items():
        if (suite, metric) not in measured:  # suite filtered out
            continue
        rows.append(
            (suite, metric, f"{paper_value:+.0f}%", f"{measured[(suite, metric)]:+.1f}%")
        )
    body = format_table(
        ("suite", "metric (register file cache)", "paper", "measured"),
        rows,
        title="Headline claims: paper vs this reproduction",
    )
    return ExperimentResult(
        name="Headline",
        title="Paper headline claims vs measured results",
        body=body,
        data={"measured": {f"{k[0]}|{k[1]}": v for k, v in measured.items()}},
    )
