"""Regenerate ``perfbench/digests.json`` from the current simulator.

Run from the repository root::

    python3 perfbench/record_digests.py

Every benchmark run checks its outputs against this table, so rewrite
it only for a deliberate change of simulated behaviour — never to make
a speed change pass.  It runs one unit of each workload through the
same code the benchmark uses, plus every fresh job of the service pool.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from collections import defaultdict

from run import SCRATCH_ROOT, SRC

sys.path.insert(0, SRC)

from benchlib import plans  # noqa: E402
from benchlib.checks import DIGESTS_PATH, DigestBook, OutputMismatch  # noqa: E402
from benchlib.stats import OK  # noqa: E402
from benchlib.workloads import (  # noqa: E402
    Context,
    service_setup,
    point_live,
    run_job,
    sweep_cold,
)


def main() -> int:
    book = DigestBook(record=True)
    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="record-digests-", dir=SCRATCH_ROOT)
    # seconds=0: one unit per workload, which covers every point id.
    context = Context(seed=0, seconds=0.0, scratch_dir=scratch, digests=book)
    try:
        point_live(context)
        sweep_cold(context)
        service, _ = service_setup(context, tempfile.mkdtemp(dir=scratch))
        try:
            replay, recording = plans.fresh_pools()
            for output_id, spec in {**replay, **recording}.items():
                run = run_job(service.client, spec, defaultdict(list))
                if run.outcome != OK:
                    raise OutputMismatch(f"{output_id}: job ended {run.outcome}")
                book.check(output_id, run.body["result"]["points"][0]["stats"])
        finally:
            service.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump({
            "about": "SHA-256 of each point's SimulationStats.to_dict() and of "
                     "each service set-up plan result, in canonical JSON; "
                     "written by perfbench/record_digests.py",
            "digests": dict(sorted(book.table.items())),
        }, handle, indent=1)
        handle.write("\n")
    print(f"recorded {len(book.table)} digests in {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
