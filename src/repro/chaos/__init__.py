"""Deterministic fault injection and the chaos scenario harness.

The paper's core claim is that the register-file cache is architecturally
transparent under any timing perturbation; this package extends the same
discipline to the service infrastructure: under any injected fault the
fleet must produce bit-identical results or a clean, attributed failure
— never a hang, a steal loop, or silent data loss.

Layout:

* :mod:`repro.chaos.seams` — the injectable seam registry production
  code consults.  A seam is **disabled by default**: the check is one
  module-attribute load and an ``is None`` test, so the hot path pays
  nothing when chaos is off (proven by the ``resilience_overhead``
  bench gate).
* :mod:`repro.chaos.faults` — :class:`~repro.chaos.faults.Fault` and the
  :class:`~repro.chaos.faults.FaultInjector` that decides, from its fault
  list alone, which seam calls fail and how.
* :mod:`repro.chaos.harness` — boots a live in-process fleet (service
  apps + HTTP servers + real client), runs one scenario against it and
  asserts the global invariants.
* :mod:`repro.chaos.scenarios` — the scenario matrix: ENOSPC,
  hung/slow/crashing workers, replica
  SIGKILL mid-lease, clock skew on heartbeat renewal, dropped/delayed/
  reset HTTP responses, queue overload and poison jobs.

Run the matrix::

    python -m repro.chaos --seed 0 --quick
    python -m repro.chaos --scenarios enospc,replica-sigkill --json out.json

Keep this module import-light: production seams import
:mod:`repro.chaos.seams`, which must never pull the harness in.
"""

from repro.chaos.faults import Fault, FaultInjector
from repro.chaos.seams import installed

__all__ = ["Fault", "FaultInjector", "installed"]
