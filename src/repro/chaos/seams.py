"""The injectable seam registry production code consults.

A *seam* is a named point in production code where the chaos harness may
inject a fault.  Production call sites are written as::

    from repro.chaos import seams as _seams
    ...
    if _seams.active is not None:
        _seams.active.fire("storage.append")

When chaos is disabled (the default, always true in production) the
guard is a single module-attribute load plus an ``is None`` test — no
function call, no allocation, no lock.  The ``resilience_overhead``
bench scenario holds this path to within noise of the un-seamed
baseline.

Seam names currently wired into production code:

=====================  ====================================================
``storage.append``     :meth:`repro.storage.Database.write`, before each
                       write statement reaches the database file.
``jobs.save``          :class:`repro.service.jobs.JobStore` record save,
                       before the record is written to the jobs table.
``engine.point``       :func:`repro.experiments.scheduler.run_simulation_point`,
                       or ``record_point_trace`` when the recording is the
                       point's run: once per executed point, before the
                       simulation body runs (slow / hung / crashing worker
                       faults).
``http.response``      :class:`repro.service.server.ServiceRequestHandler`
                       just before a response body is sent (drop / delay /
                       connection-reset faults).
=====================  ====================================================

Only the chaos harness should call :func:`install` / :func:`uninstall`;
they are process-global and not reentrant.  ``installed()`` is the
read-only introspection hook (used by ``/healthz`` so a chaos-wrapped
replica is honest about it).
"""

from __future__ import annotations

#: The active fault injector, or ``None`` when chaos is disabled.  Kept a
#: bare module attribute (not behind a function) so the production guard
#: stays one attribute load.
active = None


def install(injector) -> None:
    """Make *injector* the process-global fault source.

    Raises :class:`RuntimeError` if a different injector is already
    installed — overlapping chaos runs in one process would corrupt each
    other's deterministic call counts.
    """
    global active
    if active is not None and active is not injector:
        raise RuntimeError("a fault injector is already installed")
    active = injector


def uninstall() -> None:
    """Disable chaos; production guards go back to the no-op path."""
    global active
    active = None


def installed() -> bool:
    """Whether a fault injector is currently active in this process."""
    return active is not None
