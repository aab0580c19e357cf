"""Host-speed calibration interleaved with the measured work.

The machines this benchmark runs on are shared: the same work can take
twice as long half an hour later, with no change to the code.  Every
workload therefore runs a short fixed *kernel* between its operations,
outside every timed interval, and scales its latencies and rates by how
slow the kernel ran against the kernel's reference time.

A kernel uses only the standard library, so a change to ``src/repro``
never moves it, and it does the kind of work its workload does, because
a contended host slows different kinds of work by different amounts:

* :class:`PointKernel` — dictionary lookups, attribute access on
  slotted objects, small-integer arithmetic and branches, like the
  simulator's hot loop, plus a shuffled walk over a working set of
  about a megabyte, like the simulator's instruction and register
  state (``point-live`` and ``sweep-cold``, whose time is mostly
  simulation);
* :class:`ServiceKernel` — HTTP round trips over loopback to a stdlib
  threaded server that rewrites a JSON file per request, like the
  service's request path (``service-warm``).

``point-live`` and ``sweep-cold`` scale each ``simulate`` call or sweep
point on its own, by the mean of the kernel runs just before and just
after it (:meth:`HostSpeed.rescale`).  The host's speed swings within a
run as well as between runs, and a run-wide median did not follow the
simulator.  Over eight processes on a 2-vCPU VM, per-call scaling cut
the coefficient of variation of the per-process median ``point-live``
call from 11% to 2% (3% with the hot-loop part alone); over eight
``sweep-cold`` runs, per-point scaling cut the spread of ``sim_kips``
(interquartile range over median) from 26% with a run-wide median, and
37% unscaled, to 6%.

``service-warm`` scales by the run's slowdown: its median kernel time
over the reference — the median, so the odd sample that shares the host
with a background thread does not move it.  A reported latency is the
measured one divided by the slowdown, a rate the measured rate times it.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, List


class _Slot:
    __slots__ = ("value", "count")

    def __init__(self) -> None:
        self.value = 0
        self.count = 1


def compute_kernel(iterations: int = 50_000) -> int:
    table = {}
    slot = _Slot()
    pending: List[int] = []
    for index in range(iterations):
        table[index & 1023] = slot.value + index
        slot.value = table.get((index * 7) & 1023, 0) & 0xFFFF
        if index % 3 == 0:
            slot.count += 1
            pending.append(index)
        elif pending:
            pending.pop()
    return slot.value + slot.count


class PointKernel:
    """The compute loop, then a shuffled walk over slotted objects and a
    dictionary of 16k entries each."""

    SIZE = 16_384

    def __init__(self) -> None:
        self.nodes = [_Slot() for _ in range(self.SIZE)]
        self.order = random.Random(3).sample(range(self.SIZE), self.SIZE)
        self.table = {(index * 2654435761) & 0xFFFFF: index
                      for index in range(self.SIZE)}

    def __call__(self) -> int:
        compute_kernel(30_000)
        nodes, table, total = self.nodes, self.table, 0
        for index in self.order:
            node = nodes[index]
            node.value = (node.value + total) & 0xFFFF
            total += table.get((index * 2654435761) & 0xFFFFF, 0) & 7
        return total


#: A fixed JSON document shaped like a job record with a small result.
_RECORD = {
    "id": "0123456789ab", "state": "completed",
    "points": {"requested": 6, "unique": 6, "completed": 6},
    "result": {"rows": [{"benchmark": f"b{i}", "ipc": i / 7.0,
                         "counters": list(range(i, i + 24))}
                        for i in range(24)]},
}


class _KernelHandler(BaseHTTPRequestHandler):
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        body = json.dumps(_RECORD).encode("utf-8")
        target = self.server.record_path
        with open(target + ".tmp", "wb") as handle:
            handle.write(body)
        os.replace(target + ".tmp", target)
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class ServiceKernel:
    """Loopback HTTP round trips to a stdlib server that persists a record."""

    ROUND_TRIPS = 4

    def __init__(self, scratch_dir: str) -> None:
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _KernelHandler)
        self.server.daemon_threads = True
        self.server.record_path = os.path.join(scratch_dir, "service-kernel.json")
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       name="perfbench-kernel", daemon=True)
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}/record"

    def __call__(self) -> None:
        for _ in range(self.ROUND_TRIPS):
            with urllib.request.urlopen(self.url, timeout=30) as response:
                json.loads(response.read())
        compute_kernel(10_000)

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()


#: Median kernel time of each workload's kernel on the reference host
#: (the 2-core machine the benchmark was tuned on), so scaled figures
#: read as that host's.
REFERENCE_S = {
    "point-live": 0.02,
    "sweep-cold": 0.02,
    "service-warm": 0.0127,
}


#: Median time of :func:`compute_kernel` alone on the reference host.
COMPUTE_REFERENCE_S = 0.027


class HostSpeed:
    """Kernel timings of one run."""

    def __init__(self, kernel: Callable[[], object] = compute_kernel,
                 reference_s: float = COMPUTE_REFERENCE_S) -> None:
        self.kernel = kernel
        self.reference_s = reference_s
        self.samples: List[float] = []

    def sample(self) -> float:
        """Run the kernel once; returns the seconds it took."""
        started = time.perf_counter()
        self.kernel()
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def slowdown(self) -> float:
        """How much slower than the reference host this run ran."""
        return statistics.median(self.samples) / self.reference_s

    def rescale(self, elapsed: float, before: float, after: float) -> float:
        """``elapsed`` as the reference host would have taken it, judged
        by the kernel times ``before`` and ``after`` the timed call."""
        return elapsed * 2.0 * self.reference_s / (before + after)

    def close(self) -> None:
        close = getattr(self.kernel, "close", None)
        if close is not None:
            close()


def for_workload(workload: str, scratch_dir: str) -> HostSpeed:
    """The calibration of one workload's run; close it when the run ends."""
    if workload == "service-warm":
        return HostSpeed(ServiceKernel(scratch_dir), REFERENCE_S[workload])
    return HostSpeed(PointKernel(), REFERENCE_S[workload])
