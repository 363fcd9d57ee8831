"""The threaded HTTP server wrapping a :class:`SolverService`.

``ThreadingHTTPServer`` gives every request its own thread (SSE
streams hold theirs open for the life of the subscription); the solver
workers live inside the service, so request threads only ever enqueue,
read the ledger, or wait on the progress broker — never solve.

:func:`run_server` is the CLI's serving loop: it installs
SIGTERM/SIGINT handlers that request a graceful drain (active proofs
checkpoint and return to ``pending``), serves until the service stops,
and returns the process exit code — ``0`` for an idle drain, ``3``
(the CLI's established "preempted, resume to continue" code) when a
proof was checkpoint-requeued, e.g. under a ``--preempt-after``
self-drain budget.
"""

from __future__ import annotations

import signal
import sys
import threading
from http.server import ThreadingHTTPServer

from ..core.kernel import preload_kernel
from .handlers import ServeHandler
from .service import SolverService

__all__ = ["SolverServer", "run_server"]


class SolverServer(ThreadingHTTPServer):
    """One service, many request threads.  Port 0 picks a free port
    (``server_address[1]`` has the real one after construction)."""

    daemon_threads = True  # requests never block process exit

    def __init__(self, address: tuple[str, int], service: SolverService) -> None:
        super().__init__(address, ServeHandler)
        self.service = service


def run_server(
    service: SolverService,
    host: str = "127.0.0.1",
    port: int = 8323,
    *,
    install_signals: bool = True,
) -> int:
    """Serve until drained; returns the process exit code."""
    # Load the search kernel (numpy unless REPRO_KERNEL/REPRO_NO_NUMPY
    # say otherwise) before listening, so the first proof a fresh
    # server runs does not pay for the import.
    preload_kernel()
    httpd = SolverServer((host, port), service)
    recovered = service.start()
    real_port = httpd.server_address[1]
    print(
        f"[serve] listening on http://{host}:{real_port} "
        f"(workers={service.workers}, ledger={service.ledger_dir})",
        file=sys.stderr,
    )
    if recovered:
        print(
            f"[serve] recovered {recovered} unfinished job(s) from the ledger",
            file=sys.stderr,
        )

    if install_signals:

        def _drain(signum, frame) -> None:
            print(
                f"[serve] signal {signum}: draining (active proofs "
                "checkpoint and requeue)",
                file=sys.stderr,
            )
            service.request_drain()

        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, _drain)

    acceptor = threading.Thread(target=httpd.serve_forever, daemon=True)
    acceptor.start()
    try:
        # The service stops on drain request (signal or a preempted
        # proof's self-drain); wake periodically so signal handlers run
        # on the main thread.
        while not service.stopped.wait(timeout=0.2):
            if service._stop.is_set() and not any(
                t.is_alive() for t in service._threads
            ):
                break
    finally:
        httpd.shutdown()
        httpd.server_close()
        service.shutdown()
    if service.preempted:
        print(
            "[serve] drained with a preempted proof checkpointed; "
            "restart to resume",
            file=sys.stderr,
        )
        return 3
    return 0
