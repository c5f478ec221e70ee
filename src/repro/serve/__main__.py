"""``python -m repro.serve`` — run the ER service daemon.

Starts an :class:`~repro.serve.server.ERServer`, prints the bound
address (and the token, when the daemon had to generate one — set
:data:`~repro.serve.protocol.ENV_SERVE_TOKEN` to control it yourself),
and serves until SIGTERM/SIGINT, then drains and exits 0.  The CLI
verb ``repro-er serve`` is the same thing with the rest of the CLI's
conveniences; this module exists so the daemon can be started without
the console script installed.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from ..cli import _positive_float
from .server import ERServer


def add_server_arguments(parser: argparse.ArgumentParser) -> None:
    """The daemon's flags (shared with the CLI's ``serve`` verb)."""
    parser.add_argument(
        "--workers", type=int, default=2,
        help="worker processes in the shared pool (default 2)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="front-end bind address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=0,
        help="front-end port (default 0 = ephemeral; printed at startup)",
    )
    parser.add_argument(
        "--task-timeout", type=_positive_float, default=None, metavar="SECONDS",
        help="per-task timeout before a worker is presumed stuck",
    )
    parser.add_argument(
        "--max-task-retries", type=int, default=2, metavar="N",
        help="requeues per task after worker loss (default 2)",
    )
    parser.add_argument(
        "--max-worker-respawns", type=int, default=None, metavar="N",
        help="replacement workers over the daemon's lifetime "
             "(default 2x --workers)",
    )
    parser.add_argument(
        "--workload-log", default=None, metavar="PATH",
        help="append one JSON line per finished job to PATH",
    )
    parser.add_argument(
        "--state-root", default=None, metavar="DIR",
        help="directory of server-resident corpus states (one "
             "subdirectory per state name); enables submit-delta "
             "incremental ingests",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="how long shutdown waits for active jobs (default 30)",
    )


def server_from_args(args: argparse.Namespace) -> ERServer:
    """Build the (unstarted) server an argument namespace describes."""
    return ERServer(
        num_workers=args.workers,
        host=args.host,
        port=args.port,
        task_timeout=args.task_timeout,
        max_task_retries=args.max_task_retries,
        max_worker_respawns=args.max_worker_respawns,
        workload_log=args.workload_log,
        state_root=args.state_root,
        drain_timeout=args.drain_timeout,
    )


def run_server(server: ERServer) -> int:
    """Start ``server`` and block until SIGTERM/SIGINT, then drain.

    Prints the bound address on startup (machine-readable first line)
    and the token when the daemon generated one.
    """
    server.start()
    host, port = server.address
    print(f"repro.serve listening on {host}:{port}", flush=True)
    if server.token_generated:
        # Printed exactly once so operators can hand it to clients;
        # set REPRO_SERVE_TOKEN on the daemon to avoid this entirely.
        print(f"repro.serve token {server.token}", flush=True)
    stop = threading.Event()

    def request_stop(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, request_stop)
    signal.signal(signal.SIGINT, request_stop)
    stop.wait()
    print("repro.serve shutting down", flush=True)
    server.shutdown()
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Run the persistent ER service daemon.",
    )
    add_server_arguments(parser)
    args = parser.parse_args(argv)
    return run_server(server_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
