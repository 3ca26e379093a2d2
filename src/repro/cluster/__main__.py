"""CLI for the extraction cluster: ``python -m repro.cluster {leader,worker}``.

Two-host localhost quickstart (three terminals)::

    python -m repro.cluster leader --port 8760 --state-dir /var/lib/repro
    python -m repro.cluster worker --leader http://127.0.0.1:8760 --port 8761
    python -m repro.cluster worker --leader http://127.0.0.1:8760 --port 8762

Clients talk to the leader's ordinary ``/v1/`` endpoints; they never need
to know workers exist.  Set ``REPRO_AUTH_TOKEN`` (or pass ``--auth-token``
to every process) to require a bearer token on both the public surface and
the intra-cluster RPCs.
"""

from __future__ import annotations

import argparse
import os


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--auth-token",
        default=None,
        help=(
            "bearer token for /v1 and intra-cluster RPCs "
            "(env: REPRO_AUTH_TOKEN); all cluster processes must agree"
        ),
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        help="durable state directory for this process (omit for in-memory)",
    )
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help="admission-control bound on this process's pending queue",
    )
    parser.add_argument(
        "--faults",
        default=None,
        help=(
            "fault-injection plan: JSON text or @path to a JSON file; "
            "chaos testing only"
        ),
    )


def _apply_faults(plan: str | None) -> None:
    if not plan:
        return
    from .. import faults

    os.environ[faults.ENV_VAR] = plan
    faults.reload_env_plan()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Run an extraction-cluster leader or worker process.",
    )
    sub = parser.add_subparsers(dest="role", required=True)

    leader = sub.add_parser("leader", help="front door + router (serves /v1/)")
    _add_common(leader)
    leader.add_argument("--port", type=int, default=8760, help="bind port (0=ephemeral)")
    leader.add_argument(
        "--lease", type=float, default=10.0, help="worker heartbeat lease in seconds"
    )
    leader.add_argument(
        "--rpc-timeout",
        type=float,
        default=600.0,
        help="seconds the leader waits on one worker solve RPC",
    )

    worker = sub.add_parser("worker", help="solve host (joins the leader by heartbeat)")
    _add_common(worker)
    worker.add_argument("--leader", required=True, help="leader base URL")
    worker.add_argument("--port", type=int, default=0, help="bind port (0=ephemeral)")
    worker.add_argument(
        "--advertise-host",
        default=None,
        help="hostname the leader should dial back (defaults to the bind host)",
    )
    worker.add_argument(
        "--worker-id", default=None, help="stable identity (default: random)"
    )
    worker.add_argument(
        "--workers",
        type=int,
        choices=[1],
        default=1,
        help="only 1: a worker solves in process (its kernels are threaded)",
    )
    worker.add_argument(
        "--max-solvers", type=int, default=4, help="warm engines kept across substrates"
    )
    worker.add_argument(
        "--store-bytes", type=int, default=None, help="result-store budget in bytes"
    )
    worker.add_argument(
        "--heartbeat", type=float, default=2.0, help="seconds between heartbeats"
    )

    args = parser.parse_args(argv)
    auth_token = args.auth_token or os.environ.get("REPRO_AUTH_TOKEN") or None
    _apply_faults(args.faults)

    if args.role == "leader":
        from .leader import ClusterLeader

        node = ClusterLeader(
            host=args.host,
            port=args.port,
            auth_token=auth_token,
            lease_s=args.lease,
            rpc_timeout_s=args.rpc_timeout,
            persistence=args.state_dir,
            max_queue_depth=args.max_queue_depth,
        )
        what = "cluster leader"
    else:
        from ..service.result_store import ResultStore
        from .worker import ClusterWorker

        store = ResultStore(args.store_bytes) if args.store_bytes is not None else None
        node = ClusterWorker(
            leader_url=args.leader,
            host=args.host,
            port=args.port,
            advertise_host=args.advertise_host,
            worker_id=args.worker_id,
            auth_token=auth_token,
            heartbeat_s=args.heartbeat,
            max_solvers=args.max_solvers,
            store=store,
            persistence=args.state_dir,
            max_queue_depth=args.max_queue_depth,
        )
        what = f"cluster worker {node.worker_id}"

    from ..service.aserver import serve_until_stopped

    node.start()
    try:
        serve_until_stopped(f"{what} listening on {node.url} (Ctrl-C to stop)")
    finally:
        node.close()


if __name__ == "__main__":
    main()
