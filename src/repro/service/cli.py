"""``python -m repro service`` — deploy and drive the campaign service.

Subcommands:

* ``serve``  — run the HTTP control plane over a service data directory;
* ``worker`` — run a fleet of leasing worker processes against the same
  data directory (workers talk to the queue directly, not over HTTP);
* ``submit`` — submit a campaign spec to a running server, optionally
  waiting for completion with progress lines;
* ``status`` / ``cancel`` / ``usage`` — poke a running server.

A deployment is one data directory shared by the server and every
worker: ``<data-dir>/queue.sqlite3`` (the job queue) and
``<data-dir>/store/`` (the shared :class:`CampaignStore`).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

__all__ = ["configure_parser", "run_service_command", "service_paths"]

#: Default service data directory, relative to the working directory.
DEFAULT_DATA_DIR = Path(".repro_service")


def service_paths(data_dir: str | Path) -> tuple[Path, Path]:
    """The (queue database, campaign store root) pair for a data dir."""
    root = Path(data_dir)
    return root / "queue.sqlite3", root / "store"


def _add_data_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--data-dir",
        type=Path,
        default=DEFAULT_DATA_DIR,
        help=f"service data directory (default: {DEFAULT_DATA_DIR})",
    )


def _add_url(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--url",
        default="http://127.0.0.1:8642",
        help="base URL of a running service (default: %(default)s)",
    )


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the service subcommands to an argparse parser."""
    sub = parser.add_subparsers(dest="service_command", required=True)

    serve_p = sub.add_parser("serve", help="run the HTTP control plane")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8642)
    _add_data_dir(serve_p)
    serve_p.set_defaults(service_func=_cmd_serve)

    worker_p = sub.add_parser(
        "worker", help="run leasing worker processes against the queue"
    )
    _add_data_dir(worker_p)
    worker_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: REPRO_JOBS or CPU count)",
    )
    worker_p.add_argument(
        "--batch", type=int, default=1, help="jobs leased per round trip"
    )
    worker_p.add_argument(
        "--ttl", type=float, default=30.0, metavar="S",
        help="lease TTL in seconds (default 30)",
    )
    worker_p.add_argument(
        "--poll", type=float, default=0.2, metavar="S",
        help="idle poll interval in seconds (default 0.2)",
    )
    worker_p.add_argument(
        "--max-idle", type=float, default=None, metavar="S",
        help="exit after S seconds with nothing to lease (default: run forever)",
    )
    worker_p.set_defaults(service_func=_cmd_worker)

    submit_p = sub.add_parser(
        "submit", help="submit a campaign spec to a running server"
    )
    submit_p.add_argument(
        "name",
        help="built-in campaign name or 'module:callable' spec reference",
    )
    _add_url(submit_p)
    submit_p.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-trial wall-time limit in seconds",
    )
    submit_p.add_argument(
        "--wait", action="store_true",
        help="stream progress until the campaign finishes",
    )
    submit_p.set_defaults(service_func=_cmd_submit)

    status_p = sub.add_parser("status", help="campaign status from a server")
    status_p.add_argument("name", help="campaign name")
    _add_url(status_p)
    status_p.set_defaults(service_func=_cmd_status)

    cancel_p = sub.add_parser("cancel", help="cancel a campaign on a server")
    cancel_p.add_argument("name", help="campaign name")
    _add_url(cancel_p)
    cancel_p.set_defaults(service_func=_cmd_cancel)

    usage_p = sub.add_parser(
        "usage", help="per-campaign compute-accounting ledger"
    )
    usage_p.add_argument("name", help="campaign name")
    _add_url(usage_p)
    usage_p.set_defaults(service_func=_cmd_usage)


def run_service_command(args: argparse.Namespace) -> int:
    """Dispatch to the selected service subcommand."""
    return int(args.service_func(args))


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve_forever

    db_path, store_root = service_paths(args.data_dir)
    print(
        f"campaign service on http://{args.host}:{args.port} "
        f"(data: {args.data_dir})",
        flush=True,
    )
    try:
        serve_forever(args.host, args.port, db_path, store_root)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.campaign.executor import resolve_worker_count
    from repro.service.worker import ServiceWorker, run_worker_fleet

    db_path, store_root = service_paths(args.data_dir)
    count = resolve_worker_count(args.jobs)
    kwargs = {
        "batch_size": args.batch,
        "lease_ttl_s": args.ttl,
        "poll_interval_s": args.poll,
        "max_idle_s": args.max_idle,
    }
    print(f"starting {count} worker(s) against {db_path}", flush=True)
    if count == 1:
        worker = ServiceWorker(db_path, store_root, **kwargs)
        worker.install_signal_handlers()
        worker.run()
        return 0
    fleet = run_worker_fleet(count, db_path, store_root, **kwargs)
    exit_code = 0
    try:
        for process in fleet:
            process.join()
            exit_code = exit_code or (process.exitcode or 0)
    except KeyboardInterrupt:
        for process in fleet:
            process.terminate()
        for process in fleet:
            process.join()
    return exit_code


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.campaign.telemetry import ProgressReporter
    from repro.scenarios.trials import resolve_spec
    from repro.service.client import ServiceClient

    spec = resolve_spec(args.name)
    client = ServiceClient(args.url)
    status = client.submit(spec, timeout_s=args.timeout)
    print(json.dumps(status, indent=2, sort_keys=True))
    if not args.wait:
        return 0
    reporter = ProgressReporter(spec.trial_count)
    final = client.wait(spec.name, progress=reporter)
    counts = final["job_counts"]
    print(f"campaign {spec.name}: {json.dumps(counts, sort_keys=True)}")
    return 0 if counts["failed"] == 0 and counts["quarantined"] == 0 else 1


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    print(
        json.dumps(
            ServiceClient(args.url).status(args.name), indent=2, sort_keys=True
        )
    )
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    status = ServiceClient(args.url).cancel(args.name)
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0


def _cmd_usage(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    print(
        json.dumps(
            ServiceClient(args.url).usage(args.name), indent=2, sort_keys=True
        )
    )
    return 0
