"""``python -m repro campaign`` — run, inspect and clean campaigns.

Subcommands:

* ``run``    — execute a campaign (cached trials are skipped; failures
  set a non-zero exit code but never abort the rest of the run);
* ``status`` — per-trial outcomes and timings from the on-disk store;
* ``clean``  — drop a campaign's cache and log;
* ``list``   — the built-in campaign catalogue.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Any

from repro.campaign.store import DEFAULT_STORE_DIR

__all__ = ["configure_parser", "run_campaign_command"]


def _add_cache_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=DEFAULT_STORE_DIR,
        help=f"trial store location (default: {DEFAULT_STORE_DIR})",
    )


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the campaign subcommands to an argparse parser."""
    sub = parser.add_subparsers(dest="campaign_command", required=True)

    run_p = sub.add_parser(
        "run", help="run a campaign, resuming from cached trials"
    )
    run_p.add_argument(
        "name",
        help="built-in campaign name or 'module:callable' spec reference",
    )
    run_p.add_argument(
        "--serial",
        action="store_true",
        help="run trials in-process instead of the parallel executor",
    )
    run_p.add_argument(
        "--workers", type=int, default=None, help="worker processes"
    )
    run_p.add_argument(
        "--retries",
        type=int,
        default=1,
        help="max extra attempts for transient failures (default 1)",
    )
    run_p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-trial wall-time limit in seconds",
    )
    _add_cache_dir(run_p)
    run_p.add_argument(
        "--no-cache", action="store_true", help="neither read nor write the store"
    )
    run_p.add_argument(
        "--force", action="store_true", help="re-execute even cached trials"
    )
    run_p.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="run only the first N grid points",
    )
    run_p.add_argument(
        "--quiet", action="store_true", help="suppress per-trial progress lines"
    )
    run_p.set_defaults(campaign_func=_cmd_run)

    status_p = sub.add_parser(
        "status", help="summarize recorded per-trial outcomes and timings"
    )
    status_p.add_argument("name", help="campaign name")
    status_p.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the machine-readable status summary (same shape as "
        "the service's status endpoint)",
    )
    _add_cache_dir(status_p)
    status_p.set_defaults(campaign_func=_cmd_status)

    clean_p = sub.add_parser("clean", help="delete a campaign's cache and log")
    clean_p.add_argument("name", help="campaign name")
    _add_cache_dir(clean_p)
    clean_p.set_defaults(campaign_func=_cmd_clean)

    list_p = sub.add_parser("list", help="list the built-in campaigns")
    list_p.set_defaults(campaign_func=_cmd_list)


def run_campaign_command(args: argparse.Namespace) -> int:
    """Dispatch to the selected campaign subcommand."""
    return int(args.campaign_func(args))


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.campaign.executor import ParallelExecutor, SerialExecutor
    from repro.campaign.runner import run_campaign
    from repro.campaign.store import CampaignStore
    from repro.campaign.telemetry import ProgressReporter
    from repro.scenarios.trials import resolve_spec

    spec = resolve_spec(args.name)
    if args.limit is not None:
        spec = spec.limit(args.limit)
    store = None if args.no_cache else CampaignStore(args.cache_dir)
    if args.serial:
        executor: Any = SerialExecutor(max_retries=args.retries)
    else:
        executor = ParallelExecutor(
            max_workers=args.workers, max_retries=args.retries
        )
    progress = None if args.quiet else ProgressReporter(spec.trial_count)
    result = run_campaign(
        spec,
        store=store,
        executor=executor,
        timeout_s=args.timeout,
        force=args.force,
        progress=progress,
    )
    print(f"campaign {spec.name}: {result.telemetry.summary()}")
    for record in result.failed:
        print(f"  FAILED {record.trial_id}: {record.error}")
    return 1 if result.failed else 0


def _cmd_status(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.tables import format_table
    from repro.campaign.status import status_summary
    from repro.campaign.store import CampaignStore

    store = CampaignStore(args.cache_dir)
    summary = status_summary(store, args.name)
    if args.as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    if not summary["trials"]:
        print(
            f"no recorded trials for campaign {args.name!r} "
            f"under {store.root}"
        )
        return 0
    rows = [
        (
            trial["trial_id"],
            trial["outcome"],
            trial["attempts"],
            f"{trial['wall_time_s']:.2f}",
            str(trial["error"] or ""),
        )
        for trial in summary["trials"]
    ]
    print(
        format_table(
            ["trial", "outcome", "attempts", "wall_s", "error"],
            rows,
            title=f"Campaign {args.name!r} ({store.root})",
        )
    )
    counts = ", ".join(
        f"{count} {outcome}"
        for outcome, count in sorted(summary["outcome_counts"].items())
    )
    print(
        f"{summary['trial_count']} trial(s): {counts}; "
        f"{summary['total_wall_s']:.1f}s total "
        f"({summary['mean_wall_s']:.2f}s mean)"
    )
    return 0


def _cmd_clean(args: argparse.Namespace) -> int:
    from repro.campaign.store import CampaignStore

    removed = CampaignStore(args.cache_dir).clean(args.name)
    print(f"removed {removed} cached trial(s) for campaign {args.name!r}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.scenarios.trials import BUILTIN_CAMPAIGNS

    rows = []
    for name in sorted(BUILTIN_CAMPAIGNS):
        spec = BUILTIN_CAMPAIGNS[name]()
        rows.append((name, spec.trial_count, spec.description))
    print(format_table(["campaign", "trials", "description"], rows))
    return 0
