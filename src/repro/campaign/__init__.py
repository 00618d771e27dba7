"""Campaign runner: parallel, cached, crash-isolated experiment sweeps.

The subsystem splits into four layers:

* :mod:`repro.campaign.spec` — declarative :class:`CampaignSpec` grids
  with content-addressed trial cache keys;
* :mod:`repro.campaign.executor` — the crash-isolated process-pool
  executor (per-trial timeout, bounded transient retry) and the serial
  debugging fallback;
* :mod:`repro.campaign.store` — the on-disk trial cache and JSONL
  artifact log enabling delta resume;
* :mod:`repro.campaign.runner` / :mod:`repro.campaign.telemetry` — the
  orchestration entry point and its counters/progress reporting.

:mod:`repro.scenarios.trials` defines the built-in campaigns behind
``python -m repro campaign`` and the migrated benchmark scripts.  See
``docs/campaigns.md`` for the full story.
"""

from repro.campaign.executor import (
    ParallelExecutor,
    SerialExecutor,
    TransientTrialError,
    TrialTask,
)
from repro.campaign.runner import CampaignResult, TrialRecord, run_campaign
from repro.campaign.spec import CampaignSpec, Trial, parameter_grid
from repro.campaign.status import latest_outcomes, status_summary
from repro.campaign.store import CampaignStore
from repro.campaign.telemetry import CampaignTelemetry, ProgressReporter

__all__ = [
    "CampaignResult",
    "CampaignSpec",
    "CampaignStore",
    "CampaignTelemetry",
    "ParallelExecutor",
    "ProgressReporter",
    "SerialExecutor",
    "TransientTrialError",
    "Trial",
    "TrialRecord",
    "TrialTask",
    "latest_outcomes",
    "parameter_grid",
    "run_campaign",
    "status_summary",
]
