"""EXP-13 — streaming digital twin vs periodic audits.

The detection experiment the periodic-audit sweeps (EXP-07) cannot ask:
not *whether* the defender eventually notices, but *how long* the
attacker owns the network first.  Runs the declarative scenario matrix
(benign references, baseline CSA, intermittent spoofing, control-channel
command spoofing, probabilistic on-demand arrivals) with both defences
deployed side by side, and compares per-family first-alarm latencies
with explicit right-censoring at the horizon (never-detected runs count
at the horizon, not as zero — see ``repro.detection.metrics``).

The headline gate: at equal (zero) false-positive rate on the benign
references, the twin's median detection latency on baseline CSA beats
the periodic suite's.  The twin must also catch the command-spoofing
attacker, whose per-session telemetry shortfall is sized to slip under
the trajectory detector's tolerance.

Smoke scale for CI: ``REPRO_BENCH_EXP13_SMOKE=1`` shrinks the network
and seed count (the gates still hold there).
"""

import dataclasses
import os

from _common import campaign_executor, emit, emit_json

from repro.analysis.tables import series_table
from repro.campaign import run_campaign
from repro.detection.metrics import summarize_latencies
from repro.scenarios import scenario_matrix_spec
from repro.scenarios.trials import DEFAULT_MATRIX

SMOKE = bool(os.environ.get("REPRO_BENCH_EXP13_SMOKE"))
SCENARIOS = DEFAULT_MATRIX
SEEDS = (1, 2) if SMOKE else (1, 2, 3, 4, 5)
#: Config overrides applied on top of each scenario (empty = BENCH_CONFIG).
SCALE = (
    {"node_count": 60, "key_count": 6, "horizon_days": 40.0} if SMOKE else {}
)
BENIGN_SCENARIOS = ("benign", "benign-on-demand")


def run_experiment():
    spec = scenario_matrix_spec(SCENARIOS, seeds=SEEDS, **SCALE)
    result = run_campaign(spec, executor=campaign_executor())
    rows = {}
    for name in SCENARIOS:
        horizon = result.values("horizon_s", scenario=name)[0]
        rows[name] = {
            "horizon_s": horizon,
            "twin": result.values("twin_latency_s", scenario=name),
            "periodic": result.values("periodic_latency_s", scenario=name),
            "exhausted": result.values("exhausted_key_ratio", scenario=name),
        }
    return rows


def bench_exp13_streaming(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    summaries = {}
    for name, row in rows.items():
        summaries[name] = {
            "twin": summarize_latencies(row["twin"], censored_at_s=row["horizon_s"]),
            "periodic": summarize_latencies(
                row["periodic"], censored_at_s=row["horizon_s"]
            ),
        }

    def fmt_latency(summary):
        med = summary.median_censored_latency_s
        mark = "" if summary.censored == 0 else f" ({summary.censored}cens)"
        return f"{med / 3600:.1f}h{mark}"

    table = series_table(
        "scenario",
        list(SCENARIOS),
        {
            "twin_rate": [
                f"{summaries[n]['twin'].rate:.2f}" for n in SCENARIOS
            ],
            "periodic_rate": [
                f"{summaries[n]['periodic'].rate:.2f}" for n in SCENARIOS
            ],
            "twin_med": [fmt_latency(summaries[n]["twin"]) for n in SCENARIOS],
            "periodic_med": [
                fmt_latency(summaries[n]["periodic"]) for n in SCENARIOS
            ],
            "exhausted": [
                f"{sum(rows[n]['exhausted']) / len(rows[n]['exhausted']):.2f}"
                for n in SCENARIOS
            ],
        },
        title=(
            "EXP-13: streaming twin vs periodic audits "
            f"({len(SEEDS)} seeds per scenario"
            + (", smoke scale)" if SMOKE else ")")
        ),
    )
    emit("exp13_streaming", table)
    emit_json(
        "exp13_streaming",
        {
            "smoke": SMOKE,
            "seeds": list(SEEDS),
            "scale_overrides": SCALE,
            "scenarios": {
                name: {
                    "horizon_s": rows[name]["horizon_s"],
                    "twin_latencies_s": rows[name]["twin"],
                    "periodic_latencies_s": rows[name]["periodic"],
                    "exhausted_key_ratio": rows[name]["exhausted"],
                    "twin": dataclasses.asdict(summaries[name]["twin"]),
                    "periodic": dataclasses.asdict(summaries[name]["periodic"]),
                }
                for name in SCENARIOS
            },
        },
    )

    # Equal false-positive rate: neither family ever fires on the benign
    # references (deterministic or probabilistic arrivals).
    for name in BENIGN_SCENARIOS:
        assert summaries[name]["twin"].detected == 0, name
        assert summaries[name]["periodic"].detected == 0, name

    # The headline gate: on baseline CSA the twin catches every run and
    # its median latency beats the periodic suite's (censored medians,
    # so never-detected periodic runs count at the horizon, not as wins).
    csa_twin = summaries["csa-baseline"]["twin"]
    csa_periodic = summaries["csa-baseline"]["periodic"]
    assert csa_twin.rate == 1.0
    assert (
        csa_twin.median_censored_latency_s
        < csa_periodic.median_censored_latency_s
    )

    # The control-channel attacker is invisible per-session (shortfall
    # under the trajectory tolerance) but the twin's CUSUM accumulates it.
    assert summaries["command-spoof"]["twin"].rate == 1.0

    # Stealth did not blunt the attack the twin is catching.
    csa_exhaustion = rows["csa-baseline"]["exhausted"]
    assert sum(csa_exhaustion) / len(csa_exhaustion) >= 0.7
