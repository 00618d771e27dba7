"""The scenario trial kernel and the built-in campaigns.

:func:`scenario_trial` is a pure campaign trial (params dict in, JSON
metrics dict out) importable by worker processes and service runners as
``repro.scenarios.trials:scenario_trial``.  It resolves a registry
scenario by name, runs one simulation with the scenario's defences
deployed, and reports *per-detector-family first-alarm times* — the raw
material for detection-latency and TPR/FPR comparisons between the
streaming digital twin and the periodic audit suite.

Every campaign in :data:`BUILTIN_CAMPAIGNS` runs through that one kernel:
EXP-13 sweeps the scenario matrix, and the paper's sweeps (EXP-03/04/07,
EXT-04) sweep ``csa-baseline`` with the twin off, one axis each.
"""

from __future__ import annotations

from dataclasses import fields, replace
from functools import partial
from typing import Any, Callable, Mapping, Sequence

from repro.campaign.spec import CampaignSpec, parameter_grid
from repro.scenarios.spec import _CONFIG_FIELDS, ScenarioSpec
from repro.sim.scenario import BENCH_CONFIG

__all__ = ["BUILTIN_CAMPAIGNS", "resolve_spec", "scenario_matrix_spec", "scenario_trial"]

_TRIAL = "repro.scenarios.trials:scenario_trial"

_SPEC_FIELDS = frozenset(f.name for f in fields(ScenarioSpec))

#: Scenario names swept by the default matrix (every built-in scenario).
DEFAULT_MATRIX = (
    "benign",
    "benign-on-demand",
    "csa-baseline",
    "csa-intermittent",
    "csa-on-demand",
    "command-spoof",
    "command-spoof-on-demand",
)


def scenario_trial(params: Mapping[str, Any]) -> dict[str, Any]:
    """One scenario run → detection-latency metrics (campaign kernel).

    ``params`` must carry ``scenario`` (a registry name) and ``seed``.
    A key naming a :class:`ScenarioSpec` field (``controller``, ``twin``,
    ``audit_interval_s``, ...) replaces that field of the scenario, which
    re-validates it.  Every other key is applied as a
    :class:`ScenarioConfig` override on top of the scenario's own (so
    campaigns can shrink ``node_count`` / ``horizon_days`` for smoke
    scales without forking the registry).
    """
    # Imported lazily so the kernel is cheap to reference by dotted name.
    from repro.mc.charger import ChargeMode
    from repro.scenarios.registry import get_scenario
    from repro.sim.runner import run_attack

    params = dict(params)
    name = params.pop("scenario")
    seed = int(params.pop("seed"))
    spec_changes = {k: params.pop(k) for k in list(params) if k in _SPEC_FIELDS}
    unknown = set(params) - _CONFIG_FIELDS
    if unknown:
        raise ValueError(
            f"unknown scenario_trial param(s) {sorted(unknown)}; "
            f"ScenarioSpec fields: {sorted(_SPEC_FIELDS)}; "
            f"ScenarioConfig fields: {sorted(_CONFIG_FIELDS)}"
        )
    spec = get_scenario(name)
    if spec_changes:
        spec = replace(spec, **spec_changes)
    cfg = spec.resolve_config(BENCH_CONFIG)
    if params:
        cfg = cfg.with_(**params)

    result = run_attack(
        cfg,
        seed,
        controller=spec.build_controller(cfg, seed),
        detectors=spec.detectors,
        audit_interval_s=spec.audit_interval_s,
        twin=spec.twin,
    )

    twin_first: float | None = None
    periodic_first: float | None = None
    for det in result.detections:
        if det.detector == "twin":
            if twin_first is None:
                twin_first = det.time
        elif periodic_first is None:
            periodic_first = det.time
    return {
        "scenario": name,
        "seed": seed,
        "controller": result.controller_name,
        "horizon_s": cfg.horizon_s,
        "ended_at": result.ended_at,
        "exhausted_key_ratio": result.exhausted_key_ratio(),
        "exhausted_key_count": len(result.exhausted_key_ids()),
        "deaths": len(result.trace.deaths()),
        "detected": result.detected,
        "twin_latency_s": twin_first,
        "periodic_latency_s": periodic_first,
        "detections": len(result.detections),
        "spoof_services": sum(s.mode == ChargeMode.SPOOF for s in result.trace.services()),
    }


def scenario_matrix_spec(
    scenarios: Sequence[str] | None = None,
    seeds: Sequence[int] = (1, 2, 3),
    **config_overrides: Any,
) -> CampaignSpec:
    """The scenario × seed sweep as a :class:`CampaignSpec`.

    Extra keyword arguments become per-trial ``ScenarioConfig``
    overrides (e.g. ``node_count=40, horizon_days=10`` for a smoke
    scale).  Scenario names are validated eagerly so a typo fails at
    spec-build time, not inside a worker process.
    """
    from repro.scenarios.registry import get_scenario

    names = tuple(scenarios) if scenarios is not None else DEFAULT_MATRIX
    for name in names:
        get_scenario(name)
    grid = parameter_grid(scenario=list(names), seed=list(seeds))
    if config_overrides:
        grid = [{**point, **config_overrides} for point in grid]
    return CampaignSpec(
        name="exp13-scenarios",
        trial=_TRIAL,
        grid=grid,
        description=(
            "EXP-13: streaming digital-twin vs periodic audits across the "
            "declarative scenario matrix (detection latency + TPR/FPR)."
        ),
    )


# ----------------------------------------------------------------------
# The paper campaigns.  ``*_ATTACKERS`` map each printed label to the
# catalogue controller it names; seed is the last axis, so the trials of
# one table cell are contiguous.
# ----------------------------------------------------------------------
EXP03_NODE_COUNTS = (50, 100, 150, 200, 250)
EXP03_ATTACKERS = {
    "CSA": "csa",
    "Greedy-Weight": "greedy-weight",
    "Nearest-First": "nearest-first",
    "Random": "random",
}
EXP03_SEEDS = (1, 2, 3)

EXP04_KEY_COUNTS = (5, 10, 15, 20, 25)
EXP04_ATTACKERS = {"CSA": "csa", "Greedy-Weight": "greedy-weight"}
EXP04_SEEDS = (1, 2, 3)

EXP07_AUDIT_INTERVALS_H = (12.0, 24.0, 48.0, 96.0)
EXP07_ATTACKERS = {"CSA": "csa", "CSA-no-windows": "csa-no-windows", "Blatant": "blatant"}
EXP07_SEEDS = (1, 2, 3, 4)

EXT04_HONEST_COUNTS = (0, 1, 2, 3)
EXT04_SEEDS = (1, 2, 3)


def _paper_spec(name: str, description: str, **axes: Sequence[Any]) -> CampaignSpec:
    """``csa-baseline`` under the periodic suite alone, swept over ``axes``."""
    return CampaignSpec(
        name=name,
        trial=_TRIAL,
        grid=parameter_grid(scenario=["csa-baseline"], twin=[False], **axes),
        description=description,
    )


#: Spec builders the CLI can run by name.
BUILTIN_CAMPAIGNS: dict[str, Callable[[], CampaignSpec]] = {
    "exp03": partial(
        _paper_spec, "exp03", "exhausted key-node ratio vs network size (headline figure)",
        node_count=EXP03_NODE_COUNTS, controller=EXP03_ATTACKERS.values(), seed=EXP03_SEEDS,
    ),
    "exp04": partial(
        _paper_spec, "exp04", "exhaustion vs number of key nodes targeted (N=150)",
        node_count=[150], key_count=EXP04_KEY_COUNTS, controller=EXP04_ATTACKERS.values(),
        seed=EXP04_SEEDS,
    ),
    "exp07": partial(
        _paper_spec, "exp07", "detection rate vs voltage-audit intensity",
        audit_interval_s=[h * 3600.0 for h in EXP07_AUDIT_INTERVALS_H],
        controller=EXP07_ATTACKERS.values(), seed=EXP07_SEEDS,
    ),
    "exp13": scenario_matrix_spec,
    "ext04": partial(
        _paper_spec, "ext04", "CSA vs honest fleet redundancy",
        honest_charger_count=EXT04_HONEST_COUNTS, seed=EXT04_SEEDS,
    ),
}


def resolve_spec(name_or_ref: str) -> CampaignSpec:
    """A CampaignSpec from a built-in name or ``module:callable`` reference.

    A reference's callable is invoked with no arguments if it is not
    already a :class:`~repro.campaign.spec.CampaignSpec`.
    """
    from importlib import import_module

    if name_or_ref in BUILTIN_CAMPAIGNS:
        return BUILTIN_CAMPAIGNS[name_or_ref]()
    module_name, sep, attr = name_or_ref.partition(":")
    if not sep or not module_name or not attr:
        known = ", ".join(sorted(BUILTIN_CAMPAIGNS))
        raise ValueError(
            f"unknown campaign {name_or_ref!r}; built-ins: {known} "
            "(or pass a 'module:callable' spec reference)"
        )
    try:
        target = getattr(import_module(module_name), attr)
    except AttributeError as exc:
        raise ValueError(
            f"module {module_name!r} has no attribute {attr!r}"
        ) from exc
    spec = target() if not isinstance(target, CampaignSpec) else target
    if not isinstance(spec, CampaignSpec):
        raise ValueError(
            f"{name_or_ref!r} did not produce a CampaignSpec "
            f"(got {type(spec).__name__})"
        )
    return spec
