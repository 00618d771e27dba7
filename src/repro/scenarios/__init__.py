"""Declarative scenario registry.

Named, composable attack×defence scenario specifications, each
resolvable to a concrete :class:`~repro.sim.scenario.ScenarioConfig` +
controller and sweepable through the campaign machinery unchanged:

* :mod:`repro.scenarios.spec` — the frozen :class:`ScenarioSpec`
  dataclass, controller catalogue, validation and composition.
* :mod:`repro.scenarios.registry` — the named registry with the built-in
  scenarios (baseline CSA, intermittent spoofing, control-channel
  command spoofing, probabilistic on-demand arrivals).
* :mod:`repro.scenarios.trials` — the campaign trial kernel
  (``repro.scenarios.trials:scenario_trial``) and the built-in campaigns
  it runs (the paper sweeps and the EXP-13 scenario × seed matrix).

>>> from repro.scenarios import get_scenario
>>> spec = get_scenario("csa-baseline")
>>> cfg = spec.resolve_config()
>>> controller = spec.build_controller(cfg, seed=1)
"""

from repro.scenarios.registry import (
    all_specs,
    get_scenario,
    register_scenario,
    scenario_names,
    unregister_scenario,
)
from repro.scenarios.spec import (
    CONTROLLER_CATALOGUE,
    ScenarioSpec,
    build_controller,
)
from repro.scenarios.trials import scenario_matrix_spec, scenario_trial

__all__ = [
    "CONTROLLER_CATALOGUE",
    "ScenarioSpec",
    "all_specs",
    "build_controller",
    "get_scenario",
    "register_scenario",
    "scenario_matrix_spec",
    "scenario_names",
    "scenario_trial",
    "unregister_scenario",
]
