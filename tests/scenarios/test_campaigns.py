"""Tests for the built-in campaigns and the kernel they share.

Every built-in campaign runs through ``scenario_trial``.  The paper
sweeps name their attackers by catalogue entry and their fleets by
``ScenarioConfig.honest_charger_count``; the equivalence tests below pin
both to the hand-wired simulations they replace.
"""

import pytest

from repro.attack.attacker import CsaAttacker, PlannedAttacker
from repro.campaign.spec import CampaignSpec
from repro.core.baselines import GreedyWeightPlanner, NearestFirstPlanner, RandomPlanner
from repro.core.windows import StealthPolicy
from repro.detection.auditors import default_detector_suite
from repro.mc.charger import ChargeMode
from repro.scenarios.trials import BUILTIN_CAMPAIGNS, resolve_spec, scenario_trial
from repro.sim.benign import BenignController
from repro.sim.runner import run_attack
from repro.sim.scenario import BENCH_CONFIG, ScenarioConfig
from repro.sim.wrsn_sim import WrsnSimulation


class TestGridShapes:
    def test_exp03_grid(self):
        spec = resolve_spec("exp03")
        assert spec.trial_count == 60  # 5 sizes x 4 attackers x 3 seeds
        assert spec.grid[0] == {
            "scenario": "csa-baseline",
            "twin": False,
            "node_count": 50,
            "controller": "csa",
            "seed": 1,
        }
        # Seeds vary fastest, so one (size, attacker) cell is contiguous.
        assert [p["seed"] for p in spec.grid[:3]] == [1, 2, 3]

    def test_exp04_grid(self):
        assert resolve_spec("exp04").trial_count == 30  # 5 key counts x 2 attackers x 3 seeds

    def test_exp07_grid(self):
        spec = resolve_spec("exp07")
        assert spec.trial_count == 48  # 4 intervals x 3 attackers x 4 seeds
        controllers = {p["controller"] for p in spec.grid}
        assert controllers == {"csa", "csa-no-windows", "blatant"}

    def test_exp13_grid(self):
        assert resolve_spec("exp13").trial_count == 21  # 7 scenarios x 3 seeds

    def test_ext04_grid(self):
        spec = resolve_spec("ext04")
        assert spec.trial_count == 12  # 4 honest counts x 3 seeds
        assert {p["honest_charger_count"] for p in spec.grid} == {0, 1, 2, 3}

    def test_all_builtins_resolve_their_kernels(self):
        for builder in BUILTIN_CAMPAIGNS.values():
            spec = builder()
            assert spec.trial == "repro.scenarios.trials:scenario_trial"
            assert callable(spec.resolve_trial())
            assert spec.description


class TestResolveSpec:
    def test_builtin_name(self):
        assert resolve_spec("exp03").name == "exp03"

    def test_module_reference(self):
        spec = resolve_spec("tests.campaign.trials:tiny_spec")
        assert isinstance(spec, CampaignSpec)
        assert spec.name == "tiny"

    def test_unknown_name_lists_builtins(self):
        with pytest.raises(ValueError, match="exp03"):
            resolve_spec("definitely-not-a-campaign")

    def test_reference_must_produce_a_spec(self):
        with pytest.raises(ValueError, match="did not produce a CampaignSpec"):
            resolve_spec("tests.campaign.trials:not_a_spec")


class TestTrialKernels:
    def test_exp03_trial_smoke(self):
        # One real (small) simulation through the kernel: the headline
        # scenario at its smallest size must exhaust key nodes undetected.
        metrics = scenario_trial(
            {"scenario": "csa-baseline", "twin": False, "node_count": 50,
             "controller": "csa", "seed": 1}
        )
        assert metrics["exhausted_key_ratio"] >= 0.8
        assert metrics["exhausted_key_count"] >= 8
        assert metrics["detected"] is False

    def test_exp03_trial_unknown_attacker_rejected(self):
        with pytest.raises(ValueError, match="unknown controller 'mystery'"):
            scenario_trial(
                {"scenario": "csa-baseline", "node_count": 50,
                 "controller": "mystery", "seed": 1}
            )

    def test_unknown_param_names_both_field_sets(self):
        with pytest.raises(
            ValueError,
            match=r"unknown scenario_trial param\(s\) \['attacker'\]; "
            r"ScenarioSpec fields: \[.*'controller'.*\]; "
            r"ScenarioConfig fields: \[.*'node_count'.*\]",
        ):
            scenario_trial({"scenario": "csa-baseline", "attacker": "CSA", "seed": 1})

    def test_negative_honest_charger_count_rejected(self):
        message = "honest_charger_count must be >= 0, got -1"
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(honest_charger_count=-1)
        with pytest.raises(ValueError, match=message):
            scenario_trial(
                {"scenario": "csa-baseline", "honest_charger_count": -1, "seed": 1}
            )


#: Small and short, with batteries starting just above the request
#: threshold so the attackers spoof and kill within the horizon.
SMALL = dict(node_count=40, horizon_days=5.0, initial_energy_frac=0.21)
SEED = 1

#: The ``PlannedAttacker`` arguments each new catalogue entry stands for.
HAND_WIRED = {
    "csa-no-windows": lambda: dict(stealth=StealthPolicy.none()),
    "greedy-weight": lambda: dict(planner=GreedyWeightPlanner()),
    "nearest-first": lambda: dict(planner=NearestFirstPlanner()),
    "random": lambda: dict(planner=RandomPlanner(0)),
}


def _metrics(result):
    """The result-derived metrics ``scenario_trial`` reports."""
    return {
        "controller": result.controller_name,
        "ended_at": result.ended_at,
        "exhausted_key_ratio": result.exhausted_key_ratio(),
        "exhausted_key_count": len(result.exhausted_key_ids()),
        "deaths": len(result.trace.deaths()),
        "detected": result.detected,
        "detections": len(result.detections),
        "spoof_services": sum(
            1 for s in result.trace.services() if s.mode == ChargeMode.SPOOF
        ),
    }


def _kernel(**params):
    return scenario_trial(
        {"scenario": "csa-baseline", "twin": False, "seed": SEED, **SMALL, **params}
    )


class TestEquivalence:
    """Each catalogue attacker and the fleet match their hand-wired runs."""

    @pytest.mark.parametrize("controller", sorted(HAND_WIRED))
    def test_catalogue_attacker_matches_hand_wired(self, controller):
        cfg = BENCH_CONFIG.with_(**SMALL)
        hand_wired = PlannedAttacker(key_count=cfg.key_count, **HAND_WIRED[controller]())
        reference = _metrics(run_attack(cfg, SEED, controller=hand_wired))
        out = _kernel(controller=controller)
        assert {key: out[key] for key in reference} == reference

    def test_honest_fleet_matches_hand_wired(self):
        cfg = BENCH_CONFIG.with_(**SMALL)
        sim = WrsnSimulation(
            cfg.build_network(seed=SEED),
            cfg.build_charger(),
            CsaAttacker(key_count=cfg.key_count),
            detectors=default_detector_suite(SEED),
            horizon_s=cfg.horizon_s,
            extra_units=[(cfg.build_charger(), BenignController())],
        )
        reference = _metrics(sim.run())
        out = _kernel(honest_charger_count=1)
        assert {key: out[key] for key in reference} == reference
        # The honest charger really joins: it changes the outcome.
        assert out != _kernel(honest_charger_count=0)
