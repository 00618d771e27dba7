"""Tests for scenario configuration."""

import dataclasses

import pytest

from repro.sim.scenario import ScenarioConfig


class TestDefaults:
    def test_horizon_conversion(self):
        cfg = ScenarioConfig(horizon_days=10.0)
        assert cfg.horizon_s == pytest.approx(864_000.0)

    def test_depot_at_centre(self):
        cfg = ScenarioConfig(field_width_m=80.0, field_height_m=40.0)
        assert cfg.depot.x == pytest.approx(40.0)
        assert cfg.depot.y == pytest.approx(20.0)

    def test_with_replaces_fields(self):
        cfg = ScenarioConfig().with_(node_count=99)
        assert cfg.node_count == 99
        assert cfg.comm_range_m == ScenarioConfig().comm_range_m

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ScenarioConfig().node_count = 5  # type: ignore[misc]


class TestValidation:
    def test_more_key_nodes_than_nodes_rejected(self):
        # Such a config used to run to the horizon and report an
        # exhausted-key ratio of 0.0 without complaint.
        with pytest.raises(
            ValueError, match=r"^key_count \(50\) must not exceed node_count \(20\)$"
        ):
            ScenarioConfig(
                node_count=20, key_count=50, field_width_m=40.0, field_height_m=40.0
            )

    def test_with_rechecks_key_count(self):
        with pytest.raises(ValueError, match="must not exceed node_count"):
            ScenarioConfig(node_count=20, key_count=10).with_(node_count=5)

    def test_every_node_a_key_node_allowed(self):
        assert ScenarioConfig(node_count=20, key_count=20).key_count == 20


class TestFactories:
    def test_build_network_matches_config(self):
        cfg = ScenarioConfig(node_count=60, battery_capacity_j=5000.0)
        net = cfg.build_network(seed=4)
        assert len(net.nodes) == 60
        assert all(
            n.battery_capacity_j == 5000.0 for n in net.nodes.values()
        )

    def test_build_network_seed_reproducible(self):
        cfg = ScenarioConfig(node_count=60)
        a = cfg.build_network(seed=4)
        b = cfg.build_network(seed=4)
        assert [n.position for n in a.nodes.values()] == [
            n.position for n in b.nodes.values()
        ]

    def test_clustered_deployment(self):
        cfg = ScenarioConfig(node_count=80, clustered=True, comm_range_m=25.0)
        net = cfg.build_network(seed=6)
        assert len(net.nodes) == 80

    def test_build_charger(self):
        cfg = ScenarioConfig(mc_battery_j=123_456.0)
        charger = cfg.build_charger()
        assert charger.battery_capacity_j == 123_456.0
        assert charger.position == cfg.depot

    def test_parameter_rows_cover_key_knobs(self):
        rows = dict(ScenarioConfig().parameter_rows())
        assert "Number of nodes" in rows
        assert "MC battery capacity" in rows
        assert rows["Key nodes targeted"] == "15"
