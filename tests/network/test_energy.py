"""Tests for the first-order radio energy model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.energy import RadioEnergyModel, node_power_w
from repro.network.network import build_network
from repro.network.traffic import TrafficModel, relay_loads


class TestRadioEnergyModel:
    def test_tx_energy_grows_with_distance_squared(self):
        model = RadioEnergyModel()
        amp = lambda d: model.tx_energy_per_bit(d) - model.e_elec_j_per_bit
        assert amp(20.0) == pytest.approx(4.0 * amp(10.0))

    def test_tx_includes_electronics(self):
        model = RadioEnergyModel()
        assert model.tx_energy_per_bit(0.0) == pytest.approx(model.e_elec_j_per_bit)

    def test_rx_energy_is_electronics_only(self):
        model = RadioEnergyModel()
        assert model.rx_energy_per_bit() == model.e_elec_j_per_bit

    def test_powers_scale_with_rate(self):
        model = RadioEnergyModel()
        assert model.tx_power(2000.0, 10.0) == pytest.approx(
            2.0 * model.tx_power(1000.0, 10.0)
        )
        assert model.rx_power(2000.0) == pytest.approx(2.0 * model.rx_power(1000.0))

    def test_default_magnitudes(self):
        # 10 kbps over 20 m should cost about 0.9 mW of radio power.
        model = RadioEnergyModel()
        radio_only = model.tx_power(10_000.0, 20.0)
        assert radio_only == pytest.approx(0.9e-3, rel=1e-6)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            RadioEnergyModel().tx_power(-1.0, 10.0)


class TestNodePower:
    def test_leaf_node(self):
        model = RadioEnergyModel()
        power = node_power_w(model, own_rate_bps=1000.0, relay_rate_bps=0.0,
                             uplink_distance_m=10.0)
        expected = model.baseline_w + model.tx_power(1000.0, 10.0)
        assert power == pytest.approx(expected)

    def test_relay_pays_rx_and_tx(self):
        model = RadioEnergyModel()
        power = node_power_w(model, own_rate_bps=1000.0, relay_rate_bps=5000.0,
                             uplink_distance_m=10.0)
        expected = (
            model.baseline_w
            + model.rx_power(5000.0)
            + model.tx_power(6000.0, 10.0)
        )
        assert power == pytest.approx(expected)

    def test_relay_load_strictly_increases_power(self):
        model = RadioEnergyModel()
        light = node_power_w(model, 1000.0, 0.0, 10.0)
        heavy = node_power_w(model, 1000.0, 50_000.0, 10.0)
        assert heavy > light

    def test_baseline_floor(self):
        model = RadioEnergyModel()
        assert node_power_w(model, 0.0, 0.0, 0.0) == pytest.approx(model.baseline_w)


def scalar_node_power_w(model, own_rate_bps, relay_rate_bps, uplink_distance_m):
    """The per-node draw formula as the simulator once evaluated it."""
    return (
        model.baseline_w
        + model.rx_power(relay_rate_bps)
        + model.tx_power(own_rate_bps + relay_rate_bps, uplink_distance_m)
    )


class TestArrayDraws:
    """Network draws are computed as one array; they must equal the scalar
    formula bit for bit, or every simulated trajectory would move."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        node_count=st.integers(min_value=40, max_value=150),
        dead_frac=st.floats(min_value=0.0, max_value=0.9),
        e_elec=st.floats(min_value=1e-15, max_value=1e-6),
        eps_amp=st.floats(min_value=0.0, max_value=1e-9),
        baseline=st.floats(min_value=0.0, max_value=1e-2),
    )
    @settings(max_examples=60, deadline=None)
    def test_recompute_equals_scalar_formula(
        self, seed, node_count, dead_frac, e_elec, eps_amp, baseline
    ):
        radio = RadioEnergyModel(e_elec, eps_amp, baseline)
        side = 100.0 * (node_count / 200.0) ** 0.5
        network = build_network(node_count, seed, width=side, height=side, radio=radio)
        rng = np.random.default_rng(seed)
        dead = rng.choice(node_count, size=int(dead_frac * node_count), replace=False)
        network.ledger.alive[dead] = False
        network.recompute_consumption()

        tree = network.routing_tree
        relays = relay_loads(tree, network.traffic, network.alive_ids())
        expected = np.zeros(node_count)
        for node_id in range(node_count):
            if not network.ledger.alive[node_id]:
                expected[node_id] = 0.0
            elif tree.is_connected(node_id):
                expected[node_id] = scalar_node_power_w(
                    radio,
                    network.traffic.rate(node_id),
                    relays[node_id],
                    tree.uplink_distance[node_id],
                )
            else:
                expected[node_id] = radio.baseline_w
        actual = network.ledger.consumption_w
        assert actual.tobytes() == expected.tobytes()

    def test_square_is_pythons_pow(self):
        # d * d and Python's d ** 2 (C pow) differ in the last bit for
        # about one double in a thousand.  With the amplifier term
        # dominating the per-bit cost, that bit reaches the draw.
        model = RadioEnergyModel(1e-15, 1e-9, 0.0)
        rng = np.random.default_rng(7)
        distances = rng.uniform(0.0, 30.0, 20_000)
        own = rng.uniform(1_000.0, 5_000.0, distances.size)
        relay = rng.uniform(0.0, 50_000.0, distances.size)
        actual = node_power_w(model, own, relay, distances)
        expected = [
            scalar_node_power_w(model, o, r, d)
            for o, r, d in zip(own.tolist(), relay.tolist(), distances.tolist())
        ]
        assert actual.tobytes() == np.array(expected).tobytes()

    def test_negative_draw_rejected(self):
        # Traffic models reject negative rates, so bypass their check to
        # reach the draw validation behind it.
        network = build_network(60, seed=1)
        bad = object.__new__(TrafficModel)
        object.__setattr__(bad, "rates_bps", (-1e9,) * 60)
        network.traffic = bad
        with pytest.raises(ValueError, match="consumption_w must be >= 0"):
            network.recompute_consumption()
