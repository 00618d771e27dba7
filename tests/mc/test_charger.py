"""Tests for the mobile charger and its charging hardware."""

import pytest

from repro.mc.charger import (
    ChargeMode,
    MobileCharger,
    default_charging_hardware,
)
from repro.utils.geometry import Point


@pytest.fixture(scope="module")
def hardware():
    return default_charging_hardware()


class TestChargingHardware:
    def test_genuine_rate_in_watts(self, hardware):
        assert 1.0 < hardware.genuine_rate_w < 10.0

    def test_spoof_delivers_nothing(self, hardware):
        assert hardware.spoof_rate_w == 0.0

    def test_emission_is_total_tx_power(self, hardware):
        assert hardware.emission_w == pytest.approx(24.0)

    def test_pilot_trips_for_genuine_and_spoof(self, hardware):
        assert hardware.pilot_indicates_charging(ChargeMode.GENUINE)
        assert hardware.pilot_indicates_charging(ChargeMode.SPOOF)

    def test_pilot_silent_for_pretend(self, hardware):
        assert not hardware.pilot_indicates_charging(ChargeMode.PRETEND)

    @pytest.mark.parametrize("mode", list(ChargeMode))
    def test_cached_pilot_verdict_matches_fresh_evaluation(self, mode):
        hardware = default_charging_hardware()
        fresh = hardware.pilot_rf_power_w(mode) >= hardware.presence_threshold_w
        assert hardware.pilot_indicates_charging(mode) == fresh
        # The second call is served from the cache and must agree.
        assert hardware.pilot_indicates_charging(mode) == fresh

    def test_pilot_verdict_for_single_element_array_skips_spoof(self):
        # Spoofing needs two elements; a GENUINE-only hardware must still
        # answer for GENUINE without evaluating the other modes.
        from repro.em.charger_array import ChargerArray
        from repro.mc.charger import ChargingHardware

        base = default_charging_hardware()
        single = ChargingHardware(
            array=ChargerArray.uniform_linear(
                count=1, spacing=0.06, tx_power_per_element=3.0
            ),
            rectenna=base.rectenna,
            service_distance_m=base.service_distance_m,
        )
        assert single.pilot_indicates_charging(ChargeMode.GENUINE)
        with pytest.raises(ValueError, match="at least two elements"):
            single.pilot_indicates_charging(ChargeMode.SPOOF)

    def test_delivered_rate_by_mode(self, hardware):
        assert hardware.delivered_rate_w(ChargeMode.GENUINE) > 0.0
        assert hardware.delivered_rate_w(ChargeMode.SPOOF) == 0.0
        assert hardware.delivered_rate_w(ChargeMode.PRETEND) == 0.0

    def test_emission_by_mode(self, hardware):
        assert hardware.emission_for(ChargeMode.GENUINE) == hardware.emission_w
        assert hardware.emission_for(ChargeMode.SPOOF) == hardware.emission_w
        assert hardware.emission_for(ChargeMode.PRETEND) == 0.0

    def test_service_duration_proportional(self, hardware):
        assert hardware.service_duration_for(2000.0) == pytest.approx(
            2.0 * hardware.service_duration_for(1000.0)
        )

    def test_service_duration_zero_for_zero(self, hardware):
        assert hardware.service_duration_for(0.0) == 0.0

    def test_rejects_negative_energy(self, hardware):
        with pytest.raises(ValueError):
            hardware.service_duration_for(-1.0)


class TestMobileChargerTravel:
    @pytest.fixture()
    def charger(self):
        return MobileCharger(depot=Point(0.0, 0.0), battery_capacity_j=100_000.0)

    def test_travel_time_and_energy(self, charger):
        dest = Point(30.0, 40.0)  # 50 m away
        assert charger.travel_time_to(dest) == pytest.approx(10.0)
        assert charger.travel_energy_to(dest) == pytest.approx(2500.0)

    def test_travel_updates_state(self, charger):
        dest = Point(30.0, 40.0)
        arrival = charger.travel_to(dest)
        assert arrival == pytest.approx(10.0)
        assert charger.position == dest
        assert charger.energy_j == pytest.approx(97_500.0)
        assert charger.distance_travelled_m == pytest.approx(50.0)

    def test_travel_beyond_battery_raises(self):
        charger = MobileCharger(depot=Point(0, 0), battery_capacity_j=100.0)
        with pytest.raises(RuntimeError):
            charger.travel_to(Point(100.0, 0.0))

    def test_wait_until_advances_clock_free(self, charger):
        charger.wait_until(500.0)
        assert charger.clock == 500.0
        assert charger.energy_j == charger.battery_capacity_j

    def test_wait_backwards_rejected(self, charger):
        charger.wait_until(10.0)
        with pytest.raises(ValueError):
            charger.wait_until(5.0)


class TestMobileChargerService:
    @pytest.fixture()
    def charger(self):
        return MobileCharger(depot=Point(0.0, 0.0), battery_capacity_j=500_000.0)

    def test_genuine_service_record(self, charger):
        record = charger.perform_service(7, 100.0, ChargeMode.GENUINE)
        assert record.node_id == 7
        assert record.duration == pytest.approx(100.0)
        assert record.delivered_j == pytest.approx(
            charger.hardware.genuine_rate_w * 100.0
        )
        assert record.believed_j == record.delivered_j
        assert record.claimed_j == record.delivered_j
        assert record.emission_j == pytest.approx(2400.0)

    def test_spoof_service_delivers_nothing_but_claims_all(self, charger):
        record = charger.perform_service(7, 100.0, ChargeMode.SPOOF)
        assert record.delivered_j == 0.0
        assert record.believed_j == pytest.approx(
            charger.hardware.genuine_rate_w * 100.0
        )
        assert record.claimed_j == record.believed_j
        assert record.emission_j == pytest.approx(2400.0)

    def test_pretend_service_is_free_and_fools_nobody(self, charger):
        record = charger.perform_service(7, 100.0, ChargeMode.PRETEND)
        assert record.delivered_j == 0.0
        assert record.believed_j == 0.0
        assert record.claimed_j > 0.0  # it still lies to the BS
        assert record.emission_j == 0.0

    def test_service_drains_charger(self, charger):
        before = charger.energy_j
        charger.perform_service(1, 100.0, ChargeMode.GENUINE)
        assert charger.energy_j == pytest.approx(before - 2400.0)

    def test_service_advances_clock(self, charger):
        charger.perform_service(1, 100.0, ChargeMode.GENUINE)
        assert charger.clock == pytest.approx(100.0)

    def test_services_logged(self, charger):
        charger.perform_service(1, 10.0, ChargeMode.GENUINE)
        charger.perform_service(2, 20.0, ChargeMode.SPOOF)
        assert [s.node_id for s in charger.services] == [1, 2]

    def test_service_beyond_battery_raises(self):
        charger = MobileCharger(depot=Point(0, 0), battery_capacity_j=100.0)
        with pytest.raises(RuntimeError):
            charger.perform_service(1, 1_000.0, ChargeMode.GENUINE)

    def test_can_afford(self, charger):
        assert charger.can_afford(Point(10.0, 0.0), 100.0)
        assert not charger.can_afford(Point(10.0, 0.0), 1e9)


class TestDepotRecharge:
    def test_recharge_refills_and_costs_time(self):
        charger = MobileCharger(
            depot=Point(0.0, 0.0),
            battery_capacity_j=100_000.0,
            depot_recharge_s=600.0,
        )
        charger.travel_to(Point(100.0, 0.0))
        done = charger.recharge_at_depot()
        assert charger.position == charger.depot
        assert charger.energy_j == charger.battery_capacity_j
        # 40 s return drive + 600 s refill after the 20 s outbound drive.
        assert done == pytest.approx(20.0 + 20.0 + 600.0)
