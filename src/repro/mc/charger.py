"""The mobile charger entity and its charging hardware.

:class:`ChargingHardware` bridges the EM substrate and the network-level
simulation: it evaluates the antenna array + rectenna physics once per
(mode, geometry) and exposes the three numbers the simulator needs —
genuine delivered power, spoofed delivered power, and the emission power
the charger pays either way.  :class:`MobileCharger` does the bookkeeping:
position, clock, battery, travel and service costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from repro.em.charger_array import ChargerArray
from repro.em.rectenna import Rectenna
from repro.utils.geometry import Point, distance
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "ChargeMode",
    "ChargingHardware",
    "ChargingService",
    "MobileCharger",
    "default_charging_hardware",
]


class ChargeMode(Enum):
    """How the charger drives its array during a service.

    GENUINE beamforms and delivers energy.  SPOOF radiates full power but
    null-steers the victim's rectenna: nothing is delivered, yet the
    victim's presence indicator trips and it credits itself the expected
    harvest.  PRETEND does not radiate at all — the "lazy" attacker that
    merely logs a service; it saves emission energy but fools nobody whose
    telemetry is checked, and exists as the non-stealthy baseline.
    """

    GENUINE = "genuine"
    SPOOF = "spoof"
    PRETEND = "pretend"


def default_charging_hardware() -> "ChargingHardware":
    """Powercast-class defaults used across the experiments.

    A compact 8-element charging pad (6 cm element pitch, 3 W per element)
    parked 0.1 m from the victim, charging a watt-class harvesting
    rectenna: genuine beamformed delivery lands in the watts (a full
    recharge takes roughly an hour), while a spoofed service delivers
    nothing.
    """
    array = ChargerArray.uniform_linear(count=8, spacing=0.06, tx_power_per_element=3.0)
    rectenna = Rectenna(
        sensitivity_w=80e-6,
        peak_efficiency=0.55,
        knee_power_w=0.05,
        saturation_w=5.0,
    )
    return ChargingHardware(array=array, rectenna=rectenna, service_distance_m=0.1)


@dataclass(frozen=True)
class ChargingHardware:
    """Antenna array + victim rectenna + parking geometry.

    The charger always parks ``service_distance_m`` from the node it
    serves, so delivered powers are constants of the hardware and can be
    evaluated once (cached) rather than per event.

    Attributes
    ----------
    presence_threshold_w:
        RF power at the victim's pilot antenna above which its
        charging-presence indicator trips.  Presence detectors are far
        more sensitive than harvesters (default 1 µW ≈ -30 dBm).
    """

    array: ChargerArray
    rectenna: Rectenna
    service_distance_m: float = 0.3
    presence_threshold_w: float = 1e-6

    def __post_init__(self) -> None:
        check_positive("service_distance_m", self.service_distance_m)
        check_positive("presence_threshold_w", self.presence_threshold_w)

    def _geometry(self) -> tuple[Point, Point]:
        charger = Point(0.0, 0.0)
        victim = Point(self.service_distance_m, 0.0)
        return charger, victim

    @cached_property
    def genuine_rate_w(self) -> float:
        """DC power delivered by a beamformed (honest) service."""
        charger, victim = self._geometry()
        return self.array.delivered_power("beamform", charger, victim, self.rectenna)

    @cached_property
    def spoof_rate_w(self) -> float:
        """DC power delivered by a spoofed (null-steered) service: ~0."""
        charger, victim = self._geometry()
        return self.array.delivered_power("spoof", charger, victim, self.rectenna)

    @cached_property
    def emission_w(self) -> float:
        """RF power the charger radiates during any service."""
        return self.array.total_tx_power

    @cached_property
    def _pilot_verdicts(self) -> dict[ChargeMode, bool]:
        return {}  # mode -> presence verdict, filled on first use

    def pilot_indicates_charging(self, mode: ChargeMode) -> bool:
        """Whether the victim's presence indicator trips in the given mode.

        This is the deception at the heart of the attack: it must return
        True for GENUINE *and* SPOOF, or the node would notice the spoof.
        PRETEND radiates nothing, so the indicator stays silent.  The
        verdict depends only on the mode and the fixed service geometry, so
        it is evaluated once per mode.
        """
        verdicts = self._pilot_verdicts
        if mode not in verdicts:
            verdicts[mode] = self.pilot_rf_power_w(mode) >= self.presence_threshold_w
        return verdicts[mode]

    def pilot_rf_power_w(self, mode: ChargeMode) -> float:
        """RF power at the victim's pilot antenna in the given mode."""
        if mode == ChargeMode.PRETEND:
            return 0.0
        charger, victim = self._geometry()
        phase_mode = "beamform" if mode == ChargeMode.GENUINE else "spoof"
        return self.array.pilot_power(phase_mode, charger, victim)

    def delivered_rate_w(self, mode: ChargeMode) -> float:
        """DC power delivered in the given mode."""
        if mode == ChargeMode.GENUINE:
            return self.genuine_rate_w
        if mode == ChargeMode.SPOOF:
            return self.spoof_rate_w
        return 0.0

    def emission_for(self, mode: ChargeMode) -> float:
        """RF power the charger radiates in the given mode."""
        if mode == ChargeMode.PRETEND:
            return 0.0
        return self.emission_w

    def service_duration_for(self, energy_needed_j: float) -> float:
        """How long a *genuine* service takes to deliver the given energy.

        A spoofed service must park for this same duration to look
        legitimate.
        """
        energy_needed_j = check_non_negative("energy_needed_j", energy_needed_j)
        if self.genuine_rate_w <= 0.0:
            raise RuntimeError(
                "charging hardware delivers no power; check array/rectenna"
            )
        return energy_needed_j / self.genuine_rate_w


@dataclass(frozen=True)
class ChargingService:
    """Record of one completed (or spoofed) charging service.

    ``delivered_j`` is what the victim's battery actually gained,
    ``believed_j`` what the victim credited itself, and ``claimed_j`` what
    the charger reported to the base station — always the full genuine
    harvest, because a malicious charger lies.
    """

    node_id: int
    start_time: float
    end_time: float
    mode: ChargeMode
    delivered_j: float
    believed_j: float
    claimed_j: float
    emission_j: float

    @property
    def duration(self) -> float:
        """Service duration in seconds."""
        return self.end_time - self.start_time


class MobileCharger:
    """The mobile charger: battery, position, clock, cost accounting.

    Parameters
    ----------
    depot:
        Home position; the charger starts here and returns to recharge.
    battery_capacity_j:
        On-board energy for locomotion and RF emission.  Default 2 MJ.
    speed_m_s:
        Travel speed.  Default 5 m/s.
    travel_cost_j_per_m:
        Locomotion energy per metre.  Default 50 J/m.
    hardware:
        Charging front end; defaults to :func:`default_charging_hardware`.
    depot_recharge_s:
        Time to refill the charger's own battery at the depot.
    """

    def __init__(
        self,
        depot: Point,
        battery_capacity_j: float = 2_000_000.0,
        speed_m_s: float = 5.0,
        travel_cost_j_per_m: float = 50.0,
        hardware: ChargingHardware | None = None,
        depot_recharge_s: float = 1_800.0,
    ) -> None:
        self.depot = depot
        self.battery_capacity_j = check_positive(
            "battery_capacity_j", battery_capacity_j
        )
        self.speed_m_s = check_positive("speed_m_s", speed_m_s)
        self.travel_cost_j_per_m = check_non_negative(
            "travel_cost_j_per_m", travel_cost_j_per_m
        )
        self.depot_recharge_s = check_non_negative(
            "depot_recharge_s", depot_recharge_s
        )
        self.hardware = hardware or default_charging_hardware()

        self.position = depot
        self.energy_j = self.battery_capacity_j
        self.clock = 0.0
        self.distance_travelled_m = 0.0
        self.services: list[ChargingService] = []

    # ------------------------------------------------------------------
    # Cost queries (no state change)
    # ------------------------------------------------------------------
    def travel_time_to(self, destination: Point) -> float:
        """Seconds to reach ``destination`` from the current position."""
        return distance(self.position, destination) / self.speed_m_s

    def travel_energy_to(self, destination: Point) -> float:
        """Locomotion energy (J) to reach ``destination``."""
        return distance(self.position, destination) * self.travel_cost_j_per_m

    def service_energy(self, duration_s: float) -> float:
        """Emission energy (J) for a service of the given duration."""
        check_non_negative("duration_s", duration_s)
        return self.hardware.emission_w * duration_s

    def can_afford(self, destination: Point, service_duration_s: float) -> bool:
        """Whether battery covers travelling there plus the full service."""
        needed = self.travel_energy_to(destination) + self.service_energy(
            service_duration_s
        )
        return self.energy_j >= needed

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------
    def travel_to(self, destination: Point) -> float:
        """Drive to ``destination``; returns arrival time.

        Raises ``RuntimeError`` if the battery cannot cover the trip —
        callers are expected to check :meth:`can_afford` / plan within
        budget, so running dry mid-drive is a logic error.
        """
        cost = self.travel_energy_to(destination)
        if cost > self.energy_j + 1e-9:
            raise RuntimeError(
                f"mobile charger battery too low to travel: need {cost:.0f} J, "
                f"have {self.energy_j:.0f} J"
            )
        duration = self.travel_time_to(destination)
        self.distance_travelled_m += distance(self.position, destination)
        self.energy_j = max(0.0, self.energy_j - cost)
        self.position = destination
        self.clock += duration
        return self.clock

    def wait_until(self, time: float) -> None:
        """Idle in place until the given time (no energy cost)."""
        if time < self.clock - 1e-9:
            raise ValueError(
                f"cannot wait until {time}; charger clock already at {self.clock}"
            )
        self.clock = max(self.clock, time)

    def perform_service(
        self,
        node_id: int,
        duration_s: float,
        mode: ChargeMode,
        claimed_duration_s: float | None = None,
    ) -> ChargingService:
        """Radiate at the current position for ``duration_s`` seconds.

        Returns the service record with delivered and believed energies.
        The believed energy is what the victim credits itself — the full
        genuine-rate harvest for the duration under GENUINE and SPOOF,
        because its presence indicator cannot tell those apart; zero under
        PRETEND, where the indicator never trips.

        ``claimed_duration_s`` lets a command-spoofing charger log a
        different (longer) session than it actually ran: the claim sent to
        the base station covers the claimed duration at genuine rate, while
        delivery, belief and emission cover only the real one.  ``None``
        claims the real duration (the honest default).
        """
        check_non_negative("duration_s", duration_s)
        if claimed_duration_s is None:
            claimed_duration_s = duration_s
        else:
            check_non_negative("claimed_duration_s", claimed_duration_s)
        emission = self.hardware.emission_for(mode) * duration_s
        if emission > self.energy_j + 1e-9:
            raise RuntimeError(
                f"mobile charger battery too low to serve: need {emission:.0f} J, "
                f"have {self.energy_j:.0f} J"
            )
        start = self.clock
        self.energy_j = max(0.0, self.energy_j - emission)
        self.clock += duration_s
        delivered = self.hardware.delivered_rate_w(mode) * duration_s
        if self.hardware.pilot_indicates_charging(mode):
            believed = self.hardware.genuine_rate_w * duration_s
        else:
            believed = 0.0
        record = ChargingService(
            node_id=node_id,
            start_time=start,
            end_time=self.clock,
            mode=mode,
            delivered_j=delivered,
            believed_j=believed,
            claimed_j=self.hardware.genuine_rate_w * claimed_duration_s,
            emission_j=emission,
        )
        self.services.append(record)
        return record

    def recharge_at_depot(self) -> float:
        """Drive home, refill the battery; returns the time refill completes."""
        self.travel_to(self.depot)
        self.clock += self.depot_recharge_s
        self.energy_j = self.battery_capacity_j
        return self.clock

    def __repr__(self) -> str:
        return (
            f"MobileCharger(pos=({self.position.x:.1f}, {self.position.y:.1f}), "
            f"energy={self.energy_j:.0f}J, t={self.clock:.0f}s)"
        )
