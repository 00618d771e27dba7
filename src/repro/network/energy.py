"""Per-node energy consumption: the first-order radio model.

The standard first-order radio model of the WSN literature (Heinzelman et
al.) prices transmitting ``k`` bits over distance ``d`` at

    E_tx(k, d) = k * (e_elec + eps_amp * d^2)

and receiving ``k`` bits at ``E_rx(k) = k * e_elec``, plus a constant
baseline (sensing, idle listening, MCU).  A node's steady-state power draw
is then fully determined by its own data-generation rate, the traffic it
relays for its subtree, and the length of its uplink.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_non_negative, check_positive

__all__ = ["RadioEnergyModel", "node_power_w"]


@dataclass(frozen=True)
class RadioEnergyModel:
    """First-order radio energy model.

    Parameters
    ----------
    e_elec_j_per_bit:
        Electronics energy per bit for both transmit and receive chains.
        Default 50 nJ/bit.
    eps_amp_j_per_bit_m2:
        Transmit amplifier energy per bit per square metre.  Default
        100 pJ/bit/m^2.
    baseline_w:
        Constant draw for sensing, idle listening and the MCU.  Default
        2 mW.
    """

    e_elec_j_per_bit: float = 50e-9
    eps_amp_j_per_bit_m2: float = 100e-12
    baseline_w: float = 2e-3

    def __post_init__(self) -> None:
        check_positive("e_elec_j_per_bit", self.e_elec_j_per_bit)
        check_non_negative("eps_amp_j_per_bit_m2", self.eps_amp_j_per_bit_m2)
        check_non_negative("baseline_w", self.baseline_w)

    def tx_energy_per_bit(self, distance_m: float) -> float:
        """Energy (J) to transmit one bit over the given distance."""
        distance_m = check_non_negative("distance_m", distance_m)
        return self.e_elec_j_per_bit + self.eps_amp_j_per_bit_m2 * distance_m**2

    def rx_energy_per_bit(self) -> float:
        """Energy (J) to receive one bit."""
        return self.e_elec_j_per_bit

    def tx_power(self, rate_bps: float, distance_m: float) -> float:
        """Steady-state transmit power (W) at the given bit rate and range."""
        rate_bps = check_non_negative("rate_bps", rate_bps)
        return rate_bps * self.tx_energy_per_bit(distance_m)

    def rx_power(self, rate_bps: float) -> float:
        """Steady-state receive power (W) at the given bit rate."""
        rate_bps = check_non_negative("rate_bps", rate_bps)
        return rate_bps * self.rx_energy_per_bit()


def node_power_w(
    model: RadioEnergyModel,
    own_rate_bps: "np.ndarray | float",
    relay_rate_bps: "np.ndarray | float",
    uplink_distance_m: "np.ndarray | float",
) -> np.ndarray:
    """Steady-state power draw of nodes, elementwise; the caller validates.

    A node receives its subtree's traffic (``relay_rate_bps``), transmits
    that plus its own over its uplink, and pays the constant baseline:
    ``baseline_w + rx_power(relay) + tx_power(own + relay, d)``, with the
    same float operations in the same order.  ``np.float_power`` squares
    through the C ``pow`` that Python's ``d ** 2`` calls (``d * d``
    differs from it in the last bit for about one double in a thousand).
    """
    relay = np.asarray(relay_rate_bps, dtype=float)
    e_elec = model.e_elec_j_per_bit
    d_squared = np.float_power(uplink_distance_m, 2)
    return (model.baseline_w + relay * e_elec) + (own_rate_bps + relay) * (
        e_elec + model.eps_amp_j_per_bit_m2 * d_squared
    )
