"""Physical constants and thermal squeeze parameters.

The thermal weight of Fock level n at temperature T is
tanh^{2n}(r_T)/cosh^2(r_T) with tanh r_T = exp(-hbar*omega / (2 k_B T)) (the
truncated weights are the oracle's, ``oracle.thermal_weights``); the same
squeeze parameter describes the state seen by a uniformly accelerated
observer at the corresponding Unruh temperature.  The module needs only
``math``; its value types are ``typing.NamedTuple``s.
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = [
    "PhysicalConstants",
    "CONSTANTS",
    "ThermalSqueeze",
    "unruh_temperature",
    "squeeze_from_temperature",
]


class PhysicalConstants(NamedTuple):
    """CODATA values; immutable."""

    hbar: float = 1.054571817e-34   # J s
    k_B: float = 1.380649e-23       # J / K
    c: float = 2.99792458e8         # m / s


CONSTANTS = PhysicalConstants()


class ThermalSqueeze(NamedTuple("ThermalSqueeze", [("r", float)])):
    """Squeeze parameter r >= 0 weighting the geometric-series phase sums;
    checked on construction."""

    __slots__ = ()

    def __new__(cls, r: float) -> ThermalSqueeze:
        if not 0.0 <= r < math.inf:
            raise ValueError(f"squeeze parameter must be finite and >= 0, got {r}")
        if math.tanh(r) >= 1.0:
            raise ValueError(f"tanh r must stay below 1, got r = {r}")
        return super().__new__(cls, r)


def unruh_temperature(accel: float) -> float:
    """Unruh temperature T_U = hbar a / (2 pi c k_B) in kelvin; linear in a."""
    if accel <= 0.0:
        raise ValueError(f"acceleration must be positive, got {accel}")
    return CONSTANTS.hbar * accel / (2.0 * math.pi * CONSTANTS.c * CONSTANTS.k_B)


def boltzmann_exponent(omega: float, temperature: float) -> float:
    """hbar*omega / (k_B T)."""
    if omega <= 0.0:
        raise ValueError(f"mode frequency must be positive, got {omega}")
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return CONSTANTS.hbar * omega / (CONSTANTS.k_B * temperature)


def squeeze_from_temperature(omega: float, temperature: float) -> ThermalSqueeze:
    """r_T with tanh r_T = exp(-hbar omega / 2 k_B T).

    arctanh(e^{-y}) is evaluated as (log1p(e^{-y}) - log(-expm1(-y)))/2, which
    keeps full precision in the high-temperature regime where e^{-y} -> 1.
    """
    y = 0.5 * boltzmann_exponent(omega, temperature)
    r = 0.5 * (math.log1p(math.exp(-y)) - math.log(-math.expm1(-y)))
    return ThermalSqueeze(r=float(r))
