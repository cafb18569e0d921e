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
    """hbar*omega / (k_B T); refused by name below about 1.8e-301 K, where k_B T is 0."""
    if omega <= 0.0:
        raise ValueError(f"mode frequency must be positive, got {omega}")
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    k_t = CONSTANTS.k_B * temperature
    if k_t == 0.0:
        raise ValueError(f"temperature {temperature:.6g} K too low at mode frequency "
                         f"{omega:.6g} rad/s: k_B T underflows to 0")
    return CONSTANTS.hbar * omega / k_t


def arctanh_exp(y: float) -> float:
    """arctanh(e^{-y}) for y >= 0, within 3e-16 relative of a 50-digit value
    over y in [1e-30, 700]: atanh(x) while x = e^{-y} < 1/2, and above it
    (log1p(x) - log(-expm1(-y)))/2, which keeps the digits of 1 - x that
    atanh(x) loses as x -> 1.  The second form alone fails the other way: once
    y >~ 37, -expm1(-y) rounds to 1 and it gives x/2 for x.  inf at y = 0."""
    x = math.exp(-y)
    if x < 0.5:
        return math.atanh(x)
    if y == 0.0:
        return math.inf
    return 0.5 * (math.log1p(x) - math.log(-math.expm1(-y)))


def squeeze_from_temperature(omega: float, temperature: float) -> ThermalSqueeze:
    """r_T with tanh r_T = exp(-hbar omega / 2 k_B T), through ``arctanh_exp``.
    Refuses (ValueError naming the temperature and the mode frequency) once
    tanh r_T rounds to 1, at T above about 6.9e4 omega (SI units)."""
    r = arctanh_exp(0.5 * boltzmann_exponent(omega, temperature))
    if not math.tanh(r) < 1.0:
        raise ValueError(f"temperature {temperature:.6g} K too high at mode frequency "
                         f"{omega:.6g} rad/s: tanh r rounds to 1 (r = {r:.6g})")
    return ThermalSqueeze(r=r)
