"""Physical constants, thermal squeeze parameters, and thermal weights.

The thermal weight of Fock level n at temperature T is
tanh^{2n}(r_T)/cosh^2(r_T) with tanh r_T = exp(-hbar*omega / (2 k_B T)); the
same squeeze parameter describes the state seen by a uniformly accelerated
observer at the corresponding Unruh temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhysicalConstants",
    "CONSTANTS",
    "ThermalStateSpec",
    "ThermalSqueeze",
    "unruh_temperature",
    "squeeze_from_temperature",
    "thermal_weights",
]

TAIL_TARGET = 1e-12


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA values; immutable."""

    hbar: float = 1.054571817e-34   # J s
    k_B: float = 1.380649e-23       # J / K
    c: float = 2.99792458e8         # m / s


CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class ThermalSqueeze:
    """Squeeze parameter r >= 0 weighting the geometric-series phase sums."""

    r: float

    def __post_init__(self):
        if not 0.0 <= self.r < math.inf:
            raise ValueError(f"squeeze parameter must be finite and >= 0, got {self.r}")
        if math.tanh(self.r) >= 1.0:
            raise ValueError(f"tanh r must stay below 1, got r = {self.r}")


def unruh_temperature(accel: float) -> float:
    """Unruh temperature T_U = hbar a / (2 pi c k_B) in kelvin; linear in a."""
    if accel <= 0.0:
        raise ValueError(f"acceleration must be positive, got {accel}")
    return CONSTANTS.hbar * accel / (2.0 * np.pi * CONSTANTS.c * CONSTANTS.k_B)


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


def thermal_weights(r: float, n_max: int) -> tuple[np.ndarray, float]:
    """Geometric weights tanh^{2n}r / cosh^2 r for n = 0..n_max and the exact
    tail sum tanh^{2(n_max+1)} r."""
    q = np.tanh(r) ** 2
    n = np.arange(n_max + 1)
    if q == 0.0:
        w = np.zeros(n_max + 1)
        w[0] = 1.0
        return w, 0.0
    w = (1.0 - q) * q ** n
    tail = float(q ** (n_max + 1))
    return w, tail


def required_levels(r: float, tail_target: float = TAIL_TARGET) -> int:
    """Smallest n_max with geometric tail tanh^{2(n_max+1)} r < tail_target."""
    q = np.tanh(r) ** 2
    if q == 0.0:
        return 0
    n = int(np.ceil(np.log(tail_target) / np.log(q))) - 1
    return max(n, 0)


@dataclass(frozen=True)
class ThermalStateSpec:
    """Single-mode thermal state at (omega, temperature), truncated at n_max."""

    omega: float
    temperature: float
    n_max: int

    @property
    def r_T(self) -> float:
        return squeeze_from_temperature(self.omega, self.temperature).r

    @property
    def tail(self) -> float:
        return float(np.tanh(self.r_T) ** (2 * (self.n_max + 1)))

    @classmethod
    def for_tail(cls, omega: float, temperature: float, tail_target: float = TAIL_TARGET):
        r = squeeze_from_temperature(omega, temperature).r
        return cls(omega, temperature, required_levels(r, tail_target))
