"""Closed-form geometric phases for the detector-field model.

Conventions: a cycle is one full sweep of the rotation angle varphi through
[0, 2pi); the loop phase is the argument of the product of successive state
overlaps taken with increasing varphi, which for the eigenstate U'|n_f n_d>
evaluates to 2 pi times its mean field occupation.  Arg is always taken on
the branch (-pi, pi].  Cycle accumulation uses raw (unreduced) per-cycle
values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import thermo
from .diagonalization import DiagParams, derive_params
from .thermo import CONSTANTS, ThermalSqueeze, boltzmann_exponent

__all__ = [
    "PhaseResult",
    "GFraction",
    "CycleAccumulation",
    "wrap_angle",
    "phase_distance",
    "ground_T00",
    "eigen_berry_phase",
    "mode_fraction_G",
    "mixed_phase_offset",
    "mixed_thermal_phase",
    "thermometer_delta",
    "thermometer_delta_from_G",
    "unruh_squeeze",
    "unruh_delta_per_cycle",
    "delta_per_cycle_from_G",
    "accumulate_cycles",
]

TAU = 2.0 * math.pi


def wrap_angle(x: float) -> float:
    """Reduce an angle to the branch (-pi, pi]."""
    y = math.remainder(x, TAU)
    if y <= -math.pi:
        y += TAU
    return y


def phase_distance(x: float, y: float) -> float:
    """|x - y| modulo 2 pi, reduced to [0, pi]."""
    return abs(wrap_angle(x - y))


@dataclass(frozen=True)
class PhaseResult:
    """A geometric phase: branch-reduced value and raw (unreduced) value."""

    value: float
    raw: float


@dataclass(frozen=True)
class GFraction:
    """Phase advance per field quantum, in cycles: gamma(n_f+1) - gamma(n_f) = 2 pi G."""

    G: float


@dataclass(frozen=True)
class CycleAccumulation:
    total: float
    capped_at_pi: bool
    cycles_to_pi: int | None  # None means unbounded (zero per-cycle phase)


def _phase_pieces(dp: DiagParams) -> tuple[float, float, float]:
    """(coefficient of n_d, coefficient of n_f, T00), all sharing the
    denominator omega_a sinh 2u + omega_b sinh 2v."""
    d = derive_params(dp)
    u, v = d.u, dp.v
    wa, wb = dp.omega_a, dp.omega_b
    delta = wa * math.sinh(2 * u) + wb * math.sinh(2 * v)
    coeff_nd = wa * math.cosh(2 * v) * math.sinh(2 * u) / delta
    coeff_nf = wb * math.sinh(2 * v) * math.cosh(2 * u) / delta
    t00 = (wa * math.sinh(v) ** 2 * math.sinh(2 * u)
           + wb * math.sinh(2 * v) * math.sinh(u) ** 2) / delta
    return coeff_nd, coeff_nf, t00


def ground_T00(dp: DiagParams) -> float:
    """Ground-state phase per cycle in units of 2 pi; positive for valid dp."""
    return _phase_pieces(dp)[2]


def eigen_berry_phase(dp: DiagParams, n_f: int, n_d: int) -> PhaseResult:
    """Cyclic phase of the eigenstate U'|n_f n_d>, raw (unreduced).

    gamma = 2 pi [ coeff_nd * n_d + G * n_f + T00 ] with all three terms over
    the shared denominator omega_a sinh(2u) + omega_b sinh(2v); equals 2 pi
    times the mean field occupation of the eigenstate.
    """
    if n_f < 0 or n_d < 0:
        raise ValueError("occupations must be non-negative")
    coeff_nd, coeff_nf, t00 = _phase_pieces(dp)
    raw = TAU * (coeff_nd * n_d + coeff_nf * n_f + t00)
    return PhaseResult(value=wrap_angle(raw), raw=raw)


def _eigen_phase_unshared_denominator(dp: DiagParams, n_f: int, n_d: int) -> PhaseResult:
    """Deliberately mis-specified variant (n_d coefficient over
    (omega_a + omega_b) sinh 2v) used as a negative control by the
    certification suite; the loop oracle must reject it."""
    d = derive_params(dp)
    u, v = d.u, dp.v
    wa, wb = dp.omega_a, dp.omega_b
    delta = wa * math.sinh(2 * u) + wb * math.sinh(2 * v)
    bad_nd = wa * math.cosh(2 * v) * math.sinh(2 * u) / ((wa + wb) * math.sinh(2 * v))
    _, coeff_nf, t00 = _phase_pieces(dp)
    raw = TAU * (bad_nd * n_d + coeff_nf * n_f + t00)
    return PhaseResult(value=wrap_angle(raw), raw=raw)


def mode_fraction_G(dp: DiagParams) -> GFraction:
    """G = omega_b sinh(2v) cosh(2u) / (omega_a sinh(2u) + omega_b sinh(2v)).

    Strictly between 0 and 1 for valid dp; equals the eigenstate phase
    spacing per field quantum divided by 2 pi.
    """
    g = _phase_pieces(dp)[1]
    if not 0.0 < g < 1.0:
        raise ValueError(f"G = {g} fell outside (0, 1); parameter set invalid")
    return GFraction(G=g)


def mixed_phase_offset(G: float, r: float) -> float:
    """Arg(cosh^2 r - e^{2 pi i G} sinh^2 r) on (-pi, pi]."""
    z = math.cosh(r) ** 2 - np.exp(2j * math.pi * G) * math.sinh(r) ** 2
    return float(np.angle(z))


def mixed_thermal_phase(dp: DiagParams, r: ThermalSqueeze) -> PhaseResult:
    """Mixed-state phase for a thermal field: gamma_0 - Arg(cosh^2 r - e^{2 pi i G} sinh^2 r)."""
    gamma0 = eigen_berry_phase(dp, 0, 0).raw
    g = mode_fraction_G(dp).G
    raw = gamma0 - mixed_phase_offset(g, r.r)
    return PhaseResult(value=wrap_angle(raw), raw=raw)


def thermometer_delta_from_G(G: float, omega: float, t_cold: float, t_hot: float) -> float:
    """Arg(1 - e^{-hbar w/kT1 - 2 pi i G}) - Arg(1 - e^{-hbar w/kT2 - 2 pi i G}).

    Identically equal to the difference of the two mixed-state thermal
    phases; antisymmetric under swapping the temperatures.
    """
    def term(temp: float) -> float:
        x = math.exp(-boltzmann_exponent(omega, temp))
        return float(np.angle(1.0 - x * np.exp(-2j * math.pi * G)))

    return term(t_cold) - term(t_hot)


def thermometer_delta(dp: DiagParams, omega: float, t_cold: float, t_hot: float) -> PhaseResult:
    """Phase difference between detectors probing thermal sources at two temperatures."""
    if t_cold <= 0.0 or t_hot <= 0.0:
        raise ValueError(f"temperatures must be positive, got ({t_cold}, {t_hot})")
    g = mode_fraction_G(dp).G
    raw = thermometer_delta_from_G(g, omega, t_cold, t_hot)
    return PhaseResult(value=wrap_angle(raw), raw=raw)


def unruh_squeeze(Omega_a: float, accel: float) -> ThermalSqueeze:
    """Squeeze parameter seen by a uniformly accelerated detector:
    r = arctanh(exp(-pi Omega_a c / a)).

    Identical to the thermal squeeze at the Unruh temperature of the same
    acceleration (the keystone cross-check of this module).
    """
    if accel <= 0.0:
        raise ValueError(f"acceleration must be positive, got {accel}")
    if Omega_a <= 0.0:
        raise ValueError(f"field frequency must be positive, got {Omega_a}")
    x = math.exp(-math.pi * Omega_a * CONSTANTS.c / accel)
    return ThermalSqueeze(r=math.atanh(x))


def delta_per_cycle_from_G(G: float, q: float) -> float:
    """Per-cycle inertial/accelerated phase difference at squeeze q.

    Arg(cosh^2 q - e^{-2 pi i G} sinh^2 q): this sign choice makes the
    difference equal +sinh^2 q sin(2 pi G) at small q, hence positive and
    monotone increasing in the acceleration while 2 pi G mod 2 pi lies in
    (0, pi).  It has the same magnitude as the mixed-phase offset at G.
    """
    z = math.cosh(q) ** 2 - np.exp(-2j * math.pi * G) * math.sinh(q) ** 2
    return float(np.angle(z))


def unruh_delta_per_cycle(dp: DiagParams, Omega_a: float, accel: float) -> PhaseResult:
    """Per-cycle phase difference between an inertial and an accelerated detector."""
    q = unruh_squeeze(Omega_a, accel).r
    g = mode_fraction_G(dp).G
    val = delta_per_cycle_from_G(g, q)
    return PhaseResult(value=val, raw=val)


def accumulate_cycles(delta_per_cycle: float, n_cycles: int) -> CycleAccumulation:
    """Linear accumulation of a per-cycle phase difference.

    total = n * delta; cycles_to_pi = ceil(pi / delta), or None (unbounded)
    when delta is zero.  The per-cycle value must be non-negative; callers
    pass magnitudes.
    """
    if delta_per_cycle < 0.0:
        raise ValueError(f"per-cycle phase must be >= 0, got {delta_per_cycle}")
    if n_cycles < 0:
        raise ValueError(f"cycle count must be >= 0, got {n_cycles}")
    total = delta_per_cycle * n_cycles
    if delta_per_cycle == 0.0:
        return CycleAccumulation(total=0.0, capped_at_pi=False, cycles_to_pi=None)
    return CycleAccumulation(
        total=total,
        capped_at_pi=total >= math.pi,
        cycles_to_pi=int(math.ceil(math.pi / delta_per_cycle)),
    )


def keystone_identity_residual(Omega_a: float, accel: float) -> float:
    """|unruh_squeeze - thermal squeeze at the Unruh temperature| (should be ~0)."""
    q = unruh_squeeze(Omega_a, accel).r
    r = thermo.squeeze_from_temperature(Omega_a, thermo.unruh_temperature(accel)).r
    return abs(q - r)
