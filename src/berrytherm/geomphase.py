"""Closed-form geometric phases for the detector-field model.

Conventions: a cycle is one full sweep of the rotation angle varphi through
[0, 2pi); the loop phase is the argument of the product of successive state
overlaps taken with increasing varphi, which for the eigenstate U'|n_f n_d>
evaluates to 2 pi times its mean field occupation.  Arg is always taken on
the branch (-pi, pi].  Cycle accumulation uses raw (unreduced) per-cycle
values.

The thermal and accelerated phases depend on the model only through
epsilon = G - 1/2, G the phase advance per field quantum in cycles, so they
take epsilon, computed from the laboratory triple (``epsilon``), and use
e^{2 pi i G} = -e^{2 pi i epsilon}.  At the figure presets epsilon is
1e-15 to 1e-5, and passing G instead would lose it to the spacing of
doubles near 2 pi G = pi.  The module needs only ``math``; its value types
are ``typing.NamedTuple``s.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple

from . import thermo
from .diagonalization import DiagParams, PhysicalParams, derive_params, normal_modes
from .thermo import CONSTANTS, ThermalSqueeze, boltzmann_exponent

__all__ = [
    "PhaseResult",
    "CycleAccumulation",
    "wrap_angle",
    "phase_distance",
    "eigen_berry_phase",
    "epsilon",
    "mixed_phase_offset",
    "thermal_terms",
    "thermometer_delta_from_eps",
    "thermometer_slope_from_eps",
    "unruh_squeeze",
    "delta_per_cycle_from_eps",
    "unruh_phases",
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


class PhaseResult(NamedTuple):
    """A geometric phase: branch-reduced value and raw (unreduced) value."""

    value: float
    raw: float


class CycleAccumulation(NamedTuple):
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
    bad_nd = wa * math.cosh(2 * v) * math.sinh(2 * u) / ((wa + wb) * math.sinh(2 * v))
    _, coeff_nf, t00 = _phase_pieces(dp)
    raw = TAU * (bad_nd * n_d + coeff_nf * n_f + t00)
    return PhaseResult(value=wrap_angle(raw), raw=raw)


def epsilon(pp: PhysicalParams) -> float:
    """epsilon = G - 1/2 from the laboratory triple, free of cancellation.

    G = omega_b sinh 2v cosh 2u / (omega_a sinh 2u + omega_b sinh 2v) is the
    eigenstate phase spacing per field quantum over 2 pi.  By the identity
    Omega_a = omega_b e^{2v} (see ``invert_physical``) it equals
    (Omega_a^2 - omega_b^2) cosh 2u / (omega_a^2 - omega_b^2) = cos^2 theta cosh 2u,
    with u and the mixing angle theta of ``normal_modes``, so

        epsilon = cos 2 theta / 2 + (1 + cos 2 theta) sinh^2 u.

    On resonance this is sigma^2 / (s (1 + s)^2), sigma = lam/Omega_a,
    s = sqrt(1 + 2 sigma).  Raises as ``normal_modes`` does.
    """
    u, _, cos_2theta, one_plus_cos = normal_modes(pp)
    return 0.5 * cos_2theta + one_plus_cos * math.sinh(u) ** 2


def _mixed_phase(s: float, c: float, r: float) -> float:
    """``mixed_phase_offset`` at s = sin 2 pi eps, c = cos 2 pi eps."""
    sh2 = math.sinh(r) ** 2
    return math.atan2(sh2 * s, math.cosh(r) ** 2 + sh2 * c)


def mixed_phase_offset(eps: float, r: float) -> float:
    """Arg(cosh^2 r - e^{2 pi i G} sinh^2 r) = Arg(cosh^2 r + e^{2 pi i eps} sinh^2 r),
    on (-pi, pi]: the thermal mixed-state phase is gamma_0 minus this offset."""
    return _mixed_phase(math.sin(TAU * eps), math.cos(TAU * eps), r)


def thermal_terms(eps: float, omega: float,
                  temps: Iterable[float]) -> Iterator[tuple[float, float]]:
    """At each temperature T > 0, Arg(1 + x e^{-2 pi i eps}), x = e^{-y}, y = hbar w / k T,
    and its derivative -(x y / T) sin 2 pi eps / (1 + 2 x cos 2 pi eps + x^2) in T.
    A T whose k_B T underflows to 0 is refused by ``boltzmann_exponent``."""
    s, c = math.sin(TAU * eps), math.cos(TAU * eps)
    hw, k_B, exp, atan2 = CONSTANTS.hbar * omega, CONSTANTS.k_B, math.exp, math.atan2
    for t in temps:
        k_t = k_B * t
        y = hw / k_t if k_t else boltzmann_exponent(omega, t)  # k_B T is 0: refused by name
        x = exp(-y)
        yield atan2(-x * s, 1.0 + x * c), -(x * y / t) * s / (1.0 + 2.0 * x * c + x * x)


def thermometer_delta_from_eps(eps: float, omega: float, t_cold: float, t_hot: float) -> float:
    """Arg(1 - e^{-hbar w/kT1 - 2 pi i G}) - Arg(1 - e^{-hbar w/kT2 - 2 pi i G}).

    Each term is Arg(1 + x e^{-2 pi i eps}), x = e^{-hbar w/kT} (``thermal_terms``).
    Identically equal to the difference of the two mixed-state thermal phases;
    antisymmetric under swapping the temperatures.
    """
    boltzmann_exponent(omega, t_cold), boltzmann_exponent(omega, t_hot)  # the input checks
    (cold, _), (hot, _) = thermal_terms(eps, omega, (t_cold, t_hot))
    return cold - hot


def thermometer_slope_from_eps(eps: float, omega: float, t_cold: float) -> float:
    """d delta / d T_cold = -(x y / T_c) sin 2 pi eps / (1 + 2 x cos 2 pi eps + x^2),
    y = hbar w / k T_c, x = e^{-y}: the derivative of the cold term of
    ``thermometer_delta_from_eps``."""
    boltzmann_exponent(omega, t_cold)  # the input checks
    return next(thermal_terms(eps, omega, (t_cold,)))[1]


def unruh_squeeze(Omega_a: float, accel: float) -> ThermalSqueeze:
    """Squeeze parameter seen by a uniformly accelerated detector:
    r = arctanh(exp(-pi Omega_a c / a)), from pi Omega_a c / a by
    ``thermo.arctanh_exp``.  Refuses (ValueError naming the acceleration) once
    tanh r rounds to 1, at a above about 1.7e25 Omega_a (SI units).

    Identical to the thermal squeeze at the Unruh temperature of the same
    acceleration (the keystone cross-check of this module).
    """
    if accel <= 0.0:
        raise ValueError(f"acceleration must be positive, got {accel}")
    if Omega_a <= 0.0:
        raise ValueError(f"field frequency must be positive, got {Omega_a}")
    return ThermalSqueeze(r=next(unruh_phases(0.0, Omega_a, (accel,)))[0])


def delta_per_cycle_from_eps(eps: float, q: float) -> float:
    """Per-cycle inertial/accelerated phase difference at squeeze q.

    Arg(cosh^2 q - e^{-2 pi i G} sinh^2 q) = Arg(cosh^2 q + e^{-2 pi i eps} sinh^2 q),
    minus the mixed-phase offset at eps.  It equals -sinh^2 q sin(2 pi eps)
    at small q, so while 0 < eps < 1/2 it is negative and falls monotonically
    as the acceleration (and q) grows.
    """
    return -mixed_phase_offset(eps, q)


def _cycles_to_pi(delta: float) -> float:
    """ceil(pi / delta) for delta >= 0, or inf where pi / delta is not finite."""
    n_pi = math.pi / delta if delta else math.inf
    return float(math.ceil(n_pi)) if n_pi < math.inf else math.inf


def unruh_phases(eps: float, Omega_a: float,
                 accels: Iterable[float]) -> Iterator[tuple[float, float, float]]:
    """At each acceleration a > 0, the squeeze q of ``unruh_squeeze`` (refused where
    tanh q rounds to 1), ``delta_per_cycle_from_eps`` at q, and the cycles to reach
    pi of ``accumulate_cycles``, inf where unbounded."""
    s, c = math.sin(TAU * eps), math.cos(TAU * eps)
    y_accel, arctanh_exp = math.pi * Omega_a * CONSTANTS.c, thermo.arctanh_exp
    for a in accels:
        q = arctanh_exp(y_accel / a)
        if not math.tanh(q) < 1.0:
            raise ValueError(f"acceleration {a:.6g} m/s^2 too large at field frequency "
                             f"{Omega_a:.6g} rad/s: tanh r rounds to 1 (r = {q:.6g})")
        delta = -_mixed_phase(s, c, q)
        yield q, delta, _cycles_to_pi(abs(delta))


def accumulate_cycles(delta_per_cycle: float, n_cycles: int) -> CycleAccumulation:
    """Linear accumulation of a per-cycle phase difference.

    total = n * delta; cycles_to_pi = ceil(pi / delta), or None (unbounded)
    when pi / delta is not finite: delta zero or subnormal.  The per-cycle
    value must be non-negative; callers pass magnitudes.
    """
    if not delta_per_cycle >= 0.0:
        raise ValueError(f"per-cycle phase must be >= 0, got {delta_per_cycle}")
    if n_cycles < 0:
        raise ValueError(f"cycle count must be >= 0, got {n_cycles}")
    total = delta_per_cycle * n_cycles
    n_pi = _cycles_to_pi(delta_per_cycle)
    return CycleAccumulation(
        total=total,
        capped_at_pi=total >= math.pi,
        cycles_to_pi=int(n_pi) if n_pi < math.inf else None,
    )


def keystone_identity_residual(Omega_a: float, accel: float) -> float:
    """Residual of the keystone q = arctanh(x) = r_T, x = exp(-pi Omega_a c / a),
    r_T the thermal squeeze at the Unruh temperature (should be ~0).  The larger of

    - |q - r_T| / min(1, max(q, r_T)): relative below 1, absolute above; 0 where
      both underflow to 0;
    - q inverted without an arctanh, |tanh q - x| / x and
      |2 / (1 + e^{2q}) - (1 - x)| / (1 - x), 1 - x from ``expm1``: both squeezes
      come from ``thermo.arctanh_exp``, so an error there shows only here.
    """
    y = math.pi * Omega_a * CONSTANTS.c / accel
    q = unruh_squeeze(Omega_a, accel).r
    r = thermo.squeeze_from_temperature(Omega_a, thermo.unruh_temperature(accel)).r
    scale = min(1.0, max(q, r))
    residual = abs(q - r) / scale if scale > 0.0 else 0.0
    x, one_minus_x = math.exp(-y), -math.expm1(-y)
    if x > 0.0:
        residual = max(residual, abs(math.tanh(q) - x) / x,
                       abs(2.0 / (1.0 + math.exp(2.0 * q)) - one_minus_x) / one_minus_x)
    return residual
