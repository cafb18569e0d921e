"""Parameter algebra of the diagonalizing unitary for the detector-field model.

The model Hamiltonian

    H = Omega_a a'a + Omega_b b'b + lam (b + b')(a' e^{i varphi} + a e^{-i varphi})

is generated from a diagonal seed H0 = omega_a a'a + omega_b b'b by the
unitary chain U = S_a S_b D_ab S_hat_b R_a (two single-mode squeezes, a
two-mode displacement, a second detector squeeze, and a field rotation), so
its eigenstates are U' |n_f n_d>.  Three parameters (omega_a, omega_b, v)
are independent; everything else is fixed by the constraints that kill the
field-squeezing and detector-squeezing terms and equalize the two coupling
coefficients.  This module derives the constrained parameters, maps
(omega_a, omega_b, v) to the laboratory triple (Omega_a, Omega_b, lam) and
back (the inverse in closed form: omega_a and omega_b are the normal-mode
frequencies of H), and defines the package's errors.  The chain's map on the
ladder operators, the eigenstates it gives and H on the truncated space live
in ``fockspace``.  Everything here needs only ``math`` and ``cmath``, so the
closed-form commands load no numpy; the value types are ``typing.NamedTuple``s.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import NamedTuple

__all__ = [
    "DiagParams",
    "DerivedParams",
    "PhysicalParams",
    "ConstraintError",
    "InverseMapError",
    "OracleError",
    "InverseSolution",
    "derive_params",
    "forward_map",
    "invert_physical",
    "normal_modes",
    "constant_shift",
    "eigenvalue",
]


class ConstraintError(ValueError):
    """Parameter set violates a structural constraint of the diagonalization."""


class InverseMapError(RuntimeError):
    """The inverse map refused a triple; carries the round-trip residual
    when that gate failed."""

    def __init__(self, message: str, residual: float = math.nan):
        super().__init__(message)
        self.residual = residual


class OracleError(RuntimeError):
    """Certification refused or failed (truncation, ambiguity, convergence).
    Defined here, not in ``oracle``, so that the CLI can catch it without
    loading numpy."""


class DiagParams(NamedTuple):
    """Independent diagonalization parameters (omega_a, omega_b, v).

    Valid sets satisfy omega_a, omega_b, v > 0 and omega_a/omega_b > e^{2v}
    (equivalently u = C - v > 0 with C = 0.5*ln(omega_a/omega_b)).  v = 0 is
    the decoupled boundary and is representable but rejected by validate().

    ``u_hint`` optionally caches the complementary squeeze parameter at full
    precision; near resonance the subtraction C - v loses several digits, so
    the inverse map stores its closed-form value.  When set, it
    must be positive and agree with C - v to rounding; it replaces the ratio
    test, which cannot resolve a u below the rounding of omega_a/omega_b.
    """

    omega_a: float
    omega_b: float
    v: float
    u_hint: float | None = None

    def validate(self) -> None:
        if not all(map(math.isfinite, (self.omega_a, self.omega_b, self.v,
                                       0.0 if self.u_hint is None else self.u_hint))):
            raise ConstraintError(f"parameters must be finite, got {self}")
        if self.omega_a <= 0.0 or self.omega_b <= 0.0:
            raise ConstraintError(f"frequencies must be positive, got {self}")
        if self.v <= 0.0:
            raise ConstraintError(f"squeeze parameter v must be positive, got v={self.v}")
        if self.u_hint is None:
            if self.omega_a / self.omega_b <= math.exp(2.0 * self.v):
                raise ConstraintError(
                    "omega_a/omega_b must exceed exp(2v) so the complementary squeeze "
                    f"parameter u stays positive; got ratio {self.omega_a / self.omega_b:.12g} "
                    f"<= exp(2v) = {math.exp(2.0 * self.v):.12g}"
                )
            return
        # a u below the rounding of the stored ratio cannot pass the ratio test,
        # so u > 0 is judged on u_hint; C - v carries ~eps absolute noise from
        # the stored frequency ratio, so consistency is judged on an absolute scale
        drift = abs(self.u_hint - (self.C - self.v))
        allowed = 8.0 * sys.float_info.epsilon * max(1.0, self.C)
        if self.u_hint <= 0.0 or drift > allowed:
            raise ConstraintError(
                f"u_hint {self.u_hint!r} inconsistent with C - v = {self.C - self.v!r}"
            )

    @property
    def C(self) -> float:
        return 0.5 * math.log1p((self.omega_a - self.omega_b) / self.omega_b)

    @property
    def u(self) -> float:
        if self.u_hint is not None:
            return self.u_hint
        return self.C - self.v


class DerivedParams(NamedTuple):
    """All constrained parameters of the unitary chain at fixed (omega_a, omega_b, v)."""

    C: float
    u: float
    s: float
    theta_a: float
    theta_b: float
    phi: float
    p: float
    Z: float
    lambda_hat: float
    Omega_hat_b: float
    g1: complex
    g2: complex
    g3: complex
    g4: complex
    g5: complex
    g6: complex


class PhysicalParams(NamedTuple):
    """Laboratory parameters: field frequency, detector gap, coupling (all rad/s)."""

    Omega_a: float
    Omega_b: float
    lam: float

    def validate(self) -> None:
        if not (0.0 < self.Omega_a < math.inf and 0.0 < self.Omega_b < math.inf):
            raise ValueError(f"frequencies must be positive and finite, got {self}")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"coupling must be non-negative and finite, got lam={self.lam}")


# Fixed phase branch: displacement phase 0, hence theta_a = 0 (n = 0) and
# theta_b = 2*phi + theta_a - pi = -pi.  Phases only relabel the gauge.
PHI_DISPLACEMENT = 0.0
THETA_A = 0.0
THETA_B = -math.pi

G4_RELATIVE_TOL = 1e-12


def _derive_uv(omega_a: float, omega_b: float, u: float, v: float) -> DerivedParams:
    """Constrained parameters from (omega_a, omega_b, u, v); u + v must equal C."""
    sh2u, sh2v = math.sinh(2 * u), math.sinh(2 * v)
    ch2u, ch2v = math.cosh(2 * u), math.cosh(2 * v)
    A = omega_a * sh2u
    B = omega_b * sh2v
    delta = A + B
    s = math.atan(math.sqrt(A / B))
    cos2, sin2 = B / delta, A / delta  # cos^2 s, sin^2 s
    sin_2s = 2.0 * math.sqrt(A * B) / delta

    ea = cmath.exp(-1j * THETA_A)
    eb = cmath.exp(-1j * THETA_B)
    ep = cmath.exp(1j * PHI_DISPLACEMENT)
    g1 = omega_a * cos2 * ch2u + omega_b * sin2 * ch2v
    g2 = omega_a * sin2 * ch2u + omega_b * cos2 * ch2v
    g3 = 0.5 * sin_2s * ep * (omega_a * ch2u - omega_b * ch2v)
    g4 = 0.5 * (omega_a * ea * sh2u * cos2 + omega_b * eb * ep ** 2 * sh2v * sin2)
    g5 = 0.5 * (omega_a * ea * ep.conjugate() ** 2 * sh2u * sin2 + omega_b * eb * sh2v * cos2)
    g6 = 0.5 * sin_2s * (omega_a * ea * ep.conjugate() * sh2u - omega_b * eb * ep * sh2v)

    g4_scale = 0.5 * (abs(omega_a * sh2u * cos2) + abs(omega_b * sh2v * sin2))
    if abs(g4) > G4_RELATIVE_TOL * g4_scale:
        raise ConstraintError(
            f"field-squeezing coefficient failed to cancel: |g4| = {abs(g4):.3e} "
            f"(scale {g4_scale:.3e})"
        )

    Z = 0.5 * (A - B)  # equals g5 on this phase branch
    Omega_hat_b = (omega_a ** 2 * sh2u * ch2u + omega_b ** 2 * sh2v * ch2v) / delta
    ratio = -2.0 * Z / Omega_hat_b
    if not -1.0 < ratio < 1.0:
        raise ConstraintError(f"detector squeeze argument out of range: -2Z/Omega_hat = {ratio}")
    p = 0.5 * math.atanh(ratio)
    # omega_a cosh 2u - omega_b cosh 2v == (omega_b/2)(e^{4u+2v} - e^{-2v});
    # the exponential form survives the near-resonant cancellation
    ch_diff = 0.5 * omega_b * (math.expm1(4 * u + 2 * v) - math.expm1(-2 * v))
    lambda_hat = math.sqrt(A * B) * ch_diff / delta

    return DerivedParams(
        C=u + v, u=u, s=s, theta_a=THETA_A, theta_b=THETA_B, phi=PHI_DISPLACEMENT,
        p=p, Z=Z, lambda_hat=lambda_hat, Omega_hat_b=Omega_hat_b,
        g1=complex(g1), g2=complex(g2), g3=complex(g3), g4=complex(g4),
        g5=complex(g5), g6=complex(g6),
    )


def derive_params(dp: DiagParams) -> DerivedParams:
    """All constrained parameters (s, theta_a, theta_b, u, p, ...) for a valid dp.

    Raises ConstraintError when omega_a/omega_b <= e^{2v}; the constraint is
    never silently clamped.
    """
    dp.validate()
    return _derive_uv(dp.omega_a, dp.omega_b, dp.u, dp.v)


def constant_shift(dp: DiagParams) -> float:
    """Zero-point constant dropped while rearranging the Hamiltonian.

    The exact spectrum is omega_a n_f + omega_b n_d - shift; the shift scales
    as lam^2 / Omega_a in the weak-coupling regime.
    """
    d = derive_params(dp)
    return (
        dp.omega_a * math.sinh(d.u) ** 2
        + dp.omega_b * math.sinh(dp.v) ** 2
        + d.Omega_hat_b * math.sinh(d.p) ** 2
        + d.Z * math.sinh(2 * d.p)
    )


def eigenvalue(dp: DiagParams, n_f: int, n_d: int) -> float:
    """Closed-form eigenvalue omega_a n_f + omega_b n_d - constant_shift(dp)."""
    return dp.omega_a * n_f + dp.omega_b * n_d - constant_shift(dp)


def forward_map(dp: DiagParams) -> PhysicalParams:
    """(omega_a, omega_b, v) -> (Omega_a, Omega_b, lam).

    Uses cancellation-stable forms of the closed expressions; Omega_b is real
    for every valid dp (both factors of Omega_hat^2 - 4Z^2 are positive).
    """
    d = derive_params(dp)
    u, v = d.u, dp.v
    wa, wb = dp.omega_a, dp.omega_b
    delta = wa * math.sinh(2 * u) + wb * math.sinh(2 * v)
    # wa^2 - wb^2 via expm1 keeps near-resonant inputs accurate
    first = 0.5 * wb ** 2 * math.expm1(4.0 * d.C)
    second = 0.5 * (wa ** 2 * math.expm1(4.0 * u) - wb ** 2 * math.expm1(-4.0 * v))
    if first <= 0.0 or second <= 0.0:
        raise ConstraintError(f"Omega_b^2 factors must be positive, got {first}, {second}")
    Omega_a = first / delta
    Omega_b = math.sqrt(first * second) / delta
    lam = math.exp(d.p) * d.lambda_hat
    pp = PhysicalParams(Omega_a=Omega_a, Omega_b=Omega_b, lam=lam)
    pp.validate()
    return pp


# --------------------------------------------------------------------------
# Inverse map: the normal modes of H in closed form
# --------------------------------------------------------------------------

def normal_modes(pp: PhysicalParams) -> tuple[float, float, float, float]:
    """(u, v, cos 2 theta, 1 + cos 2 theta) of the two coupled oscillators behind H.

    In quadratures H is a pair of unit-mass oscillators with stiffness matrix
    K = [[Omega_a^2, k], [k, Omega_b^2]], k = 2 lam sqrt(Omega_a Omega_b).  Its
    eigenvalues omega_a^2 > omega_b^2 are the squared dressed frequencies and
    theta is its mixing angle, tan 2 theta = k / h.  With
    h = (Omega_a - Omega_b)(Omega_a + Omega_b)/2 and R = hypot(h, k),

        omega_a^2 - Omega_a^2 = R - h,    Omega_a^2 - omega_b^2 = R + h;

    whichever of the two is a sum is formed directly and the other as k^2
    over it, so neither cancels.  u and v are fixed by omega_a = Omega_a e^{2u}
    and omega_b = Omega_a e^{-2v}, through log1p.

    Refuses lam = 0 (ConstraintError: the decoupled boundary), and raises
    InverseMapError where 4 lam^2 >= Omega_a Omega_b, so that omega_b^2 <= 0
    and H has no ground state: the one bound on the coupling.
    """
    pp.validate()
    if pp.lam == 0.0:
        raise ConstraintError("zero coupling is the decoupled boundary: no normal-mode mixing")
    k = 2.0 * pp.lam * math.sqrt(pp.Omega_a * pp.Omega_b)
    h = 0.5 * (pp.Omega_a - pp.Omega_b) * (pp.Omega_a + pp.Omega_b)
    radius = math.hypot(h, k)
    big = radius + abs(h)
    r_minus, r_plus = (k * k / big, big) if h >= 0.0 else (big, k * k / big)  # R - h, R + h
    scale = pp.Omega_a ** 2
    if r_plus >= scale:
        raise InverseMapError(
            f"4 lam^2 >= Omega_a Omega_b for {pp}: the lower normal mode is unbound"
        )
    u = 0.25 * math.log1p(r_minus / scale)
    v = -0.25 * math.log1p(-r_plus / scale)
    return u, v, h / radius, r_plus / radius


class InverseSolution(NamedTuple):
    params: DiagParams
    residual: float
    iterations: int = 0  # nothing is iterated; perfbench's tracer reads it as solver work
    degenerate: bool = False


def invert_physical(pp: PhysicalParams) -> InverseSolution:
    """Solve forward_map(dp) = pp in closed form.

    U takes H to omega_a a'a + omega_b b'b less a constant, so (omega_a,
    omega_b) are the normal-mode frequencies of H (``normal_modes``), and v
    follows from the identity Omega_a = omega_b e^{2v} of forward_map.  There
    Omega_a = (omega_a^2 - omega_b^2) / (2 delta), and with omega_a =
    omega_b e^{2C}, C = u + v, the denominator is

        delta = omega_a sinh 2u + omega_b sinh 2v
              = (omega_b/2)(e^{4u+2v} - e^{-2v}) = (omega_b/2)(e^{4C} - 1) e^{-2v},

    while omega_a^2 - omega_b^2 = omega_b^2 (e^{4C} - 1).  So omega_a =
    Omega_a e^{2u} and omega_b = Omega_a e^{-2v}, and u is kept as u_hint at
    the precision log1p gives it.

    lam = 0 returns the decoupled boundary (omega_a = Omega_a,
    omega_b = Omega_b, v = 0) flagged degenerate.  An unbound triple,
    4 lam^2 >= Omega_a Omega_b, is refused as ``normal_modes`` refuses it.  A
    solution that does not reproduce pp through forward_map to 1e-10 raises
    InverseMapError carrying that residual.
    """
    pp.validate()
    if pp.lam == 0.0:
        return InverseSolution(
            DiagParams(pp.Omega_a, pp.Omega_b, 0.0), residual=0.0, degenerate=True
        )
    u, v, _, _ = normal_modes(pp)
    dp = DiagParams(pp.Omega_a * math.exp(2.0 * u), pp.Omega_a * math.exp(-2.0 * v), v,
                    u_hint=u)
    back = forward_map(dp)
    rel = max(
        abs(back.Omega_a / pp.Omega_a - 1.0),
        abs(back.Omega_b / pp.Omega_b - 1.0),
        abs(back.lam / pp.lam - 1.0),
    )
    if rel > 1e-10:
        raise InverseMapError(f"round-trip residual {rel:.3e} exceeds 1e-10", residual=rel)
    return InverseSolution(dp, residual=rel)
