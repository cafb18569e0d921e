"""Parameter algebra and diagonalizing unitary for the detector-field model.

The model Hamiltonian

    H = Omega_a a'a + Omega_b b'b + lam (b + b')(a' e^{i varphi} + a e^{-i varphi})

is generated from a diagonal seed H0 = omega_a a'a + omega_b b'b by the
unitary chain U = S_a S_b D_ab S_hat_b R_a (two single-mode squeezes, a
two-mode displacement, a second detector squeeze, and a field rotation), so
its eigenstates are U' |n_f n_d>.  Three parameters (omega_a, omega_b, v)
are independent; everything else is fixed by the constraints that kill the
field-squeezing and detector-squeezing terms and equalize the two coupling
coefficients.  This module derives the constrained parameters, maps between
(omega_a, omega_b, v) and the laboratory triple (Omega_a, Omega_b, lam) in
both directions, and builds U and H on a truncated space.  Eigenstates
U' |n_f n_d> skip the matrices: each factor of U' splits exactly into small
real tridiagonal blocks (squeezes by parity, the beam splitter by total
occupation) that act on the amplitude directly.  The parameter algebra needs
only ``math`` and numpy (the inverse-map seed uses a port of scipy's Brent
solver), so scipy is loaded only by the operator builders, through
``fockspace``, and the closed-form commands never import it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fockspace import (
    FockDims,
    OperatorMatrix,
    StateVector,
    beam_splitter_action,
    displace_two_mode,
    ladder,
    rotate_field,
    squeeze_action,
    squeeze_single,
)

__all__ = [
    "DiagParams",
    "DerivedParams",
    "PhysicalParams",
    "TrajectoryPhase",
    "ConstraintError",
    "InverseMapError",
    "InverseSolution",
    "derive_params",
    "forward_map",
    "inverse_map",
    "invert_physical",
    "build_unitary",
    "build_hamiltonian",
    "eigenstate",
    "eigenstates",
    "constant_shift",
    "eigenvalue",
]


class ConstraintError(ValueError):
    """Parameter set violates a structural constraint of the diagonalization."""


class InverseMapError(RuntimeError):
    """Newton inversion failed; carries the last residual."""

    def __init__(self, message: str, residual: float = math.nan):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class DiagParams:
    """Independent diagonalization parameters (omega_a, omega_b, v).

    Valid sets satisfy omega_a, omega_b, v > 0 and omega_a/omega_b > e^{2v}
    (equivalently u = C - v > 0 with C = 0.5*ln(omega_a/omega_b)).  v = 0 is
    the decoupled boundary and is representable but rejected by validate().

    ``u_hint`` optionally caches the complementary squeeze parameter at full
    precision; near resonance the subtraction C - v loses several digits, so
    the inverse solver stores the value it actually solved for.  It must
    agree with C - v to rounding and never overrides an invalid set.
    """

    omega_a: float
    omega_b: float
    v: float
    u_hint: float | None = None

    def validate(self) -> None:
        if self.omega_a <= 0.0 or self.omega_b <= 0.0:
            raise ConstraintError(f"frequencies must be positive, got {self}")
        if self.v <= 0.0:
            raise ConstraintError(f"squeeze parameter v must be positive, got v={self.v}")
        if self.omega_a / self.omega_b <= math.exp(2.0 * self.v):
            raise ConstraintError(
                "omega_a/omega_b must exceed exp(2v) so the complementary squeeze "
                f"parameter u stays positive; got ratio {self.omega_a / self.omega_b:.12g} "
                f"<= exp(2v) = {math.exp(2.0 * self.v):.12g}"
            )
        if self.u_hint is not None:
            # C - v carries ~eps absolute noise from the stored frequency ratio,
            # so consistency is judged on an absolute scale
            drift = abs(self.u_hint - (self.C - self.v))
            allowed = 8.0 * np.finfo(float).eps * max(1.0, self.C)
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


@dataclass(frozen=True)
class DerivedParams:
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


@dataclass(frozen=True)
class PhysicalParams:
    """Laboratory parameters: field frequency, detector gap, coupling (all rad/s)."""

    Omega_a: float
    Omega_b: float
    lam: float

    def validate(self) -> None:
        if self.Omega_a <= 0.0 or self.Omega_b <= 0.0:
            raise ValueError(f"frequencies must be positive, got {self}")
        if self.lam < 0.0:
            raise ValueError(f"coupling must be non-negative, got lam={self.lam}")


@dataclass(frozen=True)
class TrajectoryPhase:
    """Phase variable swept by the detector worldline.

    Inertial frame: varphi = k x - Omega_a t in Minkowski (t, x); uniformly
    accelerated frame: varphi = |Omega_a| xi - Omega_a tau in Rindler
    (tau, xi).  Either way one cycle takes 2 pi / Omega_a.
    """

    Omega_a: float
    k: float
    frame: str = "inertial"

    def __post_init__(self):
        if self.frame not in ("inertial", "rindler"):
            raise ValueError(f"unknown frame {self.frame!r}")

    def varphi(self, t: float, x: float = 0.0) -> float:
        if self.frame == "inertial":
            return self.k * x - self.Omega_a * t
        return abs(self.Omega_a) * x - self.Omega_a * t

    @property
    def cycle_duration(self) -> float:
        return 2.0 * math.pi / self.Omega_a


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

    ea = np.exp(-1j * THETA_A)
    eb = np.exp(-1j * THETA_B)
    ep = np.exp(1j * PHI_DISPLACEMENT)
    g1 = omega_a * cos2 * ch2u + omega_b * sin2 * ch2v
    g2 = omega_a * sin2 * ch2u + omega_b * cos2 * ch2v
    g3 = 0.5 * sin_2s * ep * (omega_a * ch2u - omega_b * ch2v)
    g4 = 0.5 * (omega_a * ea * sh2u * cos2 + omega_b * eb * ep ** 2 * sh2v * sin2)
    g5 = 0.5 * (omega_a * ea * np.conj(ep) ** 2 * sh2u * sin2 + omega_b * eb * sh2v * cos2)
    g6 = 0.5 * sin_2s * (omega_a * ea * np.conj(ep) * sh2u - omega_b * eb * ep * sh2v)

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


def constant_shift(dp: DiagParams, d: DerivedParams | None = None) -> float:
    """Zero-point constant dropped while rearranging the Hamiltonian.

    The exact spectrum is omega_a n_f + omega_b n_d - shift; the shift scales
    as lam^2 / Omega_a in the weak-coupling regime.
    """
    if d is None:
        d = derive_params(dp)
    return (
        dp.omega_a * math.sinh(d.u) ** 2
        + dp.omega_b * math.sinh(dp.v) ** 2
        + d.Omega_hat_b * math.sinh(d.p) ** 2
        + d.Z * math.sinh(2 * d.p)
    )


def eigenvalue(dp: DiagParams, n_f: int, n_d: int, include_shift: bool = True) -> float:
    """Closed-form eigenvalue; without the shift it is the bare label
    omega_a n_f + omega_b n_d."""
    e = dp.omega_a * n_f + dp.omega_b * n_d
    if include_shift:
        e -= constant_shift(dp)
    return e


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
# Inverse map: damped Newton on the scale-free system
# --------------------------------------------------------------------------

# Convergence is guaranteed in the perturbative regime lam/Omega_a < 1e-3 and
# observed (machine-level round trips, <= 8 iterations) well beyond it; the
# cap rejects inputs outside the tested basin.
SIGMA_HARD_CAP = 0.35


def _ratios(u: float, v: float) -> tuple[float, float, float]:
    """Scale-free (Omega_b/Omega_a, lam/Omega_a, Omega_a at omega_b = 1)."""
    wa = math.exp(2.0 * (u + v))
    d = _derive_uv(wa, 1.0, u, v)
    delta = wa * math.sinh(2 * u) + math.sinh(2 * v)
    first = 0.5 * math.expm1(4.0 * (u + v))
    second = 0.5 * (wa ** 2 * math.expm1(4.0 * u) - math.expm1(-4.0 * v))
    om_a = first / delta
    om_b = math.sqrt(first * second) / delta
    lam = math.exp(d.p) * d.lambda_hat
    return om_b / om_a, lam / om_a, om_a


def _brentq(f, xa: float, xb: float, xtol: float, maxiter: int = 100) -> float:
    """Root of f in [xa, xb] by Brent's method: scipy.optimize.brentq, bit for bit.

    A line-for-line port of scipy's C ``brentq`` (Brent 1973, ch. 4) at
    scipy's default rtol = 4 eps, kept so that the inverse-map seed, and
    through the Newton path every downstream value, matches the scipy
    solver exactly without importing scipy.optimize.  Raises ValueError with
    scipy's messages for a bracket without a sign change or a NaN value,
    RuntimeError after ``maxiter`` steps.
    """
    rtol = 4.0 * float(np.finfo(float).eps)

    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _uv_from_coords(x1: float, x2: float) -> tuple[float, float]:
    """(x1, x2) = (0.5*ln(uv), u - v) -> (u, v); positivity is automatic.

    The smaller root is recovered through the conjugate form so it never
    cancels to zero when |x2| dominates."""
    m2 = math.exp(2.0 * x1)
    root = math.sqrt(x2 * x2 + 4.0 * m2)
    if x2 >= 0.0:
        v = 2.0 * m2 / (x2 + root)
        return x2 + v, v
    u = 2.0 * m2 / (-x2 + root)
    return u, u - x2


@dataclass(frozen=True)
class InverseSolution:
    params: DiagParams
    residual: float
    iterations: int
    degenerate: bool = False


def invert_physical(
    pp: PhysicalParams,
    tol: float = 1e-12,
    max_iter: int = 200,
    seed_shift: float = 0.0,
) -> InverseSolution:
    """Solve forward_map(dp) = pp by damped Newton.

    Works in the scale-free coordinates (0.5*ln(uv), u - v), which keep the
    Jacobian well conditioned down to the near-resonant regime, then fixes
    omega_b from the overall frequency scale.  The seed solves the coupling
    ratio at a fixed frequency-ratio guess by Brent's method (``_brentq``);
    ``seed_shift`` nudges the seed (used by the local-uniqueness probe).

    lam = 0 returns the decoupled boundary (omega_a = Omega_a,
    omega_b = Omega_b, v = 0) flagged degenerate.  Convergence failure raises
    InverseMapError carrying the last residual.
    """
    pp.validate()
    if pp.lam == 0.0:
        return InverseSolution(
            DiagParams(pp.Omega_a, pp.Omega_b, 0.0), residual=0.0, iterations=0, degenerate=True
        )
    sigma_t = pp.lam / pp.Omega_a
    rho_t = pp.Omega_b / pp.Omega_a
    if sigma_t > SIGMA_HARD_CAP:
        raise InverseMapError(
            f"lam/Omega_a = {sigma_t:.3g} exceeds the perturbative basin ({SIGMA_HARD_CAP})"
        )

    # seed: detuning fixes u - v at leading order, coupling fixes the scale
    lnrho = math.log(rho_t)
    t0 = 0.5 * sigma_t
    u0 = max(0.5 * lnrho, t0)
    v0 = max(-0.5 * lnrho, t0)
    x2 = (u0 - v0) * (1.0 + seed_shift)

    def f_scale(x1: float) -> float:
        u, v = _uv_from_coords(x1, x2)
        return math.log(_ratios(u, v)[1] / sigma_t)

    lo, hi = math.log(1e-16), math.log(4.0)
    try:
        x1 = _brentq(f_scale, lo, hi, xtol=1e-13)
    except ValueError as exc:
        raise InverseMapError(f"seed bisection failed to bracket the coupling: {exc}")

    def residual_vec(x1: float, x2: float) -> np.ndarray:
        u, v = _uv_from_coords(x1, x2)
        rho, sigma, _ = _ratios(u, v)
        return np.array([math.log(sigma / sigma_t), rho / rho_t - 1.0])

    x = np.array([x1, x2])
    fvec = residual_vec(*x)
    it = 0
    for it in range(1, max_iter + 1):
        if np.abs(fvec).max() < tol:
            break
        h1 = 1e-7
        u_cur, v_cur = _uv_from_coords(*x)
        h2 = 1e-7 * max(u_cur + v_cur, 1e-12)
        jac = np.empty((2, 2))
        jac[:, 0] = (residual_vec(x[0] + h1, x[1]) - fvec) / h1
        jac[:, 1] = (residual_vec(x[0], x[1] + h2) - fvec) / h2
        try:
            step = np.linalg.solve(jac, -fvec)
        except np.linalg.LinAlgError:
            raise InverseMapError("singular Jacobian in Newton iteration",
                                  residual=float(np.abs(fvec).max()))
        lam_damp = 1.0
        for _ in range(25):
            x_new = x + lam_damp * step
            try:
                f_new = residual_vec(*x_new)
            except (ValueError, OverflowError):
                lam_damp *= 0.5
                continue
            if np.linalg.norm(f_new) <= np.linalg.norm(fvec) or np.abs(f_new).max() < tol:
                break
            lam_damp *= 0.5
        else:
            break
        x, fvec = x_new, f_new

    res = float(np.abs(fvec).max())
    if res >= max(tol, 1e-11):
        raise InverseMapError(
            f"Newton did not converge after {it} iterations (residual {res:.3e})",
            residual=res,
        )

    u, v = _uv_from_coords(*x)
    _, _, om_a_sf = _ratios(u, v)
    omega_b = pp.Omega_a / om_a_sf
    dp = DiagParams(omega_b * math.exp(2.0 * (u + v)), omega_b, v, u_hint=u)
    back = forward_map(dp)
    rel = max(
        abs(back.Omega_a / pp.Omega_a - 1.0),
        abs(back.Omega_b / pp.Omega_b - 1.0),
        abs(back.lam / pp.lam - 1.0),
    )
    if rel > 1e-10:
        raise InverseMapError(f"round-trip residual {rel:.3e} exceeds 1e-10", residual=rel)
    return InverseSolution(dp, residual=rel, iterations=it)


def inverse_map(pp: PhysicalParams, tol: float = 1e-12, max_iter: int = 200) -> DiagParams:
    """(Omega_a, Omega_b, lam) -> (omega_a, omega_b, v); see invert_physical."""
    return invert_physical(pp, tol=tol, max_iter=max_iter).params


# --------------------------------------------------------------------------
# Operators on the truncated space
# --------------------------------------------------------------------------

def build_unitary(dp: DiagParams, varphi: float, dims: FockDims) -> OperatorMatrix:
    """U = S_a(u) S_b(v) D(s) S_hat_b(p) R(varphi) on the truncated space."""
    d = derive_params(dp)
    s_a = squeeze_single(dims, "field", d.u, d.theta_a)
    s_b = squeeze_single(dims, "detector", dp.v, d.theta_b)
    disp = displace_two_mode(dims, d.s, d.phi)
    s_hat = squeeze_single(dims, "detector", d.p, 0.0)
    rot = rotate_field(dims, varphi)
    return s_a @ s_b @ disp @ s_hat @ rot


def build_hamiltonian(pp: PhysicalParams, varphi: float,
                      dims: FockDims) -> scipy.sparse.csr_matrix:
    """H = Omega_a a'a + Omega_b b'b + lam (b+b')(a' e^{i varphi} + a e^{-i varphi}) as CSR."""
    a = ladder(dims, "field", "lower")
    b = ladder(dims, "detector", "lower")
    ad, bd = a.conj().T.tocsr(), b.conj().T.tocsr()
    h = (
        pp.Omega_a * (ad @ a)
        + pp.Omega_b * (bd @ b)
        + pp.lam * (b + bd) @ (ad * np.exp(1j * varphi) + a * np.exp(-1j * varphi))
    )
    return h.tocsr()


def _eigenstate_amps(dp: DiagParams, occupations, varphi: float, dims: FockDims) -> np.ndarray:
    """U' |n_f n_d> = R' Shat_b' D' S_b' S_a' |n_f n_d> for each (n_f, n_d) of
    ``occupations``, as the columns of an (n_field, n_det, k) array.

    Each factor is applied exactly by blocks to all columns at once.  The
    squeezes act on one mode each, so S_b' S_a' |n_f n_d> is the outer
    product of two squeezed basis states; the beam splitter D' then acts on
    the (n_field, n_det) amplitude by total-occupation blocks, Shat_b' on the
    detector axis by parity blocks, and R' is diagonal.  Every factor up to
    R' is real orthogonal.
    """
    d = derive_params(dp)
    n_f, n_d = np.array(occupations, dtype=int).reshape(-1, 2).T
    f, g = np.eye(dims.n_field)[:, n_f], np.eye(dims.n_det)[:, n_d]  # basis columns
    # S(t, theta)' = S(-t, theta), and S(v, -pi) = S(-v, 0)
    amp = squeeze_action(f, -d.u)[:, None, :] * squeeze_action(g, dp.v)[None, :, :]
    amp = beam_splitter_action(amp, -d.s).transpose(1, 0, 2)
    amp = squeeze_action(amp.reshape(dims.n_det, -1), -d.p).reshape(amp.shape).transpose(1, 0, 2)
    return np.exp(1j * varphi * np.arange(dims.n_field))[:, None, None] * amp


# The intermediate squeeze stages populate higher levels than the final state
# does, so eigenstates() evaluates the chain on a space padded by this factor
# (at least +10 levels per mode) and projects back.
EIGENSTATE_PAD = 1.8


def eigenstates(dp: DiagParams, occupations, varphi: float, dims: FockDims) -> list[StateVector]:
    """Closed-form eigenstates U' |n_f n_d>, one unit vector on ``dims`` for
    each (n_f, n_d) of ``occupations``.

    The factors of U' act by exact tridiagonal blocks on all occupations at
    once (see _eigenstate_amps), on a space padded by EIGENSTATE_PAD, and
    the results are projected back.  Occupations must stay below cutoff/2
    to leave truncation margin.
    """
    for n_f, n_d in occupations:
        if n_f >= dims.n_field // 2 or n_d >= dims.n_det // 2:
            raise ValueError(
                f"occupation ({n_f}, {n_d}) too close to the cutoff {dims}; need < cutoff/2"
            )
    big = FockDims(
        max(dims.n_field + 10, int(math.ceil(dims.n_field * EIGENSTATE_PAD))),
        max(dims.n_det + 10, int(math.ceil(dims.n_det * EIGENSTATE_PAD))),
    )
    amps = _eigenstate_amps(dp, occupations, varphi, big)[: dims.n_field, : dims.n_det]
    return [StateVector(dims, amps[:, :, i]) for i in range(amps.shape[2])]


def eigenstate(dp: DiagParams, n_f: int, n_d: int, varphi: float, dims: FockDims) -> StateVector:
    """Closed-form eigenstate U' |n_f n_d>: a batch of one through ``eigenstates``."""
    return eigenstates(dp, [(n_f, n_d)], varphi, dims)[0]
