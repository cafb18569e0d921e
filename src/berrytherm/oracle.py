"""Independent numerical verification of the closed-form phases.

Nothing here consumes the closed-form phase formulas: eigenvectors come from
brute-force diagonalization of the truncated Hamiltonian, loop phases from
gauge-invariant products of successive overlaps, mixed-state phases from
explicit weighted partial sums, and adiabaticity from direct integration of
the time-dependent Schrodinger equation.  Closed forms are only allowed in
as selection targets (which eigenvector to track), never as values.
scipy is imported inside the functions that call it, so importing this
module (which ``cli`` does) costs the closed-form commands no scipy import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagonalization import (
    DiagParams,
    PhysicalParams,
    build_hamiltonian,
    eigenstate,
    eigenstates,
    forward_map,
)
from .fockspace import FockDims, StateVector, number_diagonal, truncation_tail
from .geomphase import PhaseResult, ThermalSqueeze, wrap_angle
from .thermo import required_levels, thermal_weights

__all__ = [
    "LoopSpec",
    "EvolutionSpec",
    "OracleError",
    "EigenPair",
    "BerryLoopResult",
    "numeric_eigenpair",
    "pancharatnam_product",
    "discrete_berry_loop",
    "discrete_berry_loops",
    "mixed_phase_partial_sum",
    "partial_sum_from_G",
    "schrodinger_excitation_probability",
    "excitation_probability_per_cycle",
    "thermal_excitation_per_cycle",
    "berry_connection_v",
    "rotation_covariance_residual",
]

TRUNCATION_GATE = 1e-8       # top-two-level amplitude above this refuses certification
LEVEL_CROSSING_OVERLAP = 0.99
AMBIGUITY_OVERLAP = 0.9
NORM_DRIFT_LIMIT = 1e-10
DENSE_EIGH_LIMIT = 1600      # dense eigh for dense matrices up to this dimension
EIGSH_K = 6                  # eigenpairs requested from shift-invert Lanczos
MAX_WINDOW = 2048            # field-window half-width cap: eigenvectors of 4097 levels, ~134 MB
THERMAL_GRID_POINTS = 24     # evenly spaced occupations in the thermal-mixture grid
_B = np.diag(np.sqrt([1.0, 2.0, 3.0]), 1)  # detector b on the 4 levels the evolver keeps


class OracleError(RuntimeError):
    """Certification refused or failed (truncation, ambiguity, level crossing)."""


@dataclass(frozen=True)
class LoopSpec:
    """Discretization of the closed varphi loop (Richardson-refined over N and 2N)."""

    n_points: int = 2048

    def __post_init__(self):
        if self.n_points < 16:
            raise ValueError(f"need at least 16 loop points, got {self.n_points}")


@dataclass(frozen=True)
class EvolutionSpec:
    """Fixed-step integration controls for the time-dependent problem.

    ``step`` (seconds, < 0.01 cycle) or else steps_per_cycle is a floor: the
    evolver raises it until the predicted RK4 norm drift is <= NORM_DRIFT_LIMIT / 10.
    """

    step: float | None = None
    steps_per_cycle: int = 400

    def __post_init__(self):
        if self.steps_per_cycle < 100:
            raise ValueError("need at least 100 steps per cycle")

    def resolved_steps_per_cycle(self, Omega_a: float) -> int:
        cycle = 2.0 * math.pi / Omega_a
        if self.step is not None:
            if self.step >= 0.01 * cycle:
                raise ValueError(
                    f"step {self.step:g} s violates the bound 0.01 * cycle = {0.01 * cycle:g} s"
                )
            return max(100, int(math.ceil(cycle / self.step)))
        return self.steps_per_cycle


@dataclass(frozen=True)
class EigenPair:
    value: float
    vector: StateVector
    overlap: float


@dataclass(frozen=True)
class BerryLoopResult:
    phase: PhaseResult
    error_estimate: float
    truncation_tail: float
    min_overlap: float
    n_points: int


def numeric_eigenpair(mat, target: StateVector, sector: np.ndarray | None = None) -> EigenPair:
    """Eigenpair of the truncated Hamiltonian with maximal overlap against ``target``.

    ``mat`` is a dense array or a scipy sparse matrix.  ``sector`` (flat
    basis indices) restricts the solve to the block of ``mat`` on those
    indices and embeds the eigenvector back; it refuses (OracleError) when
    ``mat`` has a nonzero entry between the sector and its complement or the
    target has weight outside it.  Dense eigh for a dense ``mat`` up to
    DENSE_EIGH_LIMIT total dimension, shift-invert Lanczos (sigma at the
    target's Rayleigh quotient) otherwise, in real arithmetic when ``mat``
    has no imaginary part and from a fixed start vector, so repeated calls
    return identical bits.  The returned vector is gauge fixed: its
    largest-magnitude component is real positive.  Overlap below 0.9 raises
    OracleError (truncation or wrong parameters).
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    if mat.shape[0] != target.dims.total:
        raise ValueError("Hamiltonian and target dimensions disagree")
    tv = target.amp
    if sector is not None:
        inside = np.isin(np.arange(len(tv)), sector)
        coo = sp.coo_matrix(mat)
        leak = np.abs(coo.data[inside[coo.row] != inside[coo.col]]).max(initial=0.0)
        if leak > 0.0:
            raise OracleError(f"Hamiltonian couples the sector to its complement "
                              f"(entry {leak:.2e}); cannot solve in the sector")
        if tv[~inside].any():
            raise OracleError("target has weight outside the sector")
        mat, tv = mat[sector][:, sector], tv[sector]
    dim = mat.shape[0]
    # largest modulus of H - H^dag (abs before max: complex max is lexicographic)
    if sp.issparse(mat):
        herm, scale = abs(mat - mat.conj().T).max(), abs(mat).max()
    else:
        herm, scale = np.abs(mat - mat.conj().T).max(), np.abs(mat).max()
    if herm > 1e-10 * max(scale, 1.0):
        raise ValueError(f"Hamiltonian is not Hermitian (defect {herm:.2e})")

    if dim <= DENSE_EIGH_LIMIT and not sp.issparse(mat):
        evals, vecs = np.linalg.eigh(mat)
    else:
        smat = sp.csc_matrix(mat)
        if smat.imag.count_nonzero() == 0:
            smat = smat.real
        sigma = float(np.real(np.vdot(tv, smat @ tv)))
        v0 = np.random.default_rng(0).standard_normal(dim)
        evals, vecs = spla.eigsh(smat, k=min(EIGSH_K, dim - 2), sigma=sigma, which="LM", v0=v0)
    overlaps = np.abs(vecs.conj().T @ tv)
    best = int(np.argmax(overlaps))
    if overlaps[best] < AMBIGUITY_OVERLAP:
        raise OracleError(
            f"eigenvector selection ambiguous: best overlap {overlaps[best]:.4f} < "
            f"{AMBIGUITY_OVERLAP} (truncation too small or wrong parameters)"
        )
    vec = vecs[:, best].astype(complex)
    j = int(np.argmax(np.abs(vec)))
    vec = vec * (np.conj(vec[j]) / abs(vec[j]))
    if sector is not None:
        full = np.zeros(target.dims.total, dtype=complex)
        full[sector] = vec
        vec = full
    return EigenPair(
        value=float(evals[best]),
        vector=StateVector(target.dims, vec, normalize=True),
        overlap=float(overlaps[best]),
    )


def pancharatnam_product(states) -> tuple[float, float]:
    """Accumulated phase of the closed overlap chain of ``states``.

    Returns (sum of per-step overlap angles including the closing step, and
    the smallest |overlap| seen).  Gauge invariant modulo 2 pi under
    per-state rephasing.
    """
    vecs = [np.asarray(s.amp if isinstance(s, StateVector) else s) for s in states]
    total = 0.0
    min_abs = 1.0
    n = len(vecs)
    for i in range(n):
        z = np.vdot(vecs[i], vecs[(i + 1) % n])
        total += float(np.angle(z))
        min_abs = min(min_abs, abs(z))
    return total, min_abs


def _loop_raw_phase(weights: np.ndarray, n_f_diag: np.ndarray, n_points: int) -> tuple[float, float]:
    """Raw loop phase for the rotation-propagated eigenvector family.

    The eigenvector at angle phi_k is exp(+i phi_k n_f) chi (an exact
    consequence of the rotation covariance of H, which is verified
    separately as a matrix identity), so every consecutive overlap equals
    z(h) = sum_j |chi_j|^2 e^{i h n_f(j)} with h = 2 pi / N.  Returns
    (N * Arg z, |z|).
    """
    h = 2.0 * math.pi / n_points
    z = np.sum(weights * np.exp(1j * h * n_f_diag))
    return n_points * float(np.angle(z)), float(abs(z))


def _transported_loop(h0, target: StateVector, sector: np.ndarray, spec: LoopSpec,
                      truncation_gate: float) -> BerryLoopResult:
    """Loop phase of the eigenvector of ``h0`` that ``target`` selects in ``sector``."""
    chi = numeric_eigenpair(h0, target, sector).vector
    tail = truncation_tail(chi)
    if tail > truncation_gate:
        raise OracleError(f"truncation tail {tail:.3e} exceeds certification gate "
                          f"{truncation_gate:.1e}; raise the cutoff")
    w = np.abs(chi.amp) ** 2
    n_f_diag = number_diagonal(chi.dims, "field")
    raw1, ov1 = _loop_raw_phase(w, n_f_diag, spec.n_points)
    if ov1 < LEVEL_CROSSING_OVERLAP:
        raise OracleError(f"consecutive overlap {ov1:.4f} < {LEVEL_CROSSING_OVERLAP}")
    raw2, ov2 = _loop_raw_phase(w, n_f_diag, 2 * spec.n_points)
    raw2 = raw1 + wrap_angle(raw2 - raw1)  # same 2-pi branch before extrapolating
    raw = (4.0 * raw2 - raw1) / 3.0
    return BerryLoopResult(
        PhaseResult(value=wrap_angle(raw), raw=raw, method="oracle"),
        error_estimate=abs(raw2 - raw1), truncation_tail=tail,
        min_overlap=min(ov1, ov2), n_points=spec.n_points,
    )


def discrete_berry_loops(
    dp: DiagParams,
    occupations,
    spec: LoopSpec,
    dims: FockDims,
    truncation_gate: float = TRUNCATION_GATE,
) -> list[BerryLoopResult | OracleError]:
    """Gauge-invariant discrete loop phase of the eigenstate of each (n_f, n_d)
    of ``occupations``: its BerryLoopResult, or the OracleError that refused it.

    One H(0) and one batch of closed-form selection targets serve every
    occupation.  H commutes with the parity (-1)^(n_f + n_d), so each
    eigenvector is solved in the parity sector of its label (see
    ``numeric_eigenpair``), embedded back, and transported around the loop
    with the exact rotation covariance.  The phase is Richardson-extrapolated
    from the N and 2N grids and the reported error estimate is
    |gamma(2N) - gamma(N)|.

    Refuses an occupation when its eigenvector carries more than
    ``truncation_gate`` amplitude in the top two levels of either mode, or
    when consecutive overlaps drop below 0.99 (level crossing).
    """
    h0 = build_hamiltonian(forward_map(dp), 0.0, dims)
    parity = (number_diagonal(dims, "field") + number_diagonal(dims, "detector")) % 2
    results: list[BerryLoopResult | OracleError] = []
    for (n_f, n_d), target in zip(occupations, eigenstates(dp, occupations, 0.0, dims)):
        sector = np.flatnonzero(parity == (n_f + n_d) % 2)
        try:
            results.append(_transported_loop(h0, target, sector, spec, truncation_gate))
        except OracleError as exc:
            results.append(exc)
    return results


def discrete_berry_loop(
    dp: DiagParams,
    n_f: int,
    n_d: int,
    spec: LoopSpec,
    dims: FockDims,
    truncation_gate: float = TRUNCATION_GATE,
) -> BerryLoopResult:
    """Loop phase of the (n_f, n_d) eigenstate: a batch of one through
    ``discrete_berry_loops`` that raises its OracleError."""
    result = discrete_berry_loops(dp, [(n_f, n_d)], spec, dims, truncation_gate)[0]
    if isinstance(result, OracleError):
        raise result
    return result


def partial_sum_from_G(G: float, gamma0: float, r: float, n_max: int) -> PhaseResult:
    """Arg of the explicitly summed weighted phase factors sum_n w_n e^{i gamma_n},
    gamma_n = gamma0 + 2 pi G n, w_n the thermal weights at squeeze r.

    Refuses when the geometric tail tanh^{2(n_max+1)} r >= 1e-12, reporting
    the required n_max.
    """
    tail = math.tanh(r) ** (2 * (n_max + 1))
    if tail >= 1e-12:
        raise OracleError(
            f"partial-sum tail {tail:.3e} >= 1e-12; need n_max >= {required_levels(r)}"
        )
    w, _ = thermal_weights(r, n_max)
    n = np.arange(n_max + 1)
    z = np.sum(w * np.exp(1j * (gamma0 + 2.0 * math.pi * G * n)))
    val = float(np.angle(z))
    return PhaseResult(value=val, raw=val, method="oracle")


def mixed_phase_partial_sum(dp: DiagParams, r: ThermalSqueeze, n_max: int) -> PhaseResult:
    """Partial-sum route to the mixed-state thermal phase (independent of the
    closed form): weights and eigenstate phases summed explicitly."""
    from .geomphase import eigen_berry_phase, mode_fraction_G

    g = mode_fraction_G(dp).G
    gamma0 = eigen_berry_phase(dp, 0, 0).raw
    return partial_sum_from_G(g, gamma0, r.r, n_max)


def rotation_covariance_residual(pp: PhysicalParams, varphi: float, dims: FockDims) -> float:
    """max |H(varphi) - R(-varphi) H(0) R(-varphi)^dag|; exact identity, ~1e-13."""
    from .fockspace import rotate_field

    h_phi = build_hamiltonian(pp, varphi, dims).toarray()
    r = rotate_field(dims, -varphi).mat
    h_rot = r @ build_hamiltonian(pp, 0.0, dims).toarray() @ r.conj().T
    return float(np.abs(h_phi - h_rot).max())


# --------------------------------------------------------------------------
# Time-dependent Schrodinger evolution (adiabaticity check)
# --------------------------------------------------------------------------

def _window(g: float, n0: int, cycles: int) -> int:
    """Field-window half-width for occupation n0, empirical: edge amplitude < 1e-9 measured
    for g <= 0.0075 (both fig6 presets), n0 <= 5000, 1-16 cycles; stronger coupling may retry."""
    return 12 + int(math.ceil(30.0 * g * math.sqrt(n0 + 1.0) * (cycles + 1)))


def _steps_per_cycle(g: float, n_top: int, cycles: int, floor: int) -> int:
    """Smallest count >= ``floor`` whose predicted norm drift is <= NORM_DRIFT_LIMIT / 10:
    an RK4 step keeps |R(iy)|^2 = 1 - y^6/72 + y^8/576 of an eigencomponent,
    y = h |eigenvalue| <= h g ||x_f|| ||b + b'|| with ||x_f|| <= 2 sqrt(n_top),
    so n steps per cycle drift the norm by at most cycles n y^6 / 144."""
    a = 2.0 * math.pi * g * 2.0 * math.sqrt(n_top) * float(np.linalg.eigvalsh(_B + _B.T)[-1])
    return max(floor, int(math.ceil(a ** 1.2 * (cycles / (14.4 * NORM_DRIFT_LIMIT)) ** 0.2)))


def _evolve(pp: PhysicalParams, n0s: np.ndarray, cycles: int, steps_per_cycle: int,
            window: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-step RK4 evolution of |n0_f, 0_d> for every n0 of ``n0s`` as one batch.

    Frame rotating with H0, varphi(t) = -Omega_a t: the generator is
    lam x_f x_d(t), x_f = a + a', x_d(t) = b e^{-i Omega_b t} + b' e^{i Omega_b t};
    each row keeps the field levels max(0, n0 - window) .. n0 + window.  In the
    eigenbasis of the constant x_f each eigenvalue xi drives one detector with
    strength g xi.  x_d(t) = U x_d(0) U' with U = exp(i t Omega_b b'b), so n RK4
    steps compose exactly to U(n h) (U(-h) R)^n, R the step at t = 0: one matrix
    power per eigenvalue and cycle.  U drops out of every population.  Returns
    per row: sum_{d >= 1} |psi_{n,d}|^2 per cycle, norm drift, edge amplitude.
    """
    from scipy.linalg import eigh_tridiagonal

    lo = np.maximum(n0s - window, 0)
    xi, start, edge_rows = [], [], []
    for n0, low in zip(n0s, lo):
        vals, vecs = eigh_tridiagonal(np.zeros(n0 + window - low + 1),
                                      np.sqrt(np.arange(low + 1.0, n0 + window + 1.0)))
        xi.append(vals)
        start.append(vecs[n0 - low])                     # <n0 | xi_j>
        edge_rows.append(vecs[[0, 1, -2, -1] if low > 0 else [-2, -1]])
    bounds = np.cumsum([0] + [len(v) for v in xi])
    kappa = (pp.lam / pp.Omega_a) * np.concatenate(xi)[:, None, None]
    ratio = pp.Omega_b / pp.Omega_a  # detector phase advance per unit scaled time
    h = 2.0 * math.pi / steps_per_cycle

    def rhs(tau: float, y: np.ndarray) -> np.ndarray:
        ph = np.exp(-1j * ratio * tau)
        return -1j * kappa * ((ph * _B + np.conj(ph) * _B.T) @ y)

    y = np.eye(len(_B))  # one RK4 step of every basis state, all eigenvalues at once
    k1 = rhs(0.0, y)
    k2 = rhs(0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(h, y + h * k3)
    step = np.exp(-1j * ratio * h * np.arange(len(_B)))[:, None] * (
        y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    cycle = np.linalg.matrix_power(step, steps_per_cycle)
    psi = np.concatenate(start)[:, None] * y[0]           # |n0_f, 0_d>, shape (xi, d)
    out = np.empty((len(n0s), cycles))
    for c in range(cycles):
        psi = np.einsum("kij,kj->ki", cycle, psi)
        out[:, c] = np.add.reduceat(np.sum(np.abs(psi[:, 1:]) ** 2, axis=1), bounds[:-1])
    norm = np.add.reduceat(np.sum(np.abs(psi) ** 2, axis=1), bounds[:-1])
    edge = [math.sqrt(np.sum(np.abs(rows @ psi[i:j]) ** 2))
            for rows, i, j in zip(edge_rows, bounds[:-1], bounds[1:])]
    return out, np.abs(np.sqrt(norm) - 1.0), np.array(edge)


def _excitation(pp: PhysicalParams, cycles: int, spec: EvolutionSpec, n0s) -> np.ndarray:
    """P(detector excited) per cycle for each n0 of ``n0s``, rows sharing the window
    and step count sized for the largest n0.  Norm drift beyond 1e-10 in a row
    refuses; an edge amplitude of 1e-6 in a row doubles the window, twice at most,
    and a window above MAX_WINDOW refuses before anything is allocated."""
    n0s = np.asarray(n0s, dtype=int)
    if pp.lam == 0.0:
        return np.zeros((len(n0s), cycles))
    g, n_max = pp.lam / pp.Omega_a, int(n0s.max())
    window = _window(g, n_max, cycles)
    for _ in range(3):
        if window > MAX_WINDOW:
            raise OracleError(f"field window {window} exceeds the cap {MAX_WINDOW}; "
                              "coupling too strong for this driver")
        steps = _steps_per_cycle(g, n_max + window, cycles,
                                 spec.resolved_steps_per_cycle(pp.Omega_a))
        out, drift, edge = _evolve(pp, n0s, cycles, steps, window)
        if drift.max() > NORM_DRIFT_LIMIT:
            raise OracleError(f"norm drift {drift.max():.3e} exceeds {NORM_DRIFT_LIMIT:g}; "
                              "reduce the step")
        if edge.max() < 1e-6:
            return out
        window *= 2
    raise OracleError("field window kept saturating; coupling too strong for this driver")


def excitation_probability_per_cycle(
    pp: PhysicalParams,
    cycles: int,
    spec: EvolutionSpec,
    n_field_initial: int = 0,
) -> np.ndarray:
    """P(detector excited) at each cycle boundary, initial state |n0_f, 0_d>:
    a batch of one through the thermal-mixture evolver (see ``_excitation``)."""
    return _excitation(pp, cycles, spec, [n_field_initial])[0]


def schrodinger_excitation_probability(
    pp: PhysicalParams,
    cycles: int,
    spec: EvolutionSpec,
    n_field_initial: int = 0,
) -> float:
    """P(detector excited) after ``cycles`` full cycles (see per-cycle variant)."""
    if cycles < 1:
        raise ValueError("need at least one cycle")
    return float(excitation_probability_per_cycle(pp, cycles, spec, n_field_initial)[-1])


@dataclass(frozen=True)
class ThermalExcitation:
    per_cycle: np.ndarray
    tail_bound: float
    grid: np.ndarray


def thermal_excitation_per_cycle(
    pp: PhysicalParams,
    cycles: int,
    spec: EvolutionSpec,
    r_thermal: float,
) -> ThermalExcitation:
    """Thermal-field excitation probability as an explicit weighted mixture.

    P(n) is integrated for a grid of initial field occupations covering all
    weight down to 1e-6 of the thermal tail, interpolated monotonically
    between grid points, and summed against the exact geometric weights.
    The neglected tail is bounded by three times the last sampled value and
    reported, never silently dropped.
    """
    from scipy.interpolate import PchipInterpolator

    n_hi = max(required_levels(r_thermal, 1e-6), 8)
    base = np.unique(np.concatenate([
        np.array([0, 1, 2, 3, 4, 6, 8, 12, 16]),
        np.round(np.linspace(0, n_hi, THERMAL_GRID_POINTS)).astype(int),
    ]))
    base = base[base <= n_hi]
    samples = _excitation(pp, cycles, spec, base)  # (n_grid, cycles)
    w_all, tail_w = thermal_weights(r_thermal, n_hi)
    interp = PchipInterpolator(base.astype(float), samples)
    per_cycle = w_all @ np.clip(interp(np.arange(n_hi + 1)), 0.0, 1.0)
    tail_bound = 3.0 * tail_w * float(samples[-1].max(initial=0.0))
    return ThermalExcitation(per_cycle=per_cycle, tail_bound=tail_bound, grid=base)


def berry_connection_v(
    dp: DiagParams,
    n_f: int,
    n_d: int,
    varphi: float,
    dims: FockDims,
    eps: float = 3e-5,
) -> float:
    """Im <psi(v) | d/dv psi(v)> by central finite differences.

    Vanishes identically for the eigenstate family (the v-derivative of the
    unitary chain carries no number-diagonal content), so the returned value
    measures numerical noise.
    """
    up = DiagParams(dp.omega_a, dp.omega_b, dp.v + eps)
    dn = DiagParams(dp.omega_a, dp.omega_b, dp.v - eps)
    psi0 = eigenstate(dp, n_f, n_d, varphi, dims)
    dpsi = (eigenstate(up, n_f, n_d, varphi, dims).amp
            - eigenstate(dn, n_f, n_d, varphi, dims).amp) / (2.0 * eps)
    return float(np.imag(np.vdot(psi0.amp, dpsi)))
