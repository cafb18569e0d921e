"""Independent numerical verification of the closed-form phases.

Nothing here consumes the closed-form phase formulas: eigenvectors come from
brute-force solves of the truncated Hamiltonian, loop phases from
gauge-invariant products of successive overlaps, mixed-state phases from
explicit weighted partial sums, and adiabaticity from the exact propagator
of the detector, whose generator is time-independent in its co-rotating
frame.  Closed forms are only allowed in as selection targets (which
eigenvector to track), never as values.
Loop eigenpairs come from Rayleigh-quotient iteration in one parity sector of
H(0), block tridiagonal in n_f (Parlett, The Symmetric Eigenvalue Problem, 4.6).
A loop grid walks a ladder of growing cutoffs: its selection targets are built
once, at the first rung; the pending pairs of a rung are solved by parity, each
parity as one stacked iteration; and a pair refused at a rung continues at the
next from its last eigenvector.  Every field-state quadrature of the
adiabaticity check is the Gauss rule of x_f = a + a' on a window of field
levels: the eigenvalues of its Jacobi matrix and their eigenvector components
(Golub and Welsch, Math. Comp. 23, 221, 1969), from numpy's eigh.  The module
needs only numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagonalization import (
    DiagParams,
    PhysicalParams,
    _position,
    build_hamiltonian,
    eigenstates,
    forward_map,
    hamiltonian_action,
)
from .fockspace import FockDims, StateVector, number_diagonal, truncation_tail
from .geomphase import PhaseResult, wrap_angle
from .thermo import required_levels, thermal_weights

__all__ = [
    "LoopSpec",
    "EvolutionSpec",
    "OracleError",
    "EigenPair",
    "BerryLoopResult",
    "numeric_eigenpair",
    "numeric_eigenpairs",
    "pancharatnam_product",
    "discrete_berry_loop",
    "discrete_berry_loops",
    "partial_sum_from_eps",
    "excitation_probability_per_cycle",
    "thermal_excitation_per_cycle",
    "berry_connection_v",
    "rotation_covariance_residual",
]

TRUNCATION_GATE = 1e-8       # top-two-level amplitude above this refuses certification
LEVEL_CROSSING_OVERLAP = 0.99
AMBIGUITY_OVERLAP = 0.9
NORM_DRIFT_LIMIT = 1e-12     # unitarity check of the detector propagator, on every node
RQI_MAX_STEPS = 8            # shifted solves before the iteration refuses
RQI_TOL = 1e-13              # converged once |H v - sigma v| <= this times max |diag H|
MAX_WINDOW = 2048            # field-window half-width cap: eigh of 4097 levels, ~650 MB
THERMAL_NODES = 80           # first Gauss-Hermite node count of the thermal mixture
MAX_NODES = 320              # node-doubling cap on cost: one detector drive per node
NODE_TOL = 1e-9              # converged once a doubling moves P by at most this times max P,
POPULATION_FLOOR = np.finfo(float).eps ** 2  # or by at most this, where P is rounding noise
DETECTOR_LEVELS = 4          # detector levels the adiabaticity propagator keeps


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
    """Taken and ignored by the adiabaticity functions, which propagate each
    cycle exactly; kept because perfbench passes one and reads
    ``resolved_steps_per_cycle``."""

    steps_per_cycle: int = 400

    def __post_init__(self):
        if self.steps_per_cycle < 100:
            raise ValueError("need at least 100 steps per cycle")

    def resolved_steps_per_cycle(self, Omega_a: float) -> int:
        """The step-count floor; ``Omega_a`` is unused and kept for existing callers."""
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
    dims: FockDims  # the truncation the eigenvector passed the gates at


def _sweep(diag: list, couple: list, lam: np.ndarray, sigma: np.ndarray, rhs: list) -> list:
    """(H - sigma)^{-1} rhs for a stack of k symmetric block-tridiagonal H: block
    f of pair i is diag(diag[f][i]) and H[f+1, f] = lam[i] couple[f].  Block-Thomas
    elimination S_{f+1} = D_{f+1} - sigma - lam^2 X_f S_f^{-1} X_f^T, one stacked
    dense solve per block, then back-substitution from the last block; each rhs[f]
    and result block is (k, m_f)."""
    k, sizes = len(sigma), [d.shape[1] for d in diag]
    lam = lam[:, None]
    # S_f^{-1} [X_f^T | y_f] of every block, kept for the back-substitution in
    # one array: one allocation, where a list of blocks fragments the heap
    store = np.empty((len(couple), k, max(sizes), max(sizes) + 1), dtype=rhs[0].dtype)
    schur = _add_diagonal(np.zeros((k, sizes[0], sizes[0])), diag[0] - sigma[:, None])
    y = rhs[0]
    for f, x in enumerate(couple):
        a, b = x.T.shape
        sol = store[f, :, :a, :b + 1]
        sol[...] = np.linalg.solve(schur, np.concatenate(
            [np.broadcast_to(x.T, (k, a, b)), y[:, :, None]], axis=2))
        schur = _add_diagonal(-(lam ** 2)[:, :, None] * (x @ sol[:, :, :b]),
                              diag[f + 1] - sigma[:, None])
        y = rhs[f + 1] - lam * (sol[:, :, b] @ x.T)
    out = [np.linalg.solve(schur, y[:, :, None])[:, :, 0]]
    for f, x in reversed(list(enumerate(couple))):
        a, b = x.T.shape
        gain, part = store[f, :, :a, :b], store[f, :, :a, b]
        out.append(part - lam * (gain @ out[-1][:, :, None])[:, :, 0])
    return out[::-1]


def _add_diagonal(blocks: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Add diag(d[i]) to each block i of the (k, m, m) stack ``blocks``, in place."""
    i = np.arange(d.shape[1])
    blocks[:, i, i] += d
    return blocks


def _shifted_solve(diag: list, couple: list, lam: np.ndarray, sigma: np.ndarray,
                   rhs: list, tol: np.ndarray) -> list:
    """``_sweep``, with a pair whose sigma is an eigenvalue of a leading block to the
    bit (a singular solve) moved to sigma + tol alone: the stack is then solved
    pair by pair, so no other pair's shift changes."""
    try:
        return _sweep(diag, couple, lam, sigma, rhs)
    except np.linalg.LinAlgError:
        if len(sigma) == 1:
            return _sweep(diag, couple, lam, sigma + tol, rhs)
    one = [_shifted_solve([d[[i]] for d in diag], couple, lam[[i]], sigma[[i]],
                          [r[[i]] for r in rhs], tol[[i]]) for i in range(len(sigma))]
    return [np.concatenate(blocks) for blocks in zip(*one)]


def _selected(v: np.ndarray, sigma: float, target: StateVector) -> EigenPair | OracleError:
    """The converged vector ``v`` gauge-fixed (largest component real positive) as
    an EigenPair, or the refusal when it overlaps ``target`` below AMBIGUITY_OVERLAP."""
    vec = v.reshape(-1).astype(complex)
    j = int(np.argmax(np.abs(vec)))
    vec *= np.conj(vec[j]) / abs(vec[j])
    overlap = abs(np.vdot(vec, target.amp))
    if overlap < AMBIGUITY_OVERLAP:
        return OracleError(
            f"eigenvector selection ambiguous: overlap {overlap:.4f} < "
            f"{AMBIGUITY_OVERLAP} (truncation too small or wrong parameters)"
        )
    return EigenPair(value=sigma, vector=StateVector(target.dims, vec), overlap=float(overlap))


def numeric_eigenpairs(
    pps: list[PhysicalParams],
    targets: list[StateVector],
    parity: int,
    starts: list[StateVector | None] | None = None,
) -> list[EigenPair | OracleError]:
    """Eigenpair of the truncated H(0) of each pp of ``pps`` that the target at
    the same position selects, all in the sector (-1)^(n_f + n_d) = (-1)^parity
    of one truncation: the EigenPair, or the OracleError that refused it.

    In field-major order the sector is block tridiagonal in n_f: block f is
    Omega_a f + Omega_b d over its detector levels d, block (f+1, f) is
    lam sqrt(f+1) x_d on them; the lam-free blocks are shared by the stack.
    Rayleigh-quotient iteration starts from each pair's start (its target
    where ``starts`` gives none), sigma its Rayleigh quotient; each step solves
    (H - sigma) w = v for every unconverged pair in one stacked block-Thomas
    sweep (``_shifted_solve``) and moves each sigma to the Rayleigh quotient
    of its w, H v from ``hamiltonian_action``.  A pair leaves the stack once
    |H v - sigma v| <= RQI_TOL max |diag H| of its own H.  Refuses a pair
    after RQI_MAX_STEPS solves, a target or start with weight outside the
    sector, and an overlap with the target below AMBIGUITY_OVERLAP (a
    neighbour: truncation too small or wrong parameters).  Repeated calls
    return identical bits; each vector's largest component is real positive.
    """
    dims = targets[0].dims
    if any(t.dims != dims for t in targets) or len(pps) != len(targets):
        raise ValueError("need one parameter set per target, all targets on one truncation")
    starts = [t if s is None else s for s, t in zip(starts or [None] * len(targets), targets)]
    n_f, n_d = np.ogrid[:dims.n_field, :dims.n_det]
    inside = (n_f + n_d) % 2 == parity
    results: list[EigenPair | OracleError | None] = [None] * len(targets)
    for i, pair in enumerate(zip(targets, starts)):
        if any(s.amp.reshape(inside.shape)[~inside].any() for s in pair):
            results[i] = OracleError("target or start has weight outside the sector")
    at = np.array([i for i, r in enumerate(results) if r is None], dtype=int)  # iterating
    if not len(at):
        return results
    levels = [np.flatnonzero(row) for row in inside]
    x_d = _position(dims.n_det)
    couple = [math.sqrt(f + 1.0) * x_d[np.ix_(levels[f + 1], levels[f])]
              for f in range(dims.n_field - 1)]
    omega_a, omega_b, lam = np.array([(pp.Omega_a, pp.Omega_b, pp.lam) for pp in pps]).T
    diag = [omega_a[:, None] * f + omega_b[:, None] * d for f, d in enumerate(levels)]
    tol = RQI_TOL * (omega_a * (dims.n_field - 1) + omega_b * (dims.n_det - 1))
    v = np.stack([starts[i].amp.reshape(inside.shape) for i in at], axis=-1)
    if not v.imag.any():
        v = v.real
    for step in range(RQI_MAX_STEPS + 1):
        hv = hamiltonian_action([pps[i] for i in at], v)  # zero outside the sector
        sigma = np.einsum("ijk,ijk->k", v.conj(), hv).real
        residual = np.linalg.norm((hv - sigma * v).reshape(-1, len(at)), axis=0)
        done = residual <= tol[at]
        for j in np.flatnonzero(done):
            results[at[j]] = _selected(v[:, :, j], float(sigma[j]), targets[at[j]])
        if step == RQI_MAX_STEPS:
            for j in np.flatnonzero(~done):
                results[at[j]] = OracleError(
                    f"Rayleigh-quotient iteration unconverged after {step} solves "
                    f"(residual {residual[j]:.2e} > {tol[at[j]]:.2e})")
            break
        at, v, sigma = at[~done], v[:, :, ~done], sigma[~done]
        if not len(at):
            break
        rhs = [v[f, lev].T for f, lev in enumerate(levels)]
        blocks = _shifted_solve([d[at] for d in diag], couple, lam[at], sigma, rhs, tol[at])
        v = np.zeros_like(v)
        for f, (lev, block) in enumerate(zip(levels, blocks)):
            v[f, lev] = block.T
        v /= np.linalg.norm(v.reshape(-1, len(at)), axis=0)
    return results


def numeric_eigenpair(pp: PhysicalParams, target: StateVector, parity: int) -> EigenPair:
    """Eigenpair of the truncated H(0) of ``pp`` that ``target`` selects in the
    sector (-1)^(n_f + n_d) = (-1)^parity: a stack of one through
    ``numeric_eigenpairs`` that raises its OracleError."""
    pair = numeric_eigenpairs([pp], [target], parity)[0]
    if isinstance(pair, OracleError):
        raise pair
    return pair


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


def _transported_loop(chi: StateVector, spec: LoopSpec) -> BerryLoopResult | OracleError:
    """Loop phase of the eigenvector ``chi`` of H(0), or the refusal of its gates."""
    tail = truncation_tail(chi)
    if tail > TRUNCATION_GATE:
        return OracleError(f"truncation tail {tail:.3e} exceeds certification gate "
                           f"{TRUNCATION_GATE:.1e}; raise the cutoff")
    w = np.abs(chi.amp) ** 2
    n_f_diag = number_diagonal(chi.dims, "field")
    raw1, ov1 = _loop_raw_phase(w, n_f_diag, spec.n_points)
    if ov1 < LEVEL_CROSSING_OVERLAP:
        return OracleError(f"consecutive overlap {ov1:.4f} < {LEVEL_CROSSING_OVERLAP}")
    raw2, _ = _loop_raw_phase(w, n_f_diag, 2 * spec.n_points)
    raw2 = raw1 + wrap_angle(raw2 - raw1)  # same 2-pi branch before extrapolating
    raw = (4.0 * raw2 - raw1) / 3.0
    return BerryLoopResult(
        PhaseResult(value=wrap_angle(raw), raw=raw),
        error_estimate=abs(raw2 - raw1), truncation_tail=tail, dims=chi.dims,
    )


def _padded(state: StateVector, dims: FockDims) -> StateVector:
    """``state`` on the truncation ``dims`` (as large or larger), zero on the levels it adds."""
    if state.dims == dims:
        return state
    amp = np.zeros((dims.n_field, dims.n_det), dtype=complex)
    amp[:state.dims.n_field, :state.dims.n_det] = state.amp.reshape(
        state.dims.n_field, state.dims.n_det)
    return StateVector(dims, amp)


def discrete_berry_loops(
    dps: list[DiagParams],
    occupations,
    spec: LoopSpec,
    ladder: list[FockDims],
) -> list[BerryLoopResult | OracleError]:
    """Gauge-invariant discrete loop phase of the eigenstate of each pair of a
    dp of ``dps`` and the (n_f, n_d) at the same position of ``occupations``:
    its BerryLoopResult, at the first truncation of ``ladder`` (a sequence of
    growing FockDims) that passes every gate, or the OracleError that refused
    it at the last one.

    The closed-form selection targets are built once, in one batch at
    ``ladder[0]``, and zero-padded to each later rung.  H commutes with the
    parity (-1)^(n_f + n_d), so each rung solves its pending pairs by parity,
    each parity as one stack (``numeric_eigenpairs``).  A pair refused at a
    rung moves to the next one, where its iteration starts from its last
    eigenvector, zero-padded, if that passed the overlap gate, and from its
    padded target otherwise.  The eigenvector is transported around the
    loop with the exact rotation covariance.  The phase is
    Richardson-extrapolated from the N and 2N grids and the reported error
    estimate is |gamma(2N) - gamma(N)|.

    Refuses an occupation at a rung when its eigenvector carries more than
    TRUNCATION_GATE amplitude in the top two levels of either mode, or
    when consecutive overlaps drop below 0.99 (level crossing).
    """
    ladder = list(ladder)
    if not ladder or any(b.n_field < a.n_field or b.n_det < a.n_det
                         for a, b in zip(ladder, ladder[1:])):
        raise ValueError(f"need a non-empty ladder of growing truncations, got {ladder}")
    pps = {dp: forward_map(dp) for dp in dps}
    parities = [(n_f + n_d) % 2 for n_f, n_d in occupations]
    targets = eigenstates(dps, occupations, 0.0, ladder[0])
    results: list[BerryLoopResult | OracleError] = [None] * len(targets)
    starts: list[StateVector | None] = [None] * len(targets)
    pending = range(len(targets))
    for dims in ladder:
        for parity in (0, 1):
            batch = [i for i in pending if parities[i] == parity]
            if not batch:
                continue
            pairs = numeric_eigenpairs(
                [pps[dps[i]] for i in batch],
                [_padded(targets[i], dims) for i in batch], parity,
                [None if starts[i] is None else _padded(starts[i], dims) for i in batch])
            for i, pair in zip(batch, pairs):
                if isinstance(pair, OracleError):
                    results[i], starts[i] = pair, None
                else:
                    results[i], starts[i] = _transported_loop(pair.vector, spec), pair.vector
        pending = [i for i in pending if isinstance(results[i], OracleError)]
    return results


def discrete_berry_loop(
    dp: DiagParams,
    n_f: int,
    n_d: int,
    spec: LoopSpec,
    dims: FockDims,
) -> BerryLoopResult:
    """Loop phase of the (n_f, n_d) eigenstate: a batch of one on the one-rung
    ladder ``[dims]`` through ``discrete_berry_loops`` that raises its OracleError."""
    result = discrete_berry_loops([dp], [(n_f, n_d)], spec, [dims])[0]
    if isinstance(result, OracleError):
        raise result
    return result


def partial_sum_from_eps(eps: float, gamma0: float, r: float, n_max: int) -> PhaseResult:
    """Arg of the explicitly summed weighted phase factors sum_n w_n e^{i gamma_n},
    gamma_n = gamma0 + 2 pi G n with G = 1/2 + eps, w_n the thermal weights at
    squeeze r: the sum is taken as sum_n w_n (-1)^n e^{i (gamma0 + 2 pi eps n)}.

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
    sign = 1.0 - 2.0 * (n % 2)
    z = np.sum(w * sign * np.exp(1j * (gamma0 + 2.0 * math.pi * eps * n)))
    val = float(np.angle(z))
    return PhaseResult(value=val, raw=val)


def rotation_covariance_residual(pp: PhysicalParams, varphi: float, dims: FockDims) -> float:
    """max |H(varphi) - R(-varphi) H(0) R(-varphi)^dag|; exact identity, ~1e-13."""
    r = np.exp(1j * varphi * number_diagonal(dims, "field"))  # diagonal of R(-varphi)
    h_rot = build_hamiltonian(pp, 0.0, dims)  # rotated in place
    h_rot *= r[:, None]
    h_rot *= r.conj()
    h_rot -= build_hamiltonian(pp, varphi, dims)
    return float(np.abs(h_rot).max())


# --------------------------------------------------------------------------
# Detector evolution under the field (adiabaticity check)
# --------------------------------------------------------------------------

def _window(g: float, n0: int, cycles: int) -> int:
    """Field-window half-width for occupation n0, empirical: edge amplitude < 1e-9 measured
    for g <= 0.0075 (both fig6 presets), n0 <= 5000, 1-16 cycles; stronger coupling may retry."""
    return 12 + int(math.ceil(30.0 * g * math.sqrt(n0 + 1.0) * (cycles + 1)))


def _detector_cycles(pp: PhysicalParams, kappa: np.ndarray, start: np.ndarray,
                     cycles: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact evolution of start_k |0_d> under kappa_k x_d(t), one detector of
    DETECTOR_LEVELS levels per drive, in scaled time Omega_a t.  In the frame
    co-rotating with the detector the generator is time-independent,
    K = kappa (b + b') + rho b'b with rho = Omega_b / Omega_a, so c cycles are
    exp(-2 pi i c K) up to a diagonal phase that no population sees.  One
    stacked eigh, K = V diag(w) V^T, gives psi_c = V (e^{-2 pi i c w} * V[0] start)
    at every cycle, the phase evaluated afresh per cycle so that rounding does
    not accumulate.  Refuses when a node's norm moves from |start_k| by more
    than NORM_DRIFT_LIMIT.  Returns sum_{d >= 1} |psi_d|^2 per cycle and drive,
    and the final amplitudes."""
    levels = np.arange(DETECTOR_LEVELS)
    generator = kappa[:, None, None] * _position(DETECTOR_LEVELS)
    generator[:, levels, levels] += (pp.Omega_b / pp.Omega_a) * levels
    w, v = np.linalg.eigh(generator)
    coef = v[:, 0, :] * start[:, None]
    excited = np.empty((cycles, len(start)))
    psi = start[:, None] * (levels == 0)
    for c in range(cycles):
        psi = np.einsum("kij,kj->ki", v, np.exp(-2j * math.pi * (c + 1) * w) * coef)
        excited[c] = np.sum(np.abs(psi[:, 1:]) ** 2, axis=1)
    drift = float(np.abs(np.linalg.norm(psi, axis=1) - np.abs(start)).max())
    if drift > NORM_DRIFT_LIMIT:
        raise OracleError(f"propagator not unitary: norm drift {drift:.3e} "
                          f"exceeds {NORM_DRIFT_LIMIT:g}")
    return excited, psi


def _field_rule(n: int, first: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues xi_j (ascending) of x_f = a + a' on the levels first .. first + n - 1,
    and the eigenvector matrix <first + k | xi_j>: the Gauss rule of x_f on those
    levels (Golub-Welsch).  From level 0 it is the Gauss-Hermite rule of a
    unit-variance Gaussian, xi_j = sqrt(2) t_j with weight |<0|xi_j>|^2 = w_j / sqrt(pi)."""
    return np.linalg.eigh(_position(n, first))


def _evolve(pp: PhysicalParams, n0: int, cycles: int, window: int) -> tuple[np.ndarray, float]:
    """Evolution of |n0_f, 0_d> on a window of field levels.

    Frame rotating with H0, varphi(t) = -Omega_a t: the generator is
    lam x_f x_d(t), x_f = a + a', x_d(t) = b e^{-i Omega_b t} + b' e^{i Omega_b t}.
    The field keeps the levels max(0, n0 - window) .. n0 + window, and each
    eigenvalue xi_j of their x_f drives one detector with strength g xi_j from
    the amplitude <n0 | xi_j> (``_detector_cycles``).  Returns
    sum_{d >= 1} |psi_{n,d}|^2 per cycle and the amplitude on the two edge
    levels at each end of the window (the top end only, from 0).
    """
    low = max(n0 - window, 0)
    xi, vecs = _field_rule(n0 + window - low + 1, low)
    excited, psi = _detector_cycles(pp, (pp.lam / pp.Omega_a) * xi, vecs[n0 - low], cycles)
    edge = vecs[[0, 1, -2, -1] if low > 0 else [-2, -1]] @ psi
    return excited.sum(axis=1), float(np.linalg.norm(edge))


def excitation_probability_per_cycle(
    pp: PhysicalParams,
    cycles: int,
    spec: EvolutionSpec,
    n_field_initial: int = 0,
) -> np.ndarray:
    """P(detector excited) at each cycle boundary, initial state |n0_f, 0_d>
    (see ``_evolve``; ``spec`` is ignored).  An edge amplitude of 1e-6 doubles
    the window, twice at most, and a window above MAX_WINDOW refuses before
    anything is allocated."""
    if pp.lam == 0.0:
        return np.zeros(cycles)
    window = _window(pp.lam / pp.Omega_a, n_field_initial, cycles)
    for _ in range(3):
        if window > MAX_WINDOW:
            raise OracleError(f"field window {window} exceeds the cap {MAX_WINDOW}; "
                              "coupling too strong for this driver")
        out, edge = _evolve(pp, n_field_initial, cycles, window)
        if edge < 1e-6:
            return out
        window *= 2
    raise OracleError("field window kept saturating; coupling too strong for this driver")


@dataclass(frozen=True)
class ThermalExcitation:
    """Thermal-mixture P(detector excited) per cycle, its largest change under the last
    node doubling (``tail_bound``), and the x_f values of the Gauss-Hermite nodes (``grid``)."""

    per_cycle: np.ndarray
    tail_bound: float
    grid: np.ndarray


def thermal_excitation_per_cycle(
    pp: PhysicalParams,
    cycles: int,
    spec: EvolutionSpec,
    r_thermal: float,
) -> ThermalExcitation:
    """Thermal-field excitation probability as one Gaussian expectation.

    x_f commutes with the generator (see ``_evolve``) and is Gaussian with
    variance sigma^2 = cosh 2r in the thermal state of squeeze r, so
    P = sum_i w_i f(g x_i), f from ``_detector_cycles``, over the N-node
    Gauss-Hermite rule (``_field_rule`` on the levels 0 .. N - 1):
    x_i = sigma xi_i and w_i = |<0|xi_i>|^2.  The node count
    doubles from THERMAL_NODES until converged (NODE_TOL, POPULATION_FLOOR) and
    refuses past MAX_NODES.  ``spec`` is ignored.
    """
    if pp.lam == 0.0:
        return ThermalExcitation(np.zeros(cycles), 0.0, np.zeros(0))
    g, sigma = pp.lam / pp.Omega_a, math.sqrt(math.cosh(2.0 * r_thermal))
    nodes, previous = THERMAL_NODES, np.inf
    while nodes <= MAX_NODES:
        xi, vecs = _field_rule(nodes)
        x = sigma * xi
        excited, _ = _detector_cycles(pp, g * x, np.ones(nodes), cycles)
        per_cycle = excited @ vecs[0] ** 2
        change = float(np.abs(per_cycle - previous).max())
        if change <= max(NODE_TOL * per_cycle.max(), POPULATION_FLOOR):
            return ThermalExcitation(per_cycle, change, x)
        nodes, previous = 2 * nodes, per_cycle
    raise OracleError(f"thermal mixture unconverged at {MAX_NODES} nodes (change {change:.2e})")


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
    psi0, psi_up, psi_dn = eigenstates([dp, up, dn], [(n_f, n_d)] * 3, varphi, dims)
    dpsi = (psi_up.amp - psi_dn.amp) / (2.0 * eps)
    return float(np.imag(np.vdot(psi0.amp, dpsi)))
