"""Independent numerical verification of the closed-form phases.

Nothing here consumes the closed-form phase formulas: eigenvectors come from
brute-force solves of the truncated Hamiltonian, loop phases from the field
occupation of those eigenvectors, mixed-state phases from explicit weighted
partial sums, and adiabaticity from the exact propagator of the detector,
whose generator is time-independent in its co-rotating frame.  Closed forms
are only allowed in to select the eigenvector to track and to size its
truncation, never as values: every gate runs on the numerical eigenvector.
Loop eigenpairs come from Rayleigh-quotient iteration in the parity sector of
H(0) that each pair names, block tridiagonal in n_f (Parlett, The Symmetric
Eigenvalue Problem, 4.6).  H(0) is real, so targets and eigenvectors are real
amplitude arrays, each pair a column of one (n_field, n_det, k) stack, as
``fockspace`` builds them.  A loop grid sizes each pair's truncation from the
exact tails of its target, each mode on its own cutoff ladder, and solves the
pairs of each truncation once, both parities together, as one stacked
iteration.  H(varphi) = R(-varphi) H(0) R(-varphi)^dag, so the eigenvector
along the loop is e^{i varphi n_f} chi, and its Berry phase over
varphi -> varphi + 2 pi is 2 pi <n_f>_chi exactly: the limit of the discrete
Pancharatnam loop over that family (Samuel and Bhandari, PRL 60, 2339, 1988).
Adiabaticity comes from the exact covariance propagator of the Gaussian field
and detector (``_gaussian_excitation``), which truncates and samples nothing.
The Fock-state window path (``excitation_probability_per_cycle``) is its
independent reference: a field state's quadrature is the Gauss rule of
x_f = a + a' on a window of field levels (Golub and Welsch, Math. Comp. 23,
221, 1969), each node driving a detector of DETECTOR_LEVELS levels.  x_f has a
zero diagonal, so one SVD of a bidiagonal of half its size gives the rule
(``_field_rule``, ``_golub_kahan_svd``).  The module needs only numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagonalization import DiagParams, OracleError, PhysicalParams, forward_map
from .fockspace import (
    FockDims,
    _position,
    eigenstates,
    hamiltonian_action,
    mode_tails,
    truncation_tail,
)
from .geomphase import PhaseResult, wrap_angle

__all__ = [
    "EvolutionSpec",
    "OracleError",
    "EigenPair",
    "BerryLoopResult",
    "numeric_eigenpairs",
    "thermal_weights",
    "required_levels",
    "discrete_berry_loops",
    "partial_sum_from_eps",
    "excitation_probability_per_cycle",
    "thermal_excitation_per_cycle",
]

TRUNCATION_GATE = 1e-8       # top-two-level amplitude above this refuses certification
AMBIGUITY_OVERLAP = 0.9
NORM_DRIFT_LIMIT = 1e-12     # unitarity check of the detector propagator, on every node
RQI_MAX_STEPS = 8            # shifted solves before the iteration refuses
RQI_TOL = 1e-13              # converged once |H v - sigma v| <= this times max |diag H|
MAX_WINDOW = 2048            # field-window half-width cap: 4097-level rule ~4 s, ~300 MB (2 vCPUs)
CYCLE_BLOCK = 1 << 15        # detector amplitudes per block of cycles: 0.5 MB per temporary
DETECTOR_LEVELS = 4          # detector levels the Fock-state window propagator keeps
TAYLOR_NORM = 0.5            # largest 1-norm the exponential's argument is scaled to
# 1/k! for k = 0 .. 15 as the coefficients of I, X, X^2, X^3 in each power of X^4
TAYLOR_BLOCKS = np.array([1.0 / math.factorial(k) for k in range(16)]).reshape(4, 4)
TAIL_TARGET = 1e-12          # geometric tail a truncated thermal state leaves out


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
    vector: np.ndarray  # real (n_field, n_det), unit norm, largest component positive
    overlap: float


@dataclass(frozen=True)
class BerryLoopResult:
    phase: PhaseResult
    truncation_tail: float
    dims: FockDims  # the truncation the eigenvector passed the gates at


def _sweep(shifted: np.ndarray, couple: np.ndarray, parity: np.ndarray, lam: np.ndarray,
           rhs: np.ndarray) -> np.ndarray:
    """(H - sigma)^{-1} rhs for a stack of k symmetric block-tridiagonal H - sigma,
    every block m x m: block f of pair i is diag(shifted[f, i]) and
    (H - sigma)[f, f+1] = lam[i] couple[f, parity[i]], ``couple`` holding X_f^T of
    both parities.  Block-Thomas elimination: with T_f = S_f^{-1} [lam X_f^T | y_f],
    one stacked dense solve per block, the product lam X_f T_f gives both
    S_{f+1} = diag(shifted[f+1]) - lam^2 X_f S_f^{-1} X_f^T and
    y_{f+1} = rhs[f+1] - lam X_f S_f^{-1} y_f; then back-substitution from the
    last block.  ``rhs`` and the result are (n_blocks, k, m)."""
    n_blocks, k, m = shifted.shape
    diagonal = np.arange(m) * (m + 1)  # of each flattened m x m block
    # T_f of every block, kept for the back-substitution in one array: one
    # allocation, where a list of blocks fragments the heap.  Block f first
    # holds [lam X_f^T | y_f], the right-hand side of its solve, gathered block
    # by block, as a copy of all the couplings at once would be a second
    # temporary the size of the store
    store = np.empty((n_blocks - 1, k, m, m + 1), dtype=rhs.dtype)
    schur = np.zeros((k, m, m))
    schur.reshape(k, -1)[:, diagonal] = shifted[0]
    y = rhs[0]
    for f in range(n_blocks - 1):
        np.multiply(couple[f, parity], lam[:, None, None], out=store[f, :, :, :m])
        store[f, :, :, m] = y
        sol = np.linalg.solve(schur, store[f])
        update = store[f, :, :, :m].swapaxes(1, 2) @ sol
        store[f] = sol
        schur = np.negative(update[:, :, :m])
        schur.reshape(k, -1)[:, diagonal] += shifted[f + 1]
        y = rhs[f + 1] - update[:, :, m]
    out = np.empty_like(rhs)
    out[-1] = np.linalg.solve(schur, y[:, :, None])[:, :, 0]
    for f in range(n_blocks - 2, -1, -1):
        out[f] = store[f, :, :, m] - (store[f, :, :, :m] @ out[f + 1][:, :, None])[:, :, 0]
    return out


def _shifted_solve(shifted: np.ndarray, couple: np.ndarray, parity: np.ndarray,
                   lam: np.ndarray, rhs: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """``_sweep``, with a pair whose sigma is an eigenvalue of a leading block to the
    bit (a singular solve) moved to sigma + tol alone: the stack is then solved
    pair by pair, so no other pair's shift changes."""
    try:
        return _sweep(shifted, couple, parity, lam, rhs)
    except np.linalg.LinAlgError:
        if len(lam) == 1:
            return _sweep(shifted - tol, couple, parity, lam, rhs)
    return np.concatenate([
        _shifted_solve(shifted[:, [i]], couple, parity[[i]], lam[[i]], rhs[:, [i]], tol[[i]])
        for i in range(len(lam))], axis=1)


def _sector_layout(n_field: int, n_det: int) -> tuple[np.ndarray, np.ndarray]:
    """The detector levels of each field level f in each parity p, as one
    (n_field, 2, m) array, m = ceil(n_det / 2): the levels d with
    (f + d) % 2 == p, ascending, the smaller sector of an odd n_det padded with
    the level n_det, which no level couples to; and the coupling X_f^T =
    sqrt(f + 1) x_d[levels[f, p]][:, levels[f + 1, p]] of every f and p as one
    (n_field - 1, 2, m, m) array, both by one fancy index."""
    m = (n_det + 1) // 2
    levels = np.minimum((np.arange(n_field)[:, None, None] + np.arange(2)[:, None]) % 2
                        + 2 * np.arange(m), n_det)
    x_d = np.zeros((n_det + 1, n_det + 1))
    x_d[:n_det, :n_det] = _position(n_det)
    couple = x_d[levels[:-1, :, :, None], levels[1:, :, None, :]]
    return levels, np.sqrt(np.arange(1.0, n_field))[:, None, None, None] * couple


def _selected(v: np.ndarray, sigma: float, target: np.ndarray) -> EigenPair | OracleError:
    """The converged (n_field, n_det) vector ``v`` gauge-fixed (largest component
    positive) as an EigenPair, or the refusal when it overlaps ``target`` below
    AMBIGUITY_OVERLAP."""
    vec = v * math.copysign(1.0, v.flat[np.argmax(np.abs(v))])
    overlap = abs(float(np.vdot(vec, target)))
    if overlap < AMBIGUITY_OVERLAP:
        return OracleError(
            f"eigenvector selection ambiguous: overlap {overlap:.4f} < "
            f"{AMBIGUITY_OVERLAP} (truncation too small or wrong parameters)"
        )
    return EigenPair(value=sigma, vector=vec, overlap=overlap)


def numeric_eigenpairs(
    pps: list[PhysicalParams],
    targets: np.ndarray,
    parities,
) -> list[EigenPair | OracleError]:
    """Eigenpair of the truncated H(0) of each pp of ``pps`` that the column at
    the same position of the real (n_field, n_det, k) stack ``targets`` selects,
    in the sector (-1)^(n_f + n_d) = (-1)^p of the stack's truncation, p the
    entry of ``parities`` (one 0 or 1 per column) at that position: the
    EigenPair, or the OracleError that refused it.  Each column of ``targets``
    is normalized; a stack of another shape, with a complex or non-finite
    entry or with a zero column, or parities that are not one 0 or 1 per
    column, raise ValueError.

    In field-major order a sector is block tridiagonal in n_f: block f is
    Omega_a f + Omega_b d over its detector levels d, block (f+1, f) is
    lam sqrt(f+1) x_d on them.  The levels and the lam-free couplings of both
    parities are laid out once per call (``_sector_layout``); every block has
    ceil(n_det / 2) levels, the smaller sector of an odd n_det padded with one
    level that nothing couples to, on which the shifted block is 1 and the
    right-hand side 0, so both sectors take one code path.
    Rayleigh-quotient iteration starts from each pair's target, sigma its
    Rayleigh quotient; each step solves
    (H - sigma) w = v for every unconverged pair, of either parity, in one
    stacked block-Thomas sweep (``_shifted_solve``) and moves each sigma to the
    Rayleigh quotient of its w, H v from ``hamiltonian_action``.  A pair leaves
    the stack once |H v - sigma v| <= RQI_TOL max |diag H| of its own H.
    Refuses a pair after RQI_MAX_STEPS solves, a target with weight outside
    its sector, and an overlap with the target below
    AMBIGUITY_OVERLAP (a neighbour: truncation too small or wrong
    parameters).  Repeated calls return identical bits; each vector's largest
    component is positive.
    """
    shape = np.shape(targets)[:2] + (len(pps),)
    targets = np.asarray(targets)
    norm = np.linalg.norm(targets, axis=(0, 1)) if targets.shape == shape else None
    if (norm is None or np.iscomplexobj(targets) or not np.isfinite(targets).all()
            or not norm.all()):
        raise ValueError(f"need a real, finite {shape} target stack with no zero column, "
                         f"got {targets.dtype} {targets.shape}")
    targets = targets / norm
    parity = np.asarray(parities)
    if (parity.shape != shape[2:] or parity.dtype.kind not in "iu"
            or not np.isin(parity, (0, 1)).all()):
        raise ValueError(f"need one parity, 0 or 1, per column, got {parities!r}")
    n_field, n_det, _ = shape
    n_f, n_d = np.ogrid[:n_field, :n_det]
    other = ((n_f + n_d)[:, :, None] + parity) % 2 == 1  # each column's other sector
    outside = np.where(other, targets, 0.0).any(axis=(0, 1))
    results: list[EigenPair | OracleError | None] = [
        OracleError("target has weight outside the sector") if out else None
        for out in outside]
    at = np.flatnonzero(~outside)  # iterating
    if not len(at):
        return results
    levels, couple = _sector_layout(n_field, n_det)
    levels = levels[:, parity]  # (n_field, k, m): the detector levels of each pair's blocks
    padding = levels == n_det
    omega_a, omega_b, lam = np.array([(pp.Omega_a, pp.Omega_b, pp.lam) for pp in pps]).T
    energy = omega_a[:, None] * np.arange(n_field)[:, None, None] + omega_b[:, None] * levels
    tol = RQI_TOL * (omega_a * (n_field - 1) + omega_b * (n_det - 1))
    v = targets[:, :, at]
    for step in range(RQI_MAX_STEPS + 1):
        hv = hamiltonian_action([pps[i] for i in at], v)  # zero outside each sector
        sigma = np.einsum("ijk,ijk->k", v, hv)
        residual = np.linalg.norm((hv - sigma * v).reshape(-1, len(at)), axis=0)
        done = residual <= tol[at]
        for j in np.flatnonzero(done):
            results[at[j]] = _selected(v[:, :, j], float(sigma[j]), targets[:, :, at[j]])
        if step == RQI_MAX_STEPS:
            for j in np.flatnonzero(~done):
                results[at[j]] = OracleError(
                    f"Rayleigh-quotient iteration unconverged after {step} solves "
                    f"(residual {residual[j]:.2e} > {tol[at[j]]:.2e})")
            break
        at, v, sigma = at[~done], v[:, :, ~done], sigma[~done]
        if not len(at):
            break
        # the blocks of v, and back, through a padded detector level n_det that stays 0
        index = levels[:, at].transpose(0, 2, 1)
        full = np.concatenate([v, np.zeros((n_field, 1, len(at)))], axis=1)
        rhs = np.take_along_axis(full, index, axis=1).transpose(0, 2, 1)
        shifted = np.where(padding[:, at], 1.0, energy[:, at] - sigma[:, None])
        w = _shifted_solve(shifted, couple, parity[at], lam[at], rhs, tol[at])
        np.put_along_axis(full, index, w.transpose(0, 2, 1), axis=1)
        v = full[:, :n_det]
        v = v / np.linalg.norm(v.reshape(-1, len(at)), axis=0)
    return results


def _transported_loop(chi: np.ndarray) -> BerryLoopResult | OracleError:
    """Loop phase 2 pi <n_f> of the (n_field, n_det) unit eigenvector ``chi`` of
    H(0), or the refusal of its truncation gate."""
    tail = truncation_tail(chi)
    if tail > TRUNCATION_GATE:
        return OracleError(f"truncation tail {tail:.3e} exceeds certification gate "
                           f"{TRUNCATION_GATE:.1e}; raise the cutoff")
    raw = 2.0 * math.pi * float(np.arange(chi.shape[0]) @ (chi ** 2).sum(axis=1))
    return BerryLoopResult(PhaseResult(value=wrap_angle(raw), raw=raw),
                           truncation_tail=tail, dims=FockDims(*chi.shape))


def discrete_berry_loops(
    dps: list[DiagParams],
    occupations,
    ladder: list[FockDims],
) -> list[BerryLoopResult | OracleError]:
    """Loop phase of the numerical eigenstate of each pair of a
    dp of ``dps`` and the (n_f, n_d) at the same position of ``occupations``:
    its BerryLoopResult, or the OracleError that refused it, at the one
    truncation its selection target sizes.

    Each mode takes the distinct cutoffs that ``ladder`` (a sequence of
    growing FockDims) gives it on its own.  The rungs are walked in order,
    and each builds the exact targets (``eigenstates``) of the pairs not yet
    sized, in one batch.  A mode's cutoff is then its least cutoff, up to the
    rung, whose top two levels of the build's squared amplitudes, over the
    build's whole width in the other mode (``mode_tails``), hold at most
    TRUNCATION_GATE^2 / 2: the two modes' strips of any crop then sum to at
    most the gate's square.  A mode with no such cutoff takes its top cutoff
    once the rung reaches it; a pair is sized once both modes are.  The pairs
    of each truncation are solved once, from their targets cropped from the
    build that sized them, as one stack, both parity sectors of
    (-1)^(n_f + n_d), which H conserves, together (``numeric_eigenpairs``).
    Every gate runs on the numerical eigenvector, so a wrong target can make a
    pair refuse but never pass.  The eigenvector chi is transported around the
    loop with the exact rotation covariance, e^{i varphi n_f} chi, so its phase
    is 2 pi <n_f>_chi (see the module docstring).

    Refuses an occupation when its eigenvector carries more than
    TRUNCATION_GATE amplitude in the top two levels of either mode, and
    passes on the refusals of ``numeric_eigenpairs``.
    """
    ladder = list(ladder)
    if not ladder or any(b.n_field < a.n_field or b.n_det < a.n_det
                         for a, b in zip(ladder, ladder[1:])):
        raise ValueError(f"need a non-empty ladder of growing truncations, got {ladder}")
    cutoffs = [sorted({d.n_field for d in ladder}), sorted({d.n_det for d in ladder})]
    groups: dict[FockDims, list[tuple[int, np.ndarray]]] = {}  # the pairs and targets of each
    unsized = list(range(len(dps)))
    for rung in ladder:
        if not unsized:
            break
        build = eigenstates([dps[i] for i in unsized], [occupations[i] for i in unsized], rung)
        weights = build ** 2
        size = np.zeros((2, len(unsized)), dtype=int)  # 0 where a mode is not sized yet
        for mode, reach in enumerate((rung.n_field, rung.n_det)):
            for c in reversed([c for c in cutoffs[mode] if c <= reach]):  # the least wins
                strip = mode_tails(weights[:c] if mode == 0 else weights[:, :c])[mode]
                size[mode] = np.where(strip <= TRUNCATION_GATE ** 2 / 2, c, size[mode])
            if reach == cutoffs[mode][-1]:
                size[mode, size[mode] == 0] = reach
        for j, i in enumerate(unsized):
            if size[:, j].all():
                n_field, n_det = size[:, j].tolist()
                groups.setdefault(FockDims(n_field, n_det), []).append(
                    (i, build[:n_field, :n_det, j].copy()))  # a copy: the build is freed
        unsized = [i for j, i in enumerate(unsized) if not size[:, j].all()]
    results: list[BerryLoopResult | OracleError] = [None] * len(dps)
    for members in groups.values():
        batch = [i for i, _ in members]
        pairs = numeric_eigenpairs([forward_map(dps[i]) for i in batch],
                                   np.stack([t for _, t in members], axis=2),
                                   [sum(occupations[i]) % 2 for i in batch])
        for i, pair in zip(batch, pairs):
            results[i] = pair if isinstance(pair, OracleError) else _transported_loop(
                pair.vector)
    return results


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


def partial_sum_from_eps(eps: float, gamma0: float, r: float, n_max: int) -> PhaseResult:
    """Arg of the explicitly summed weighted phase factors sum_n w_n e^{i gamma_n},
    gamma_n = gamma0 + 2 pi G n with G = 1/2 + eps, w_n the thermal weights at
    squeeze r: the sum is taken as sum_n w_n (-1)^n e^{i (gamma0 + 2 pi eps n)}.

    Refuses when the geometric tail of ``thermal_weights`` reaches TAIL_TARGET,
    reporting the required n_max.
    """
    w, tail = thermal_weights(r, n_max)
    if tail >= TAIL_TARGET:
        raise OracleError(f"partial-sum tail {tail:.3e} >= {TAIL_TARGET:g}; "
                          f"need n_max >= {required_levels(r)}")
    n = np.arange(n_max + 1)
    sign = 1.0 - 2.0 * (n % 2)
    z = np.sum(w * sign * np.exp(1j * (gamma0 + 2.0 * math.pi * eps * n)))
    val = float(np.angle(z))
    return PhaseResult(value=val, raw=val)


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
    not accumulate.  The cycles go in blocks of at most CYCLE_BLOCK amplitudes,
    one numpy call per step for a whole block.  Refuses when a node's norm moves
    from |start_k| by more than NORM_DRIFT_LIMIT.  Returns sum_{d >= 1} |psi_d|^2
    per cycle and drive, and the final amplitudes."""
    levels = np.arange(DETECTOR_LEVELS)
    generator = kappa[:, None, None] * _position(DETECTOR_LEVELS)
    generator[:, levels, levels] += (pp.Omega_b / pp.Omega_a) * levels
    w, v = np.linalg.eigh(generator)
    coef = v[:, 0, :] * start[:, None]
    excited = np.empty((cycles, len(start)))
    psi = start[:, None] * (levels == 0)
    block = max(1, CYCLE_BLOCK // coef.size)
    for first in range(0, cycles, block):
        c = np.arange(first + 1, min(first + block, cycles) + 1)
        phase = np.exp(-2j * math.pi * c[:, None, None] * w)
        amps = np.einsum("kij,ckj->cki", v, phase * coef)
        excited[first:first + len(c)] = np.sum(np.abs(amps[:, :, 1:]) ** 2, axis=2)
        psi = amps[-1]
    drift = float(np.abs(np.linalg.norm(psi, axis=1) - np.abs(start)).max())
    if drift > NORM_DRIFT_LIMIT:
        raise OracleError(f"propagator not unitary: norm drift {drift:.3e} "
                          f"exceeds {NORM_DRIFT_LIMIT:g}")
    return excited, psi


def _golub_kahan_svd(beta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U^T, sigma, V) with B = U diag(sigma) V^T, U^T square over the even rows,
    sigma descending, V with one row per odd row, for the bidiagonal B in the
    Golub-Kahan form of the zero-diagonal tridiagonal with off-diagonal ``beta``:
    for the antisymmetric J[k+1, k] = beta[k] = -J[k, k+1], J = [[0, B], [-B^T, 0]]
    on the (even, odd) row split, so B[i, i] = -beta[2i] and B[i, i-1] = beta[2i-1],
    and a zero row pads B^T for odd n.  For odd n the last sigma is the structural
    zero and the last row of U^T its null vector.  LAPACK's Householder
    bidiagonalization leaves B^T (square upper bidiagonal) unchanged, so no
    rounding enters before the bidiagonal SVD itself.  The symmetric tridiagonal
    with the same ``beta`` has the bidiagonal D_e B D_o, D_e = diag((-1)^i) and
    D_o = diag(-(-1)^i): the same singular values, and singular vectors that
    differ only in signs."""
    n_even, n_odd = (len(beta) + 2) // 2, (len(beta) + 1) // 2
    bt = np.zeros((n_even, n_even))
    bt[np.arange(n_odd), np.arange(n_odd)] = -beta[0::2]
    bt[np.arange(n_even - 1), np.arange(1, n_even)] = beta[1::2]
    v, sigma, ut = np.linalg.svd(bt)
    return ut, sigma, v[:n_odd]


def _field_rule(n: int, first: int, rows: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss rule of x_f = a + a' on the levels first .. first + n - 1
    (Golub-Welsch): its eigenvalues xi_j, ascending, and for each k of ``rows``
    the row <first + k | xi_j> of eigenvector amplitudes.

    x_f has a zero diagonal, so on the (even, odd) level split it is the
    Golub-Kahan form [[0, B], [B^T, 0]] of a half-size bidiagonal B, whose SVD
    (``_golub_kahan_svd``, with the signs (-1)^((k+1)//2) per level that turn its
    antisymmetric form into x_f) gives the whole rule: each singular triple
    (sigma, u, v) gives the nodes -sigma and +sigma with the eigenvectors
    (u, -v) / sqrt(2) and (u, v) / sqrt(2), and odd n adds the node 0 with the
    null vector (u_0, 0).  Only the requested rows are formed, never the n x n
    eigenvector matrix.  From level 0 it is the Gauss-Hermite rule of a
    unit-variance Gaussian, xi_j = sqrt(2) t_j with weight |<0|xi_j>|^2 = w_j / sqrt(pi)."""
    ut, sigma, v = _golub_kahan_svd(np.sqrt(np.arange(first + 1.0, first + n)))
    m, k = n // 2, np.asarray(rows)
    even = k % 2 == 0
    part = np.empty((len(k), len(sigma)))
    part[even], part[~even] = ut.T[k[even] // 2], v[k[~even] // 2]
    part *= np.where((k + 1) // 2 % 2, -1.0, 1.0)[:, None]  # the level signs of x_f
    pair = part[:, :m] / math.sqrt(2.0)  # the nodes +sigma_j, sigma descending
    zero = np.where(even[:, None], part[:, m:], 0.0)  # empty for even n
    amps = np.concatenate([np.where(even, 1.0, -1.0)[:, None] * pair, zero, pair[:, ::-1]],
                          axis=1)
    return np.concatenate([-sigma[:m], np.zeros(n % 2), sigma[m - 1::-1]]), amps


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
    n = n0 + window - low + 1
    edges = [0, 1, n - 2, n - 1] if low > 0 else [n - 2, n - 1]
    xi, amps = _field_rule(n, low, [n0 - low] + edges)
    excited, psi = _detector_cycles(pp, (pp.lam / pp.Omega_a) * xi, amps[0], cycles)
    return excited.sum(axis=1), float(np.linalg.norm(amps[1:] @ psi))


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
    """Thermal-field P(detector excited) per cycle; ``tail_bound`` and ``grid`` are
    0 and empty: the covariance propagator truncates and samples nothing."""

    per_cycle: np.ndarray
    tail_bound: float
    grid: np.ndarray


def _expm(x: np.ndarray) -> np.ndarray:
    """exp of each matrix of the stack ``x``: the degree-15 Taylor polynomial, as
    sum_j X^4j B_j with B_j = sum_i X^i / (4j + i)! (Paterson-Stockmeyer, six
    products), of x scaled to a largest 1-norm of TAYLOR_NORM, squared back
    (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005); it drops TAYLOR_NORM^16/16!."""
    norm = float(np.abs(x).sum(axis=-2).max())
    s = max(0, math.ceil(math.log2(norm / TAYLOR_NORM))) if norm > 0.0 else 0
    x = x * 0.5 ** s
    powers = np.empty((4,) + x.shape)  # I, X, X^2, X^3
    powers[0], powers[1] = np.eye(x.shape[-1]), x
    np.matmul(x, x, out=powers[2])
    np.matmul(powers[2], x, out=powers[3])
    b = (TAYLOR_BLOCKS @ powers.reshape(4, -1)).reshape(powers.shape)
    x4 = powers[2] @ powers[2]
    e = b[3]
    for j in (2, 1, 0):
        e = x4 @ e + b[j]
    for _ in range(s):
        e = e @ e
    return e


def _gaussian_excitation(g: float, rho: float, r: float, times) -> np.ndarray:
    """P(detector excited) at each time of ``times`` (in cycles, >= 0) from the
    field's thermal state of squeeze r and the detector's vacuum.

    The generator g x_f (b + b') + rho b'b of ``_detector_cycles`` is quadratic.
    The quadratures q = (X_f, P_f, X_d, P_d), [X, P] = i, x_f = sqrt(2) X_f, obey
    q' = A q in scaled time Omega_a t, A = [[0, 0, 0, 0], [0, 0, -2g, 0],
    [0, 0, 0, rho], [-2g, 0, -rho, 0]], and D = V - I/2, the covariance's
    deviation from the vacuum's, obeys D' = A D + D A^T + Q, Q = (A + A^T)/2,
    from D(0) = sinh^2 r diag(1, 1, 0, 0).  With exp(t Z) = [[., G], [0, F]],
    Z = 2 pi [[-A, Q], [0, A^T]] per cycle, D = F^T D(0) F + F^T G exactly (Van
    Loan, IEEE Trans. Autom. Control 23, 395, 1978); the last two columns of F
    and G give the detector block M.  t = n + f takes exp(f Z) (``_expm``, none
    at a boundary) times exp(n Z), whose columns for every n up to the largest
    come from O(log n) doubling products.  P = 1 - det(V_d + I/2)^(-1/2)
    (Weedbrook et al., Rev. Mod. Phys. 84, 621, 2012) = 1 - (1 + x)^(-1/2),
    x = tr M + det M, through log1p and expm1, so a P near 1e-10 keeps its
    digits.  x is clipped at 0: each x_f drives the detector into a coherent
    state, so its state is a mixture of coherent states, V_d >= I/2 and x >= 0;
    a negative x is rounding."""
    times = np.asarray(times, dtype=float)
    a = np.array([[0, 0, 0, 0], [0, 0, -2 * g, 0], [0, 0, 0, rho], [-2 * g, 0, -rho, 0]], float)
    z = np.zeros((8, 8))
    z[:4, :4], z[:4, 4:], z[4:, 4:] = -2 * math.pi * a, math.pi * (a + a.T), 2 * math.pi * a.T
    frac, whole = np.modf(times.reshape(-1))
    n, inside = whole.astype(np.int64), np.flatnonzero(frac)
    exps = _expm(np.append(1.0, frac[inside])[:, None, None] * z)
    # rows c < top: the last two columns of exp(c Z) as rows, doubled by one product
    # with exp(done Z) per step; then exp(f Z) exp(n Z) of each time inside a cycle
    top = n.max(initial=0) + 1
    cols = np.empty((top + len(inside), 2, 8))
    cols[0], done, step = np.eye(8)[6:], 1, exps[0]
    while done < top:
        k = min(done, top - done)
        np.matmul(cols[:k].reshape(-1, 8), step.T, out=cols[done:done + k].reshape(-1, 8))
        done, step = done + k, step @ step
    cols[top:] = cols[n[inside]] @ exps[1:].swapaxes(1, 2)
    n[inside] = top + np.arange(len(inside))
    f, f_top = cols[:, :, 4:], cols[:, :, 4:6]  # M = F^T D(0) F + F^T G, per row
    m = f @ cols[:, :, :4].swapaxes(1, 2) + math.sinh(r) ** 2 * (f_top @ f_top.swapaxes(1, 2))
    x = m[:, 0, 0] + m[:, 1, 1] + (m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0])
    return -np.expm1(-0.5 * np.log1p(np.maximum(x[n], 0.0))).reshape(times.shape)


def thermal_excitation_per_cycle(
    pp: PhysicalParams,
    cycles: int,
    spec: EvolutionSpec,
    r_thermal: float,
) -> ThermalExcitation:
    """P(detector excited) at the cycle boundaries 1 .. ``cycles`` from the thermal
    field of squeeze ``r_thermal`` (0: the vacuum) and the detector's vacuum, by the
    exact covariance propagator ``_gaussian_excitation``.  ``spec`` is ignored."""
    per_cycle = _gaussian_excitation(pp.lam / pp.Omega_a, pp.Omega_b / pp.Omega_a, r_thermal,
                                     np.arange(1, cycles + 1))
    return ThermalExcitation(per_cycle, 0.0, np.zeros(0))
