"""Truncated two-mode bosonic Fock space and the detector-field model on it.

The truncation (``FockDims``), the weight a state keeps in the top two levels of
each mode (``mode_tails``), and the model's operators on the truncated space,
each an action that builds no matrix of the product space: H(0)
(``hamiltonian_action``), the only Hamiltonian the package applies.  U has one
representation, its real 4x4 linear map on the ladder operators
(``_heisenberg_map``): U' is Gaussian, so that map gives each eigenstate
U' |n_f n_d> (``eigenstates``) exactly by recurrence, with no padded space
(Miatto and Quesada, Quantum 4, 366, 2020).  The module needs only numpy; the
package loads it lazily, with ``oracle``.  A state is a real (n_field, n_det)
amplitude array, and a batch the (n_field, n_det, k) stack of them,
amp[n_f, n_d, i] = <n_f n_d|psi_i>; no other form is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagonalization import DiagParams, PhysicalParams, derive_params

__all__ = [
    "FockDims",
    "TruncationWarning",
    "mode_tails",
    "truncation_tail",
    "hamiltonian_action",
    "eigenstates",
]


class TruncationWarning(UserWarning):
    """Requested operation pushes non-negligible amplitude to the cutoff."""


@dataclass(frozen=True)
class FockDims:
    """Cutoffs of the two-mode truncated Fock space.

    ``n_field`` levels 0..n_field-1 for the field mode (a), ``n_det`` levels
    for the detector mode (b).  Total dimension is the product.
    """

    n_field: int
    n_det: int

    def __post_init__(self):
        if self.n_field < 2 or self.n_det < 2:
            raise ValueError(
                "FockDims requires n_field >= 2 and n_det >= 2, got "
                f"({self.n_field}, {self.n_det})"
            )

    @property
    def total(self) -> int:
        return self.n_field * self.n_det


def mode_tails(weights: np.ndarray) -> np.ndarray:
    """The weight the squared amplitudes ``weights`` of an (n_field, n_det) state,
    or of each column of an (n_field, n_det, k) stack, keep in the top two levels
    of the field and of the detector, stacked on a new first axis.  For exact
    amplitudes (``eigenstates``), ``weights[:n, :n]`` gives them at cutoff n."""
    return np.array([weights[-2:, :].sum(axis=(0, 1)), weights[:, -2:].sum(axis=(0, 1))])


def truncation_tail(amp: np.ndarray) -> float:
    """Amplitude norm the (n_field, n_det) state ``amp`` keeps in the top two
    levels of either mode: the root of its two ``mode_tails`` summed."""
    field, det = mode_tails(np.abs(amp) ** 2)
    return float(np.sqrt(field + det))


# --------------------------------------------------------------------------
# The detector-field Hamiltonian and the eigenstates of H(0)
# --------------------------------------------------------------------------

def _position(n: int) -> np.ndarray:
    """a + a' on the n levels 0 .. n - 1."""
    off = np.sqrt(np.arange(1.0, n))
    return np.diag(off, 1) + np.diag(off, -1)


def hamiltonian_action(pp: PhysicalParams | list[PhysicalParams],
                       amp: np.ndarray) -> np.ndarray:
    """H(0) amp for the (n_field, n_det) or (n_field, n_det, k) amplitude array
    ``amp``: Omega_a n_f amp + Omega_b n_d amp + lam X_f amp X_d^T, with
    X_f = a + a' and X_d = b + b', and no operator matrix of the product space;
    real on a real ``amp``.  ``pp`` is one parameter set, or a list of them, one
    per column k.  H at varphi is R(-varphi) H(0) R(-varphi)^dag, with
    R(-varphi) = e^{i varphi n_f}."""
    if isinstance(pp, PhysicalParams):
        omega_a, omega_b, lam = pp.Omega_a, pp.Omega_b, pp.lam
    else:
        omega_a, omega_b, lam = np.array([(p.Omega_a, p.Omega_b, p.lam) for p in pp]).T
    n_field, n_det = amp.shape[:2]
    tail = (1,) * (amp.ndim - 2)
    n_f = np.arange(n_field).reshape((-1, 1) + tail)
    n_d = np.arange(n_det).reshape((1, -1) + tail)
    # X_f on the field axis, then X_d (symmetric) on the detector axis of each field row
    moved = (_position(n_field) @ amp.reshape(n_field, -1)).reshape(amp.shape)
    x_d = _position(n_det)
    coupled = x_d @ moved if amp.ndim == 3 else moved @ x_d
    return (omega_a * n_f + omega_b * n_d) * amp + lam * coupled


def _heisenberg_map(dp: DiagParams) -> np.ndarray:
    """The real 4x4 F with W xi W' = F xi, xi = (a, b, a', b'), for W = R U' =
    S_b(-p) D(-s) S_b(v) S_a(-u): S(t) c S(t)' = c cosh t - c' sinh t,
    D(s) a D(s)' = a cos s - b sin s and D(s) b D(s)' = b cos s + a sin s, and
    the maps of W_1 W_2 compose as F_2 F_1."""
    d = derive_params(dp)

    def squeeze(t_a: float, t_b: float) -> np.ndarray:  # S_a(t_a) S_b(t_b)
        ca, sa, cb, sb = math.cosh(t_a), math.sinh(t_a), math.cosh(t_b), math.sinh(t_b)
        return np.array([[ca, 0, -sa, 0], [0, cb, 0, -sb], [-sa, 0, ca, 0], [0, -sb, 0, cb]])

    c, s = math.cos(d.s), math.sin(d.s)
    beam = np.array([[c, s, 0, 0], [-s, c, 0, 0], [0, 0, c, s], [0, 0, -s, c]])  # D(-s)
    return squeeze(-d.u, dp.v) @ beam @ squeeze(0.0, -d.p)


# Past half its norm lost, a column is mostly a cut through the state's tail;
# callers stay far below (certify's targets lose at most 3e-8 at cutoff 30).
EIGENSTATE_LOSS_GATE = 0.5


def eigenstates(dps: list[DiagParams], occupations, dims: FockDims) -> np.ndarray:
    """Closed-form eigenstates U' |n_f n_d> of H(0) on ``dims``, one unit column
    of the real (n_field, n_det, k) result for each pair of a dp of ``dps`` and
    the (n_f, n_d) at the same position of ``occupations``.  R'(0) = 1, and the
    eigenstate of H(varphi) is e^{i varphi n_f} times the column.

    With W = R U' and its map F (``_heisenberg_map``), a column is
    (W a' W')^n_f (W b' W')^n_d W |00> / sqrt(n_f! n_d!), rows 2 and 3 of F acting
    on the exact vacuum built n_f + n_d levels beyond ``dims`` (each action is
    exact one level short of its input).  So every kept amplitude is exact, and
    a truncation loss 1 - |column|^2 above EIGENSTATE_LOSS_GATE raises ValueError.
    """
    if len(dps) != len(occupations):
        raise ValueError(f"{len(dps)} parameter sets for {len(occupations)} occupations")
    n_f, n_d = np.array(occupations, dtype=int).reshape(-1, 2).T
    maps = {dp: _heisenberg_map(dp) for dp in set(dps)}
    f = np.array([maps[dp] for dp in dps]).reshape(-1, 4, 4)
    extra = int((n_f + n_d).max(initial=0))
    g = np.zeros((dims.n_field + extra, dims.n_det + extra, len(f)))
    # W a W' and W b W', the rows [M N] of F, annihilate W |00>, so
    # sqrt(m_k + 1) G[m + e_k] = sum_j A_kj sqrt(m_j) G[m - e_j] with A = -M^-1 N,
    # from G[0, 0] = det(M)^(-1/2), and det M > 0 along the chain from W = 1
    a = -np.linalg.solve(f[:, :2, :2], f[:, :2, 2:])
    g[0, 0] = np.linalg.det(f[:, :2, :2]) ** -0.5
    root = np.sqrt(np.arange(max(g.shape[:2]), dtype=float))
    # row 0 by the detector step: its odd levels stay 0, its even ones are one product
    odd = root[1:g.shape[1] - 1:2]
    g[0, 2::2] = g[0, 0] * np.cumprod((odd / root[2:g.shape[1]:2])[:, None] * a[:, 1, 1], axis=0)
    step, back = a[:, 0, 1] * root[1:g.shape[1], None], a[:, 0, 0] * root[:, None]
    for j in range(g.shape[0] - 1):  # the field step; root[0] = 0 drops g[-1]
        row = g[j + 1]
        np.multiply(step, g[j, :-1], out=row[1:])
        row += back[j] * g[j - 1]
        row /= root[j + 1]
    r_f, r_d = root[1:g.shape[0], None, None], root[1:g.shape[1], None]
    for count, c in ((n_d, f[:, 3].T), (n_f, f[:, 2].T)):
        for j in range(count.max(initial=0)):  # c_0 a + c_1 b + c_2 a' + c_3 b'
            out = np.zeros_like(g)
            out[:-1] += c[0] * (r_f * g[1:])
            out[:, :-1] += c[1] * (r_d * g[:, 1:])
            out[1:] += c[2] * (r_f * g[:-1])
            out[:, 1:] += c[3] * (r_d * g[:, :-1])
            g = np.where(j < count, out / math.sqrt(j + 1), g)
    g = g[:dims.n_field, :dims.n_det]
    # each column's norm as a contiguous row: one summation order at any batch size
    norm = np.linalg.norm(np.moveaxis(g, 2, 0).reshape(g.shape[2], -1), axis=1)
    loss = 1.0 - norm ** 2
    for i in np.flatnonzero(loss > EIGENSTATE_LOSS_GATE)[:1]:
        raise ValueError(f"occupation ({n_f[i]}, {n_d[i]}) loses {loss[i]:.3g} of its norm "
                         f"to the truncation {dims}, above {EIGENSTATE_LOSS_GATE}")
    return g / norm
