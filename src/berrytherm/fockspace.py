"""Truncated two-mode bosonic Fock space.

Sparse (CSR) ladder operators, tensor embedding, unitary-exact matrix
exponentials, and the squeeze / two-mode displacement / rotation builders
used by the detector-field diagonalization.  The squeeze and beam-splitter
actions on a state split exactly into real tridiagonal blocks and skip the
matrices altogether.  Basis ordering is field-major throughout:
``index = n_f * n_det + n_d``.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

__all__ = [
    "FockDims",
    "OperatorMatrix",
    "StateVector",
    "DensityMatrix",
    "TruncationWarning",
    "ladder",
    "number_operator",
    "identity",
    "matrix_exponential",
    "squeeze_single",
    "displace_two_mode",
    "rotate_field",
    "tridiagonal_exp_action",
    "squeeze_action",
    "beam_splitter_action",
    "basis_state",
    "truncation_tail",
    "matrix_to_json",
    "matrix_from_json",
    "state_to_json",
    "state_from_json",
]

DEFAULT_CUTOFF = 30

# Unitarity / precision targets used by the builders (documented contract):
# every builder output U satisfies ||U^dag U - 1||_max < 1e-10 at the default
# cutoff, and exponentials of anti-Hermitian generators are unitary to
# roundoff by construction (spectral synthesis).
UNITARITY_TOL = 1e-10


class TruncationWarning(UserWarning):
    """Requested operation pushes non-negligible amplitude to the cutoff."""


@dataclass(frozen=True)
class FockDims:
    """Cutoffs of the two-mode truncated Fock space.

    ``n_field`` levels 0..n_field-1 for the field mode (a), ``n_det`` levels
    for the detector mode (b).  Total dimension is the product.
    """

    n_field: int = DEFAULT_CUTOFF
    n_det: int = DEFAULT_CUTOFF

    def __post_init__(self):
        if self.n_field < 2 or self.n_det < 2:
            raise ValueError(
                "FockDims requires n_field >= 2 and n_det >= 2, got "
                f"({self.n_field}, {self.n_det})"
            )

    @property
    def total(self) -> int:
        return self.n_field * self.n_det

    def index(self, n_f: int, n_d: int) -> int:
        """Field-major flat index of |n_f, n_d>."""
        if not (0 <= n_f < self.n_field and 0 <= n_d < self.n_det):
            raise IndexError(f"occupation ({n_f}, {n_d}) outside {self}")
        return n_f * self.n_det + n_d

    def unindex(self, idx: int) -> tuple[int, int]:
        """Inverse of :meth:`index`."""
        if not 0 <= idx < self.total:
            raise IndexError(f"flat index {idx} outside {self}")
        return divmod(idx, self.n_det)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex operator on the truncated two-mode space."""

    dims: FockDims
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.shape != (self.dims.total, self.dims.total):
            raise ValueError(f"matrix shape {m.shape} does not match dims {self.dims}")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator matrix has non-finite entries")
        object.__setattr__(self, "mat", m)

    @property
    def dag(self) -> "OperatorMatrix":
        return OperatorMatrix(self.dims, self.mat.conj().T)

    def __matmul__(self, other):
        if isinstance(other, OperatorMatrix):
            return OperatorMatrix(self.dims, self.mat @ other.mat)
        if isinstance(other, StateVector):
            return StateVector(self.dims, self.mat @ other.amp, normalize=False)
        return NotImplemented

    def unitarity_defect(self) -> float:
        """max-norm of U^dag U - 1."""
        d = self.mat.conj().T @ self.mat - np.eye(self.dims.total)
        return float(np.abs(d).max())


@dataclass(frozen=True)
class StateVector:
    """Complex state vector on the truncated two-mode space.

    Normalized on construction unless ``normalize=False``; a normalized
    vector has unit 2-norm to better than 1e-12.
    """

    dims: FockDims
    amp: np.ndarray = field(repr=False)
    normalize: bool = True

    def __post_init__(self):
        v = np.asarray(self.amp, dtype=complex).reshape(-1)
        if v.shape != (self.dims.total,):
            raise ValueError(f"amplitude length {v.shape} does not match dims {self.dims}")
        if not np.all(np.isfinite(v)):
            raise ValueError("state vector has non-finite entries")
        if self.normalize:
            n = np.linalg.norm(v)
            if n == 0.0:
                raise ValueError("cannot normalize the zero vector")
            v = v / n
        object.__setattr__(self, "amp", v)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amp))

    def overlap(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amp, other.amp))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite (to tolerance) density matrix.

    ``trace_deficit`` records how much trace was lost to truncation; the
    matrix is deliberately NOT renormalized.
    """

    dims: FockDims
    mat: np.ndarray = field(repr=False)
    trace_deficit: float = 0.0

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.shape != (self.dims.total, self.dims.total):
            raise ValueError(f"matrix shape {m.shape} does not match dims {self.dims}")
        herm = np.abs(m - m.conj().T).max()
        if herm > 1e-12:
            raise ValueError(f"density matrix not Hermitian (defect {herm:.2e})")
        object.__setattr__(self, "mat", m)

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.mat)))


def _lower_1mode(n: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[np.arange(n - 1), np.arange(1, n)] = np.sqrt(np.arange(1, n))
    return m


def ladder(dims: FockDims, mode: str, kind: str) -> sp.csr_matrix:
    """Tensor-embedded ladder operator as a complex CSR matrix.

    ``mode`` is ``"field"`` (a) or ``"detector"`` (b); ``kind`` is
    ``"lower"`` or ``"raise"``.  <n-1| lower |n> = sqrt(n) in the designated
    mode, identity on the other.
    """
    if mode == "field":
        single = sp.diags(np.sqrt(np.arange(1, dims.n_field, dtype=float)), 1)
        full = sp.kron(single, sp.identity(dims.n_det), format="csr")
    elif mode == "detector":
        single = sp.diags(np.sqrt(np.arange(1, dims.n_det, dtype=float)), 1)
        full = sp.kron(sp.identity(dims.n_field), single, format="csr")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if kind == "raise":
        full = full.conj().T.tocsr()
    elif kind != "lower":
        raise ValueError(f"unknown kind {kind!r}")
    return full.astype(complex)


def number_operator(dims: FockDims, mode: str) -> OperatorMatrix:
    """a^dag a (or b^dag b) embedded on the two-mode space; exactly diagonal."""
    return OperatorMatrix(dims, np.diag(number_diagonal(dims, mode).astype(complex)))


def number_diagonal(dims: FockDims, mode: str) -> np.ndarray:
    """Occupation of each flat basis index in the given mode."""
    if mode == "field":
        return np.repeat(np.arange(dims.n_field), dims.n_det)
    if mode == "detector":
        return np.tile(np.arange(dims.n_det), dims.n_field)
    raise ValueError(f"unknown mode {mode!r}")


def identity(dims: FockDims) -> OperatorMatrix:
    return OperatorMatrix(dims, np.eye(dims.total, dtype=complex))


def basis_state(dims: FockDims, n_f: int, n_d: int) -> StateVector:
    """|n_f, n_d> as a StateVector."""
    v = np.zeros(dims.total, dtype=complex)
    v[dims.index(n_f, n_d)] = 1.0
    return StateVector(dims, v, normalize=False)


def _expm_dense(m: np.ndarray) -> np.ndarray:
    """exp(m).  Anti-Hermitian generators go through a spectral synthesis so
    the result is unitary to roundoff; everything else uses scaling-and-
    squaring with an overflow check."""
    skew = np.abs(m + m.conj().T).max()
    scale = max(np.abs(m).max(), 1.0)
    if skew <= 1e-13 * scale:
        herm = 1j * m  # Hermitian
        evals, vecs = np.linalg.eigh(herm)
        return (vecs * np.exp(-1j * evals)) @ vecs.conj().T
    nrm = scipy.linalg.norm(m, 1)
    if nrm > 500.0:
        raise OverflowError(f"matrix exponential of generator with 1-norm {nrm:.3g} would overflow")
    out = scipy.linalg.expm(m)
    if not np.all(np.isfinite(out)):
        raise OverflowError("matrix exponential overflowed")
    return out


def matrix_exponential(m: OperatorMatrix) -> OperatorMatrix:
    """exp(m) to relative accuracy ~1e-12 (exactly unitary for anti-Hermitian m)."""
    return OperatorMatrix(m.dims, _expm_dense(m.mat))


def _squeeze_1mode(n: int, t: float, theta: float) -> np.ndarray:
    """Single-mode squeeze on an n-level factor: exp(alpha* X^dag^2 - alpha X^2)
    with alpha = (t/2) e^{i theta}, giving S^dag a S = a cosh t + a^dag e^{-i theta} sinh t."""
    x = _lower_1mode(n)
    alpha = 0.5 * t * np.exp(1j * theta)
    gen = np.conj(alpha) * (x.conj().T @ x.conj().T) - alpha * (x @ x)
    return _expm_dense(gen)


def _squeeze_truncation_estimate(n: int, t: float) -> float:
    """Amplitude pushed into the top two levels when squeezing the vacuum.

    Per-pair amplitude ratio of a squeezed vacuum is tanh|t|, so the top-two
    amplitude is ~ tanh|t|^{(n-2)/2}; used as the warning-channel estimate.
    """
    q = np.tanh(abs(t))
    if q == 0.0:
        return 0.0
    return float(q ** ((n - 2) / 2.0))


def squeeze_single(dims: FockDims, mode: str, t: float, theta: float) -> OperatorMatrix:
    """Single-mode squeeze S(t, theta) = exp(alpha* X†² − alpha X²), alpha = (t/2)e^{i theta}.

    Satisfies S^dag X S ≈ X cosh t + X^dag e^{-i theta} sinh t on low-lying
    states.  |t| must keep the squeezed tail inside the cutoff: if the
    estimated top-two-level amplitude exceeds 1e-8 a TruncationWarning is
    emitted carrying the estimate.
    """
    if mode == "field":
        n = dims.n_field
    elif mode == "detector":
        n = dims.n_det
    else:
        raise ValueError(f"unknown mode {mode!r}")
    est = _squeeze_truncation_estimate(n, t)
    if est > 1e-8:
        warnings.warn(
            f"squeeze t={t:.4g} at cutoff {n}: top-two-level amplitude estimate {est:.2e}",
            TruncationWarning,
            stacklevel=2,
        )
    s1 = _squeeze_1mode(n, t, theta)
    if mode == "field":
        full = np.kron(s1, np.eye(dims.n_det))
    else:
        full = np.kron(np.eye(dims.n_field), s1)
    return OperatorMatrix(dims, full)


def displace_two_mode(dims: FockDims, s: float, phi: float) -> OperatorMatrix:
    """Two-mode displacement (beam splitter) D = exp(chi a†b − chi* a b†), chi = s e^{i phi}.

    D^dag a D ≈ a cos s + b e^{i phi} sin s and companions on low-lying
    states; the generator conserves total occupation, so there is no
    truncation loss for states below the cutoff.
    """
    a = ladder(dims, "field", "lower").toarray()
    b = ladder(dims, "detector", "lower").toarray()
    chi = s * np.exp(1j * phi)
    gen = chi * (a.conj().T @ b) - np.conj(chi) * (a @ b.conj().T)
    return OperatorMatrix(dims, _expm_dense(gen))


def rotate_field(dims: FockDims, varphi: float) -> OperatorMatrix:
    """R(varphi) = exp(-i varphi a†a) ⊗ 1.  Diagonal generator: exact at any cutoff."""
    n_f = number_diagonal(dims, "field")
    return OperatorMatrix(dims, np.diag(np.exp(-1j * varphi * n_f)))


_CONJ_I_POWERS = np.array([1.0, -1.0, -1.0, 1.0])  # i^-j, real at even j, imaginary at odd j


def tridiagonal_exp_action(beta: np.ndarray, c: float, x: np.ndarray) -> np.ndarray:
    """exp(c J) x for the real antisymmetric tridiagonal J[k+1, k] = beta[k] = -J[k, k+1].

    With D = diag(i^j), J = -i D T D^-1 for the symmetric tridiagonal T of
    off-diagonal beta, so with T = V diag(lam) V^T

        exp(c J) x = x + D V expm1(-i c lam) V^T D^-1 x.

    The expm1 form keeps x exact and the change relatively accurate when
    c lam is small.  For real x, D^-1 x is real on the even rows and imaginary
    on the odd ones, so the product runs in real arithmetic on the two row
    halves of V.  ``x`` is a real vector or a matrix acted on along axis 0.
    """
    if len(beta) == 0 or not x.any():
        return x.copy()
    lam, vecs = eigh_tridiagonal(np.zeros(len(beta) + 1), beta)
    sign = _CONJ_I_POWERS[np.arange(len(lam)) % 4]
    phase = np.expm1(-1j * c * lam)
    if x.ndim == 2:
        sign, phase = sign[:, None], phase[:, None]
    y = sign * x
    even, odd = vecs[0::2], vecs[1::2]
    w_re, w_im = even.T @ y[0::2], odd.T @ y[1::2]
    out = x.copy()
    out[0::2] += sign[0::2] * (even @ (phase.real * w_re - phase.imag * w_im))
    out[1::2] += sign[1::2] * (odd @ (phase.real * w_im + phase.imag * w_re))
    return out


def squeeze_action(x: np.ndarray, t: float) -> np.ndarray:
    """S(t, 0) x = exp((t/2)(X'^2 - X^2)) x along axis 0 of the real array ``x``.

    X'^2 - X^2 couples levels k and k + 2 with strength sqrt((k+1)(k+2)), so
    the even and the odd levels each form one tridiagonal block.
    """
    n = x.shape[0]
    out = np.empty_like(x)
    for parity in (0, 1):
        k = np.arange(parity, n - 2, 2, dtype=float)
        out[parity::2] = tridiagonal_exp_action(np.sqrt((k + 1.0) * (k + 2.0)), 0.5 * t,
                                                x[parity::2])
    return out


def beam_splitter_action(amp: np.ndarray, s: float) -> np.ndarray:
    """D(s, 0) amp = exp(s (a'b - a b')) amp for the real (n_field, n_det) amplitude array.

    The generator keeps the total occupation N: on |k, N-k> (k field quanta)
    it couples k and k + 1 with strength sqrt((k+1)(N-k)), each block cut at
    both cutoffs exactly as the truncated ladders cut it.
    """
    n_field, n_det = amp.shape
    out = np.empty_like(amp)
    for total in range(n_field + n_det - 1):
        k = np.arange(max(0, total - n_det + 1), min(total, n_field - 1) + 1)
        beta = np.sqrt((k[:-1] + 1.0) * (total - k[:-1]))
        out[k, total - k] = tridiagonal_exp_action(beta, s, amp[k, total - k])
    return out


def truncation_tail(state: StateVector) -> float:
    """Amplitude norm living in the top two levels of either mode.

    Oracle certifications refuse when this exceeds their calibrated gate;
    see oracle module.
    """
    w = np.abs(state.amp.reshape(state.dims.n_field, state.dims.n_det)) ** 2
    top = w[-2:, :].sum() + w[:, -2:].sum()
    return float(np.sqrt(top))


# --- JSON fixtures: complex arrays as nested [re, im] pairs -----------------

def _complex_to_pairs(arr: np.ndarray):
    stacked = np.stack([arr.real, arr.imag], axis=-1)
    return stacked.tolist()


def _pairs_to_complex(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def matrix_to_json(op: OperatorMatrix) -> str:
    return json.dumps(
        {
            "n_field": op.dims.n_field,
            "n_det": op.dims.n_det,
            "entries": _complex_to_pairs(op.mat),
        }
    )


def matrix_from_json(text: str) -> OperatorMatrix:
    d = json.loads(text)
    dims = FockDims(d["n_field"], d["n_det"])
    return OperatorMatrix(dims, _pairs_to_complex(d["entries"]))


def state_to_json(state: StateVector) -> str:
    return json.dumps(
        {
            "n_field": state.dims.n_field,
            "n_det": state.dims.n_det,
            "amplitudes": _complex_to_pairs(state.amp),
        }
    )


def state_from_json(text: str) -> StateVector:
    d = json.loads(text)
    dims = FockDims(d["n_field"], d["n_det"])
    return StateVector(dims, _pairs_to_complex(d["amplitudes"]), normalize=False)
