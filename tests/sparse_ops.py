"""scipy.sparse operators on the truncated two-mode space: a test-only
reference, built from Kronecker products and so independent of the package's
actions on amplitude arrays, which build no matrix of the product space.
Sparse, because a dense matrix of the whole space would not fit where the
converged reference eigenstate reaches 96 levels a mode (9216 states); call
``.toarray()`` for a dense reference at small cutoffs.  ``pancharatnam_product``,
the discrete Pancharatnam loop phase, is the reference the tests check the
loop oracle's phase against."""

import numpy as np
import scipy.sparse as sp


def sparse_ladder(dims, mode: str) -> sp.csr_matrix:
    """Tensor-embedded lowering operator of ``mode`` ("field" or "detector")
    as a complex CSR matrix, field-major."""
    if mode == "field":
        single = sp.diags(np.sqrt(np.arange(1, dims.n_field, dtype=float)), 1)
        full = sp.kron(single, sp.identity(dims.n_det), format="csr")
    else:
        single = sp.diags(np.sqrt(np.arange(1, dims.n_det, dtype=float)), 1)
        full = sp.kron(sp.identity(dims.n_field), single, format="csr")
    return full.astype(complex)


def sparse_hamiltonian(pp, dims, varphi: float = 0.0) -> sp.csr_matrix:
    """H(varphi) = Omega_a a'a + Omega_b b'b + lam (b + b')(e^{i varphi} a' + e^{-i varphi} a)
    as a CSR matrix, real at varphi = 0."""
    a = sparse_ladder(dims, "field").real
    b = sparse_ladder(dims, "detector").real
    field = a + a.T
    if varphi != 0.0:
        field = np.exp(1j * varphi) * a.T + np.exp(-1j * varphi) * a
    return (pp.Omega_a * (a.T @ a) + pp.Omega_b * (b.T @ b)
            + pp.lam * ((b + b.T) @ field)).tocsr()


def pancharatnam_product(states) -> tuple[float, float]:
    """Accumulated phase of the closed overlap chain of ``states``.

    Returns (sum of per-step overlap angles including the closing step, and
    the smallest |overlap| seen).  Gauge invariant modulo 2 pi under
    per-state rephasing.
    """
    z = [np.vdot(a, b) for a, b in zip(states, [*states[1:], *states[:1]])]
    return sum(float(np.angle(x)) for x in z), min([1.0, *map(abs, z)])
