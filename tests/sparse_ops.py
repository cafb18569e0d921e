"""scipy.sparse operators on the truncated two-mode space, a test-only
reference where a dense matrix of the whole space would not fit (the padded
eigenstate chain reaches 141 levels a mode).  The package itself builds dense
operators only at small cutoffs (``fockspace.ladder``,
``fockspace.build_hamiltonian``)."""

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


def sparse_hamiltonian(pp, dims) -> sp.csr_matrix:
    """H(0) = Omega_a a'a + Omega_b b'b + lam (b + b')(a + a') as a real CSR matrix."""
    a = sparse_ladder(dims, "field").real
    b = sparse_ladder(dims, "detector").real
    return (pp.Omega_a * (a.T @ a) + pp.Omega_b * (b.T @ b)
            + pp.lam * ((b + b.T) @ (a + a.T))).tocsr()
