import numpy as np
import pytest
import scipy.linalg
from sparse_ops import sparse_ladder

from berrytherm import cli
from berrytherm.fockspace import (
    FockDims,
    TruncationWarning,
    beam_splitter_action,
    squeeze_action,
    tridiagonal_exp_action,
    truncation_tail,
)


def _orthonormal_columns(n: int, k: int, seed: int) -> np.ndarray:
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, k)))
    return q


def _low_columns(dims: FockDims, n_low: int) -> tuple[np.ndarray, list[int]]:
    """Basis columns |n_f n_d>, n_f, n_d < n_low, as an (n_field, n_det, k) array,
    and their flat indices."""
    low = [nf * dims.n_det + nd for nf in range(n_low) for nd in range(n_low)]
    cols = np.zeros((dims.total, len(low)))
    cols[low, np.arange(len(low))] = 1.0
    return cols.reshape(dims.n_field, dims.n_det, -1), low


def test_dims_validation():
    with pytest.raises(ValueError):
        FockDims(1, 5)
    with pytest.raises(ValueError):
        FockDims(5, 0)
    assert FockDims(3, 4).total == 12


def test_squeeze_identity_at_zero():
    x = np.random.default_rng(3).normal(size=(8, 5))
    assert np.array_equal(squeeze_action(x, 0.0), x)


def test_squeeze_conjugation_action():
    # S^dag a S = a cosh t + a^dag sinh t on low-lying states, S = S(t, 0),
    # checked on the basis columns 0 .. 11 of 40 levels, far inside the truncation
    n, t = 40, 0.2
    a = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    low = np.eye(n)[:, :12]
    lhs = squeeze_action(a @ squeeze_action(low, t), -t)
    rhs = (a * np.cosh(t) + a.T * np.sinh(t)) @ low
    assert np.abs((lhs - rhs)[:12]).max() < 1e-8


def test_squeeze_unitarity():
    # S(0.3, -pi) = S(-0.3, 0): orthonormal columns stay orthonormal at any cutoff
    cols = squeeze_action(_orthonormal_columns(30, 8, 4), -0.3)
    assert np.abs(cols.T @ cols - np.eye(8)).max() < 1e-10


def test_squeeze_truncation_warning():
    # u = 0.7 leaves a fat squeezed tail at cutoff 6
    config = {"diag_omega_a": np.e ** 2, "diag_omega_b": 1.0, "diag_v": 0.3, "cutoff": 6}
    with pytest.warns(TruncationWarning, match="cutoff 6"):
        cli.cmd_diagonalize(config)


def test_displace_identity_at_zero():
    amp = np.random.default_rng(5).normal(size=(8, 8, 3))
    assert np.array_equal(beam_splitter_action(amp, 0.0), amp)


def test_displace_swap_limit():
    # s = pi/2 swaps the modes: D^dag a D = b on low-lying states, D = D(s, 0)
    dims = FockDims(12, 12)
    a = sparse_ladder(dims, "field").toarray().real
    b = sparse_ladder(dims, "detector").toarray().real
    cols, low = _low_columns(dims, 5)
    moved = beam_splitter_action(cols, np.pi / 2).reshape(dims.total, -1)
    lhs = beam_splitter_action((a @ moved).reshape(cols.shape), -np.pi / 2)
    diff = lhs.reshape(dims.total, -1) - b @ cols.reshape(dims.total, -1)
    assert np.abs(diff[low]).max() < 1e-8


def test_displace_number_conjugation_identities():
    # D^dag a'a D = a'a cos^2 s + b'b sin^2 s + (1/2) sin 2s (a'b + b'a), and
    # D^dag b'b D with the roles swapped, for D = D(s, 0) on low-lying states
    dims = FockDims(40, 40)
    s = 0.3
    a = sparse_ladder(dims, "field").real
    b = sparse_ladder(dims, "detector").real
    cross = a.T @ b + b.T @ a
    na = np.repeat(np.arange(dims.n_field), dims.n_det)  # occupations, field-major
    nb = np.tile(np.arange(dims.n_det), dims.n_field)
    cols, low = _low_columns(dims, 8)
    flat = cols.reshape(dims.total, -1)
    moved = beam_splitter_action(cols, s).reshape(dims.total, -1)
    c2, s2, x = np.cos(s) ** 2, np.sin(s) ** 2, 0.5 * np.sin(2 * s)

    for n, rhs in ((na, (na * c2 + nb * s2)[:, None] * flat + x * (cross @ flat)),
                   (nb, (na * s2 + nb * c2)[:, None] * flat - x * (cross @ flat))):
        lhs = beam_splitter_action((n[:, None] * moved).reshape(cols.shape), -s)
        assert np.abs((lhs.reshape(dims.total, -1) - rhs)[low]).max() < 1e-8


def test_displace_unitarity():
    cols = _orthonormal_columns(900, 8, 6)
    moved = beam_splitter_action(cols.reshape(30, 30, 8), 0.3).reshape(900, 8)
    assert np.abs(moved.T @ moved - np.eye(8)).max() < 1e-10


def test_truncation_tail_detects_top_levels():
    low, top = np.zeros((6, 6)), np.zeros((6, 6))
    low[1, 1] = top[5, 0] = 1.0  # |1,1> and |5,0>
    assert truncation_tail(low) == 0.0
    assert truncation_tail(top) == pytest.approx(1.0)


def _squeeze_block(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Off-diagonal of a squeeze parity block and its dense generator J."""
    k = np.arange(n - 1, dtype=float)
    beta = np.sqrt((k + 1.0) * (k + 2.0))
    return beta, np.diag(beta, -1) - np.diag(beta, 1)


@pytest.mark.parametrize("c", [0.3, 1.4])
def test_tridiagonal_exp_action_matches_dense_expm(c):
    rng = np.random.default_rng(7)
    for n in range(1, 41):
        beta, gen = _squeeze_block(n)
        x = rng.normal(size=(n, 3))
        x /= np.linalg.norm(x, axis=0)
        expect = scipy.linalg.expm(c * gen) @ x
        out = tridiagonal_exp_action(beta, c, x)
        assert np.abs(out - expect).max() < 1e-12
        assert np.abs(tridiagonal_exp_action(beta, c, x[:, 0]) - expect[:, 0]).max() < 1e-12
        assert np.abs(np.linalg.norm(out, axis=0) - 1.0).max() < 1e-14


def _certify_blocks() -> list[np.ndarray]:
    """Off-diagonals of the blocks the chain meets: squeeze parity blocks and
    beam-splitter total-occupation blocks (cut at both cutoffs) on the certify
    ladder cutoffs and on 141 levels, a cutoff diagonalize sizes for U at strong
    coupling (132 levels at lam/Omega_a = 0.49 on resonance)."""
    out = []
    for n in (30, 44, 60, 78, 141):
        for parity in (0, 1):
            k = np.arange(parity, n - 2, 2, dtype=float)
            out.append(np.sqrt((k + 1.0) * (k + 2.0)))
        for total in (1, n // 2, n - 1, n, 2 * n - 3):
            k = np.arange(max(0, total - n + 1), min(total, n - 1) + 1, dtype=float)
            out.append(np.sqrt((k[:-1] + 1.0) * (total - k[:-1])))
    return out


@pytest.mark.parametrize("c", [1e-9, 0.3, np.pi / 4, 1.4])
def test_tridiagonal_exp_action_matches_dense_expm_on_certify_blocks(c):
    rng = np.random.default_rng(13)
    for beta in _certify_blocks():
        n = len(beta) + 1
        gen = np.diag(beta, -1) - np.diag(beta, 1)
        x = rng.normal(size=(n, 3))
        x /= np.linalg.norm(x, axis=0)
        out = tridiagonal_exp_action(beta, c, x)
        assert np.abs(out - scipy.linalg.expm(c * gen) @ x).max() < 1e-12, n
        assert np.abs(np.linalg.norm(out, axis=0) - 1.0).max() < 1e-14, n


def test_tridiagonal_exp_action_small_angle_change_is_relatively_exact():
    # exp(cJ)x - x = cJ phi1(cJ) x, with phi1 read off the exponential of the
    # augmented block [[cJ, 1], [0, 0]].  Squeezing a basis state by a tiny
    # angle must give the levels it populates to relative precision (a plain
    # V exp(-i c lam) V^T synthesis leaves them ~1e-16 absolute, ~1e-7 relative);
    # on a general x only the final rounding of x + change is allowed on top
    c = 1e-9
    eps = np.finfo(float).eps
    rng = np.random.default_rng(8)
    for n in range(1, 41):
        beta, gen = _squeeze_block(n)
        aug = np.zeros((2 * n, 2 * n))
        aug[:n, :n] = c * gen
        aug[:n, n:] = np.eye(n)
        phi1 = scipy.linalg.expm(aug)[:n, n:]
        starts = [np.eye(n)[j] for j in {0, n // 2, n - 1}]
        for x in starts + [rng.normal(size=n)]:
            x = x / np.linalg.norm(x)
            change = c * gen @ (phi1 @ x)
            out = tridiagonal_exp_action(beta, c, x)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-14
            if n == 1:
                assert np.array_equal(out, x)
                continue
            err = (out - x) - change
            assert np.linalg.norm(err) <= 1e-12 * np.linalg.norm(change) + eps * np.linalg.norm(x)
            off = x == 0.0
            if off.any():
                assert np.linalg.norm(err[off]) <= 1e-12 * np.linalg.norm(change[off])


def test_block_actions_match_dense_expm():
    # both actions against a dense expm of the truncated generator.  Rectangular
    # dims cut the total-occupation blocks by both cutoffs; the match is on the
    # truncated space, so the squeeze tails may be fat
    dims = FockDims(7, 5)
    amp = np.random.default_rng(9).normal(size=(7, 5))
    flat = amp.reshape(-1)
    a = sparse_ladder(dims, "field").toarray().real
    b = sparse_ladder(dims, "detector").toarray().real
    actions = {"field": squeeze_action(amp, 0.4), "detector": squeeze_action(amp.T, -0.25).T}
    for mode, x, t in (("field", a, 0.4), ("detector", b, -0.25)):
        expect = scipy.linalg.expm(0.5 * t * (x.T @ x.T - x @ x))
        assert np.abs(actions[mode].reshape(-1) - expect @ flat).max() <= 1e-13, mode
    expect = scipy.linalg.expm(0.37 * (a.T @ b - a @ b.T))
    action = beam_splitter_action(amp, 0.37).reshape(-1)
    assert np.abs(action - expect @ flat).max() <= 1e-13
