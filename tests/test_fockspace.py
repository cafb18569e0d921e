import numpy as np
import pytest
import scipy.linalg

from berrytherm.fockspace import (
    FockDims,
    OperatorMatrix,
    TruncationWarning,
    basis_state,
    beam_splitter_action,
    displace_two_mode,
    identity,
    ladder,
    matrix_exponential,
    matrix_from_json,
    matrix_to_json,
    number_operator,
    rotate_field,
    squeeze_action,
    squeeze_single,
    state_from_json,
    state_to_json,
    tridiagonal_exp_action,
    truncation_tail,
)


def test_dims_validation():
    with pytest.raises(ValueError):
        FockDims(1, 5)
    with pytest.raises(ValueError):
        FockDims(5, 0)
    assert FockDims(3, 4).total == 12


def test_index_roundtrip_is_bijection():
    dims = FockDims(7, 5)
    seen = set()
    for nf in range(7):
        for nd in range(5):
            idx = dims.index(nf, nd)
            assert dims.unindex(idx) == (nf, nd)
            seen.add(idx)
    assert seen == set(range(dims.total))
    with pytest.raises(IndexError):
        dims.index(7, 0)
    with pytest.raises(IndexError):
        dims.unindex(35)


def test_lower_on_single_quantum():
    dims = FockDims(6, 6)
    a = ladder(dims, "field", "lower")
    out = a @ basis_state(dims, 1, 0).amp
    expect = basis_state(dims, 0, 0)
    np.testing.assert_allclose(out, expect.amp, atol=1e-15)


def test_raise_gives_sqrt2():
    dims = FockDims(6, 6)
    bd = ladder(dims, "detector", "raise")
    out = bd @ basis_state(dims, 0, 1).amp
    assert abs(out[dims.index(0, 2)] - np.sqrt(2)) < 1e-15


def test_commutator_is_one_below_boundary():
    dims = FockDims(9, 7)
    for mode in ("field", "detector"):
        lo = ladder(dims, mode, "lower").toarray()
        hi = ladder(dims, mode, "raise").toarray()
        comm = np.diag(lo @ hi - hi @ lo).real.reshape(9, 7)
        if mode == "field":
            assert np.abs(comm[:-1, :] - 1.0).max() < 1e-14
        else:
            assert np.abs(comm[:, :-1] - 1.0).max() < 1e-14


def test_exp_zero_is_identity():
    dims = FockDims(5, 5)
    z = OperatorMatrix(dims, np.zeros((25, 25)))
    np.testing.assert_allclose(matrix_exponential(z).mat, np.eye(25), atol=1e-15)


def test_exp_number_operator_phases():
    dims = FockDims(6, 4)
    theta = 0.7312
    n_op = number_operator(dims, "field")
    u = matrix_exponential(OperatorMatrix(dims, 1j * theta * n_op.mat))
    for nf in range(6):
        ket = basis_state(dims, nf, 1)
        out = u @ ket
        assert abs(out.amp[dims.index(nf, 1)] - np.exp(1j * theta * nf)) < 1e-13


def test_exp_inverse_pair():
    rng = np.random.default_rng(7)
    dims = FockDims(4, 4)
    m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    m = 0.1 * m
    op = OperatorMatrix(dims, m)
    op_neg = OperatorMatrix(dims, -m)
    prod = matrix_exponential(op).mat @ matrix_exponential(op_neg).mat
    assert np.abs(prod - np.eye(16)).max() < 1e-10


def test_exp_overflow_rejected():
    dims = FockDims(4, 4)
    m = OperatorMatrix(dims, 1e4 * np.eye(16))
    with pytest.raises(OverflowError):
        matrix_exponential(m)


def test_squeeze_identity_at_zero():
    dims = FockDims(8, 8)
    s = squeeze_single(dims, "field", 0.0, 0.0)
    assert np.abs(s.mat - np.eye(64)).max() < 1e-14


def test_squeeze_conjugation_action():
    # S^dag a S = a cosh t + a^dag e^{-i theta} sinh t on low-lying states
    dims = FockDims(40, 2)
    t, theta = 0.2, 0.0
    s = squeeze_single(dims, "field", t, theta).mat
    a = ladder(dims, "field", "lower").toarray()
    ad = a.conj().T
    lhs = s.conj().T @ a @ s
    rhs = a * np.cosh(t) + ad * np.exp(-1j * theta) * np.sinh(t)
    one = basis_state(dims, 1, 0)
    vac = basis_state(dims, 0, 0)
    residual = abs(np.vdot(vac.amp, (lhs - rhs) @ one.amp))
    assert residual < 1e-8
    # full low-block residual, occupation < cutoff/2
    low = [dims.index(nf, nd) for nf in range(12) for nd in range(2)]
    sub = (lhs - rhs)[np.ix_(low, low)]
    assert np.abs(sub).max() < 1e-8


def test_squeeze_unitarity():
    dims = FockDims(30, 30)
    s = squeeze_single(dims, "detector", 0.3, -np.pi)
    assert s.unitarity_defect() < 1e-10


def test_squeeze_truncation_warning():
    with pytest.warns(TruncationWarning):
        squeeze_single(FockDims(6, 6), "field", 1.5, 0.0)


def test_displace_identity_at_zero():
    dims = FockDims(8, 8)
    d = displace_two_mode(dims, 0.0, 0.0)
    assert np.abs(d.mat - np.eye(64)).max() < 1e-13


def test_displace_swap_limit():
    # s = pi/2 swaps the modes: D^dag a D = b on low-lying states
    dims = FockDims(12, 12)
    d = displace_two_mode(dims, np.pi / 2, 0.0).mat
    a = ladder(dims, "field", "lower").toarray()
    b = ladder(dims, "detector", "lower").toarray()
    low = [dims.index(nf, nd) for nf in range(5) for nd in range(5)]
    diff = (d.conj().T @ a @ d - b)[np.ix_(low, low)]
    assert np.abs(diff).max() < 1e-8


def test_displace_number_conjugation_identities():
    # D^dag a'a D = a'a cos^2 s + b'b sin^2 s + (1/2) sin 2s (a'b e^{i phi} + b'a e^{-i phi})
    dims = FockDims(40, 40)
    s, phi = 0.3, 0.7
    d = displace_two_mode(dims, s, phi).mat
    a = ladder(dims, "field", "lower").toarray()
    b = ladder(dims, "detector", "lower").toarray()
    ad, bd = a.conj().T, b.conj().T
    na, nb = ad @ a, bd @ b
    cross = ad @ b * np.exp(1j * phi) + bd @ a * np.exp(-1j * phi)
    low = [dims.index(nf, nd) for nf in range(8) for nd in range(8)]

    lhs = d.conj().T @ na @ d
    rhs = na * np.cos(s) ** 2 + nb * np.sin(s) ** 2 + 0.5 * np.sin(2 * s) * cross
    assert np.abs((lhs - rhs)[np.ix_(low, low)]).max() < 1e-8

    lhs = d.conj().T @ nb @ d
    rhs = na * np.sin(s) ** 2 + nb * np.cos(s) ** 2 - 0.5 * np.sin(2 * s) * cross
    assert np.abs((lhs - rhs)[np.ix_(low, low)]).max() < 1e-8


def test_displace_unitarity():
    dims = FockDims(30, 30)
    assert displace_two_mode(dims, 0.3, 0.7).unitarity_defect() < 1e-10


def test_rotation_eigenaction_and_group_law():
    dims = FockDims(7, 4)
    phi1, phi2 = 0.31, 1.77
    r1 = rotate_field(dims, phi1)
    for nf in range(7):
        ket = basis_state(dims, nf, 2)
        out = r1 @ ket
        assert abs(out.amp[dims.index(nf, 2)] - np.exp(-1j * phi1 * nf)) < 1e-14
    r2 = rotate_field(dims, phi2)
    r12 = rotate_field(dims, phi1 + phi2)
    assert np.abs((r1 @ r2).mat - r12.mat).max() < 1e-12
    assert rotate_field(dims, 0.0).unitarity_defect() < 1e-15


def test_rotation_conjugates_lowering_operator():
    dims = FockDims(6, 3)
    phi = 0.83
    r = rotate_field(dims, phi).mat
    a = ladder(dims, "field", "lower").toarray()
    # R a R^dag = e^{i phi} a, exact (diagonal generator)
    assert np.abs(r @ a @ r.conj().T - np.exp(1j * phi) * a).max() < 1e-14


def test_truncation_tail_detects_top_levels():
    dims = FockDims(6, 6)
    low = basis_state(dims, 1, 1)
    assert truncation_tail(low) == 0.0
    top = basis_state(dims, 5, 0)
    assert truncation_tail(top) == pytest.approx(1.0)


def test_json_roundtrip_matrix_and_state():
    dims = FockDims(3, 3)
    rng = np.random.default_rng(11)
    m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    op = OperatorMatrix(dims, m)
    back = matrix_from_json(matrix_to_json(op))
    np.testing.assert_array_equal(back.mat, op.mat)
    st = basis_state(dims, 2, 1)
    st_back = state_from_json(state_to_json(st))
    np.testing.assert_array_equal(st_back.amp, st.amp)


def test_identity_builder():
    dims = FockDims(4, 4)
    assert np.abs(identity(dims).mat - np.eye(16)).max() == 0.0


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


@pytest.mark.filterwarnings("ignore::berrytherm.fockspace.TruncationWarning")
def test_block_actions_match_dense_builders():
    # rectangular dims: the total-occupation blocks are cut by both cutoffs;
    # the match is exact on the truncated space, so the squeeze tails may be fat
    dims = FockDims(7, 5)
    amp = np.random.default_rng(9).normal(size=(7, 5))
    flat = amp.reshape(-1)
    disp = displace_two_mode(dims, 0.37, 0.0).mat @ flat
    assert np.abs(beam_splitter_action(amp, 0.37).reshape(-1) - disp).max() < 1e-13
    field = squeeze_single(dims, "field", 0.4, 0.0).mat @ flat
    assert np.abs(squeeze_action(amp, 0.4).reshape(-1) - field).max() < 1e-13
    det = squeeze_single(dims, "detector", -0.25, 0.0).mat @ flat
    assert np.abs(squeeze_action(amp.T, -0.25).T.reshape(-1) - det).max() < 1e-13
