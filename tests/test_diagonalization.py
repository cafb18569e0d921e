import json
import math
import random

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply
from sparse_ops import sparse_hamiltonian, sparse_ladder

from berrytherm import cli, reports
from berrytherm.diagonalization import (
    ConstraintError,
    DiagParams,
    InverseMapError,
    PhysicalParams,
    constant_shift,
    derive_params,
    eigenvalue,
    forward_map,
    invert_physical,
    normal_modes,
)
from berrytherm.fockspace import (
    FockDims,
    eigenstates,
    hamiltonian_action,
)

E2 = math.e ** 2
CANONICAL = DiagParams(2e9, 2e9 / E2, 0.3)


def test_C_and_u_definitions():
    dp = DiagParams(2e9, 2e9 / E2, 0.3)
    assert dp.C == pytest.approx(1.0, rel=1e-14)
    assert dp.u == pytest.approx(0.7, rel=1e-14)


def test_constraint_rejected_not_clamped():
    bad = DiagParams(1.0, 1.0, 0.3)  # ratio 1 <= e^{0.6}
    with pytest.raises(ConstraintError, match="exp"):
        derive_params(bad)
    with pytest.raises(ConstraintError):
        derive_params(DiagParams(math.e, 1.0, 0.5))  # boundary ratio == e^{2v}
    with pytest.raises(ConstraintError):
        derive_params(DiagParams(2.0, 1.0, -0.1))


def test_u_hint_consistency_enforced():
    with pytest.raises(ConstraintError, match="u_hint"):
        DiagParams(E2, 1.0, 0.3, u_hint=0.9).validate()
    DiagParams(E2, 1.0, 0.3, u_hint=1.0 - 0.3).validate()


def test_coupling_vanishes_with_v():
    dp_small = DiagParams(E2, 1.0, 1e-8)
    d = derive_params(dp_small)
    assert d.lambda_hat < 1e-3  # ~ sqrt(sinh 2v)
    tiny = forward_map(dp_small)
    assert tiny.lam / tiny.Omega_a < 1e-3


def test_derived_full_set_canonical():
    d = derive_params(CANONICAL)
    assert d.u == pytest.approx(0.7, rel=1e-12)
    assert d.s == pytest.approx(math.atan(math.sqrt(
        E2 * math.sinh(1.4) / math.sinh(0.6))), rel=1e-12)
    # squeezing-elimination identity: g4 vanishes at the constrained phases
    assert abs(d.g4) < 1e-12 * abs(d.g3)
    # the two coupling coefficients coincide
    assert abs(d.g3 - d.g6) < 1e-12 * abs(d.g3)
    # detector-squeeze argument stays inside the principal branch
    assert abs(2 * d.Z / d.Omega_hat_b) < 1.0
    assert d.theta_a == 0.0
    assert d.theta_b == -math.pi
    assert d.phi == 0.0


def test_derived_matches_literal_closed_forms():
    # independently coded forms of the constrained coefficients
    dp = CANONICAL
    wa, wb, v = dp.omega_a, dp.omega_b, dp.v
    u = 0.5 * math.log(wa / wb) - v
    d = derive_params(dp)
    omega_a_lit = (math.sinh(2 * v) * (math.cosh(2 * u) + math.sinh(2 * u) / math.tanh(2 * v))
                   / (math.sinh(2 * v) / wa + math.sinh(2 * u) / wb))
    assert d.g1.real == pytest.approx(omega_a_lit, rel=1e-12)
    omega_hat_lit = (math.sinh(2 * v) * (wa ** 2 * math.sinh(4 * u) / (2 * math.sinh(2 * v))
                                         + wb ** 2 * math.cosh(2 * v))
                     / (wb * math.sinh(2 * v) + wa * math.sinh(2 * u)))
    assert d.Omega_hat_b == pytest.approx(omega_hat_lit, rel=1e-12)
    z_lit = 0.5 * (math.sinh(2 * v) * (wa ** 2 * math.sinh(2 * u) ** 2 / math.sinh(2 * v)
                                       - wb ** 2 * math.sinh(2 * v))
                   / (wb * math.sinh(2 * v) + wa * math.sinh(2 * u)))
    assert d.Z == pytest.approx(z_lit, rel=1e-12)
    lam_hat_lit = (math.sqrt(wa * wb * math.sinh(2 * u) * math.sinh(2 * v))
                   * (wa * math.cosh(2 * u) - wb * math.cosh(2 * v))
                   / (wb * math.sinh(2 * v) + wa * math.sinh(2 * u)))
    assert d.lambda_hat == pytest.approx(lam_hat_lit, rel=1e-12)
    pp = forward_map(dp)
    assert pp.lam == pytest.approx(math.exp(d.p) * d.lambda_hat, rel=1e-12)
    assert pp.Omega_b == pytest.approx(
        math.sqrt(d.Omega_hat_b ** 2 - 4 * d.Z ** 2), rel=1e-12)


def test_forward_positive_on_grid():
    for v in (0.05, 0.2, 0.45):
        for ratio in (math.e, E2, math.e ** 3):
            if ratio <= math.exp(2 * v):
                continue
            pp = forward_map(DiagParams(ratio * 1e9, 1e9, v))
            assert pp.Omega_a > 0 and pp.Omega_b > 0 and pp.lam > 0


def test_roundtrip_resonant_250hz():
    pp = PhysicalParams(2e9, 2e9, 250 * 2 * math.pi)
    dp = invert_physical(pp).params
    back = forward_map(dp)
    assert abs(back.Omega_a / pp.Omega_a - 1) < 1e-10
    assert abs(back.Omega_b / pp.Omega_b - 1) < 1e-10
    assert abs(back.lam / pp.lam - 1) < 1e-10


def test_inverse_34hz_scenario():
    sol = invert_physical(PhysicalParams(2e9, 2e9, 2 * math.pi * 34))
    assert sol.residual < 1e-10
    assert 0 < sol.params.v < 1e-6
    assert not sol.degenerate


def test_inverse_zero_coupling_boundary():
    sol = invert_physical(PhysicalParams(2e9, 3e9, 0.0))
    assert sol.degenerate
    assert sol.params.v == 0.0
    assert sol.params.omega_a == 2e9
    assert sol.params.omega_b == 3e9


def test_inverse_rejects_huge_coupling():
    with pytest.raises(InverseMapError, match="unbound"):
        invert_physical(PhysicalParams(1e9, 1e9, 0.5e9))


def test_inverse_round_trips_at_sigma_1e20():
    # far below any seed bracket: the closed form is exact at lam/Omega_a = 1e-20
    pp = PhysicalParams(1.0, 1.0, 1e-20)
    sol = invert_physical(pp)
    assert sol.residual == 0.0 and sol.iterations == 0
    assert sol.params.v == pytest.approx(0.5e-20, rel=1e-15)
    back = forward_map(sol.params)
    assert (back.Omega_a, back.Omega_b, back.lam) == (pp.Omega_a, pp.Omega_b, pp.lam)


def _random_triples(seed: int, count: int):
    """Laboratory triples with Omega_a in 1e3..1e11, Omega_b/Omega_a in
    0.1..10 and sigma = lam/Omega_a in 1e-4..0.5, log-uniform."""
    rng = random.Random(seed)
    for _ in range(count):
        omega_a = 10.0 ** rng.uniform(3.0, 11.0)
        omega_b = omega_a * 10.0 ** rng.uniform(-1.0, 1.0)
        yield PhysicalParams(omega_a, omega_b, omega_a * 10.0 ** rng.uniform(-4.0, math.log10(0.5)))


def test_inverse_round_trips_on_random_triples():
    solved = 0
    for pp in _random_triples(20141, 1200):
        if 4.0 * pp.lam ** 2 >= pp.Omega_a * pp.Omega_b:
            # the lower normal mode is unbound: no diagonalization exists
            with pytest.raises(InverseMapError, match="unbound"):
                invert_physical(pp)
            continue
        sol = invert_physical(pp)
        assert sol.residual <= 1e-13, pp
        solved += 1
    assert solved >= 1000


def test_normal_modes_are_the_stiffness_eigenvalues():
    # omega_a = Omega_a e^{2u} and omega_b = Omega_a e^{-2v} are the square
    # roots of the eigenvalues of K = [[Omega_a^2, k], [k, Omega_b^2]],
    # k = 2 lam sqrt(Omega_a Omega_b), and cos 2 theta its mixing angle
    for pp in (PhysicalParams(1.0, 1.3, 0.2), PhysicalParams(1.0, 0.6, 0.1),
               PhysicalParams(2.0, 2.0, 0.3)):
        k = 2.0 * pp.lam * math.sqrt(pp.Omega_a * pp.Omega_b)
        stiffness = np.array([[pp.Omega_a ** 2, k], [k, pp.Omega_b ** 2]])
        low, high = np.linalg.eigvalsh(stiffness)
        u, v, cos_2theta, one_plus_cos = normal_modes(pp)
        assert pp.Omega_a * math.exp(2 * u) == pytest.approx(math.sqrt(high), rel=1e-14)
        assert pp.Omega_a * math.exp(-2 * v) == pytest.approx(math.sqrt(low), rel=1e-14)
        h = 0.5 * (pp.Omega_a ** 2 - pp.Omega_b ** 2)
        assert cos_2theta == pytest.approx(h / math.hypot(h, k), rel=1e-14)
        assert one_plus_cos == pytest.approx(1.0 + cos_2theta, rel=1e-14)


def test_normal_modes_refuse_unbound_and_decoupled():
    with pytest.raises(InverseMapError, match="unbound"):
        normal_modes(PhysicalParams(1.0, 0.1, 0.2))
    with pytest.raises(ConstraintError, match="decoupled"):
        normal_modes(PhysicalParams(1.0, 1.0, 0.0))


def test_map_identities_on_grid():
    # forward then inverse recovers dp; inverse then forward recovers pp
    for u_seed in (2e-4, 1e-2, 0.3):
        for v in (2e-4, 1e-3, 5e-3):
            for wb in (1.0, 2.7e8, 6e9):
                dp = DiagParams(wb * math.exp(2 * (u_seed + v)), wb, v)
                pp = forward_map(dp)
                sol = invert_physical(pp)
                assert abs(sol.params.omega_a / dp.omega_a - 1) < 1e-10
                assert abs(sol.params.omega_b / dp.omega_b - 1) < 1e-10
                assert abs(sol.params.v / dp.v - 1) < 1e-9
                back = forward_map(sol.params)
                assert abs(back.Omega_a / pp.Omega_a - 1) < 1e-13
                assert abs(back.Omega_b / pp.Omega_b - 1) < 1e-13
                assert abs(back.lam / pp.lam - 1) < 1e-13


def _action_matrix(pp, dims):
    """The matrix of ``hamiltonian_action``: its action on the identity batch,
    column j the image of basis index j."""
    eye = np.eye(dims.total).reshape(dims.n_field, dims.n_det, dims.total)
    return hamiltonian_action(pp, eye).reshape(dims.total, dims.total)


# The package applies H(0) alone; H(phi) at phi != 0 is the Kronecker reference
# ``sparse_hamiltonian``, so these tests hold the identity H(phi) = R(-phi) H(0)
# R(-phi)^dag that the loop oracle rests on against the package's H(0)

def test_hamiltonian_diagonal_at_zero_coupling():
    dims = FockDims(5, 4)
    pp = PhysicalParams(3.0, 2.0, 0.0)
    expect = np.diag([3.0 * nf + 2.0 * nd for nf in range(5) for nd in range(4)])
    np.testing.assert_allclose(_action_matrix(pp, dims), expect, atol=1e-14)
    np.testing.assert_allclose(sparse_hamiltonian(pp, dims, 0.4).toarray(), expect, atol=1e-14)


def test_hamiltonian_hermitian_any_phase():
    dims = FockDims(8, 8)
    pp = PhysicalParams(1.9, 1.1, 0.4)
    h0 = _action_matrix(pp, dims)
    assert h0.dtype == float  # real at phi = 0
    assert np.abs(h0 - h0.T).max() < 1e-14
    for phi in (0.3, 2.8, -1.2):
        h = sparse_hamiltonian(pp, dims, phi).toarray()
        assert np.abs(h - h.conj().T).max() < 1e-14


def test_hamiltonian_rotation_covariance():
    # H(phi) = R(-phi) H(0) R(-phi)^dag with R the field rotation
    dims = FockDims(10, 10)
    pp = PhysicalParams(1.9, 1.1, 0.4)
    h0 = _action_matrix(pp, dims)
    for phi in (0.3, 1.0, -2.2):
        r = np.exp(1j * phi * _field_occupation(dims))  # diagonal of R(-phi)
        conj = r[:, None] * h0 * r.conj()
        h = sparse_hamiltonian(pp, dims, phi).toarray()
        assert np.abs(h - conj).max() < 1e-12 * pp.Omega_a


@pytest.mark.parametrize("shape", [(2, 2), (8, 8), (7, 5), (24, 24)])
def test_hamiltonian_action_matches_sparse_hamiltonian(shape):
    # the vector action of H(0) equals the Kronecker-built reference on complex
    # batches, with and without the trailing column axis
    dims = FockDims(*shape)
    pp = forward_map(CANONICAL)
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    amp = rng.normal(size=shape + (5,)) + 1j * rng.normal(size=shape + (5,))
    expect = sparse_hamiltonian(pp, dims).toarray() @ amp.reshape(dims.total, 5)
    got = hamiltonian_action(pp, amp).reshape(dims.total, 5)
    rel = np.linalg.norm(got - expect, axis=0) / np.linalg.norm(expect, axis=0)
    assert rel.max() <= 1e-12
    one = hamiltonian_action(pp, amp[:, :, 0]).reshape(-1)
    assert np.linalg.norm(one - expect[:, 0]) <= 1e-12 * np.linalg.norm(expect[:, 0])


def test_diagonalization_chain_reproduces_hamiltonian():
    # every closed-form eigenstate U'|n_f n_d> on the 6x6 low labels is an
    # eigenvector of H(pp) with the closed-form eigenvalue
    dp = DiagParams(math.exp(2 * (0.15 + 0.1)), 1.0, 0.1)  # gentle squeezes
    dims = FockDims(30, 30)
    pp = forward_map(dp)
    h = sparse_hamiltonian(pp, dims, 0.6)
    labels = [(a, b) for a in range(6) for b in range(6)]
    for (a, b), psi in zip(labels, _at_phase(eigenstates([dp] * len(labels), labels, dims),
                                            0.6).T):
        res = np.linalg.norm(h @ psi - eigenvalue(dp, a, b) * psi)
        assert res < 1e-8 * pp.Omega_a, (a, b)
        if a < 3 and b < 3:
            assert res < 1e-11 * pp.Omega_a, (a, b)


def test_eigenstate_decoupling_limits():
    dims = FockDims(12, 12)
    # detuned decoupling: the dressed state collapses onto a single basis
    # state, with the mode labels swapped (omega_a tracks the detector gap)
    dp = invert_physical(PhysicalParams(2e9, 3e9, 2.0)).params
    psi = eigenstates([dp], [(2, 1)], dims)[:, :, 0]
    assert abs(psi[1, 2]) > 1 - 1e-10
    # resonant decoupling: degenerate perturbation theory leaves an equal
    # superposition of the bare pair however small the coupling
    dp_res = invert_physical(PhysicalParams(2e9, 2e9, 2e9 * 1e-9)).params
    pair = eigenstates([dp_res], [(1, 0)], dims)[:, :, 0]
    assert abs(pair[1, 0]) ** 2 == pytest.approx(0.5, abs=1e-6)
    assert abs(pair[0, 1]) ** 2 == pytest.approx(0.5, abs=1e-6)


def test_eigenstate_rayleigh_residual_small_coupling():
    pp = PhysicalParams(2e9, 2e9, 2e9 * 1e-6)
    dp = invert_physical(pp).params
    dims = FockDims(24, 24)
    h = sparse_hamiltonian(pp, dims)
    occupations = ((0, 0), (1, 0), (0, 1))
    for psi in eigenstates([dp] * 3, occupations, dims).reshape(dims.total, -1).T:
        e_val = float(np.real(np.vdot(psi, h @ psi)))
        res = np.linalg.norm(h @ psi - e_val * psi)
        assert res / pp.Omega_a < 1e-6


def test_eigenstate_occupation_guard():
    # |14, 0> at 12 x 12 loses 0.91 of its norm to the truncation
    dims = FockDims(12, 12)
    with pytest.raises(ValueError, match=r"occupation \(14, 0\) loses 0.9\d+ .*FockDims"):
        eigenstates([CANONICAL], [(14, 0)], dims)


def test_label_eigenvalue_shift_scales_quadratically():
    # the dropped zero-point constant ~ lam^2 / (2 Omega) near resonance
    pp1 = PhysicalParams(2e9, 2e9, 2e9 * 1e-4)
    pp2 = PhysicalParams(2e9, 2e9, 2e9 * 1e-5)
    c1 = constant_shift(invert_physical(pp1).params)
    c2 = constant_shift(invert_physical(pp2).params)
    exponent = math.log(c1 / c2) / math.log(10.0)
    assert exponent == pytest.approx(2.0, abs=0.05)
    assert c1 == pytest.approx(pp1.lam ** 2 / (2 * pp1.Omega_a), rel=0.01)


def _field_occupation(dims):
    """n_f at each field-major flat index of ``dims``."""
    return np.repeat(np.arange(dims.n_field), dims.n_det)


def _at_phase(amps, varphi):
    """The closed-form eigenstates of H(varphi), as flat columns, from those of H(0)
    in the (n_field, n_det, k) stack ``amps``: R' = e^{i varphi n_f} on each column."""
    r = np.exp(1j * varphi * np.arange(amps.shape[0]))[:, None, None]
    return (r * amps).reshape(-1, amps.shape[2])


def reference_eigenstate(dp, n_f, n_d, varphi, dims, pad):
    """U' |n_f n_d> as a chain of sparse expm_multiply actions of the whole
    generators on the space ``pad`` times larger than ``dims`` in each mode,
    projected back and normalized: converged only where the pad holds every
    intermediate squeeze of the chain."""
    big = FockDims(math.ceil(dims.n_field * pad), math.ceil(dims.n_det * pad))
    d = derive_params(dp)
    a = sparse_ladder(big, "field")
    b = sparse_ladder(big, "detector")
    ad, bd = a.conj().T.tocsr(), b.conj().T.tocsr()
    x = np.zeros(big.total, dtype=complex)
    x[n_f * big.n_det + n_d] = 1.0  # |n_f n_d>
    # U' = R' Shat' D' S_b' S_a'; each factor is exp(-K) for its generator K
    x = expm_multiply(-0.5 * d.u * (ad @ ad - a @ a), x)          # theta_a = 0
    x = expm_multiply(-0.5 * dp.v * (b @ b - bd @ bd), x)         # theta_b = -pi
    x = expm_multiply(-d.s * (ad @ b - a @ bd), x)
    x = expm_multiply(-0.5 * d.p * (bd @ bd - b @ b), x)
    x = np.exp(1j * varphi * _field_occupation(big)) * x
    amp = x.reshape(big.n_field, big.n_det)[: dims.n_field, : dims.n_det].reshape(-1)
    return amp / np.linalg.norm(amp)


@pytest.mark.parametrize("varphi", [0.4, -2.3])
def test_eigenstate_matches_reference_chain_nonzero_phase(varphi):
    # the reference converges at 8 times the cutoff (96 levels a mode), where
    # 6 times still leaves it 2e-13 off at 16 x 16
    dims = FockDims(12, 12)
    fast = _at_phase(eigenstates([CANONICAL] * 4, reports.CERT_OCCUPATIONS, dims), varphi)
    for occ, state in zip(reports.CERT_OCCUPATIONS, fast.T):
        ref = reference_eigenstate(CANONICAL, occ[0], occ[1], varphi, dims, 8)
        assert np.abs(state - ref).max() <= 1e-13


CERT_GRID_DPS = [DiagParams(ratio, 1.0, v) for v in reports.CERT_GRID_V
                 for ratio in reports.CERT_GRID_RATIO if ratio > math.exp(2 * v)]
RECTANGULAR_DP = DiagParams(math.e ** 3, 1.0, 0.45)
RECTANGULAR_OCCUPATIONS = [(0, 0), (2, 1), (1, 3), (4, 5)]


@pytest.mark.parametrize("dims, dps, occupations", [
    (FockDims(30, 30), [dp for _ in reports.CERT_OCCUPATIONS for dp in CERT_GRID_DPS],
     [occ for occ in reports.CERT_OCCUPATIONS for _ in CERT_GRID_DPS]),
    # total-number blocks of H are cut unevenly by the two cutoffs
    (FockDims(20, 12), [RECTANGULAR_DP] * 4, RECTANGULAR_OCCUPATIONS),
    (FockDims(12, 20), [RECTANGULAR_DP] * 4, RECTANGULAR_OCCUPATIONS),
    (FockDims(12, 12), [CANONICAL], [(6, 0)]),  # half the cutoff, loss 9e-5
], ids=["30x30-grid", "20x12", "12x20", "12x12-n6"])
def test_eigenstate_interior_residual_vanishes(dims, dps, occupations):
    # the truncated H reads one level beyond each row, so on exact amplitudes
    # (H(0) - E) psi vanishes on every row below the top level of both modes,
    # however much of the state the truncation cuts off: a check that needs no
    # reference, which on the same truncation would share the states' error
    amps = eigenstates(dps, occupations, dims)
    for i, (dp, (n_f, n_d)) in enumerate(zip(dps, occupations)):
        pp = forward_map(dp)
        res = hamiltonian_action(pp, amps[:, :, i]) - eigenvalue(dp, n_f, n_d) * amps[:, :, i]
        assert np.linalg.norm(res[:-1, :-1]) <= 1e-12 * pp.Omega_a, (dp, n_f, n_d)


@pytest.mark.parametrize("dims, dps", [
    (FockDims(30, 30), CERT_GRID_DPS),
    (FockDims(78, 78), [DiagParams(math.e ** 3, 1.0, 0.6)]),  # the grid's top rung
    (FockDims(20, 12), [DiagParams(math.e ** 3, 1.0, 0.6)]),
], ids=["30x30-grid", "78x78", "20x12"])
def test_eigenstates_batch_equals_batch_of_one(dims, dps):
    for dp in dps:
        batch = eigenstates([dp] * 4, reports.CERT_OCCUPATIONS, dims)
        assert batch.shape[2] == len(reports.CERT_OCCUPATIONS)
        for i, occ in enumerate(reports.CERT_OCCUPATIONS):
            one = eigenstates([dp], [occ], dims)
            assert np.abs(batch[:, :, i] - one[:, :, 0]).max() <= 1e-15


def test_eigenstates_mixed_dps_equal_per_dp_eigenstate():
    # the whole certify grid in one batch, parameter sets interleaved, as the
    # cutoff-major loop grid calls it
    dims = FockDims(30, 30)
    pairs = [(dp, occ) for occ in reports.CERT_OCCUPATIONS for dp in CERT_GRID_DPS]
    batch = eigenstates([dp for dp, _ in pairs], [occ for _, occ in pairs], dims)
    assert batch.shape[2] == len(pairs) == 32
    for i, (dp, occ) in enumerate(pairs):
        one = eigenstates([dp], [occ], dims)
        assert np.abs(batch[:, :, i] - one[:, :, 0]).max() <= 1e-15


def test_eigenstates_are_real_unit_columns():
    # the one state form: a real (n_field, n_det, k) stack, each column of unit norm
    dims = FockDims(30, 30)
    pairs = [(dp, occ) for occ in reports.CERT_OCCUPATIONS for dp in CERT_GRID_DPS]
    amps = eigenstates([dp for dp, _ in pairs], [occ for _, occ in pairs], dims)
    assert amps.dtype == np.float64 and amps.shape == (30, 30, 32)
    assert np.abs(np.linalg.norm(amps, axis=(0, 1)) - 1.0).max() <= 1e-14


def test_eigenstates_refuses_unpaired_lists():
    with pytest.raises(ValueError, match="parameter sets"):
        eigenstates([CANONICAL], [(0, 0), (1, 0)], FockDims(12, 12))


# eigenstate_residuals_over_Omega_a of `diagonalize` on the resonant
# (gap, gap, coupling) triples: fig3-ghz and fig5-1 as the expm_multiply chain
# reported them, the other presets as the eigh_tridiagonal block kernel did
RESONANT_RESIDUALS = {
    "fig3-ghz": {"0,0": 1.9297800919364738e-19, "1,0": 2.3662368405824812e-15,
                 "0,1": 2.360223521925098e-15},
    "fig5-1": {"0,0": 6.529373783586565e-20, "1,0": 1.1306672765141402e-14,
               "0,1": 1.1468900175864572e-14},
    "fig3-mhz": {"0,0": 3.793120526219484e-17, "1,0": 4.238706425838445e-16,
                 "0,1": 3.7328235168857175e-16},
    "fig3-10mhz": {"0,0": 5.575675834236624e-16, "1,0": 2.010553089686574e-13,
                   "0,1": 2.0112111313203585e-13},
    "fig3-100mhz": {"0,0": 1.4593024120418348e-17, "1,0": 5.732010517173126e-14,
                    "0,1": 5.710898356371238e-14},
    "fig5-2": {"0,0": 3.288519281821187e-20, "1,0": 9.862376960718972e-14,
               "0,1": 9.870795520470553e-14},
    "fig5-3": {"0,0": 3.9901381614470685e-21, "1,0": 5.331201500065075e-16,
               "0,1": 5.960464477860485e-16},
    "fig6-ghz": {"0,0": 1.5764732801688064e-19, "1,0": 2.2899356843082324e-15,
                 "0,1": 2.360223526848111e-15},
    "fig6-mhz": {"0,0": 3.793120526219484e-17, "1,0": 4.238706425838445e-16,
                 "0,1": 3.7328235168857175e-16},
}


def test_resonant_residuals_cover_every_preset():
    assert set(RESONANT_RESIDUALS) == set(cli.PRESETS)


@pytest.mark.parametrize("preset", sorted(RESONANT_RESIDUALS))
def test_diagonalize_resonant_residuals_keep_precision(preset):
    # the expm1 form keeps the weak squeezes exact to relative precision;
    # a plain eigen-synthesis put the fig3-ghz (0,0) entry at ~1e-14
    p = cli.PRESETS[preset]
    report = cli.cmd_diagonalize({"omega_a": p["gap"], "omega_b": p["gap"],
                                  "coupling": p["coupling"]})
    residuals = report["eigenstate_residuals_over_Omega_a"]
    for occ, before in RESONANT_RESIDUALS[preset].items():
        assert residuals[occ] <= 2.0 * before, (occ, residuals[occ], before)


@pytest.mark.parametrize("preset", ["fig3-ghz", "fig5-1", "fig5-2", "fig5-3"])
def test_diagonalize_vacuum_overlap_deviation_is_second_order(preset):
    # <00|U|00> = 1 - sigma^2/8 + ..., sigma = lam / Omega: |1 - z| read off
    # directly loses the whole deviation to the cancellation near 1
    p = cli.PRESETS[preset]
    report = cli.cmd_diagonalize({"omega_a": p["gap"], "omega_b": p["gap"],
                                  "coupling": p["coupling"]})
    sigma = p["coupling"] / p["gap"]
    assert abs(8.0 * report["vacuum_overlap_deviation"] / sigma ** 2 - 1.0) <= sigma


@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_diagonalize_vacuum_column_matches_dense_unitary(preset):
    # the report reads the deviation off the closed-form column U'|00>; the
    # chain of sparse expm_multiply actions of the whole generators must give
    # the same deviation
    p = cli.PRESETS[preset]
    pp = PhysicalParams(p["gap"], p["gap"], p["coupling"])
    report = cli.cmd_diagonalize({"omega_a": pp.Omega_a, "omega_b": pp.Omega_b,
                                  "coupling": pp.lam})
    dp = invert_physical(pp).params
    d = derive_params(dp)
    dims = FockDims(24, 24)
    a = sparse_ladder(dims, "field")
    b = sparse_ladder(dims, "detector")
    ad, bd = a.conj().T.tocsr(), b.conj().T.tocsr()
    col = np.zeros(dims.total, dtype=complex)
    col[0] = 1.0  # |00>
    # U|00> = S_a S_b D Shat_b |00>, each factor exp(K) for its generator K
    col = expm_multiply(0.5 * d.p * (bd @ bd - b @ b), col)
    col = expm_multiply(d.s * (ad @ b - a @ bd), col)
    col = expm_multiply(0.5 * dp.v * (b @ b - bd @ bd), col)     # theta_b = -pi
    col = expm_multiply(0.5 * d.u * (ad @ ad - a @ a), col)      # theta_a = 0
    z = col[0]
    one_minus_re = (np.sum(np.abs(col[1:]) ** 2) + z.imag ** 2) / (1.0 + z.real)
    dense = float(np.hypot(one_minus_re, z.imag))
    assert abs(report["vacuum_overlap_deviation"] - dense) <= 1e-15


@pytest.mark.parametrize("triple", [(1.0, 0.5, 1e-8), (1.0, 0.1, 1e-8), (1.0, 0.9, 1e-12),
                                    (1e9, 9e8, 1e-3)])
def test_inverse_detuned_weak_coupling_round_trips(triple):
    # Omega_b < Omega_a at weak coupling: u sits below the rounding of the
    # stored ratio omega_a/omega_b = e^{2(u+v)}, so positivity rests on u_hint
    pp = PhysicalParams(*triple)
    sol = invert_physical(pp)
    assert 0.0 < sol.params.u < 1e-15
    assert sol.residual <= 1e-11
    back = forward_map(sol.params)
    assert abs(back.Omega_b / pp.Omega_b - 1.0) <= 1e-11
    assert abs(back.lam / pp.lam - 1.0) <= 1e-11


def test_diagonalize_detuned_weak_coupling_exits_ok(tmp_path):
    out = tmp_path / "d.json"
    code = cli.main(["diagonalize", "--omega-a", "1e9", "--omega-b", "9e8",
                     "--coupling", "1e-3", "--out", str(out)])
    assert code == cli.EXIT_OK
    assert json.loads(out.read_text())["round_trip_residual"] <= 1e-11


def test_u_hint_still_rejects_inconsistent_sets():
    # the ratio test is skipped with u_hint set; the drift check is not
    with pytest.raises(ConstraintError, match="u_hint"):
        DiagParams(1.0, 1.0, 0.3, u_hint=1e-20).validate()
    with pytest.raises(ConstraintError, match="u_hint"):
        DiagParams(E2, 1.0, 0.3, u_hint=-0.7).validate()
