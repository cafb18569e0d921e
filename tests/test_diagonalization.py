import math

import random

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.sparse.linalg import expm_multiply

from berrytherm import cli
from berrytherm.diagonalization import (
    EIGENSTATE_PAD,
    ConstraintError,
    DiagParams,
    InverseMapError,
    PhysicalParams,
    TrajectoryPhase,
    build_hamiltonian,
    build_unitary,
    constant_shift,
    derive_params,
    eigenstate,
    eigenstates,
    forward_map,
    _brentq,
    _ratios,
    _uv_from_coords,
    invert_physical,
    inverse_map,
)
from berrytherm.fockspace import (
    FockDims,
    basis_state,
    displace_two_mode,
    ladder,
    number_diagonal,
    rotate_field,
    squeeze_single,
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
    dp = inverse_map(pp)
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


def test_inverse_two_seeds_agree():
    pp = PhysicalParams(2e9, 2e9, 2 * math.pi * 34)
    s1 = invert_physical(pp, seed_shift=0.0)
    s2 = invert_physical(pp, seed_shift=0.25)
    assert abs(s1.params.v - s2.params.v) <= 1e-9 * max(s1.params.v, 1e-300)


def test_inverse_rejects_huge_coupling():
    with pytest.raises(InverseMapError, match="basin"):
        invert_physical(PhysicalParams(1e9, 1e9, 0.5e9))


def _seed_scale_residual(pp: PhysicalParams):
    """The coupling residual f_scale(x1) that invert_physical's seed solves."""
    sigma_t, lnrho = pp.lam / pp.Omega_a, math.log(pp.Omega_b / pp.Omega_a)
    x2 = max(0.5 * lnrho, 0.5 * sigma_t) - max(-0.5 * lnrho, 0.5 * sigma_t)

    def f_scale(x1):
        u, v = _uv_from_coords(x1, x2)
        return math.log(_ratios(u, v)[1] / sigma_t)
    return f_scale


def _both_brentq(f, a, b, **kw):
    """(result or error message) of scipy's brentq and of the port."""
    out = []
    for solver in (brentq, _brentq):
        try:
            out.append(solver(f, a, b, **kw))
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


SEED_BRACKET = (math.log(1e-16), math.log(4.0))


def test_brentq_port_bit_exact_on_presets():
    for p in cli.PRESETS.values():
        f = _seed_scale_residual(PhysicalParams(p["gap"], p["gap"], p["coupling"]))
        ref, port = _both_brentq(f, *SEED_BRACKET, xtol=1e-13)
        assert isinstance(ref, float) and port == ref, (p, ref, port)


def test_brentq_port_bit_exact_on_random_triples():
    rng = random.Random(20141)
    agreed = 0
    for _ in range(1200):
        omega_a = 10.0 ** rng.uniform(3.0, 11.0)
        rho = 10.0 ** rng.uniform(-3.0, 3.0)
        sigma = 10.0 ** rng.uniform(-12.0, math.log10(0.35))
        f = _seed_scale_residual(PhysicalParams(omega_a, rho * omega_a, sigma * omega_a))
        ref, port = _both_brentq(f, *SEED_BRACKET, xtol=1e-13)
        assert port == ref, (omega_a, rho, sigma, ref, port)
        agreed += isinstance(ref, float)
    assert agreed >= 1000


def test_brentq_port_generic_functions_and_endpoints():
    cases = [
        (lambda x: x * x * x - 2.0 * x - 5.0, 2.0, 3.0, {"xtol": 2e-12}),
        (math.cos, 0.0, 2.0, {"xtol": 1e-13}),
        (lambda x: math.exp(x) - 10.0, -5.0, 5.0, {"xtol": 1e-13}),
        (lambda x: x - 1.0, 1.0, 3.0, {"xtol": 1e-13}),    # f(a) == 0
        (lambda x: x - 1.0, -2.0, 1.0, {"xtol": 1e-13}),   # f(b) == 0
        (lambda x: x * x + 1.0, -1.0, 1.0, {"xtol": 1e-13}),  # no sign change
        (lambda x: math.atan(x - 0.3), -1.0, 1.0, {"xtol": 1e-13, "maxiter": 3}),
        (lambda x: x if x < 0.5 else math.nan, -1.0, 1.0, {"xtol": 1e-13}),
    ]
    for f, a, b, kw in cases:
        ref, port = _both_brentq(f, a, b, **kw)
        assert port == ref, (a, b, kw, ref, port)
    assert _brentq(lambda x: x - 1.0, 1.0, 3.0, xtol=1e-13) == 1.0
    assert _brentq(lambda x: x - 1.0, -2.0, 1.0, xtol=1e-13) == 1.0
    with pytest.raises(ValueError, match="different signs"):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-13)


def test_inverse_seed_without_sign_change_is_refused():
    # lam/Omega_a = 1e-20 lies below the coupling at the bracket's low end
    with pytest.raises(InverseMapError,
                       match="seed bisection failed to bracket the coupling: "
                             "f\\(a\\) and f\\(b\\) must have different signs"):
        invert_physical(PhysicalParams(1.0, 1.0, 1e-20))


def test_map_identities_on_grid():
    # forward then inverse recovers dp; inverse then forward recovers pp
    for u_seed in (2e-4, 1e-2, 0.3):
        for v in (2e-4, 1e-3, 5e-3):
            for wb in (1.0, 2.7e8, 6e9):
                dp = DiagParams(wb * math.exp(2 * (u_seed + v)), wb, v)
                pp = forward_map(dp)
                if pp.lam / pp.Omega_a > 0.3:
                    continue
                sol = invert_physical(pp)
                assert abs(sol.params.omega_a / dp.omega_a - 1) < 1e-10
                assert abs(sol.params.omega_b / dp.omega_b - 1) < 1e-10
                assert abs(sol.params.v / dp.v - 1) < 1e-9
                back = forward_map(sol.params)
                assert abs(back.Omega_a / pp.Omega_a - 1) < 1e-10
                assert abs(back.Omega_b / pp.Omega_b - 1) < 1e-10
                assert abs(back.lam / pp.lam - 1) < 1e-10


def test_hamiltonian_diagonal_at_zero_coupling():
    dims = FockDims(5, 4)
    pp = PhysicalParams(3.0, 2.0, 0.0)
    h = build_hamiltonian(pp, 0.4, dims).toarray()
    expect = np.diag([3.0 * nf + 2.0 * nd for nf in range(5) for nd in range(4)])
    np.testing.assert_allclose(h, expect, atol=1e-14)


def test_hamiltonian_hermitian_any_phase():
    dims = FockDims(8, 8)
    pp = PhysicalParams(1.9, 1.1, 0.4)
    for phi in (0.0, 0.3, 2.8, -1.2):
        h = build_hamiltonian(pp, phi, dims).toarray()
        assert np.abs(h - h.conj().T).max() < 1e-14


def test_hamiltonian_rotation_covariance():
    # H(phi) = R(-phi) H(0) R(-phi)^dag with R the field rotation
    dims = FockDims(10, 10)
    pp = PhysicalParams(1.9, 1.1, 0.4)
    for phi in (0.3, 1.0, -2.2):
        h_phi = build_hamiltonian(pp, phi, dims).toarray()
        r = rotate_field(dims, -phi).mat
        conj = r @ build_hamiltonian(pp, 0.0, dims).toarray() @ r.conj().T
        assert np.abs(h_phi - conj).max() < 1e-12 * pp.Omega_a


def test_unitary_chain_zero_generators_is_identity():
    # the omega_a = omega_b limit is excluded by the ratio constraint, so the
    # all-zero chain is composed manually from the builders
    dims = FockDims(8, 8)
    u = (squeeze_single(dims, "field", 0.0, 0.0)
         @ squeeze_single(dims, "detector", 0.0, -math.pi)
         @ displace_two_mode(dims, 0.0, 0.0)
         @ squeeze_single(dims, "detector", 0.0, 0.0)
         @ rotate_field(dims, 0.0))
    assert np.abs(u.mat - np.eye(dims.total)).max() < 1e-13


def test_unitary_is_unitary_at_canonical_dp():
    u = build_unitary(CANONICAL, 0.9, FockDims(30, 30))
    assert u.unitarity_defect() < 1e-10


def test_diagonalization_chain_reproduces_hamiltonian():
    # U^dag H0 U - shift = H(pp) as a matrix identity on low-lying states
    dp = DiagParams(math.exp(2 * (0.15 + 0.1)), 1.0, 0.1)  # gentle squeezes
    dims = FockDims(30, 30)
    d = derive_params(dp)
    pp = forward_map(dp)
    u = build_unitary(dp, 0.6, dims).mat
    n_f = np.repeat(np.arange(30), 30)
    n_d = np.tile(np.arange(30), 30)
    h0 = np.diag(dp.omega_a * n_f + dp.omega_b * n_d).astype(complex)
    lhs = u.conj().T @ h0 @ u - constant_shift(dp, d) * np.eye(900)
    rhs = build_hamiltonian(pp, 0.6, dims).toarray()
    low = [dims.index(a, b) for a in range(6) for b in range(6)]
    assert np.abs((lhs - rhs)[np.ix_(low, low)]).max() < 1e-8 * pp.Omega_a
    corner = [dims.index(a, b) for a in range(3) for b in range(3)]
    assert np.abs((lhs - rhs)[np.ix_(corner, corner)]).max() < 1e-11 * pp.Omega_a


def test_vacuum_matrix_element_weak_coupling():
    # <00|U|00> deviates from 1 only at second order in the coupling
    pp = PhysicalParams(2e9, 2e9, 2e9 * 1e-7)
    dp = inverse_map(pp)
    dims = FockDims(16, 16)
    u = build_unitary(dp, 0.0, dims)
    vac = basis_state(dims, 0, 0)
    dev = abs(1.0 - complex(np.vdot(vac.amp, u.mat @ vac.amp)))
    assert dev < 1e-6
    assert dev < 10 * (1e-7) ** 2  # quadratic scale, generous constant


def test_eigenstate_decoupling_limits():
    dims = FockDims(12, 12)
    # detuned decoupling: the dressed state collapses onto a single basis
    # state, with the mode labels swapped (omega_a tracks the detector gap)
    dp = inverse_map(PhysicalParams(2e9, 3e9, 2.0))
    psi = eigenstate(dp, 2, 1, 0.0, dims)
    assert abs(psi.amp[dims.index(1, 2)]) > 1 - 1e-10
    # resonant decoupling: degenerate perturbation theory leaves an equal
    # superposition of the bare pair however small the coupling
    dp_res = inverse_map(PhysicalParams(2e9, 2e9, 2e9 * 1e-9))
    pair = eigenstate(dp_res, 1, 0, 0.0, dims)
    assert abs(pair.amp[dims.index(1, 0)]) ** 2 == pytest.approx(0.5, abs=1e-6)
    assert abs(pair.amp[dims.index(0, 1)]) ** 2 == pytest.approx(0.5, abs=1e-6)


def test_eigenstate_rayleigh_residual_small_coupling():
    pp = PhysicalParams(2e9, 2e9, 2e9 * 1e-6)
    dp = inverse_map(pp)
    dims = FockDims(24, 24)
    h = build_hamiltonian(pp, 0.0, dims).toarray()
    for occ in ((0, 0), (1, 0), (0, 1)):
        psi = eigenstate(dp, occ[0], occ[1], 0.0, dims).amp
        e_val = float(np.real(np.vdot(psi, h @ psi)))
        res = np.linalg.norm(h @ psi - e_val * psi)
        assert res / pp.Omega_a < 1e-6


def test_eigenstate_matches_unitary_matrix():
    dims = FockDims(18, 18)
    dp = DiagParams(math.exp(2 * 0.35), 1.0, 0.12)
    u = build_unitary(dp, 0.4, dims).mat
    for occ in ((0, 0), (1, 0), (1, 1)):
        direct = u.conj().T[:, dims.index(*occ)]
        fast = eigenstate(dp, occ[0], occ[1], 0.4, dims).amp
        # same state up to truncation-level differences
        assert abs(abs(np.vdot(direct, fast)) - 1.0) < 1e-8


def test_eigenstate_occupation_guard():
    dims = FockDims(12, 12)
    with pytest.raises(ValueError, match="cutoff"):
        eigenstate(CANONICAL, 6, 0, 0.0, dims)


def test_label_eigenvalue_shift_scales_quadratically():
    # the dropped zero-point constant ~ lam^2 / (2 Omega) near resonance
    pp1 = PhysicalParams(2e9, 2e9, 2e9 * 1e-4)
    pp2 = PhysicalParams(2e9, 2e9, 2e9 * 1e-5)
    c1 = constant_shift(inverse_map(pp1))
    c2 = constant_shift(inverse_map(pp2))
    exponent = math.log(c1 / c2) / math.log(10.0)
    assert exponent == pytest.approx(2.0, abs=0.05)
    assert c1 == pytest.approx(pp1.lam ** 2 / (2 * pp1.Omega_a), rel=0.01)


def test_trajectory_phase_frames():
    tr = TrajectoryPhase(Omega_a=2e9, k=2e9 / 2.99792458e8, frame="inertial")
    assert tr.varphi(0.0, 0.0) == 0.0
    assert tr.varphi(1e-9) == pytest.approx(-2.0)
    assert tr.cycle_duration == pytest.approx(math.pi * 1e-9, rel=1e-12)
    rind = TrajectoryPhase(Omega_a=2e9, k=0.0, frame="rindler")
    assert rind.varphi(1e-9, 0.0) == pytest.approx(-2.0)
    with pytest.raises(ValueError):
        TrajectoryPhase(1.0, 0.0, frame="weird")


def reference_eigenstate(dp, n_f, n_d, varphi, dims):
    """U' |n_f n_d> as a chain of sparse expm_multiply actions of the whole
    generators on the padded space, projected back and normalized."""
    big = FockDims(max(dims.n_field + 10, math.ceil(dims.n_field * EIGENSTATE_PAD)),
                   max(dims.n_det + 10, math.ceil(dims.n_det * EIGENSTATE_PAD)))
    d = derive_params(dp)
    a = ladder(big, "field", "lower")
    b = ladder(big, "detector", "lower")
    ad, bd = a.conj().T.tocsr(), b.conj().T.tocsr()
    x = basis_state(big, n_f, n_d).amp
    # U' = R' Shat' D' S_b' S_a'; each factor is exp(-K) for its generator K
    x = expm_multiply(-0.5 * d.u * (ad @ ad - a @ a), x)          # theta_a = 0
    x = expm_multiply(-0.5 * dp.v * (b @ b - bd @ bd), x)         # theta_b = -pi
    x = expm_multiply(-d.s * (ad @ b - a @ bd), x)
    x = expm_multiply(-0.5 * d.p * (bd @ bd - b @ b), x)
    x = np.exp(1j * varphi * number_diagonal(big, "field")) * x
    amp = x.reshape(big.n_field, big.n_det)[: dims.n_field, : dims.n_det].reshape(-1)
    return amp / np.linalg.norm(amp)


def test_eigenstate_matches_reference_chain_on_certify_grid():
    dims = FockDims(30, 30)
    worst = 0.0
    for v in cli.CERT_GRID_V:
        for ratio in cli.CERT_GRID_RATIO:
            if ratio <= math.exp(2 * v):
                continue
            dp = DiagParams(ratio, 1.0, v)
            for occ in cli.CERT_OCCUPATIONS:
                fast = eigenstate(dp, occ[0], occ[1], 0.0, dims).amp
                ref = reference_eigenstate(dp, occ[0], occ[1], 0.0, dims)
                worst = max(worst, np.abs(fast - ref).max())
    assert worst <= 1e-13


@pytest.mark.parametrize("varphi", [0.4, -2.3])
def test_eigenstate_matches_reference_chain_nonzero_phase(varphi):
    dims = FockDims(24, 24)
    for occ in cli.CERT_OCCUPATIONS:
        fast = eigenstate(CANONICAL, occ[0], occ[1], varphi, dims).amp
        ref = reference_eigenstate(CANONICAL, occ[0], occ[1], varphi, dims)
        assert np.abs(fast - ref).max() <= 1e-13


@pytest.mark.parametrize("dims", [FockDims(20, 12), FockDims(12, 20)])
def test_eigenstate_matches_reference_chain_rectangular(dims):
    # total-number blocks of the beam splitter are cut unevenly by the two cutoffs
    dp = DiagParams(math.e ** 3, 1.0, 0.45)
    for occ in ((0, 0), (2, 1), (1, 3), (4, 5)):
        fast = eigenstate(dp, occ[0], occ[1], 0.7, dims).amp
        ref = reference_eigenstate(dp, occ[0], occ[1], 0.7, dims)
        assert np.abs(fast - ref).max() <= 1e-13


CERT_GRID_DPS = [DiagParams(ratio, 1.0, v) for v in cli.CERT_GRID_V
                 for ratio in cli.CERT_GRID_RATIO if ratio > math.exp(2 * v)]


@pytest.mark.parametrize("dims, dps", [
    (FockDims(30, 30), CERT_GRID_DPS),
    (FockDims(78, 78), [DiagParams(math.e ** 3, 1.0, 0.6)]),  # the grid's top rung
    (FockDims(20, 12), [DiagParams(math.e ** 3, 1.0, 0.6)]),
], ids=["30x30-grid", "78x78", "20x12"])
def test_eigenstates_batch_equals_batch_of_one(dims, dps):
    for dp in dps:
        batch = eigenstates(dp, cli.CERT_OCCUPATIONS, 0.7, dims)
        assert len(batch) == len(cli.CERT_OCCUPATIONS)
        for occ, state in zip(cli.CERT_OCCUPATIONS, batch):
            one = eigenstate(dp, occ[0], occ[1], 0.7, dims)
            assert np.abs(state.amp - one.amp).max() <= 1e-15


# eigenstate_residuals_over_Omega_a of `diagonalize` on the resonant
# (gap, gap, coupling) triples, as the expm_multiply chain reported them
RESONANT_RESIDUALS = {
    "fig3-ghz": {"0,0": 1.9297800919364738e-19, "1,0": 2.3662368405824812e-15,
                 "0,1": 2.360223521925098e-15},
    "fig5-1": {"0,0": 6.529373783586565e-20, "1,0": 1.1306672765141402e-14,
               "0,1": 1.1468900175864572e-14},
}


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
    # the report applies the five factors to |00>; the dense chain's column
    # U|00> must give the same deviation
    p = cli.PRESETS[preset]
    pp = PhysicalParams(p["gap"], p["gap"], p["coupling"])
    report = cli.cmd_diagonalize({"omega_a": pp.Omega_a, "omega_b": pp.Omega_b,
                                  "coupling": pp.lam})
    col = build_unitary(invert_physical(pp).params, 0.0, FockDims(24, 24)).mat[:, 0]
    z = col[0]
    one_minus_re = (np.sum(np.abs(col[1:]) ** 2) + z.imag ** 2) / (1.0 + z.real)
    dense = float(np.hypot(one_minus_re, z.imag))
    assert abs(report["vacuum_overlap_deviation"] - dense) <= 1e-15
