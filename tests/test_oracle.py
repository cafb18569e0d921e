import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.linalg import expm
from sparse_ops import sparse_hamiltonian

from berrytherm import cli, oracle
from berrytherm.diagonalization import (
    DiagParams,
    PhysicalParams,
    build_hamiltonian,
    eigenstate,
    eigenstates,
    forward_map,
    invert_physical,
)
from berrytherm.fockspace import FockDims, StateVector, basis_state, number_diagonal
from berrytherm.geomphase import (
    eigen_berry_phase,
    epsilon,
    mixed_phase_offset,
    phase_distance,
    wrap_angle,
)
from berrytherm.oracle import (
    EvolutionSpec,
    LoopSpec,
    OracleError,
    berry_connection_v,
    discrete_berry_loop,
    excitation_probability_per_cycle,
    numeric_eigenpair,
    numeric_eigenpairs,
    pancharatnam_product,
    partial_sum_from_eps,
    rotation_covariance_residual,
    thermal_excitation_per_cycle,
)
from berrytherm.thermo import required_levels, squeeze_from_temperature, thermal_weights

E2 = math.e ** 2
CANONICAL = DiagParams(2e9 / E2 * E2, 2e9 / E2, 0.3)  # == (2e9, 2e9/e^2, 0.3)
TAU = 2 * math.pi


def test_loopspec_validation():
    with pytest.raises(ValueError):
        LoopSpec(n_points=8)


def test_numeric_eigenpair_decoupled():
    dims = FockDims(6, 6)
    pp = PhysicalParams(3.0, 2.0, 0.0)
    pair = numeric_eigenpair(pp, basis_state(dims, 1, 0), 1)
    assert pair.value == pytest.approx(3.0, abs=1e-12)
    assert abs(pair.vector.amp[dims.index(1, 0)]) == pytest.approx(1.0, abs=1e-12)
    # gauge fix: largest component real positive
    assert pair.vector.amp[dims.index(1, 0)].real > 0
    assert abs(pair.vector.amp[dims.index(1, 0)].imag) < 1e-14


def test_numeric_eigenpair_residual_contract():
    dims = FockDims(14, 14)
    pp = forward_map(CANONICAL)
    h = build_hamiltonian(pp, 0.0, dims)
    target = eigenstate(CANONICAL, 0, 0, 0.0, dims)
    pair = numeric_eigenpair(pp, target, 0)
    res = np.linalg.norm(h @ pair.vector.amp - pair.value * pair.vector.amp)
    assert res < 1e-10 * np.abs(h).max()
    # a complex target (here a global phase) runs the solve in complex arithmetic
    rephased = numeric_eigenpair(pp, StateVector(dims, np.exp(0.7j) * target.amp), 0)
    assert abs(rephased.value - pair.value) <= 1e-12 * abs(pair.value)
    assert 1.0 - abs(np.vdot(rephased.vector.amp, pair.vector.amp)) <= 1e-12


def test_numeric_eigenpair_overlap_certification():
    # weak resonant coupling: analytic dressed state matches brute force
    pp = PhysicalParams(2e9, 2e9, 2e9 * 1e-7)
    dp = invert_physical(pp).params
    dims = FockDims(14, 14)
    for occ in ((0, 0), (1, 0), (0, 1)):
        target = eigenstate(dp, occ[0], occ[1], 0.0, dims)
        pair = numeric_eigenpair(pp, target, sum(occ) % 2)
        assert pair.overlap > 1 - 1e-8


@pytest.mark.parametrize("varphi", [0.0, 0.4])
def test_numeric_eigenpair_sparse_repeatable_bits(varphi):
    # the solve is in real arithmetic on H(0); the eigenvector at varphi is
    # exp(+i varphi n_f) times it, by rotation covariance
    dims = FockDims(44, 44)
    pp = forward_map(CANONICAL)
    h0 = sparse_hamiltonian(pp, dims)
    r = np.exp(1j * varphi * number_diagonal(dims, "field"))
    pairs = [numeric_eigenpair(pp, eigenstate(CANONICAL, 1, 1, 0.0, dims), 0)
             for _ in range(3)]
    vecs = [r * pair.vector.amp for pair in pairs]
    for pair, vec in zip(pairs[1:], vecs[1:]):
        assert pair.value == pairs[0].value
        assert np.array_equal(vec, vecs[0])
    assert pairs[0].overlap > 0.999
    assert not pairs[0].vector.amp.imag.any()  # H(0) is real: so is the gauge-fixed vector
    res = np.linalg.norm(h0 @ pairs[0].vector.amp - pairs[0].value * pairs[0].vector.amp)
    assert res < 1e-10 * abs(h0).max()
    target = eigenstate(CANONICAL, 1, 1, varphi, dims)
    assert abs(np.vdot(target.amp, vecs[0])) > 0.999
    assert vecs[0].imag.any() == (varphi != 0.0)


def test_numeric_eigenpair_ambiguity():
    # an even mixture of three decoupled levels: the iteration converges to
    # |0,2>, the level nearest the mixture's Rayleigh quotient, at overlap 3^-1/2
    dims = FockDims(5, 5)
    pp = PhysicalParams(3.0, 2.0, 0.0)
    mixed = basis_state(dims, 0, 0).amp + basis_state(dims, 1, 1).amp \
        + basis_state(dims, 0, 2).amp
    with pytest.raises(OracleError, match="ambiguous: overlap 0.5774"):
        numeric_eigenpair(pp, StateVector(dims, mixed), 0)


def test_numeric_eigenpair_refuses_unconverged():
    # equal weight on two levels symmetric about the Rayleigh quotient 5/2:
    # every shifted solve keeps the weights equal, so the residual never falls
    dims = FockDims(5, 5)
    pp = PhysicalParams(3.0, 2.0, 0.0)
    mixed = basis_state(dims, 0, 0).amp + basis_state(dims, 1, 1).amp
    with pytest.raises(OracleError, match=f"unconverged after {oracle.RQI_MAX_STEPS} solves"):
        numeric_eigenpair(pp, StateVector(dims, mixed), 0)


def test_pancharatnam_gauge_invariance():
    rng = np.random.default_rng(20260810)
    vecs = [rng.normal(size=6) + 1j * rng.normal(size=6) for _ in range(30)]
    vecs = [v / np.linalg.norm(v) for v in vecs]
    base, _ = pancharatnam_product(vecs)
    rephased = [np.exp(1j * th) * v
                for th, v in zip(rng.uniform(-math.pi, math.pi, 30), vecs)]
    new, _ = pancharatnam_product(rephased)
    assert phase_distance(base, new) < 1e-12


def test_loop_zero_coupling_gives_zero_phase():
    dp = DiagParams(E2, 1.0, 1e-7)  # essentially decoupled
    res = discrete_berry_loop(dp, 1, 0, LoopSpec(256), FockDims(16, 16))
    assert phase_distance(res.phase.raw, 0.0) < 1e-6


def test_loop_matches_closed_form_canonical():
    spec = LoopSpec(n_points=2048)
    res = discrete_berry_loop(CANONICAL, 1, 0, spec, FockDims(40, 40))
    closed = eigen_berry_phase(CANONICAL, 1, 0)
    assert phase_distance(res.phase.raw, closed.raw) < 1e-6
    # raw values agree as well (loop winding reconstructs the unreduced phase)
    assert abs(res.phase.raw - closed.raw) < 1e-6


def test_loop_doubling_convergence():
    spec1 = LoopSpec(n_points=2048)
    spec2 = LoopSpec(n_points=4096)
    dims = FockDims(36, 36)
    r1 = discrete_berry_loop(CANONICAL, 0, 1, spec1, dims)
    r2 = discrete_berry_loop(CANONICAL, 0, 1, spec2, dims)
    assert abs(r1.phase.raw - r2.phase.raw) < 1e-8
    assert r1.error_estimate < 1e-4


def _every_point_loop(dp, n_f, n_d, spec, dims):
    """Reference loop: re-diagonalize H(phi) densely at every grid point,
    follow the eigenvector by maximal overlap and apply the raw Pancharatnam
    product, Richardson-refined over the N and 2N grids; small cutoffs only.
    Returns (raw phase, smallest consecutive overlap)."""
    pp = forward_map(dp)
    chi = numeric_eigenpair(pp, eigenstate(dp, n_f, n_d, 0.0, dims), (n_f + n_d) % 2).vector

    def loop_at(n_points):
        states = []
        prev = chi.amp
        min_ov = 1.0
        for phi in 2.0 * math.pi * np.arange(n_points) / n_points:
            _, vecs = np.linalg.eigh(build_hamiltonian(pp, phi, dims))
            ovl = np.abs(vecs.conj().T @ prev)
            best = int(np.argmax(ovl))
            min_ov = min(min_ov, float(ovl[best]))
            prev = vecs[:, best]
            states.append(prev)
        raw, min_abs = pancharatnam_product(states)
        return raw, min(min_ov, min_abs)

    raw1, ov1 = loop_at(spec.n_points)
    raw2, ov2 = loop_at(2 * spec.n_points)
    # per-point gauges wind the raw sums arbitrarily; only the branch-aligned
    # combination is meaningful for re-diagonalized loops
    base = wrap_angle(raw1)
    raw2 = base + wrap_angle(raw2 - raw1)
    return (4.0 * raw2 - base) / 3.0, min(ov1, ov2)


def test_loop_every_point_matches_propagated(monkeypatch):
    # full re-diagonalization at every grid point agrees with the
    # rotation-propagated loop at small cutoff
    dp = DiagParams(math.exp(2 * 0.45), 1.0, 0.15)
    dims = FockDims(10, 10)
    spec = LoopSpec(n_points=64)
    raw, min_overlap = _every_point_loop(dp, 1, 0, spec, dims)
    # method-equivalence check: loosen the absolute truncation gate, both
    # routes share the same truncated eigenvector
    monkeypatch.setattr(oracle, "TRUNCATION_GATE", 1e-3)
    b = discrete_berry_loop(dp, 1, 0, spec, dims)
    assert phase_distance(raw, b.phase.raw) < 1e-9
    assert min_overlap > 0.99


def test_loop_truncation_gate_refuses():
    with pytest.raises(OracleError, match="truncation"):
        discrete_berry_loop(CANONICAL, 1, 0, LoopSpec(256), FockDims(12, 12))


def _parity_sector(dims, parity):
    return np.flatnonzero(
        (number_diagonal(dims, "field") + number_diagonal(dims, "detector")) % 2 == parity)


def _assert_matches(pair, target, vals, vecs, sector):
    """``pair`` against the reference eigenvector of the sector (columns of
    ``vecs``) that overlaps ``target`` most."""
    ref = int(np.argmax(np.abs(vecs.T @ target.amp[sector])))
    assert abs(pair.value - vals[ref]) <= 1e-12 * abs(vals[ref])
    assert 1.0 - abs(vecs[:, ref] @ pair.vector.amp[sector]) <= 1e-12


def test_sector_eigenpair_matches_full_space_on_certify_grid():
    # every certify pair at cutoff 30 against a dense eigh of its sector of
    # the full-space H; H has no entry between the two sectors
    dims = FockDims(30, 30)
    for v in cli.CERT_GRID_V:
        for ratio in cli.CERT_GRID_RATIO:
            if ratio <= math.exp(2 * v):
                continue
            dp = DiagParams(ratio, 1.0, v)
            pp = forward_map(dp)
            h = build_hamiltonian(pp, 0.0, dims).real
            ref = {}
            for parity in (0, 1):
                sector = _parity_sector(dims, parity)
                assert not h[np.ix_(sector, _parity_sector(dims, 1 - parity))].any()
                ref[parity] = (sector, *np.linalg.eigh(h[np.ix_(sector, sector)]))
            targets = eigenstates([dp] * 4, cli.CERT_OCCUPATIONS, 0.0, dims)
            for (n_f, n_d), target in zip(cli.CERT_OCCUPATIONS, targets):
                sector, vals, vecs = ref[(n_f + n_d) % 2]
                _assert_matches(numeric_eigenpair(pp, target, (n_f + n_d) % 2),
                                target, vals, vecs, sector)


def test_numeric_eigenpair_matches_eigsh_on_top_rung():
    # a cell that certifies only at cutoff 78, against shift-invert Lanczos
    # on the sparse sector matrix
    dims = FockDims(78, 78)
    dp = DiagParams(math.e ** 3, 1.0, 0.6)
    pp = forward_map(dp)
    target = eigenstate(dp, 1, 1, 0.0, dims)
    sector = _parity_sector(dims, 0)
    h = sparse_hamiltonian(pp, dims)[sector][:, sector].tocsc()
    start = target.amp[sector].real
    vals, vecs = spla.eigsh(h, k=3, sigma=start @ (h @ start), which="LM",
                            v0=np.ones(len(sector)))
    _assert_matches(numeric_eigenpair(pp, target, 0), target, vals, vecs, sector)


def test_mixed_dp_loops_match_per_dp_calls():
    # the cutoff-30 rung of the certify grid in one call, parameter sets
    # interleaved: 12 of the 32 pairs refuse on the truncation gate there
    dims = FockDims(30, 30)
    dps = [DiagParams(ratio, 1.0, v) for v in cli.CERT_GRID_V
           for ratio in cli.CERT_GRID_RATIO if ratio > math.exp(2 * v)]
    assert len(dps) == 8
    pairs = [(dp, occ) for occ in cli.CERT_OCCUPATIONS for dp in dps]
    mixed = oracle.discrete_berry_loops([dp for dp, _ in pairs], [occ for _, occ in pairs],
                                        LoopSpec(256), [dims])
    single = {dp: oracle.discrete_berry_loops([dp] * 4, cli.CERT_OCCUPATIONS, LoopSpec(256),
                                              [dims])
              for dp in dps}
    refused = 0
    for (dp, occ), got in zip(pairs, mixed):
        want = single[dp][cli.CERT_OCCUPATIONS.index(occ)]
        if isinstance(want, OracleError):
            refused += 1
            assert isinstance(got, OracleError) and str(got) == str(want)
            assert "truncation tail" in str(got)
            assert got.__traceback__ is None  # no frame or target kept alive
            continue
        assert not isinstance(got, OracleError)
        assert abs(got.phase.raw - want.phase.raw) <= 1e-12
        assert abs(got.truncation_tail - want.truncation_tail) <= 1e-15
    assert refused == 12


def _certify_dps():
    return [DiagParams(ratio, 1.0, v) for v in cli.CERT_GRID_V
            for ratio in cli.CERT_GRID_RATIO if ratio > math.exp(2 * v)]


def _assert_same_pairs(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g.value - w.value) <= 1e-12 * abs(w.value)
        assert 1.0 - abs(np.vdot(g.vector.amp, w.vector.amp)) <= 1e-12


def test_stacked_eigenpairs_match_one_at_a_time_on_certify_rung():
    # every certify pair at cutoff 30, each parity solved as one stack
    dims = FockDims(30, 30)
    for parity in (0, 1):
        pairs = [(dp, occ) for dp in _certify_dps() for occ in cli.CERT_OCCUPATIONS
                 if sum(occ) % 2 == parity]
        assert len(pairs) == 16
        pps = [forward_map(dp) for dp, _ in pairs]
        targets = eigenstates([dp for dp, _ in pairs], [occ for _, occ in pairs], 0.0, dims)
        _assert_same_pairs(numeric_eigenpairs(pps, targets, parity),
                           [numeric_eigenpair(pp, t, parity) for pp, t in zip(pps, targets)])


def test_stacked_eigenpairs_return_refusals_as_values():
    # three refusals from decoupled levels (see the single-pair tests above)
    # stacked between two good pairs of CANONICAL
    dims = FockDims(12, 12)
    pp, decoupled = forward_map(CANONICAL), PhysicalParams(3.0, 2.0, 0.0)
    good = eigenstates([CANONICAL] * 2, [(0, 0), (1, 1)], 0.0, dims)
    ket = {occ: basis_state(dims, *occ).amp for occ in ((0, 0), (1, 0), (1, 1), (0, 2))}
    unconverged = StateVector(dims, ket[0, 0] + ket[1, 1])
    ambiguous = StateVector(dims, ket[0, 0] + ket[1, 1] + ket[0, 2])
    outside = StateVector(dims, good[0].amp + 1e-9 * ket[1, 0])
    got = numeric_eigenpairs([pp, decoupled, pp, decoupled, pp],
                             [good[0], unconverged, outside, ambiguous, good[1]], 0)
    for refusal, reason in zip(got[1:4], (f"unconverged after {oracle.RQI_MAX_STEPS} solves",
                                          "outside the sector", "ambiguous: overlap 0.5774")):
        assert isinstance(refusal, OracleError) and reason in str(refusal)
        assert refusal.__traceback__ is None
    _assert_same_pairs([got[0], got[4]], numeric_eigenpairs([pp, pp], good, 0))


def test_singular_pair_leaves_stack_neighbours_unchanged(monkeypatch):
    # lam = 0: the even mixture of the levels 0, 4, 6 and 10 has amplitudes 1/2
    # and Rayleigh quotient 5 to the bit, the energy of |1,1>, so block 1 of
    # H - sigma is exactly singular and the stacked sweep fails
    dims = FockDims(12, 12)
    pp, decoupled = forward_map(CANONICAL), PhysicalParams(3.0, 2.0, 0.0)
    good = eigenstates([CANONICAL] * 2, [(0, 0), (1, 1)], 0.0, dims)
    singular = StateVector(dims, sum(basis_state(dims, *occ).amp
                                     for occ in ((0, 0), (0, 2), (2, 0), (2, 2))))
    failed = []
    sweep = oracle._sweep

    def watched(diag, couple, lam, sigma, rhs):
        try:
            return sweep(diag, couple, lam, sigma, rhs)
        except np.linalg.LinAlgError:
            failed.append(len(sigma))
            raise

    monkeypatch.setattr(oracle, "_sweep", watched)
    got = numeric_eigenpairs([pp, decoupled, pp], [good[0], singular, good[1]], 0)
    assert failed[:2] == [3, 1]  # the stack, then the singular pair alone
    assert isinstance(got[1], OracleError) and "unconverged" in str(got[1])
    _assert_same_pairs([got[0], got[2]], numeric_eigenpairs([pp, pp], good, 0))


def test_ladder_walk_matches_fresh_single_rung_loops():
    # the 12 certify cells that pass above cutoff 30 start each later rung from
    # their last eigenvector and a padded cutoff-30 target; a fresh one-rung
    # call builds its target at that rung and starts from it
    pairs = [(dp, occ) for dp in _certify_dps() for occ in cli.CERT_OCCUPATIONS]
    ladder = [FockDims(c, c) for c in cli.CUTOFF_LADDER]
    walked = oracle.discrete_berry_loops([dp for dp, _ in pairs], [occ for _, occ in pairs],
                                         LoopSpec(), ladder)
    escalated = [(dp, occ, got) for (dp, occ), got in zip(pairs, walked)
                 if got.dims != ladder[0]]
    assert len(escalated) == 12
    for dp, (n_f, n_d), got in escalated:
        fresh = discrete_berry_loop(dp, n_f, n_d, LoopSpec(), got.dims)
        assert abs(got.phase.raw - fresh.phase.raw) <= 1e-12
        assert abs(got.truncation_tail - fresh.truncation_tail) <= 1e-15
    with pytest.raises(ValueError, match="growing"):
        oracle.discrete_berry_loops([CANONICAL], [(0, 0)], LoopSpec(), ladder[::-1])


def test_sector_solve_refuses_target_outside_sector():
    dims = FockDims(12, 12)
    amp = eigenstate(CANONICAL, 1, 0, 0.0, dims).amp + 1e-9 * basis_state(dims, 0, 0).amp
    with pytest.raises(OracleError, match="outside the sector"):
        numeric_eigenpair(forward_map(CANONICAL), StateVector(dims, amp), 1)


def test_partial_sum_single_term():
    res = partial_sum_from_eps(-0.13, 1.234, 0.0, 0)
    assert res.value == pytest.approx(1.234, abs=1e-14)


def test_partial_sum_spot_value():
    r = math.atanh(math.sqrt(0.5))
    res = partial_sum_from_eps(-0.25, 0.0, r, 60)  # G = 1/4
    assert res.value == pytest.approx(0.46364760900080615, abs=1e-10)


def test_partial_sum_matches_closed_form_grid():
    for tanh2 in (0.1, 0.5, 0.9):
        r = math.atanh(math.sqrt(tanh2))
        n_max = required_levels(r) + 2
        for eps in (-0.4, -0.25, 0.2, 1e-15):  # G = 0.1, 0.25, 0.7 and a preset's 1/2 + eps
            closed = -mixed_phase_offset(eps, r)
            summed = partial_sum_from_eps(eps, 0.0, r, n_max).value
            assert phase_distance(closed, summed) < 1e-10


def test_partial_sum_refuses_fat_tail():
    r = math.atanh(math.sqrt(0.9))
    with pytest.raises(OracleError, match="n_max"):
        partial_sum_from_eps(-0.25, 0.0, r, 40)


def test_mixed_phase_dp_route():
    # the thermal phase gamma_0 - offset at the epsilon of CANONICAL's triple
    # against the explicit sum over its eigenstate phases
    r = 0.6
    eps = epsilon(forward_map(CANONICAL))
    gamma0 = eigen_berry_phase(CANONICAL, 0, 0).raw
    closed = gamma0 - mixed_phase_offset(eps, r)
    summed = partial_sum_from_eps(eps, gamma0, r, required_levels(r) + 2)
    assert phase_distance(closed, summed.value) < 1e-10


def test_rotation_covariance():
    pp = forward_map(CANONICAL)
    for phi in (0.3, 1.7):
        assert rotation_covariance_residual(pp, phi, FockDims(12, 12)) < 1e-12 * pp.Omega_a


def test_connection_v_component_vanishes():
    val = berry_connection_v(CANONICAL, 1, 1, 0.4, FockDims(24, 24))
    assert abs(val) < 1e-8


def test_evolution_zero_coupling():
    pp = PhysicalParams(1e9, 1e9, 0.0)
    out = excitation_probability_per_cycle(pp, 4, EvolutionSpec())
    np.testing.assert_array_equal(out, np.zeros(4))


def test_evolution_norm_preserved_and_small_P():
    # GHz vacuum case: excitation stays far below 1e-9 at cycle boundaries
    pp = PhysicalParams(1e9, 1e9, TAU * 1200.0)
    out = excitation_probability_per_cycle(pp, 10, EvolutionSpec())
    assert out.max() < 1e-9
    assert excitation_probability_per_cycle(pp, 3, EvolutionSpec())[-1] < 1e-9


def test_evolution_perturbative_scale_off_boundary():
    # detuned case: first-order probability ~ (2 lam / Omega_b)^2 sin^2(...)
    pp = PhysicalParams(1e9, 1.5e9, 1e5)
    spec = EvolutionSpec()
    out = excitation_probability_per_cycle(pp, 3, spec, n_field_initial=0)
    amp = 2 * pp.lam / pp.Omega_b
    for k, p in enumerate(out, start=1):
        expect = amp ** 2 * math.sin(math.pi * k * pp.Omega_b / pp.Omega_a) ** 2
        assert p == pytest.approx(expect, rel=2e-3, abs=1e-12)


# --------------------------------------------------------------------------
# Window evolver, detector propagator and the thermal quadrature
# --------------------------------------------------------------------------

FIG6_MHZ = PhysicalParams(1e6, 1e6, TAU * 1200.0)
R_1MK = squeeze_from_temperature(1e6, 1e-3).r


def _expm_reference(pp, n0, cycles, window):
    """The dense windowed |n_f, d> problem in the detector's co-rotating frame,
    where its generator g X_f (x) (b + b') + rho 1 (x) n_d is time-independent:
    one cycle is scipy's expm of it, applied once per cycle.  Returns
    (P per cycle, edge amplitude)."""
    n_det = oracle.DETECTOR_LEVELS
    lo = max(0, n0 - window)
    nf = n0 + window - lo + 1
    s = np.sqrt(np.arange(lo + 1.0, lo + nf))
    x_f = np.diag(s, 1) + np.diag(s, -1)
    t = np.sqrt(np.arange(1.0, n_det))
    x_d = np.diag(t, 1) + np.diag(t, -1)
    generator = ((pp.lam / pp.Omega_a) * np.kron(x_f, x_d)
                 + (pp.Omega_b / pp.Omega_a) * np.kron(np.eye(nf), np.diag(np.arange(n_det))))
    cycle = expm(-1j * TAU * generator)
    psi = np.zeros(nf * n_det, dtype=complex)
    psi[(n0 - lo) * n_det] = 1.0
    out = []
    for _ in range(cycles):
        psi = cycle @ psi
        out.append(np.sum(np.abs(psi.reshape(nf, n_det)[:, 1:]) ** 2))
    level = np.sum(np.abs(psi.reshape(nf, n_det)) ** 2, axis=1)
    edge = math.sqrt(level[-2:].sum() + (level[:2].sum() if lo > 0 else 0.0))
    return np.array(out), edge


def test_evolver_matches_stepwise_rk4():
    # the window evolver against a dense matrix exponential of the whole window;
    # detuned and strongly coupled, so the frame phases and both window edges matter
    pp = PhysicalParams(1e6, 1.5e6, TAU * 2e4)
    for n0 in (20, 3):
        out, edge = oracle._evolve(pp, n0, 2, 12)
        ref, ref_edge = _expm_reference(pp, n0, 2, 12)
        assert ref.min() > 1e-4
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13)
        assert edge == pytest.approx(ref_edge, rel=1e-12)


@pytest.mark.parametrize("rho", [0.7, 1.0, 1.5])
def test_detector_cycles_match_displaced_oscillator(monkeypatch, rho):
    # K = kappa (b + b') + rho b'b displaces the vacuum to a coherent state with
    # |alpha|^2 = (2 kappa / rho)^2 sin^2(pi rho c) after c cycles; 40 levels hold it
    monkeypatch.setattr(oracle, "DETECTOR_LEVELS", 40)
    kappa = np.array([0.1, 0.5, 1.0])
    excited, _ = oracle._detector_cycles(PhysicalParams(1.0, rho, 0.0), kappa, np.ones(3), 3)
    c = np.arange(1.0, 4.0)[:, None]
    exact = 1.0 - np.exp(-(2.0 * kappa / rho) ** 2 * np.sin(math.pi * rho * c) ** 2)
    np.testing.assert_allclose(excited, exact, rtol=0, atol=1e-12)


# fig6-mhz rows of the exact propagator at 3 cycles, on the window of n0 = 1808
ROWS = {
    0: [5.877921077393945e-17, 2.350998575213065e-16, 5.289109922961818e-16],
    157: [1.1877172174983452e-06, 4.195598298715698e-06, 7.69849184729841e-06],
    865: [0.0025018705096844416, 0.007802815635706906, 0.014385187084785808],
    1808: [0.04396038500207706, 0.07809333502387271, 0.0728250616611683],
}
# The step-by-step dense RK4 evolver's values at 600 steps per cycle, which
# reported 1 - sum |psi_{n,0}|^2; they carry its step error, 9.6e-11 at n0 = 1808
SEED_ROWS_600 = {
    0: [-8.881784197001252e-16, 7.771561172376096e-16, 0.0],
    157: [1.1877172376717482e-06, 4.195598339529205e-06, 7.698491907071059e-06],
    865: [0.0025018705116642836, 0.007802815638190075, 0.014385187091215057],
    1808: [0.04396038495112964, 0.07809333503940119, 0.0728250615649505],
}
# The PCHIP occupation-grid mixture the Gauss-Hermite one replaced; 5.6e-4 apart at cycle 3
SEED_MIXTURE_1MK_600 = [2.7700379737287204e-05, 7.93297116557639e-05, 0.00014490710730438624]
MIXTURE_1MK = [2.7723506888466532e-05, 7.932735711755037e-05, 0.00014482629958497816]


def test_evolver_pinned_to_stepwise_values():
    window = oracle._window(FIG6_MHZ.lam / FIG6_MHZ.Omega_a, max(ROWS), 3)
    rows = np.array([oracle._evolve(FIG6_MHZ, n0, 3, window)[0] for n0 in ROWS])
    assert np.all(rows >= 0.0)
    np.testing.assert_allclose(rows, list(ROWS.values()), rtol=0, atol=1e-12)
    moved = np.abs(rows - list(SEED_ROWS_600.values())).max()
    assert 5e-11 < moved < 2e-10


def test_thermal_mixture_pinned_at_1mk():
    mix = thermal_excitation_per_cycle(FIG6_MHZ, 3, EvolutionSpec(), R_1MK)
    assert len(mix.grid) == 160
    assert mix.tail_bound < 1e-15
    np.testing.assert_allclose(mix.per_cycle, MIXTURE_1MK, rtol=0, atol=1e-12 + mix.tail_bound)
    moved = np.abs(np.array(SEED_MIXTURE_1MK_600) / mix.per_cycle - 1.0)
    assert 5e-4 < moved.max() < 1e-3


def _recording_detector(monkeypatch):
    """Record (drives, excited, final amplitudes) of every ``_detector_cycles``
    call, and fail on any window-evolver call."""
    calls = []
    detector = oracle._detector_cycles

    def recording(pp, kappa, start, cycles):
        excited, psi = detector(pp, kappa, start, cycles)
        calls.append((kappa, excited, psi))
        return excited, psi

    def never(*args):
        raise AssertionError("the thermal mixture ran the window evolver")

    monkeypatch.setattr(oracle, "_detector_cycles", recording)
    monkeypatch.setattr(oracle, "_evolve", never)
    return calls


def test_thermal_mixture_sizes_steps_once_and_doubles_nodes(monkeypatch):
    # 8 cycles, the CLI default: 80 nodes are not enough (80 -> 160 moves P by
    # ~3e-4 relative), so the mixture runs 80, 160 and 320 nodes
    calls = _recording_detector(monkeypatch)
    mix = thermal_excitation_per_cycle(FIG6_MHZ, 8, EvolutionSpec(), R_1MK)
    assert [len(kappa) for kappa, *_ in calls] == [80, 160, 320]
    assert len(mix.grid) > 80
    p80, p160 = (calls[i][1] @ oracle._field_rule(n)[1][0] ** 2 for i, n in ((0, 80), (1, 160)))
    assert np.abs(p160 / p80 - 1.0).max() > 1e-4
    assert mix.tail_bound <= oracle.NODE_TOL * mix.per_cycle.max()
    # every node of every doubling keeps its norm to the 1e-12 unitarity check
    for _, _, psi in calls:
        assert np.abs(np.linalg.norm(psi, axis=1) - 1.0).max() <= 1e-12


def test_thermal_mixture_matches_occupation_sum():
    # n-bar ~ 10: the exact sum over Fock rows to a 1e-20 weight tail (483 rows)
    r = squeeze_from_temperature(1e6, 8e-5).r
    assert math.sinh(r) ** 2 == pytest.approx(10.0, rel=0.01)
    spec = EvolutionSpec()
    mix = thermal_excitation_per_cycle(FIG6_MHZ, 3, spec, r)
    n_max = required_levels(r, 1e-20)
    assert n_max == 482
    w, _ = thermal_weights(r, n_max)
    exact = w @ [excitation_probability_per_cycle(FIG6_MHZ, 3, spec, n) for n in range(n_max + 1)]
    np.testing.assert_allclose(mix.per_cycle, exact, rtol=1e-10, atol=0)


def test_thermal_mixture_refuses_past_node_cap(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_NODES", 160)
    with pytest.raises(OracleError, match="unconverged at 160 nodes"):
        thermal_excitation_per_cycle(FIG6_MHZ, 8, EvolutionSpec(), R_1MK)


@pytest.mark.parametrize("nodes", [80, 160, 320])
def test_field_rule_is_gauss_hermite(nodes):
    # x_f on levels 0 .. N-1 gives numpy's Gauss-Hermite rule: x = sqrt(2) t, w / sqrt(pi)
    xi, vecs = oracle._field_rule(nodes)
    t, w = np.polynomial.hermite.hermgauss(nodes)
    np.testing.assert_allclose(xi, math.sqrt(2.0) * t, rtol=1e-13, atol=0)
    weights = vecs[0] ** 2
    np.testing.assert_allclose(weights, w / math.sqrt(math.pi), rtol=0, atol=1e-14)
    heavy = w / math.sqrt(math.pi) > 1e-10
    np.testing.assert_allclose(weights[heavy], w[heavy] / math.sqrt(math.pi), rtol=1e-10)
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)


def test_evolution_saturated_window_retries_doubled(monkeypatch):
    spec = EvolutionSpec()
    expect = excitation_probability_per_cycle(FIG6_MHZ, 3, spec, 157)
    windows = []
    evolve = oracle._evolve

    def recording(pp, n0, cycles, window):
        windows.append(window)
        return evolve(pp, n0, cycles, window)

    monkeypatch.setattr(oracle, "_window", lambda g, n0, cycles: 5)
    monkeypatch.setattr(oracle, "_evolve", recording)
    got = excitation_probability_per_cycle(FIG6_MHZ, 3, spec, 157)
    assert windows == [5, 10, 20]
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)


def test_evolution_strong_coupling_refuses_on_window():
    pp = PhysicalParams(1e6, 1e6, TAU * 1e5)
    with pytest.raises(OracleError, match="field window kept saturating"):
        excitation_probability_per_cycle(pp, 2, EvolutionSpec(), 0)


def test_evolution_window_above_cap_refuses_before_evolving(monkeypatch):
    def never(*args):
        raise AssertionError("_evolve called past the window cap")

    monkeypatch.setattr(oracle, "_evolve", never)
    with pytest.raises(OracleError, match=f"exceeds the cap {oracle.MAX_WINDOW}"):
        excitation_probability_per_cycle(PhysicalParams(1e6, 1e6, 3e5), 8, EvolutionSpec(), 18000)


def test_evolution_window_doubling_stops_at_cap(monkeypatch):
    windows = []

    def saturated(pp, n0, cycles, window):
        windows.append(window)
        return np.zeros(cycles), 1.0

    monkeypatch.setattr(oracle, "_window", lambda g, n0, cycles: 1500)
    monkeypatch.setattr(oracle, "_evolve", saturated)
    with pytest.raises(OracleError, match="field window 3000 exceeds the cap"):
        excitation_probability_per_cycle(FIG6_MHZ, 3, EvolutionSpec(), 0)
    assert windows == [1500]


def test_thermal_mixture_tiny_values_kept_and_nonnegative():
    # fig6-ghz at 0.2 K: every node's excitation is rounding noise near 1e-35;
    # the mixture converges to the population floor, positive and not rounded to zero
    pp = PhysicalParams(1e9, 1e9, TAU * 1200.0)
    spec = EvolutionSpec()
    mix = thermal_excitation_per_cycle(pp, 2, spec, squeeze_from_temperature(1e9, 0.2).r)
    assert mix.tail_bound <= oracle.POPULATION_FLOOR
    assert np.all(mix.per_cycle > 0.0)
    assert mix.per_cycle.max() < 1e-9
