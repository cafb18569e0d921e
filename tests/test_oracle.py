import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.linalg import expm
from sparse_ops import pancharatnam_product, sparse_hamiltonian

from berrytherm import cli, oracle, reports
from berrytherm.diagonalization import DiagParams, PhysicalParams, forward_map, invert_physical
from berrytherm.fockspace import FockDims, eigenstates
from berrytherm.geomphase import (
    eigen_berry_phase,
    epsilon,
    mixed_phase_offset,
    phase_distance,
    wrap_angle,
)
from berrytherm.oracle import (
    EvolutionSpec,
    OracleError,
    discrete_berry_loops,
    excitation_probability_per_cycle,
    numeric_eigenpairs,
    partial_sum_from_eps,
    required_levels,
    thermal_excitation_per_cycle,
    thermal_weights,
)
from berrytherm.thermo import squeeze_from_temperature

E2 = math.e ** 2
CANONICAL = DiagParams(2e9 / E2 * E2, 2e9 / E2, 0.3)  # == (2e9, 2e9/e^2, 0.3)
TAU = 2 * math.pi


def _pair(pp, target, parity):
    """The one eigenpair, or refusal, of the stack of the one (n_field, n_det) target."""
    return numeric_eigenpairs([pp], target[:, :, None], [parity])[0]


def _loop(dp, n_f, n_d, dims):
    """The one loop phase, or refusal, of a batch of one on the one-rung ladder [dims]."""
    return discrete_berry_loops([dp], [(n_f, n_d)], [dims])[0]


def _target(dp, n_f, n_d, dims):
    """The closed-form eigenstate of a batch of one, as an (n_field, n_det) array."""
    return eigenstates([dp], [(n_f, n_d)], dims)[:, :, 0]


def _ket(dims, *occupations):
    """The sum of the basis states |n_f n_d> of ``occupations``, unnormalized."""
    amp = np.zeros((dims.n_field, dims.n_det))
    for n_f, n_d in occupations:
        amp[n_f, n_d] += 1.0
    return amp


def test_numeric_eigenpair_decoupled():
    dims = FockDims(6, 6)
    pp = PhysicalParams(3.0, 2.0, 0.0)
    pair = _pair(pp, _ket(dims, (1, 0)), 1)
    assert pair.value == pytest.approx(3.0, abs=1e-12)
    assert abs(pair.vector[1, 0]) == pytest.approx(1.0, abs=1e-12)
    # gauge fix: largest component positive, in a real vector
    assert pair.vector[1, 0] > 0
    assert pair.vector.dtype == np.float64


def test_numeric_eigenpair_residual_contract():
    dims = FockDims(14, 14)
    pp = forward_map(CANONICAL)
    h = sparse_hamiltonian(pp, dims)
    target = _target(CANONICAL, 0, 0, dims)
    pair = _pair(pp, target, 0)
    vec = pair.vector.reshape(-1)
    res = np.linalg.norm(h @ vec - pair.value * vec)
    assert res < 1e-10 * abs(h).max()
    # a rescaled, sign-flipped target (a global phase of a real state) selects the same pair
    rephased = _pair(pp, -2.5 * target, 0)
    assert abs(rephased.value - pair.value) <= 1e-12 * abs(pair.value)
    assert 1.0 - abs(np.vdot(rephased.vector, pair.vector)) <= 1e-12


def test_numeric_eigenpair_overlap_certification():
    # weak resonant coupling: analytic dressed state matches brute force
    pp = PhysicalParams(2e9, 2e9, 2e9 * 1e-7)
    dp = invert_physical(pp).params
    dims = FockDims(14, 14)
    occupations = ((0, 0), (1, 0), (0, 1))
    targets = eigenstates([dp] * 3, occupations, dims)
    for i, occ in enumerate(occupations):
        pair = _pair(pp, targets[:, :, i], sum(occ) % 2)
        assert pair.overlap > 1 - 1e-8


@pytest.mark.parametrize("varphi", [0.0, 0.4])
def test_numeric_eigenpair_sparse_repeatable_bits(varphi):
    # the solve is in real arithmetic on H(0); the eigenvector at varphi is
    # exp(+i varphi n_f) times it, by rotation covariance
    dims = FockDims(44, 44)
    pp = forward_map(CANONICAL)
    h0 = sparse_hamiltonian(pp, dims)
    r = np.exp(1j * varphi * np.arange(dims.n_field))[:, None]
    pairs = [_pair(pp, _target(CANONICAL, 1, 1, dims), 0) for _ in range(3)]
    vecs = [r * pair.vector for pair in pairs]
    for pair, vec in zip(pairs[1:], vecs[1:]):
        assert pair.value == pairs[0].value
        assert np.array_equal(vec, vecs[0])
    assert pairs[0].overlap > 0.999
    assert pairs[0].vector.dtype == np.float64  # H(0) is real: so is the gauge-fixed vector
    vec = pairs[0].vector.reshape(-1)
    res = np.linalg.norm(h0 @ vec - pairs[0].value * vec)
    assert res < 1e-10 * abs(h0).max()
    target = r * _target(CANONICAL, 1, 1, dims)  # the closed-form eigenstate of H(varphi)
    assert abs(np.vdot(target, vecs[0])) > 0.999
    assert vecs[0].imag.any() == (varphi != 0.0)


def test_numeric_eigenpair_ambiguity():
    # an even mixture of three decoupled levels: the iteration converges to
    # |0,2>, the level nearest the mixture's Rayleigh quotient, at overlap 3^-1/2
    dims = FockDims(5, 5)
    pp = PhysicalParams(3.0, 2.0, 0.0)
    refusal = _pair(pp, _ket(dims, (0, 0), (1, 1), (0, 2)), 0)
    assert isinstance(refusal, OracleError)
    assert "ambiguous: overlap 0.5774" in str(refusal)


def test_numeric_eigenpair_refuses_unconverged():
    # equal weight on two levels symmetric about the Rayleigh quotient 5/2:
    # every shifted solve keeps the weights equal, so the residual never falls
    dims = FockDims(5, 5)
    pp = PhysicalParams(3.0, 2.0, 0.0)
    refusal = _pair(pp, _ket(dims, (0, 0), (1, 1)), 0)
    assert isinstance(refusal, OracleError)
    assert f"unconverged after {oracle.RQI_MAX_STEPS} solves" in str(refusal)


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
    res = _loop(dp, 1, 0, FockDims(16, 16))
    assert phase_distance(res.phase.raw, 0.0) < 1e-6


def test_loop_matches_closed_form_canonical():
    res = _loop(CANONICAL, 1, 0, FockDims(40, 40))
    closed = eigen_berry_phase(CANONICAL, 1, 0)
    assert phase_distance(res.phase.raw, closed.raw) < 1e-6
    # raw values agree as well (the occupation phase is the unreduced phase)
    assert abs(res.phase.raw - closed.raw) < 1e-6


def _richardson(loop_at, n_points):
    """(4 gamma(2N) - gamma(N)) / 3 and the smallest overlap of the loops
    ``loop_at`` returns at N and 2N points, as (raw phase, smallest overlap);
    gamma(2N) is moved onto gamma(N)'s 2-pi branch first, as per-point gauges
    wind the raw sums of a re-diagonalized loop arbitrarily."""
    raw1, ov1 = loop_at(n_points)
    raw2, ov2 = loop_at(2 * n_points)
    base = wrap_angle(raw1)
    return (4.0 * (base + wrap_angle(raw2 - raw1)) - base) / 3.0, min(ov1, ov2)


def _transported_loop(chi, n_points):
    """Raw Pancharatnam phase and smallest overlap of the closed N-point loop of
    the family e^{i phi_k n_f} chi, phi_k = 2 pi k / N, the eigenvectors of
    H(phi_k) by rotation covariance when chi is one of H(0)."""
    n_f = np.arange(chi.shape[0])[:, None]
    return pancharatnam_product([np.exp(1j * phi * n_f) * chi
                                 for phi in TAU * np.arange(n_points) / n_points])


def _every_point_loop(dp, n_f, n_d, n_points, dims):
    """Reference loop: re-diagonalize H(phi) densely at every grid point,
    follow the eigenvector by maximal overlap and apply the raw Pancharatnam
    product, Richardson-refined over the N and 2N grids; small cutoffs only.
    Returns (raw phase, smallest consecutive overlap)."""
    pp = forward_map(dp)
    chi = _pair(pp, _target(dp, n_f, n_d, dims), (n_f + n_d) % 2).vector

    def loop_at(n_points):
        states = []
        prev = chi.reshape(-1)
        min_ov = 1.0
        for phi in TAU * np.arange(n_points) / n_points:
            _, vecs = np.linalg.eigh(sparse_hamiltonian(pp, dims, phi).toarray())
            ovl = np.abs(vecs.conj().T @ prev)
            best = int(np.argmax(ovl))
            min_ov = min(min_ov, float(ovl[best]))
            prev = vecs[:, best]
            states.append(prev)
        raw, min_abs = pancharatnam_product(states)
        return raw, min(min_ov, min_abs)

    return _richardson(loop_at, n_points)


def test_loop_every_point_matches_propagated():
    # full re-diagonalization at every grid point agrees with the loop of the
    # rotation-propagated eigenvector that the oracle's phase rests on, both
    # Richardson-refined over 64 and 128 points at small cutoff
    dp = DiagParams(math.exp(2 * 0.45), 1.0, 0.15)
    dims = FockDims(10, 10)
    raw, min_overlap = _every_point_loop(dp, 1, 0, 64, dims)
    chi = _pair(forward_map(dp), _target(dp, 1, 0, dims), 1).vector
    propagated, _ = _richardson(lambda n: _transported_loop(chi, n), 64)
    assert phase_distance(raw, propagated) < 1e-9
    assert min_overlap > 0.99


@pytest.mark.parametrize("v, ratio, occupation, dims", [
    (0.6, math.e ** 3, (0, 1), FockDims(78, 30)),
    (0.3, math.e ** 2, (1, 1), FockDims(44, 30)),
    (0.1, math.e, (1, 0), FockDims(30, 30)),
], ids=["v0.6-e3-01", "v0.3-e2-11", "v0.1-e1-10"])
def test_transported_loop_converges_to_occupation_phase(v, ratio, occupation, dims):
    # the N-point Pancharatnam loop of e^{i phi n_f} chi converges to the
    # oracle's 2 pi <n_f>_chi at O(1/N^2): its error falls 4x per doubling, and
    # Richardson over 2048 and 4096 points leaves at most 1e-9.  Each overlap
    # depends on chi only through its field weights, so the family is taken on
    # sqrt(sum_d chi^2), which keeps 4096 states small
    dp = DiagParams(ratio, 1.0, v)
    got = discrete_berry_loops([dp], [occupation], CERTIFY_LADDER)[0]
    assert got.dims == dims  # the cell's certify truncation
    chi = _pair(forward_map(dp), _target(dp, *occupation, dims), sum(occupation) % 2).vector
    field = np.sqrt((chi ** 2).sum(axis=1))[:, None]
    raws = {n: _transported_loop(field, n)[0] for n in (512, 1024, 2048, 4096)}
    errors = [raws[n] - got.phase.raw for n in sorted(raws)]
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine == pytest.approx(4.0, abs=0.01)
    assert abs((4.0 * raws[4096] - raws[2048]) / 3.0 - got.phase.raw) <= 1e-9


def test_loop_truncation_gate_refuses():
    refusal = _loop(CANONICAL, 1, 0, FockDims(12, 12))
    assert isinstance(refusal, OracleError) and "truncation" in str(refusal)


def _parity_sector(dims, parity):
    """Field-major flat indices of the sector (-1)^(n_f + n_d) = (-1)^parity."""
    return np.flatnonzero(np.add.outer(np.arange(dims.n_field), np.arange(dims.n_det)) % 2
                          == parity)


def _assert_matches(pair, target, vals, vecs, sector):
    """``pair`` against the reference eigenvector of the sector (columns of
    ``vecs``) that overlaps ``target`` most."""
    ref = int(np.argmax(np.abs(vecs.T @ target.reshape(-1)[sector])))
    assert abs(pair.value - vals[ref]) <= 1e-12 * abs(vals[ref])
    assert 1.0 - abs(vecs[:, ref] @ pair.vector.reshape(-1)[sector]) <= 1e-12


def test_sector_eigenpair_matches_full_space_on_certify_grid():
    # every certify pair at cutoff 30 against a dense eigh of its sector of
    # the full-space H; H has no entry between the two sectors
    dims = FockDims(30, 30)
    for v in reports.CERT_GRID_V:
        for ratio in reports.CERT_GRID_RATIO:
            if ratio <= math.exp(2 * v):
                continue
            dp = DiagParams(ratio, 1.0, v)
            pp = forward_map(dp)
            h = sparse_hamiltonian(pp, dims).toarray()
            ref = {}
            for parity in (0, 1):
                sector = _parity_sector(dims, parity)
                assert not h[np.ix_(sector, _parity_sector(dims, 1 - parity))].any()
                ref[parity] = (sector, *np.linalg.eigh(h[np.ix_(sector, sector)]))
            targets = eigenstates([dp] * 4, reports.CERT_OCCUPATIONS, dims)
            for i, (n_f, n_d) in enumerate(reports.CERT_OCCUPATIONS):
                target = targets[:, :, i]
                sector, vals, vecs = ref[(n_f + n_d) % 2]
                _assert_matches(_pair(pp, target, (n_f + n_d) % 2),
                                target, vals, vecs, sector)


def test_numeric_eigenpair_matches_eigsh_on_top_rung():
    # a cell that certifies only at cutoff 78, against shift-invert Lanczos
    # on the sparse sector matrix
    dims = FockDims(78, 78)
    dp = DiagParams(math.e ** 3, 1.0, 0.6)
    pp = forward_map(dp)
    target = _target(dp, 1, 1, dims)
    sector = _parity_sector(dims, 0)
    h = sparse_hamiltonian(pp, dims)[sector][:, sector].tocsc()
    start = target.reshape(-1)[sector]
    vals, vecs = spla.eigsh(h, k=3, sigma=start @ (h @ start), which="LM",
                            v0=np.ones(len(sector)))
    _assert_matches(_pair(pp, target, 0), target, vals, vecs, sector)


def test_mixed_dp_loops_match_per_dp_calls():
    # the cutoff-30 rung of the certify grid in one call, parameter sets
    # interleaved: 12 of the 32 pairs refuse on the truncation gate there
    dims = FockDims(30, 30)
    dps = [DiagParams(ratio, 1.0, v) for v in reports.CERT_GRID_V
           for ratio in reports.CERT_GRID_RATIO if ratio > math.exp(2 * v)]
    assert len(dps) == 8
    pairs = [(dp, occ) for occ in reports.CERT_OCCUPATIONS for dp in dps]
    mixed = oracle.discrete_berry_loops([dp for dp, _ in pairs], [occ for _, occ in pairs],
                                        [dims])
    single = {dp: oracle.discrete_berry_loops([dp] * 4, reports.CERT_OCCUPATIONS, [dims])
              for dp in dps}
    refused = 0
    for (dp, occ), got in zip(pairs, mixed):
        want = single[dp][reports.CERT_OCCUPATIONS.index(occ)]
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
    return [DiagParams(ratio, 1.0, v) for v in reports.CERT_GRID_V
            for ratio in reports.CERT_GRID_RATIO if ratio > math.exp(2 * v)]


def _assert_same_pairs(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, OracleError):
            assert isinstance(g, OracleError) and str(g) == str(w)
            continue
        assert abs(g.value - w.value) <= 1e-12 * abs(w.value)
        assert 1.0 - abs(np.vdot(g.vector, w.vector)) <= 1e-12


def test_stacked_eigenpairs_match_one_at_a_time_on_certify_rung():
    # every certify pair at cutoff 30, each parity solved as one stack
    dims = FockDims(30, 30)
    for parity in (0, 1):
        pairs = [(dp, occ) for dp in _certify_dps() for occ in reports.CERT_OCCUPATIONS
                 if sum(occ) % 2 == parity]
        assert len(pairs) == 16
        pps = [forward_map(dp) for dp, _ in pairs]
        targets = eigenstates([dp for dp, _ in pairs], [occ for _, occ in pairs], dims)
        _assert_same_pairs(numeric_eigenpairs(pps, targets, [parity] * 16),
                           [_pair(pp, targets[:, :, i], parity) for i, pp in enumerate(pps)])


@pytest.mark.parametrize("dims", [FockDims(30, 30), FockDims(13, 11)], ids=str)
def test_mixed_parity_stack_matches_per_parity_stacks(dims):
    # every certify pair in one stack, both parities interleaved, against one
    # stack per parity; at an odd n_det the two sectors' blocks differ by one
    # level, which the smaller sector pads (one pair refuses at 13 x 11)
    pairs = [(dp, occ) for dp in _certify_dps() for occ in reports.CERT_OCCUPATIONS]
    pps = [forward_map(dp) for dp, _ in pairs]
    targets = eigenstates([dp for dp, _ in pairs], [occ for _, occ in pairs], dims)
    parities = [sum(occ) % 2 for _, occ in pairs]
    mixed = numeric_eigenpairs(pps, targets, parities)
    for parity in (0, 1):
        cols = [i for i, p in enumerate(parities) if p == parity]
        _assert_same_pairs([mixed[i] for i in cols],
                           numeric_eigenpairs([pps[i] for i in cols], targets[:, :, cols],
                                              [parity] * len(cols)))


def test_odd_detector_cutoff_pairs_match_full_space():
    # the padded sector of an odd n_det against a dense eigh of each sector
    dims = FockDims(13, 11)
    dp = DiagParams(math.e, 1.0, 0.1)
    pp = forward_map(dp)
    h = sparse_hamiltonian(pp, dims).toarray()
    targets = eigenstates([dp] * 4, reports.CERT_OCCUPATIONS, dims)
    parities = [sum(occ) % 2 for occ in reports.CERT_OCCUPATIONS]
    got = numeric_eigenpairs([pp] * 4, targets, parities)
    for i, parity in enumerate(parities):
        sector = _parity_sector(dims, parity)
        vals, vecs = np.linalg.eigh(h[np.ix_(sector, sector)])
        _assert_matches(got[i], targets[:, :, i], vals, vecs, sector)


def _solved(monkeypatch):
    """The truncation and pair count of each ``numeric_eigenpairs`` call from now on."""
    calls = []
    solve = oracle.numeric_eigenpairs

    def counted(pps, targets, parities):
        calls.append((FockDims(*targets.shape[:2]), len(pps)))
        return solve(pps, targets, parities)

    monkeypatch.setattr(oracle, "numeric_eigenpairs", counted)
    return calls


def test_certification_report_solves_each_truncation_once(monkeypatch):
    # the loop grid sizes every pair from its exact target and solves the pairs
    # of each truncation, of both parities, as one stack: each pair once
    calls = _solved(monkeypatch)
    assert cli.certification_report()["passed"]
    assert calls == [(FockDims(30, 30), 18), (FockDims(44, 30), 6), (FockDims(60, 44), 4),
                     (FockDims(60, 30), 2), (FockDims(78, 30), 2)]


CERTIFY_LADDER = [FockDims(c, c) for c in reports.CUTOFF_LADDER]


def test_ladder_field_tail_moves_only_the_field(monkeypatch):
    # (v, ratio) = (0.3, e^2), |0_f 1_d>: only the field's strip of the target
    # exceeds the gate at 30, so the pair is sized to (44, 30) and solved there once
    calls = _solved(monkeypatch)
    got = discrete_berry_loops([DiagParams(E2, 1.0, 0.3)], [(0, 1)], CERTIFY_LADDER)
    assert calls == [(FockDims(44, 30), 1)]
    assert got[0].dims == FockDims(44, 30)
    # a refusal by another gate of the eigenvector (here ambiguity, planted by a
    # threshold above any overlap of unit vectors: this pair's overlap rounds to
    # 1.0 exactly) is final: the pair is not solved again at a larger truncation
    monkeypatch.setattr(oracle, "AMBIGUITY_OVERLAP", 2.0)
    got = discrete_berry_loops([DiagParams(E2, 1.0, 0.3)], [(0, 1)], CERTIFY_LADDER)
    assert calls[1:] == [(FockDims(44, 30), 1)]
    assert isinstance(got[0], OracleError) and "ambiguous" in str(got[0])


def test_ladder_detector_tail_moves_only_the_detector(monkeypatch):
    # 10 detector levels: the detector's strip refuses and the field's passes, so
    # the field stays at 30 when the detector is sized to 30
    calls = _solved(monkeypatch)
    ladder = [FockDims(30, 10), FockDims(44, 30)]
    got = discrete_berry_loops([DiagParams(E2, 1.0, 0.3)], [(0, 0)], ladder)
    assert calls == [(FockDims(30, 30), 1)]
    assert got[0].dims == FockDims(30, 30)


def test_sizing_solves_an_unfit_pair_at_each_mode_top_cutoff(monkeypatch):
    # the field's strip exceeds the gate at 12, its only cutoff, so the field takes
    # 12; the detector fits at 40 of the 12 x 40 build, so 60 is never built, and
    # the numerical eigenvector's truncation gate refuses the pair on the field's
    # tail, as a one-rung call at (12, 40) does
    calls = _solved(monkeypatch)
    ladder = [FockDims(12, 12), FockDims(12, 40), FockDims(12, 60)]
    got = discrete_berry_loops([CANONICAL], [(1, 0)], ladder)
    assert calls == [(FockDims(12, 40), 1)]
    assert isinstance(got[0], OracleError) and "truncation tail 5.175e-04" in str(got[0])


def test_under_sized_targets_are_refused_by_the_numerical_gate(monkeypatch):
    # a planted sizing fault: targets with every amplitude at or above level 28
    # of either mode zeroed fit every pair at (30, 30); the 12 cells that need
    # more come back refused by the eigenvectors' own truncation gate
    exact = oracle.eigenstates

    def cut(dps, occupations, dims):
        g = exact(dps, occupations, dims)
        g[28:], g[:, 28:] = 0.0, 0.0
        return g

    monkeypatch.setattr(oracle, "eigenstates", cut)
    calls = _solved(monkeypatch)
    report = cli.certification_report()
    assert calls == [(FockDims(30, 30), 32)]
    refused = [c for c in report["loop_cells"] if "refused" in c]
    assert len(refused) == 12
    assert all("truncation tail" in c["refused"] for c in refused)
    assert report["passed"] is False


def test_stacked_eigenpairs_return_refusals_as_values():
    # three refusals from decoupled levels (see the single-pair tests above)
    # stacked between two good pairs of CANONICAL
    dims = FockDims(12, 12)
    pp, decoupled = forward_map(CANONICAL), PhysicalParams(3.0, 2.0, 0.0)
    good = eigenstates([CANONICAL] * 2, [(0, 0), (1, 1)], dims)
    unconverged = _ket(dims, (0, 0), (1, 1))
    ambiguous = _ket(dims, (0, 0), (1, 1), (0, 2))
    outside = good[:, :, 0] + 1e-9 * _ket(dims, (1, 0))
    got = numeric_eigenpairs(
        [pp, decoupled, pp, decoupled, pp],
        np.stack([good[:, :, 0], unconverged, outside, ambiguous, good[:, :, 1]], axis=2), [0] * 5)
    for refusal, reason in zip(got[1:4], (f"unconverged after {oracle.RQI_MAX_STEPS} solves",
                                          "outside the sector", "ambiguous: overlap 0.5774")):
        assert isinstance(refusal, OracleError) and reason in str(refusal)
        assert refusal.__traceback__ is None
    _assert_same_pairs([got[0], got[4]], numeric_eigenpairs([pp, pp], good, [0, 0]))


def test_singular_pair_leaves_stack_neighbours_unchanged(monkeypatch):
    # lam = 0: the even mixture of the levels 0, 4, 6 and 10 has amplitudes 1/2
    # and Rayleigh quotient 5 to the bit, the energy of |1,1>, so block 1 of
    # H - sigma is exactly singular and the stacked sweep fails
    dims = FockDims(12, 12)
    pp, decoupled = forward_map(CANONICAL), PhysicalParams(3.0, 2.0, 0.0)
    good = eigenstates([CANONICAL] * 2, [(0, 0), (1, 1)], dims)
    singular = _ket(dims, (0, 0), (0, 2), (2, 0), (2, 2))
    failed = []
    sweep = oracle._sweep

    def watched(shifted, couple, parity, lam, rhs):
        try:
            return sweep(shifted, couple, parity, lam, rhs)
        except np.linalg.LinAlgError:
            failed.append(len(lam))
            raise

    monkeypatch.setattr(oracle, "_sweep", watched)
    got = numeric_eigenpairs([pp, decoupled, pp],
                             np.stack([good[:, :, 0], singular, good[:, :, 1]], axis=2), [0] * 3)
    assert failed[:2] == [3, 1]  # the stack, then the singular pair alone
    assert isinstance(got[1], OracleError) and "unconverged" in str(got[1])
    _assert_same_pairs([got[0], got[2]], numeric_eigenpairs([pp, pp], good, [0, 0]))


def test_shifted_solve_matches_dense_sector_solve():
    # one stack through the block-Thomas sweep: both parities, mixed lam and an
    # odd n_det, so the smaller sector's blocks carry the padding level; pairs 0
    # and 1 are shifted 1e-9 from an eigenvalue of their sector, pairs 2 and 3 to
    # the midpoint of two, and each normalized solution must match a dense solve
    dims = FockDims(9, 7)
    pps = [PhysicalParams(3.0, 2.0, 0.4), PhysicalParams(3.0, 2.0, 0.9),
           PhysicalParams(2.5, 1.0, 0.3), PhysicalParams(2.5, 1.0, 0.7)]
    parity = np.array([0, 1, 0, 1])
    n_f, n_d = np.ogrid[:dims.n_field, :dims.n_det]
    rng = np.random.default_rng(7)
    v = np.zeros((dims.n_field, dims.n_det + 1, len(pps)))  # + the padding level
    sigma, want = [], []
    for i, (pp, p) in enumerate(zip(pps, parity)):
        sector = np.flatnonzero(((n_f + n_d) % 2 == p).ravel())
        h = sparse_hamiltonian(pp, dims).toarray().real[np.ix_(sector, sector)]
        e = np.linalg.eigvalsh(h)
        sigma.append(e[3] + 1e-9 if i < 2 else (e[3] + e[4]) / 2)
        rhs = rng.standard_normal(len(sector))
        v[:, :dims.n_det, i] = np.bincount(sector, rhs, dims.total).reshape(dims.n_field, -1)
        w = np.linalg.solve(h - sigma[-1] * np.eye(len(sector)), rhs)
        want.append((sector, w / np.linalg.norm(w)))
    levels, couple = oracle._sector_layout(dims.n_field, dims.n_det)
    levels = levels[:, parity]
    omega_a, omega_b, lam = np.array([(pp.Omega_a, pp.Omega_b, pp.lam) for pp in pps]).T
    energy = omega_a[:, None] * np.arange(dims.n_field)[:, None, None] + omega_b[:, None] * levels
    shifted = np.where(levels == dims.n_det, 1.0, energy - np.array(sigma)[:, None])
    index = levels.transpose(0, 2, 1)
    rhs = np.take_along_axis(v, index, axis=1).transpose(0, 2, 1)
    got = oracle._shifted_solve(shifted, couple, parity, lam, rhs, np.full(4, 1e-13))
    assert (levels == dims.n_det).any(axis=(0, 2)).all()  # every pair, in alternate blocks
    out = np.zeros_like(v)
    np.put_along_axis(out, index, got.transpose(0, 2, 1), axis=1)
    assert not out[:, dims.n_det].any()  # nothing reaches the padding level
    for i, (sector, w) in enumerate(want):
        sol = out[:, :dims.n_det, i].reshape(-1)
        assert np.abs(sol[sector] / np.linalg.norm(sol) - w).max() <= 4e-15, i


def test_sized_cells_match_fresh_single_rung_loops():
    # each certify cell is solved in a stack of the pairs sized with it, from a
    # target cropped from the build that sized it; a fresh one-rung call at its
    # truncation solves it alone, from a target built there
    pairs = [(dp, occ) for dp in _certify_dps() for occ in reports.CERT_OCCUPATIONS]
    sized = oracle.discrete_berry_loops([dp for dp, _ in pairs], [occ for _, occ in pairs],
                                        CERTIFY_LADDER)
    assert sum(got.dims != CERTIFY_LADDER[0] for got in sized) == 14
    for (dp, (n_f, n_d)), got in zip(pairs, sized):
        fresh = _loop(dp, n_f, n_d, got.dims)
        assert abs(got.phase.raw - fresh.phase.raw) <= 1e-12
        assert abs(got.truncation_tail - fresh.truncation_tail) <= 1e-15
    with pytest.raises(ValueError, match="growing"):
        oracle.discrete_berry_loops([CANONICAL], [(0, 0)], CERTIFY_LADDER[::-1])


@pytest.mark.parametrize("v, ratio", [(0.1, math.e ** 3), (0.3, math.e ** 2),
                                      (0.6, math.e ** 3)])
def test_field_ladder_loops_match_closed_form(v, ratio):
    # the (n, 0) loops of a thermal mixture at tanh^2 r = 0.1 (n <= 11): targets
    # padded by a fixed factor selected the wrong eigenvector of (0.1, e^3) at
    # n = 8 and 10 and of (0.6, e^3) at n = 10 and 11
    dp = DiagParams(ratio, 1.0, v)
    occupations = [(n, 0) for n in range(12)]
    ladder = [FockDims(c, c) for c in reports.CUTOFF_LADDER]
    got = discrete_berry_loops([dp] * 12, occupations, ladder)
    for (n_f, n_d), loop in zip(occupations, got):
        assert not isinstance(loop, OracleError), (n_f, loop)
        diff = phase_distance(loop.phase.raw, eigen_berry_phase(dp, n_f, n_d).raw)
        assert diff < reports.CERT_LOOP_TOL, (n_f, diff)


def test_sector_solve_refuses_target_outside_sector():
    dims = FockDims(12, 12)
    amp = _target(CANONICAL, 1, 0, dims) + 1e-9 * _ket(dims, (0, 0))
    refusal = _pair(forward_map(CANONICAL), amp, 1)
    assert isinstance(refusal, OracleError) and "outside the sector" in str(refusal)


def test_numeric_eigenpairs_checks_and_normalizes_stacks():
    # a malformed target stack is a caller's error, not a refusal: a zero column,
    # a non-finite or complex entry, a column count other than the pairs', or
    # parities that are not one 0 or 1 per column; a well-formed stack is
    # normalized column by column
    dims = FockDims(6, 6)
    pps = [PhysicalParams(3.0, 2.0, 0.0)] * 2
    good = np.stack([_ket(dims, (0, 0)), _ket(dims, (1, 1))], axis=2)
    zero, nan = good.copy(), good.copy()
    zero[:, :, 1] = 0.0
    nan[3, 3, 0] = np.nan
    for targets in (zero, nan, 1j * good, good[:, :, 0], good[:, :, :1]):
        with pytest.raises(ValueError, match="need a real, finite"):
            numeric_eigenpairs(pps, targets, [0, 0])
    for parities in (0, [0], [0, 0, 0], [0, 2], [0.5, 0], [0.0, 0.0], [False, False]):
        with pytest.raises(ValueError, match="one parity"):
            numeric_eigenpairs(pps, good, parities)
    _assert_same_pairs(numeric_eigenpairs(pps, 3.0 * good, [0, 0]),
                       numeric_eigenpairs(pps, good, [0, 0]))


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
    # the refusal reads the tail of thermal_weights, and required_levels
    # sizes the sum to just below it
    for r in (0.3, 0.9, 2.0, 4.0):
        n_max = required_levels(r)
        assert thermal_weights(r, n_max)[1] < oracle.TAIL_TARGET
        partial_sum_from_eps(0.2, 0.0, r, n_max)
        with pytest.raises(OracleError, match=f"need n_max >= {n_max}"):
            partial_sum_from_eps(0.2, 0.0, r, n_max - 1)


def test_mixed_phase_dp_route():
    # the thermal phase gamma_0 - offset at the epsilon of CANONICAL's triple
    # against the explicit sum over its eigenstate phases
    r = 0.6
    eps = epsilon(forward_map(CANONICAL))
    gamma0 = eigen_berry_phase(CANONICAL, 0, 0).raw
    closed = gamma0 - mixed_phase_offset(eps, r)
    summed = partial_sum_from_eps(eps, gamma0, r, required_levels(r) + 2)
    assert phase_distance(closed, summed.value) < 1e-10


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


def test_evolver_pinned_to_stepwise_values():
    window = oracle._window(FIG6_MHZ.lam / FIG6_MHZ.Omega_a, max(ROWS), 3)
    rows = np.array([oracle._evolve(FIG6_MHZ, n0, 3, window)[0] for n0 in ROWS])
    assert np.all(rows >= 0.0)
    np.testing.assert_allclose(rows, list(ROWS.values()), rtol=0, atol=1e-12)
    moved = np.abs(rows - list(SEED_ROWS_600.values())).max()
    assert 5e-11 < moved < 2e-10


DETUNED = [PhysicalParams(1.0, 0.77, 0.02), PhysicalParams(1.0, 1.3, 0.02)]


def _law_40_digits(pp, r, t):
    """P(t) = 1 - (1 + 8 g^2 cosh 2r sin^2(pi rho t) / rho^2)^(-1/2) at 40 digits:
    the Gaussian average over x_f of the coherent drive of each x_f."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        g, rho = mp.mpf(pp.lam) / pp.Omega_a, mp.mpf(pp.Omega_b) / pp.Omega_a
        y = 8 * g ** 2 * mp.cosh(2 * mp.mpf(r)) * mp.sin(mp.pi * rho * mp.mpf(t)) ** 2 / rho ** 2
        return 1 - 1 / mp.sqrt(1 + y)


def test_thermal_mixture_matches_occupation_sum(monkeypatch):
    # n-bar = 1 off resonance, where P at the cycle boundaries is not 0: the
    # covariance propagator against the Fock rows of the window evolver, on a
    # detector of 40 levels, summed with the thermal weights to a 1e-18 tail
    # (60 rows)
    monkeypatch.setattr(oracle, "DETECTOR_LEVELS", 40)
    r = math.asinh(1.0)
    spec = EvolutionSpec()
    n_max = required_levels(r, 1e-18)
    w, _ = thermal_weights(r, n_max)
    for pp in DETUNED:
        exact = w @ [excitation_probability_per_cycle(pp, 3, spec, n) for n in range(n_max + 1)]
        assert exact.min() > 1e-5
        mix = thermal_excitation_per_cycle(pp, 3, spec, r)
        np.testing.assert_allclose(mix.per_cycle, exact, rtol=1e-13, atol=0)


@pytest.mark.parametrize("cycles", [3, 8])
def test_thermal_mixture_matches_40_digit_rule(cycles):
    # every cycle boundary off resonance, where P is not 0, against the
    # 40-digit law (the Gaussian average over x_f of each x_f's coherent drive)
    for pp in DETUNED:
        mix = thermal_excitation_per_cycle(pp, cycles, EvolutionSpec(), R_1MK)
        law = [float(_law_40_digits(pp, R_1MK, t)) for t in range(1, cycles + 1)]
        np.testing.assert_allclose(mix.per_cycle, law, rtol=1e-13, atol=0)


def test_vacuum_path_equals_thermal_path_at_zero_squeeze(monkeypatch):
    # r = 0 is the vacuum: the window evolver from |0_f> on a detector of 40
    # levels and the covariance propagator give the same P off resonance
    monkeypatch.setattr(oracle, "DETECTOR_LEVELS", 40)
    spec = EvolutionSpec()
    for pp in DETUNED:
        vacuum = excitation_probability_per_cycle(pp, 8, spec, 0)
        thermal = thermal_excitation_per_cycle(pp, 8, spec, 0.0)
        assert (thermal.tail_bound, len(thermal.grid)) == (0.0, 0)
        np.testing.assert_allclose(thermal.per_cycle, vacuum, rtol=1e-13, atol=0)


@pytest.mark.parametrize("nodes", [80, 81, 160, 161, 320])
def test_field_rule_is_gauss_hermite(nodes):
    # x_f on levels 0 .. N-1 gives numpy's Gauss-Hermite rule: x = sqrt(2) t, w / sqrt(pi);
    # an odd N has the node 0, exactly
    xi, amps = oracle._field_rule(nodes, 0, [0])
    t, w = np.polynomial.hermite.hermgauss(nodes)
    np.testing.assert_allclose(xi, math.sqrt(2.0) * t, rtol=1e-13, atol=0)
    weights = amps[0] ** 2
    np.testing.assert_allclose(weights, w / math.sqrt(math.pi), rtol=0, atol=1e-14)
    heavy = w / math.sqrt(math.pi) > 1e-10
    np.testing.assert_allclose(weights[heavy], w[heavy] / math.sqrt(math.pi), rtol=1e-10)
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n, first", [(2, 0), (3, 0), (15, 0), (16, 0), (80, 0), (160, 0),
                                      (4, 7), (5, 100), (197, 1710)])
def test_field_rule_matches_dense_eigh(n, first):
    # every row of the rule against a dense eigh of x_f on the levels first .. first + n - 1
    off = np.sqrt(np.arange(first + 1.0, first + n))
    x_f = np.diag(off, 1) + np.diag(off, -1)
    w, vecs = np.linalg.eigh(x_f)
    xi, amps = oracle._field_rule(n, first, range(n))
    scale = 2.0 * math.sqrt(first + n)  # bounds the norm of x_f
    assert np.all(np.diff(xi) > 0)
    np.testing.assert_allclose(xi, w, rtol=0, atol=1e-14 * scale)
    np.testing.assert_allclose(amps ** 2, vecs ** 2, rtol=0, atol=1e-13)
    assert np.abs(x_f @ amps - amps * xi).max() <= 1e-14 * scale
    assert np.abs(amps.T @ amps - np.eye(n)).max() <= 1e-14
    # the weights the window evolver forms, <n0|xi_j><k|xi_j> for the edge rows k,
    # are free of each eigenvector's sign
    rows = [n // 2, 0, 1, n - 2, n - 1]
    np.testing.assert_allclose(amps[rows[0]] * amps[rows], vecs[rows[0]] * vecs[rows],
                               rtol=0, atol=1e-13)
    # a few rows are the same rows of the whole rule, to the bit
    assert np.array_equal(oracle._field_rule(n, first, rows)[1], amps[rows])


def _per_cycle_detector(pp, kappa, start, cycles):
    """``_detector_cycles`` as one numpy evaluation per cycle: the reference of its blocks."""
    levels = np.arange(oracle.DETECTOR_LEVELS)
    generator = kappa[:, None, None] * (np.diag(np.sqrt(levels[1:]), 1)
                                        + np.diag(np.sqrt(levels[1:]), -1))
    generator[:, levels, levels] += (pp.Omega_b / pp.Omega_a) * levels
    w, v = np.linalg.eigh(generator)
    coef = v[:, 0, :] * start[:, None]
    excited = np.empty((cycles, len(start)))
    for c in range(cycles):
        psi = np.einsum("kij,kj->ki", v, np.exp(-2j * math.pi * (c + 1) * w) * coef)
        excited[c] = np.sum(np.abs(psi[:, 1:]) ** 2, axis=1)
    return excited, psi


@pytest.mark.parametrize("block_cycles", [None, 3])
def test_detector_cycle_blocks_match_per_cycle_loop(monkeypatch, block_cycles):
    # a run of several blocks, the last one partial, at the default budget and at
    # blocks of 3 cycles, equals one evaluation per cycle to the bit
    nodes, levels = 36, oracle.DETECTOR_LEVELS
    if block_cycles is not None:
        monkeypatch.setattr(oracle, "CYCLE_BLOCK", block_cycles * nodes * levels)
    block = oracle.CYCLE_BLOCK // (nodes * levels)
    cycles = 2 * block + block // 2 + 1
    pp = PhysicalParams(1e6, 1.5e6, TAU * 2e4)
    kappa = np.linspace(-0.3, 0.3, nodes)
    start = np.cos(np.arange(nodes))
    excited, psi = oracle._detector_cycles(pp, kappa, start, cycles)
    ref_excited, ref_psi = _per_cycle_detector(pp, kappa, start, cycles)
    assert np.array_equal(excited, ref_excited)
    assert np.array_equal(psi, ref_psi)


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


# --------------------------------------------------------------------------
# The covariance propagator of the thermal (and vacuum) field
# --------------------------------------------------------------------------

FIG6_GHZ = PhysicalParams(1e9, 1e9, TAU * 1200.0)
LAW_CASES = {
    "fig6-ghz-vacuum": (FIG6_GHZ, 0.0),
    "fig6-mhz-1mK": (FIG6_MHZ, R_1MK),
    "fig6-mhz-1K": (FIG6_MHZ, squeeze_from_temperature(1e6, 1.0).r),
}


def _core(pp, r, times):
    return oracle._gaussian_excitation(pp.lam / pp.Omega_a, pp.Omega_b / pp.Omega_a, r, times)


@pytest.mark.parametrize("case", LAW_CASES)
def test_gaussian_excitation_matches_40_digit_law(case):
    # inside a cycle to 1e-13 relative; at the boundaries, where the law is 0,
    # to 1e-14 of the in-cycle peak (the excitation at half a cycle)
    pp, r = LAW_CASES[case]
    inside, boundaries = [0.25, 2.5], [1.0, 3.0, 8.0]
    p = _core(pp, r, inside + boundaries)
    for t, value in zip(inside, p):
        law = _law_40_digits(pp, r, t)
        assert law > 0 and abs(float((value - law) / law)) <= 1e-13, (t, value)
    peak = float(_law_40_digits(pp, r, 0.5))
    assert np.all(np.abs(p[2:]) <= 1e-14 * peak)
    per_cycle = thermal_excitation_per_cycle(pp, 8, EvolutionSpec(), r).per_cycle
    assert np.all((per_cycle >= 0.0) & (per_cycle <= 1e-14 * peak))


def test_thermal_mixture_tiny_values_kept_and_nonnegative():
    # fig6-ghz: the in-cycle P of ~2.3e-10 keeps its digits through log1p and
    # expm1, and the boundary values, rounding around 0, are clipped at 0
    p = _core(FIG6_GHZ, 0.0, [0.5, 1.0, 1.5, 2.0])
    for t, value in zip([0.5, 1.5], p[::2]):
        assert value == pytest.approx(float(_law_40_digits(FIG6_GHZ, 0.0, t)), rel=1e-13)
    assert 0.0 <= p[1::2].min() and p[1::2].max() <= 1e-14 * p[0]
    mix = thermal_excitation_per_cycle(FIG6_GHZ, 2, EvolutionSpec(),
                                       squeeze_from_temperature(1e9, 0.2).r)
    assert np.all(mix.per_cycle >= 0.0)
    assert mix.per_cycle.max() < 1e-20


def test_gaussian_excitation_does_not_depend_on_batching():
    # a time's P does not depend on which times share its call, nor on their order
    times = [0.25, 3.0, 2.5, 1.0, 1000.75, 8.0]
    alone = [float(_core(DETUNED[0], 0.7, [t])[0]) for t in times]
    together = _core(DETUNED[0], 0.7, times)
    np.testing.assert_allclose(together, alone, rtol=1e-14, atol=0)
    np.testing.assert_array_equal(_core(DETUNED[0], 0.7, times[::-1]), together[::-1])


def test_cycle_powers_match_the_law_over_200_cycles():
    # every boundary of a long run from the doubling powers of the one-cycle
    # block.  rho = 1.3 closes the detector's loop every 10 cycles, where the law
    # is 0.  The phase rounding of c cycles grows like c eps: 2.3e-13 of the
    # peak at cycle 198
    pp, r = DETUNED[1], 0.9
    got = thermal_excitation_per_cycle(pp, 200, EvolutionSpec(), r).per_cycle
    law = np.array([float(_law_40_digits(pp, r, t)) for t in range(1, 201)])
    assert (law < 1e-20).sum() == 20
    assert np.abs(got - law).max() <= 1e-12 * law.max()
    np.testing.assert_allclose(got[:8], law[:8], rtol=1e-13, atol=0)


@pytest.mark.parametrize("scale", [0.0, 0.3, 5.0, 40.0])
def test_expm_matches_scipy(scale):
    # the scaled Taylor step on a stack of general 8 x 8 matrices, from no
    # squaring (the zero matrix) to seven
    x = scale * np.random.default_rng(5).standard_normal((3, 8, 8)) / 8.0
    got = oracle._expm(x)
    expect = np.array([expm(m) for m in x])
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-13 * max(1.0, np.abs(expect).max()))


def test_thermal_mixture_forms_no_singular_vectors(monkeypatch):
    # the covariance propagator is matrix products alone: no SVD and no
    # eigensolver, so it forms no singular vector; repeated calls give the same bits
    def never(*args, **kwargs):
        raise AssertionError("the thermal oracle called a dense decomposition")

    for name in ("svd", "eigh", "eig", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, never)
    mix = thermal_excitation_per_cycle(FIG6_MHZ, 8, EvolutionSpec(), R_1MK)
    again = thermal_excitation_per_cycle(FIG6_MHZ, 8, EvolutionSpec(), R_1MK)
    assert again.per_cycle.tobytes() == mix.per_cycle.tobytes()
