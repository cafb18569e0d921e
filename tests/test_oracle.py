import math

import numpy as np
import pytest
import scipy.sparse as sp

from berrytherm import cli, oracle
from berrytherm.diagonalization import (
    DiagParams,
    PhysicalParams,
    build_hamiltonian,
    eigenstate,
    eigenstates,
    forward_map,
    inverse_map,
)
from berrytherm.fockspace import FockDims, StateVector, basis_state, number_diagonal
from berrytherm.geomphase import (
    ThermalSqueeze,
    eigen_berry_phase,
    mixed_phase_offset,
    mixed_thermal_phase,
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
    mixed_phase_partial_sum,
    numeric_eigenpair,
    pancharatnam_product,
    partial_sum_from_G,
    rotation_covariance_residual,
    schrodinger_excitation_probability,
    thermal_excitation_per_cycle,
)
from berrytherm.thermo import required_levels, squeeze_from_temperature

E2 = math.e ** 2
CANONICAL = DiagParams(2e9 / E2 * E2, 2e9 / E2, 0.3)  # == (2e9, 2e9/e^2, 0.3)
TAU = 2 * math.pi


def test_loopspec_validation():
    with pytest.raises(ValueError):
        LoopSpec(n_points=8)


def test_numeric_eigenpair_decoupled():
    dims = FockDims(6, 6)
    pp = PhysicalParams(3.0, 2.0, 0.0)
    h = build_hamiltonian(pp, 0.0, dims).toarray()
    pair = numeric_eigenpair(h, basis_state(dims, 1, 0))
    assert pair.value == pytest.approx(3.0, abs=1e-12)
    assert abs(pair.vector.amp[dims.index(1, 0)]) == pytest.approx(1.0, abs=1e-12)
    # gauge fix: largest component real positive
    assert pair.vector.amp[dims.index(1, 0)].real > 0
    assert abs(pair.vector.amp[dims.index(1, 0)].imag) < 1e-14


def test_numeric_eigenpair_residual_contract():
    dims = FockDims(14, 14)
    pp = forward_map(CANONICAL)
    h = build_hamiltonian(pp, 0.0, dims).toarray()
    target = eigenstate(CANONICAL, 0, 0, 0.0, dims)
    pair = numeric_eigenpair(h, target)
    res = np.linalg.norm(h @ pair.vector.amp - pair.value * pair.vector.amp)
    assert res < 1e-10 * np.abs(h).max()


def test_numeric_eigenpair_overlap_certification():
    # weak resonant coupling: analytic dressed state matches brute force
    pp = PhysicalParams(2e9, 2e9, 2e9 * 1e-7)
    dp = inverse_map(pp)
    dims = FockDims(14, 14)
    h = build_hamiltonian(pp, 0.0, dims).toarray()
    for occ in ((0, 0), (1, 0), (0, 1)):
        target = eigenstate(dp, occ[0], occ[1], 0.0, dims)
        pair = numeric_eigenpair(h, target)
        assert pair.overlap > 1 - 1e-8


def test_numeric_eigenpair_rejects_nonhermitian():
    dims = FockDims(4, 4)
    bad = np.zeros((16, 16), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        numeric_eigenpair(bad, basis_state(dims, 0, 0))


def test_numeric_eigenpair_rejects_nonhermitian_sparse():
    # a negative-imaginary diagonal defect: the largest |H - H^dag| entry is
    # 2e-3, while a max over complex entries (lexicographic) would see 0
    dims = FockDims(6, 6)
    h = build_hamiltonian(PhysicalParams(3.0, 2.0, 0.1), 0.0, dims)
    i = dims.index(1, 0)
    bad = (h + sp.csr_matrix(([-1e-3j], ([i], [i])), shape=h.shape)).tocsr()
    target = basis_state(dims, 1, 0)
    for mat in (bad, bad.toarray()):
        with pytest.raises(ValueError, match=r"not Hermitian \(defect 2\.00e-03\)"):
            numeric_eigenpair(mat, target)


@pytest.mark.parametrize("varphi", [0.0, 0.4])
def test_numeric_eigenpair_sparse_repeatable_bits(varphi):
    # ARPACK's own start vector is random and moved the last digits from call
    # to call; a real H (varphi = 0) is solved in real arithmetic
    dims = FockDims(44, 44)
    h = build_hamiltonian(forward_map(CANONICAL), varphi, dims)
    target = eigenstate(CANONICAL, 1, 1, varphi, dims)
    pairs = [numeric_eigenpair(h, target) for _ in range(3)]
    for pair in pairs[1:]:
        assert pair.value == pairs[0].value
        assert np.array_equal(pair.vector.amp, pairs[0].vector.amp)
    assert pairs[0].overlap > 0.999
    assert pairs[0].vector.amp.imag.any() == (varphi != 0.0)


def test_numeric_eigenpair_ambiguity():
    dims = FockDims(5, 5)
    pp = PhysicalParams(3.0, 2.0, 0.0)
    h = build_hamiltonian(pp, 0.0, dims).toarray()
    mixed = basis_state(dims, 0, 0).amp + basis_state(dims, 1, 0).amp \
        + basis_state(dims, 0, 1).amp + basis_state(dims, 1, 1).amp
    with pytest.raises(OracleError, match="ambiguous"):
        numeric_eigenpair(h, StateVector(dims, mixed))


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
    chi = numeric_eigenpair(build_hamiltonian(pp, 0.0, dims),
                            eigenstate(dp, n_f, n_d, 0.0, dims)).vector

    def loop_at(n_points):
        states = []
        prev = chi.amp
        min_ov = 1.0
        for phi in 2.0 * math.pi * np.arange(n_points) / n_points:
            _, vecs = np.linalg.eigh(build_hamiltonian(pp, phi, dims).toarray())
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


def test_loop_every_point_matches_propagated():
    # full re-diagonalization at every grid point agrees with the
    # rotation-propagated loop at small cutoff
    dp = DiagParams(math.exp(2 * 0.45), 1.0, 0.15)
    dims = FockDims(10, 10)
    spec = LoopSpec(n_points=64)
    raw, min_overlap = _every_point_loop(dp, 1, 0, spec, dims)
    # method-equivalence check: loosen the absolute truncation gate, both
    # routes share the same truncated eigenvector
    b = discrete_berry_loop(dp, 1, 0, spec, dims, truncation_gate=1e-3)
    assert phase_distance(raw, b.phase.raw) < 1e-9
    assert min_overlap > 0.99


def test_loop_truncation_gate_refuses():
    with pytest.raises(OracleError, match="truncation"):
        discrete_berry_loop(CANONICAL, 1, 0, LoopSpec(256), FockDims(12, 12))


def _parity_sector(dims, parity):
    return np.flatnonzero(
        (number_diagonal(dims, "field") + number_diagonal(dims, "detector")) % 2 == parity)


def _assert_sector_matches_full(h, target, parity):
    full = numeric_eigenpair(h, target)
    part = numeric_eigenpair(h, target, _parity_sector(target.dims, parity))
    assert abs(part.value - full.value) <= 1e-12 * abs(full.value)
    assert 1.0 - abs(np.vdot(part.vector.amp, full.vector.amp)) <= 1e-12


def test_sector_eigenpair_matches_full_space_on_certify_grid():
    dims = FockDims(30, 30)
    for v in cli.CERT_GRID_V:
        for ratio in cli.CERT_GRID_RATIO:
            if ratio <= math.exp(2 * v):
                continue
            dp = DiagParams(ratio, 1.0, v)
            h = build_hamiltonian(forward_map(dp), 0.0, dims)
            targets = eigenstates(dp, cli.CERT_OCCUPATIONS, 0.0, dims)
            for (n_f, n_d), target in zip(cli.CERT_OCCUPATIONS, targets):
                _assert_sector_matches_full(h, target, (n_f + n_d) % 2)


def test_sector_eigenpair_matches_full_space_complex_hamiltonian():
    dims = FockDims(30, 30)
    h = build_hamiltonian(forward_map(CANONICAL), 0.4, dims)
    assert h.data.imag.any()
    for n_f, n_d in cli.CERT_OCCUPATIONS:
        target = eigenstate(CANONICAL, n_f, n_d, 0.4, dims)
        _assert_sector_matches_full(h, target, (n_f + n_d) % 2)


def test_cross_parity_entry_refuses_sector_solve(monkeypatch):
    dp = DiagParams(E2, 1.0, 0.3)
    dims = FockDims(30, 30)
    h = build_hamiltonian(forward_map(dp), 0.0, dims)
    i, j = dims.index(0, 0), dims.index(0, 1)
    eps = 1e-6 * abs(h).max()
    planted = (h + sp.csr_matrix(([eps, eps], ([i, j], [j, i])), shape=h.shape)).tocsr()
    monkeypatch.setattr(oracle, "build_hamiltonian", lambda pp, varphi, dims: planted)
    results = oracle.discrete_berry_loops(dp, cli.CERT_OCCUPATIONS, LoopSpec(256), dims)
    assert len(results) == len(cli.CERT_OCCUPATIONS)
    for result in results:
        assert isinstance(result, OracleError)
        assert "couples the sector to its complement" in str(result)


def test_sector_solve_refuses_target_outside_sector():
    dims = FockDims(12, 12)
    h = build_hamiltonian(forward_map(CANONICAL), 0.0, dims)
    amp = eigenstate(CANONICAL, 1, 0, 0.0, dims).amp + 1e-9 * basis_state(dims, 0, 0).amp
    with pytest.raises(OracleError, match="outside the sector"):
        numeric_eigenpair(h, StateVector(dims, amp), _parity_sector(dims, 1))


def test_partial_sum_single_term():
    res = partial_sum_from_G(0.37, 1.234, 0.0, 0)
    assert res.value == pytest.approx(1.234, abs=1e-14)


def test_partial_sum_spot_value():
    r = math.atanh(math.sqrt(0.5))
    res = partial_sum_from_G(0.25, 0.0, r, 60)
    assert res.value == pytest.approx(0.46364760900080615, abs=1e-10)


def test_partial_sum_matches_closed_form_grid():
    for tanh2 in (0.1, 0.5, 0.9):
        r = math.atanh(math.sqrt(tanh2))
        n_max = required_levels(r) + 2
        for g in (0.1, 0.25, 0.7):
            closed = -mixed_phase_offset(g, r)
            summed = partial_sum_from_G(g, 0.0, r, n_max).value
            assert phase_distance(closed, summed) < 1e-10


def test_partial_sum_refuses_fat_tail():
    r = math.atanh(math.sqrt(0.9))
    with pytest.raises(OracleError, match="n_max"):
        partial_sum_from_G(0.25, 0.0, r, 40)


def test_mixed_phase_dp_route():
    r = ThermalSqueeze(0.6)
    closed = mixed_thermal_phase(CANONICAL, r)
    summed = mixed_phase_partial_sum(CANONICAL, r, required_levels(0.6) + 2)
    assert phase_distance(closed.value, summed.value) < 1e-10


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


def test_evolution_step_bound_enforced():
    pp = PhysicalParams(1e9, 1e9, 100.0)
    cycle = TAU / pp.Omega_a
    with pytest.raises(ValueError, match="0.01"):
        EvolutionSpec(step=0.02 * cycle).resolved_steps_per_cycle(pp.Omega_a)


def test_evolution_norm_preserved_and_small_P():
    # GHz vacuum case: excitation stays far below 1e-9 at cycle boundaries
    pp = PhysicalParams(1e9, 1e9, TAU * 1200.0)
    out = excitation_probability_per_cycle(pp, 10, EvolutionSpec(steps_per_cycle=400))
    assert out.max() < 1e-9
    assert schrodinger_excitation_probability(pp, 3, EvolutionSpec()) < 1e-9


def test_evolution_perturbative_scale_off_boundary():
    # detuned case: first-order probability ~ (2 lam / Omega_b)^2 sin^2(...)
    pp = PhysicalParams(1e9, 1.5e9, 1e5)
    spec = EvolutionSpec(steps_per_cycle=600)
    out = excitation_probability_per_cycle(pp, 3, spec, n_field_initial=0)
    amp = 2 * pp.lam / pp.Omega_b
    for k, p in enumerate(out, start=1):
        expect = amp ** 2 * math.sin(math.pi * k * pp.Omega_b / pp.Omega_a) ** 2
        assert p == pytest.approx(expect, rel=2e-3, abs=1e-12)


# --------------------------------------------------------------------------
# Batched RK4 evolver
# --------------------------------------------------------------------------

FIG6_MHZ = PhysicalParams(1e6, 1e6, TAU * 1200.0)
R_1MK = squeeze_from_temperature(1e6, 1e-3).r


def _rk4_reference(pp, n0, cycles, steps, window, n_det=4):
    """Step-by-step RK4 on the dense windowed |n_f, d> problem, the plain
    form of the evolver: (P per cycle, norm drift, edge amplitude)."""
    g = pp.lam / pp.Omega_a
    lo = max(0, n0 - window)
    nf = n0 + window - lo + 1
    s = np.sqrt(np.arange(lo + 1.0, lo + nf))
    x_f = np.diag(s, 1) + np.diag(s, -1)
    b = np.diag(np.sqrt(np.arange(1.0, n_det)), 1)
    m1, m2 = np.kron(x_f, b), np.kron(x_f, b.T)
    psi = np.zeros(nf * n_det, dtype=complex)
    psi[(n0 - lo) * n_det] = 1.0
    ratio = pp.Omega_b / pp.Omega_a

    def rhs(tau, y):
        ph = np.exp(-1j * ratio * tau)
        return -1j * g * (ph * (m1 @ y) + np.conj(ph) * (m2 @ y))

    h = TAU / steps
    tau = 0.0
    out = []
    for _ in range(cycles):
        for _ in range(steps):
            k1 = rhs(tau, psi)
            k2 = rhs(tau + 0.5 * h, psi + 0.5 * h * k1)
            k3 = rhs(tau + 0.5 * h, psi + 0.5 * h * k2)
            k4 = rhs(tau + h, psi + h * k3)
            psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            tau += h
        out.append(np.sum(np.abs(psi.reshape(nf, n_det)[:, 1:]) ** 2))
    level = np.sum(np.abs(psi.reshape(nf, n_det)) ** 2, axis=1)
    edge = math.sqrt(level[-2:].sum() + (level[:2].sum() if lo > 0 else 0.0))
    return np.array(out), abs(np.linalg.norm(psi) - 1.0), edge


def test_evolver_matches_stepwise_rk4():
    # detuned and strongly coupled, so the frame phases and both window edges matter
    pp = PhysicalParams(1e6, 1.5e6, TAU * 2e4)
    out, drift, edge = oracle._evolve(pp, np.array([20, 3]), 2, 200, 12)
    for row, n0 in enumerate((20, 3)):
        ref, ref_drift, ref_edge = _rk4_reference(pp, n0, 2, 200, 12)
        assert ref.min() > 1e-4
        np.testing.assert_allclose(out[row], ref, rtol=0, atol=1e-13)
        assert drift[row] == pytest.approx(ref_drift, abs=1e-13)
        assert edge[row] == pytest.approx(ref_edge, rel=1e-12)


def test_evolver_batch_rows_equal_batch_of_one():
    n0s = np.array([0, 157, 865, 1808])
    window = oracle._window(FIG6_MHZ.lam / FIG6_MHZ.Omega_a, 1808, 3)
    batch, drift, edge = oracle._evolve(FIG6_MHZ, n0s, 3, 600, window)
    for row, n0 in enumerate(n0s):
        one, one_drift, one_edge = oracle._evolve(FIG6_MHZ, n0s[row:row + 1], 3, 600, window)
        np.testing.assert_allclose(batch[row], one[0], rtol=0, atol=1e-14)
        assert drift[row] == pytest.approx(one_drift[0], abs=1e-14)
        assert edge[row] == pytest.approx(one_edge[0], abs=1e-14)


# Values of the step-by-step dense evolver this one replaced, fig6-mhz at
# 600 steps per cycle.  That evolver reported 1 - sum |psi_{n,0}|^2, which
# also counts the RK4 norm loss; the evolver reports the excited population.
SEED_ROWS_600 = {
    0: [-8.881784197001252e-16, 7.771561172376096e-16, 0.0],
    157: [1.1877172376717482e-06, 4.195598339529205e-06, 7.698491907071059e-06],
    865: [0.0025018705116642836, 0.007802815638190075, 0.014385187091215057],
    1808: [0.04396038495112964, 0.07809333503940119, 0.0728250615649505],
}
SEED_MIXTURE_1MK_600 = [2.7700379737287204e-05, 7.93297116557639e-05, 0.00014490710730438624]


def test_evolver_pinned_to_stepwise_values(monkeypatch):
    n0s = np.array(sorted(SEED_ROWS_600))
    window = oracle._window(FIG6_MHZ.lam / FIG6_MHZ.Omega_a, int(n0s.max()), 3)
    out, drift, _ = oracle._evolve(FIG6_MHZ, n0s, 3, 600, window)
    norm_loss = 1.0 - (1.0 - drift) ** 2
    for row, n0 in enumerate(n0s):
        assert np.all(out[row] >= 0.0)
        np.testing.assert_allclose(out[row], SEED_ROWS_600[n0], rtol=0,
                                   atol=1e-12 + norm_loss[row])

    # the mixture, with the step count held at the 600-step floor
    losses = []
    evolve = oracle._evolve

    def recording(*args):
        result = evolve(*args)
        losses.append(float(np.max(1.0 - (1.0 - result[1]) ** 2)))
        return result

    monkeypatch.setattr(oracle, "_steps_per_cycle", lambda g, n_top, cycles, floor: floor)
    monkeypatch.setattr(oracle, "_evolve", recording)
    mix = thermal_excitation_per_cycle(FIG6_MHZ, 3, EvolutionSpec(steps_per_cycle=600), R_1MK)
    np.testing.assert_allclose(mix.per_cycle, SEED_MIXTURE_1MK_600, rtol=0,
                               atol=1e-12 + losses[-1])


def test_thermal_grid_one_evolver_call_no_retry(monkeypatch):
    calls = []
    evolve = oracle._evolve

    def recording(*args):
        result = evolve(*args)
        calls.append(result)
        return result

    monkeypatch.setattr(oracle, "_evolve", recording)
    mix = thermal_excitation_per_cycle(FIG6_MHZ, 8, EvolutionSpec(steps_per_cycle=600), R_1MK)
    assert len(calls) == 1
    out, drift, edge = calls[0]
    assert out.shape == (len(mix.grid), 8)
    assert edge.max() < 1e-9
    assert drift.max() <= oracle.NORM_DRIFT_LIMIT / 10


def test_raised_step_count_moves_toward_finer_reference():
    # hottest fig6-mhz grid point at the CLI default of 8 cycles: 600 steps
    # per cycle drift past the 1e-10 gate; the sized count must return and
    # land closer to a 2400-step run than 600 steps do
    spec = EvolutionSpec(steps_per_cycle=600)
    p = excitation_probability_per_cycle(FIG6_MHZ, 8, spec, 1808)
    g = FIG6_MHZ.lam / FIG6_MHZ.Omega_a
    window = oracle._window(g, 1808, 8)
    assert oracle._steps_per_cycle(g, 1808 + window, 8, 600) > 600
    coarse, coarse_drift, _ = oracle._evolve(FIG6_MHZ, np.array([1808]), 8, 600, window)
    fine, _, _ = oracle._evolve(FIG6_MHZ, np.array([1808]), 8, 2400, window)
    assert coarse_drift[0] > oracle.NORM_DRIFT_LIMIT
    assert np.abs(p - fine[0]).max() < np.abs(coarse[0] - fine[0]).max()


def test_evolution_saturated_window_retries_doubled(monkeypatch):
    spec = EvolutionSpec(steps_per_cycle=600)
    expect = excitation_probability_per_cycle(FIG6_MHZ, 3, spec, 157)
    windows = []
    evolve = oracle._evolve

    def recording(pp, n0s, cycles, steps, window):
        windows.append(window)
        return evolve(pp, n0s, cycles, steps, window)

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

    def saturated(pp, n0s, cycles, steps, window):
        windows.append(window)
        return np.zeros((len(n0s), cycles)), np.zeros(len(n0s)), np.ones(len(n0s))

    monkeypatch.setattr(oracle, "_window", lambda g, n0, cycles: 1500)
    monkeypatch.setattr(oracle, "_evolve", saturated)
    with pytest.raises(OracleError, match="field window 3000 exceeds the cap"):
        excitation_probability_per_cycle(FIG6_MHZ, 3, EvolutionSpec(), 0)
    assert windows == [1500]


def test_thermal_mixture_tiny_values_kept_and_nonnegative():
    # fig6-ghz at 0.2 K: every grid row sits near 1e-35; none may read
    # negative and the mixture must not be rounded to zero
    pp = PhysicalParams(1e9, 1e9, TAU * 1200.0)
    spec = EvolutionSpec(steps_per_cycle=600)
    mix = thermal_excitation_per_cycle(pp, 2, spec, squeeze_from_temperature(1e9, 0.2).r)
    rows = oracle._excitation(pp, 2, spec, mix.grid)
    assert np.all(rows >= 0.0)
    assert np.all(mix.per_cycle > 0.0)
    assert mix.per_cycle.max() < 1e-9
