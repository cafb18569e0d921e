import math

import numpy as np
import pytest

from berrytherm import thermo
from berrytherm.diagonalization import DiagParams, PhysicalParams, forward_map, invert_physical
from berrytherm.geomphase import (
    _phase_pieces,
    accumulate_cycles,
    delta_per_cycle_from_eps,
    eigen_berry_phase,
    epsilon,
    keystone_identity_residual,
    mixed_phase_offset,
    phase_distance,
    thermometer_delta_from_eps,
    thermometer_slope_from_eps,
    unruh_squeeze,
    wrap_angle,
)
from berrytherm.thermo import squeeze_from_temperature

E2 = math.e ** 2
CANONICAL = DiagParams(2e9, 2e9 / E2, 0.3)
TAU = 2 * math.pi
EPS_CANONICAL = epsilon(forward_map(CANONICAL))


def _T00(dp: DiagParams) -> float:
    """Ground-state phase per cycle over 2 pi, the paper's expression."""
    u, v, wa, wb = dp.u, dp.v, dp.omega_a, dp.omega_b
    return ((wa * math.sinh(v) ** 2 * math.sinh(2 * u) + wb * math.sinh(2 * v) * math.sinh(u) ** 2)
            / (wa * math.sinh(2 * u) + wb * math.sinh(2 * v)))


def test_wrap_angle_branch():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)  # branch is (-pi, pi]
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    rng = np.random.default_rng(3)
    for x in rng.uniform(-50, 50, size=200):
        w = wrap_angle(x)
        assert -math.pi < w <= math.pi
        assert abs(math.remainder(w - x, TAU)) < 1e-12


def test_small_v_phases_vanish_mod_2pi():
    for occ in ((0, 0), (1, 0), (0, 1), (2, 3)):
        dp = DiagParams(E2, 1.0, 1e-9)
        ph = eigen_berry_phase(dp, *occ)
        assert phase_distance(ph.raw, 0.0) < 1e-6


def test_ground_state_phase_equals_T00():
    ph = eigen_berry_phase(CANONICAL, 0, 0)
    assert ph.raw == pytest.approx(TAU * _T00(CANONICAL), rel=1e-14)


def test_T00_positive_and_vanishing_limits():
    assert eigen_berry_phase(CANONICAL, 0, 0).raw > 0
    for v in (0.05, 0.2, 0.4):
        for ratio in (E2, math.e ** 3):
            assert eigen_berry_phase(DiagParams(ratio, 1.0, v), 0, 0).raw > 0
    assert eigen_berry_phase(DiagParams(E2, 1.0, 1e-10), 0, 0).raw / TAU < 1e-9


def test_phase_spacing_exactly_2piG():
    # gamma(n_f + 1) - gamma(n_f) = 2 pi G = pi + 2 pi eps, eps from the triple
    for nd in (0, 2):
        for nf in (0, 1, 5):
            up = eigen_berry_phase(CANONICAL, nf + 1, nd).raw
            lo = eigen_berry_phase(CANONICAL, nf, nd).raw
            assert up - lo == pytest.approx(math.pi + TAU * EPS_CANONICAL, rel=1e-12)


def test_G_limits():
    # G = 1/2 + eps: G -> 0 as v -> 0 off resonance, G -> 1 as v -> C
    assert epsilon(forward_map(DiagParams(E2, 1.0, 1e-8))) + 0.5 < 1e-6
    assert epsilon(forward_map(DiagParams(E2, 1.0, 0.999999))) + 0.5 > 1 - 1e-4
    assert -0.5 < EPS_CANONICAL < 0.5


def test_epsilon_matches_phase_coefficient_on_random_grid():
    # the normal-mode epsilon equals the paper's n_f coefficient G minus 1/2
    # wherever that subtraction does not cancel
    rng = np.random.default_rng(20141)
    compared = 0
    for _ in range(1500):
        omega_a = 10.0 ** rng.uniform(3.0, 11.0)
        pp = PhysicalParams(omega_a, omega_a * 10.0 ** rng.uniform(-1.0, 1.0),
                            omega_a * 10.0 ** rng.uniform(-4.0, math.log10(0.5)))
        if 4.0 * pp.lam ** 2 >= pp.Omega_a * pp.Omega_b:
            continue
        g = _phase_pieces(invert_physical(pp).params)[1]
        if abs(g - 0.5) > 1e-3:
            assert epsilon(pp) == pytest.approx(g - 0.5, rel=1e-13), pp
            compared += 1
    assert compared >= 1000


def test_epsilon_resonant_closed_form():
    # on resonance epsilon = sigma^2 / (s (1 + s)^2), s = sqrt(1 + 2 sigma)
    for sigma in (1e-9, 1e-5, 1e-2, 0.3):
        s = math.sqrt(1.0 + 2.0 * sigma)
        assert epsilon(PhysicalParams(1e9, 1e9, sigma * 1e9)) == pytest.approx(
            sigma ** 2 / (s * (1.0 + s) ** 2), rel=1e-14)


def test_mixed_phase_r_zero_and_integer_G():
    # r = 0 leaves the pure-state phase gamma_0 unshifted
    assert mixed_phase_offset(EPS_CANONICAL, 0.0) == 0.0
    # integer G (eps = G - 1/2) leaves the weighted sum real positive
    for g_int in (0.0, 1.0, 2.0):
        assert mixed_phase_offset(g_int - 0.5, 0.8) == pytest.approx(0.0, abs=1e-15)


def test_mixed_phase_spot_value():
    # tanh^2 r = 1/2, G = 1/4 (eps = -1/4): offset is Arg(2 - i) = -atan(1/2)
    r = math.atanh(math.sqrt(0.5))
    assert mixed_phase_offset(-0.25, r) == pytest.approx(-math.atan(0.5), abs=1e-12)
    # so the acquired phase relative to the pure-state phase is +atan(1/2)
    assert -mixed_phase_offset(-0.25, r) == pytest.approx(0.46364760900080615, abs=1e-12)


def test_thermometer_equal_temperatures():
    assert thermometer_delta_from_eps(EPS_CANONICAL, 1e9, 0.25, 0.25) == 0.0


def test_thermometer_antisymmetry():
    rng = np.random.default_rng(5)
    for _ in range(20):
        t1, t2 = rng.uniform(1e-3, 2.0, size=2)
        a = thermometer_delta_from_eps(EPS_CANONICAL, 1e9, t1, t2)
        b = thermometer_delta_from_eps(EPS_CANONICAL, 1e9, t2, t1)
        assert a == pytest.approx(-b, abs=1e-15)


def test_thermometer_integer_G_gives_zero():
    for g_int in (1.0, 2.0):
        assert thermometer_delta_from_eps(g_int - 0.5, 1e9, 0.001, 1.0) == pytest.approx(
            0.0, abs=1e-12)


def test_thermometer_equals_mixed_phase_difference():
    # delta(T1, T2) == gamma_T1 - gamma_T2 identically, gamma_T = gamma_0 - offset
    eps = epsilon(PhysicalParams(1e9, 1e9, TAU * 1200.0))
    omega = 1e9
    t1, t2 = 1e-3, 1.0
    delta = thermometer_delta_from_eps(eps, omega, t1, t2)
    g1 = -mixed_phase_offset(eps, squeeze_from_temperature(omega, t1).r)
    g2 = -mixed_phase_offset(eps, squeeze_from_temperature(omega, t2).r)
    assert delta == pytest.approx(g1 - g2, rel=1e-12)


def test_thermometer_slope_matches_difference_quotient():
    # the analytic d delta / d T_cold against a central difference, where the
    # difference quotient is well resolved (eps of order 0.1)
    eps = EPS_CANONICAL
    for tc in (0.01, 0.05, 0.3):
        h = 1e-5 * tc
        quotient = (thermometer_delta_from_eps(eps, 1e9, tc + h, 1.0)
                    - thermometer_delta_from_eps(eps, 1e9, tc - h, 1.0)) / (2 * h)
        assert thermometer_slope_from_eps(eps, 1e9, tc) == pytest.approx(quotient, rel=1e-8)


def test_thermometer_rejects_bad_temperatures():
    with pytest.raises(ValueError):
        thermometer_delta_from_eps(EPS_CANONICAL, 1e9, -1.0, 1.0)
    with pytest.raises(ValueError):
        thermometer_delta_from_eps(EPS_CANONICAL, 1e9, 1.0, 0.0)


def test_unruh_squeeze_values():
    assert unruh_squeeze(2e9, 1e10).r < 1e-30  # a -> 0 limit
    r = unruh_squeeze(2e9, 4.5e17).r
    assert r == pytest.approx(1.5181e-2, rel=5e-3)
    with pytest.raises(ValueError):
        unruh_squeeze(2e9, 0.0)
    with pytest.raises(ValueError):
        unruh_squeeze(-1.0, 1e17)


def test_keystone_identity_grid():
    for om in np.logspace(8, 10, 5):
        for a in np.logspace(16, 18, 5):
            assert keystone_identity_residual(om, a) < 1e-12


def test_keystone_residual_catches_an_arctanh_error_both_sides_share(monkeypatch):
    # the log form alone gives x/2 for arctanh(x) once y >~ 37; with it on both
    # sides the identity holds, and only the tanh inversion of q shows the error
    def log_form(y):
        return 0.5 * (math.log1p(math.exp(-y)) - math.log(-math.expm1(-y)))

    monkeypatch.setattr(thermo, "arctanh_exp", log_form)
    assert keystone_identity_residual(1e10, 1e17) == pytest.approx(0.5, rel=1e-12)


def test_delta_small_q_expansion():
    # delta ~ -sinh^2 q sin(2 pi eps), relative error of the expansion < 1%
    for eps in (-0.4, -0.27, -0.1, 0.1, 0.3):
        for q in (0.01, 0.03, 0.05):
            exact = delta_per_cycle_from_eps(eps, q)
            approx = -math.sinh(q) ** 2 * math.sin(TAU * eps)
            assert exact == pytest.approx(approx, rel=1e-2)


def test_delta_zero_limits():
    assert delta_per_cycle_from_eps(-0.2, 0.0) == 0.0
    assert delta_per_cycle_from_eps(0.5, 0.4) == pytest.approx(0.0, abs=1e-15)


def test_delta_monotone_in_acceleration():
    # while -1/2 < eps < 0 delta increases with a (q grows); while
    # 0 < eps < 1/2, as at every preset, it is negative and decreases
    accels = np.logspace(16, 18, 15)
    for eps in (-0.4, -0.2, -0.05):
        deltas = [delta_per_cycle_from_eps(eps, unruh_squeeze(2e9, a).r) for a in accels]
        assert all(b > a_ for a_, b in zip(deltas, deltas[1:]))
        assert all(d > 0 for d in deltas)
    for eps in (1e-15, 0.2):
        deltas = [delta_per_cycle_from_eps(eps, unruh_squeeze(2e9, a).r) for a in accels]
        assert all(b < a_ for a_, b in zip(deltas, deltas[1:]))
        assert all(d < 0 for d in deltas)


def test_unruh_delta_consistency_with_offset():
    # same magnitude as the mixed-phase offset, sign negative for 0 < eps < 1/2
    q = unruh_squeeze(2e9, 3e17).r
    d = delta_per_cycle_from_eps(EPS_CANONICAL, q)
    assert abs(d) == pytest.approx(abs(mixed_phase_offset(EPS_CANONICAL, q)), rel=1e-12)
    assert (d < 0) == (0 < EPS_CANONICAL < 0.5)


def test_accumulate_cycles():
    one = accumulate_cycles(math.pi, 1)
    assert one.total == math.pi and one.capped_at_pi and one.cycles_to_pi == 1
    lin = accumulate_cycles(1e-4, 10)
    assert lin.total == pytest.approx(1e-3, rel=1e-15)
    assert not lin.capped_at_pi
    assert lin.cycles_to_pi == math.ceil(math.pi / 1e-4)
    unbounded = accumulate_cycles(0.0, 100)
    assert unbounded.cycles_to_pi is None
    subnormal = accumulate_cycles(8.55e-322, 100)  # pi / delta overflows to inf
    assert subnormal.cycles_to_pi is None and not subnormal.capped_at_pi
    with pytest.raises(ValueError):
        accumulate_cycles(-0.1, 5)


def test_cycle_count_matches_cycle_duration_arithmetic():
    # at Omega_a = 2e9 rad/s one cycle lasts pi ns; 30000 cycles ~ 94.2 us
    omega_a = 2e9
    cycle = TAU / omega_a
    assert cycle == pytest.approx(math.pi * 1e-9, rel=1e-12)
    acc = accumulate_cycles(math.pi / 30000.0, 30000)
    assert acc.cycles_to_pi == 30000
    elapsed = acc.cycles_to_pi * cycle
    assert elapsed == pytest.approx(94.2478e-6, rel=1e-4)
    assert abs(elapsed - 95e-6) / 95e-6 < 0.02


def test_phase_result_branch_invariant():
    ph = eigen_berry_phase(CANONICAL, 4, 3)
    assert -math.pi < ph.value <= math.pi
    assert phase_distance(ph.value, ph.raw) < 1e-9
