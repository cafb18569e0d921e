import math

import numpy as np
import pytest

from berrytherm.diagonalization import DiagParams, PhysicalParams, invert_physical
from berrytherm.geomphase import (
    ThermalSqueeze,
    accumulate_cycles,
    delta_per_cycle_from_G,
    eigen_berry_phase,
    ground_T00,
    keystone_identity_residual,
    mixed_phase_offset,
    mixed_thermal_phase,
    mode_fraction_G,
    phase_distance,
    thermometer_delta,
    thermometer_delta_from_G,
    unruh_delta_per_cycle,
    unruh_squeeze,
    wrap_angle,
)
from berrytherm.thermo import squeeze_from_temperature

E2 = math.e ** 2
CANONICAL = DiagParams(2e9, 2e9 / E2, 0.3)
TAU = 2 * math.pi


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
    assert ph.raw == pytest.approx(TAU * ground_T00(CANONICAL), rel=1e-14)


def test_T00_positive_and_vanishing_limits():
    assert ground_T00(CANONICAL) > 0
    for v in (0.05, 0.2, 0.4):
        for ratio in (E2, math.e ** 3):
            assert ground_T00(DiagParams(ratio, 1.0, v)) > 0
    assert ground_T00(DiagParams(E2, 1.0, 1e-10)) < 1e-9


def test_phase_spacing_exactly_2piG():
    g = mode_fraction_G(CANONICAL).G
    for nd in (0, 2):
        for nf in (0, 1, 5):
            up = eigen_berry_phase(CANONICAL, nf + 1, nd).raw
            lo = eigen_berry_phase(CANONICAL, nf, nd).raw
            assert up - lo == pytest.approx(TAU * g, rel=1e-12)


def test_G_limits():
    assert mode_fraction_G(DiagParams(E2, 1.0, 1e-8)).G < 1e-6
    # v -> C: denominator first term vanishes, G -> 1
    assert mode_fraction_G(DiagParams(E2, 1.0, 0.999999)).G > 1 - 1e-4
    g = mode_fraction_G(CANONICAL).G
    assert 0 < g < 1


def test_mixed_phase_r_zero_and_integer_G():
    ph0 = mixed_thermal_phase(CANONICAL, ThermalSqueeze(0.0))
    assert ph0.raw == pytest.approx(eigen_berry_phase(CANONICAL, 0, 0).raw, rel=1e-14)
    # integer G leaves the weighted sum real positive
    for g_int in (0.0, 1.0, 2.0):
        assert mixed_phase_offset(g_int, 0.8) == pytest.approx(0.0, abs=1e-15)


def test_mixed_phase_spot_value():
    # tanh^2 r = 1/2, G = 1/4: offset is Arg(2 - i) = -atan(1/2)
    r = math.atanh(math.sqrt(0.5))
    assert mixed_phase_offset(0.25, r) == pytest.approx(-math.atan(0.5), abs=1e-12)
    # so the acquired phase relative to the pure-state phase is +atan(1/2)
    assert -mixed_phase_offset(0.25, r) == pytest.approx(0.46364760900080615, abs=1e-12)


def test_thermometer_equal_temperatures():
    ph = thermometer_delta(CANONICAL, 1e9, 0.25, 0.25)
    assert ph.raw == 0.0


def test_thermometer_antisymmetry():
    g = mode_fraction_G(CANONICAL).G
    rng = np.random.default_rng(5)
    for _ in range(20):
        t1, t2 = rng.uniform(1e-3, 2.0, size=2)
        a = thermometer_delta_from_G(g, 1e9, t1, t2)
        b = thermometer_delta_from_G(g, 1e9, t2, t1)
        assert a == pytest.approx(-b, abs=1e-15)


def test_thermometer_integer_G_gives_zero():
    for g_int in (1.0, 2.0):
        assert thermometer_delta_from_G(g_int, 1e9, 0.001, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_thermometer_equals_mixed_phase_difference():
    # delta(T1, T2) == gamma_T1 - gamma_T2 identically
    dp = invert_physical(PhysicalParams(1e9, 1e9, TAU * 1200.0)).params
    omega = 1e9
    t1, t2 = 1e-3, 1.0
    delta = thermometer_delta(dp, omega, t1, t2).raw
    g1 = mixed_thermal_phase(dp, squeeze_from_temperature(omega, t1)).raw
    g2 = mixed_thermal_phase(dp, squeeze_from_temperature(omega, t2)).raw
    assert delta == pytest.approx(g1 - g2, abs=1e-12)


def test_thermometer_rejects_bad_temperatures():
    with pytest.raises(ValueError):
        thermometer_delta(CANONICAL, 1e9, -1.0, 1.0)
    with pytest.raises(ValueError):
        thermometer_delta(CANONICAL, 1e9, 1.0, 0.0)


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


def test_delta_small_q_expansion():
    # delta ~ sinh^2 q sin(2 pi G), relative error of the expansion < 1%
    for g in (0.1, 0.23, 0.4, 0.6, 0.8):
        for q in (0.01, 0.03, 0.05):
            exact = delta_per_cycle_from_G(g, q)
            approx = math.sinh(q) ** 2 * math.sin(TAU * g)
            assert exact == pytest.approx(approx, rel=1e-2)


def test_delta_zero_limits():
    assert delta_per_cycle_from_G(0.3, 0.0) == 0.0
    assert delta_per_cycle_from_G(1.0, 0.4) == pytest.approx(0.0, abs=1e-15)


def test_delta_monotone_in_acceleration():
    # while 2 pi G mod 2 pi is in (0, pi), delta increases with a (q grows)
    for g in (0.1, 0.3, 0.45):
        accels = np.logspace(16, 18, 15)
        deltas = [delta_per_cycle_from_G(g, unruh_squeeze(2e9, a).r) for a in accels]
        assert all(b > a_ for a_, b in zip(deltas, deltas[1:]))
        assert all(d > 0 for d in deltas)


def test_unruh_delta_consistency_with_offset():
    # same magnitude as the mixed-phase offset, sign fixed positive for G < 1/2
    dp = CANONICAL
    g = mode_fraction_G(dp).G
    q = unruh_squeeze(2e9, 3e17).r
    d = unruh_delta_per_cycle(dp, 2e9, 3e17)
    assert abs(d.value) == pytest.approx(abs(mixed_phase_offset(g, q)), rel=1e-12)


def test_accumulate_cycles():
    one = accumulate_cycles(math.pi, 1)
    assert one.total == math.pi and one.capped_at_pi and one.cycles_to_pi == 1
    lin = accumulate_cycles(1e-4, 10)
    assert lin.total == pytest.approx(1e-3, rel=1e-15)
    assert not lin.capped_at_pi
    assert lin.cycles_to_pi == math.ceil(math.pi / 1e-4)
    unbounded = accumulate_cycles(0.0, 100)
    assert unbounded.cycles_to_pi is None
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
