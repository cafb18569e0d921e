import math
import re

import numpy as np
import pytest

from berrytherm.geomphase import unruh_squeeze
from berrytherm.oracle import required_levels, thermal_weights
from berrytherm.thermo import (
    CONSTANTS,
    ThermalSqueeze,
    arctanh_exp,
    boltzmann_exponent,
    squeeze_from_temperature,
    unruh_temperature,
)


def test_constants_are_codata():
    assert CONSTANTS.hbar == 1.054571817e-34
    assert CONSTANTS.k_B == 1.380649e-23
    assert CONSTANTS.c == 2.99792458e8


@pytest.mark.parametrize("r, match", [(-1.0, "finite and >= 0"), (math.inf, "finite and >= 0"),
                                      (math.nan, "finite and >= 0"), (20.0, "tanh r")])
def test_thermal_squeeze_is_checked_on_construction(r, match):
    with pytest.raises(ValueError, match=match):
        ThermalSqueeze(r)
    with pytest.raises(ValueError, match=match):
        ThermalSqueeze(r=r)


def test_thermal_squeeze_value():
    sq = ThermalSqueeze(0.5)
    assert sq.r == 0.5 and sq == ThermalSqueeze(r=0.5)
    assert repr(sq) == "ThermalSqueeze(r=0.5)"


def test_unruh_temperature_values():
    assert unruh_temperature(1e17) == pytest.approx(4.055e-4, rel=2e-4)
    assert unruh_temperature(4.5e17) == pytest.approx(1.82e-3, rel=5e-3)
    # linear in a, exactly
    assert unruh_temperature(2e17) == pytest.approx(2 * unruh_temperature(1e17), rel=1e-15)
    with pytest.raises(ValueError):
        unruh_temperature(0.0)
    with pytest.raises(ValueError):
        unruh_temperature(-1.0)


def test_small_acceleration_limit():
    assert unruh_temperature(1e-6) < 1e-26


def test_squeeze_from_temperature_value():
    r = squeeze_from_temperature(1e9, 1.0)
    assert math.tanh(r.r) == pytest.approx(math.exp(-3.8193e-3), rel=1e-4)


def test_squeeze_temperature_roundtrip():
    # T = hbar omega / (-2 k_B ln tanh r) recovers the temperature
    for om in (1e6, 1e9):
        for temp in (1e-3, 0.2, 5.0):
            r = squeeze_from_temperature(om, temp).r
            x = math.exp(-2.0 * r)
            log_tanh = math.log1p(-x) - math.log1p(x)
            back = CONSTANTS.hbar * om / (-2.0 * CONSTANTS.k_B * log_tanh)
            assert back == pytest.approx(temp, rel=1e-12)


def test_zero_temperature_boundary():
    r = squeeze_from_temperature(1e9, 1e-6)
    assert r.r < 1e-10


def test_domain_errors():
    with pytest.raises(ValueError):
        squeeze_from_temperature(1e9, 0.0)
    with pytest.raises(ValueError):
        squeeze_from_temperature(-1.0, 1.0)


def test_squeeze_refusal_names_temperature_and_frequency():
    # tanh r_T rounds to 1 above T ~ 6.9e4 omega: the refusal names both inputs,
    # as the accelerated squeeze names its acceleration
    assert math.tanh(squeeze_from_temperature(1e6, 6.8e10).r) < 1.0
    for omega, temperature in ((1e6, 1e30), (1e6, 7e10), (1e9, 1e14)):
        with pytest.raises(ValueError, match=re.escape(f"temperature {temperature:.6g} K too "
                                                       f"high at mode frequency {omega:.6g} rad/s")):
            squeeze_from_temperature(omega, temperature)


def test_keystone_unruh_thermal_identity():
    # squeeze at the Unruh temperature == accelerated-observer squeeze, 5x5 grid,
    # relative below r = 1: r runs from 1.5 down to 4.5e-130 (and 0, where both
    # sides underflow)
    for omega in np.logspace(8, 10, 5):
        for accel in np.logspace(16, 18, 5):
            r_thermal = squeeze_from_temperature(omega, unruh_temperature(accel)).r
            r_unruh = unruh_squeeze(omega, accel).r
            scale = min(1.0, max(r_thermal, r_unruh))
            assert abs(r_thermal - r_unruh) <= 1e-12 * scale


def test_squeeze_keeps_full_precision_past_y_37():
    # hbar omega / 2 k_B T = 38.2: -expm1(-y) rounds to 1, which once halved r
    r = squeeze_from_temperature(1e9, 1e-4).r
    assert r == pytest.approx(math.exp(-0.5 * boltzmann_exponent(1e9, 1e-4)), rel=1e-15)
    assert arctanh_exp(0.0) == math.inf


def test_unruh_refusal_names_the_acceleration():
    # tanh q rounds to 1 past a ~ 3.4e34 at 2e9 rad/s; just below, q is finite
    assert unruh_squeeze(2e9, 2.5e34).r == pytest.approx(18.9088, abs=1e-4)
    for accel in (1e35, math.inf):
        with pytest.raises(ValueError, match=r"acceleration .* too large.*tanh r rounds to 1"):
            unruh_squeeze(2e9, accel)


def test_thermal_weights_geometric_tail():
    r = 0.6
    w, tail = thermal_weights(r, 25)
    assert w.sum() + tail == pytest.approx(1.0, abs=1e-14)
    assert tail == pytest.approx(math.tanh(r) ** 52, rel=1e-12)
    r_t = squeeze_from_temperature(1e9, 0.01).r
    w, tail = thermal_weights(r_t, 37)
    assert tail == pytest.approx(math.tanh(r_t) ** 76, rel=1e-10) and tail < 1e-12
    # zero-temperature limit: all weight on the ground level
    w, _ = thermal_weights(squeeze_from_temperature(1e9, 1e-6).r, 2)
    np.testing.assert_allclose(w, [1.0, 0.0, 0.0], atol=1e-15)


def test_planck_mean_occupation():
    # sum n w_n = sinh^2 r (geometric-series identity)
    r_t = squeeze_from_temperature(1e9, 0.012).r
    n_max = required_levels(r_t)
    w, _ = thermal_weights(r_t, n_max)
    mean_n = float(np.sum(w * np.arange(n_max + 1)))
    assert mean_n == pytest.approx(math.sinh(r_t) ** 2, abs=1e-10)


def test_required_levels_matches_tail():
    r = 0.9
    n = required_levels(r)
    assert math.tanh(r) ** (2 * (n + 1)) < 1e-12
    assert math.tanh(r) ** (2 * n) >= 1e-12
