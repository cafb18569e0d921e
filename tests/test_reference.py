"""High-precision references for epsilon = G - 1/2 and the sweep columns.

The reference solves the paper's forward map, written out literally, by
mpmath ``findroot`` at 60 digits and reads G off its n_f phase coefficient;
it never uses the normal-mode identity that the package's closed forms rest
on.  The sweep columns are then re-evaluated from that epsilon with the same
formulas in mpmath and compared with the CSV the CLI prints.
"""

import contextlib
import functools
import io
from pathlib import Path

import pytest

from berrytherm import cli
from berrytherm.diagonalization import PhysicalParams
from berrytherm.geomphase import epsilon, unruh_squeeze
from berrytherm.thermo import CONSTANTS, arctanh_exp, boltzmann_exponent, squeeze_from_temperature

mp = pytest.importorskip("mpmath")

FIG3 = ("fig3-mhz", "fig3-10mhz", "fig3-100mhz", "fig3-ghz")
FIG5 = ("fig5-1", "fig5-2", "fig5-3")
POINTS = 200
COLUMN_TOL = 1e-8


def _forward_mp(wa, wb, v):
    """(Omega_a, Omega_b, lam, G) of (omega_a, omega_b, v) from the paper's
    closed expressions, term by term, in the current mpmath precision."""
    u = mp.log(wa / wb) / 2 - v
    a, b = wa * mp.sinh(2 * u), wb * mp.sinh(2 * v)
    delta = a + b
    z = (a - b) / 2
    omega_hat = (wa ** 2 * mp.sinh(2 * u) * mp.cosh(2 * u)
                 + wb ** 2 * mp.sinh(2 * v) * mp.cosh(2 * v)) / delta
    p = mp.atanh(-2 * z / omega_hat) / 2
    lam_hat = mp.sqrt(a * b) * (wa * mp.cosh(2 * u) - wb * mp.cosh(2 * v)) / delta
    return ((wa ** 2 - wb ** 2) / (2 * delta), mp.sqrt(omega_hat ** 2 - 4 * z ** 2),
            mp.exp(p) * lam_hat, wb * mp.sinh(2 * v) * mp.cosh(2 * u) / delta)


@functools.lru_cache(maxsize=None)
def resonant_epsilon(gap: float, coupling: float):
    """epsilon of the resonant triple (gap, gap, coupling) as a 60-digit mpf:
    findroot of the forward map from the leading-order seed
    omega = Omega (1 +/- sigma), v = sigma/2."""
    with mp.workdps(60):
        om, lam = mp.mpf(gap), mp.mpf(coupling)
        sigma = lam / om

        def point(x, y, z):
            return om * (1 + sigma * x), om * (1 - sigma * y), sigma * z

        def residual(x, y, z):
            a, b, c, _ = _forward_mp(*point(x, y, z))
            return [a / om - 1, b / om - 1, c / lam - 1]

        root = mp.findroot(residual, (mp.mpf(1), mp.mpf(1), mp.mpf(0.5)))
        assert max(abs(r) for r in residual(*root)) < mp.mpf(10) ** -50
        return +(_forward_mp(*point(*root))[3] - mp.mpf(1) / 2)


def reference_epsilon(preset: str):
    p = cli.PRESETS[preset]
    return resonant_epsilon(p["gap"], p["coupling"])


@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_epsilon_matches_60_digit_forward_map_root(preset):
    p = cli.PRESETS[preset]
    ref = reference_epsilon(preset)
    got = epsilon(PhysicalParams(p["gap"], p["gap"], p["coupling"]))
    assert abs(got - ref) <= 1e-12 * abs(ref), (preset, got, ref)
    # and the weak-coupling law epsilon = sigma^2/4 (1 + O(sigma)) holds
    sigma = p["coupling"] / p["gap"]
    assert abs(4 * got / sigma ** 2 - 1) <= 2 * sigma


@pytest.mark.parametrize("sigma", [0.4, 0.45, 0.49])
def test_epsilon_matches_60_digit_root_at_strong_coupling(sigma):
    # up to the bound sigma = lam/Omega < 1/2 the closed form holds; the
    # leading-order seed still converges at 0.49, but not at 0.499
    ref = resonant_epsilon(1e6, sigma * 1e6)
    got = epsilon(PhysicalParams(1e6, 1e6, sigma * 1e6))
    assert abs(got - ref) <= 1e-12 * abs(ref), (sigma, got, ref)


def _csv(argv: list[str]) -> list[list[float]]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == cli.EXIT_OK
    lines = buf.getvalue().strip().split("\n")
    return [[float(x) for x in line.split(",")] for line in lines[1:]]


def _close(got: float, ref, what) -> None:
    assert abs(mp.mpf(got) - ref) <= COLUMN_TOL * abs(ref), (what, got, ref)


def _logspace(lo: float, hi: float, n: int) -> list:
    a, b = mp.log10(lo), mp.log10(hi)
    return [mp.power(10, a + (b - a) * i / (n - 1)) for i in range(n)]


def _boltzmann(omega, temp):
    return mp.mpf(CONSTANTS.hbar) * omega / (mp.mpf(CONSTANTS.k_B) * temp)


def _thermo_term(G, omega, temp):
    """Arg(1 - e^{-hbar w/kT - 2 pi i G})."""
    return mp.arg(1 - mp.exp(-_boltzmann(omega, temp) - 2j * mp.pi * G))


@pytest.mark.parametrize("preset", FIG3)
def test_thermometer_columns_match_mpmath(preset):
    p = cli.PRESETS[preset]
    rows = _csv(["thermometer", "--preset", preset, "--points", str(POINTS)])
    assert len(rows) == POINTS
    with mp.workdps(40):
        G = mp.mpf(1) / 2 + reference_epsilon(preset)
        gap, t_hot = mp.mpf(p["gap"]), mp.mpf(p["t_hot"])
        hot = _thermo_term(G, gap, t_hot)
        for (tc, delta, slope), tc_ref in zip(rows, _logspace(p["t_hot"] / 1000.0, p["t_hot"],
                                                                POINTS)):
            _close(tc, tc_ref, "T_cold")
            t = mp.mpf(tc)
            _close(delta, _thermo_term(G, gap, t) - hot, ("delta", tc))
            _close(slope, abs(mp.diff(lambda s: _thermo_term(G, gap, s), t)), ("slope", tc))


@pytest.mark.parametrize("preset", FIG3)
def test_sensitivity_columns_match_mpmath(preset):
    p = cli.PRESETS[preset]
    rows = _csv(["sensitivity", "--preset", preset, "--points", str(POINTS)])
    assert len(rows) == POINTS
    with mp.workdps(40):
        G = mp.mpf(1) / 2 + reference_epsilon(preset)
        gap, t_hot = mp.mpf(p["gap"]), mp.mpf(p["t_hot"])
        t_cold = mp.mpf(p["t_hot"] / 1000.0)

        def delta(th):
            return _thermo_term(G, gap, t_cold) - _thermo_term(G, gap, th)

        ref = delta(t_hot)
        for i, (e, rel) in enumerate(rows):
            e_ref = -mp.mpf(0.5) + mp.mpf(1) * i / (POINTS - 1)
            _close(e, e_ref, "relerr_Th")
            _close(rel, (delta(t_hot * (1 + mp.mpf(e))) - ref) / ref, ("relerr_delta", e))


@pytest.mark.parametrize("preset", FIG5)
def test_unruh_columns_match_mpmath(preset):
    p = cli.PRESETS[preset]
    rows = _csv(["unruh", "--preset", preset, "--points", str(POINTS)])
    assert len(rows) == POINTS
    c, hbar, k_b = (mp.mpf(x) for x in (CONSTANTS.c, CONSTANTS.hbar, CONSTANTS.k_B))
    with mp.workdps(40):
        G = mp.mpf(1) / 2 + reference_epsilon(preset)
        gap = mp.mpf(p["gap"])
        for row, a_ref in zip(rows, _logspace(1e16, 1e18, POINTS)):
            accel, t_unruh, q, delta, cycles, time_s = row
            _close(accel, a_ref, "accel")
            a = mp.mpf(accel)
            _close(t_unruh, hbar * a / (2 * mp.pi * c * k_b), ("T_unruh", accel))
            q_ref = mp.atanh(mp.exp(-mp.pi * gap * c / a))
            _close(q, q_ref, ("q", accel))
            d_ref = mp.arg(mp.cosh(q_ref) ** 2 - mp.exp(-2j * mp.pi * G) * mp.sinh(q_ref) ** 2)
            _close(delta, d_ref, ("delta", accel))
            n_ref = mp.ceil(mp.pi / abs(d_ref))
            _close(cycles, n_ref, ("cycles_to_pi", accel))
            _close(time_s, n_ref * 2 * mp.pi / gap, ("time_to_pi", accel))


SQUEEZE_TOL = 1e-15


@pytest.mark.parametrize("y", [20.0, 38.0, 100.0])
def test_thermal_squeeze_matches_mpmath_at_low_temperature(y):
    # hbar omega / 2 k_B T = y: -expm1(-y) is 1 - 2e-9 at y = 20 and rounds to 1
    # from y ~ 37, where (log1p(x) - log(-expm1(-y)))/2 alone would give x/2
    temperature = CONSTANTS.hbar * 1e9 / (2.0 * y * CONSTANTS.k_B)
    y_double = 0.5 * boltzmann_exponent(1e9, temperature)
    with mp.workdps(50):
        ref = mp.atanh(mp.exp(-mp.mpf(y_double)))
        for r in (arctanh_exp(y_double), squeeze_from_temperature(1e9, temperature).r):
            assert abs((r - ref) / ref) <= SQUEEZE_TOL, (y, r)


def test_arctanh_exp_matches_mpmath_on_a_log_grid():
    # both sides of x = e^{-y} = 1/2, from y = 1e-30 (r ~ 35) to 700 (r ~ 1e-304)
    with mp.workdps(50):
        for y in map(float, _logspace(1e-30, 700.0, 400)):
            ref = mp.atanh(mp.exp(-mp.mpf(y)))
            assert abs((arctanh_exp(y) - ref) / ref) <= SQUEEZE_TOL, y


@pytest.mark.parametrize("preset", FIG5)
def test_unruh_squeeze_matches_mpmath_at_large_acceleration(preset):
    # a = 1e22 .. 1e33: tanh q from 1 - 2e-4 up to 1 - 4e-15, where atanh(x) of the
    # rounded x = e^{-y} lost up to 2% of q; q is fed pi Omega_a c / a directly
    gap, c = cli.PRESETS[preset]["gap"], mp.mpf(CONSTANTS.c)
    with mp.workdps(50):
        for a in map(float, _logspace(1e22, 1e33, 45)):
            ref = mp.atanh(mp.exp(-mp.pi * mp.mpf(gap) * c / mp.mpf(a)))
            assert abs((unruh_squeeze(gap, a).r - ref) / ref) <= SQUEEZE_TOL, a


def test_fig5_per_cycle_difference_is_negative():
    # with epsilon > 0 the accelerated detector lags: the sign convention the
    # README states
    for preset in FIG5:
        assert reference_epsilon(preset) > 0
        rows = _csv(["unruh", "--preset", preset, "--points", "5"])
        assert all(row[3] < 0 for row in rows)


def test_golden_thermometer_rows_match_mpmath():
    # the committed golden CSV (fig3-100mhz at 12 points) carries the
    # reference values, not only the program's
    golden = Path(__file__).parent / "golden" / "thermometer_fig3_100mhz_12pt.csv"
    rows = [[float(x) for x in line.split(",")]
            for line in golden.read_text().strip().split("\n")[1:]]
    assert len(rows) == 12
    with mp.workdps(40):
        G = mp.mpf(1) / 2 + reference_epsilon("fig3-100mhz")
        gap, t_hot = mp.mpf(1e8), mp.mpf(0.1)
        hot = _thermo_term(G, gap, t_hot)
        for tc, delta, slope in rows:
            t = mp.mpf(tc)
            _close(delta, _thermo_term(G, gap, t) - hot, ("delta", tc))
            _close(slope, abs(mp.diff(lambda s: _thermo_term(G, gap, s), t)), ("slope", tc))
