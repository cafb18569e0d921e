"""The commands that reach the array layers: diagonalize, adiabaticity and certify.
``cli`` imports this module only when one of them is called.

``adiabaticity`` prints the exact covariance propagator at each cycle boundary,
where the resonant presets' excitation is 0: rounding, < 1e-20 per cycle.

``certify``'s loop-grid verdict is calibrated at the cutoff ladder 30 -> 78
and the 1e-8 truncation gate, and neither is settable.  The loop oracle's
phase is exact for its eigenvector, so the 1e-11 rad loop tolerance bounds
the error of the truncated eigensolve alone.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import fockspace, geomphase, oracle, thermo
from .cli import PRESETS, TWO_PI, ConfigError, _physical_params, _require
from .diagonalization import (ConstraintError, DiagParams, InverseMapError, OracleError,
                              derive_params, eigenvalue, forward_map, invert_physical)
from .geomphase import eigen_berry_phase, epsilon, phase_distance, thermometer_delta_from_eps

# diagonalize's default cutoff (sizing lam/Omega_a = 0.498 to 276 levels takes five builds)
DIAG_CUTOFF = 24
DIAG_CUTOFF_CAP = 320
DIAG_TAIL_GATE = 1e-14


def _diag_eigenstates(dp: DiagParams, occupations, cutoff: int | None):
    """``eigenstates`` of dp at ``cutoff``, or by default at the least cutoff in
    DIAG_CUTOFF .. DIAG_CUTOFF_CAP at which each keeps a ``truncation_tail`` of at
    most DIAG_TAIL_GATE.  A build's amplitudes are the untruncated states', so
    its strip sums (``mode_tails``) give the tails at every smaller cutoff: the
    default doubles its builds until one fits, each build scanning only the
    cutoffs above those a previous build scanned, then crops the one that fits to
    the least fitting cutoff, each column renormalized."""
    def build(n: int):
        return fockspace.eigenstates([dp] * len(occupations), occupations,
                                     fockspace.FockDims(n, n))

    if cutoff is not None:
        return build(cutoff)
    least = DIAG_CUTOFF
    for size in (min(DIAG_CUTOFF << k, DIAG_CUTOFF_CAP) for k in range(5)):  # 24 .. 192, cap
        try:
            psis = build(size)
        except ValueError:  # a column lost half its norm: far too few levels
            continue
        weights = psis ** 2
        for n in range(least, size + 1):
            if (fockspace.mode_tails(weights[:n, :n]).sum(axis=0) <= DIAG_TAIL_GATE ** 2).all():
                if n == size:
                    return psis
                crop = psis[:n, :n]  # renormalized, each column summed as one row as in eigenstates
                rows = crop.transpose(2, 0, 1).reshape(len(occupations), -1)
                return crop / (rows ** 2).sum(axis=1) ** 0.5
        least = size + 1
    raise ConfigError(f"need --cutoff: an eigenstate keeps more than {DIAG_TAIL_GATE:g} "
                      f"in the top two of {DIAG_CUTOFF_CAP} levels per mode")


def cmd_diagonalize(config: dict) -> dict:
    cutoff = config.get("cutoff")
    if cutoff is not None and cutoff < 4:
        raise ConfigError("need cutoff >= 4")
    forward = any(config.get(key) is not None for key in ("diag_omega_a", "diag_omega_b", "diag_v"))
    if forward and any(config.get(key) is not None for key in ("omega_a", "omega_b", "coupling")):
        raise ConfigError("need either the laboratory triple (omega_a, omega_b, coupling) "
                          "or the diagonalization triple (diag_omega_a, diag_omega_b, diag_v), "
                          "not both")
    if forward:
        dp = DiagParams(_require(config, "diag_omega_a"),
                        _require(config, "diag_omega_b"),
                        _require(config, "diag_v"))
        try:
            dp.validate()
        except ConstraintError as exc:
            raise ConfigError(f"need finite omega_a > omega_b e^(2v) > 0 and v > 0: {exc}")
        pp = forward_map(dp)
    else:
        pp = _physical_params(_require(config, "omega_a"),
                              _require(config, "omega_b"),
                              _require(config, "coupling"))
        sol = invert_physical(pp)
        if sol.degenerate:
            return {
                "mode": "inverse",
                "degenerate_boundary": True,
                "diag_params": {"omega_a": sol.params.omega_a,
                                "omega_b": sol.params.omega_b, "v": 0.0},
                "note": "zero coupling: decoupled boundary solution (v = 0)",
            }
        dp = sol.params
    d = derive_params(dp)
    occupations = ((0, 0), (1, 0), (0, 1))
    psis = _diag_eigenstates(dp, occupations, cutoff)
    report: dict = {
        "mode": "forward" if forward else "inverse",
        "cutoff": len(psis),
        "diag_params": {"omega_a": dp.omega_a, "omega_b": dp.omega_b, "v": dp.v},
        "physical_params": {"Omega_a": pp.Omega_a, "Omega_b": pp.Omega_b, "lam": pp.lam},
        "derived": {
            "C": d.C, "u": d.u, "s": d.s, "theta_a": d.theta_a, "theta_b": d.theta_b,
            "phi": d.phi, "p": d.p, "Z": d.Z, "lambda_hat": d.lambda_hat,
            "Omega_hat_b": d.Omega_hat_b,
            "g1": d.g1.real, "g2": d.g2.real, "g3": d.g3.real,
            "g4_abs": abs(d.g4), "g5": d.g5.real, "g6": d.g6.real,
        },
    }
    if not forward:  # forward mode's pp is forward_map(dp): no round trip to measure
        report["round_trip_residual"] = sol.residual
    h_psis = fockspace.hamiltonian_action(pp, psis)
    e_vals = np.einsum("ijk,ijk->k", psis, h_psis)
    residuals = np.linalg.norm(h_psis - e_vals * psis, axis=(0, 1)) / pp.Omega_a
    report["eigenstate_residuals_over_Omega_a"] = {
        f"{n_f},{n_d}": float(res) for (n_f, n_d), res in zip(occupations, residuals)}
    tails = [fockspace.truncation_tail(psis[:, :, i]) for i in range(len(occupations))]
    report["eigenstate_truncation_tails"] = {
        f"{n_f},{n_d}": tail for (n_f, n_d), tail in zip(occupations, tails)}
    if max(tails) > DIAG_TAIL_GATE:  # at an explicit cutoff: the sized one fits
        warnings.warn(f"cutoff {len(psis)}: eigenstate tail {max(tails):.2e} > {DIAG_TAIL_GATE:g}",
                      fockspace.TruncationWarning, stacklevel=2)
    # |1 - z|, z = <00|U|00> = <00|U'|00> (U is real orthogonal at varphi = 0), from
    # the real unit column c = U'|00> built above, free of cancellation:
    # 1 - z = sum_{j>=1} c_j^2 / (1 + z)
    col = psis[:, :, 0].reshape(-1)
    report["vacuum_overlap_deviation"] = float(np.sum(col[1:] ** 2) / (1.0 + col[0]))
    return report


def cmd_adiabaticity(config: dict) -> tuple[list[tuple], tuple[str, ...]]:
    gap = _require(config, "gap")
    coupling = _require(config, "coupling")
    temperature = config.get("temperature", 0.0)
    cycles = int(config.get("cycles", 8))
    if cycles < 1 or not temperature >= 0.0:
        raise ConfigError("need cycles >= 1 and temperature >= 0")
    pp = _physical_params(gap, gap, coupling)
    r = thermo.squeeze_from_temperature(gap, temperature).r if temperature > 0.0 else 0.0
    per_cycle = oracle.thermal_excitation_per_cycle(pp, cycles, oracle.EvolutionSpec(), r).per_cycle
    return list(enumerate(per_cycle.tolist(), 1)), ("cycle_index", "P_excitation")


CERT_GRID_V = (0.1, 0.3, 0.6)
CERT_GRID_RATIO = (math.e, math.e ** 2, math.e ** 3)
CERT_OCCUPATIONS = ((0, 0), (1, 0), (0, 1), (1, 1))
CERT_LOOP_TOL = 1e-11
CUTOFF_LADDER = (30, 44, 60, 78)


def _loop_check_cells(dps: list[DiagParams],
                      negative_control: bool) -> dict[DiagParams, list[dict]]:
    """Loop oracle vs closed form for every occupation of CERT_OCCUPATIONS at
    each dp of ``dps``: the list of cells of each dp.  The oracle sizes each
    pair's truncation on the cutoff ladder itself, each mode on its own
    (``oracle.discrete_berry_loops``); a cell reports the field and detector
    cutoffs it passed at, or the oracle's refusal."""
    phase_fn = (geomphase._eigen_phase_unshared_denominator
                if negative_control else eigen_berry_phase)
    pairs = [(dp, occ) for dp in dps for occ in CERT_OCCUPATIONS]
    results = oracle.discrete_berry_loops([dp for dp, _ in pairs], [occ for _, occ in pairs],
                                          [fockspace.FockDims(c, c) for c in CUTOFF_LADDER])
    cells: dict[DiagParams, list[dict]] = {dp: [] for dp in dps}
    for (dp, occ), result in zip(pairs, results):
        if isinstance(result, OracleError):
            cells[dp].append({
                "occupation": list(occ),
                "cutoff": None,
                "detector_cutoff": None,
                "difference_rad": math.nan,
                "passed": False,
                "refused": str(result),
            })
            continue
        diff = phase_distance(phase_fn(dp, occ[0], occ[1]).raw, result.phase.raw)
        cells[dp].append({
            "occupation": list(occ),
            "cutoff": result.dims.n_field,
            "detector_cutoff": result.dims.n_det,
            "difference_rad": diff,
            "truncation_tail": result.truncation_tail,
            "passed": bool(diff < CERT_LOOP_TOL),
        })
    return cells


def certification_report(negative_control: bool = False) -> dict:
    """Run every cross-check and return a machine-readable report."""
    checks: list[dict] = []

    def add(name: str, passed: bool, residual: float, tolerance: float, detail: str = ""):
        checks.append({
            "name": name, "passed": bool(passed), "residual": float(residual),
            "tolerance": float(tolerance), "detail": detail,
        })

    # the closed-form eigenstates U'|n_f n_d> and eigenvalues at the default cutoff
    # solve H(0) psi = E psi on every row below the top level of both modes, the
    # rows on which the truncated H acts as the untruncated one
    dp_ref = DiagParams(math.e ** 2, 1.0, 0.3)
    pp_ref = forward_map(dp_ref)
    psis = fockspace.eigenstates([dp_ref] * len(CERT_OCCUPATIONS), CERT_OCCUPATIONS,
                                 fockspace.FockDims(30, 30))
    energies = np.array([eigenvalue(dp_ref, n_f, n_d) for n_f, n_d in CERT_OCCUPATIONS])
    rows = (fockspace.hamiltonian_action(pp_ref, psis) - energies * psis)[:-1, :-1]
    interior = np.linalg.norm(rows, axis=(0, 1)).max() / pp_ref.Omega_a
    add("eigenstate_interior_residual", interior <= 1e-12, interior, 1e-12)

    # constrained-parameter identities; |g4| is gated inside derive_params
    d_ref = derive_params(dp_ref)
    g36 = abs(d_ref.g3 - d_ref.g6) / abs(d_ref.g3)
    add("coupling_coefficients_equal", g36 < 1e-12, g36, 1e-12)

    # spacing identity gamma(nf+1) - gamma(nf) = 2 pi G = pi + 2 pi eps: the
    # paper's spacing at dp_ref against the normal-mode epsilon of its triple
    eps_ref = epsilon(pp_ref)
    spacing = eigen_berry_phase(dp_ref, 3, 1).raw - eigen_berry_phase(dp_ref, 2, 1).raw
    sp_res = abs(spacing - (math.pi + TWO_PI * eps_ref))
    add("phase_spacing_2piG", sp_res < 1e-12, sp_res, 1e-12)

    # the loop grid's (v, ratio) cells: a valid parameter set, or the reason
    # it breaks ratio > e^{2v}
    grid: dict[tuple[float, float], DiagParams | str] = {}
    for v in CERT_GRID_V:
        for ratio in CERT_GRID_RATIO:
            try:
                dp = DiagParams(ratio, 1.0, v)
                dp.validate()
                grid[v, ratio] = dp
            except ConstraintError as exc:
                grid[v, ratio] = str(exc)
    grid_dps = [dp for dp in grid.values() if isinstance(dp, DiagParams)]

    # inverse/forward round trips: a weak-coupling grid (lam/Omega_a 0.002 to
    # 0.08) and the loop grid's sets (lam/Omega_a 0.39 to 1.38); a refused
    # triple counts with its residual (NaN, which fails, if it is unbound)
    triples = [forward_map(DiagParams(2e9 * math.exp(2 * (u_seed + v)), 2e9, v))
               for u_seed in (1e-3, 0.05, 0.3) for v in (1e-3, 5e-3)]
    triples += [forward_map(dp) for dp in grid_dps]
    residuals = []
    for pp in triples:
        try:
            residuals.append(invert_physical(pp).residual)
        except InverseMapError as exc:
            residuals.append(exc.residual)
    worst = float(np.max(residuals))
    add("map_round_trip", worst < 1e-10, worst, 1e-10)

    # loop oracle vs closed form over the full grid
    measured = _loop_check_cells(grid_dps, negative_control)
    cells = []
    loop_pass = True
    worst_diff = 0.0
    for (v, ratio), dp in grid.items():
        if isinstance(dp, str):
            cells.append({"v": v, "ratio": ratio, "rejected": dp})
            continue
        for cell in measured[dp]:
            cell["v"] = v
            cell["ratio"] = ratio
            cells.append(cell)
            # a refused cell has no difference: the residual cannot read as a pass
            worst_diff = max(worst_diff, math.inf if "refused" in cell else cell["difference_rad"])
            loop_pass = loop_pass and cell.get("passed", False)
    add("loop_vs_closed_form_grid", loop_pass, worst_diff, CERT_LOOP_TOL,
        detail=f"{sum(1 for c in cells if c.get('passed'))} cells passed")

    # mixed-state phase: closed form vs explicit partial sum
    worst = 0.0
    for tanh2 in (0.1, 0.5, 0.9):
        r = math.atanh(math.sqrt(tanh2))
        for eps in (-0.4, -0.25, 0.2):  # G = 0.1, 0.25, 0.7
            closed = -geomphase.mixed_phase_offset(eps, r)
            n_max = oracle.required_levels(r) + 2
            summed = oracle.partial_sum_from_eps(eps, 0.0, r, n_max).value
            worst = max(worst, phase_distance(closed, summed))
    add("mixed_phase_partial_sum", worst < 1e-10, worst, 1e-10)

    # thermometer equals the difference of the mixed-state phases
    om = 1e9
    r1 = thermo.squeeze_from_temperature(om, 0.001).r
    r2 = thermo.squeeze_from_temperature(om, 0.3).r
    ident = abs(thermometer_delta_from_eps(eps_ref, om, 0.001, 0.3)
                - (-geomphase.mixed_phase_offset(eps_ref, r1)
                   + geomphase.mixed_phase_offset(eps_ref, r2)))
    add("thermometer_equals_mixed_difference", ident < 1e-12, ident, 1e-12)

    # keystone: accelerated-observer squeeze == thermal squeeze at T_U, relative
    # below r = 1 (r runs down to 4.5e-130 on this grid; a cell where both
    # underflow counts as equal), and q inverted through tanh
    worst = 0.0
    for om_a in np.logspace(8, 10, 5):
        for a in np.logspace(16, 18, 5):
            worst = max(worst, geomphase.keystone_identity_residual(om_a, a))
    add("unruh_thermal_squeeze_identity", worst < 1e-12, worst, 1e-12,
        detail="relative below r = 1; q also checked against tanh q = exp(-y)")

    # per-cycle difference falls monotonically with the acceleration at the
    # fig5 presets' epsilon, where 0 < eps < 1/2
    fig5 = ("fig5-1", "fig5-2", "fig5-3")
    accels = np.logspace(16.5, 17.8, 12)
    mono = True
    for name in fig5:
        p = PRESETS[name]
        eps = epsilon(_physical_params(p["gap"], p["gap"], p["coupling"]))
        ds = [geomphase.delta_per_cycle_from_eps(eps, geomphase.unruh_squeeze(p["gap"], a).r)
              for a in accels]
        mono = mono and all(b < a_ for a_, b in zip(ds, ds[1:]))
    add("delta_monotone_in_acceleration", mono,
        0.0 if mono else 1.0, 0.5, detail=", ".join(fig5))

    # thermal state: Planck occupation identity
    r_t = thermo.squeeze_from_temperature(1e9, 0.012).r
    n_max = oracle.required_levels(r_t)
    w, _ = oracle.thermal_weights(r_t, n_max)
    mean_n = float(np.sum(w * np.arange(n_max + 1)))
    planck = abs(mean_n - math.sinh(r_t) ** 2)
    add("planck_occupation", planck < 1e-10, planck, 1e-10)

    passed = all(c["passed"] for c in checks)
    return {
        "passed": passed,
        "negative_control": negative_control,
        "checks": checks,
        "loop_cells": cells,
    }
