"""Command-line frontend: parameter sweeps, diagnostics, and certification.

Subcommands: diagonalize, thermometer, sensitivity, unruh, adiabaticity,
certify.  Values can come from flags or a plain ``key = value`` config file
(flags win).  CSV output uses 17 significant digits, a header row, and LF
line endings so identical configs produce byte-identical files.  Exit codes:
0 success, 2 config error, 3 numerical failure, 4 certification failure.
The sweeps (thermometer, sensitivity, unruh) need only ``math`` and build
their grids with ``linspace`` below; numpy is loaded by the commands that
reach the array layers ``fockspace`` and ``oracle`` (diagonalize,
adiabaticity, certify), which this module uses only as module attributes.

``certify`` takes one flag, ``--negative-control``.  Its loop-grid verdict
is calibrated at 2048 loop points, the cutoff ladder 30 -> 78 and the 1e-8
truncation gate, and none of the three is settable.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import fockspace, geomphase, oracle, thermo
from .diagonalization import (
    ConstraintError,
    DiagParams,
    InverseMapError,
    OracleError,
    PhysicalParams,
    check_basin,
    derive_params,
    forward_map,
    invert_physical,
)
from .geomphase import (
    accumulate_cycles,
    eigen_berry_phase,
    epsilon,
    phase_distance,
    thermometer_delta_from_eps,
    thermometer_slope_from_eps,
    unruh_squeeze,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CERTIFICATION = 4

TWO_PI = 2.0 * math.pi

# Figure presets: quoted laboratory frequencies are angular (rad/s).
PRESETS = {
    # thermometer: resonant gap, hot-source temperature, 1.2 kHz coupling
    "fig3-mhz": {"gap": 1e6, "t_hot": 1e-3, "coupling": TWO_PI * 1200.0},
    "fig3-10mhz": {"gap": 1e7, "t_hot": 1e-2, "coupling": TWO_PI * 1200.0},
    "fig3-100mhz": {"gap": 1e8, "t_hot": 0.1, "coupling": TWO_PI * 1200.0},
    "fig3-ghz": {"gap": 1e9, "t_hot": 1.0, "coupling": TWO_PI * 1200.0},
    # accelerated-detector scenarios: 2.0 GHz resonant pair, three couplings
    "fig5-1": {"gap": 2e9, "coupling": TWO_PI * 34.0},
    "fig5-2": {"gap": 2e9, "coupling": TWO_PI * 100.0},
    "fig5-3": {"gap": 2e9, "coupling": TWO_PI * 250.0},
    # adiabaticity: vacuum GHz case and the worst-case MHz / 1 mK case
    "fig6-ghz": {"gap": 1e9, "coupling": TWO_PI * 1200.0, "temperature": 0.0},
    "fig6-mhz": {"gap": 1e6, "coupling": TWO_PI * 1200.0, "temperature": 1e-3},
}


class ConfigError(ValueError):
    pass


def read_config_file(path: str) -> dict[str, str]:
    """Plain key = value lines; '#' starts a comment."""
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
                key, _, value = text.partition("=")
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    return out


def _merge_config(args: argparse.Namespace, keys: dict[str, type]) -> dict:
    """Config-file values overridden by flags; every value validated."""
    merged: dict = {}
    if getattr(args, "config", None):
        raw = read_config_file(args.config)
        for key, value in raw.items():
            if key not in keys:
                raise ConfigError(f"unknown configuration key '{key}'")
            merged[key] = _convert(key, value, keys[key])
    for key, typ in keys.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            merged[key] = flag_val
    return merged


def _convert(key: str, value: str, typ: type):
    try:
        if typ is bool:
            if value.lower() in ("1", "true", "yes", "on"):
                return True
            if value.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(value)
        return typ(value)
    except ValueError:
        raise ConfigError(f"configuration key '{key}' has invalid value {value!r}")


def _require(config: dict, key: str):
    if key not in config or config[key] is None:
        raise ConfigError(f"missing required configuration key '{key}'")
    return config[key]


def linspace(start: float, stop: float, num: int) -> list[float]:
    """``num`` >= 2 evenly spaced values from ``start`` to ``stop``, bit for bit
    those of ``numpy.linspace``: i * step + start with step = (stop - start) /
    (num - 1), or i / (num - 1) * (stop - start) + start where step underflows
    to zero, and the last value ``stop``."""
    div = num - 1
    delta = stop - start
    step = delta / div
    if step == 0.0:
        values = [i / div * delta + start for i in range(num)]
    else:
        values = [i * step + start for i in range(num)]
    values[-1] = stop
    return values


def format_float(x: float) -> str:
    return "%.17g" % x


def write_rows(rows: list[dict], header: list[str], fmt: str, out_path: str | None) -> None:
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(
                format_float(row[h]) if isinstance(row[h], float) else str(row[h])
                for h in header
            ))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        raise ConfigError(f"unknown output format '{fmt}'")
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def write_report(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _apply_preset(config: dict, allowed_prefix: str | None = None) -> dict:
    name = config.get("preset")
    if not name:
        return config
    if name not in PRESETS:
        raise ConfigError(f"unknown preset '{name}' (known: {', '.join(sorted(PRESETS))})")
    if allowed_prefix and not name.startswith(allowed_prefix):
        raise ConfigError(f"preset '{name}' does not apply to this command")
    merged = dict(PRESETS[name])
    for key, value in config.items():
        if key != "preset" and value is not None:
            merged[key] = value
    merged["preset"] = name
    return merged


def _physical_params(omega_a: float, omega_b: float, coupling: float) -> PhysicalParams:
    """The laboratory triple; a value no numerics can take is a config error."""
    pp = PhysicalParams(Omega_a=omega_a, Omega_b=omega_b, lam=coupling)
    try:
        pp.validate()
    except ValueError as exc:
        raise ConfigError(f"need finite frequencies > 0 and coupling >= 0: {exc}")
    return pp


def _sweep_epsilon(gap: float, coupling: float) -> float:
    """epsilon of the resonant triple, the one number the sweep formulas take;
    couplings past the tested basin are refused."""
    pp = _physical_params(gap, gap, coupling)
    check_basin(pp)
    return epsilon(pp)


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

DIAG_KEYS = {
    "omega_a": float, "omega_b": float, "coupling": float,
    "diag_omega_a": float, "diag_omega_b": float, "diag_v": float,
    "cutoff": int,
}


def cmd_diagonalize(config: dict) -> dict:
    import numpy as np

    cutoff = int(config.get("cutoff", 24))
    if cutoff < 4:
        raise ConfigError("need cutoff >= 4")
    dims = fockspace.FockDims(cutoff, cutoff)
    report: dict = {}
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
        report["mode"] = "forward"
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
        report["mode"] = "inverse"
    d = derive_params(dp)
    back = forward_map(dp)
    report["diag_params"] = {"omega_a": dp.omega_a, "omega_b": dp.omega_b, "v": dp.v}
    report["physical_params"] = {"Omega_a": pp.Omega_a, "Omega_b": pp.Omega_b, "lam": pp.lam}
    report["derived"] = {
        "C": d.C, "u": d.u, "s": d.s, "theta_a": d.theta_a, "theta_b": d.theta_b,
        "phi": d.phi, "p": d.p, "Z": d.Z, "lambda_hat": d.lambda_hat,
        "Omega_hat_b": d.Omega_hat_b,
        "g1": d.g1.real, "g2": d.g2.real, "g3": d.g3.real,
        "g4_abs": abs(d.g4), "g5": d.g5.real, "g6": d.g6.real,
    }
    report["round_trip_residual"] = max(
        abs(back.Omega_a / pp.Omega_a - 1.0),
        abs(back.Omega_b / pp.Omega_b - 1.0),
        abs(back.lam / pp.lam - 1.0) if pp.lam else 0.0,
    )
    residuals = {}
    occupations = ((0, 0), (1, 0), (0, 1))
    psis = fockspace.eigenstates([dp] * 3, occupations, 0.0, dims)
    for occ, psi in zip(occupations, psis):
        h_psi = fockspace.hamiltonian_action(pp, psi.amp.reshape(cutoff, cutoff)).reshape(-1)
        e_val = float(np.real(np.vdot(psi.amp, h_psi)))
        res = float(np.linalg.norm(h_psi - e_val * psi.amp)) / pp.Omega_a
        residuals[f"{occ[0]},{occ[1]}"] = res
    report["eigenstate_residuals_over_Omega_a"] = residuals
    # c = U|00>, each truncated factor applied by its exact blocks
    for t in (d.u, dp.v, d.p):
        fockspace._warn_squeeze_truncation(cutoff, t)
    vac = np.zeros((cutoff, cutoff, 1))
    vac[0, 0, 0] = 1.0
    col = fockspace.unitary_action(dp, vac).reshape(-1)
    # |1 - z|, z = <00|U|00> = c_0, free of cancellation:
    # 1 - Re z = (sum_{j>=1} |c_j|^2 + (Im z)^2) / (1 + Re z)
    z = col[0]
    one_minus_re = (np.sum(np.abs(col[1:]) ** 2) + z.imag ** 2) / (1.0 + z.real)
    report["vacuum_overlap_deviation"] = float(np.hypot(one_minus_re, z.imag))
    return report


THERMO_KEYS = {
    "preset": str, "gap": float, "t_hot": float, "coupling": float,
    "t_cold_min": float, "t_cold_max": float, "points": int,
}


def cmd_thermometer(config: dict) -> tuple[list[dict], list[str]]:
    config = _apply_preset(config, "fig3")
    gap = _require(config, "gap")
    t_hot = _require(config, "t_hot")
    coupling = _require(config, "coupling")
    points = int(config.get("points", 200))
    t_min = config.get("t_cold_min", t_hot / 1000.0)
    t_max = config.get("t_cold_max", t_hot)
    if points < 2 or t_min <= 0 or t_max <= t_min:
        raise ConfigError("need points >= 2 and 0 < t_cold_min < t_cold_max")
    eps = _sweep_epsilon(gap, coupling)
    rows = []
    for tc in (10.0 ** x for x in linspace(math.log10(t_min), math.log10(t_max), points)):
        rows.append({
            "T_cold_K": tc,
            "delta_rad": thermometer_delta_from_eps(eps, gap, tc, t_hot),
            # sensitivity stand-in: |d delta / d T_cold|
            "dDelta_dTcold_rad_per_K": abs(thermometer_slope_from_eps(eps, gap, tc)),
        })
    return rows, ["T_cold_K", "delta_rad", "dDelta_dTcold_rad_per_K"]


SENS_KEYS = {
    "preset": str, "gap": float, "t_hot": float, "coupling": float,
    "t_cold": float, "relerr_max": float, "points": int,
}


def cmd_sensitivity(config: dict) -> tuple[list[dict], list[str]]:
    config = _apply_preset(config, "fig3")
    gap = _require(config, "gap")
    t_hot = _require(config, "t_hot")
    coupling = _require(config, "coupling")
    t_cold = config.get("t_cold", t_hot / 1000.0)
    relerr_max = config.get("relerr_max", 0.5)
    points = int(config.get("points", 101))
    if not 0.0 < relerr_max < 1.0 or points < 3:
        raise ConfigError("need 0 < relerr_max < 1 and points >= 3")
    eps = _sweep_epsilon(gap, coupling)
    ref = thermometer_delta_from_eps(eps, gap, t_cold, t_hot)
    if ref == 0.0:
        raise ConfigError("reference phase difference vanishes; pick t_cold != t_hot")
    rows = []
    for e in linspace(-relerr_max, relerr_max, points):
        val = thermometer_delta_from_eps(eps, gap, t_cold, t_hot * (1.0 + e))
        rows.append({"relerr_Th": e, "relerr_delta": (val - ref) / ref})
    return rows, ["relerr_Th", "relerr_delta"]


UNRUH_KEYS = {
    "preset": str, "gap": float, "coupling": float,
    "accel_min": float, "accel_max": float, "points": int,
}


def cmd_unruh(config: dict) -> tuple[list[dict], list[str]]:
    config = _apply_preset(config, "fig5")
    gap = _require(config, "gap")
    coupling = _require(config, "coupling")
    a_min = config.get("accel_min", 1e16)
    a_max = config.get("accel_max", 1e18)
    points = int(config.get("points", 60))
    if points < 2 or a_min <= 0 or a_max <= a_min:
        raise ConfigError("need points >= 2 and 0 < accel_min < accel_max")
    eps = _sweep_epsilon(gap, coupling)
    cycle_time = TWO_PI / gap
    accels = [10.0 ** x for x in linspace(math.log10(a_min), math.log10(a_max), points)]

    def row(a: float) -> dict:
        q = unruh_squeeze(gap, a).r
        delta = geomphase.delta_per_cycle_from_eps(eps, q)
        acc = accumulate_cycles(abs(delta), 1)
        n_pi = acc.cycles_to_pi
        return {
            "accel_m_s2": a,
            "T_unruh_K": thermo.unruh_temperature(a),
            "q": q,
            "delta_per_cycle_rad": float(delta),
            "cycles_to_pi": float("inf") if n_pi is None else float(n_pi),
            "time_to_pi_s": float("inf") if n_pi is None else n_pi * cycle_time,
        }

    rows = [row(a) for a in accels]
    return rows, ["accel_m_s2", "T_unruh_K", "q", "delta_per_cycle_rad",
                  "cycles_to_pi", "time_to_pi_s"]


ADIA_KEYS = {"preset": str, "gap": float, "coupling": float, "temperature": float, "cycles": int}


def cmd_adiabaticity(config: dict) -> tuple[list[dict], list[str]]:
    config = _apply_preset(config, "fig6")
    gap = _require(config, "gap")
    coupling = _require(config, "coupling")
    temperature = config.get("temperature", 0.0)
    cycles = int(config.get("cycles", 8))
    if cycles < 1 or not temperature >= 0.0:
        raise ConfigError("need cycles >= 1 and temperature >= 0")
    pp = _physical_params(gap, gap, coupling)
    spec = oracle.EvolutionSpec()
    if temperature > 0.0:
        r = thermo.squeeze_from_temperature(gap, temperature).r
        result = oracle.thermal_excitation_per_cycle(pp, cycles, spec, r)
        per_cycle = result.per_cycle
    else:
        per_cycle = oracle.excitation_probability_per_cycle(pp, cycles, spec, 0)
    rows = [{"cycle_index": i + 1, "P_excitation": float(p)}
            for i, p in enumerate(per_cycle)]
    return rows, ["cycle_index", "P_excitation"]


# --------------------------------------------------------------------------
# Certification
# --------------------------------------------------------------------------

CERT_KEYS = {"negative_control": bool}

CERT_GRID_V = (0.1, 0.3, 0.6)
CERT_GRID_RATIO = (math.e, math.e ** 2, math.e ** 3)
CERT_OCCUPATIONS = ((0, 0), (1, 0), (0, 1), (1, 1))
CERT_LOOP_TOL = 1e-8
CUTOFF_LADDER = (30, 44, 60, 78)


def _loop_check_cells(dps: list[DiagParams],
                      negative_control: bool) -> dict[DiagParams, list[dict]]:
    """Loop oracle vs closed form for every occupation of CERT_OCCUPATIONS at
    each dp of ``dps``: the list of cells of each dp.  The oracle walks the
    cutoff ladder itself (``oracle.discrete_berry_loops``); a cell reports
    the rung it passed at, or the oracle's refusal at the last rung."""
    phase_fn = (geomphase._eigen_phase_unshared_denominator
                if negative_control else eigen_berry_phase)
    pairs = [(dp, occ) for dp in dps for occ in CERT_OCCUPATIONS]
    results = oracle.discrete_berry_loops([dp for dp, _ in pairs], [occ for _, occ in pairs],
                                          oracle.LoopSpec(),
                                          [fockspace.FockDims(c, c) for c in CUTOFF_LADDER])
    cells: dict[DiagParams, list[dict]] = {dp: [] for dp in dps}
    for (dp, occ), result in zip(pairs, results):
        if isinstance(result, OracleError):
            cells[dp].append({
                "occupation": list(occ),
                "cutoff": None,
                "difference_rad": math.nan,
                "passed": False,
                "refused": str(result),
            })
            continue
        diff = phase_distance(phase_fn(dp, occ[0], occ[1]).raw, result.phase.raw)
        cells[dp].append({
            "occupation": list(occ),
            "cutoff": result.dims.n_field,
            "difference_rad": diff,
            "loop_error_estimate": result.error_estimate,
            "truncation_tail": result.truncation_tail,
            "passed": bool(diff < CERT_LOOP_TOL),
        })
    return cells


def certification_report(negative_control: bool = False) -> dict:
    """Run every cross-check and return a machine-readable report."""
    import numpy as np

    checks: list[dict] = []

    def add(name: str, passed: bool, residual: float, tolerance: float, detail: str = ""):
        checks.append({
            "name": name, "passed": bool(passed), "residual": float(residual),
            "tolerance": float(tolerance), "detail": detail,
        })

    rng = np.random.default_rng(20260810)
    dims_small = fockspace.FockDims(12, 12)

    # ladder algebra: commutator rows away from the truncation boundary
    a = fockspace.ladder(dims_small, "field", "lower")
    comm = a @ a.T - a.T @ a
    rows_ok = np.abs(np.diag(comm).reshape(12, 12)[:10, :] - 1.0).max()
    add("ladder_commutator_rows", rows_ok < 1e-12, rows_ok, 1e-12)

    # the forward chain U at the default cutoff keeps 8 random columns orthonormal
    dp_ref = DiagParams(math.e ** 2, 1.0, 0.3)
    cols, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(900, 8)))
    moved = fockspace.unitary_action(dp_ref, cols.reshape(30, 30, 8)).reshape(900, 8)
    gram = np.abs(moved.T @ moved - np.eye(8)).max()
    add("unitary_chain_orthogonality", gram < 1e-10, gram, 1e-10)

    # constrained-parameter identities
    d_ref = derive_params(dp_ref)
    g4_rel = abs(d_ref.g4) / max(abs(d_ref.g3), 1e-300)
    add("g4_cancellation", g4_rel < 1e-12, g4_rel, 1e-12)
    g36 = abs(d_ref.g3 - d_ref.g6) / abs(d_ref.g3)
    add("coupling_coefficients_equal", g36 < 1e-12, g36, 1e-12)

    # spacing identity gamma(nf+1) - gamma(nf) = 2 pi G = pi + 2 pi eps: the
    # paper's spacing at dp_ref against the normal-mode epsilon of its triple
    pp_ref = forward_map(dp_ref)
    eps_ref = epsilon(pp_ref)
    spacing = eigen_berry_phase(dp_ref, 3, 1).raw - eigen_berry_phase(dp_ref, 2, 1).raw
    sp_res = abs(spacing - (math.pi + TWO_PI * eps_ref))
    add("phase_spacing_2piG", sp_res < 1e-12, sp_res, 1e-12)

    # rotation covariance of H
    rc = oracle.rotation_covariance_residual(pp_ref, 0.9, fockspace.FockDims(16, 16))
    add("hamiltonian_rotation_covariance", rc < 1e-12 * pp_ref.Omega_a,
        rc, 1e-12 * pp_ref.Omega_a)

    # inverse/forward round trips on a parameter grid (inside the solver basin)
    worst = 0.0
    for u_seed in (1e-3, 0.05, 0.3):
        for v in (1e-3, 5e-3):
            dp = DiagParams(2e9 * math.exp(2 * (u_seed + v)), 2e9, v)
            pp = forward_map(dp)
            if pp.lam / pp.Omega_a > 0.3:
                continue
            sol = invert_physical(pp)
            back = forward_map(sol.params)
            worst = max(worst,
                        abs(back.Omega_a / pp.Omega_a - 1.0),
                        abs(back.Omega_b / pp.Omega_b - 1.0),
                        abs(back.lam / pp.lam - 1.0))
    add("map_round_trip", worst < 1e-10, worst, 1e-10)

    # vanishing v-component of the connection
    av = abs(oracle.berry_connection_v(dp_ref, 1, 1, 0.3, fockspace.FockDims(24, 24)))
    add("connection_v_component", av < 1e-8, av, 1e-8)

    # loop oracle vs closed form over the full grid
    grid: dict[tuple[float, float], DiagParams | str] = {}
    for v in CERT_GRID_V:
        for ratio in CERT_GRID_RATIO:
            try:
                dp = DiagParams(ratio, 1.0, v)
                dp.validate()
                grid[v, ratio] = dp
            except ConstraintError as exc:
                grid[v, ratio] = str(exc)
    measured = _loop_check_cells([dp for dp in grid.values() if isinstance(dp, DiagParams)],
                                 negative_control)
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
            if "difference_rad" in cell and not math.isnan(cell["difference_rad"]):
                worst_diff = max(worst_diff, cell["difference_rad"])
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

    # thermometer antisymmetry and equality with mixed-phase differences
    om = 1e9
    anti = abs(thermometer_delta_from_eps(eps_ref, om, 0.001, 0.3)
               + thermometer_delta_from_eps(eps_ref, om, 0.3, 0.001))
    add("thermometer_antisymmetry", anti < 1e-14, anti, 1e-14)
    r1 = thermo.squeeze_from_temperature(om, 0.001).r
    r2 = thermo.squeeze_from_temperature(om, 0.3).r
    ident = abs(thermometer_delta_from_eps(eps_ref, om, 0.001, 0.3)
                - (-geomphase.mixed_phase_offset(eps_ref, r1)
                   + geomphase.mixed_phase_offset(eps_ref, r2)))
    add("thermometer_equals_mixed_difference", ident < 1e-12, ident, 1e-12)

    # keystone: accelerated-observer squeeze == thermal squeeze at T_U
    worst = 0.0
    for om_a in np.logspace(8, 10, 5):
        for a in np.logspace(16, 18, 5):
            worst = max(worst, geomphase.keystone_identity_residual(om_a, a))
    add("unruh_thermal_squeeze_identity", worst < 1e-12, worst, 1e-12)

    # per-cycle difference falls monotonically with the acceleration at the
    # fig5 presets' epsilon, where 0 < eps < 1/2
    fig5 = ("fig5-1", "fig5-2", "fig5-3")
    accels = np.logspace(16.5, 17.8, 12)
    mono = True
    for name in fig5:
        p = PRESETS[name]
        eps = _sweep_epsilon(p["gap"], p["coupling"])
        ds = [geomphase.delta_per_cycle_from_eps(eps, unruh_squeeze(p["gap"], a).r)
              for a in accels]
        mono = mono and all(b < a_ for a_, b in zip(ds, ds[1:]))
    add("delta_monotone_in_acceleration", mono,
        0.0 if mono else 1.0, 0.5, detail=", ".join(fig5))

    # thermal state: Planck occupation identity
    spec_t = oracle.ThermalStateSpec.for_tail(1e9, 0.012)
    w, _ = oracle.thermal_weights(spec_t.r_T, spec_t.n_max)
    mean_n = float(np.sum(w * np.arange(spec_t.n_max + 1)))
    planck = abs(mean_n - math.sinh(spec_t.r_T) ** 2)
    add("planck_occupation", planck < 1e-10, planck, 1e-10)

    # gauge invariance of the loop product under random rephasing
    vecs = [rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(40)]
    vecs = [v / np.linalg.norm(v) for v in vecs]
    base_phase, _ = oracle.pancharatnam_product(vecs)
    phases = np.exp(1j * rng.uniform(-math.pi, math.pi, size=40))
    rot = [p * v for p, v in zip(phases, vecs)]
    rot_phase, _ = oracle.pancharatnam_product(rot)
    gauge = phase_distance(base_phase, rot_phase)
    add("pancharatnam_gauge_invariance", gauge < 1e-12, gauge, 1e-12)

    passed = all(c["passed"] for c in checks)
    return {
        "passed": passed,
        "negative_control": negative_control,
        "checks": checks,
        "loop_cells": cells,
    }


def cmd_certify(config: dict) -> tuple[dict, int]:
    report = certification_report(negative_control=bool(config.get("negative_control", False)))
    code = EXIT_OK if report["passed"] else EXIT_CERTIFICATION
    return report, code


# --------------------------------------------------------------------------
# Argument parsing and dispatch
# --------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, sweep: bool = False) -> None:
    p.add_argument("--config", help="plain key = value configuration file")
    p.add_argument("--out", help="output path (default: stdout)")
    if sweep:  # sweeps write rows; diagonalize and certify always write a JSON report
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berrytherm",
        description="Geometric-phase quantum thermometry sweeps and certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagonalize", help="derived parameters, round trips, eigenstate residuals")
    _add_common(p)
    p.add_argument("--omega-a", dest="omega_a", type=float, help="field frequency (rad/s)")
    p.add_argument("--omega-b", dest="omega_b", type=float, help="detector gap (rad/s)")
    p.add_argument("--coupling", type=float, help="coupling (rad/s)")
    p.add_argument("--diag-omega-a", dest="diag_omega_a", type=float)
    p.add_argument("--diag-omega-b", dest="diag_omega_b", type=float)
    p.add_argument("--diag-v", dest="diag_v", type=float)
    p.add_argument("--cutoff", type=int)

    p = sub.add_parser("thermometer", help="phase difference vs cold-source temperature")
    _add_common(p, sweep=True)
    p.add_argument("--preset", help="fig3-mhz | fig3-10mhz | fig3-100mhz | fig3-ghz")
    p.add_argument("--gap", type=float, help="resonant gap (rad/s)")
    p.add_argument("--t-hot", dest="t_hot", type=float, help="hot source temperature (K)")
    p.add_argument("--coupling", type=float)
    p.add_argument("--t-cold-min", dest="t_cold_min", type=float)
    p.add_argument("--t-cold-max", dest="t_cold_max", type=float)
    p.add_argument("--points", type=int)

    p = sub.add_parser("sensitivity", help="phase error vs hot-source temperature error")
    _add_common(p, sweep=True)
    p.add_argument("--preset")
    p.add_argument("--gap", type=float)
    p.add_argument("--t-hot", dest="t_hot", type=float)
    p.add_argument("--coupling", type=float)
    p.add_argument("--t-cold", dest="t_cold", type=float)
    p.add_argument("--relerr-max", dest="relerr_max", type=float)
    p.add_argument("--points", type=int)

    p = sub.add_parser("unruh", help="per-cycle phase difference vs acceleration")
    _add_common(p, sweep=True)
    p.add_argument("--preset", help="fig5-1 | fig5-2 | fig5-3")
    p.add_argument("--gap", type=float)
    p.add_argument("--coupling", type=float)
    p.add_argument("--accel-min", dest="accel_min", type=float)
    p.add_argument("--accel-max", dest="accel_max", type=float)
    p.add_argument("--points", type=int)

    p = sub.add_parser("adiabaticity", help="excitation probability per cycle")
    _add_common(p, sweep=True)
    p.add_argument("--preset", help="fig6-ghz | fig6-mhz")
    p.add_argument("--gap", type=float)
    p.add_argument("--coupling", type=float)
    p.add_argument("--temperature", type=float)
    p.add_argument("--cycles", type=int)

    p = sub.add_parser("certify", help="run the full oracle-vs-closed-form suite")
    _add_common(p)
    p.add_argument("--negative-control", dest="negative_control", action="store_true",
                   default=None,
                   help="inject a deliberately wrong closed form; certification must fail")

    return parser


KEYMAP = {
    "diagonalize": DIAG_KEYS,
    "thermometer": THERMO_KEYS,
    "sensitivity": SENS_KEYS,
    "unruh": UNRUH_KEYS,
    "adiabaticity": ADIA_KEYS,
    "certify": CERT_KEYS,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_config(args, KEYMAP[args.command])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "diagonalize":
            report = cmd_diagonalize(config)
            write_report(report, args.out)
            return EXIT_OK
        if args.command == "certify":
            report, code = cmd_certify(config)
            write_report(report, args.out)
            if code != EXIT_OK:
                print("certification FAILED", file=sys.stderr)
            return code
        handler = {
            "thermometer": cmd_thermometer,
            "sensitivity": cmd_sensitivity,
            "unruh": cmd_unruh,
            "adiabaticity": cmd_adiabaticity,
        }[args.command]
        rows, header = handler(config)
        write_rows(rows, header, args.format, args.out)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConstraintError, InverseMapError, OracleError, OverflowError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
