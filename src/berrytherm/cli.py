"""Command-line frontend: parameter sweeps, diagnostics, and certification.

Each option is declared once, in ``OPTIONS``; ``COMMANDS`` lists which
options each subcommand takes.  Option ``x_y`` is the flag ``--x-y`` and the
key ``x_y`` of a plain ``key = value`` config file (flags win), a float
option must be finite, and ``--preset`` takes the presets of the command's
figure family.  CSV output uses 17 significant digits, a header row, and LF
line endings so identical configs produce byte-identical files; JSON output
writes an infinite or NaN value as null.  Exit codes: 0 success, 2 config
error, 3 numerical failure, 4 certification failure.
A sweep returns tuple rows under a header it declares once.  The sweeps
(thermometer, sensitivity, unruh) need only ``math``: they build their grids
with ``linspace`` below and take each row from a row kernel of ``geomphase``,
and ``json`` is loaded only to write JSON.  The commands that reach the array
layers (diagonalize, adiabaticity, certify) run the code of ``reports``, which
is imported, and loads numpy, only when one of them is called.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, NamedTuple

from . import thermo
from .diagonalization import ConstraintError, InverseMapError, OracleError, PhysicalParams
from .geomphase import epsilon, thermal_terms, unruh_phases

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

# Every option: its type and help.  ``--preset``'s help is the names of the
# command's figure family.
OPTIONS: dict[str, tuple[type, str | None]] = {
    "omega_a": (float, "field frequency Omega_a (rad/s)"),
    "omega_b": (float, "detector gap Omega_b (rad/s)"),
    "coupling": (float, "coupling lam (rad/s)"),
    "diag_omega_a": (float, "forward mode: normal-mode frequency omega_a (rad/s)"),
    "diag_omega_b": (float, "forward mode: normal-mode frequency omega_b (rad/s)"),
    "diag_v": (float, "forward mode: two-mode squeeze v"),
    "cutoff": (int, "Fock levels per mode"),
    "preset": (str, None),
    "gap": (float, "resonant gap (rad/s)"),
    "t_hot": (float, "hot-source temperature (K)"),
    "t_cold_min": (float, "lowest cold-source temperature (K)"),
    "t_cold_max": (float, "highest cold-source temperature (K)"),
    "t_cold": (float, "cold-source temperature (K)"),
    "relerr_max": (float, "largest relative error of the hot-source temperature"),
    "points": (int, "sweep size"),
    "accel_min": (float, "lowest acceleration (m/s^2)"),
    "accel_max": (float, "highest acceleration (m/s^2)"),
    "temperature": (float, "field temperature (K)"),
    "cycles": (int, "number of cycles"),
    "negative_control": (bool, "inject a deliberately wrong closed form; "
                               "certification must fail"),
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    return out


def _merge_config(args: argparse.Namespace) -> dict:
    """Config-file values overridden by flags; every value validated."""
    keys = COMMANDS[args.command].options
    merged: dict = {}
    if args.config:
        for key, value in read_config_file(args.config).items():
            if key not in keys:
                raise ConfigError(f"unknown configuration key '{key}'")
            merged[key] = _convert(key, value, OPTIONS[key][0])
    for key in keys:
        flag_val = getattr(args, key)
        if flag_val is not None:
            merged[key] = flag_val
    for key, value in merged.items():
        if OPTIONS[key][0] is float and not math.isfinite(value):
            raise ConfigError(f"need a finite value for '{key}', got {value}")
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


def write_rows(rows: list[tuple], header: tuple[str, ...], fmt: str, out_path: str | None) -> None:
    """Rows of numbers under ``header`` as CSV, or as JSON objects keyed by it."""
    if fmt == "csv":
        template = ",".join(["%.17g"] * len(header))
        text = "\n".join([",".join(header), *(template % row for row in rows)]) + "\n"
    elif fmt == "json":
        text = _json_text([dict(zip(header, row)) for row in rows])
    else:
        raise ConfigError(f"unknown output format '{fmt}'")
    _write_text(text, out_path)


def _json_text(obj) -> str:
    """``obj`` as indented JSON with each infinite or NaN float written as null,
    which RFC 8259 JSON requires; ``obj`` itself is left unchanged."""
    import json

    plain = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    return json.dumps(plain, indent=2, allow_nan=False) + "\n"


def _write_text(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _apply_preset(config: dict, family: str) -> dict:
    name = config.get("preset")
    if not name:
        return config
    if name not in PRESETS:
        raise ConfigError(f"unknown preset '{name}' (known: {', '.join(sorted(PRESETS))})")
    if not name.startswith(family):
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


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_thermometer(config: dict) -> tuple[list[tuple], tuple[str, ...]]:
    gap = _require(config, "gap")
    t_hot = _require(config, "t_hot")
    coupling = _require(config, "coupling")
    points = int(config.get("points", 200))
    t_min = config.get("t_cold_min", t_hot / 1000.0)
    t_max = config.get("t_cold_max", t_hot)
    if points < 2 or t_hot <= 0 or t_min <= 0 or t_max <= t_min:
        raise ConfigError("need points >= 2, t_hot > 0 and 0 < t_cold_min < t_cold_max")
    eps = epsilon(_physical_params(gap, gap, coupling))
    temps = [10.0 ** x for x in linspace(math.log10(t_min), math.log10(t_max), points)]
    ((hot, _),) = thermal_terms(eps, gap, (t_hot,))
    # the sensitivity stand-in |d delta / d T_cold| rides along
    rows = [(tc, cold - hot, abs(slope))
            for tc, (cold, slope) in zip(temps, thermal_terms(eps, gap, temps))]
    return rows, ("T_cold_K", "delta_rad", "dDelta_dTcold_rad_per_K")


def cmd_sensitivity(config: dict) -> tuple[list[tuple], tuple[str, ...]]:
    gap = _require(config, "gap")
    t_hot = _require(config, "t_hot")
    coupling = _require(config, "coupling")
    t_cold = config.get("t_cold", t_hot / 1000.0)
    relerr_max = config.get("relerr_max", 0.5)
    points = int(config.get("points", 101))
    if not 0.0 < relerr_max < 1.0 or points < 3 or t_hot <= 0 or t_cold <= 0:
        raise ConfigError("need 0 < relerr_max < 1, points >= 3, t_hot > 0 and t_cold > 0")
    eps = epsilon(_physical_params(gap, gap, coupling))
    (cold, _), (hot, _) = thermal_terms(eps, gap, (t_cold, t_hot))
    ref = cold - hot
    if ref == 0.0:
        raise ConfigError("reference phase difference vanishes; pick t_cold != t_hot")
    relerrs = linspace(-relerr_max, relerr_max, points)
    hot_terms = thermal_terms(eps, gap, [t_hot * (1.0 + e) for e in relerrs])
    rows = [(e, (cold - term - ref) / ref) for e, (term, _) in zip(relerrs, hot_terms)]
    return rows, ("relerr_Th", "relerr_delta")


def cmd_unruh(config: dict) -> tuple[list[tuple], tuple[str, ...]]:
    gap = _require(config, "gap")
    coupling = _require(config, "coupling")
    a_min = config.get("accel_min", 1e16)
    a_max = config.get("accel_max", 1e18)
    points = int(config.get("points", 60))
    if points < 2 or a_min <= 0 or a_max <= a_min:
        raise ConfigError("need points >= 2 and 0 < accel_min < accel_max")
    eps = epsilon(_physical_params(gap, gap, coupling))
    cycle_time = TWO_PI / gap
    accels = [10.0 ** x for x in linspace(math.log10(a_min), math.log10(a_max), points)]
    rows = [(a, thermo.unruh_temperature(a), q, delta, n_pi, n_pi * cycle_time)
            for a, (q, delta, n_pi) in zip(accels, unruh_phases(eps, gap, accels))]
    return rows, ("accel_m_s2", "T_unruh_K", "q", "delta_per_cycle_rad",
                  "cycles_to_pi", "time_to_pi_s")


def cmd_diagonalize(config: dict) -> dict:
    from . import reports
    return reports.cmd_diagonalize(config)


def cmd_adiabaticity(config: dict) -> tuple[list[tuple], tuple[str, ...]]:
    from . import reports
    return reports.cmd_adiabaticity(config)


def certification_report(negative_control: bool = False) -> dict:
    """Every cross-check as a machine-readable report (``reports.certification_report``)."""
    from . import reports
    return reports.certification_report(negative_control)


def cmd_certify(config: dict) -> dict:
    return certification_report(negative_control=bool(config.get("negative_control", False)))


# --------------------------------------------------------------------------
# Argument parsing and dispatch
# --------------------------------------------------------------------------

class Command(NamedTuple):
    handler: Callable[[dict], object]
    help: str
    family: str | None  # preset family of a sweep; None for a report command
    options: tuple[str, ...]


COMMANDS = {
    "diagonalize": Command(
        cmd_diagonalize, "derived parameters, round trips, eigenstate residuals", None,
        ("omega_a", "omega_b", "coupling", "diag_omega_a", "diag_omega_b", "diag_v", "cutoff")),
    "thermometer": Command(
        cmd_thermometer, "phase difference vs cold-source temperature", "fig3",
        ("preset", "gap", "t_hot", "coupling", "t_cold_min", "t_cold_max", "points")),
    "sensitivity": Command(
        cmd_sensitivity, "phase error vs hot-source temperature error", "fig3",
        ("preset", "gap", "t_hot", "coupling", "t_cold", "relerr_max", "points")),
    "unruh": Command(
        cmd_unruh, "per-cycle phase difference vs acceleration", "fig5",
        ("preset", "gap", "coupling", "accel_min", "accel_max", "points")),
    "adiabaticity": Command(
        cmd_adiabaticity, "excitation probability per cycle", "fig6",
        ("preset", "gap", "coupling", "temperature", "cycles")),
    "certify": Command(
        cmd_certify, "run the full oracle-vs-closed-form suite", None, ("negative_control",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berrytherm",
        description="Geometric-phase quantum thermometry sweeps and certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="plain key = value configuration file")
        p.add_argument("--out", help="output path (default: stdout)")
        if command.family:  # sweeps write rows; report commands always write JSON
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="output format")
        for key in command.options:
            typ, text = OPTIONS[key]
            flag = "--" + key.replace("_", "-")
            if key == "preset":
                text = " | ".join(n for n in PRESETS if n.startswith(command.family))
            if typ is bool:
                p.add_argument(flag, action="store_true", default=None, help=text)
            else:
                p.add_argument(flag, type=typ, help=text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _merge_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    handler, _, family, _ = COMMANDS[args.command]
    try:
        if family is None:
            report = handler(config)
            _write_text(_json_text(report), args.out)
            if report.get("passed", True):  # only certify's report carries a verdict
                return EXIT_OK
            print("certification FAILED", file=sys.stderr)
            return EXIT_CERTIFICATION
        config = _apply_preset(config, family)
        rows, header = handler(config)
        write_rows(rows, header, args.format, args.out)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError:  # an ArithmeticError whose own message names no input
        inputs = ", ".join(f"{k} = {v:g}" for k, v in config.items() if type(v) in (int, float))
        print(f"numerical failure: overflow at {inputs}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ArithmeticError, ConstraintError, InverseMapError, OracleError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    # run as ``python -m berrytherm.cli``: ``reports`` imports this module, not a second copy
    sys.modules[__spec__.name] = sys.modules[__name__]
    sys.exit(main())
