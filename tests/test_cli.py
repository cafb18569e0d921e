import argparse
import ast
import copy
import importlib
import json
import math
import os
import re
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

import berrytherm
from berrytherm import cli, diagonalization, fockspace, geomphase, oracle, reports, thermo
from berrytherm.cli import (
    EXIT_CERTIFICATION,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    COMMANDS,
    PRESETS,
    _merge_config,
    build_parser,
    certification_report,
    linspace,
    main,
    read_config_file,
)
from berrytherm.diagonalization import DiagParams, PhysicalParams, forward_map
from berrytherm.fockspace import TruncationWarning
from berrytherm.reports import CERT_GRID_RATIO, CERT_GRID_V, DIAG_TAIL_GATE

GOLDEN = Path(__file__).parent / "golden"


def run(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def test_unknown_preset_is_config_error(tmp_path, capsys):
    code = main(["thermometer", "--preset", "fig999"])
    assert code == EXIT_CONFIG
    assert "preset" in capsys.readouterr().err


def test_malformed_config_names_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("not_a_key = 12\n")
    code = main(["thermometer", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert "not_a_key" in capsys.readouterr().err


def test_bad_value_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("gap = banana\n")
    code = main(["thermometer", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert "gap" in capsys.readouterr().err


def test_config_file_parsing_comments_and_spaces(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("# comment line\ngap = 1e9   # trailing\n\nt_hot=1.0\n")
    parsed = read_config_file(str(cfg))
    assert parsed == {"gap": "1e9", "t_hot": "1.0"}


def test_config_file_not_utf8_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes(b"gap = 1\n\xff\xfe\n")
    assert main(["thermometer", "--config", str(cfg)]) == EXIT_CONFIG
    assert "cannot read config file" in capsys.readouterr().err


def test_numerical_failure_exit_code(capsys):
    # the one coupling refusal is the physical bound 4 lam^2 < Omega_a Omega_b:
    # on resonance it sits at coupling/gap = 1/2
    sweep = ["thermometer", "--gap", "1e6", "--t-hot", "1e-3", "--points", "3"]
    assert main(sweep + ["--coupling", "4.9e5"]) == EXIT_OK
    capsys.readouterr()
    assert main(sweep + ["--coupling", "5e5"]) == EXIT_NUMERICAL
    assert "unbound" in capsys.readouterr().err


def _too_cold(temperature: str, omega: str) -> str:
    return (f"numerical failure: temperature {temperature} K too low at mode frequency "
            f"{omega} rad/s: k_B T underflows to 0\n")


@pytest.mark.parametrize("argv, message", [
    (["thermometer", "--preset", "fig3-ghz", "--t-cold-min", "1e-305", "--t-cold-max", "1e-300",
      "--points", "3"], _too_cold("1e-305", "1e+09")),
    (["sensitivity", "--preset", "fig3-ghz", "--t-cold", "1e-305"], _too_cold("1e-305", "1e+09")),
    (["adiabaticity", "--preset", "fig6-mhz", "--temperature", "1e-305", "--cycles", "1"],
     _too_cold("1e-305", "1e+06")),
    (["diagonalize", "--omega-a", "1e-300", "--omega-b", "1e-300", "--coupling", "1e-301"],
     "numerical failure: float division by zero\n"),
    (["thermometer", "--preset", "fig3-ghz", "--t-cold-min", "1e-323", "--t-cold-max", "1e-322",
      "--points", "3"], _too_cold("9.88131e-324", "1e+09")),
    (["thermometer", "--preset", "fig3-ghz", "--t-hot", "1e-302", "--t-cold-min", "1e-303",
      "--points", "3"], _too_cold("1e-302", "1e+09")),
    (["sensitivity", "--preset", "fig3-ghz", "--t-cold", "1e-323"],
     _too_cold("9.88131e-324", "1e+09")),
    (["sensitivity", "--preset", "fig3-ghz", "--t-hot", "1e-302", "--t-cold", "1e-3"],
     _too_cold("1e-302", "1e+09")),
], ids=["thermometer", "sensitivity", "adiabaticity", "diagonalize", "thermometer-1e-323",
        "thermometer-hot", "sensitivity-1e-323", "sensitivity-hot"])
def test_division_by_an_underflowed_value_is_a_numerical_failure(capsys, argv, message):
    # a float division whose divisor underflowed to zero exits 3, not with a traceback, and
    # prints no row.  Where the divisor is k_B T (below about 1.8e-301 K), the refusal names
    # the first such temperature the command meets and the mode frequency
    assert main(argv) == EXIT_NUMERICAL
    assert capsys.readouterr() == ("", message)


def test_unruh_acceleration_whose_tanh_rounds_to_1_is_refused_by_name(capsys):
    # the second grid point, 1e35 m/s^2, puts tanh q at 1: refused, and no row is printed
    argv = ["unruh", "--preset", "fig5-1", "--accel-min", "1e34", "--accel-max", "1e36",
            "--points", "3"]
    assert main(argv) == EXIT_NUMERICAL
    assert capsys.readouterr() == ("", "numerical failure: acceleration 1e+35 m/s^2 too large at "
                                   "field frequency 2e+09 rad/s: tanh r rounds to 1 "
                                   "(r = 19.6019)\n")


@pytest.mark.parametrize("argv, inputs", [
    (["thermometer", "--preset", "fig3-ghz", "--gap", "1e300", "--points", "3"],
     "gap = 1e+300, t_hot = 1, coupling = 7539.82, points = 3"),
    (["thermometer", "--gap", "1e300", "--t-hot", "1", "--coupling", "1e3", "--points", "3"],
     "gap = 1e+300, t_hot = 1, coupling = 1000, points = 3"),
    (["diagonalize", "--omega-a", "1e300", "--omega-b", "1e300", "--coupling", "1e299"],
     "omega_a = 1e+300, omega_b = 1e+300, coupling = 1e+299"),
], ids=["preset", "thermometer", "diagonalize"])
def test_overflow_is_a_numerical_failure_naming_the_inputs(capsys, argv, inputs):
    # a result out of the float range exits 3 and names the numeric inputs, preset ones too
    assert main(argv) == EXIT_NUMERICAL
    assert capsys.readouterr().err == f"numerical failure: overflow at {inputs}\n"


def _boundary_bound(preset: str, temperature: float) -> float:
    """1e-14 of the in-cycle peak 1 - (1 + 8 g^2 cosh 2r)^(-1/2) of a resonant
    preset: the most that rounding may leave at a cycle boundary, where the
    excitation is 0."""
    p = PRESETS[preset]
    r = thermo.squeeze_from_temperature(p["gap"], temperature).r if temperature else 0.0
    g = p["coupling"] / p["gap"]
    return 1e-14 * -math.expm1(-0.5 * math.log1p(8.0 * g * g * math.cosh(2.0 * r)))


def test_adiabaticity_mhz_preset_at_1_kelvin(tmp_path):
    # at 1 K the 1 MHz field holds ~1.3e5 quanta; the covariance propagator
    # takes them like any other squeeze
    code, text = run(["adiabaticity", "--preset", "fig6-mhz", "--temperature", "1"], tmp_path)
    assert code == EXIT_OK
    ps = [float(ln.split(",")[1]) for ln in text.strip().split("\n")[1:]]
    assert len(ps) == 8
    assert all(0.0 <= p <= 1.0 for p in ps)
    assert max(ps) <= _boundary_bound("fig6-mhz", 1.0)


RESONANT_GHZ = ["--omega-a", "1e9", "--omega-b", "1e9", "--coupling", "7539.8"]


@pytest.mark.parametrize("argv", [
    ["adiabaticity", "--preset", "fig6-mhz", "--temperature", "-1"],
    ["diagonalize", *RESONANT_GHZ, "--cutoff", "3"],
    ["diagonalize", *RESONANT_GHZ, "--cutoff", "1"],
    ["thermometer", "--gap", "0", "--t-hot", "1", "--coupling", "1", "--points", "3"],
    ["adiabaticity", "--gap", "0", "--coupling", "1", "--cycles", "2"],
    ["unruh", "--gap", "-1", "--coupling", "1", "--points", "3"],
    ["diagonalize", "--omega-a", "0", "--omega-b", "1e9", "--coupling", "7539.8"],
    ["thermometer", "--gap", "nan", "--t-hot", "1", "--coupling", "1", "--points", "3"],
    ["adiabaticity", "--gap", "1e9", "--coupling", "inf", "--cycles", "2"],
    ["diagonalize", "--diag-omega-a", "0", "--diag-omega-b", "1", "--diag-v", "0.1"],
    ["diagonalize", "--diag-omega-a", "nan", "--diag-omega-b", "1", "--diag-v", "0.1"],
    ["diagonalize", "--diag-omega-a", "10", "--diag-omega-b", "1", "--diag-v", "2"],
    ["diagonalize", "--diag-omega-a", "10", "--diag-omega-b", "1", "--diag-v", "0.1",
     "--omega-a", "5"],
    ["thermometer", "--preset", "fig3-ghz", "--t-hot", "nan", "--points", "3"],
    ["thermometer", "--preset", "fig3-ghz", "--t-cold-max", "inf", "--points", "3"],
    ["sensitivity", "--preset", "fig3-ghz", "--t-cold", "nan"],
    ["unruh", "--preset", "fig5-1", "--accel-max", "inf", "--points", "3"],
    ["adiabaticity", "--preset", "fig6-mhz", "--temperature", "inf", "--cycles", "2"],
    ["thermometer", "--preset", "fig3-ghz", "--t-hot", "0", "--t-cold-min", "1e-3",
     "--t-cold-max", "1e-2", "--points", "3"],
    ["sensitivity", "--preset", "fig3-ghz", "--t-cold", "-1", "--points", "3"],
    ["sensitivity", "--preset", "fig3-ghz", "--t-hot", "-1", "--points", "3"],
], ids=["negative-temperature", "cutoff-3", "cutoff-1",
        "thermometer-zero-gap", "adiabaticity-zero-gap", "unruh-negative-gap",
        "diagonalize-zero-omega-a", "thermometer-nan-gap", "adiabaticity-infinite-coupling",
        "diagonalize-forward-zero-omega-a", "diagonalize-forward-nan-omega-a",
        "diagonalize-forward-ratio-below-exp-2v", "diagonalize-both-triples",
        "thermometer-nan-t-hot", "thermometer-infinite-t-cold-max", "sensitivity-nan-t-cold",
        "unruh-infinite-accel-max", "adiabaticity-infinite-temperature",
        "thermometer-zero-t-hot", "sensitivity-negative-t-cold", "sensitivity-negative-t-hot"])
def test_values_the_numerics_cannot_take_are_config_errors(capsys, argv):
    # caught with the other config values, before any numerics run
    assert main(argv) == EXIT_CONFIG
    assert "need" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["certify", "diagonalize"])
def test_report_commands_take_no_format(capsys, command):
    # both always write a JSON report, so --format is not theirs to accept
    with pytest.raises(SystemExit) as exc:
        main([command, "--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_thermometer_rows_and_zero_at_equal_temperatures(tmp_path):
    code, text = run(["thermometer", "--preset", "fig3-ghz", "--points", "7"],
                     tmp_path)
    assert code == EXIT_OK
    lines = text.strip().split("\n")
    assert lines[0] == "T_cold_K,delta_rad,dDelta_dTcold_rad_per_K"
    assert len(lines) == 8  # header + requested sweep size
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(1.0)  # sweep ends at T_hot
    assert float(last[1]) == 0.0                 # T_c = T_h row vanishes


def test_thermometer_deterministic_bytes(tmp_path):
    args = ["thermometer", "--preset", "fig3-mhz", "--points", "9"]
    _, a = run(args, tmp_path, "a.csv")
    _, b = run(args, tmp_path, "b.csv")
    assert a == b
    assert "\r" not in a


def test_thermometer_golden_file(tmp_path):
    code, text = run(["thermometer", "--gap", "1e8", "--t-hot", "0.1",
                      "--coupling", "7539.822368615503", "--points", "12",
                      "--t-cold-min", "1e-4", "--t-cold-max", "0.1"], tmp_path)
    assert code == EXIT_OK
    assert text == (GOLDEN / "thermometer_fig3_100mhz_12pt.csv").read_text()


# every preset of each sweep at 25 points: 4 thermometer, 4 sensitivity and 3 unruh
PRESET_SWEEPS = [(command, preset) for command in ("thermometer", "sensitivity", "unruh")
                 for preset in PRESETS if preset.startswith(COMMANDS[command].family)]


@pytest.mark.parametrize("argv, name", [
    (["sensitivity", "--preset", "fig3-100mhz"], "sensitivity_fig3_100mhz.csv"),
    (["unruh", "--preset", "fig5-3", "--points", "12"], "unruh_fig5_3_12pt.csv"),
    *(([command, "--preset", preset, "--points", "25"],
       f"{command}_{preset.replace('-', '_')}_25pt.csv") for command, preset in PRESET_SWEEPS),
], ids=["sensitivity", "unruh", *(f"{command}-{preset}" for command, preset in PRESET_SWEEPS)])
def test_sweep_golden_files(tmp_path, argv, name):
    # byte for byte
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("argv", [
    ["thermometer", "--preset", "fig3-ghz", "--points", "9"],
    ["sensitivity", "--preset", "fig3-mhz", "--points", "9"],
    ["unruh", "--preset", "fig5-2", "--points", "2", "--accel-min", "5.3076e15"],
    ["adiabaticity", "--preset", "fig6-ghz", "--cycles", "3"],
], ids=["thermometer", "sensitivity", "unruh", "adiabaticity"])
def test_json_rows_equal_csv_rows(tmp_path, argv):
    # one row tuple feeds both formats: the same header, the same values, an
    # integer column an integer in both, and an infinite value null in JSON
    _, csv_text = run(argv, tmp_path, "rows.csv")
    code, json_text = run(argv + ["--format", "json"], tmp_path, "rows.json")
    assert code == EXIT_OK
    header, *lines = csv_text.strip().split("\n")
    objects = json.loads(json_text)
    assert len(objects) == len(lines) > 0
    for line, obj in zip(lines, objects):
        assert list(obj) == header.split(",")
        for text, value in zip(line.split(","), obj.values()):
            if value is None:
                assert text == "inf"
            else:
                assert type(value)(text) == value
                assert text == "%.17g" % value


def test_unruh_subnormal_phase_is_unbounded(tmp_path):
    # at 5.3076e15 m/s^2 the per-cycle phase is -8.55e-322, so pi/|delta|
    # overflows: never reaching pi is printed as inf, as for delta = -0
    code, text = run(["unruh", "--preset", "fig5-2", "--points", "2",
                      "--accel-min", "5.3076e15", "--accel-max", "1e18"], tmp_path)
    assert code == EXIT_OK
    first = dict(zip(*(line.split(",") for line in text.strip().split("\n")[:2])))
    assert 0.0 < -float(first["delta_per_cycle_rad"]) < 1e-300
    assert first["cycles_to_pi"] == first["time_to_pi_s"] == "inf"


def test_thermometer_golden_file_on_the_libm_grid(tmp_path):
    # the sweep grid is libm's 10.0 ** x; numpy's SIMD power on AVX-512 hosts
    # rounds the first point of this sweep to 9.9999999999999991e-06 instead
    code, text = run(["thermometer", "--preset", "fig3-10mhz", "--points", "12"], tmp_path)
    assert code == EXIT_OK
    assert text == (GOLDEN / "thermometer_fig3_10mhz_12pt.csv").read_text()


@pytest.mark.parametrize("start, stop", [
    (-6.0, -3.0), (-5.0, -2.0), (-4.0, -1.0), (-3.0, 0.0), (16.0, 18.0), (-0.5, 0.5),
    (-1e-320, 1e-320),  # a step that underflows to zero at 20000 points
], ids=str)
def test_linspace_equals_numpy_bit_for_bit(start, stop):
    for num in [*range(2, 301), 20000]:
        got = np.array(linspace(start, stop, num)).view(np.uint64)
        assert np.array_equal(got, np.linspace(start, stop, num).view(np.uint64)), num


def test_json_format_output(tmp_path):
    code, text = run(["thermometer", "--preset", "fig3-ghz", "--points", "3",
                      "--format", "json"], tmp_path, "out.json")
    assert code == EXIT_OK
    rows = json.loads(text)
    assert len(rows) == 3 and "delta_rad" in rows[0]


def _strict_json(text: str):
    """``text`` parsed as RFC 8259 JSON, which has no NaN, Infinity or -Infinity."""
    def refuse(name):
        raise AssertionError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_json_output_is_strict_json(tmp_path, monkeypatch, certify_reports):
    # an unbounded cycles_to_pi: null in the JSON rows where the CSV prints inf
    argv = ["unruh", "--preset", "fig5-1", "--accel-min", "1e10", "--accel-max", "1e11",
            "--points", "3"]
    code, text = run(argv + ["--format", "json"], tmp_path, "u.json")
    assert code == EXIT_OK
    rows = _strict_json(text)
    _, csv = run(argv, tmp_path)
    header, *lines = csv.strip().split("\n")
    assert len(rows) == len(lines) == 3
    for row, line in zip(rows, lines):
        assert [row[key] is None for key in header.split(",")] == \
            [value == "inf" for value in line.split(",")]
    assert all(row["cycles_to_pi"] is None for row in rows)
    # certify's reports as main writes them, and one with a loop cell refused
    # as the oracle refuses it, its difference NaN
    import berrytherm.cli as cli_mod

    refused = copy.deepcopy(certify_reports[0])
    refused["loop_cells"][0].update(cutoff=None, detector_cutoff=None, difference_rad=math.nan,
                                    passed=False)
    for report in (*certify_reports, refused):
        monkeypatch.setattr(cli_mod, "certification_report", lambda **kw: report)
        run(["certify"], tmp_path, "c.json")
        written = _strict_json((tmp_path / "c.json").read_text())
        assert written["checks"] == report["checks"]
        assert len(written["loop_cells"]) == len(report["loop_cells"])
    assert written["loop_cells"][0]["difference_rad"] is None
    assert math.isnan(refused["loop_cells"][0]["difference_rad"])  # the report is unchanged


def test_sensitivity_monotone_and_row_count(tmp_path):
    code, text = run(["sensitivity", "--preset", "fig3-100mhz", "--points", "21"],
                     tmp_path)
    assert code == EXIT_OK
    lines = text.strip().split("\n")[1:]
    assert len(lines) == 21
    errs = [tuple(map(float, ln.split(","))) for ln in lines]
    zero_row = [e for e in errs if e[0] == 0.0]
    assert zero_row and zero_row[0][1] == 0.0
    mags = [abs(e[1]) for e in errs]
    mid = len(mags) // 2
    assert all(a >= b - 1e-15 for a, b in zip(mags[:mid], mags[1:mid + 1]))
    assert all(b >= a - 1e-15 for a, b in zip(mags[mid:], mags[mid + 1:]))


def test_unruh_columns_and_time_arithmetic(tmp_path):
    code, text = run(["unruh", "--preset", "fig5-3", "--points", "5",
                      "--accel-min", "1e16", "--accel-max", "1e18"], tmp_path)
    assert code == EXIT_OK
    lines = text.strip().split("\n")
    assert lines[0] == ("accel_m_s2,T_unruh_K,q,delta_per_cycle_rad,"
                        "cycles_to_pi,time_to_pi_s")
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 5
    # time_to_pi = cycles_to_pi * (2 pi / Omega_a) = cycles * pi ns at 2e9 rad/s
    for r in rows:
        if math.isfinite(r[4]):
            assert r[5] == pytest.approx(r[4] * math.pi * 1e-9, rel=1e-12)
    # left end: tiny per-cycle phase, astronomically many cycles
    assert abs(rows[0][3]) < 1e-30
    assert rows[0][4] > 1e10


def test_unruh_preset_coupling_value():
    assert PRESETS["fig5-3"]["coupling"] == pytest.approx(2 * math.pi * 250.0)
    assert PRESETS["fig5-1"]["coupling"] == pytest.approx(2 * math.pi * 34.0)
    assert PRESETS["fig3-ghz"]["gap"] == 1e9
    assert PRESETS["fig3-ghz"]["t_hot"] == 1.0


def test_adiabaticity_ghz_preset(tmp_path):
    code, text = run(["adiabaticity", "--preset", "fig6-ghz", "--cycles", "4"],
                     tmp_path)
    assert code == EXIT_OK
    lines = text.strip().split("\n")
    assert lines[0] == "cycle_index,P_excitation"
    assert len(lines) == 5
    for i, ln in enumerate(lines[1:], start=1):
        idx, p = ln.split(",")
        assert int(idx) == i
        assert float(p) < 1e-9


def test_adiabaticity_zero_coupling_all_zero(tmp_path):
    code, text = run(["adiabaticity", "--gap", "1e9", "--coupling", "0",
                      "--temperature", "0", "--cycles", "3"], tmp_path)
    assert code == EXIT_OK
    ps = [float(ln.split(",")[1]) for ln in text.strip().split("\n")[1:]]
    assert ps == [0.0, 0.0, 0.0]


def test_adiabaticity_zero_coupling_thermal_all_zero(tmp_path, monkeypatch):
    # the covariance propagator never reaches the Fock window's detector, and at
    # zero coupling nothing drives the detector's covariance: every P is exactly 0
    def never(*args):
        raise AssertionError("the thermal path evaluated the Fock window's detector")

    monkeypatch.setattr(oracle, "_detector_cycles", never)
    code, text = run(["adiabaticity", "--gap", "1e6", "--coupling", "0",
                      "--temperature", "1e-3", "--cycles", "3"], tmp_path)
    assert code == EXIT_OK
    ps = [float(ln.split(",")[1]) for ln in text.strip().split("\n")[1:]]
    assert ps == [0.0, 0.0, 0.0]


def test_adiabaticity_ghz_preset_long_run(tmp_path):
    # 10 000 cycles, from doubling powers of the one-cycle block: no row comes near 1e-9
    code, text = run(["adiabaticity", "--preset", "fig6-ghz", "--cycles", "10000"], tmp_path)
    assert code == EXIT_OK
    ps = [float(ln.split(",")[1]) for ln in text.strip().split("\n")[1:]]
    assert len(ps) == 10000
    assert max(ps) < 1e-9


def test_adiabaticity_mhz_preset_default_cycles(tmp_path):
    # 8 cycles by default.  On resonance the excitation is 0 at every cycle
    # boundary, so each row is rounding: at least 0 and at most 1e-14 of the
    # in-cycle peak, 5.47e-2
    code, text = run(["adiabaticity", "--preset", "fig6-mhz"], tmp_path)
    assert code == EXIT_OK
    ps = [float(ln.split(",")[1]) for ln in text.strip().split("\n")[1:]]
    assert len(ps) == 8
    assert all(0.0 <= p <= _boundary_bound("fig6-mhz", 1e-3) for p in ps)


def test_adiabaticity_mhz_preset_thousand_cycles(tmp_path):
    # the Gauss-Hermite mixture refused this run, unconverged at 320 nodes; the
    # covariance propagator keeps every boundary at its rounding bound
    code, text = run(["adiabaticity", "--preset", "fig6-mhz", "--cycles", "1000"], tmp_path)
    assert code == EXIT_OK
    ps = [float(ln.split(",")[1]) for ln in text.strip().split("\n")[1:]]
    assert len(ps) == 1000
    assert all(0.0 <= p <= _boundary_bound("fig6-mhz", 1e-3) for p in ps)


def test_diagonalize_json_report(tmp_path):
    code, text = run(["diagonalize", "--omega-a", "2e9", "--omega-b", "2e9",
                      "--coupling", "213.6", "--cutoff", "16"], tmp_path, "d.json")
    assert code == EXIT_OK
    rep = json.loads(text)
    assert rep["mode"] == "inverse"
    assert rep["round_trip_residual"] < 1e-10
    assert rep["derived"]["g4_abs"] < 1e-10
    assert all(v < 1e-6 for v in rep["eigenstate_residuals_over_Omega_a"].values())
    assert rep["vacuum_overlap_deviation"] < 1e-6


def test_diagonalize_forward_report(tmp_path):
    # forward mode builds the laboratory triple from dp: it has no round trip
    code, text = run(["diagonalize", "--diag-omega-a", repr(math.e ** 0.5), "--diag-omega-b", "1",
                      "--diag-v", "0.1"], tmp_path, "d.json")
    assert code == EXIT_OK
    rep = json.loads(text)
    assert rep["mode"] == "forward"
    assert "round_trip_residual" not in rep
    assert rep["physical_params"]["Omega_a"] == pytest.approx(math.exp(0.2))  # omega_b e^(2v)


@pytest.mark.parametrize("dp", [
    DiagParams(ratio, 1.0, v) for v in CERT_GRID_V for ratio in CERT_GRID_RATIO
    if ratio > math.exp(2 * v)], ids=lambda dp: f"v{dp.v}-ratio{dp.omega_a:.4g}")
def test_diagonalize_round_trips_on_the_certify_loop_grid(tmp_path, dp):
    # the loop oracle certifies these sets at lam/Omega_a 0.39 to 1.38, so the
    # inverse map must accept their laboratory triples.  Run at cutoff 24, where
    # each leaves an eigenstate tail past the gate: the sized default takes 29 to 107 levels
    pp = forward_map(dp)
    with pytest.warns(TruncationWarning):
        code, text = run(["diagonalize", "--omega-a", repr(pp.Omega_a), "--omega-b",
                          repr(pp.Omega_b), "--coupling", repr(pp.lam), "--cutoff", "24"],
                         tmp_path, "d.json")
    assert code == EXIT_OK
    assert json.loads(text)["round_trip_residual"] <= 1e-10


def test_diagonalize_sizes_its_default_cutoff(tmp_path):
    # lam/Omega_a = 0.49: at the old fixed cutoff 24 the worst residual was 0.11
    # with a warning; the default is the least cutoff n >= 24 at which every
    # eigenstate's exact top-two-level tail is at most the gate
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        code, text = run(["diagonalize", "--omega-a", "1", "--omega-b", "1",
                          "--coupling", "0.49"], tmp_path, "d.json")
    assert code == EXIT_OK
    rep = json.loads(text)
    assert max(rep["eigenstate_residuals_over_Omega_a"].values()) <= 1e-10
    n = rep["cutoff"]
    assert max(rep["eigenstate_truncation_tails"].values()) <= DIAG_TAIL_GATE
    with pytest.warns(TruncationWarning, match=f"cutoff {n - 1}"):
        code, text = run(["diagonalize", "--omega-a", "1", "--omega-b", "1",
                          "--coupling", "0.49", "--cutoff", str(n - 1)], tmp_path, "d.json")
    assert max(json.loads(text)["eigenstate_truncation_tails"].values()) > DIAG_TAIL_GATE
    # an explicit cutoff keeps its meaning
    code, text = run(["diagonalize", *RESONANT_GHZ, "--cutoff", "30"], tmp_path, "d.json")
    assert json.loads(text)["cutoff"] == 30


@pytest.mark.parametrize("pp, size", [
    *(pytest.param(forward_map(DiagParams(ratio, 1.0, v)), size, id=f"v{v}-ratio{ratio:.4g}")
      for (v, ratio), size in zip([(v, ratio) for v in CERT_GRID_V for ratio in CERT_GRID_RATIO
                                   if ratio > math.exp(2 * v)], (29, 31, 32, 40, 54, 56, 91, 107))),
    *(pytest.param(PhysicalParams(1.0, 1.0, lam), size, id=f"resonant-lam{lam}")
      for lam, size in zip((0.3, 0.4, 0.45, 0.49, 0.495, 0.498), (30, 44, 62, 130, 179, 276)))])
def test_diagonalize_sized_default_keeps_the_residuals_small(tmp_path, pp, size):
    # the certify loop grid and the resonant approach to the bound, each at its
    # pinned sized cutoff; 62 levels, too few at (v 0.6, ratio e^2), read a
    # residual of 8.3e-9 there
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        code, text = run(["diagonalize", "--omega-a", repr(pp.Omega_a), "--omega-b",
                          repr(pp.Omega_b), "--coupling", repr(pp.lam)], tmp_path, "d.json")
    assert code == EXIT_OK
    rep = json.loads(text)
    assert rep["cutoff"] == size
    assert max(rep["eigenstate_residuals_over_Omega_a"].values()) <= 2e-12
    assert max(rep["eigenstate_truncation_tails"].values()) <= DIAG_TAIL_GATE


def test_diagonalize_sizing_scans_each_cutoff_once(monkeypatch):
    # a doubling build scans only the cutoffs above the last build's size: at
    # lam/Omega_a = 0.498 that is 253 strip sums for 276 levels, where a rescan
    # from 24 at every build would make 521
    scans = []
    tails = fockspace.mode_tails
    monkeypatch.setattr(fockspace, "mode_tails", lambda w: scans.append(1) or tails(w))
    dp = diagonalization.invert_physical(PhysicalParams(1.0, 1.0, 0.498)).params
    assert len(reports._diag_eigenstates(dp, ((0, 0), (1, 0), (0, 1)), None)) == 276
    assert len(scans) == 253


def test_diagonalize_keeps_every_preset_at_one_build_of_24_levels(monkeypatch):
    # the benchmark's diagonalize processes run the preset triples: sizing must
    # not add a build there
    calls = []
    for name in ("eigenstates", "hamiltonian_action"):
        def counted(*args, _f=getattr(fockspace, name), _name=name):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(fockspace, name, counted)
    for p in PRESETS.values():
        calls.clear()
        rep = cli.cmd_diagonalize({"omega_a": p["gap"], "omega_b": p["gap"],
                                   "coupling": p["coupling"]})
        assert rep["cutoff"] == 24
        assert sorted(calls) == ["eigenstates", "hamiltonian_action"]


def test_diagonalize_sizing_crops_the_build_that_fits(monkeypatch):
    # lam/Omega_a = 0.498 fits first at the 320-level build and is sized to 276
    # levels: the 320-level build is cropped and renormalized, not rebuilt, and
    # the crop is the 276-level build's columns to rounding
    sizes = []
    build = fockspace.eigenstates
    monkeypatch.setattr(fockspace, "eigenstates",
                        lambda dps, occ, dims: sizes.append(dims.n_field) or build(dps, occ, dims))
    dp = diagonalization.invert_physical(PhysicalParams(1.0, 1.0, 0.498)).params
    occupations = ((0, 0), (1, 0), (0, 1))
    psis = reports._diag_eigenstates(dp, occupations, None)
    assert sizes == [24, 48, 96, 192, 320]
    assert psis.shape == (276, 276, 3)
    np.testing.assert_allclose(psis, build([dp] * 3, occupations, fockspace.FockDims(276, 276)),
                               rtol=0, atol=1e-15)


def test_diagonalize_refuses_a_default_cutoff_past_its_cap(capsys):
    # lam/Omega_a = 0.4999 would need more than DIAG_CUTOFF_CAP levels per mode;
    # at 0.49999 the builds at 24 and 48 levels lose over half a column's norm
    for coupling in ("0.4999", "0.49999"):
        assert main(["diagonalize", "--omega-a", "1", "--omega-b", "1",
                     "--coupling", coupling]) == EXIT_CONFIG
        assert "need --cutoff" in capsys.readouterr().err


def test_diagonalize_zero_coupling_flagged(tmp_path):
    code, text = run(["diagonalize", "--omega-a", "2e9", "--omega-b", "3e9",
                      "--coupling", "0"], tmp_path, "d.json")
    assert code == EXIT_OK
    rep = json.loads(text)
    assert rep["degenerate_boundary"] is True
    assert rep["diag_params"]["v"] == 0.0


def test_unruh_deterministic_bytes_and_rows_in_order(tmp_path):
    from berrytherm.diagonalization import PhysicalParams
    from berrytherm.geomphase import delta_per_cycle_from_eps, epsilon, unruh_squeeze

    args = ["unruh", "--preset", "fig5-3", "--points", "7"]
    code, a = run(args, tmp_path, "a.csv")
    _, b = run(args, tmp_path, "b.csv")
    assert code == EXIT_OK
    assert a == b
    p = PRESETS["fig5-3"]
    eps = epsilon(PhysicalParams(p["gap"], p["gap"], p["coupling"]))
    rows = [list(map(float, ln.split(","))) for ln in a.strip().split("\n")[1:]]
    accels = [10.0 ** x for x in np.linspace(16.0, 18.0, 7)]
    assert [r[0] for r in rows] == accels
    for r, acc in zip(rows, accels):
        q = unruh_squeeze(p["gap"], acc).r
        assert r[2] == q
        assert r[3] == delta_per_cycle_from_eps(eps, q)


@pytest.mark.parametrize("preset", ["fig3-mhz", "fig3-ghz"])
def test_thermometer_and_sensitivity_rows_are_the_checked_functions_bit_for_bit(preset):
    # the row kernel takes sin, cos 2 pi eps and hbar w once per sweep, but each row is
    # what the single-value functions that certify checks return
    from berrytherm.geomphase import (epsilon, thermometer_delta_from_eps,
                                      thermometer_slope_from_eps)

    p = PRESETS[preset]
    eps = epsilon(PhysicalParams(p["gap"], p["gap"], p["coupling"]))
    rows, _ = cli.cmd_thermometer({**p, "points": 50})
    assert rows == [(tc, thermometer_delta_from_eps(eps, p["gap"], tc, p["t_hot"]),
                     abs(thermometer_slope_from_eps(eps, p["gap"], tc))) for tc, *_ in rows]
    t_cold = p["t_hot"] / 1000.0
    ref = thermometer_delta_from_eps(eps, p["gap"], t_cold, p["t_hot"])
    rows, _ = cli.cmd_sensitivity({**p, "points": 51})
    assert rows == [(e, (thermometer_delta_from_eps(eps, p["gap"], t_cold, p["t_hot"] * (1.0 + e))
                         - ref) / ref) for e, _ in rows]


def test_sweeps_never_call_the_inverse_map(tmp_path, monkeypatch):
    # the sweep formulas take epsilon straight from the laboratory triple
    from berrytherm import cli, diagonalization

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep called the inverse map")

    monkeypatch.setattr(diagonalization, "invert_physical", refuse)
    assert not hasattr(cli, "invert_physical")  # only the report commands bind it
    for argv in (["thermometer", "--preset", "fig3-ghz", "--points", "5"],
                 ["sensitivity", "--preset", "fig3-mhz", "--points", "5"],
                 ["unruh", "--preset", "fig5-1", "--points", "5"]):
        code, text = run(argv, tmp_path)
        assert code == EXIT_OK, argv
        assert len(text.strip().split("\n")) == 6


def test_thermometer_200_point_sweep_under_five_seconds(tmp_path):
    import time

    t0 = time.perf_counter()
    code, text = run(["thermometer", "--preset", "fig3-ghz", "--points", "200"],
                     tmp_path)
    elapsed = time.perf_counter() - t0
    assert code == EXIT_OK
    assert len(text.strip().split("\n")) == 201
    assert elapsed < 5.0


def test_certify_failure_exit_code(tmp_path, monkeypatch, capsys):
    # exit-code plumbing; the real negative-control failure is exercised by
    # the acceptance suite
    import berrytherm.cli as cli_mod

    monkeypatch.setattr(cli_mod, "certification_report",
                        lambda **kw: {"passed": False, "checks": [], "loop_cells": []})
    out = tmp_path / "r.json"
    code = main(["certify", "--out", str(out)])
    assert code == 4
    assert json.loads(out.read_text())["passed"] is False
    assert "FAILED" in capsys.readouterr().err


def _shifted_phase(exact, dp, n_f, n_d):
    phase = exact(dp, n_f, n_d)
    return phase._replace(value=phase.value + 1e-10, raw=phase.raw + 1e-10)


def _u_off(exact, pp):
    u, *rest = exact(pp)
    return (u * (1 + 1e-9), *rest)


def _weights_scaled(exact, r, n_max):
    w, tail = exact(r, n_max)
    return w * (1 + 1e-9), tail


# One planted fault for each certify check, in the report's order: the row
# (module, name, fault, also) replaces module.name by fault(exact, *args), and
# ``also`` names the checks besides its own that the fault fails.  Each comment
# gives the residual the check reads under the fault.
PLANTED_FAULTS = {
    # U' built at v(1 + 1e-6): 1.9e-6.  dp_ref carries no u_hint, so the changed
    # v passes validation and only the eigenstates move; the loop grid uses them
    # as selection targets alone
    "eigenstate_interior_residual": (
        fockspace, "_heisenberg_map", lambda exact, dp: exact(dp._replace(v=dp.v * (1 + 1e-6))),
        ()),
    # g6 off by 1e-9 relative: 1.0e-9
    "coupling_coefficients_equal": (
        reports, "derive_params",
        lambda exact, dp: exact(dp)._replace(g6=exact(dp).g6 * (1 + 1e-9)),
        ()),
    # the normal-mode epsilon off by 1e-9 relative: 2.6e-9
    "phase_spacing_2piG": (reports, "epsilon", lambda exact, pp: exact(pp) * (1 + 1e-9), ()),
    # normal_modes' u off by 1e-9 relative: 2.8e-9.  invert_physical refuses each
    # triple it moves past its 1e-10 gate, and the check records the refusal's
    # residual
    "map_round_trip": (diagonalization, "normal_modes", _u_off, ()),
    # every closed-form eigenstate phase moved by 1e-10 rad, 10x the loop
    # tolerance: 1.0e-10.  The spacing check, a difference of two shifted
    # phases, is blind to the shift
    "loop_vs_closed_form_grid": (reports, "eigen_berry_phase", _shifted_phase, ()),
    # the mixed-phase offset moved by 1e-9 rad: 1.0e-9.  The fig5 per-cycle
    # differences, -offset, are below 1e-43 and tie once shifted
    "mixed_phase_partial_sum": (
        geomphase, "mixed_phase_offset", lambda exact, *args: exact(*args) + 1e-9,
        ("delta_monotone_in_acceleration",)),
    # the thermometer reading moved by 1e-10 rad: 1.0e-10
    "thermometer_equals_mixed_difference": (
        reports, "thermometer_delta_from_eps", lambda exact, *args: exact(*args) + 1e-10, ()),
    # arctanh(e^-y) off by 1e-9 relative: 2.9e-9, and 2.1e-10 on the
    # thermometer identity, whose two sides take r through different paths
    "unruh_thermal_squeeze_identity": (
        thermo, "arctanh_exp", lambda exact, y: exact(y) * (1 + 1e-9),
        ("thermometer_equals_mixed_difference",)),
    # the per-cycle difference with its sign flipped rises with the acceleration
    "delta_monotone_in_acceleration": (
        geomphase, "delta_per_cycle_from_eps", lambda exact, *args: -exact(*args), ()),
    # the thermal weights scaled by 1 + 1e-9: 1.1e-9.  The partial-sum check
    # cannot see this fault, because Arg ignores a common scale
    "planck_occupation": (oracle, "thermal_weights", _weights_scaled, ()),
}


def _certify_with_fault(monkeypatch, name: str) -> dict:
    """The certification report with the planted fault of the check ``name``."""
    module, attr, fault, _ = PLANTED_FAULTS[name]
    exact = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *args: fault(exact, *args))
    return certification_report()


def test_planted_faults_cover_every_check(certify_reports):
    assert list(PLANTED_FAULTS) == [c["name"] for c in certify_reports[0]["checks"]]


@pytest.mark.parametrize("name", PLANTED_FAULTS)
def test_certify_check_fails_on_its_planted_fault(monkeypatch, name):
    *_, also = PLANTED_FAULTS[name]
    report = _certify_with_fault(monkeypatch, name)
    failing = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failing == {name, *also}
    assert report["passed"] is False


def test_certify_fails_on_eigenstates_built_at_a_wrong_squeeze(monkeypatch):
    report = _certify_with_fault(monkeypatch, "eigenstate_interior_residual")
    check = next(c for c in report["checks"] if c["name"] == "eigenstate_interior_residual")
    assert check["residual"] > 1e-7


def test_certify_arctanh_fault_reaches_the_accelerated_squeeze(monkeypatch):
    # the unruh row kernel reads thermo.arctanh_exp at each call, so the fault moves both
    # squeezes and the tanh inversion reads 2.9e-9; a kernel that bound the name at
    # import would keep the accelerated squeeze exact, and the check would read 1.5e-9
    report = _certify_with_fault(monkeypatch, "unruh_thermal_squeeze_identity")
    check = next(c for c in report["checks"] if c["name"] == "unruh_thermal_squeeze_identity")
    assert check["residual"] > 2e-9


def test_certify_fails_on_a_refused_round_trip(monkeypatch, tmp_path):
    # a refusal inside the report is a failed check: exit 4, not 3
    report = _certify_with_fault(monkeypatch, "map_round_trip")
    check = next(c for c in report["checks"] if c["name"] == "map_round_trip")
    assert check["residual"] > 1e-9
    assert main(["certify", "--out", str(tmp_path / "r.json")]) == EXIT_CERTIFICATION


def test_certify_fails_on_closed_forms_shifted_by_1e_10(monkeypatch):
    # the loop oracle's phase is exact for its eigenvector, so each of the 32
    # cells reads ~1e-10 and fails 1e-11
    report = _certify_with_fault(monkeypatch, "loop_vs_closed_form_grid")
    cells = [c for c in report["loop_cells"] if "occupation" in c]
    assert len(cells) == 32
    assert not any(c["passed"] for c in cells)
    assert min(c["difference_rad"] for c in cells) > 5e-11


def test_certify_loop_residual_is_infinite_when_every_cell_refuses(monkeypatch, tmp_path):
    # x_d and x_f scaled by 1 + 1e-9 in H: no eigenpair of the grid converges,
    # so all 32 cells refuse.  With no difference measured, the residual must not
    # read below the tolerance: it is infinite, written as null in JSON
    position = fockspace._position
    monkeypatch.setattr(fockspace, "_position", lambda n: position(n) * (1 + 1e-9))
    report = certification_report()
    cells = [c for c in report["loop_cells"] if "occupation" in c]
    assert len(cells) == 32 and all("refused" in c for c in cells)
    check = next(c for c in report["checks"] if c["name"] == "loop_vs_closed_form_grid")
    assert check["passed"] is False
    assert not check["residual"] < check["tolerance"]
    assert main(["certify", "--out", str(tmp_path / "r.json")]) == EXIT_CERTIFICATION
    written = json.loads((tmp_path / "r.json").read_text())
    assert next(c for c in written["checks"]
                if c["name"] == "loop_vs_closed_form_grid")["residual"] is None


def _rejected_as_flag_and_config_key(tmp_path, capsys, argv, key, value):
    """argparse rejects ``--key value`` (exit 2), and a config file line
    ``key = value`` is an unknown-key config error."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--" + key.replace("_", "-"), value])
    assert exc.value.code == 2
    capsys.readouterr()
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{key} = {value}\n")
    assert main(argv + ["--config", str(cfg)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("loop_points", "256"), ("cutoff", "100")])
def test_certify_calibration_is_not_settable(tmp_path, capsys, key, value):
    # the loop-grid verdict holds only at its calibrated cutoff ladder and
    # truncation gate, and the loop oracle takes no loop points: neither a flag
    # nor a config key may set any of them
    _rejected_as_flag_and_config_key(tmp_path, capsys, ["certify"], key, value)


def test_adiabaticity_takes_no_step_count(tmp_path, capsys):
    # the adiabaticity oracle propagates each cycle exactly: there are no steps to set
    _rejected_as_flag_and_config_key(
        tmp_path, capsys, ["adiabaticity", "--preset", "fig6-mhz"], "steps_per_cycle", "600")


def test_flags_and_config_keys_agree(tmp_path):
    # every subcommand accepts the same keys as flags and in a config file
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(COMMANDS)
    sample = {float: "1.5", int: "3", str: "fig"}
    for name, p in sub.choices.items():
        dests = {a.dest for a in p._actions} - {"help", "config", "out"}
        # --format selects how a sweep writes its rows, and only sweeps take it
        assert ("format" in dests) == (name not in ("diagonalize", "certify")), name
        assert dests - {"format"} == set(COMMANDS[name].options), name
        for key in COMMANDS[name].options:
            # a store_true flag takes no value; its config value is "yes"
            value = sample.get(next(a for a in p._actions if a.dest == key).type)
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(f"{key} = {value or 'yes'}\n")
            flag = ["--" + key.replace("_", "-")] + ([value] if value else [])
            from_flag = _merge_config(parser.parse_args([name, *flag]))
            from_file = _merge_config(parser.parse_args([name, "--config", str(cfg)]))
            assert from_flag == from_file and set(from_flag) == {key}, (name, key)


# cells that certify above the first rung of the cutoff ladder, keyed by
# (v, ln ratio, occupation); the other 18 grid cells certify at cutoff 30
CERT_ESCALATED = {
    (0.3, 2, (0, 1)): 44, (0.3, 2, (1, 1)): 44, (0.3, 3, (0, 0)): 44, (0.3, 3, (1, 0)): 44,
    (0.3, 3, (0, 1)): 44, (0.3, 3, (1, 1)): 44,
    (0.6, 2, (0, 0)): 60, (0.6, 2, (1, 0)): 60, (0.6, 2, (0, 1)): 60, (0.6, 2, (1, 1)): 60,
    (0.6, 3, (0, 0)): 60, (0.6, 3, (1, 0)): 60, (0.6, 3, (0, 1)): 78, (0.6, 3, (1, 1)): 78,
}
# each mode is sized on its own cutoffs: only these cells raise the detector
CERT_DETECTOR_ESCALATED = {
    (0.6, 2, (0, 0)): 44, (0.6, 2, (1, 0)): 44, (0.6, 2, (0, 1)): 44, (0.6, 2, (1, 1)): 44,
}


def test_certify_cutoff_escalation_pinned(certify_reports):
    for report in certify_reports:
        cells = [c for c in report["loop_cells"] if "occupation" in c]
        assert len(cells) == 32
        got = {(c["v"], round(math.log(c["ratio"])), tuple(c["occupation"])): c["cutoff"]
               for c in cells}
        assert len(got) == 32
        assert got == {key: CERT_ESCALATED.get(key, 30) for key in got}
        counts = [sum(1 for c in got.values() if c == cutoff) for cutoff in (30, 44, 60, 78)]
        assert counts == [18, 6, 6, 2]
        detector = {(c["v"], round(math.log(c["ratio"])), tuple(c["occupation"])):
                    c["detector_cutoff"] for c in cells}
        assert detector == {key: CERT_DETECTOR_ESCALATED.get(key, 30) for key in got}


# --------------------------------------------------------------------------
# scipy is a test-only reference: no command, and no package module, loads it
# --------------------------------------------------------------------------

SRC = Path(berrytherm.__file__).resolve().parent

SCIPY_PROBE = """
import json, sys
import berrytherm
from berrytherm import cli, oracle
from berrytherm.diagonalization import PhysicalParams

def loaded():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

def resonant(preset):
    p = cli.PRESETS[preset]
    return ["diagonalize", "--omega-a", repr(p["gap"]), "--omega-b", repr(p["gap"]),
            "--coupling", repr(p["coupling"])]

for argv in (["thermometer", "--preset", "fig3-ghz"], ["sensitivity", "--preset", "fig3-mhz"],
             ["unruh", "--preset", "fig5-1"]):
    assert cli.main(argv + ["--out", sys.argv[1]]) == 0, argv
closed_form = loaded()
for argv in (["adiabaticity", "--preset", "fig6-ghz"], ["adiabaticity", "--preset", "fig6-mhz"]):
    assert cli.main(argv + ["--out", sys.argv[1]]) == 0, argv
mhz = cli.PRESETS["fig6-mhz"]
oracle.excitation_probability_per_cycle(PhysicalParams(mhz["gap"], mhz["gap"], mhz["coupling"]),
                                        8, oracle.EvolutionSpec(), 1808)
adiabaticity = loaded()
for argv in (resonant("fig3-ghz"), resonant("fig5-1")):
    assert cli.main(argv + ["--out", sys.argv[1]]) == 0, argv
diagonalize = loaded()
assert cli.certification_report()["passed"]
certify = loaded()
import scipy.sparse
print(json.dumps({"closed_form": closed_form, "adiabaticity": adiabaticity,
                  "diagonalize": diagonalize, "certify": certify,
                  "after_import": loaded()}))
"""


def _run_probe(probe: str, tmp_path) -> dict:
    """The JSON a probe prints, run in a fresh interpreter on this source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "out.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_closed_form_commands_import_no_scipy(tmp_path):
    loaded = _run_probe(SCIPY_PROBE, tmp_path)
    assert loaded["closed_form"] == []
    assert loaded["adiabaticity"] == []
    assert loaded["diagonalize"] == []
    assert loaded["certify"] == []
    # positive control: the same probe sees scipy once it is imported
    assert "scipy.sparse" in loaded["after_import"]


# numpy is loaded by the commands that use arrays, and only by them

NUMPY_PROBE = """
import sys
import berrytherm, berrytherm.cli
from berrytherm import cli

def loaded():
    return sorted(m for m in sys.modules if m.startswith("numpy"))

def stdlib():
    return sorted(m for m in ("dataclasses", "inspect", "json") if m in sys.modules)

def reports():
    return "berrytherm.reports" in sys.modules

layers = sorted(m for m in sys.modules if m.startswith("berrytherm."))
after_import, reports_after_import = loaded(), reports()
for argv in (["thermometer", "--preset", "fig3-ghz"], ["sensitivity", "--preset", "fig3-mhz"],
             ["unruh", "--preset", "fig5-1"]):
    assert cli.main(argv + ["--out", sys.argv[1]]) == 0, argv
closed_form, closed_form_stdlib, closed_form_reports = loaded(), stdlib(), reports()
p = cli.PRESETS["fig3-ghz"]
assert cli.main(["diagonalize", "--omega-a", repr(p["gap"]), "--omega-b", repr(p["gap"]),
                 "--coupling", repr(p["coupling"]), "--out", sys.argv[1]]) == 0
diagonalize, diagonalize_stdlib, diagonalize_reports = loaded(), stdlib(), reports()
import json
print(json.dumps({"layers": layers, "after_import": after_import, "closed_form": closed_form,
                  "closed_form_stdlib": closed_form_stdlib, "diagonalize": diagonalize,
                  "diagonalize_stdlib": diagonalize_stdlib,
                  "reports": [reports_after_import, closed_form_reports, diagonalize_reports]}))
"""


def test_closed_form_commands_import_no_numpy(tmp_path):
    loaded = _run_probe(NUMPY_PROBE, tmp_path)
    # every layer is registered on import, the array layers lazily
    assert loaded["layers"] == [f"berrytherm.{m}" for m in
                                ("cli", "diagonalization", "fockspace", "geomphase", "oracle",
                                 "thermo")]
    assert loaded["after_import"] == []
    assert loaded["closed_form"] == []
    # the CSV sweeps' value types are NamedTuples, and json is loaded only to write JSON
    assert loaded["closed_form_stdlib"] == []
    # positive control: diagonalize loads numpy, and the same probe sees it
    assert "numpy" in loaded["diagonalize"]
    assert "json" in loaded["diagonalize_stdlib"]
    # the report commands' code is not even compiled for a sweep: absent after the
    # import and after the three sweeps, present once diagonalize has run
    assert loaded["reports"] == [False, False, True]


def test_report_commands_run_as_a_module_import_no_second_cli(tmp_path):
    # under ``python -m berrytherm.cli`` the report module imports the running cli,
    # so a config error it raises is the one main catches: exit 2, not 3
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "berrytherm.cli", "diagonalize", *RESONANT_GHZ,
                           "--cutoff", "3"], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (EXIT_CONFIG, "config error: need cutoff >= 4\n")


def _scipy_imports(source: str) -> list[int]:
    """Line numbers of every scipy import in ``source``: at module level,
    under a try, or inside a function body."""
    def is_scipy(name):
        return name == "scipy" or name.startswith("scipy.")

    return [node.lineno for node in ast.walk(ast.parse(source))
            if (isinstance(node, ast.Import) and any(is_scipy(a.name) for a in node.names))
            or (isinstance(node, ast.ImportFrom) and node.level == 0 and is_scipy(node.module))]


def test_module_top_levels_import_no_scipy():
    # no package module imports scipy anywhere, not only when it is imported
    sample = ("import scipy.sparse as sp\n"
              "try:\n    from scipy.linalg import eigh\nexcept ImportError:\n    pass\n"
              "def f():\n    import scipy\n")
    assert _scipy_imports(sample) == [1, 3, 7]
    files = sorted(SRC.glob("*.py"))
    assert {"cli.py", "diagonalization.py", "fockspace.py", "oracle.py"} <= {f.name for f in files}
    offenders = {f.name: lines for f in files
                 if (lines := _scipy_imports(f.read_text(encoding="utf-8")))}
    assert offenders == {}


def _imports(source: str) -> list[tuple[str, str]]:
    """(enclosing top-level function or "<module>", module) of every absolute
    import in ``source``."""
    found = []
    for top in ast.parse(source).body:
        where = top.name if isinstance(top, ast.FunctionDef) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                found += [(where, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.append((where, node.module))
    return found


def test_closed_form_layers_import_no_dataclasses_and_cli_json_only_to_write_it():
    sample = "import json\nfrom dataclasses import dataclass\ndef f():\n    import json\n"
    assert _imports(sample) == [("<module>", "json"), ("<module>", "dataclasses"), ("f", "json")]
    for name in ("diagonalization.py", "geomphase.py", "thermo.py"):
        found = _imports((SRC / name).read_text(encoding="utf-8"))
        assert found and not [m for _, m in found if m == "dataclasses"], name
    found = _imports((SRC / "cli.py").read_text(encoding="utf-8"))
    assert [where for where, m in found if m == "json"] == ["_json_text"]


# Names of retired forms: ``kron`` built dense product-space copies of operators;
# ``StateVector``, ``basis_state`` and ``number_diagonal`` kept states as flat
# complex vectors beside the real (n_field, n_det, k) amplitude stacks;
# ``unitary_action`` applied U as a chain of truncated factors, through
# ``squeeze_action``, ``beam_splitter_action`` and ``tridiagonal_exp_action``,
# a second representation of U beside its map on the ladder operators;
# ``rotation_covariance_residual`` checked H(varphi) at varphi != 0, which the
# package no longer applies; ``_hermite_pairs``, ``_mixtures`` and their node
# constants sampled the thermal field on a truncated detector, where the
# covariance propagator is exact
RETIRED_NAMES = ("kron", "StateVector", "basis_state", "number_diagonal", "unitary_action",
                 "squeeze_action", "beam_splitter_action", "tridiagonal_exp_action",
                 "_modes_up", "_padded", "_coupling_path", "_add_diagonal",
                 "LoopSpec", "_loop_raw_phase", "LEVEL_CROSSING_OVERLAP", "pancharatnam_product",
                 "error_estimate", "rotation_covariance_residual",
                 "_hermite_pairs", "_mixtures", "THERMAL_NODES", "MAX_NODES", "NODE_TOL",
                 "POPULATION_FLOOR")


def test_package_builds_no_kronecker_product():
    # one operator form and one state form: the array layers act on real amplitude
    # stacks, so neither a dense product-space copy of an operator (through a
    # Kronecker product) nor a flat state vector can come back
    files = sorted(SRC.glob("*.py"))
    assert {"fockspace.py", "oracle.py"} <= {f.name for f in files}
    offenders = [(f.name, name) for f in files for name in RETIRED_NAMES
                 if re.search(rf"\b{name}\b", f.read_text(encoding="utf-8"))]
    assert offenders == []


# Every cached src function (none today), with why its key is not a physics input: a cache keyed
# on the parameters, a squeeze or a cycle count would serve one stale answer
# wherever the same inputs recur, and grow with every sweep point
ALLOWED_CACHES: dict[str, str] = {}
PHYSICS_INPUTS = {"pp", "pps", "dp", "dps", "r", "r_thermal", "cycles", "accel", "temperature"}


def _cached_functions(source: str) -> dict[str, list[str]]:
    """Each function of ``source`` decorated with ``functools.cache`` or
    ``lru_cache``, however imported, and its argument names."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                if getattr(target, "attr", getattr(target, "id", None)) in {"cache", "lru_cache"}:
                    found[node.name] = [a.arg for a in node.args.args + node.args.kwonlyargs]
    return found


def test_caches_are_keyed_on_shapes_and_node_counts_only():
    sample = ("import functools\nfrom functools import cache\n"
              "@functools.lru_cache(maxsize=8)\ndef a(n):\n    pass\n"
              "@cache\ndef b(pp, cycles):\n    pass\n@staticmethod\ndef c(x):\n    pass\n")
    assert _cached_functions(sample) == {"a": ["n"], "b": ["pp", "cycles"]}
    found = {f"{path.stem}.{name}": args for path in sorted(SRC.glob("*.py"))
             for name, args in _cached_functions(path.read_text(encoding="utf-8")).items()}
    assert sorted(found) == sorted(ALLOWED_CACHES)
    assert not [name for name, args in found.items() if PHYSICS_INPUTS & set(args)]


def _eigensolver_calls(source: str) -> list[str]:
    """The enclosing top-level function (or "<module>") of every dense eigensolver
    call in ``source``, however it was imported."""
    solvers = {"eig", "eigh", "eigvals", "eigvalsh", "eigh_tridiagonal"}
    found = []
    for top in ast.parse(source).body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        found += [where for node in ast.walk(top) if isinstance(node, ast.Call)
                  and (getattr(node.func, "attr", None) in solvers
                       or getattr(node.func, "id", None) in solvers)]
    return found


def test_oracle_solves_no_field_window_densely():
    # the Gauss rules of x_f come from the half-size bidiagonal SVD: the one dense
    # eigensolver call left is the stacked detector generator of _detector_cycles
    sample = ("from numpy.linalg import eigh\nw = eigh(m)\n"
              "def f(x):\n    return np.linalg.eigvalsh(x)\n")
    assert _eigensolver_calls(sample) == ["<module>", "f"]
    source = (SRC / "oracle.py").read_text(encoding="utf-8")
    assert _eigensolver_calls(source) == ["_detector_cycles"]


def _package_modules():
    """The package itself and each of its modules."""
    return [importlib.import_module("berrytherm" if path.stem == "__init__"
                                    else f"berrytherm.{path.stem}")
            for path in sorted(SRC.glob("*.py"))]


def test_exports_resolve():
    # every name a module exports exists: a deletion cannot leave a stale export behind
    for module in _package_modules():
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], (module.__name__, missing)
    # the package exports every name it imports at top level and every name it
    # resolves lazily, each the object of the module that defines it and
    # exported there
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level for alias in node.names}
    assert imported
    assert set(berrytherm.__all__) == imported | set(berrytherm._LAZY)
    for name in berrytherm.__all__:
        obj = getattr(berrytherm, name)
        module = sys.modules[obj.__module__]
        assert name in module.__all__, (module.__name__, name)
        assert getattr(module, name) is obj, name


def test_exported_annotations_resolve():
    # every annotation of an exported function or class names something its
    # module can see, so typing.get_type_hints works on the whole public surface,
    # the names the package resolves lazily included
    checked = 0
    for module in _package_modules():
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if callable(obj):
                typing.get_type_hints(obj)
                checked += 1
    assert checked > 30
