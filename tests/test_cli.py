import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from berrytherm import oracle
from berrytherm.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    PRESETS,
    main,
    read_config_file,
)
from berrytherm.fockspace import FockDims, displace_two_mode, matrix_from_json

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


def test_numerical_failure_exit_code(capsys):
    # coupling outside the inversion basin surfaces as a numerical failure
    code = main(["thermometer", "--gap", "1e6", "--t-hot", "1e-3",
                 "--coupling", "5e5", "--points", "3"])
    assert code == EXIT_NUMERICAL
    assert "basin" in capsys.readouterr().err


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


def test_json_format_output(tmp_path):
    code, text = run(["thermometer", "--preset", "fig3-ghz", "--points", "3",
                      "--format", "json"], tmp_path, "out.json")
    assert code == EXIT_OK
    rows = json.loads(text)
    assert len(rows) == 3 and "delta_rad" in rows[0]


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
    assert rows[0][3] < 1e-30
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


def test_adiabaticity_mhz_preset_default_cycles(tmp_path, monkeypatch):
    # 8 cycles by default: the hottest grid point must not refuse on norm drift
    mixtures = []
    thermal = oracle.thermal_excitation_per_cycle

    def recording(*args):
        mixtures.append(thermal(*args))
        return mixtures[-1]

    monkeypatch.setattr(oracle, "thermal_excitation_per_cycle", recording)
    code, text = run(["adiabaticity", "--preset", "fig6-mhz"], tmp_path)
    assert code == EXIT_OK
    ps = [float(ln.split(",")[1]) for ln in text.strip().split("\n")[1:]]
    assert len(ps) == 8
    tail = mixtures[0].tail_bound
    assert all(0.0 < p and p + tail < 1e-3 for p in ps)


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


def test_diagonalize_zero_coupling_flagged(tmp_path):
    code, text = run(["diagonalize", "--omega-a", "2e9", "--omega-b", "3e9",
                      "--coupling", "0"], tmp_path, "d.json")
    assert code == EXIT_OK
    rep = json.loads(text)
    assert rep["degenerate_boundary"] is True
    assert rep["diag_params"]["v"] == 0.0


def test_threads_env_respected(tmp_path, monkeypatch):
    monkeypatch.setenv("BERRYTHERM_THREADS", "1")
    args = ["thermometer", "--preset", "fig3-mhz", "--points", "6"]
    _, single = run(args, tmp_path, "s.csv")
    monkeypatch.setenv("BERRYTHERM_THREADS", "3")
    _, multi = run(args, tmp_path, "m.csv")
    assert single == multi
    monkeypatch.setenv("BERRYTHERM_THREADS", "zero")
    assert main(args) == EXIT_CONFIG


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


def test_matrix_json_golden_fixture():
    text = (GOLDEN / "displace_4x4_s0p2_phi0p5.json").read_text()
    op = matrix_from_json(text)
    fresh = displace_two_mode(FockDims(4, 4), 0.2, 0.5)
    np.testing.assert_array_equal(op.mat, fresh.mat)
