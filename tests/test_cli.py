import argparse
import ast
import importlib
import json
import math
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import berrytherm
from berrytherm import oracle
from berrytherm.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    KEYMAP,
    PRESETS,
    build_parser,
    main,
    read_config_file,
)

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
], ids=["negative-temperature", "cutoff-3", "cutoff-1",
        "thermometer-zero-gap", "adiabaticity-zero-gap", "unruh-negative-gap",
        "diagonalize-zero-omega-a", "thermometer-nan-gap", "adiabaticity-infinite-coupling",
        "diagonalize-forward-zero-omega-a", "diagonalize-forward-nan-omega-a",
        "diagonalize-forward-ratio-below-exp-2v", "diagonalize-both-triples"])
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
    # the thermal mixture short-circuits like the vacuum path: no node is evaluated
    def never(*args):
        raise AssertionError("zero coupling evaluated the detector")

    monkeypatch.setattr(oracle, "_detector_cycles", never)
    code, text = run(["adiabaticity", "--gap", "1e6", "--coupling", "0",
                      "--temperature", "1e-3", "--cycles", "3"], tmp_path)
    assert code == EXIT_OK
    ps = [float(ln.split(",")[1]) for ln in text.strip().split("\n")[1:]]
    assert ps == [0.0, 0.0, 0.0]


def test_adiabaticity_ghz_preset_long_run(tmp_path):
    # 10 000 cycles: each cycle's phase is evaluated afresh, so every node keeps
    # its norm to the 1e-12 unitarity check and no row comes near 1e-9
    code, text = run(["adiabaticity", "--preset", "fig6-ghz", "--cycles", "10000"], tmp_path)
    assert code == EXIT_OK
    ps = [float(ln.split(",")[1]) for ln in text.strip().split("\n")[1:]]
    assert len(ps) == 10000
    assert max(ps) < 1e-9


def test_adiabaticity_mhz_preset_default_cycles(tmp_path, monkeypatch):
    # 8 cycles by default: the node doubling converges and no node refuses on norm drift
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
    accels = np.logspace(16.0, 18.0, 7)
    assert [r[0] for r in rows] == list(accels)
    for r, acc in zip(rows, accels):
        q = unruh_squeeze(p["gap"], acc).r
        assert r[2] == q
        assert r[3] == delta_per_cycle_from_eps(eps, q)


def test_sweeps_never_call_the_inverse_map(tmp_path, monkeypatch):
    # the sweep formulas take epsilon straight from the laboratory triple
    from berrytherm import cli, diagonalization

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep called the inverse map")

    monkeypatch.setattr(diagonalization, "invert_physical", refuse)
    monkeypatch.setattr(cli, "invert_physical", refuse)
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
    # the loop-grid verdict holds only at its calibrated loop points, cutoff
    # ladder and truncation gate: neither a flag nor a config key may move them
    _rejected_as_flag_and_config_key(tmp_path, capsys, ["certify"], key, value)


def test_adiabaticity_takes_no_step_count(tmp_path, capsys):
    # the adiabaticity oracle propagates each cycle exactly: there are no steps to set
    _rejected_as_flag_and_config_key(
        tmp_path, capsys, ["adiabaticity", "--preset", "fig6-mhz"], "steps_per_cycle", "600")


def test_flags_and_config_keys_agree():
    # every subcommand accepts the same keys as flags and in a config file
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(KEYMAP)
    for name, p in sub.choices.items():
        dests = {a.dest for a in p._actions} - {"help", "config", "out"}
        # --format selects how a sweep writes its rows, and only sweeps take it
        assert ("format" in dests) == (name not in ("diagonalize", "certify")), name
        assert dests - {"format"} == set(KEYMAP[name]), name


# cells that certify above the first rung of the cutoff ladder, keyed by
# (v, ln ratio, occupation); the other 20 grid cells certify at cutoff 30
CERT_ESCALATED = {
    (0.3, 2, (0, 1)): 44, (0.3, 2, (1, 1)): 44, (0.3, 3, (0, 1)): 44, (0.3, 3, (1, 1)): 44,
    (0.6, 2, (0, 0)): 60, (0.6, 2, (1, 0)): 60, (0.6, 2, (0, 1)): 60, (0.6, 2, (1, 1)): 60,
    (0.6, 3, (0, 0)): 60, (0.6, 3, (1, 0)): 60, (0.6, 3, (0, 1)): 78, (0.6, 3, (1, 1)): 78,
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
        assert counts == [20, 4, 6, 2]


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


def test_closed_form_commands_import_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path / "out.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded["closed_form"] == []
    assert loaded["adiabaticity"] == []
    assert loaded["diagonalize"] == []
    assert loaded["certify"] == []
    # positive control: the same probe sees scipy once it is imported
    assert "scipy.sparse" in loaded["after_import"]


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


def test_exports_resolve():
    # every name a module exports, and every name the package imports at top
    # level, exists: a deletion cannot leave a stale export behind
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"berrytherm.{path.stem}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], (path.name, missing)
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module_name, name in imported:
        module = importlib.import_module(f"berrytherm.{module_name}")
        assert name in module.__all__, (module_name, name)
        assert getattr(berrytherm, name) is getattr(module, name), name


def test_exported_annotations_resolve():
    # every annotation of an exported function or class names something its
    # module can see, so typing.get_type_hints works on the whole public surface
    checked = 0
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"berrytherm.{path.stem}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if callable(obj):
                typing.get_type_hints(obj)
                checked += 1
    assert checked > 30
