"""The three berrytherm workloads: op plans drawn from a seed, timed ops, output checks.

Each workload is a closed loop driven from one process, one operation at a
time.  A *pass* is one walk over the workload's plan; passes repeat while
another one still fits in the run's ``--seconds`` (at least ``min_passes``).
Every op is timed on the wall clock and its output checked; a failed check
or a refusal by the program counts as a failed op.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import SpanStats

FIG3 = ("fig3-mhz", "fig3-10mhz", "fig3-100mhz", "fig3-ghz")
FIG5 = ("fig5-1", "fig5-2", "fig5-3")
HEADERS = {
    "thermometer": "T_cold_K,delta_rad,dDelta_dTcold_rad_per_K",
    "sensitivity": "relerr_Th,relerr_delta",
    "unruh": "accel_m_s2,T_unruh_K,q,delta_per_cycle_rad,cycles_to_pi,time_to_pi_s",
}
OP_TIMEOUT_S = 60  # an op takes a few seconds; a hung one must not outlast the run


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults are the benchmark, smaller values the self-test."""

    points_lo: int = 200
    points_hi: int = 20000
    diagonalize_per_pass: int = 2
    diagonalize_cutoff: int | None = None      # None: the CLI default (24)
    min_discriminating: int = 8
    vacuum_reps: int = 5
    vacuum_cycles: int = 8
    thermal_cycles: int = 3
    thermal_T: float = 1e-3


@dataclass
class Op:
    kind: str
    wall: float
    failed: bool = False


@dataclass
class Outcome:
    main: str                      # op kind behind op_p50_s
    aux: str                       # op kind behind aux_op_p50_s
    ops: list[Op] = field(default_factory=list)
    passes: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    stats: SpanStats | None = None

    def record(self, kind: str, wall: float, problem: str | None = None,
               refused: bool = False) -> None:
        """One op; ``problem`` is a failed output check, ``refused`` a refusal
        the program reported itself."""
        self.ops.append(Op(kind, wall, failed=problem is not None or refused))
        if problem is not None:
            self.problems.append(f"{kind}: {problem}")

    def walls(self, kind: str) -> list[float]:
        return [op.wall for op in self.ops if op.kind == kind]


def _passes(seconds: float, min_passes: int, one_pass, out: Outcome) -> None:
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        one_pass(len(out.passes))
        out.passes.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(out.passes) >= min_passes and elapsed + max(out.passes) > seconds:
            return


# --------------------------------------------------------------------------
# cli_mix: one fresh CLI process per op
# --------------------------------------------------------------------------

def cli_plan(seed: int, sizes: Sizes) -> list[tuple[str, list[str]]]:
    """Closed-form sweeps on every fig3/fig5 preset with log-uniform --points
    (one draw per log-stratum, so every run covers the range), plus
    ``diagonalize`` on resonant triples from the preset gaps and couplings."""
    from berrytherm.cli import PRESETS

    rng = random.Random(seed)
    sweeps = ([("thermometer", p) for p in FIG3] + [("unruh", p) for p in FIG5]
              + [("sensitivity", rng.choice(FIG3))])
    lo, hi = math.log(sizes.points_lo), math.log(sizes.points_hi)
    k = len(sweeps)
    points = [round(math.exp(lo + (hi - lo) * (i + rng.random()) / k)) for i in range(k)]
    rng.shuffle(points)
    plan = [("closed_form", [cmd, "--preset", preset, "--points", str(n)])
            for (cmd, preset), n in zip(sweeps, points)]
    for name in rng.sample(sorted(PRESETS), sizes.diagonalize_per_pass):
        p = PRESETS[name]
        argv = ["diagonalize", "--omega-a", repr(p["gap"]), "--omega-b", repr(p["gap"]),
                "--coupling", repr(p["coupling"])]
        if sizes.diagonalize_cutoff is not None:
            argv += ["--cutoff", str(sizes.diagonalize_cutoff)]
        plan.append(("diagonalize", argv))
    rng.shuffle(plan)
    return plan


def run_process(cmd: list[str], root: Path, env: dict) -> tuple[float, int, bytes, bytes]:
    """Wall time, exit code, stdout and stderr of one child; a child that
    times out is killed, waited for and reported with exit code -1."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, -1, b"", f"timed out after {OP_TIMEOUT_S} s".encode()
    return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def check_sweep(argv: list[str], code: int, out: bytes, err: bytes) -> str | None:
    if code != 0:
        return f"exit {code}: {err.decode(errors='replace').strip()[-200:]}"
    text = out.decode()
    lines = text.split("\n")
    if lines[-1] != "":
        return "output does not end with a newline"
    header, rows = lines[0], lines[1:-1]
    if header != HEADERS[argv[0]]:
        return f"header {header!r}"
    want = int(argv[argv.index("--points") + 1])
    if len(rows) != want:
        return f"{len(rows)} rows, {want} requested"
    width = header.count(",") + 1
    for row in rows:
        fields = row.split(",")
        try:
            finite = len(fields) == width and all(math.isfinite(float(x)) for x in fields)
        except ValueError:
            finite = False
        if not finite:
            return f"bad row {row[:120]!r}"
    return None


def _finite_numbers(obj) -> bool:
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def check_diagonalize(argv: list[str], code: int, out: bytes, err: bytes) -> str | None:
    if code != 0:
        return f"exit {code}: {err.decode(errors='replace').strip()[-200:]}"
    try:
        report = json.loads(out)
    except ValueError:
        return "output is not JSON"
    if not _finite_numbers(report):
        return "non-finite value in report"
    if not report.get("round_trip_residual", math.inf) <= 1e-10:
        return f"round_trip_residual {report.get('round_trip_residual')}"
    return None


def run_cli_mix(root: Path, env: dict, seed: int, seconds: float, sizes: Sizes,
                spans_dir: Path | None) -> Outcome:
    out = Outcome(main="closed_form", aux="diagonalize")
    plan = cli_plan(seed, sizes)
    rng = random.Random(seed + 1)
    digests: dict[tuple, str] = {}
    rows = 0
    row_wall = 0.0
    bytes_written = 0
    stats = SpanStats() if spans_dir is not None else None

    def one_pass(index: int) -> None:
        nonlocal rows, row_wall, bytes_written
        order = list(plan)
        rng.shuffle(order)
        for n, (kind, argv) in enumerate(order):
            if spans_dir is None:
                cmd = [sys.executable, "-m", "berrytherm.cli", *argv]
            else:
                spans_path = spans_dir / f"p{index}-{n}.json"
                cmd = [sys.executable, str(root / "perfbench" / "tracing.py"), str(spans_path), *argv]
            wall, code, stdout, stderr = run_process(cmd, root, env)
            check = check_sweep if kind == "closed_form" else check_diagonalize
            problem = check(argv, code, stdout, stderr)
            digest = hashlib.sha256(stdout).hexdigest()
            if problem is None and digests.setdefault(tuple(argv), digest) != digest:
                problem = f"output differs on repeat of {' '.join(argv)}"
            out.record(kind, wall, problem)
            if kind == "closed_form" and problem is None:
                rows += int(argv[argv.index("--points") + 1])
                row_wall += wall
                bytes_written += len(stdout)
            if stats is not None and spans_path.is_file():
                stats.add(json.loads(spans_path.read_text()))

    # two passes at least, so every op of the plan repeats
    _passes(seconds, 2, one_pass, out)
    out.stats = stats
    out.details.update(
        sweep_rows_per_s={"value": rows / row_wall if row_wall else 0.0,
                          "rows": rows, "wall_s": row_wall},
        write_rows_bytes=bytes_written,
    )
    return out


# --------------------------------------------------------------------------
# certify: the positive report and the negative control in one warm process
# --------------------------------------------------------------------------

def discriminating_cells(report: dict) -> int:
    return sum(1 for c in report["loop_cells"]
               if c.get("passed") is False and math.isfinite(c.get("difference_rad", math.nan)))


def run_certify(seconds: float, sizes: Sizes) -> Outcome:
    import berrytherm.cli as cli

    out = Outcome(main="certify", aux="certify_negative")

    def one_pass(index: int) -> None:
        for kind, negative in (("certify", False), ("certify_negative", True)):
            t0 = time.perf_counter()
            try:
                report = cli.certification_report(negative_control=negative)
            except Exception as exc:  # an op boundary: record and go on
                out.record(kind, time.perf_counter() - t0, f"raised {exc!r}")
                continue
            wall = time.perf_counter() - t0
            if not negative:
                failing = [c["name"] for c in report["checks"] if not c["passed"]]
                problem = None if report["passed"] else f"positive report failed {failing}"
            else:
                n = discriminating_cells(report)
                problem = (None if not report["passed"] and n >= sizes.min_discriminating
                           else f"negative control passed={report['passed']}, "
                                f"{n} discriminating cells < {sizes.min_discriminating}")
            out.record(kind, wall, problem)

    _passes(seconds, 1, one_pass, out)
    return out


# --------------------------------------------------------------------------
# adiabaticity: the RK4 oracle, vacuum and thermal, plus the known refusal
# --------------------------------------------------------------------------

HOT_CYCLES, HOT_N0 = 8, 1808   # the CLI default cycles, at the hottest thermal grid point


def run_adiabaticity(seed: int, seconds: float, sizes: Sizes) -> Outcome:
    import numpy as np

    from berrytherm import oracle, thermo
    from berrytherm.cli import PRESETS
    from berrytherm.diagonalization import PhysicalParams
    from berrytherm.oracle import EvolutionSpec, OracleError

    out = Outcome(main="thermal", aux="vacuum")
    temperature = sizes.thermal_T * (1.0 + random.Random(seed).uniform(-0.05, 0.05))
    ghz, mhz = PRESETS["fig6-ghz"], PRESETS["fig6-mhz"]
    pp_ghz = PhysicalParams(ghz["gap"], ghz["gap"], ghz["coupling"])
    pp_mhz = PhysicalParams(mhz["gap"], mhz["gap"], mhz["coupling"])
    r_thermal = thermo.squeeze_from_temperature(mhz["gap"], temperature).r
    out.details["thermal_T_K"] = temperature

    def timed(kind, fn, check):
        t0 = time.perf_counter()
        try:
            result = fn()
        except OracleError as exc:
            out.record(kind, time.perf_counter() - t0, refused=True)
            out.details.setdefault("refusals", []).append(f"{kind}: {exc}")
            return
        wall = time.perf_counter() - t0
        out.record(kind, wall, check(result))

    def vacuum_check(p):
        worst = float(np.max(p))
        return None if np.all(np.isfinite(p)) and worst < 1e-9 else f"vacuum max P {worst:.3e}"

    def thermal_check(res):
        worst = float(np.max(res.per_cycle)) + res.tail_bound
        ok = np.all(np.isfinite(res.per_cycle)) and worst < 1e-3
        return None if ok else f"thermal max P + tail {worst:.3e}"

    def hot_check(p):
        ok = np.all(np.isfinite(p)) and np.all((p >= -1e-12) & (p <= 1.0))
        return None if ok else "hot-point P outside [0, 1]"

    spec = EvolutionSpec(steps_per_cycle=600)  # the CLI default

    def one_pass(index: int) -> None:
        # the CLI default (8 cycles) refuses at this grid point; keep it visible.
        # It goes first, so the first BLAS call of a run, which can take an
        # extra second on a shared host, does not land in (a) or (b).
        timed("hot_point", lambda: oracle.excitation_probability_per_cycle(
            pp_mhz, HOT_CYCLES, spec, HOT_N0), hot_check)
        timed("thermal", lambda: oracle.thermal_excitation_per_cycle(
            pp_mhz, sizes.thermal_cycles, spec, r_thermal), thermal_check)
        for _ in range(sizes.vacuum_reps):
            timed("vacuum", lambda: oracle.excitation_probability_per_cycle(
                pp_ghz, sizes.vacuum_cycles, spec, 0), vacuum_check)

    _passes(seconds, 1, one_pass, out)
    return out
