"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For each workload, an untraced and a traced run must emit every metric of
BENCHMARK.json with its unit and pass their output checks (adiabaticity
keeps its one known refusal).  Then a corrupted CSV row planted in one
cli_mix op must come back as a failed op with ``correct`` false.  Takes
about two minutes; exits non-zero on the first failure.
"""

from __future__ import annotations

import math
import sys

import run
import workloads

TINY = workloads.Sizes(points_lo=20, points_hi=200, diagonalize_per_pass=1,
                       diagonalize_cutoff=8, min_discriminating=1, vacuum_reps=2,
                       vacuum_cycles=1, thermal_cycles=1, thermal_T=2e-4)


def check(workload: str, trace: bool, expect_failed: int) -> None:
    detail, result, units = run.measure(workload, seed=7, seconds=1, trace=trace, sizes=TINY)
    metrics = result["metrics"]
    assert set(metrics) == set(units), f"{workload}: metric names {sorted(metrics)}"
    for name, m in metrics.items():
        assert m["unit"] == units[name] and isinstance(m["value"], (int, float)), name
        assert math.isfinite(m["value"]), name
    assert result["correct"], f"{workload}: {detail['problems']}"
    assert result["failed"] == expect_failed, f"{workload}: failed {result['failed']}"
    print(f"ok {workload} trace={int(trace)} attempted={result['attempted']} "
          f"failed={result['failed']}", flush=True)


def planted_wrong_row() -> None:
    real = workloads.run_process
    planted = []

    def corrupt(cmd, root, env):
        wall, code, out, err = real(cmd, root, env)
        if not planted and "--points" in cmd:
            lines = out.split(b"\n")
            lines[1] = lines[1].replace(b",", b",nan,", 1)
            out = b"\n".join(lines)
            planted.append(cmd)
        return wall, code, out, err

    workloads.run_process = corrupt
    try:
        detail, result, _ = run.measure("cli_mix", seed=7, seconds=1, trace=False, sizes=TINY)
    finally:
        workloads.run_process = real
    assert planted and result["failed"] >= 1 and not result["correct"], result
    print(f"ok planted wrong row -> failed={result['failed']}: {detail['problems'][0]}")


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import berrytherm.cli as cli

    check("cli_mix", False, 0)
    check("cli_mix", True, 0)
    # a one-cell-column grid keeps the certification pair to a few seconds
    grid = cli.CERT_GRID_V, cli.CERT_GRID_RATIO
    cli.CERT_GRID_V, cli.CERT_GRID_RATIO = (0.1,), (math.e ** 2,)
    try:
        check("certify", False, 0)
        check("certify", True, 0)
    finally:
        cli.CERT_GRID_V, cli.CERT_GRID_RATIO = grid
    check("adiabaticity", False, 1)
    check("adiabaticity", True, 1)
    planted_wrong_row()
    return 0


if __name__ == "__main__":
    sys.exit(main())
