"""berrytherm benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 25 --trace 0

Run from anywhere; the repository root is this file's parent directory and
the program is imported from its ``src/`` tree, as checked out.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` its per-layer metrics, taken
with every public berrytherm function wrapped (see tracing.py).  The line
before it is a JSON record of the machine, the per-workload figures behind
the generic metrics and any failed output checks.  Neither
BERRYTHERM_THREADS nor OPENBLAS_NUM_THREADS is set, so the defaults a user
gets are what is measured.  The exit code is 0 whenever a result is printed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import SpanStats, Tracer, span_cost_s
from workloads import Sizes, run_adiabaticity, run_certify, run_cli_mix

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli_mix", "certify", "adiabaticity")
SETUP_SAMPLES = 4  # the median also drops a first import that writes bytecode
NUMPY_SAMPLES = 3


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_import_s(env: dict, module: str) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", f"import {module}"], cwd=ROOT, env=env,
                          capture_output=True, timeout=60)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"import {module} failed: {proc.stderr.decode(errors='replace')[-300:]}")
    return wall


def _blas() -> dict:
    """Name and thread count of the BLAS numpy loaded, read through its C API."""
    import numpy as np

    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", "unknown")
    libs = sorted(glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                         "numpy.libs", "*openblas*")))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return {"name": name, "library": os.path.basename(path), "threads": fn()}
    return {"name": name, "library": None, "threads": None}


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "BERRYTHERM_THREADS": os.environ.get("BERRYTHERM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def tail(values: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it; none when that
    percentile would not lie above the median."""
    n = len(values)
    if n < 20:
        return {"value": None, "percentile": None, "n": n}
    return {"value": sorted(values)[n - 11], "percentile": 100.0 * (n - 10) / n, "n": n}


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes: Sizes = Sizes()) -> tuple[dict, dict, dict]:
    """Run one workload; returns (detail record, result line, units by name)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    env = child_env()
    setup = [fresh_import_s(env, "berrytherm.cli") for _ in range(SETUP_SAMPLES)]
    detail: dict = {"workload": workload, "seed": seed, "trace": int(trace),
                    "setup_s": {"value": statistics.median(setup), "n": len(setup)}}
    numpy_s = None
    if trace:
        numpy_s = statistics.median(fresh_import_s(env, "numpy") for _ in range(NUMPY_SAMPLES))

    sys.path.insert(0, str(ROOT / "src"))
    import berrytherm.cli  # noqa: F401  (imported before any wrapping or timing)

    detail["machine"] = machine_record()
    tracer = Tracer() if trace and workload != "cli_mix" else None
    if tracer is not None:
        tracer.install()
    spans_dir = None
    try:
        if workload == "cli_mix":
            if trace:
                spans_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
            out = run_cli_mix(ROOT, env, seed, seconds, sizes, spans_dir)
        elif workload == "certify":
            out = run_certify(seconds, sizes)
        else:
            out = run_adiabaticity(seed, seconds, sizes)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if spans_dir is not None:
            shutil.rmtree(spans_dir, ignore_errors=True)
    if tracer is not None:
        out.stats = SpanStats()
        out.stats.add(tracer.spans)

    attempted = len(out.ops)
    failed = sum(op.failed for op in out.ops)
    main, aux = out.walls(out.main), out.walls(out.aux)
    detail.update(out.details)
    detail.update({
        f"{out.main}_p50_s": {"value": statistics.median(main), "n": len(main)},
        f"{out.main}_tail_s": tail(main),
        f"{out.aux}_p50_s": {"value": statistics.median(aux), "n": len(aux)},
        "pass_s": out.passes,
        "failed_op_ratio": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "peak_rss_mb": peak_rss_mb(),
        "problems": out.problems,
    })
    if trace:
        values = out.stats.metrics()
        values["cli.write_rows.bytes"] = out.details.get("write_rows_bytes", 0)
        values["setup.numpy_s"] = numpy_s
        values["trace.op_p50_s"] = statistics.median(main)
        values["trace.overhead_est_s"] = values["trace.spans"] * span_cost_s()
    else:
        values = {
            "setup_s": statistics.median(setup),
            "op_p50_s": statistics.median(main),
            "aux_op_p50_s": statistics.median(aux),
            "plan_s": statistics.median(out.passes),
            "ok_op_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb(),
        }
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    result = {
        "correct": not out.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return detail, result, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "berrytherm" / "cli.py").is_file():
        print(f"perfbench: no berrytherm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    detail, result, _ = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
