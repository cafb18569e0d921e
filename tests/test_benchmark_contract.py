"""The benchmark harness in perfbench/ drives the program by name.  It
imports ``EvolutionSpec``, calls the two adiabaticity functions positionally
and, traced, binds their parameters ``pp``, ``cycles`` and ``spec`` by name.
It reaches the certify report through ``cli.certification_report``, its
``negative_control`` keyword, ``checks[*].passed`` and
``loop_cells[*].difference_rad``.  A rename must fail here, not in a
benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _adiabaticity_pass(monkeypatch, traced, sizes_of):
    """One pass of the adiabaticity workload at the Sizes ``sizes_of`` builds,
    traced or not: it records no problem and no failed op."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    tracer = tracing.Tracer()
    if traced:
        tracer.install()
    try:
        out = workloads.run_adiabaticity(seed=7, seconds=0.0, sizes=sizes_of(workloads))
    finally:
        tracer.uninstall()  # a no-op when nothing was installed
    assert out.problems == []
    assert [op.kind for op in out.ops if op.failed] == []
    assert {op.kind for op in out.ops} == {"hot_point", "thermal", "vacuum"}
    if traced:
        assert {"oracle.excitation_probability_per_cycle",
                "oracle.thermal_excitation_per_cycle"} <= {span[2] for span in tracer.spans}


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_adiabaticity_workload_runs_clean(monkeypatch, traced):
    _adiabaticity_pass(monkeypatch, traced, lambda workloads: workloads.Sizes(
        vacuum_reps=2, vacuum_cycles=1, thermal_cycles=1, thermal_T=2e-4))


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_adiabaticity_workload_runs_clean_at_the_benchmark_sizes(monkeypatch, traced):
    # the benchmark's own sizes: 1 mK, 3 thermal cycles and the n0 = 1808 hot point
    _adiabaticity_pass(monkeypatch, traced, lambda workloads: workloads.Sizes())


def test_certify_workload_runs_clean(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    out = workloads.run_certify(seconds=0.0, sizes=workloads.Sizes())
    assert out.problems == []
    assert [op.kind for op in out.ops if op.failed] == []
    assert {op.kind for op in out.ops} == {"certify", "certify_negative"}


TRACER_PROBE = """
import sys
import berrytherm.cli
import tracing

tracer = tracing.Tracer()
tracer.install()
fockspace = sys.modules["berrytherm.fockspace"]
assert hasattr(fockspace.eigenstates, "__wrapped__")
tracer.uninstall()
assert not hasattr(fockspace.eigenstates, "__wrapped__")
"""


def test_tracer_installs_in_a_fresh_interpreter():
    # the tracer reads every layer module from sys.modules right after
    # ``import berrytherm.cli``; in this process every module is imported
    # already, so only a fresh interpreter shows a layer that import misses
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(PERFBENCH), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", TRACER_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
