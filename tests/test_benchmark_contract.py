"""The benchmark harness in perfbench/ drives the adiabaticity oracle by
name: it imports ``EvolutionSpec``, calls the two adiabaticity functions
positionally and, traced, binds their parameters ``pp``, ``cycles`` and
``spec`` by name.  A rename must fail here, not in a benchmark run."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_adiabaticity_workload_runs_clean(monkeypatch, traced):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    sizes = workloads.Sizes(vacuum_reps=2, vacuum_cycles=1, thermal_cycles=1, thermal_T=2e-4)
    tracer = tracing.Tracer()
    if traced:
        tracer.install()
    try:
        out = workloads.run_adiabaticity(seed=7, seconds=0.0, sizes=sizes)
    finally:
        tracer.uninstall()  # a no-op when nothing was installed
    assert out.problems == []
    assert [op.kind for op in out.ops if op.failed] == []
    assert {op.kind for op in out.ops} == {"hot_point", "thermal", "vacuum"}
    if traced:
        assert {"oracle.excitation_probability_per_cycle",
                "oracle.thermal_excitation_per_cycle"} <= {span[2] for span in tracer.spans}
