"""Outside-in tracing of berrytherm: spans around calls into each module.

``Tracer.install()`` wraps every public function of the six berrytherm
modules (plus scipy's ``expm_multiply`` as bound in ``diagonalization``) and
rebinds each name wherever a berrytherm module resolves it, so calls made
between modules and inside a module are both seen.  Nothing under ``src/``
changes.  Spans are kept in memory as tuples

    (id, parent id, name, start, end, raised, extra)

and appended to one list; ``list.append`` is atomic, so the worker threads of
``cli.parallel_map`` can record concurrently.  A callable handed to
``parallel_map`` is itself wrapped so that spans opened in a worker thread
name the ``parallel_map`` span as their parent.

Run as a script, this file is the bootstrap for a traced CLI process:

    python perfbench/tracing.py SPANS.json thermometer --preset fig3-ghz

installs the wrappers, calls ``berrytherm.cli.main(argv)``, writes the spans
to SPANS.json and exits with the CLI's exit code.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "diagonalization", "fockspace", "geomphase", "thermo", "oracle")
FOREIGN = {"diagonalization": ("expm_multiply",)}
# called once per CSV value: a span there would time the tracer, not the code
SKIP = {"cli.format_float"}
# callables passed to these run in pool threads under the caller's span
ADOPTS_CALLABLES = {"cli.parallel_map"}
EIGEN_CUTOFFS = (24, 30, 44, 60, 78)


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _eigenstate_extra(fn, args, kwargs, result):
    return {"cutoff": _bound(fn, args, kwargs)["dims"].n_field}


def _invert_extra(fn, args, kwargs, result):
    return None if result is None else {"iterations": result.iterations}


def _evolution_extra(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    steps = a["spec"].resolved_steps_per_cycle(a["pp"].Omega_a)
    return {"planned_steps": a["cycles"] * steps}


def _thermal_extra(fn, args, kwargs, result):
    return None if result is None else {"grid_points": len(result.grid)}


EXTRAS = {
    "diagonalization.eigenstate": _eigenstate_extra,
    "diagonalization.invert_physical": _invert_extra,
    "oracle.excitation_probability_per_cycle": _evolution_extra,
    "oracle.thermal_excitation_per_cycle": _thermal_extra,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._rebound: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _adopt(self, fn, parent):
        """Run ``fn`` (in any thread) with ``parent`` as the open span."""
        @functools.wraps(fn)
        def adopted(*args, **kwargs):
            stack = self._stack()
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return adopted

    def wrap(self, name: str, fn):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        extra_fn = EXTRAS.get(name)
        adopts = name in ADOPTS_CALLABLES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            sid = next(ids)
            if adopts:
                args = tuple(self._adopt(a, sid) if callable(a) else a for a in args)
            stack.append(sid)
            result = None
            raised = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = extra_fn(fn, args, kwargs, result) if extra_fn else None
                spans.append((sid, parent, name, t0, t1, raised, extra))

        return traced

    def install(self) -> None:
        """Wrap and rebind every traced function; undone by ``uninstall``."""
        import berrytherm.cli  # noqa: F401  (imports all six modules)

        named = {}
        for layer in LAYERS:
            mod = sys.modules[f"berrytherm.{layer}"]
            for attr, obj in vars(mod).items():
                public_here = (inspect.isfunction(obj) and not attr.startswith("_")
                               and obj.__module__ == mod.__name__)
                name = f"{layer}.{attr}"
                if (public_here or attr in FOREIGN.get(layer, ())) and name not in SKIP:
                    named.setdefault(obj, name)
        wrappers = {obj: self.wrap(name, obj) for obj, name in named.items()}
        self._rebound = []
        for modname, mod in list(sys.modules.items()):
            if modname == "berrytherm" or modname.startswith("berrytherm."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(mod, attr, wrappers[obj])
                        self._rebound.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in self._rebound:
            setattr(mod, attr, obj)
        self._rebound = []


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of one span: a wrapped no-op minus the bare no-op."""
    def noop():
        return None
    probe = Tracer().wrap("probe.noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        probe()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class SpanStats:
    """Per-function and per-layer sums over one or more span lists."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.raised = defaultdict(int)
        self.layer_self = defaultdict(float)
        self.layer_calls = defaultdict(int)
        self.eigen_calls = defaultdict(int)
        self.eigen_seconds = defaultdict(float)
        self.newton_iters = 0
        self.planned_steps = 0
        self.grid_points = 0
        self.spans = 0

    def add(self, spans) -> None:
        by_id = {s[0]: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            if s[1] is not None:
                children[s[1]].append((s[3], s[4]))
        for sid, parent, name, t0, t1, raised, extra in spans:
            self.spans += 1
            dur = t1 - t0
            layer = name.split(".", 1)[0]
            self.layer_calls[layer] += 1
            self.layer_self[layer] += max(dur - _union_length(children[sid]), 0.0)
            self.calls[name] += 1
            self.raised[name] += int(raised)
            # outermost span of a name only, so recursion is not counted twice
            p = parent
            while p is not None and by_id[p][2] != name:
                p = by_id[p][1]
            if p is None:
                self.seconds[name] += dur
            extra = extra or {}
            if "cutoff" in extra:
                self.eigen_calls[extra["cutoff"]] += 1
                self.eigen_seconds[extra["cutoff"]] += dur
            self.newton_iters += extra.get("iterations", 0)
            self.planned_steps += extra.get("planned_steps", 0)
            self.grid_points += extra.get("grid_points", 0)

    def metrics(self) -> dict[str, float]:
        m: dict[str, float] = {}

        def fn(name, *kinds):
            for kind in kinds:
                m[f"{name}.{kind}"] = {"calls": self.calls, "s": self.seconds}[kind][name]

        fn("cli.parallel_map", "s")
        fn("cli.write_rows", "s")
        fn("diagonalization.invert_physical", "calls", "s")
        m["diagonalization.invert_physical.newton_iters"] = self.newton_iters
        fn("diagonalization.eigenstate", "calls", "s")
        for c in EIGEN_CUTOFFS:
            m[f"diagonalization.eigenstate.c{c}.calls"] = self.eigen_calls[c]
            m[f"diagonalization.eigenstate.c{c}.s"] = self.eigen_seconds[c]
        fn("diagonalization.expm_multiply", "calls", "s")
        fn("diagonalization.hamiltonian_sparse", "calls", "s")
        fn("diagonalization.build_unitary", "s")
        fn("diagonalization.build_hamiltonian", "s")
        fn("fockspace.displace_two_mode", "calls", "s")
        fn("fockspace.squeeze_single", "calls", "s")
        fn("geomphase.thermometer_delta_from_G", "calls", "s")
        fn("geomphase.delta_per_cycle_from_G", "calls", "s")
        fn("geomphase.unruh_squeeze", "calls", "s")
        fn("thermo.unruh_temperature", "calls")
        fn("oracle.discrete_berry_loop", "calls", "s")
        loops = self.calls["oracle.discrete_berry_loop"]
        refused = self.raised["oracle.discrete_berry_loop"]
        m["oracle.discrete_berry_loop.refused"] = refused
        m["oracle.loop.useful_ratio"] = (loops - refused) / loops if loops else 0.0
        fn("oracle.numeric_eigenpair", "calls", "s")
        fn("oracle.excitation_probability_per_cycle", "calls", "s")
        m["oracle.excitation_probability_per_cycle.failed"] = \
            self.raised["oracle.excitation_probability_per_cycle"]
        fn("oracle.thermal_excitation_per_cycle", "s")
        m["oracle.thermal.grid_points"] = self.grid_points
        m["oracle.rk4.planned_steps"] = self.planned_steps
        m["oracle.rk4.s_per_planned_step"] = (
            self.seconds["oracle.excitation_probability_per_cycle"] / self.planned_steps
            if self.planned_steps else 0.0)
        for layer in LAYERS:
            m[f"layer.{layer}.calls"] = self.layer_calls[layer]
            m[f"layer.{layer}.self_s"] = self.layer_self[layer]
        m["trace.spans"] = self.spans
        return m


def _bootstrap(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    import berrytherm.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = berrytherm.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(_bootstrap(sys.argv[1:]))
