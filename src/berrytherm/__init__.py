"""Geometric-phase quantum thermometry for a single-mode detector model.

Closed-form cyclic (Berry) phases of the dressed detector-field eigenstates,
thermal and accelerated-observer mixed-state phases, the exact dressed
eigenstates on a truncated two-mode Fock space, and independent numerical
oracles that certify every closed form.

The closed forms (``diagonalization``, ``geomphase``, ``thermo``) need only
the standard library.  The two array layers, ``fockspace`` and ``oracle``,
need numpy; they are registered here through ``importlib.util.LazyLoader``,
so both are in ``sys.modules`` from the start, as every layer is once the
CLI is imported, and execute, importing numpy, on first attribute access.
Importing the package or its CLI therefore loads no numpy, and neither do
the closed-form sweeps.  The names the package exports from the two array
layers resolve on first use, through ``__getattr__``.
"""

import importlib.util
import sys

from .diagonalization import (
    ConstraintError,
    DerivedParams,
    DiagParams,
    InverseMapError,
    OracleError,
    PhysicalParams,
    derive_params,
    forward_map,
    invert_physical,
    normal_modes,
)
from .geomphase import (
    CycleAccumulation,
    PhaseResult,
    accumulate_cycles,
    delta_per_cycle_from_eps,
    eigen_berry_phase,
    epsilon,
    thermometer_delta_from_eps,
    unruh_squeeze,
)
from .thermo import (
    CONSTANTS,
    PhysicalConstants,
    ThermalSqueeze,
    squeeze_from_temperature,
    unruh_temperature,
)


def _lazy(name: str):
    """Submodule ``name``, registered in ``sys.modules`` and executed on
    first attribute access (the stdlib LazyLoader recipe)."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


fockspace = _lazy("fockspace")
oracle = _lazy("oracle")

_LAZY = {
    **dict.fromkeys(("FockDims", "eigenstates"), fockspace),
    **dict.fromkeys(("EvolutionSpec", "discrete_berry_loops"), oracle),
}

__all__ = [
    "ConstraintError", "DerivedParams", "DiagParams", "InverseMapError", "OracleError",
    "PhysicalParams", "derive_params", "forward_map", "invert_physical", "normal_modes",
    "CycleAccumulation", "PhaseResult", "accumulate_cycles", "delta_per_cycle_from_eps",
    "eigen_berry_phase", "epsilon", "thermometer_delta_from_eps", "unruh_squeeze",
    "CONSTANTS", "PhysicalConstants", "ThermalSqueeze", "squeeze_from_temperature",
    "unruh_temperature",
    *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
