"""Geometric-phase quantum thermometry for a single-mode detector model.

Closed-form cyclic (Berry) phases of the dressed detector-field eigenstates,
thermal and accelerated-observer mixed-state phases, the diagonalizing
unitary chain applied by exact blocks on a truncated two-mode Fock space,
and independent numerical oracles that certify every closed form.
"""

from .diagonalization import (
    ConstraintError,
    DerivedParams,
    DiagParams,
    InverseMapError,
    PhysicalParams,
    build_hamiltonian,
    derive_params,
    eigenstate,
    forward_map,
    invert_physical,
    normal_modes,
    unitary_action,
)
from .fockspace import (
    FockDims,
    StateVector,
    ladder,
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
from .oracle import (
    EvolutionSpec,
    LoopSpec,
    OracleError,
    discrete_berry_loop,
    numeric_eigenpair,
)
from .thermo import (
    CONSTANTS,
    PhysicalConstants,
    ThermalStateSpec,
    ThermalSqueeze,
    squeeze_from_temperature,
    unruh_temperature,
)

__version__ = "0.1.0"
