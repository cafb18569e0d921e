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
    unitary_action,
)
from .fockspace import (
    FockDims,
    StateVector,
    ladder,
)
from .geomphase import (
    CycleAccumulation,
    GFraction,
    PhaseResult,
    accumulate_cycles,
    eigen_berry_phase,
    ground_T00,
    mixed_thermal_phase,
    mode_fraction_G,
    thermometer_delta,
    unruh_delta_per_cycle,
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
    temperature_from_squeeze,
    unruh_temperature,
)

__version__ = "0.1.0"
