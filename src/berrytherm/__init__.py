"""Geometric-phase quantum thermometry for a single-mode detector model.

Closed-form cyclic (Berry) phases of the dressed detector-field eigenstates,
thermal and accelerated-observer mixed-state phases, the explicit
diagonalizing unitary chain on a truncated two-mode Fock space, and
independent numerical oracles that certify every closed form.
"""

from .diagonalization import (
    ConstraintError,
    DerivedParams,
    DiagParams,
    InverseMapError,
    PhysicalParams,
    TrajectoryPhase,
    build_hamiltonian,
    build_unitary,
    derive_params,
    eigenstate,
    forward_map,
    inverse_map,
)
from .fockspace import (
    DensityMatrix,
    FockDims,
    OperatorMatrix,
    StateVector,
    ladder,
    displace_two_mode,
    rotate_field,
    squeeze_single,
)
from .geomphase import (
    CycleAccumulation,
    GFraction,
    PhaseResult,
    ThermalSqueeze,
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
    mixed_phase_partial_sum,
    numeric_eigenpair,
    schrodinger_excitation_probability,
)
from .thermo import (
    CONSTANTS,
    PhysicalConstants,
    ThermalStateSpec,
    squeeze_from_temperature,
    temperature_from_squeeze,
    thermal_density_matrix,
    unruh_temperature,
)

__version__ = "0.1.0"
