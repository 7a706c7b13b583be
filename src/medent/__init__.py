"""Ground-state entanglement between two parties coupled only through a mediator.

Builds tripartite Hamiltonians (three-qubit chains and two atoms sharing a
bosonic mode), computes the outer-pair concurrence of the ground level,
carries the small-field perturbative expansion, verifies the factorization
theorem for exchange-symmetric couplings, and optimizes the local mediator
controls.
"""

from .control import ControlProblem, OptimizationResult, optimize
from .dicke import (
    BosonicOperators,
    DickeConfig,
    DickeGroundPoint,
    FockConvergenceError,
    bosonic_operators,
    build_dicke,
    dicke_ground_concurrence,
    dicke_ground_point,
    dicke_mediator_form,
    dicke_sweep,
    mediator_concurrence,
)
from .entanglement import (
    ConcurrenceResult,
    concurrence,
    ground_state_ac_concurrence,
    ground_state_pair_concurrence,
)
from .linalg import (
    DensityMatrix,
    DimensionError,
    EigenDecomposition,
    HermitianOperator,
    NumericalError,
    SchmidtDecomposition,
    eigh,
    kron,
    partial_trace,
    permute_subsystems,
    purity,
    reduced_density,
    schmidt,
    swap_operator,
)
from .perturbation import (
    DegeneratePT2,
    PerturbativeGroundState,
    degenerate_pt2,
    ising_pt_ground_state,
)
from .sweeps import SweepResult, ising_sweep, linspace_grid, parse_grid_spec
from .theorem import (
    CorollaryReport,
    EigenstateAnalysis,
    TheoremFuzzReport,
    analyze_eigenstates,
    corollary_check,
    is_exchange_symmetric,
    random_symmetric_hamiltonian,
    theorem_fuzz,
)
from .tripartite import (
    AnalyticSpectrum,
    IsingParams,
    PauliCoefficients,
    analytic_ising_spectrum,
    build_ising,
    build_pauli_hamiltonian,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticSpectrum",
    "BosonicOperators",
    "ConcurrenceResult",
    "ControlProblem",
    "CorollaryReport",
    "DegeneratePT2",
    "DensityMatrix",
    "DickeConfig",
    "DickeGroundPoint",
    "DimensionError",
    "EigenDecomposition",
    "EigenstateAnalysis",
    "FockConvergenceError",
    "HermitianOperator",
    "IsingParams",
    "NumericalError",
    "OptimizationResult",
    "PauliCoefficients",
    "PerturbativeGroundState",
    "SchmidtDecomposition",
    "SweepResult",
    "TheoremFuzzReport",
    "analytic_ising_spectrum",
    "analyze_eigenstates",
    "bosonic_operators",
    "build_dicke",
    "build_ising",
    "build_pauli_hamiltonian",
    "concurrence",
    "corollary_check",
    "degenerate_pt2",
    "dicke_ground_concurrence",
    "dicke_ground_point",
    "dicke_mediator_form",
    "dicke_sweep",
    "eigh",
    "ground_state_ac_concurrence",
    "ground_state_pair_concurrence",
    "is_exchange_symmetric",
    "ising_pt_ground_state",
    "ising_sweep",
    "kron",
    "linspace_grid",
    "mediator_concurrence",
    "optimize",
    "parse_grid_spec",
    "partial_trace",
    "permute_subsystems",
    "purity",
    "random_symmetric_hamiltonian",
    "reduced_density",
    "schmidt",
    "swap_operator",
    "theorem_fuzz",
]
