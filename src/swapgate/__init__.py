"""Simulator and analysis toolkit for a chain-mediated conditional swap gate.

Four (or five) XXZ-coupled qubits realize a two-qubit swap between the chain
ends, switched open or closed by the state of the middle control register.
The package builds the chain Hamiltonians, propagates the Lindblad master
equation, scores the realized gate against its analytic targets, maps
superconducting-circuit parameters onto the spin model, drives the control
register, and searches circuit-parameter space for valid gate points.
"""

from .hilbert import (
    DensityMatrix,
    HilbertError,
    OperatorMatrix,
    SiteDims,
    eig_hermitian,
    embed_operators,
    embed_site_operator,
    partial_trace,
)
from .spin_model import (
    GateConfig,
    ModelError,
    QutritModelParams,
    SpinModelParams,
    add_crosstalk,
    analytic_gate_time,
    analytic_n5_spectrum,
    analytic_single_excitation_spectrum,
    build_interaction_hamiltonian,
    build_n5_model,
    build_qutrit_hamiltonian,
    closed_config_for_branch,
    closed_state_eigencheck,
    perfect_transfer_conditions,
    symmetric_chain,
)
from .dynamics import (
    NoiseModel,
    PropagationError,
    propagate,
)
from .metrics import (
    FidelityTrace,
    TargetGate,
    average_fidelity,
    entanglement_power,
    numerical_gate_time,
    pauli_basis_2q,
)
from .circuit_map import (
    CircuitParams,
    SingularCapacitanceError,
    SpinMapResult,
    capacitance_matrix,
    circuit_to_spin,
    drive_amplitude,
    inverse_capacitance,
    table_spin_params,
)
from .drive import (
    DrivePulse,
    drive_hamiltonian,
    leakage_avoidance_check,
    rabi_prepare,
    superposition_phase,
)
from .search import SearchResult, search, validate_solution

__version__ = "0.1.0"

__all__ = [
    "CircuitParams",
    "DensityMatrix",
    "DrivePulse",
    "FidelityTrace",
    "GateConfig",
    "HilbertError",
    "ModelError",
    "NoiseModel",
    "OperatorMatrix",
    "PropagationError",
    "QutritModelParams",
    "SearchResult",
    "SingularCapacitanceError",
    "SiteDims",
    "SpinMapResult",
    "SpinModelParams",
    "TargetGate",
    "add_crosstalk",
    "analytic_gate_time",
    "analytic_n5_spectrum",
    "analytic_single_excitation_spectrum",
    "average_fidelity",
    "build_interaction_hamiltonian",
    "build_n5_model",
    "build_qutrit_hamiltonian",
    "capacitance_matrix",
    "circuit_to_spin",
    "closed_config_for_branch",
    "closed_state_eigencheck",
    "drive_amplitude",
    "drive_hamiltonian",
    "eig_hermitian",
    "embed_operators",
    "embed_site_operator",
    "entanglement_power",
    "inverse_capacitance",
    "leakage_avoidance_check",
    "numerical_gate_time",
    "partial_trace",
    "pauli_basis_2q",
    "perfect_transfer_conditions",
    "propagate",
    "rabi_prepare",
    "search",
    "superposition_phase",
    "symmetric_chain",
    "table_spin_params",
    "validate_solution",
]
