"""Simulator and analysis toolkit for a chain-mediated conditional swap gate.

Four (or five) XXZ-coupled qubits realize a two-qubit swap between the chain
ends, switched open or closed by the state of the middle control register.
The package builds the chain Hamiltonians, propagates the Lindblad master
equation, scores the realized gate against its analytic targets, maps
superconducting-circuit parameters onto the spin model, drives the control
register, and searches circuit-parameter space for valid gate points.
"""

from .hilbert import (
    HilbertError,
    OperatorMatrix,
    SiteDims,
    embed_operators,
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
    symmetric_chain,
)
from .dynamics import (
    NoiseModel,
    PropagationError,
    propagate,
)
from .metrics import (
    FidelityTrace,
    average_fidelity,
    entanglement_power,
    open_gate,
)
from .circuit_map import (
    CircuitParams,
    SingularCapacitanceError,
    SpinMapResult,
    capacitance_matrix,
    circuit_to_spin,
    inverse_capacitance,
    table_spin_params,
)
from .drive import DrivePulse, drive_hamiltonian, rabi_prepare
from .search import SearchResult

__version__ = "0.1.0"

__all__ = [
    "CircuitParams",
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
    "drive_hamiltonian",
    "embed_operators",
    "entanglement_power",
    "inverse_capacitance",
    "open_gate",
    "partial_trace",
    "propagate",
    "rabi_prepare",
    "symmetric_chain",
    "table_spin_params",
]
