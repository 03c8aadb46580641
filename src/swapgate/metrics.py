"""Gate scoring: target unitaries, average gate fidelity, entanglement power.

The average fidelity of the realized channel E_t against a two-qubit target
U is the Nielsen form

    Fbar(t) = 1/5 + (1/80) sum_j Tr( U U_j+ U+ E_t(U_j) )

over the 16 products (X_1)^k (Z_1)^l (X_N)^m (Z_N)^n.  E_t acts on operators
of the two target (end) qubits: the operator is embedded together with the
control-register projector, evolved under the full master equation, and the
control sites are traced out.  Linearity of the generator makes this
well-defined for the non-Hermitian basis elements.  The partial trace is
folded into the functional: each term is Tr(W_j rho_j(t)) with W_j the
operator U U_j+ U+ lifted by the identity on the control sites, so the
propagator reads a whole trace off its evolved blocks by one contraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import NoiseModel, evolve_stack_raw
from .hilbert import IDENTITY_2, PAULI_X, PAULI_Z, OperatorMatrix, SiteDims
from .spin_model import (
    GateConfig,
    ModelError,
    QutritModelParams,
    SpinModelParams,
    analytic_gate_time,
    build_interaction_hamiltonian,
    build_qutrit_hamiltonian,
)


class GateTimeWindowError(RuntimeError):
    """The fidelity peak sits on the boundary of the sampled window."""


@dataclass(frozen=True)
class TargetGate:
    """Ideal two-qubit gate in the {|00>, |01>, |10>, |11>} target basis."""

    kind: str
    matrix: np.ndarray

    @classmethod
    def open_gate(cls, branch: str) -> "TargetGate":
        """Conditional swap: -1 swap entries on the plus branch, +1 on minus,
        and an i phase on |11> in both cases."""
        if branch not in ("plus", "minus"):
            raise ModelError(f"unknown branch {branch!r}")
        s = -1.0 if branch == "plus" else 1.0
        m = np.array(
            [
                [1, 0, 0, 0],
                [0, 0, s, 0],
                [0, s, 0, 0],
                [0, 0, 0, 1j],
            ],
            dtype=complex,
        )
        return cls(kind=f"open_{branch}", matrix=m)

    @classmethod
    def closed_gate(cls) -> "TargetGate":
        return cls(kind="closed", matrix=np.eye(4, dtype=complex))

    def is_unitary(self) -> bool:
        m = self.matrix
        return bool(np.max(np.abs(m.conj().T @ m - np.eye(4))) <= 1e-12)


@dataclass(frozen=True)
class FidelityTrace:
    """Average fidelity samples with the located peak."""

    times: tuple[float, ...]
    fbar: tuple[float, ...]
    peak_time: float
    peak_value: float
    peak_on_boundary: bool

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.times), np.asarray(self.fbar)


# single-qubit factors X^k Z^l in lexicographic (k, l) order, and their 16
# two-qubit products
_PAULI_FACTORS = np.stack([
    (PAULI_X if k else IDENTITY_2) @ (PAULI_Z if l else IDENTITY_2)
    for k in range(2)
    for l in range(2)
])
_PAULI_2Q = np.stack([np.kron(a, b) for a in _PAULI_FACTORS for b in _PAULI_FACTORS])


def pauli_basis_2q() -> list[np.ndarray]:
    """The 16 operators (X)^k (Z)^l x (X)^m (Z)^n in lexicographic k,l,m,n order."""
    return list(_PAULI_2Q.copy())


def control_state_vector(
    config: GateConfig, control_dims: Sequence[int]
) -> np.ndarray:
    """Normalized control-register state over the given control-site dims."""
    if config.control_state == "custom":
        v = np.asarray(config.custom_vector, dtype=complex)
        dim = int(np.prod(control_dims))
        if v.shape != (dim,):
            raise ModelError(
                f"custom control vector has length {v.shape}, expected {dim}"
            )
        return v / np.linalg.norm(v)

    if len(control_dims) != 2:
        raise ModelError(
            "named control states are defined for two control sites; "
            "use a custom vector otherwise"
        )
    d1, d2 = control_dims
    dim = d1 * d2

    def basis(i: int, j: int) -> np.ndarray:
        v = np.zeros(dim, dtype=complex)
        v[i * d2 + j] = 1.0
        return v

    if config.control_state == "open_0":
        return basis(0, 0)
    if config.control_state == "closed_1plus":
        return (basis(1, 0) + basis(0, 1)) / np.sqrt(2.0)
    if config.control_state == "closed_1minus":
        return (basis(1, 0) - basis(0, 1)) / np.sqrt(2.0)
    if config.control_state == "closed_11":
        return basis(1, 1)
    raise ModelError(f"unknown control state {config.control_state!r}")


def default_target(config: GateConfig) -> TargetGate:
    """Open gate of the configured branch when the register is open, else identity."""
    return (
        TargetGate.open_gate(config.delta_branch)
        if config.is_open
        else TargetGate.closed_gate()
    )


def average_fidelity(
    model: SpinModelParams | QutritModelParams,
    gate_config: GateConfig,
    noise: NoiseModel | None,
    times: Sequence[float],
    hamiltonian: OperatorMatrix | None = None,
    target: TargetGate | None = None,
) -> FidelityTrace:
    """Average gate fidelity of the chain against the configured target.

    The two end sites are the target qubits; all middle sites form the
    control register, prepared in the configured state and traced out after
    evolution.  ``hamiltonian`` overrides the model-built generator (used for
    cross-talk studies).  The propagator evolves only the levels and
    coherence-order blocks the initial operators reach
    (``dynamics.evolve_stack_raw``).  Qutrit-control models evolve under the
    rotating-frame generator of ``build_qutrit_hamiltonian``; that frame acts
    only on the traced-out controls, so the fidelity is the same as in the
    interaction picture.
    """
    if hamiltonian is None:
        hamiltonian = (
            build_qutrit_hamiltonian(model)
            if isinstance(model, QutritModelParams)
            else build_interaction_hamiltonian(model)
        )
    dims = hamiltonian.dims
    cvec = control_state_vector(gate_config, list(dims.dims[1:-1]))
    rho_c = np.outer(cvec, cvec.conj())
    if target is None:
        target = default_target(gate_config)

    # initial operators: (first-target factor) x rho_C x (last-target factor)
    stack = np.einsum("aik,cl,bjm->abicjklm", _PAULI_FACTORS, rho_c,
                      _PAULI_FACTORS).reshape(16, dims.total_dim, dims.total_dim)
    weights = _target_functionals(target.matrix, dims)
    collapse = noise.collapse_operators(dims) if noise is not None else []
    traces = evolve_stack_raw(hamiltonian.entries, collapse, stack, times,
                              functionals=weights)
    fbar = 0.2 + traces.real / 80.0
    if not np.all((fbar >= -1e-9) & (fbar <= 1.0 + 1e-9)):
        raise RuntimeError(
            f"average fidelity left [0, 1]: range [{fbar.min()}, {fbar.max()}]"
        )
    fbar = np.clip(fbar, 0.0, 1.0)

    k = int(np.argmax(fbar))
    boundary = k in (0, len(times) - 1)
    peak_t, peak_f = _refine_peak(np.asarray(times), fbar, k)
    return FidelityTrace(
        times=tuple(float(t) for t in times),
        fbar=tuple(float(f) for f in fbar),
        peak_time=peak_t,
        peak_value=peak_f,
        peak_on_boundary=boundary,
    )


def _target_functionals(u: np.ndarray, dims: SiteDims) -> np.ndarray:
    """The 16 operators U U_j+ U+ on the end qubits, lifted by the identity
    on the control sites: Tr(W_j M) = Tr(U U_j+ U+ Tr_controls(M))."""
    c = u @ _PAULI_2Q.conj().transpose(0, 2, 1) @ u.conj().T
    d_ctrl = dims.total_dim // 4
    lifted = np.einsum("jikml,ab->jiakmbl", c.reshape(16, 2, 2, 2, 2),
                       np.eye(d_ctrl))
    return lifted.reshape(16, dims.total_dim, dims.total_dim)


def _refine_peak(times: np.ndarray, fbar: np.ndarray, k: int) -> tuple[float, float]:
    """Three-point quadratic refinement around the discrete argmax."""
    if k == 0 or k == len(times) - 1:
        return float(times[k]), float(fbar[k])
    t0, t1, t2 = times[k - 1], times[k], times[k + 1]
    f0, f1, f2 = fbar[k - 1], fbar[k], fbar[k + 1]
    denom = (t0 - t1) * (t0 - t2) * (t1 - t2)
    a = (t2 * (f1 - f0) + t1 * (f0 - f2) + t0 * (f2 - f1)) / denom
    b = (t2**2 * (f0 - f1) + t1**2 * (f2 - f0) + t0**2 * (f1 - f2)) / denom
    if a >= 0:  # flat or degenerate; keep the sample
        return float(t1), float(f1)
    t_star = -b / (2 * a)
    if not (t0 <= t_star <= t2):
        return float(t1), float(f1)
    c = f1 - (a * t1**2 + b * t1)
    return float(t_star), float(min(1.0, a * t_star**2 + b * t_star + c))


def numerical_gate_time(trace: FidelityTrace) -> float:
    """Refined location of the fidelity maximum; rejects boundary peaks."""
    if trace.peak_on_boundary:
        raise GateTimeWindowError(
            "fidelity peak lies on the window boundary; widen the time grid"
        )
    return trace.peak_time


def default_open_window(params: SpinModelParams, n: int = 120) -> np.ndarray:
    """Sample grid bracketing the analytic gate time for peak location."""
    tg = analytic_gate_time(params)
    return np.linspace(0.8 * tg, 1.05 * tg, n)


#: first sample of a window from the origin, as a fraction of the gate time
FIRST_SAMPLE = 1e-4


def closed_window(params: SpinModelParams, n: int = 120) -> np.ndarray:
    """Sample grid over [0, t_g] (first sample at ``FIRST_SAMPLE`` t_g)."""
    tg = analytic_gate_time(params)
    return np.linspace(FIRST_SAMPLE * tg, tg, n)


@dataclass(frozen=True)
class EntanglementPowerEstimate:
    value: float
    std_error: float
    n_samples: int


def entanglement_power(
    u: np.ndarray, n_samples: int = 100_000, seed: int = 0
) -> EntanglementPowerEstimate:
    """Mean linear entropy generated from Haar-random two-qubit product states.

    Zero for any product of local unitaries with SWAP or identity; the
    conditional swap gate gives 1/9.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4) or np.max(np.abs(u.conj().T @ u - np.eye(4))) > 1e-9:
        raise ValueError("input must be a 4x4 unitary")
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_samples, 2)) + 1j * rng.normal(size=(n_samples, 2))
    b = rng.normal(size=(n_samples, 2)) + 1j * rng.normal(size=(n_samples, 2))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    psi = np.einsum("ni,nj->nij", a, b).reshape(n_samples, 4) @ u.T
    psi = psi.reshape(n_samples, 2, 2)
    rho1 = np.einsum("nij,nkj->nik", psi, psi.conj())
    purity = np.einsum("nik,nki->n", rho1, rho1).real
    ent = 1.0 - purity
    se = float(ent.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return EntanglementPowerEstimate(float(ent.mean()), se, n_samples)
