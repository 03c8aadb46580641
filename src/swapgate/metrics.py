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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import NoiseModel, PropagationError, evolve_stack_raw
from .hilbert import IDENTITY_2, PAULI_X, PAULI_Z, OperatorMatrix, SiteDims
from .spin_model import (
    BRANCHES,
    REGISTER_STATES,
    GateConfig,
    ModelError,
    SpinModelParams,
    analytic_gate_time,
)


def open_gate(branch: str) -> np.ndarray:
    """Ideal open gate in the {|00>, |01>, |10>, |11>} target basis, the
    conditional swap: -1 swap entries on the plus branch, +1 on minus, and
    an i phase on |11> in both cases."""
    if branch not in BRANCHES:
        raise ModelError(f"unknown branch {branch!r}")
    s = -1.0 if branch == "plus" else 1.0
    return np.array(
        [
            [1, 0, 0, 0],
            [0, 0, s, 0],
            [0, s, 0, 0],
            [0, 0, 0, 1j],
        ],
        dtype=complex,
    )


@dataclass(frozen=True)
class FidelityTrace:
    """Average fidelity samples with the located peak."""

    times: tuple[float, ...]
    fbar: tuple[float, ...]
    peak_time: float
    peak_value: float
    peak_on_boundary: bool


# single-qubit factors X^k Z^l in lexicographic (k, l) order, and their 16
# two-qubit products
_PAULI_FACTORS = np.stack([
    (PAULI_X if k else IDENTITY_2) @ (PAULI_Z if l else IDENTITY_2)
    for k in range(2)
    for l in range(2)
])
_PAULI_2Q = np.stack([np.kron(a, b) for a in _PAULI_FACTORS for b in _PAULI_FACTORS])


def control_state_vector(
    config: GateConfig, control_dims: Sequence[int]
) -> np.ndarray:
    """Normalized control-register state over the given control-site dims:
    all controls in |0> when the register is open, for any number of
    controls; a named closed state needs exactly two."""
    v = np.zeros(math.prod(control_dims), dtype=complex)
    if config.is_open:
        v[0] = 1.0
        return v
    if len(control_dims) != 2:
        raise ModelError("closed control states are defined for two control sites")
    d2 = control_dims[1]
    for (i, j), amplitude in REGISTER_STATES[config.control_state].items():
        v[i * d2 + j] = amplitude
    return v / np.linalg.norm(v)


def average_fidelity(
    hamiltonian: OperatorMatrix,
    gate_configs: Sequence[GateConfig],
    noise: NoiseModel | None,
    times: Sequence[float],
) -> list[FidelityTrace]:
    """Average gate fidelity of the chain that ``hamiltonian`` generates
    against each configured target, one trace per entry of ``gate_configs``;
    the arguments follow ``dynamics.propagate``.

    ``hamiltonian.dims`` is the only shape read: the end sites are the
    target qubits, and the middle sites the control register, prepared in
    the configured state and traced out after evolution.  The target is
    ``open_gate`` of the configured branch for an open register, else the
    identity.  All configurations are evolved together by one
    ``dynamics.evolve_stack_raw`` call, one group of functionals each, over
    the levels and coherence-order blocks the initial operators reach.  A
    qutrit-control chain is passed as its rotating-frame generator
    (``build_qutrit_hamiltonian``), whose frame acts only on the traced-out
    controls, so the fidelity is that of the interaction picture.
    """
    if isinstance(gate_configs, GateConfig) or not gate_configs:
        raise TypeError("gate_configs must be a nonempty sequence of GateConfig")
    dims = hamiltonian.dims
    d = dims.total_dim
    n_groups = len(gate_configs)
    # each configuration's 16 initial operators, (first-target factor) x
    # rho_C x (last-target factor), read only by its own group of functionals
    stack = np.empty((16 * n_groups, d, d), dtype=complex)
    weights = np.zeros((n_groups, 16 * n_groups, d, d), dtype=complex)
    for g, config in enumerate(gate_configs):
        cvec = control_state_vector(config, dims[1:-1])
        rows = slice(16 * g, 16 * (g + 1))
        stack[rows] = np.einsum("aik,cl,bjm->abicjklm", _PAULI_FACTORS,
                                np.outer(cvec, cvec.conj()),
                                _PAULI_FACTORS).reshape(16, d, d)
        target = (open_gate(config.delta_branch)
                  if config.is_open else np.eye(4, dtype=complex))
        weights[g, rows] = _target_functionals(target, dims)
    collapse = noise.collapse_operators(dims) if noise is not None else []
    traces = evolve_stack_raw(hamiltonian.entries, collapse, stack, times,
                              functionals=weights)
    return [_checked_trace(np.asarray(times), 0.2 + t.real / 80.0) for t in traces.T]


def _checked_trace(times: np.ndarray, fbar: np.ndarray) -> FidelityTrace:
    """The trace of fidelity samples ``fbar``, checked to lie in [0, 1]
    (``PropagationError`` otherwise), with its refined peak."""
    if not np.all((fbar >= -1e-9) & (fbar <= 1.0 + 1e-9)):
        raise PropagationError(
            f"average fidelity left [0, 1]: range [{fbar.min()}, {fbar.max()}]"
        )
    fbar = np.clip(fbar, 0.0, 1.0)
    k = int(np.argmax(fbar))
    peak_t, peak_f = refine_peak(times, fbar, k)
    return FidelityTrace(
        times=tuple(float(t) for t in times),
        fbar=tuple(float(f) for f in fbar),
        peak_time=peak_t,
        peak_value=peak_f,
        peak_on_boundary=k in (0, len(times) - 1),
    )


def _target_functionals(u: np.ndarray, dims: SiteDims) -> np.ndarray:
    """The 16 operators U U_j+ U+ on the end qubits, lifted by the identity
    on the control sites: Tr(W_j M) = Tr(U U_j+ U+ Tr_controls(M))."""
    c = u @ _PAULI_2Q.conj().transpose(0, 2, 1) @ u.conj().T
    d_ctrl = dims.total_dim // 4
    lifted = np.einsum("jikml,ab->jiakmbl", c.reshape(16, 2, 2, 2, 2),
                       np.eye(d_ctrl))
    return lifted.reshape(16, dims.total_dim, dims.total_dim)


def refine_peak(times: np.ndarray, fbar: np.ndarray, k: int) -> tuple[float, float]:
    """Three-point quadratic refinement around the discrete argmax ``k``.

    The parabola ``f1 + b x + a x^2`` through the samples is fitted in the
    scale-free offset ``x = (t - t1) / h``, ``h = t2 - t1``, which puts the
    samples at ``x0 = (t0 - t1) / h``, 0 and 1: from the chord slopes
    ``g0 = (f0 - f1) / x0`` and ``g2 = f2 - f1``, ``a = (g2 - g0) / (1 - x0)``
    and ``b = g0 - a x0``, so the vertex ``x = -b / 2a`` peaks at
    ``f1 + b x / 2``.  No term grows with t: a fit in absolute times loses
    digits as (t / dt)^2 and overflows far from the origin."""
    if k == 0 or k == len(times) - 1:
        return float(times[k]), float(fbar[k])
    t0, t1, t2 = times[k - 1], times[k], times[k + 1]
    f0, f1, f2 = fbar[k - 1], fbar[k], fbar[k + 1]
    h, x0 = t2 - t1, (t0 - t1) / (t2 - t1)
    g0 = (f0 - f1) / x0
    a = (f2 - f1 - g0) / (1.0 - x0)
    b = g0 - a * x0
    x = -b / (2.0 * a) if a < 0 else np.nan
    if not x0 <= x <= 1.0:  # flat, degenerate or beyond the samples: keep the sample
        return float(t1), float(f1)
    return float(t1 + h * x), float(min(1.0, f1 + b * x / 2.0))


#: first sample of a window from the origin, as a fraction of the gate time
FIRST_SAMPLE = 1e-4
#: (lo, hi) in gate times: a window bracketing the open-gate peak, and one
#: over a whole gate period
OPEN_WINDOW = (0.8, 1.05)
CLOSED_WINDOW = (FIRST_SAMPLE, 1.0)


def gate_window(params: SpinModelParams, lo: float, hi: float, n: int) -> np.ndarray:
    """``n`` sample times from ``lo`` to ``hi`` analytic gate times."""
    tg = analytic_gate_time(params)
    return np.linspace(lo * tg, hi * tg, n)


_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def _operator_entanglement(v: np.ndarray) -> float:
    """Linear entropy 1 - sum p_k^2 of the operator-Schmidt weights
    p_k = s_k^2 / 4, with s_k the singular values of the realigned matrix
    R[(a,c),(b,d)] = V[(a,b),(c,d)]."""
    realigned = v.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    p = np.linalg.svd(realigned, compute_uv=False) ** 2 / 4.0
    return 1.0 - float(np.sum(p**2))


def entanglement_power(u: np.ndarray) -> float:
    """Mean linear entropy generated from Haar-random two-qubit product states.

    Exact, by the closed form of Zanardi, Zalka & Faoro (Phys. Rev. A 62,
    030301(R), 2000): e_p(U) = (4/9) [E(U) + E(U SWAP) - E(SWAP)] with E the
    operator entanglement (``_operator_entanglement``).  Zero for any product
    of local unitaries with SWAP or identity; the conditional swap gate
    gives 1/9 and CNOT 2/9.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4) or np.max(np.abs(u.conj().T @ u - np.eye(4))) > 1e-9:
        raise ValueError("input must be a 4x4 unitary")
    return 4.0 / 9.0 * (_operator_entanglement(u) + _operator_entanglement(u @ _SWAP)
                        - _operator_entanglement(_SWAP))
