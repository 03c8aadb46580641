"""Microwave control of the gate register: Rabi preparation of the switch.

A charge drive on both control nodes produces, in the interaction picture,
the single tone

    H_d(t) = (A/2) [ cos(dt + phi) (Y_2 + Y_3) - sin(dt + phi) (X_2 + X_3) ]

with d the drive frequency in the interaction frame (its detuning from the
end-qubit frequency, which that frame rotates at) and phi the pulse phase
(I = cos(phi), Q = sin(phi)).  Each site term is i e^{i(dt + phi)} sigma+ +
h.c., so in the frame exp(-i d N t) that rotates at the detuning times the
total excitation number N, which commutes with the chain, the driven chain
is static:

    H' = H_0 + d N + (A/2) [ cos(phi) (Y_2 + Y_3) - sin(phi) (X_2 + X_3) ].

The drive couples the open register |00>_C to the symmetric Bell state
|1+>_C with collective matrix element A/sqrt(2) (both controls are driven in
phase), so the Rabi angular frequency is sqrt(2) A and a full transfer takes
pi / (sqrt(2) A) in angular units.  The antisymmetric singlet |1->_C has a
vanishing matrix element and never mixes in.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import NoiseModel, PropagationError, evolve_stack_raw, propagate
from .hilbert import (
    PAULI_X,
    PAULI_Y,
    OperatorMatrix,
    SiteDims,
    _embedded_sum,
    excitation_numbers,
    partial_trace,
)
from .metrics import control_state_vector, refine_peak
from .spin_model import (
    TWO_PI,
    GateConfig,
    ModelError,
    SpinModelParams,
    build_interaction_hamiltonian,
)

#: frequencies the calibration scans, and their span about the transition (2pi*MHz)
CALIBRATION_POINTS, CALIBRATION_SPAN = 7, 12.0


@dataclass(frozen=True)
class DrivePulse:
    """A rectangular in-phase/quadrature drive tone on the two control sites.

    ``amplitude`` and ``frequency`` are 2pi*MHz numbers; ``frequency`` is
    measured in the interaction frame, i.e. it is the detuning d from the
    end-qubit frequency.  ``phase`` mixes the in-phase and quadrature
    components, I = cos(phase), Q = sin(phase).
    """

    amplitude: float
    frequency: float
    phase: float = 0.0

    def pi_duration(self) -> float:
        """Full-transfer duration pi / (sqrt(2) A), in us."""
        if self.amplitude == 0:
            raise ModelError("pi pulse undefined for zero amplitude")
        return np.pi / (np.sqrt(2.0) * TWO_PI * abs(self.amplitude))


def resonant_drive_frequency(params: SpinModelParams) -> float:
    """Interaction-frame drive frequency that exactly matches the
    |00>_C <-> |1+>_C transition.

    Computed from the full-chain level energies with the target qubits in
    their ground state, so the shift of the vacuum from the target-control
    ZZ couplings is included; the bare-register estimate
    |Omega_2 - 2 J2z + 2 J2x| misses that shift by 2 J1z.
    """
    return _transition_frequency(_undriven_chain(params)[2])


def _transition_frequency(levels: np.ndarray) -> float:
    """``resonant_drive_frequency`` from the register levels ``_undriven_chain``
    returns."""
    return (levels[0] - levels[1]) / TWO_PI


def drive_hamiltonian(pulse: DrivePulse, dims: Sequence[int]) -> OperatorMatrix:
    """What the drive adds to the chain in its rotating frame, in rad/us.

    ``d N + (A/2) [cos(phi) (Y_2 + Y_3) - sin(phi) (X_2 + X_3)]``: the frame
    term plus the static drive, so that ``H_0 + drive_hamiltonian`` is the
    driven chain in the frame exp(-i d N t).  At zero amplitude only the
    frame term remains.
    """
    dims = SiteDims(dims)
    if len(dims) != 4 or dims[1] != 2 or dims[2] != 2:
        raise ModelError("drive acts on the two qubit control sites of a 4-site chain")
    numbers, y_pair, x_pair = _drive_terms(dims)
    frame = np.diag(pulse.frequency * numbers).astype(complex)
    drive = np.cos(pulse.phase) * y_pair - np.sin(pulse.phase) * x_pair
    return OperatorMatrix(dims, TWO_PI * (frame + 0.5 * pulse.amplitude * drive))


@functools.lru_cache(maxsize=None)
def _drive_terms(dims: SiteDims) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Excitation numbers, ``Y_2 + Y_3`` and ``X_2 + X_3`` of a shape, read-only."""
    numbers = excitation_numbers(dims)
    numbers.flags.writeable = False
    return (numbers, _embedded_sum(dims, {1: PAULI_Y}, {2: PAULI_Y}),
            _embedded_sum(dims, {1: PAULI_X}, {2: PAULI_X}))


@dataclass(frozen=True)
class RabiResult:
    control_state: OperatorMatrix          # reduced, interaction-picture frame
    control_state_level_frame: OperatorMatrix  # free-evolution phases removed
    transfer_probability: float


def rabi_prepare(
    params: SpinModelParams,
    pulse: DrivePulse,
    durations: Sequence[float],
    noise: NoiseModel | None = None,
) -> list[RabiResult]:
    """Drive the four-site chain from the closed register |1+>_C towards the
    open |00>_C and return the reduced control state after each of
    ``durations``, strictly increasing, all sampled from one propagation
    (pass ``(pulse.pi_duration(),)`` for the pi pulse alone).

    The drive starts from |0> |1+>_C |0>, the register's ``closed_plus``
    vector; ``transfer_probability`` is the population of |00>_C, the
    ``[0, 0]`` entry of ``control_state``.  The chain is propagated in the
    drive's rotating frame (module docstring; dephasing and decay are
    unchanged by that frame) and each sample is traced down to the register
    and rotated back there, rho_C = R_C rho_C' R_C+ with
    R_C = exp(+i d N_C t): N = N_T + N_C, and the targets' share of the frame
    cancels under their trace (|00>_C has no excitation, so its population
    is read before the rotation).  The level-frame copy also removes the
    deterministic free-evolution phase of each register level, exp(-i E t)
    at its chain energy E with the targets in their ground state, so it can
    be compared directly against ideal superposition targets.
    """
    h0, start, levels = _undriven_chain(params)
    rho0 = OperatorMatrix(h0.dims, np.outer(start, start.conj()))
    states = propagate(rho0, h0 + drive_hamiltonian(pulse, h0.dims), noise, durations)
    numbers = excitation_numbers((2, 2))
    results = []
    for t, state in zip(durations, states):
        reduced = partial_trace(state, keep_sites=(1, 2))
        back = np.exp(1j * TWO_PI * pulse.frequency * t * numbers)
        rho = back[:, None] * reduced.entries * back.conj()
        phases = np.exp(1j * levels * t)
        results.append(RabiResult(
            control_state=OperatorMatrix(reduced.dims, rho),
            control_state_level_frame=OperatorMatrix(
                reduced.dims, phases[:, None] * rho * phases.conj()),
            transfer_probability=float(np.real(reduced.entries[0, 0])),
        ))
    return results


def _undriven_chain(
    params: SpinModelParams,
) -> tuple[OperatorMatrix, np.ndarray, np.ndarray]:
    """The undriven four-site chain ``h0``, the state ``start`` the drive
    starts from (the closed register |1+>_C with the targets in their ground
    state) and the register levels: the energies (rad/us) of |00>, |01>,
    |10>, |11>_C with the targets in the ground state, read off ``h0``; the
    symmetric Bell level ``start`` covers the |01>/|10> sector, since the
    singlet never mixes in."""
    if params.n_sites != 4:
        raise ModelError("state preparation drives the 4-site chain")
    ground = np.array([1.0, 0.0], dtype=complex)
    bell = control_state_vector(GateConfig(control_state="closed_plus"), [2, 2])
    h0 = build_interaction_hamiltonian(params)
    start = np.kron(np.kron(ground, bell), ground)
    bell_level = np.real(start.conj() @ h0.entries @ start)
    levels = np.array([np.real(h0.entries[0, 0]), bell_level, bell_level,
                       np.real(h0.entries[0b0110, 0b0110])])
    return h0, start, levels


def calibrated_pi_pulse(params: SpinModelParams, amplitude: float) -> DrivePulse:
    """Resonance-calibrated rectangular pi pulse of the given amplitude.

    Scans the drive frequency over ``+- CALIBRATION_SPAN`` (2pi*MHz) around
    the exact transition and refines the best sample of the transfer
    probability quadratically (``metrics.refine_peak``), the numerical
    analogue of an experimental Rabi calibration; the off-resonant dressing
    of the register levels shifts the optimum by a few 2pi*MHz from the bare
    transition.  The chain and its closed-register state are built once,
    and one ``evolve_stack_raw`` call takes all ``CALIBRATION_POINTS``
    frequencies to the pi duration on its generator axis and reads two
    functionals off each state rho: the |00>_C population Tr(P rho), with
    P = 1_T (x) |00><00|_C (x) 1_T the open register's projector (the
    ``[0, 0]`` entry ``rabi_prepare`` reads), and Tr(rho).  Unless the trace
    is 1 within 1e-8 and the population lies in [0, 1] within 1e-9, it
    raises ``PropagationError`` naming the frequency.
    """
    h0, start, levels = _undriven_chain(params)
    base = _transition_frequency(levels)
    freqs = np.linspace(base - CALIBRATION_SPAN, base + CALIBRATION_SPAN,
                        CALIBRATION_POINTS)
    t_pi = DrivePulse(amplitude, base).pi_duration()
    hams = np.stack([h0.entries + drive_hamiltonian(DrivePulse(amplitude, f), h0.dims).entries
                     for f in freqs])
    open_register = np.kron(np.eye(2), np.kron(np.diag([1.0, 0.0, 0.0, 0.0]), np.eye(2)))
    probs, traces = evolve_stack_raw(hams, [], np.outer(start, start.conj())[None], (t_pi,),
                                     np.stack([open_register, np.eye(16)])[:, None])[0].T
    for f, p, tr in zip(freqs, probs.real, traces):
        if not (abs(tr - 1.0) <= 1e-8 and -1e-9 <= p <= 1.0 + 1e-9):
            raise PropagationError(f"calibration at drive frequency {f:.6f}: trace "
                                   f"{tr:.10f}, |00>_C population {p:.10f}")
    best, _ = refine_peak(freqs, probs.real, int(np.argmax(probs.real)))
    return DrivePulse(amplitude=amplitude, frequency=best)
