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

from .dynamics import NoiseModel, propagate
from .hilbert import (
    PAULI_X,
    PAULI_Y,
    DensityMatrix,
    OperatorMatrix,
    SiteDims,
    _as_site_dims,
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
    vacuum_energy,
)

#: weak-drive validity threshold: flag unless A <= J2z / 20
WEAK_DRIVE_FRACTION = 1.0 / 20.0
#: frequencies the calibration scans, and their span about the transition (2pi*MHz)
CALIBRATION_POINTS, CALIBRATION_SPAN = 7, 12.0
#: leakage flag: the |1+> -> |11> transition within this many drive amplitudes
LEAKAGE_FLAG_MULTIPLE = 5.0


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

    def weak_drive_ok(self, j2z: float) -> bool:
        return abs(self.amplitude) <= abs(j2z) * WEAK_DRIVE_FRACTION

    def pi_duration(self) -> float:
        """Full-transfer duration pi / (sqrt(2) A), in us."""
        if self.amplitude == 0:
            raise ModelError("pi pulse undefined for zero amplitude")
        return np.pi / (np.sqrt(2.0) * TWO_PI * abs(self.amplitude))


def control_level_energies(
    omega2: float, j2z: float, j2x: float
) -> tuple[float, float, float]:
    """Bare control-register level energies (|00>, |1+>, |11>), 2pi*MHz."""
    return (-omega2 + j2z, -j2z + 2.0 * j2x, omega2 + j2z)


def resonant_drive_frequency(params: SpinModelParams) -> float:
    """Interaction-frame drive frequency that exactly matches the
    |00>_C <-> |1+>_C transition.

    Computed from the full-chain level energies with the target qubits in
    their ground state, so the shift of the vacuum from the target-control
    ZZ couplings is included; the bare-register estimate
    |Omega_2 - 2 J2z + 2 J2x| misses that shift by 2 J1z.
    """
    e_vac = vacuum_energy(params) / TWO_PI
    e_bell = _bell_energy(build_interaction_hamiltonian(params).entries / TWO_PI)
    return e_vac - e_bell


def _bell_energy(h: np.ndarray) -> float:
    """Energy of the symmetric control Bell state, targets in their ground
    state, under the 4-site chain Hamiltonian ``h``."""
    bell = np.zeros(h.shape[0])
    bell[0b0100] = bell[0b0010] = 1.0 / np.sqrt(2.0)
    return float(np.real(bell @ h @ bell))


def drive_hamiltonian(
    pulse: DrivePulse, dims: SiteDims | Sequence[int]
) -> OperatorMatrix:
    """What the drive adds to the chain in its rotating frame, in rad/us.

    ``d N + (A/2) [cos(phi) (Y_2 + Y_3) - sin(phi) (X_2 + X_3)]``: the frame
    term plus the static drive, so that ``H_0 + drive_hamiltonian`` is the
    driven chain in the frame exp(-i d N t).  At zero amplitude only the
    frame term remains.
    """
    dims = _as_site_dims(dims)
    if dims.n_sites != 4 or dims[1] != 2 or dims[2] != 2:
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
    control_state: DensityMatrix          # reduced, interaction-picture frame
    control_state_level_frame: DensityMatrix  # free-evolution phases removed
    transfer_probability: float


def rabi_prepare(
    params: SpinModelParams,
    pulse: DrivePulse,
    durations: Sequence[float] | None = None,
    noise: NoiseModel | None = None,
) -> list[RabiResult]:
    """Drive the four-site chain from the closed register |1+>_C towards the
    open |00>_C and return the reduced control state after each of
    ``durations``, strictly increasing (default: the pi duration alone), all
    sampled from one propagation.

    The targets start in their ground state; ``transfer_probability`` is the
    population of |00>_C.  The chain is propagated in the drive's rotating
    frame (module docstring; dephasing and decay are unchanged by that frame)
    and each sample is traced down to the register and rotated back there,
    rho_C = R_C rho_C' R_C+ with R_C = exp(+i d N_C t): N = N_T + N_C, and
    the targets' share of the frame cancels under their trace.  The
    level-frame copy removes the deterministic free-evolution phases of the
    register levels (the bookkeeping that ``superposition_phase``
    prescribes), so it can be compared directly against ideal superposition
    targets.
    """
    if params.n_sites != 4:
        raise ModelError("state preparation drives the 4-site chain")
    if durations is None:
        durations = (pulse.pi_duration(),)

    h0 = build_interaction_hamiltonian(params)
    h = h0 + drive_hamiltonian(pulse, h0.dims)

    cvec = control_state_vector(GateConfig(control_state="closed_1plus"), [2, 2])
    ground = np.array([1.0, 0.0], dtype=complex)
    full = np.kron(np.kron(ground, cvec), ground)
    rho0 = DensityMatrix.from_state_vector(full, h0.dims)
    states = propagate(rho0, h, noise, durations)

    tvec = control_state_vector(GateConfig(control_state="open_0"), [2, 2])
    numbers = excitation_numbers((2, 2))
    # the free phases: |00>_C rides at the vacuum energy, the symmetric Bell
    # level covers the |01>/|10> sector (the singlet never mixes in), and
    # |11>_C at its exact chain energy with the targets in their ground state
    e_bell = _bell_energy(h0.entries)
    levels = np.array([vacuum_energy(params), e_bell, e_bell,
                       float(np.real(h0.entries[0b0110, 0b0110]))])
    results = []
    for t, state in zip(durations, states):
        reduced = partial_trace(state, keep_sites=(1, 2))
        back = np.exp(1j * TWO_PI * pulse.frequency * t * numbers)
        rho = back[:, None] * reduced.entries * back.conj()
        phases = np.exp(1j * levels * t)
        results.append(RabiResult(
            control_state=DensityMatrix(OperatorMatrix(reduced.dims, rho)),
            control_state_level_frame=DensityMatrix(OperatorMatrix(
                reduced.dims, phases[:, None] * rho * phases.conj())),
            transfer_probability=float(np.real(tvec.conj() @ rho @ tvec)),
        ))
    return results


def calibrated_pi_pulse(params: SpinModelParams, amplitude: float) -> DrivePulse:
    """Resonance-calibrated rectangular pi pulse of the given amplitude.

    Scans the drive frequency over ``+- CALIBRATION_SPAN`` (2pi*MHz) around
    the exact transition and refines the best sample of the transfer
    probability quadratically (``metrics.refine_peak``), the numerical
    analogue of an experimental Rabi calibration; the off-resonant dressing
    of the register levels shifts the optimum by a few 2pi*MHz from the bare
    transition.
    """
    base = resonant_drive_frequency(params)
    freqs = np.linspace(base - CALIBRATION_SPAN, base + CALIBRATION_SPAN,
                        CALIBRATION_POINTS)
    probs = [rabi_prepare(params, DrivePulse(amplitude, f))[0].transfer_probability
             for f in freqs]
    best, _ = refine_peak(freqs, np.array(probs), int(np.argmax(probs)))
    return DrivePulse(amplitude=amplitude, frequency=best)


def superposition_phase(j2x: float, j2z: float, omega2: float, t: float) -> complex:
    """Accumulated phase between the open and closed register states.

    exp(-i (Omega_2 - 2 J2z + 2 J2x) t) with frequencies in 2pi*MHz and t in
    us; applied when evaluating states prepared in a superposition of the
    open and closed switch.
    """
    return complex(np.exp(-1j * TWO_PI * (omega2 - 2.0 * j2z + 2.0 * j2x) * t))


@dataclass(frozen=True)
class LeakageReport:
    detunings: dict[str, float]   # drive offset from each register transition
    flagged: bool
    threshold: float


def leakage_avoidance_check(
    pulse: DrivePulse, level_energies: tuple[float, float, float]
) -> LeakageReport:
    """Offsets of the drive from each register transition, with a proximity flag.

    ``level_energies`` are the (|00>, |1+>, |11>) register energies.  The
    pulse is flagged when the |1+> -> |11> transition sits within
    ``LEAKAGE_FLAG_MULTIPLE`` amplitudes of the drive.
    """
    e00, e1p, e11 = level_energies
    omega = abs(pulse.frequency)
    offsets = {
        "open_to_bell": abs(omega - abs(e1p - e00)),
        "bell_to_double": abs(omega - abs(e11 - e1p)),
        "open_to_double_twophoton": abs(omega - abs(e11 - e00) / 2.0),
    }
    threshold = LEAKAGE_FLAG_MULTIPLE * abs(pulse.amplitude)
    flagged = offsets["bell_to_double"] < threshold
    return LeakageReport(detunings=offsets, flagged=flagged, threshold=threshold)
