"""XXZ chain Hamiltonians for the conditional swap gate, plus their analytics.

Unit convention, used package-wide: every frequency-like parameter is the
plain number f printed on instrument panels and parameter tables, with the
angular frequency being omega = 2*pi*f.  Values are in MHz (or GHz where
noted) and times in microseconds; the single factor of 2*pi is applied here,
once, when Hamiltonian matrices are formed, so matrices are in rad/us.

Chains are built in the interaction picture, except the chain with
three-level controls, whose sideband pair oscillates there: it is built in
the frame exp(-i w n2 t) rotating at the sideband gap w times the number n2
of controls in |2>, where it is static (``build_qutrit_hamiltonian``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
import numpy as np

from .hilbert import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SIGMA_MINUS,
    SIGMA_PLUS,
    OperatorMatrix,
    SiteDims,
    _embedded_sum,
    projector,
)

TWO_PI = 2.0 * np.pi

#: weak target-control coupling of the gate mode: |J2x/J1x| at least this
MIN_COUPLING_RATIO = 5.0


class ModelError(ValueError):
    """Invalid chain parameters."""


@dataclass(frozen=True)
class SpinModelParams:
    """Frequencies and couplings of an N-site XXZ chain (2pi*MHz numbers).

    ``omega[j]`` is the frequency of site j, so N = ``n_sites`` is
    ``len(omega)``; only detunings ``delta_j = omega[j] - omega[0]`` enter
    the interaction-picture Hamiltonian, so builders normally set
    ``omega[0] = 0``.  ``jx[j]`` and ``jz[j]`` couple sites j and j+1.  The
    branch a gate is scored on is ``GateConfig.delta_branch``.
    """

    omega: tuple[float, ...]
    jx: tuple[float, ...]
    jz: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n_sites < 2:
            raise ModelError("need at least two sites")
        if len(self.jx) != self.n_sites - 1 or len(self.jz) != self.n_sites - 1:
            raise ModelError("jx and jz must have one entry per bond")
        object.__setattr__(self, "omega", tuple(float(x) for x in self.omega))
        object.__setattr__(self, "jx", tuple(float(x) for x in self.jx))
        object.__setattr__(self, "jz", tuple(float(x) for x in self.jz))

    @property
    def n_sites(self) -> int:
        return len(self.omega)

    @property
    def detunings(self) -> tuple[float, ...]:
        return tuple(w - self.omega[0] for w in self.omega)

    @property
    def delta(self) -> float:
        """Detuning of site 1 (the single detuning of the symmetric N=4 chain)."""
        return self.omega[1] - self.omega[0]

    @property
    def j1x(self) -> float:
        return self.jx[0]

    @property
    def j1z(self) -> float:
        return self.jz[0]

    @property
    def j2x(self) -> float:
        return self.jx[1]

    @property
    def j2z(self) -> float:
        return self.jz[1]


def symmetric_chain(
    j1x: float,
    j1z: float,
    j2x: float,
    j2z: float,
    delta: float,
) -> SpinModelParams:
    """Spatially symmetric 4-site chain with end-site frequency set to zero
    and control detuning ``delta`` (``delta_for_branch`` on a branch)."""
    return SpinModelParams(
        omega=(0.0, delta, delta, 0.0),
        jx=(j1x, j2x, j1x),
        jz=(j1z, j2z, j1z),
    )


#: the two resonance branches of the 4-site chain's detuning
BRANCHES = ("plus", "minus")


def delta_for_branch(branch: str, j2x: float, j2z: float) -> float:
    """Resonant detuning 2(J2z + J2x) for "plus", 2(J2z - J2x) for "minus"."""
    if branch == "plus":
        return 2.0 * (j2z + j2x)
    if branch == "minus":
        return 2.0 * (j2z - j2x)
    raise ModelError(f"unknown branch {branch!r}")


#: named preparations of the two-site control register, under the names a
#: configuration's ``[grid] control`` uses: name -> amplitudes on
#: |control-1 level, control-2 level>, normalised when used; the open
#: register, all controls in |0>, is spelled for any number of controls by
#: ``metrics.control_state_vector``
REGISTER_STATES: dict[str, dict[tuple[int, int], float]] = {
    "open": {(0, 0): 1.0},
    "closed_plus": {(1, 0): 1.0, (0, 1): 1.0},
    "closed_minus": {(1, 0): 1.0, (0, 1): -1.0},
    "closed_11": {(1, 1): 1.0},
}


@dataclass(frozen=True)
class GateConfig:
    """Detuning branch plus the control-register preparation.

    ``control_state`` is a name of ``REGISTER_STATES``, the names a
    configuration's ``[grid] control`` takes: ``open``, all controls in |0>
    (on any number of controls); ``closed_plus`` / ``closed_minus``, the
    Bell states |1+>_C / |1->_C of the two controls; ``closed_11``.
    """

    delta_branch: str = "plus"
    control_state: str = "open"

    def __post_init__(self) -> None:
        if self.delta_branch not in BRANCHES:
            raise ModelError(f"unknown branch {self.delta_branch!r}")
        if self.control_state not in REGISTER_STATES:
            raise ModelError(f"unknown control state {self.control_state!r}")

    @property
    def is_open(self) -> bool:
        return self.control_state == "open"


def closed_config_for_branch(branch: str) -> GateConfig:
    """The Bell state that stays stationary for the given detuning branch.

    At delta = 2(J2z + J2x) the antisymmetric Bell state mediates the
    transfer, so the symmetric one is the closed switch, and vice versa.
    """
    return GateConfig(delta_branch=branch, control_state=f"closed_{branch}")


# ---------------------------------------------------------------------------
# Hamiltonian construction
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _qubit_terms(n: int) -> tuple[tuple, tuple, MappingProxyType]:
    """The coupling-free terms of an n-qubit chain, built once per length:
    ``Z_j`` per site, ``Z_j Z_j+1`` per bond and the ``XX + YY`` flip-flop
    of every site pair ``(a, b)``, a < b, all read-only."""
    dims = SiteDims((2,) * n)
    z = tuple(_embedded_sum(dims, {j: PAULI_Z}) for j in range(n))
    zz = tuple(_embedded_sum(dims, {j: PAULI_Z, j + 1: PAULI_Z}) for j in range(n - 1))
    flip_flop = {
        (a, b): _embedded_sum(dims, {a: PAULI_X, b: PAULI_X}, {a: PAULI_Y, b: PAULI_Y})
        for a in range(n) for b in range(a + 1, n)
    }
    return z, zz, MappingProxyType(flip_flop)


def build_interaction_hamiltonian(params: SpinModelParams) -> OperatorMatrix:
    """Interaction-picture chain Hamiltonian, in rad/us.

    H = -1/2 sum_j detuning_j Z_j
        + sum_j [ Jx_j (X_j X_j+1 + Y_j Y_j+1) + Jz_j Z_j Z_j+1 ]

    Commutes with the total excitation number.
    """
    n = params.n_sites
    dims = SiteDims((2,) * n)
    z, zz, flip_flop = _qubit_terms(n)
    h = np.zeros((dims.total_dim,) * 2, dtype=complex)
    for j, det in enumerate(params.detunings):
        h += -0.5 * det * z[j]
    for j in range(n - 1):
        h += params.jx[j] * flip_flop[j, j + 1]
        h += params.jz[j] * zz[j]
    return OperatorMatrix(dims, TWO_PI * h)


def add_crosstalk(
    params: SpinModelParams, j_nn: float, j_nnn: float
) -> OperatorMatrix:
    """Chain Hamiltonian with beyond-nearest-neighbor XX(+YY) couplings.

    ``j_nn`` couples sites (0,2) and (1,3); ``j_nnn`` couples the two target
    sites (0,3) directly.  Both preserve total excitation.
    """
    if params.n_sites != 4:
        raise ModelError("crosstalk model is defined for the 4-site chain")
    h = build_interaction_hamiltonian(params)
    _, _, flip_flop = _qubit_terms(4)
    extra = j_nn * flip_flop[0, 2] + j_nn * flip_flop[1, 3] + j_nnn * flip_flop[0, 3]
    return OperatorMatrix(h.dims, h.entries + TWO_PI * extra)


# ---------------------------------------------------------------------------
# Qutrit controls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QutritModelParams:
    """4-site chain with three-level control sites (dims [2, 3, 3, 2]).

    Besides the qubit chain this carries the three frequencies (2pi*MHz)
    the control's second level adds: ``sideband_gap``, the mismatch
    omega2 - omega2' of the 0->1 and 1->2 control transitions, the 1<->2
    swap strength ``r23x`` and the sideband strength ``p23x``.  A circuit's
    ladder coefficients give the last two through ``ladder_strengths``; the
    control is the transmon ladder of Koch et al., Phys. Rev. A 76, 042319
    (2007).
    """

    qubit: SpinModelParams
    sideband_gap: float
    r23x: float
    p23x: float

    def __post_init__(self) -> None:
        if self.qubit.n_sites != 4:
            raise ModelError("qutrit model is defined for the 4-site chain")


def ladder_strengths(j2y: float | np.ndarray, k23x: float | np.ndarray,
                     m23x: float | np.ndarray) -> tuple:
    """The second-level couplings (r23x, p23x) of two coupled controls, from
    the transverse coupling ``j2y`` and the ladder coefficients ``k23x`` and
    ``m23x``: r23x = j2y + k23x + 4 m23x and p23x = j2y + k23x + 2 m23x, on
    floats or elementwise on arrays."""
    return j2y + k23x + 4.0 * m23x, j2y + k23x + 2.0 * m23x


QUTRIT_DIMS = SiteDims((2, 3, 3, 2))


def build_qutrit_hamiltonian(params: QutritModelParams) -> OperatorMatrix:
    """Chain Hamiltonian with qutrit controls, static in its rotating frame.

    In the interaction picture the chain is ``H_s + e^{iwt} S + e^{-iwt} S+``
    with w = 2pi (omega2 - omega2') and S the sideband operator that moves
    one control from |1> to |2> and the other from |1> to |0>.  ``H_s``
    restricts exactly to the qubit Hamiltonian on the two-level subspace of
    each control and commutes with total excitation (counting a control |2>
    as two).  With ``n2`` the number of controls in |2>, ``[H_s, n2] = 0`` and
    ``[n2, S] = S``, so in the frame ``exp(-i w n2 t)`` the chain is the
    returned static

        H' = H_s + w n2 + S + S+.

    The frame acts only on the control sites and is the identity at t = 0,
    and dephasing and control decay are unchanged by it, so reduced target
    dynamics (and the gate fidelity) are the same in either frame.
    """
    q, t = params.qubit, _qutrit_terms()
    h = np.zeros((QUTRIT_DIMS.total_dim,) * 2, dtype=complex)
    h += -0.5 * q.delta * t["detuning"]
    # target-control flip-flop and z coupling (both target bonds, symmetric J1)
    for flip, zz in t["target_bonds"]:
        h += 2.0 * q.j1x * flip
        h += q.j1z * zz
    # control-control z, double-excitation swap, and 0<->1 flip-flop
    h += q.j2z * t["control_zz"]
    h += 2.0 * q.j2z * t["double_swap"]
    h += 2.0 * q.j2x * t["control_flip"]
    # 1<->2 swap between the controls
    h += 4.0 * params.r23x * t["swap_12"]
    # sideband pair, static in the rotating frame
    sideband = 2.0 * np.sqrt(2.0) * params.p23x * t["sideband"]
    h += sideband + sideband.conj().T
    # frame term w n2
    h += params.sideband_gap * t["level2"]
    return OperatorMatrix(QUTRIT_DIMS, TWO_PI * h)


@functools.lru_cache(maxsize=None)
def _qutrit_terms() -> MappingProxyType:
    """The coupling-free terms of ``build_qutrit_hamiltonian``, read-only."""
    p = functools.partial(projector, 3)
    z2, zz3 = p(0, 0) - p(1, 1), p(0, 0) - p(1, 1) - 3.0 * p(2, 2)
    up3, dn3 = p(1, 0), p(0, 1)
    term = functools.partial(_embedded_sum, QUTRIT_DIMS)
    return MappingProxyType({
        "detuning": term({1: z2}, {2: z2}),
        "target_bonds": tuple(
            (term({t: SIGMA_PLUS, c: dn3}, {t: SIGMA_MINUS, c: up3}),
             term({t: PAULI_Z, c: zz3})) for t, c in ((0, 1), (3, 2))),
        "control_zz": term({1: zz3, 2: zz3}),
        "double_swap": term({1: p(2, 0), 2: p(0, 2)}, {1: p(0, 2), 2: p(2, 0)}),
        "control_flip": term({1: dn3, 2: up3}, {1: up3, 2: dn3}),
        "swap_12": term({1: p(2, 1), 2: p(1, 2)}, {1: p(1, 2), 2: p(2, 1)}),
        "sideband": term({1: p(2, 1), 2: dn3}, {1: dn3, 2: p(2, 1)}),
        "level2": term({1: p(2, 2)}, {2: p(2, 2)}),
    })


# ---------------------------------------------------------------------------
# Closed-form single-excitation analysis (N = 4)
# ---------------------------------------------------------------------------

def single_excitation_block(params: SpinModelParams) -> np.ndarray:
    """The chain Hamiltonian restricted to one-excitation states, in rad/us.

    Basis ordering: excitation on site 0, 1, ..., N-1.
    """
    n = params.n_sites
    states = [1 << (n - 1 - k) for k in range(n)]
    return build_interaction_hamiltonian(params).entries[np.ix_(states, states)].real


def analytic_single_excitation_spectrum(
    params: SpinModelParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form energies and eigenvectors of the 4-site one-excitation block.

    The block is bisymmetric, so it splits into a symmetric and an
    antisymmetric 2x2 problem; the four exact levels are (rad/us)

        E = -/+ J2x - delta/2 +/- sqrt(4 J1x^2 + (delta/2 -/+ J2x - J2z)^2)

    Returns energies in the conventional order (antisym-, sym-, antisym+,
    sym+) and the matching normalized eigenvectors as columns.
    """
    if params.n_sites != 4:
        raise ModelError("closed forms apply to the 4-site chain")
    j1x, j2x, j2z, delta = params.j1x, params.j2x, params.j2z, params.delta
    r_anti = np.sqrt(4 * j1x**2 + (delta / 2 - j2x - j2z) ** 2)
    r_sym = np.sqrt(4 * j1x**2 + (delta / 2 + j2x - j2z) ** 2)
    energies = TWO_PI * np.array(
        [
            -j2x - delta / 2 - r_anti,
            +j2x - delta / 2 - r_sym,
            -j2x - delta / 2 + r_anti,
            +j2x - delta / 2 + r_sym,
        ]
    )

    vectors = np.zeros((4, 4))
    for col, (e, parity) in enumerate(
        zip(energies / TWO_PI, (-1.0, +1.0, -1.0, +1.0))
    ):
        x = e + delta - j2z  # middle amplitude relative to end amplitude 2*J1x
        v = np.array([2 * j1x, x, parity * x, parity * 2 * j1x])
        nrm = np.linalg.norm(v)
        if nrm < 1e-30:  # fully decoupled corner case
            v = np.zeros(4)
            v[col] = 1.0
            nrm = 1.0
        vectors[:, col] = v / nrm
    return energies, vectors


def analytic_gate_time(params: SpinModelParams) -> float:
    """Swap period t_g = pi / |2 J1| in microseconds; ``ModelError`` where
    J1 = 0 or where t_g is not finite and positive: |J1| so large that it
    rounds to 0, or so small (subnormal) that it overflows to inf."""
    j1 = params.j1x
    if j1 == 0.0:
        raise ModelError("gate time undefined for J1 = 0")
    t_g = np.pi / abs(2.0 * TWO_PI * j1)
    if not 0.0 < t_g < np.inf:
        raise ModelError(f"gate time pi / |2 J1| is {t_g:g} at J1 = {j1:g}")
    return t_g


# ---------------------------------------------------------------------------
# Five-site variant
# ---------------------------------------------------------------------------

def build_n5_model(
    j1x: float,
    j1z: float,
    j2x: float,
    j2z: float,
    delta3: float,
    branch: str = "E0",
) -> SpinModelParams:
    """Symmetric 5-site chain with the detuning set by the resonance branch.

    ``E0``: delta = 2 J2z (any delta3); transfer is mediated by the
    antisymmetric control state (|100> - |001>)/sqrt(2).  ``Eplus`` and
    ``Eminus``: delta = -2 J2x^2 / (delta3/2 + 2 J2z) + J2z, with the sign of
    the denominator selecting which dressed control state mediates:
    ``Eplus`` needs it negative and ``Eminus`` positive (else
    ``ModelError``, as for a detuning that is not finite).
    """
    if branch == "E0":
        delta = 2.0 * j2z
    elif branch in ("Eplus", "Eminus"):
        den = delta3 / 2.0 + 2.0 * j2z
        plus = branch == "Eplus"
        if den == 0.0 or (den < 0.0) != plus:
            raise ModelError(f"branch {branch} needs delta3/2 + 2 J2z "
                             f"{'<' if plus else '>'} 0, not {den:g}")
        delta = -2.0 * j2x * j2x / den + j2z
        if not math.isfinite(delta):
            raise ModelError(f"the {branch} resonant detuning is not finite")
    else:
        raise ModelError(f"unknown branch {branch!r}")
    return SpinModelParams(
        omega=(0.0, delta, delta3, delta, 0.0),
        jx=(j1x, j2x, j2x, j1x),
        jz=(j1z, j2z, j2z, j1z),
    )


def analytic_n5_spectrum(params: SpinModelParams) -> np.ndarray:
    """Single-excitation levels of the 5-site chain in the J1x -> 0 limit.

    Exact eigenvalues (rad/us) of the one-excitation block with the end bonds
    removed; the J1z Stark shifts are kept.  Ordering: end, dressed+,
    antisymmetric middle, dressed-, end.
    """
    if params.n_sites != 5:
        raise ModelError("five-site closed forms need a 5-site chain")
    delta, delta3 = params.delta, params.omega[2] - params.omega[0]
    j1z, j2x, j2z = params.j1z, params.j2x, params.j2z
    e_end = -delta - delta3 / 2.0 + 2.0 * j2z
    mid = -delta / 2.0 + j1z - j2z
    rad = np.sqrt(8.0 * j2x**2 + (0.5 * (delta - delta3) - j1z + j2z) ** 2)
    e_anti = -delta3 / 2.0
    return TWO_PI * np.array([e_end, mid + rad, e_anti, mid - rad, e_end])
