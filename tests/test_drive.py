"""Tests for the control-register drive scheme."""

from dataclasses import replace

import numpy as np
import pytest

from swapgate.dynamics import NoiseModel, propagate
from swapgate.hilbert import (
    PAULI_X,
    PAULI_Y,
    DensityMatrix,
    embed_operators,
    excitation_numbers,
    partial_trace,
)
from swapgate.drive import (
    DrivePulse,
    _drive_terms,
    LeakageReport,
    calibrated_pi_pulse,
    control_level_energies,
    drive_hamiltonian,
    leakage_avoidance_check,
    rabi_prepare,
    resonant_drive_frequency,
    superposition_phase,
)
from swapgate.metrics import control_state_vector
from swapgate.spin_model import (
    TWO_PI,
    GateConfig,
    build_interaction_hamiltonian,
    symmetric_chain,
)

ROW6 = dict(j1x=40.9, j1z=40.9, j2x=-540.4, j2z=1007.1, delta=933.4)


def row6_params():
    return symmetric_chain(**ROW6)


@pytest.fixture(scope="module")
def pi_pulse():
    """Resonance-calibrated pulse at A = J2z/50, shared across tests."""
    params = row6_params()
    return calibrated_pi_pulse(params, abs(params.j2z) / 50.0)


def control_sum(op):
    dims = (2, 2, 2, 2)
    return (embed_operators({1: op}, dims) + embed_operators({2: op}, dims)).entries


class TestDriveHamiltonian:
    def test_zero_amplitude_empty(self):
        """At zero amplitude the drive adds only the frame term d N."""
        pulse = DrivePulse(amplitude=0.0, frequency=100.0)
        h = drive_hamiltonian(pulse, (2, 2, 2, 2))
        want = TWO_PI * 100.0 * np.diag(excitation_numbers((2, 2, 2, 2)))
        assert np.max(np.abs(h.entries - want)) < 1e-12

    def test_resonant_in_phase_static_form(self):
        """Zero detuning, zero phase: the drive is (A/2)(Y_2 + Y_3)."""
        a = 8.0
        pulse = DrivePulse(amplitude=a, frequency=0.0)
        h = drive_hamiltonian(pulse, (2, 2, 2, 2))
        want = (TWO_PI * a / 2) * control_sum(PAULI_Y)
        assert np.max(np.abs(h.entries - want)) < 1e-12

    def test_hermitian_at_random_times(self):
        """Rotated back by exp(+i d N t), the frame drive is the single tone
        (A/2)[cos(dt + phi) Y - sin(dt + phi) X], Hermitian at every instant."""
        rng = np.random.default_rng(3)
        pulse = DrivePulse(amplitude=5.0, frequency=321.0, phase=0.7)
        h = drive_hamiltonian(pulse, (2, 2, 2, 2))
        assert np.max(np.abs(h.entries - h.entries.conj().T)) < 1e-12
        d = TWO_PI * pulse.frequency
        n_of = excitation_numbers((2, 2, 2, 2))
        coupling = h.entries - d * np.diag(n_of)
        for t in rng.uniform(0, 1.0, 100):
            r = np.exp(1j * d * n_of * t)
            m = r[:, None] * coupling * r.conj()
            phase = d * t + pulse.phase
            want = (TWO_PI * pulse.amplitude / 2) * (
                np.cos(phase) * control_sum(PAULI_Y)
                - np.sin(phase) * control_sum(PAULI_X)
            )
            assert np.max(np.abs(m - m.conj().T)) < 1e-12
            assert np.max(np.abs(m - want)) < 1e-9

    def test_singlet_is_dark(self):
        """The drive never moves the antisymmetric control state: it is an
        eigenvector of the frame drive (eigenvalue d, from the frame term)."""
        pulse = DrivePulse(amplitude=5.0, frequency=321.0)
        h = drive_hamiltonian(pulse, (2, 2, 2, 2))
        singlet = control_state_vector(
            GateConfig(control_state="closed_1minus"), [2, 2]
        )
        ground = np.array([1.0, 0.0], dtype=complex)
        full = np.kron(np.kron(ground, singlet), ground)
        d = TWO_PI * pulse.frequency
        assert np.linalg.norm(h.entries @ full - d * full) < 1e-12


def kron_drive_hamiltonian(pulse):
    """``drive_hamiltonian`` on four qubits with the tone embedded afresh by
    np.kron and the excitation numbers counted bit by bit."""
    numbers = np.array([bin(i).count("1") for i in range(16)])
    tone = np.cos(pulse.phase) * PAULI_Y - np.sin(pulse.phase) * PAULI_X
    eye = np.eye(2, dtype=complex)
    drive = (np.kron(np.kron(np.kron(eye, tone), eye), eye)
             + np.kron(np.kron(np.kron(eye, eye), tone), eye))
    frame = np.diag(pulse.frequency * numbers).astype(complex)
    return TWO_PI * (frame + 0.5 * pulse.amplitude * drive)


class TestDriveTerms:
    """``drive_hamiltonian`` scales cached, read-only terms; every entry must
    equal the per-call Kronecker build bit for bit."""

    @pytest.mark.parametrize("phase", [0.0, 0.3, np.pi / 2, np.pi])
    def test_matches_kron_build(self, phase):
        for amplitude, frequency in ((8.0, 0.0), (20.1, -321.7), (0.0, 55.5)):
            pulse = DrivePulse(amplitude, frequency, phase)
            h = drive_hamiltonian(pulse, (2, 2, 2, 2)).entries
            assert np.array_equal(h, kron_drive_hamiltonian(pulse))

    def test_tables_are_read_only(self):
        terms = _drive_terms((2, 2, 2, 2))
        assert not any(a.flags.writeable for a in terms)
        with pytest.raises(ValueError):
            terms[0][0] = 5

    def test_consecutive_builds_are_independent(self):
        a = DrivePulse(amplitude=5.0, frequency=321.0, phase=0.7)
        b = DrivePulse(amplitude=-3.0, frequency=12.5, phase=2.1)
        h_a = drive_hamiltonian(a, (2, 2, 2, 2)).entries
        assert np.array_equal(drive_hamiltonian(b, (2, 2, 2, 2)).entries,
                              kron_drive_hamiltonian(b))
        assert np.array_equal(drive_hamiltonian(a, (2, 2, 2, 2)).entries, h_a)
        assert np.array_equal(h_a, kron_drive_hamiltonian(a))


class TestRabiTransfer:
    def test_pi_pulse_transfer(self, pi_pulse):
        """A calibrated pi pulse moves |1+>_C to |0>_C with P >= 0.99."""
        params = row6_params()
        res, = rabi_prepare(params, pi_pulse, (pi_pulse.pi_duration(),))
        assert res.transfer_probability >= 0.99

    def test_half_pulse_superposition(self, pi_pulse):
        """Half a pi pulse leaves (|1+> + i|0>)/sqrt(2) up to free phases."""
        params = row6_params()
        res, = rabi_prepare(params, pi_pulse, (pi_pulse.pi_duration() / 2.0,))
        red = res.control_state_level_frame.entries
        bell = control_state_vector(GateConfig(control_state="closed_1plus"), [2, 2])
        zero = control_state_vector(GateConfig(control_state="open_0"), [2, 2])
        best = 0.0
        for phi in np.linspace(0, 2 * np.pi, 721):
            tv = (bell + 1j * np.exp(1j * phi) * zero) / np.sqrt(2)
            best = max(best, float(np.real(tv.conj() @ red @ tv)))
        assert best >= 0.98
        # the residual phase freedom is a pure drive-frame offset: the level
        # frame already recovers an equal-weight superposition
        p_bell = float(np.real(bell.conj() @ red @ bell))
        p_zero = float(np.real(zero.conj() @ red @ zero))
        assert abs(p_bell - 0.5) < 0.02 and abs(p_zero - 0.5) < 0.02

    def test_off_resonant_drive_transfers_nothing(self, pi_pulse):
        params = row6_params()
        detuned = DrivePulse(
            amplitude=pi_pulse.amplitude,
            frequency=pi_pulse.frequency + 10.0 * pi_pulse.amplitude,
        )
        res, = rabi_prepare(params, detuned, (detuned.pi_duration(),))
        # generalized-Rabi bound: A_R^2 / (A_R^2 + offset^2) with A_R = sqrt(2) A
        bound = 2.0 / (2.0 + 10.0**2)
        assert res.transfer_probability <= bound + 0.03

    def test_singlet_population_constant_under_drive(self, pi_pulse):
        """Start from the triplet: the singlet stays empty through the pulse.

        The drive itself never populates the singlet (its operators
        annihilate it exactly); the full chain admits a second-order channel
        through the end-bond couplings that leaves a tolerance-independent
        residual of a few 1e-7 at this amplitude, which bounds the test.
        Populations are the same in the drive's rotating frame, which is
        where the chain is propagated.
        """
        params = row6_params()
        h0 = build_interaction_hamiltonian(params)
        h = h0 + drive_hamiltonian(pi_pulse, h0.dims)
        bell = control_state_vector(GateConfig(control_state="closed_1plus"), [2, 2])
        ground = np.array([1.0, 0.0], dtype=complex)
        rho0 = DensityMatrix.from_state_vector(
            np.kron(np.kron(ground, bell), ground), h0.dims
        )
        t_end = pi_pulse.pi_duration()
        times = np.linspace(t_end / 5, t_end, 5)
        singlet = control_state_vector(
            GateConfig(control_state="closed_1minus"), [2, 2]
        )
        for st in propagate(rho0, h, None, times):
            red = partial_trace(st, keep_sites=(1, 2))
            pop = float(np.real(singlet.conj() @ red.entries @ singlet))
            assert pop < 1e-6

    def test_rabi_oscillation_frequency(self, pi_pulse):
        """Transfer vs duration oscillates at the collective rate sqrt(2) A."""
        params = row6_params()
        t_pi = pi_pulse.pi_duration()
        durations = np.linspace(t_pi / 8, 2 * t_pi, 16)
        probs = [
            res.transfer_probability
            for res in rabi_prepare(params, pi_pulse, durations)
        ]
        # fit P(t) = sin^2(omega_r t / 2) by scanning the rate
        rates = np.linspace(0.7, 1.3, 601) * np.sqrt(2) * TWO_PI * pi_pulse.amplitude
        errs = [
            np.sum((np.sin(r * durations / 2) ** 2 - probs) ** 2) for r in rates
        ]
        best = rates[int(np.argmin(errs))]
        assert abs(best - np.sqrt(2) * TWO_PI * pi_pulse.amplitude) \
            / (np.sqrt(2) * TWO_PI * pi_pulse.amplitude) < 0.05


class TestDurationGrid:
    """One call samples every duration from a single propagation; each
    sample must equal a call for that duration alone."""

    @pytest.mark.parametrize("gamma", [0.01, 0.0])
    @pytest.mark.parametrize("grid", ["default", "non_uniform"])
    def test_grid_matches_single_durations(self, pi_pulse, gamma, grid):
        """The default drive grid (row 6, A = J2z/50, 25 durations up to
        2 t_pi) and an uneven one, on the Liouvillian (gamma = 0.01) and
        the spectral (gamma = 0) branch."""
        params = row6_params()
        t_pi = pi_pulse.pi_duration()
        if grid == "default":
            durations = np.linspace(t_pi / 25, 2.0 * t_pi, 25)
        else:
            durations = t_pi * np.array([0.05, 0.3, 0.31, 0.9, 1.0, 1.7])
        noise = NoiseModel(gamma=gamma) if gamma else None
        together = rabi_prepare(params, pi_pulse, durations, noise)
        assert len(together) == durations.size
        for t, got in zip(durations, together):
            want, = rabi_prepare(params, pi_pulse, (t,), noise)
            assert abs(got.transfer_probability
                       - want.transfer_probability) < 1e-12
            for frame in ("control_state", "control_state_level_frame"):
                diff = (getattr(got, frame).entries
                        - getattr(want, frame).entries)
                assert np.max(np.abs(diff)) < 1e-12, frame

    @pytest.mark.parametrize("durations", [
        (2e-3, 1e-3), (1e-3, 1e-3), (1e-3, 2e-3, 2e-3), (1e-3, 3e-3, 2e-3),
    ])
    def test_non_increasing_durations_raise(self, pi_pulse, durations):
        with pytest.raises(ValueError):
            rabi_prepare(row6_params(), pi_pulse, durations)


class TestPulsePhase:
    def test_pi_transfer_independent_of_phase(self):
        """A resonant single tone transfers the same population at any phase.

        The phase is a rotation about the excitation number, which commutes
        with the chain, so with the calibrated row-6 pi pulse (A = J2z/20)
        P(open) must agree at phi = 0, pi/4 and pi/2.
        """
        params = row6_params()
        pulse = calibrated_pi_pulse(params, abs(params.j2z) / 20.0)
        probs = [
            rabi_prepare(params, replace(pulse, phase=phi),
                         (pulse.pi_duration(),))[0].transfer_probability
            for phi in (0.0, np.pi / 4, np.pi / 2)
        ]
        assert probs[0] > 0.999
        assert np.ptp(probs) < 1e-9


class TestResonance:
    def test_exact_resonance_includes_target_shift(self):
        """The full-chain transition differs from the bare-register estimate
        by twice the end-bond longitudinal coupling."""
        params = row6_params()
        exact = resonant_drive_frequency(params)
        bare = -(params.delta + 2 * params.j2x - 2 * params.j2z)
        assert exact - bare == pytest.approx(2 * params.j1z, rel=1e-9)

    def test_weak_drive_flag(self):
        pulse = DrivePulse(amplitude=100.0, frequency=50.0)
        assert not pulse.weak_drive_ok(1007.1)
        assert DrivePulse(amplitude=20.0, frequency=50.0).weak_drive_ok(1007.1)


class TestSuperpositionPhase:
    def test_zero_time(self):
        assert superposition_phase(-540.4, 1007.1, 10700.0, 0.0) == 1.0

    def test_pi_rotation(self):
        # choose t so the phase argument is exactly pi
        freq = 10700.0 - 2 * 1007.1 + 2 * (-540.4)
        t = 0.5 / freq
        val = superposition_phase(-540.4, 1007.1, 10700.0, t)
        assert val.real == pytest.approx(-1.0, abs=1e-12)

    def test_row6_arithmetic(self):
        t = 1e-3  # 1 ns in us
        freq = 10700.0 - 2 * 1007.1 + 2 * (-540.4)
        want = np.exp(-1j * TWO_PI * freq * t)
        assert superposition_phase(-540.4, 1007.1, 10700.0, t) == pytest.approx(want)


class TestLeakageCheck:
    def test_row6_not_flagged(self):
        params = row6_params()
        omega2 = 10700.0
        levels = control_level_energies(omega2, params.j2z, params.j2x)
        pulse = DrivePulse(
            amplitude=params.j2z / 50.0,
            frequency=abs(levels[1] - levels[0]),
        )
        rep = leakage_avoidance_check(pulse, levels)
        assert not rep.flagged
        assert rep.detunings["open_to_bell"] < 1e-9

    def test_bracket_energies(self):
        e00, e1p, e11 = control_level_energies(10700.0, 1007.1, -540.4)
        assert e00 == pytest.approx(-10700.0 + 1007.1)
        assert e1p == pytest.approx(-1007.1 + 2 * -540.4)
        assert e11 == pytest.approx(10700.0 + 1007.1)

    def test_engineered_collision_flags(self):
        """Choose omega2 so both transitions coincide: the flag must raise."""
        j2z, j2x = 100.0, 50.0
        # |e1p - e00| = |e11 - e1p| when omega2 - 2 j2z + 2 j2x = omega2 + 2 j2z - 2 j2x
        # impossible unless j2z = j2x; take j2z = j2x so both gaps equal omega2
        j2x = j2z
        levels = control_level_energies(5000.0, j2z, j2x)
        pulse = DrivePulse(amplitude=10.0, frequency=abs(levels[1] - levels[0]))
        rep = leakage_avoidance_check(pulse, levels)
        assert isinstance(rep, LeakageReport)
        assert rep.flagged
