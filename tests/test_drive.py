"""Tests for the control-register drive scheme."""

from dataclasses import replace

import numpy as np
import pytest

import swapgate.drive
import swapgate.dynamics
from helpers import ROW6, kron_embed, pure_state
from swapgate.circuit_map import table_spin_params
from swapgate.cli import _noise_from_section, parse_config_text, resolve_config, run_experiment
from swapgate.dynamics import NoiseModel, PropagationError, propagate
from swapgate.hilbert import (
    PAULI_X,
    PAULI_Y,
    embed_operators,
    excitation_numbers,
    partial_trace,
)
from swapgate.drive import (
    CALIBRATION_POINTS,
    CALIBRATION_SPAN,
    DrivePulse,
    _drive_terms,
    _undriven_chain,
    calibrated_pi_pulse,
    drive_hamiltonian,
    rabi_prepare,
    resonant_drive_frequency,
)
from swapgate.metrics import control_state_vector, refine_peak
from swapgate.spin_model import (
    TWO_PI,
    GateConfig,
    ModelError,
    build_interaction_hamiltonian,
    build_n5_model,
    symmetric_chain,
)


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
            GateConfig(control_state="closed_minus"), [2, 2]
        )
        ground = np.array([1.0, 0.0], dtype=complex)
        full = np.kron(np.kron(ground, singlet), ground)
        d = TWO_PI * pulse.frequency
        assert np.linalg.norm(h.entries @ full - d * full) < 1e-12

    def test_rejects_qutrit_controls(self):
        with pytest.raises(ModelError, match="two qubit control sites"):
            drive_hamiltonian(DrivePulse(amplitude=5.0, frequency=321.0), (2, 3, 3, 2))


def kron_drive_hamiltonian(pulse):
    """``drive_hamiltonian`` on four qubits with the tone embedded afresh by
    np.kron and the excitation numbers counted bit by bit."""
    numbers = np.array([bin(i).count("1") for i in range(16)])
    tone = np.cos(pulse.phase) * PAULI_Y - np.sin(pulse.phase) * PAULI_X
    drive = kron_embed({1: tone}, (2,) * 4) + kron_embed({2: tone}, (2,) * 4)
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
    def test_refuses_zero_amplitude_and_other_chains(self):
        """A pulse without amplitude has no pi duration, and the preparation
        and its calibration drive the four-site chain only."""
        with pytest.raises(ModelError, match="zero amplitude"):
            DrivePulse(amplitude=0.0, frequency=100.0).pi_duration()
        five = build_n5_model(40.0, 40.0, 500.0, 500.0, 900.0)
        with pytest.raises(ModelError, match="4-site chain"):
            rabi_prepare(five, DrivePulse(amplitude=20.0, frequency=100.0), (1e-3,))
        with pytest.raises(ModelError, match="4-site chain"):
            calibrated_pi_pulse(five, 20.0)

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
        bell = control_state_vector(GateConfig(control_state="closed_plus"), [2, 2])
        zero = control_state_vector(GateConfig(control_state="open"), [2, 2])
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
        bell = control_state_vector(GateConfig(control_state="closed_plus"), [2, 2])
        ground = np.array([1.0, 0.0], dtype=complex)
        rho0 = pure_state(
            np.kron(np.kron(ground, bell), ground), h0.dims
        )
        t_end = pi_pulse.pi_duration()
        times = np.linspace(t_end / 5, t_end, 5)
        singlet = control_state_vector(
            GateConfig(control_state="closed_minus"), [2, 2]
        )
        for st in propagate(rho0, h, None, times):
            red = partial_trace(st, keep_sites=(1, 2))
            pop = float(np.real(singlet.conj() @ red.entries @ singlet))
            assert pop < 1e-6

    @pytest.mark.parametrize("gamma", [0.0, 0.01])
    def test_transfer_is_the_open_entry_of_the_control_state(self, pi_pulse, gamma):
        """``transfer_probability`` is the |00>_C population of the reduced
        state, which the rotation back to the lab frame leaves unchanged (the
        noisy propagation leaves ~1e-15 of imaginary part on the diagonal)."""
        t_pi = pi_pulse.pi_duration()
        noise = NoiseModel(gamma=gamma) if gamma else None
        results = rabi_prepare(row6_params(), pi_pulse,
                               np.linspace(t_pi / 20, 2 * t_pi, 20), noise)
        for res in results:
            assert abs(res.transfer_probability
                       - res.control_state.entries[0, 0].real) < 1e-15

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
        """The default drive grid (row 6, A = J2z/50, the 25 durations
        t_pi k / 13) and an uneven one, on the Liouvillian (gamma = 0.01)
        and the spectral (gamma = 0) branch."""
        params = row6_params()
        t_pi = pi_pulse.pi_duration()
        if grid == "default":
            durations = t_pi * (np.arange(1, 26) / 13)
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


class TestCalibration:
    """``calibrated_pi_pulse`` builds the chain once and reads every
    frequency's population and trace off one ``evolve_stack_raw`` call, on
    its generator axis; every population must be ``rabi_prepare``'s."""

    def test_populations_match_rabi_prepare(self, monkeypatch):
        """Table row 6 at A = 0.05 |J2z|: the seven scanned populations, and
        the refined frequency against its value before the single build."""
        params = table_spin_params(6)
        amplitude = 0.05 * abs(params.j2z)
        scans = []

        def spy(x, y, i):
            scans.append((x, y))
            return refine_peak(x, y, i)

        monkeypatch.setattr(swapgate.drive, "refine_peak", spy)
        pulse = calibrated_pi_pulse(params, amplitude)
        (freqs, probs), = scans
        assert len(freqs) == CALIBRATION_POINTS
        for f, p in zip(freqs, probs):
            pulse_f = DrivePulse(amplitude, f)
            want, = rabi_prepare(params, pulse_f, (pulse_f.pi_duration(),))
            assert abs(p - want.transfer_probability) < 1e-12
        assert pulse.frequency == pytest.approx(2246.691162633637, rel=1e-9)

    @pytest.mark.parametrize("column, value, shown", [
        (1, 1.0 + 1e-6, "trace 1.0000010000"),
        (0, 1.1, "population 1.1000000000"),
    ], ids=["trace", "population"])
    def test_checks_what_it_reads(self, monkeypatch, column, value, shown):
        """A trace off 1 by 1e-6, or a population of 1.1, at the fourth
        frequency raises, naming that frequency."""
        params = row6_params()

        def faulty(*args):
            out = swapgate.dynamics.evolve_stack_raw(*args)
            out[0, 3, column] = value
            return out

        monkeypatch.setattr(swapgate.drive, "evolve_stack_raw", faulty)
        base = resonant_drive_frequency(params)
        want = np.linspace(base - CALIBRATION_SPAN, base + CALIBRATION_SPAN,
                           CALIBRATION_POINTS)[3]
        with pytest.raises(PropagationError, match=f"frequency {want:.6f}: .*{shown}"):
            calibrated_pi_pulse(params, abs(params.j2z) / 50.0)


def drive_config(n_durations, gamma):
    return resolve_config(parse_config_text(
        f"experiment = drive_demo\n[model]\nrow = 6\n[noise]\ngamma = {gamma}\n"
        f"[grid]\namplitude_fraction = 0.05\nn_durations = {n_durations}\n"))


class TestDriveExperimentCost:
    """The drive experiment propagates twice: one ``evolve_stack_raw`` call
    reads the calibration's functionals at all its frequencies, and one
    ``propagate`` takes the register along the grid, which holds the pi
    pulse; it builds the chain once for the calibration and once for the
    grid."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"propagate": 0, "evolve_stack_raw": 0, "build_interaction_hamiltonian": 0}
        for name in counts:
            real = getattr(swapgate.drive, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(swapgate.drive, name, counted)
        return counts

    @pytest.mark.parametrize("n_durations, gamma", [(1, 0.0), (3, 0.01), (25, 0.01)])
    def test_pi_pulse_read_off_the_grid(self, counts, n_durations, gamma):
        """The grid t_pi k / m, m = ceil(n / 2), holds t_pi at row m: the
        summary's pi duration and transfer are that row's, and agree with
        the pi pulse propagated alone."""
        cfg = drive_config(n_durations, gamma)
        rec = run_experiment(cfg)
        assert counts == {"propagate": 1, "evolve_stack_raw": 1,
                          "build_interaction_hamiltonian": 2}
        m = -(-n_durations // 2)
        assert len(rec.rows) == n_durations
        assert rec.rows[m - 1] == (rec.summary["pi_duration_us"],
                                   rec.summary["pi_transfer_probability"])
        params = table_spin_params(6)
        pulse = DrivePulse(rec.summary["amplitude_mhz"], rec.summary["frequency_mhz"])
        t_pi = pulse.pi_duration()
        assert rec.summary["pi_duration_us"] == t_pi
        want, = rabi_prepare(params, pulse, (t_pi,), _noise_from_section(cfg["noise"]))
        assert abs(rec.summary["pi_transfer_probability"]
                   - want.transfer_probability) < 1e-12


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
        """The weak-drive condition A <= J2z/20: at its edge the calibrated pi
        pulse transfers and keeps |11>_C empty; at A = J2z it leaks."""
        params = row6_params()
        populations = []
        for amplitude in (abs(params.j2z) / 20.0, abs(params.j2z)):
            pulse = calibrated_pi_pulse(params, amplitude)
            res, = rabi_prepare(params, pulse, (pulse.pi_duration(),))
            populations.append((res.transfer_probability,
                                float(np.real(res.control_state.entries[3, 3]))))
        (weak_transfer, weak_leak), (strong_transfer, strong_leak) = populations
        assert weak_transfer >= 0.999 and weak_leak < 1e-4
        assert strong_transfer < 0.99 and strong_leak > 5e-3


def double_population(results):
    """The largest |11>_C population over the samples of ``rabi_prepare``."""
    return max(float(np.real(r.control_state.entries[3, 3])) for r in results)


class TestSuperpositionPhase:
    """The level frame removes the free phase between the open and closed
    register, exp(-i 2pi f t) at the exact transition frequency f: the
    |00><1+| coherence of the level frame is that of the drive frame times
    exp(+i 2pi f t)."""

    @staticmethod
    def coherence_ratio(params, pulse, t):
        res, = rabi_prepare(params, pulse, (t,))
        return (res.control_state_level_frame.entries[0, 1]
                / res.control_state.entries[0, 1])

    def test_zero_time(self, pi_pulse):
        res, = rabi_prepare(row6_params(), pi_pulse, (0.0,))
        assert np.array_equal(res.control_state_level_frame.entries,
                              res.control_state.entries)

    def test_pi_rotation(self, pi_pulse):
        """Half a period of the transition frequency flips the coherence."""
        params = row6_params()
        t = 0.5 / resonant_drive_frequency(params)
        assert self.coherence_ratio(params, pi_pulse, t) == pytest.approx(-1.0, abs=1e-12)

    def test_row6_arithmetic(self, pi_pulse):
        params = row6_params()
        t = 1e-3  # 1 ns in us
        want = np.exp(1j * TWO_PI * resonant_drive_frequency(params) * t)
        assert self.coherence_ratio(params, pi_pulse, t) == pytest.approx(want, abs=1e-12)


class TestLeakageCheck:
    def test_row6_not_flagged(self, pi_pulse):
        """The calibrated row-6 pulse sits on the |00> <-> |1+> transition and
        leaves |11>_C empty over two pi durations."""
        params = row6_params()
        assert abs(pi_pulse.frequency - resonant_drive_frequency(params)) < CALIBRATION_SPAN
        t_pi = pi_pulse.pi_duration()
        results = rabi_prepare(params, pi_pulse, np.linspace(t_pi / 10, 2 * t_pi, 20))
        assert double_population(results) < 1e-4

    def test_bracket_energies(self):
        """With the targets decoupled the register levels the level frame
        uses are the bare (|00>, |1+>, |11>) energies (-d + J2z,
        -J2z + 2 J2x, d + J2z) at control detuning d."""
        params = symmetric_chain(0.0, 0.0, -540.4, 1007.1, 933.4)
        _, _, levels = _undriven_chain(params)
        want = (-933.4 + 1007.1, -1007.1 + 2 * -540.4, 933.4 + 1007.1)
        assert levels[1] == levels[2]
        assert np.allclose(levels[[0, 1, 3]] / TWO_PI, want, rtol=1e-12)

    def test_engineered_collision_flags(self):
        """With J2z = J2x the |1+> -> |11> gap equals the |00> <-> |1+> gap,
        so the drive that opens the register also fills |11>_C."""
        j2 = 100.0
        params = symmetric_chain(0.0, 0.0, j2, j2, 2000.0)
        pulse = DrivePulse(amplitude=10.0, frequency=resonant_drive_frequency(params))
        t_pi = pulse.pi_duration()
        results = rabi_prepare(params, pulse, np.linspace(t_pi / 10, 3 * t_pi, 30))
        assert double_population(results) > 0.4
