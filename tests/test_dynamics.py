"""Tests for the master-equation propagator."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.sparse import csr_array
from scipy.sparse.linalg import expm_multiply

import swapgate
from swapgate import dynamics
from swapgate.dynamics import (
    NoiseModel,
    PropagationError,
    _LindbladGenerator,
    _reachable_levels,
    evolve_stack_raw,
    propagate,
)
from swapgate.hilbert import (
    DEPHASE_3,
    PAULI_Z,
    SIGMA_MINUS,
    HilbertError,
    OperatorMatrix,
    SiteDims,
    embed_operators,
    excitation_numbers,
    sector_indices,
)
from helpers import ROW6, fidelity_stack, pure_state, textbook_liouvillian
from swapgate.circuit_map import table_qutrit_params, table_spin_params
from swapgate.drive import (
    CALIBRATION_POINTS,
    CALIBRATION_SPAN,
    DrivePulse,
    _undriven_chain,
    drive_hamiltonian,
    resonant_drive_frequency,
)
from swapgate.metrics import control_state_vector
from swapgate.spin_model import (
    TWO_PI,
    GateConfig,
    add_crosstalk,
    analytic_gate_time,
    build_interaction_hamiltonian,
    build_n5_model,
    build_qutrit_hamiltonian,
    closed_config_for_branch,
    symmetric_chain,
)


def qubit_op(matrix):
    return OperatorMatrix(SiteDims((2,)), matrix)


class TestAgainstOracles:
    def test_amplitude_damping_population(self):
        """Excited population decays as exp(-gamma t) under photon loss."""
        gamma = 0.01
        omega = 2.0  # 2pi*MHz; modest so the 100 us horizon stays cheap
        h = qubit_op(-0.5 * TWO_PI * omega * PAULI_Z)
        noise = NoiseModel(gamma=gamma, channels=frozenset({"photon_loss"}))
        rho0 = qubit_op(np.diag([0.0, 1.0]).astype(complex))
        times = np.linspace(1.0, 100.0, 25)
        states = propagate(rho0, h, noise, times)
        for t, st in zip(times, states):
            assert abs(st.entries[1, 1].real - np.exp(-gamma * t)) < 1e-6

    def test_unitary_limit_matches_expm(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h_mat = (a + a.conj().T) * 30.0
        h = OperatorMatrix(SiteDims((2, 2)), h_mat)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho0 = pure_state(psi, (2, 2))
        t_end = 0.02
        out = propagate(rho0, h, None, (t_end,))[-1]
        u = expm(-1j * h_mat * t_end)
        want = u @ rho0.entries @ u.conj().T
        assert np.max(np.abs(out.entries - want)) < 1e-8

    def test_zero_generator_is_identity(self):
        h = OperatorMatrix(SiteDims((2, 2)), np.zeros((4, 4)))
        rng = np.random.default_rng(6)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        rho0 = OperatorMatrix(SiteDims((2, 2)), rho)
        for st in propagate(rho0, h, None, (0.5, 1.0)):
            assert np.max(np.abs(st.entries - rho)) < 1e-10

    def test_jump_with_tiny_off_diagonal_entries_is_applied_whole(self):
        """An off-diagonal entry far below np.allclose's atol still moves
        levels: the jump stays a jump term, so the generator keeps its trace
        and matches the textbook Liouvillian."""
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = a + a.conj().T
        op = np.diag([1.0, -1.0, 0.5, 0.0]).astype(complex)
        op[0, 1] = 5e-9
        stack = random_stack(4, n=2)
        times = np.linspace(0.5, 2.0, 4)
        got = evolve_stack_raw(h, [(1.0, op)], stack, times)
        want = full_space_oracle(h, [(1.0, op)], stack, times)
        assert np.max(np.abs(got - want)) < 1e-12


class TestPhysicalityChecks:
    def test_invariants_enforced_on_gate_model(self):
        params = symmetric_chain(40.9, 40.9, -540.4, 1007.1, 933.4)
        h = build_interaction_hamiltonian(params)
        vec = np.zeros(16, dtype=complex)
        vec[0b1000] = 1.0
        rho0 = pure_state(vec, (2, 2, 2, 2))
        noise = NoiseModel(gamma=0.01)
        tg = 6.112e-3
        times = np.linspace(tg / 10, tg, 10)
        states = propagate(rho0, h, noise, times)  # raises internally if any check fails
        for st in states:
            assert abs(np.trace(st.entries) - 1) < 1e-8
            w = np.linalg.eigvalsh(st.entries)
            assert w.min() > -1e-7

    def test_dimension_mismatch_rejected(self):
        h = OperatorMatrix(SiteDims((2, 2)), np.zeros((4, 4)))
        rho0 = qubit_op(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(Exception):
            propagate(rho0, h, None, (1.0,))

    def test_sample_times_validation(self):
        h = qubit_op(np.zeros((2, 2)))
        rho0 = qubit_op(np.diag([1.0, 0.0]).astype(complex))
        for times in ((0.5, 0.5), (-0.5, 1.0)):
            with pytest.raises(ValueError):
                propagate(rho0, h, None, times)


class TestStateChecks:
    """``propagate`` checks its input within 1e-9 (``HilbertError``) and every
    sample within 1e-8 (``PropagationError``): unit trace, Hermiticity, and
    no eigenvalue below -1e-7."""

    ZERO = qubit_op(np.zeros((2, 2)))

    @pytest.mark.parametrize("rho, match", [
        ([[0.5, 0.1], [0.0, 0.5]], "Hermiticity"),
        ([[0.6, 0.0], [0.0, 0.5]], "trace"),
        ([[1.5, 0.0], [0.0, -0.5]], "negative"),
        ([[np.nan, 0.0], [0.0, 1.0]], "trace"),
    ], ids=["non_hermitian", "wrong_trace", "negative_eigenvalue", "nan"])
    def test_rejects_non_state_rho0(self, rho, match):
        with pytest.raises(HilbertError, match=f"{match}.*initial state"):
            propagate(qubit_op(np.array(rho)), self.ZERO, None, (1.0,))

    @pytest.mark.parametrize("scale, ok", [(0.4, True), (2.0, False)])
    def test_input_tolerances(self, scale, ok):
        """Trace and Hermiticity within 1e-9, eigenvalues above -1e-7."""
        eps = scale * 1e-9
        candidates = [np.diag([0.5 + eps, 0.5]),
                      np.array([[0.5, eps], [0.0, 0.5]]),
                      np.diag([1.0 + 100 * eps, -100 * eps])]
        for rho in candidates:
            if ok:
                propagate(qubit_op(rho), self.ZERO, None, (1.0,))
            else:
                with pytest.raises(HilbertError):
                    propagate(qubit_op(rho), self.ZERO, None, (1.0,))

    @pytest.mark.parametrize("scale, ok", [(0.5, True), (2.0, False)])
    @pytest.mark.parametrize("fault, match", [
        (lambda e: np.diag([0.5 + e, 0.5]), "trace"),
        (lambda e: np.array([[0.5, e], [0.0, 0.5]]), "Hermiticity"),
        (lambda e: np.diag([1.0 + 10 * e, -10 * e]), "negative"),
    ], ids=["trace", "hermiticity", "negative_eigenvalue"])
    def test_checks_every_sample(self, monkeypatch, fault, match, scale, ok):
        """A second sample off by ``scale`` x 1e-8 (1e-7 for the eigenvalue
        floor) passes below the tolerance and raises, naming its time, above."""
        good = np.diag([1.0, 0.0]).astype(complex)
        samples = np.stack([good, fault(scale * 1e-8)])[:, None]
        monkeypatch.setattr(dynamics, "evolve_stack_raw", lambda *args: samples)
        if ok:
            out = propagate(qubit_op(good), self.ZERO, None, (0.1, 0.2))
            assert np.array_equal(out[1].entries, samples[1, 0])
        else:
            with pytest.raises(PropagationError, match=f"{match}.*at t = 2.000e-01"):
                propagate(qubit_op(good), self.ZERO, None, (0.1, 0.2))

    def test_trace_drift_under_loss_in_h(self):
        """A real run that leaves the states: loss written into H."""
        h = qubit_op(np.diag([-0.5j, 0.0]))
        with pytest.raises(PropagationError, match="trace"):
            propagate(qubit_op(np.diag([1.0, 0.0])), h, None, (1.0,))


class TestSuperoperator:
    def test_singleton_matches_propagate(self):
        params = symmetric_chain(30.0, 30.0, 300.0, 300.0, 1200.0)
        h = build_interaction_hamiltonian(params)
        vec = np.zeros(16, dtype=complex)
        vec[0b1000] = 1.0
        rho0 = pure_state(vec, (2, 2, 2, 2))
        noise = NoiseModel(gamma=0.02)
        times = (1e-3, 2e-3)
        single = propagate(rho0, h, noise, times)
        stacked = evolve_stack_raw(h.entries, noise.collapse_operators(h.dims),
                                   rho0.entries[None], times)
        for k in range(2):
            assert np.max(np.abs(single[k].entries - stacked[k][0])) < 1e-9

    def test_linearity_of_the_map(self):
        params = symmetric_chain(30.0, 30.0, 300.0, 300.0, 1200.0)
        h = build_interaction_hamiltonian(params)
        noise = NoiseModel(gamma=0.05)
        rng = np.random.default_rng(8)
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        b = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        alpha, beta = 0.6 - 0.1j, -0.3 + 0.9j
        dims = SiteDims((2, 2, 2, 2))
        ops = np.stack([a, b, alpha * a + beta * b])
        out = evolve_stack_raw(h.entries, noise.collapse_operators(dims), ops,
                               [1.5e-3])[-1]
        combo = alpha * out[0] + beta * out[1]
        assert np.max(np.abs(combo - out[2])) < 1e-8

    def test_completely_mixed_fixed_under_dephasing(self):
        dims = SiteDims((2, 2))
        h = OperatorMatrix(dims, np.zeros((4, 4)))
        noise = NoiseModel(gamma=0.5, channels=frozenset({"dephasing"}))
        rho0 = OperatorMatrix(dims, np.eye(4) / 4)
        out = propagate(rho0, h, noise, (3.0,))[-1]
        assert np.max(np.abs(out.entries - np.eye(4) / 4)) < 1e-9


class TestStructure:
    def test_excitation_sector_populations_conserved_noiselessly(self):
        params = symmetric_chain(40.9, 40.9, -540.4, 1007.1, 933.4)
        h = build_interaction_hamiltonian(params)
        rng = np.random.default_rng(9)
        vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        rho0 = pure_state(vec, (2, 2, 2, 2))
        n_of = excitation_numbers((2, 2, 2, 2))
        pops0 = [
            sum(abs(vec[i] / np.linalg.norm(vec)) ** 2 for i in range(16) if n_of[i] == n)
            for n in range(5)
        ]
        out = propagate(rho0, h, None, (3e-3,))[-1]
        for n in range(5):
            pop = sum(out.entries[i, i].real for i in range(16) if n_of[i] == n)
            assert abs(pop - pops0[n]) < 1e-8

    def test_time_dependent_term_equivalence(self):
        """A term that is time dependent in one frame and static in another
        evolves identically.

        The chain conserves the excitation number N, so H in the frame
        exp(-i w N t) is the static H + w N: propagating that and rotating
        back by exp(+i w N t) reproduces H, with and without noise (the
        dissipator is invariant under the frame).
        """
        params = symmetric_chain(30.0, 30.0, 300.0, 300.0, 1200.0)
        h = build_interaction_hamiltonian(params)
        n_of = excitation_numbers(h.dims)
        w = TWO_PI * 250.0
        h_frame = OperatorMatrix(h.dims, h.entries + w * np.diag(n_of))
        rng = np.random.default_rng(10)
        vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        rho0 = pure_state(vec, (2, 2, 2, 2))
        t_end = 2e-3
        back = np.exp(1j * w * n_of * t_end)
        for noise in (None, NoiseModel(gamma=0.05)):
            out = propagate(rho0, h, noise, (t_end,))[-1].entries
            framed = propagate(rho0, h_frame, noise, (t_end,))[-1].entries
            rotated = back[:, None] * framed * back.conj()
            assert np.max(np.abs(rotated - out)) < 1e-8
            assert np.max(np.abs(framed - out)) > 1e-2  # the frame is not trivial


class TestNoiseModel:
    def test_eight_collapse_operators_for_four_qubits(self):
        ops = NoiseModel(gamma=0.01).collapse_operators((2, 2, 2, 2))
        assert len(ops) == 8

    def test_channel_subsets(self):
        ops = NoiseModel(
            gamma=0.01, channels=frozenset({"dephasing"})
        ).collapse_operators((2, 2))
        assert len(ops) == 2

    def test_operators_are_built_once_and_read_only(self):
        """Each (chain shape, channel) is embedded once; the shared arrays
        reject writes, so no caller can alter another's jump operators."""
        first = NoiseModel(gamma=0.01).collapse_operators((2, 3, 3, 2))
        again = NoiseModel(gamma=0.02).collapse_operators(SiteDims((2, 3, 3, 2)))
        assert [g for g, _ in again] == [0.02] * 8
        assert all(a is b for (_, a), (_, b) in zip(first, again))
        for _, op in first:
            with pytest.raises(ValueError, match="read-only"):
                op[0, 0] = 1.0
        # still the embedded site operators, dephasing first
        assert np.array_equal(first[1][1], embed_operators({1: DEPHASE_3}, (2, 3, 3, 2)).entries)
        assert np.array_equal(first[4][1], embed_operators({0: SIGMA_MINUS}, (2, 3, 3, 2)).entries)

    def test_invalid(self):
        with pytest.raises(ValueError):
            NoiseModel(gamma=-1.0)
        with pytest.raises(ValueError):
            NoiseModel(gamma=0.1, channels=frozenset({"heating"}))

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="finite"):
            NoiseModel(gamma=gamma)

    @pytest.mark.parametrize("channels", [["dephasing"], {"dephasing"}, ("dephasing",)])
    def test_channel_collections_are_stored_frozen(self, channels):
        noise = NoiseModel(gamma=0.01, channels=channels)
        assert type(noise.channels) is frozenset
        assert noise == NoiseModel(gamma=0.01, channels=frozenset({"dephasing"}))
        assert hash(noise) == hash(NoiseModel(0.01, frozenset({"dephasing"})))
        assert len(noise.collapse_operators((2, 2))) == 2

    def test_bare_string_channels_rejected(self):
        with pytest.raises(ValueError, match="not a string"):
            NoiseModel(gamma=0.01, channels="dephasing")


def row6_sector(n_max, gamma):
    """Row-6 chain restricted to excitation <= n_max: (H, collapse, ||H||, t_g)."""
    params = symmetric_chain(**ROW6)
    h = build_interaction_hamiltonian(params)
    keep = sector_indices(h.dims, n_max)
    sub = np.ix_(keep, keep)
    noise = NoiseModel(gamma=gamma).collapse_operators(h.dims) if gamma else []
    collapse = [(g, op[sub]) for g, op in noise]
    return (h.entries[sub], collapse, np.linalg.norm(h.entries, 2),
            analytic_gate_time(params))


def random_stack(d, n=4, seed=21):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    return a / np.linalg.norm(a, axis=(1, 2), keepdims=True)


# the grids read off RK45: 60-sample windows as (n_max, gamma, sector size,
# window in gate times), and more grids of the (2, 0.01) sector in gate times
RK45_WINDOWS = [
    (2, 0.01, 11, (0.8, 1.05)),   # open register, noisy
    (3, 0.0, 15, (1e-3, 1.0)),    # closed_plus sector: a 225x225 generator
    (3, 0.01, 15, (1e-3, 1.0)),
]
RK45_FRACTIONS = [
    np.geomspace(0.01, 0.6, 7),       # non-uniform: one expm per interval
    np.linspace(0.0, 0.6, 7),         # starts at t = 0
    np.array([0.0, 0.1, 0.15, 0.5]),  # both
]


def window_times(window, tg):
    return np.linspace(window[0] * tg, window[1] * tg, 60)


def sector_grids(n_max, gamma, tg):
    """Every sample grid the tests read off the RK45 solve of a sector."""
    grids = [window_times(w, tg) for n, g, _, w in RK45_WINDOWS
             if (n, g) == (n_max, gamma)]
    if (n_max, gamma) == (2, 0.01):
        grids += [f * tg for f in RK45_FRACTIONS]
    return grids


@pytest.fixture(scope="module")
def rk45_reference():
    """(n_max, gamma, times) -> the seed-21 ``random_stack`` of that row-6
    sector at ``times``, by RK45 on the (sparse) textbook Liouvillian, with
    tolerances 1000x tighter than the integrator's defaults (at those, RK45
    itself errs by ~3e-8 on these stacks; here by ~1e-10).  Each sector is
    solved once, from 0 to the end of its last grid with ``t_eval`` the
    union of its grids (``sector_grids``): ``solve_ivp`` reads ``t_eval``
    off its dense output, so a grid's samples match a solve ending at that
    grid's end up to the last, clipped step."""
    solved = {}

    def reference(n_max, gamma, times):
        if (n_max, gamma) not in solved:
            h, collapse, bound, tg = row6_sector(n_max, gamma)
            t_eval = np.unique(np.concatenate(sector_grids(n_max, gamma, tg)))
            stack = random_stack(h.shape[0])
            lv = csr_array(textbook_liouvillian(h, collapse))

            def rhs(t, y):
                return (lv @ y.reshape(len(stack), -1).T).T.ravel()

            sol = solve_ivp(rhs, (0.0, t_eval[-1]), stack.astype(complex).ravel(),
                            t_eval=t_eval, method="RK45", rtol=1e-11, atol=1e-13,
                            max_step=0.05 / bound)
            assert sol.success
            solved[n_max, gamma] = t_eval, sol.y.T.reshape((len(t_eval),) + stack.shape)
        t_eval, samples = solved[n_max, gamma]
        idx = np.searchsorted(t_eval, times)
        assert np.array_equal(t_eval[idx], times)
        return samples[idx]

    return reference


class TestExactPropagator:
    @pytest.mark.parametrize("n_max, gamma, sector, window", RK45_WINDOWS)
    def test_matches_rk45_on_row6(self, rk45_reference, n_max, gamma, sector, window):
        h, collapse, _, tg = row6_sector(n_max, gamma)
        assert h.shape == (sector, sector)
        times = window_times(window, tg)
        stack = random_stack(sector)
        exact = evolve_stack_raw(h, collapse, stack, times)
        ref = rk45_reference(n_max, gamma, times)
        assert np.max(np.abs(exact - ref)) < 1e-9

    @pytest.mark.parametrize("fractions", RK45_FRACTIONS)
    def test_grids_match_rk45(self, rk45_reference, fractions):
        h, collapse, _, tg = row6_sector(2, 0.01)
        times = fractions * tg
        stack = random_stack(h.shape[0])
        exact = evolve_stack_raw(h, collapse, stack, times)
        ref = rk45_reference(2, 0.01, times)
        assert np.max(np.abs(exact - ref)) < 1e-9
        if times[0] == 0.0:
            assert np.array_equal(exact[0], stack)

    @pytest.mark.parametrize("gamma", [0.0, 0.01])
    def test_non_uniform_grid_matches_per_sample_expm(self, gamma):
        """A non-uniform grid: the noiseless branch evaluates every sample
        from the eigendecomposition of H, the noisy one takes one exponential
        per interval; every sample agrees with the Liouvillian exponential
        at its time."""
        h, collapse, _, tg = row6_sector(2, gamma)
        times = np.array([0.05, 0.1, 0.3, 0.35, 0.8]) * tg
        stack = random_stack(h.shape[0])
        got = evolve_stack_raw(h, collapse, stack, times)
        ref = full_space_oracle(h, collapse, stack, times)
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_propagator_is_trace_preserving_and_completely_positive(self):
        h, collapse, _, tg = row6_sector(3, 0.01)
        d = h.shape[0]
        units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)  # |i><j|
        images = evolve_stack_raw(h, collapse, units, [tg / 120])[0]
        # vec(I)+ P = vec(I)+: Tr E(|i><j|) = delta_ij
        traces = np.trace(images, axis1=1, axis2=2)
        assert np.max(np.abs(traces - np.eye(d).ravel())) < 1e-12
        choi = images.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
        assert np.max(np.abs(choi - choi.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(choi).min() >= -1e-10

    def test_conjugation_matches_liouvillian_on_row6_closed_sector(self):
        """Noiseless runs conjugate by exp(-i H t), taken from the
        eigendecomposition of H; the Liouvillian exponential of the same
        generator, taken at each sample time, agrees."""
        h, collapse, _, tg = row6_sector(3, 0.0)
        assert collapse == []
        times = np.linspace(1e-3 * tg, tg, 20)
        stack = random_stack(h.shape[0])
        closed = evolve_stack_raw(h, [], stack, times)
        lv = textbook_liouvillian(h, [])
        rows = stack.reshape(len(stack), -1)
        ref = np.stack([rows @ expm(lv * t).T for t in times])
        assert np.max(np.abs(closed - ref.reshape(closed.shape))) < 1e-12

    def test_rejects_complex_rates(self):
        """Real rates are what make L(X+) = L(X)+, on which the mirror fold
        rests."""
        h, collapse, _, tg = row6_sector(2, 0.01)
        bad = [(g + 1e-3j, op) for g, op in collapse]
        with pytest.raises(ValueError, match="real"):
            evolve_stack_raw(h, bad, random_stack(h.shape[0]), [tg])

    def test_rejects_unordered_times(self):
        h, collapse, _, tg = row6_sector(2, 0.01)
        stack = random_stack(h.shape[0])
        for times in ([2 * tg, tg], [-tg, tg], []):
            with pytest.raises(ValueError):
                evolve_stack_raw(h, collapse, stack, times)

    @pytest.mark.parametrize("gamma", [0.1, 0.0], ids=["liouvillian", "spectral"])
    @pytest.mark.parametrize("stack_shape, w_shape", [
        ((2, 4, 4), (1, 3, 4, 4)),  # a functional row for no operator
        ((2, 4, 4), (2, 4, 4)),     # functionals without a group axis
        ((2, 3, 3), None),          # operators that do not fit H
    ], ids=["extra_rows", "ungrouped", "stack"])
    def test_rejects_mis_shaped_inputs(self, gamma, stack_shape, w_shape):
        """On a 2-site chain, on both branches, before any propagation."""
        h = np.diag([0.0, 1.0, 2.0, 3.0]) + 0.5 * np.eye(4)[::-1]
        collapse = NoiseModel(gamma=gamma).collapse_operators((2, 2))
        stack = np.ones(stack_shape, dtype=complex)
        w = None if w_shape is None else np.ones(w_shape, dtype=complex)
        with pytest.raises(ValueError, match="of shape"):
            evolve_stack_raw(h, collapse, stack, [0.0, 1.0], functionals=w)


def full_space_oracle(h, collapse, stack, times):
    """The stack evolved by expm of the whole space's Liouvillian at each time."""
    lv = textbook_liouvillian(h, collapse)
    rows = stack.reshape(len(stack), -1)
    return np.stack([rows @ expm(lv * t).T for t in times]).reshape(
        (len(times),) + stack.shape)


def register(name):
    """(Hamiltonian, control-register state) of a shipped register."""
    if name == "n5":
        h = build_interaction_hamiltonian(build_n5_model(40.0, 40.0, 500.0, 500.0, 900.0))
        cfg = GateConfig()
    else:
        h = (build_qutrit_hamiltonian(table_qutrit_params(6)) if name.startswith("qutrit_")
             else build_interaction_hamiltonian(symmetric_chain(**ROW6)))
        cfg = {
            "open": GateConfig(control_state="open"),
            "closed_plus": closed_config_for_branch("plus"),
            "closed_minus": closed_config_for_branch("minus"),
            "closed_11": GateConfig(control_state="closed_11"),
        }[name.removeprefix("qutrit_")]
    cvec = control_state_vector(cfg, h.dims[1:-1])
    return h.entries, np.outer(cvec, cvec.conj())


class TestReachableBlocks:
    """Propagation on the reachable levels, block by block, against the
    Liouvillian of the whole space."""

    @pytest.mark.parametrize("name, window", [
        ("open", (0.8, 1.05)),
        ("closed_plus", (1e-3, 1.0)),
    ])
    def test_row6_matches_full_space(self, name, window):
        h, rho_c = register(name)
        collapse = NoiseModel(gamma=0.01).collapse_operators((2, 2, 2, 2))
        tg = analytic_gate_time(symmetric_chain(**ROW6))
        times = np.linspace(window[0] * tg, window[1] * tg, 6)
        stack = fidelity_stack(rho_c)
        got = evolve_stack_raw(h, collapse, stack, times)
        want = full_space_oracle(h, collapse, stack, times)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_qutrit_row6_matches_full_space(self):
        """The whole space's generator is 1296x1296: its action on the 16
        operators is taken by ``expm_multiply`` rather than a dense expm."""
        h, rho_c = register("qutrit_closed_plus")
        collapse = NoiseModel(gamma=0.01).collapse_operators((2, 3, 3, 2))
        t = 0.5 * analytic_gate_time(symmetric_chain(**ROW6))
        stack = fidelity_stack(rho_c)
        got = evolve_stack_raw(h, collapse, stack, [t])[0]
        rows = stack.reshape(len(stack), -1)
        want = expm_multiply(csr_array(textbook_liouvillian(h, collapse)) * t, rows.T).T
        assert np.max(np.abs(got - want.reshape(stack.shape))) < 1e-12

    def test_crosstalk_hamiltonian_matches_full_space(self):
        spin = symmetric_chain(**ROW6)
        h = add_crosstalk(spin, j_nn=0.05 * spin.j1x, j_nnn=0.05 * spin.j1x).entries
        collapse = NoiseModel(gamma=0.01).collapse_operators((2, 2, 2, 2))
        tg = analytic_gate_time(spin)
        times = np.linspace(0.8 * tg, 1.05 * tg, 6)
        _, rho_c = register("closed_minus")
        stack = fidelity_stack(rho_c)
        got = evolve_stack_raw(h, collapse, stack, times)
        want = full_space_oracle(h, collapse, stack, times)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_stack_spanning_every_block_matches_full_space(self):
        h, _ = register("open")
        collapse = NoiseModel(gamma=0.01).collapse_operators((2, 2, 2, 2))
        tg = analytic_gate_time(symmetric_chain(**ROW6))
        times = np.linspace(0.1 * tg, tg, 5)
        stack = random_stack(16, n=3)
        got = evolve_stack_raw(h, collapse, stack, times)
        want = full_space_oracle(h, collapse, stack, times)
        assert np.max(np.abs(got - want)) < 1e-12
        # every coherence order N_row - N_col in [-4, 4] is a block of its own
        blocks = [b for pair in _LindbladGenerator(h, collapse).components()
                  for b in pair if b is not None]
        n_of = excitation_numbers((2, 2, 2, 2))
        order = (n_of[:, None] - n_of[None, :]).ravel()
        assert sorted(tuple(np.unique(order[b])) for b in blocks) == [
            (q,) for q in range(-4, 5)]

    def test_stack_in_one_block_leaves_the_rest_exactly_zero(self):
        h, _ = register("open")
        collapse = NoiseModel(gamma=0.01).collapse_operators((2, 2, 2, 2))
        n_of = excitation_numbers((2, 2, 2, 2))
        in_block = (n_of[:, None] - n_of[None, :]) == 1
        stack = random_stack(16, n=2) * in_block
        tg = analytic_gate_time(symmetric_chain(**ROW6))
        out = evolve_stack_raw(h, collapse, stack, np.linspace(0.1 * tg, tg, 4))
        assert np.all(out[:, :, ~in_block] == 0.0)
        assert np.min(np.abs(out[:, :, in_block])) > 0.0

    def test_functionals_contract_the_evolved_stack(self):
        h, rho_c = register("closed_plus")
        collapse = NoiseModel(gamma=0.05).collapse_operators((2, 2, 2, 2))
        tg = analytic_gate_time(symmetric_chain(**ROW6))
        times = np.linspace(0.1 * tg, tg, 5)
        stack = fidelity_stack(rho_c)
        w = random_stack(16, n=16, seed=4)
        for c in (collapse, []):
            out = evolve_stack_raw(h, c, stack, times)
            traces = evolve_stack_raw(h, c, stack, times, functionals=w[None])[:, 0]
            want = np.einsum("tjab,jba->t", out, w)
            assert np.max(np.abs(traces - want)) < 1e-13

    @pytest.mark.parametrize("gamma", [0.05, 0.0], ids=["liouvillian", "spectral"])
    def test_grouped_functionals_equal_separate_calls(self, gamma):
        """Groups of functionals over one stack give, group by group, the
        traces of one-group calls; a group that reads only one register's
        rows gives the traces of that register's stack evolved alone, though
        the open register reaches fewer levels than the closed one."""
        h, open_rho = register("open")
        _, closed_rho = register("closed_plus")
        collapse = NoiseModel(gamma=gamma).collapse_operators((2, 2, 2, 2))
        tg = analytic_gate_time(symmetric_chain(**ROW6))
        times = np.linspace(0.8 * tg, 1.05 * tg, 5)
        parts = [fidelity_stack(open_rho), fidelity_stack(closed_rho)]
        stack = np.concatenate(parts)
        w = random_stack(16, n=3 * 32, seed=4).reshape(3, 32, 16, 16)
        w[0, 16:] = 0.0  # the open rows only
        w[1, :16] = 0.0  # the closed rows only
        grouped = evolve_stack_raw(h, collapse, stack, times, functionals=w)
        assert grouped.shape == (times.size, 3)
        for g in range(3):
            single = evolve_stack_raw(h, collapse, stack, times, functionals=w[g:g + 1])
            assert np.max(np.abs(grouped[:, g] - single[:, 0])) < 1e-12
        for g, (part, rows) in enumerate(zip(parts, (slice(0, 16), slice(16, 32)))):
            alone = evolve_stack_raw(h, collapse, part, times, functionals=w[g:g + 1, rows])
            assert np.max(np.abs(grouped[:, g] - alone[:, 0])) < 1e-12

    @pytest.mark.parametrize("name", [
        "open", "closed_plus", "closed_minus", "closed_11",
        "qutrit_open", "qutrit_closed_plus", "n5",
    ])
    def test_reachable_levels_are_the_excitation_sector(self, name):
        """Under the shipped noise model the levels a register's fidelity
        stack reaches are those with at most 2 + n_ctrl excitations, n_ctrl
        the largest excitation in the control state."""
        h, rho_c = register(name)
        n_sites = 5 if name == "n5" else 4
        dims = SiteDims((2,) + ((3,) if name.startswith("qutrit") else (2,))
                        * (n_sites - 2) + (2,))
        n_ctrl = int(excitation_numbers(dims[1:-1])[np.diag(rho_c).real > 1e-12].max())
        gen = _LindbladGenerator(h, NoiseModel(gamma=0.01).collapse_operators(dims))
        keep = _reachable_levels(gen, fidelity_stack(rho_c))
        assert np.array_equal(keep, sector_indices(dims, 2 + n_ctrl))


def coherence_orders(dims):
    """N_row - N_col of every level pair."""
    n_of = excitation_numbers(dims)
    return n_of[:, None] - n_of[None, :]


def register_dims(h):
    """Site dimensions of a shipped register's Hamiltonian."""
    return {16: (2, 2, 2, 2), 32: (2, 2, 2, 2, 2), 36: (2, 3, 3, 2)}[h.shape[0]]


class TestMirrorBlocks:
    """The Liouvillian branch: components cached per pattern, each block
    assembled from Heff and the jumps, one evolution per mirror pair on the
    stack rows each block holds."""

    def test_positive_orders_are_evolved_and_negative_ones_mirrored(self):
        h, _ = register("open")
        collapse = NoiseModel(gamma=0.01).collapse_operators((2, 2, 2, 2))
        order = coherence_orders((2, 2, 2, 2)).ravel()
        roles = {}
        for block, mirror in _LindbladGenerator(h, collapse).components():
            roles[tuple(np.unique(order[block]))] = "self" if mirror is None else "evolved"
            if mirror is not None:
                roles[tuple(np.unique(order[mirror]))] = "mirror"
        assert roles == {(q,): "self" if q == 0 else "evolved" if q > 0 else "mirror"
                         for q in range(-4, 5)}

    @pytest.mark.parametrize("orders", [(-1,), (2, -2), (0,)],
                             ids=["mirror_alone", "pair_not_adjoint", "self_mirror_alone"])
    def test_stack_in_chosen_blocks_matches_full_space(self, orders):
        """A stack in a -q block alone comes back through the fold; one in
        +-q whose rows are not adjoints of each other evolves both sides in
        one product; the q = 0 block is its own mirror."""
        h, _ = register("open")
        collapse = NoiseModel(gamma=0.01).collapse_operators((2, 2, 2, 2))
        stack = random_stack(16, n=3) * np.isin(coherence_orders((2, 2, 2, 2)), orders)
        assert not np.allclose(stack, stack.conj().transpose(0, 2, 1))
        tg = analytic_gate_time(symmetric_chain(**ROW6))
        times = np.linspace(0.1 * tg, tg, 5)
        want = full_space_oracle(h, collapse, stack, times)
        got = evolve_stack_raw(h, collapse, stack, times)
        assert np.max(np.abs(got - want)) < 1e-12
        w = random_stack(16, n=3, seed=4)
        traces = evolve_stack_raw(h, collapse, stack, times, functionals=w[None])[:, 0]
        assert np.max(np.abs(traces - np.einsum("tjab,jba->t", want, w))) < 1e-12

    @pytest.mark.parametrize("channels", [
        {"dephasing"}, {"photon_loss"}, {"dephasing", "photon_loss"}],
        ids=["dephasing", "photon_loss", "both"])
    @pytest.mark.parametrize("name", [
        "open", "closed_plus", "qutrit_closed_plus", "n5", "crosstalk"])
    def test_blocks_are_the_restricted_liouvillian(self, name, channels):
        """The blocks partition the kept level pairs, the textbook
        Liouvillian links no two of them, and each assembled block is its
        restriction, whichever channels the jumps come from."""
        if name == "crosstalk":
            spin = symmetric_chain(**ROW6)
            h = add_crosstalk(spin, j_nn=0.05 * spin.j1x, j_nnn=0.05 * spin.j1x).entries
            rho_c = register("closed_minus")[1]
        else:
            h, rho_c = register(name)
        noise = NoiseModel(gamma=0.01, channels=channels)
        collapse = noise.collapse_operators(register_dims(h))
        gen = _LindbladGenerator(h, collapse)
        keep = _reachable_levels(gen, fidelity_stack(rho_c))
        gen.restrict(keep)
        sub = np.ix_(keep, keep)
        lv = textbook_liouvillian(h[sub], [(g, op[sub]) for g, op in collapse])
        blocks = [b for pair in gen.components() for b in pair if b is not None]
        everything = np.arange(keep.size ** 2)
        assert np.array_equal(np.sort(np.concatenate(blocks)), everything)
        for b in blocks:
            rest = np.setdiff1d(everything, b)
            assert not lv[np.ix_(rest, b)].any() and not lv[np.ix_(b, rest)].any()
            assert np.max(np.abs(gen.block(b) - lv[np.ix_(b, b)])) < 1e-12

    def test_raising_jump_links_the_pairs_it_feeds_from(self):
        """Components are weakly connected: with a diagonal H and a raising
        jump, the last pair (1, 1) is linked to (0, 0) only by the jump
        feeding it from there."""
        h = np.diag([0.0, 2.0])
        collapse = [(0.3, SIGMA_MINUS.T.astype(complex)), (0.1, PAULI_Z)]
        stack = random_stack(2, n=2)
        times = np.array([0.5, 1.0, 3.0])
        want = full_space_oracle(h, collapse, stack, times)
        assert np.max(np.abs(evolve_stack_raw(h, collapse, stack, times) - want)) < 1e-12
        w = random_stack(2, n=2, seed=4)
        traces = evolve_stack_raw(h, collapse, stack, times, functionals=w[None])[:, 0]
        assert np.max(np.abs(traces - np.einsum("tjab,jba->t", want, w))) < 1e-12

    def test_components_are_cached_per_pattern_and_read_only(self):
        h, _ = register("open")
        collapse = NoiseModel(gamma=0.01).collapse_operators((2, 2, 2, 2))
        first = _LindbladGenerator(h, collapse).components()
        rescaled = [(2 * g, op) for g, op in collapse]
        assert _LindbladGenerator(0.5 * h, rescaled).components() is first
        for pair in first:
            for index in pair:
                if index is not None:
                    with pytest.raises(ValueError, match="read-only"):
                        index[0] = 0

    def test_a_zero_coupling_gives_components_of_its_own(self):
        """Row 6 with its end couplings off has another pattern: the end
        qubits no longer exchange excitations with the controls, which
        splits the coherence-order blocks; both give the full-space result."""
        collapse = NoiseModel(gamma=0.01).collapse_operators((2, 2, 2, 2))
        tg = analytic_gate_time(symmetric_chain(**ROW6))
        times = np.linspace(0.1 * tg, tg, 5)
        stack = random_stack(16, n=3)
        w = random_stack(16, n=3, seed=4)
        found = []
        for couplings in (ROW6, dict(ROW6, j1x=0.0)):
            h = build_interaction_hamiltonian(symmetric_chain(**couplings)).entries
            found.append(_LindbladGenerator(h, collapse).components())
            want = full_space_oracle(h, collapse, stack, times)
            assert np.max(np.abs(evolve_stack_raw(h, collapse, stack, times) - want)) < 1e-12
            traces = evolve_stack_raw(h, collapse, stack, times, functionals=w[None])[:, 0]
            assert np.max(np.abs(traces - np.einsum("tjab,jba->t", want, w))) < 1e-12
        assert len(found[1]) > len(found[0])


# sample grids in gate times: uniform ones of T samples from 0 and from a
# later start (m = 1 up to T = 3, m = 2 from T = 4, m = 8 at T = 120), and
# a non-uniform one
MIM_GRIDS = [pytest.param(start + np.arange(n) / 100.0, id=f"{n}_from_{start}")
             for n in (1, 2, 3, 7, 8, 9, 120, 121) for start in (0.0, 0.3)]
MIM_GRIDS.append(pytest.param(np.geomspace(0.01, 1.05, 40), id="non_uniform"))


class TestMeetInTheMiddle:
    """Traces against grouped functionals on the Liouvillian branch meet in
    the middle (the states stepped by p^m, the functionals by p); the
    stepped evolution of the whole stack, contracted, is their oracle."""

    @pytest.mark.parametrize("fractions", MIM_GRIDS)
    @pytest.mark.parametrize("case", ["noisy_open", "non_hermitian"])
    def test_traces_match_the_stepped_stack(self, case, fractions):
        """Three groups of functionals, over the open register's fidelity
        stack under noise (its Pauli factors occupy both blocks of the +-1
        coherence-order pairs, so those blocks carry adjoint rows) or over a
        random stack under a noiseless H with loss written into it."""
        h, rho_c = register("open")
        if case == "noisy_open":
            collapse = NoiseModel(gamma=0.01).collapse_operators((2, 2, 2, 2))
            stack = fidelity_stack(rho_c)
        else:
            h = h - 30j * np.diag(excitation_numbers((2, 2, 2, 2)) == 1)
            collapse, stack = [], random_stack(16, n=5)
        times = fractions * analytic_gate_time(symmetric_chain(**ROW6))
        w = random_stack(16, n=3 * len(stack), seed=5).reshape((3,) + stack.shape)
        got = evolve_stack_raw(h, collapse, stack, times, functionals=w)
        stepped = evolve_stack_raw(h, collapse, stack, times)
        want = np.einsum("tjab,gjba->tg", stepped, w)
        assert got.shape == want.shape == (times.size, 3)
        assert np.max(np.abs(got - want)) < 1e-12


class TestSpectralBranch:
    """Noiseless propagation from one eigendecomposition of H, against the
    Liouvillian exponential of the whole space at each sample time."""

    @pytest.mark.parametrize("chain", ["zero_end_coupling", "row6"])
    def test_degenerate_levels_on_non_uniform_grid_from_zero(self, chain):
        """Exactly degenerate levels (four- and eightfold with the end
        couplings off; mirror pairs on row 6) leave the eigenbasis free
        within each level; every sample and the contracted traces agree."""
        couplings = dict(ROW6, j1x=0.0, j1z=0.0) if chain == "zero_end_coupling" else ROW6
        h = build_interaction_hamiltonian(symmetric_chain(**couplings)).entries
        energies = np.linalg.eigvalsh(h)
        assert np.min(np.diff(energies)) < 1e-9 * np.max(np.abs(energies))
        tg = analytic_gate_time(symmetric_chain(**ROW6))
        times = np.array([0.0, 0.05, 0.3, 0.35, 0.8, 1.0]) * tg
        stack = random_stack(16)
        w = random_stack(16, seed=4)
        want = full_space_oracle(h, [], stack, times)
        got = evolve_stack_raw(h, [], stack, times)
        assert np.max(np.abs(got - want)) < 1e-12
        traces = evolve_stack_raw(h, [], stack, times, functionals=w[None])[:, 0]
        assert np.max(np.abs(traces - np.einsum("tjab,jba->t", want, w))) < 1e-12

    def test_non_hermitian_generator_takes_the_liouvillian_branch(self):
        """Loss written into H (-i Gamma on one level) is no Hamiltonian:
        X -> -i (H X - X H+) damps that level's rows and columns."""
        h, _, _, tg = row6_sector(2, 0.0)
        h = h.astype(complex)
        h[3, 3] -= 1j * 200.0
        times = np.array([0.05, 0.1, 0.3, 0.35, 0.8]) * tg
        stack = random_stack(h.shape[0])
        got = evolve_stack_raw(h, [], stack, times)
        want = full_space_oracle(h, [], stack, times)
        assert np.max(np.abs(got - want)) < 1e-12
        trace = np.trace(got, axis1=2, axis2=3)
        assert np.max(np.abs(trace - np.trace(stack, axis1=1, axis2=2))) > 1e-3

    def test_hermitian_within_an_ulp_is_propagated_symmetrised(self):
        h, _, _, tg = row6_sector(3, 0.0)
        h = h.astype(complex)
        i, j = np.argwhere(np.triu(h != 0, k=1))[0]
        h[i, j] = np.nextafter(h[i, j].real, np.inf) + 1j * h[i, j].imag
        assert not np.array_equal(h, h.conj().T)
        sym = (h + h.conj().T) / 2
        times = np.linspace(1e-3 * tg, tg, 7)
        stack = random_stack(h.shape[0])
        got = evolve_stack_raw(h, [], stack, times)
        assert np.array_equal(got, evolve_stack_raw(sym, [], stack, times))
        assert np.max(np.abs(got - full_space_oracle(sym, [], stack, times))) < 1e-12


def calibration_chains():
    """The row-6 drive chains at the ``CALIBRATION_POINTS`` frequencies
    ``calibrated_pi_pulse`` scans (A = 0.05 |J2z|), stacked (K, D, D), the
    closed-register state the drive starts from, as a one-member stack, and
    the pi duration."""
    params = table_spin_params(6)
    h0, start, _ = _undriven_chain(params)
    base = resonant_drive_frequency(params)
    amplitude = 0.05 * abs(params.j2z)
    freqs = np.linspace(base - CALIBRATION_SPAN, base + CALIBRATION_SPAN, CALIBRATION_POINTS)
    hs = np.stack([(h0 + drive_hamiltonian(DrivePulse(amplitude, f), h0.dims)).entries
                   for f in freqs])
    return hs, np.outer(start, start.conj())[None], DrivePulse(amplitude, base).pi_duration()


def row6_j1_chains():
    """Row 6 at three end couplings, the chains of a J1 scan."""
    return np.stack([build_interaction_hamiltonian(symmetric_chain(
        **dict(ROW6, j1x=j1, j1z=j1))).entries
        for j1 in (0.9 * ROW6["j1x"], ROW6["j1x"], 1.1 * ROW6["j1x"])])


class TestGeneratorAxis:
    """A (K, D, D) Hamiltonian evolves one stack under K noiseless Hermitian
    generators in one call, each generator's samples bit for bit those of
    its own call."""

    @pytest.mark.parametrize("fractions", [(1.0,), (0.0, 0.25, 0.5, 1.0)],
                             ids=["pi_pulse", "grid_from_zero"])
    def test_calibration_chains_match_single_calls(self, fractions):
        hs, stack, t_pi = calibration_chains()
        times = t_pi * np.array(fractions)
        out = evolve_stack_raw(hs, [], stack, times)
        assert out.shape == (times.size, CALIBRATION_POINTS) + stack.shape
        for k, h in enumerate(hs):
            assert np.array_equal(out[:, k], evolve_stack_raw(h, [], stack, times))

    @pytest.mark.parametrize("chains", [row6_j1_chains, lambda: calibration_chains()[0]],
                             ids=["row6_j1", "calibration"])
    def test_stacks_and_functionals_match_single_calls(self, chains):
        """The row-6 fidelity stack of the closed register, evolved and
        contracted against three groups of functionals."""
        hs = chains()
        stack = fidelity_stack(register("closed_plus")[1])
        w = random_stack(16, n=3 * 16, seed=4).reshape(3, 16, 16, 16)
        tg = analytic_gate_time(symmetric_chain(**ROW6))
        times = np.linspace(0.8 * tg, 1.05 * tg, 9)
        out = evolve_stack_raw(hs, [], stack, times)
        traces = evolve_stack_raw(hs, [], stack, times, functionals=w)
        assert out.shape == (times.size, len(hs)) + stack.shape
        assert traces.shape == (times.size, len(hs), 3)
        for k, h in enumerate(hs):
            assert np.array_equal(out[:, k], evolve_stack_raw(h, [], stack, times))
            assert np.array_equal(traces[:, k],
                                  evolve_stack_raw(h, [], stack, times, functionals=w))

    def test_levels_are_the_union_of_the_members(self):
        """With its end couplings off, row 6 keeps an end excitation where
        it is and reaches one level alone; stacked with row 6 itself it is
        propagated on the levels row 6 reaches, and both agree with the full
        space."""
        hs = np.stack([build_interaction_hamiltonian(symmetric_chain(
            **dict(ROW6, j1x=j1, j1z=j1))).entries for j1 in (0.0, ROW6["j1x"])])
        vec = np.zeros(16)
        vec[0b1000] = 1.0
        stack = np.outer(vec, vec)[None].astype(complex)
        tg = analytic_gate_time(symmetric_chain(**ROW6))
        times = np.array([0.3, 1.0]) * tg
        reach = [_reachable_levels(_LindbladGenerator(h, []), stack).size for h in hs]
        assert reach[0] == 1 < reach[1] == _reachable_levels(
            _LindbladGenerator(hs, []), stack).size
        got = evolve_stack_raw(hs, [], stack, times)
        for k, h in enumerate(hs):
            assert np.max(np.abs(got[:, k] - full_space_oracle(h, [], stack, times))) < 1e-12

    def test_one_member_is_the_single_call_with_noise_too(self):
        h = build_interaction_hamiltonian(symmetric_chain(**ROW6)).entries
        vec = np.eye(16)[0b1000]
        stack = np.outer(vec, vec)[None].astype(complex)
        times = np.linspace(0.1, 1.0, 4) * analytic_gate_time(symmetric_chain(**ROW6))
        for noise in (None, NoiseModel(gamma=0.01)):
            collapse = noise.collapse_operators((2, 2, 2, 2)) if noise else []
            out = evolve_stack_raw(h[None], collapse, stack, times)
            assert out.shape == (times.size, 1) + stack.shape
            assert np.array_equal(out[:, 0], evolve_stack_raw(h, collapse, stack, times))

    def test_noise_with_several_generators_raises(self):
        hs, stack, t_pi = calibration_chains()
        collapse = NoiseModel(gamma=0.01).collapse_operators((2, 2, 2, 2))
        with pytest.raises(ValueError, match="noiseless only"):
            evolve_stack_raw(hs, collapse, stack, [t_pi])

    def test_non_hermitian_member_raises(self):
        hs, stack, t_pi = calibration_chains()
        hs = hs[:3].copy()
        hs[2, 3, 3] -= 200j
        with pytest.raises(ValueError, match="generator 2 is not Hermitian"):
            evolve_stack_raw(hs, [], stack, [t_pi])

    def test_nan_member_raises(self):
        hs, stack, t_pi = calibration_chains()
        hs = hs[:5].copy()
        hs[4, 0, 0] = np.nan
        with pytest.raises(PropagationError, match="not finite"):
            evolve_stack_raw(hs, [], stack, [t_pi])


# the default experiments whose exponentials are checked against scipy's
EXPONENTIATING = ("trace", "qutrit", "crosstalk", "scan-j2", "drive")


@pytest.fixture(scope="module")
def default_exponentials():
    """Per default experiment in ``EXPONENTIATING``: the arguments it hands
    to ``dynamics.expm`` and the number of blocks ``dynamics._evolve``
    evolves."""
    from swapgate.cli import EXPERIMENTS, default_config, run_experiment

    kinds = {name: kind for kind, (name, _) in EXPERIMENTS.items()}
    expm_, evolve = dynamics.expm, dynamics._evolve
    arguments, blocks = {}, {}
    with pytest.MonkeyPatch.context() as mp:
        for name in EXPONENTIATING:
            seen, evolved = arguments[name], blocks[name] = [], []

            def recorded(a, seen=seen):
                seen.append(a.copy())
                return expm_(a)

            def counted(*args, evolved=evolved, **kwargs):
                evolved.append(args[0].shape[0])
                return evolve(*args, **kwargs)

            mp.setattr(dynamics, "expm", recorded)
            mp.setattr(dynamics, "_evolve", counted)
            run_experiment(default_config(kinds[name]))
    return arguments, blocks


def assert_matches_scipy_expm(a, rtol=1e-13):
    """``dynamics.expm(a)`` against ``scipy.linalg.expm``: the largest entry
    difference over the largest entry."""
    want = expm(a)
    assert np.max(np.abs(dynamics.expm(a) - want)) <= rtol * np.max(np.abs(want))


def damped_generator(d, seed=3):
    """A non-normal d x d Lindblad-like generator at unit 1-norm: -i H for a
    random Hermitian H, minus a random nonnegative diagonal loss."""
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a = -0.5j * (h + h.conj().T) - np.diag(np.abs(rng.normal(size=d)))
    return a / np.abs(a).sum(axis=0).max()


class TestExponential:
    """``dynamics.expm``, scaling and squaring on Pade degrees 3 to 13,
    against scipy's ``expm`` as the oracle."""

    @pytest.mark.parametrize("name", EXPONENTIATING)
    def test_matches_scipy_on_every_default_block(self, default_exponentials, name):
        arguments, _ = default_exponentials
        assert arguments[name]
        for a in arguments[name]:
            assert_matches_scipy_expm(a)

    def test_one_exponential_per_block_on_the_default_drive(self, default_exponentials):
        """The drive samples t_pi k / m, k = 1 ... n, so its grid starts one
        step in and the step's exponential also reaches the first sample."""
        arguments, blocks = default_exponentials
        assert blocks["drive"]
        assert len(arguments["drive"]) == len(blocks["drive"])
        assert max(blocks["drive"]) == 256  # the noisy 256-wide block among them

    @pytest.mark.parametrize("a", [
        np.zeros((4, 4), dtype=complex),
        np.array([[-0.3 + 2.0j]]),
        1e-3 * damped_generator(6),
    ] + [
        side * theta * damped_generator(6)
        for theta in [theta for _, theta, _ in dynamics._PADE] + [dynamics._THETA_13]
        for side in (1 - 1e-6, 1 + 1e-6)
    ] + [
        # a 6 x 6 Jordan block: non-normal, nilpotent part of order 6
        12.0 * (np.eye(6, k=1) - np.eye(6)),
    ], ids=lambda a: f"norm{np.abs(a).sum(axis=0).max():.6g}")
    def test_matches_scipy(self, a):
        assert_matches_scipy_expm(a)

    def test_matches_scipy_at_a_large_norm(self):
        """At 1e3 theta_13 the two algorithms agree only as far as the
        exponential's conditioning allows, which is at least ||A|| (Van Loan,
        SIAM J. Numer. Anal. 14, 971, 1977): relative to the largest entry,
        within ||A||_1 unit roundoffs, about 1.2e-12 here."""
        a = 1e3 * dynamics._THETA_13 * damped_generator(6)
        assert_matches_scipy_expm(a, rtol=np.abs(a).sum(axis=0).max() * np.finfo(float).eps)

    @pytest.mark.parametrize("a", [
        np.full((3, 3), np.nan + 0j),
        np.diag([np.inf, 1.0, 1.0]),
        # finite, but its sixth power leaves the float range
        1e60 * (np.eye(3) + np.eye(3, k=1)),
    ], ids=["nan", "inf", "sixth_power_overflows"])
    def test_refuses_what_it_cannot_exponentiate(self, a):
        with pytest.raises(PropagationError, match="non-finite entries"):
            dynamics.expm(a)


class TestNonFiniteGuard:
    def test_nan_rate_raises_instead_of_integrating(self):
        h, collapse, _, tg = row6_sector(2, 0.01)
        bad = [(float("nan"), op) for _, op in collapse]
        with pytest.raises(PropagationError):
            evolve_stack_raw(h, bad, random_stack(h.shape[0]), [tg])

    def test_nan_hamiltonian_raises_on_conjugation_branch(self):
        h, _, _, tg = row6_sector(2, 0.0)
        h = h.copy()
        h[0, 0] = float("nan")
        with pytest.raises(PropagationError):
            evolve_stack_raw(h, [], random_stack(h.shape[0]), [tg])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_propagator_raises(self):
        # a non-Hermitian "Hamiltonian" with gain: exp(2000 t) overflows at t = 1
        h = np.array([[1000j]])
        with pytest.raises(PropagationError, match="non-finite"):
            evolve_stack_raw(h, [], np.ones((1, 1, 1)), [1.0])

    @pytest.mark.parametrize("times", [
        [0.1, float("nan"), 0.3], [float("nan"), 0.2], [0.1, float("inf")],
    ])
    def test_non_finite_sample_time_raises(self, times):
        """NaN compares false, so the ordering check alone let it through and
        the run then blamed its own result."""
        h, collapse, _, _ = row6_sector(2, 0.01)
        with pytest.raises(PropagationError, match="sample times are not finite"):
            evolve_stack_raw(h, collapse, random_stack(h.shape[0]), times)


class TestPackage:
    def test_superoperator_entry_point_is_gone(self):
        """Stacked evolution has one entry point, ``evolve_stack_raw``."""
        from swapgate import dynamics

        assert "propagate_superoperator" not in swapgate.__all__
        assert "propagate_superoperator" not in vars(dynamics)
        with pytest.raises(AttributeError, match="evolve_stack_raw"):
            dynamics.propagate_superoperator()

    def test_import_loads_no_scipy(self):
        """scipy is a test oracle only (RK45, expm, Nelder-Mead), and the
        command line runs on the standard library: importing the package and
        its command line loads no scipy and no click module."""
        src = str(Path(swapgate.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, swapgate, swapgate.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('scipy', 'click')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_runs_without_scipy(self, tmp_path):
        """With scipy and click unimportable, the default trace, drive and
        scan-j2 run through the command line and exit 0 (``main`` returns)."""
        src = str(Path(swapgate.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys\n"
                "sys.modules['scipy'] = sys.modules['click'] = None\n"
                "from swapgate.cli import main\n"
                "for command in ('trace', 'drive', 'scan-j2'):\n"
                "    try:\n"
                "        main([command, '--out', sys.argv[1] + '/' + command + '.csv'])\n"
                "        print(command, 0)\n"
                "    except SystemExit as exc:\n"
                "        print(command, exc.code)\n")
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                             check=True, capture_output=True, text=True).stdout
        assert [line for line in out.splitlines() if not line.startswith("wrote ")] == [
            "trace 0", "drive 0", "scan-j2 0"]
