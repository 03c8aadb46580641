"""Tests for gate targets, average fidelity, and entanglement power."""

import numpy as np
import pytest
from scipy.linalg import expm

from swapgate.circuit_map import table_qutrit_params
from swapgate.dynamics import NoiseModel, evolve_stack_raw
from swapgate.hilbert import PAULI_Z, OperatorMatrix, SiteDims, partial_trace
from swapgate.metrics import (
    CLOSED_WINDOW,
    FIRST_SAMPLE,
    OPEN_WINDOW,
    FidelityTrace,
    GateTimeWindowError,
    average_fidelity,
    control_state_vector,
    entanglement_power,
    gate_window,
    numerical_gate_time,
    open_gate,
    pauli_basis_2q,
    refine_peak,
)
from swapgate.spin_model import (
    GateConfig,
    ModelError,
    add_crosstalk,
    analytic_gate_time,
    build_interaction_hamiltonian,
    build_qutrit_hamiltonian,
    closed_config_for_branch,
    symmetric_chain,
)

ROW6 = dict(j1x=40.9, j1z=40.9, j2x=-540.4, j2z=1007.1, delta=933.4)

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def full_space_fbar(h, collapse, cvec, target, times):
    """Fbar read from the whole space: the 16 initial operators evolved by
    expm of the full Liouvillian (vec(A X B) = (A kron B^T) vec(X)), or by
    conjugation with expm(-i H t) when there is no noise, then reduced with
    ``hilbert.partial_trace``."""
    dims = h.dims
    eye = np.eye(dims.total_dim)
    lv = -1j * (np.kron(h.entries, eye) - np.kron(eye, h.entries.T))
    for g, a in collapse:
        ada = a.conj().T @ a
        lv = lv + g * (np.kron(a, a.conj()) - 0.5 * np.kron(ada, eye)
                       - 0.5 * np.kron(eye, ada.T))

    x = np.array([[0, 1], [1, 0]])
    factors = [np.eye(2), PAULI_Z, x, x @ PAULI_Z]  # X^k Z^l, (k, l) order
    rho_c = np.outer(cvec, cvec.conj())
    stack = [np.kron(np.kron(a, rho_c), b) for a in factors for b in factors]
    fbar = []
    for t in times:
        if collapse:
            prop = expm(lv * t)
            evolved = [(prop @ op.ravel()).reshape(op.shape) for op in stack]
        else:
            u = expm(-1j * h.entries * t)
            evolved = [u @ op @ u.conj().T for op in stack]
        acc = 0.0
        for p, m in zip(pauli_basis_2q(), evolved):
            reduced = partial_trace(OperatorMatrix(dims, m), (0, 3)).entries
            acc += np.trace(target @ p.conj().T @ target.conj().T @ reduced).real
        fbar.append(0.2 + acc / 80.0)
    return np.array(fbar)


def fbar_formula(target, channel_of):
    """Direct evaluation of the average-fidelity sum for a callable channel."""
    total = 0.0
    for u_j in pauli_basis_2q():
        a = target @ u_j.conj().T @ target.conj().T
        total += np.trace(a @ channel_of(u_j)).real
    return 0.2 + total / 80.0


class TestPauliBasis:
    def test_first_elements(self):
        basis = pauli_basis_2q()
        assert np.allclose(basis[0], np.eye(4))
        x = np.array([[0, 1], [1, 0]])
        assert np.allclose(basis[8], np.kron(x, np.eye(2)))  # (k,l,m,n) = (1,0,0,0)

    def test_unitary_and_trace_orthogonal(self):
        basis = pauli_basis_2q()
        assert len(basis) == 16
        for i, u in enumerate(basis):
            assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
            for j, v in enumerate(basis):
                want = 4.0 if i == j else 0.0
                assert abs(np.trace(u.conj().T @ v) - want) < 1e-12


class TestTargets:
    def test_open_targets(self):
        plus = open_gate("plus")
        minus = open_gate("minus")
        assert plus[1, 2] == plus[2, 1] == -1
        assert minus[1, 2] == minus[2, 1] == 1
        assert plus[3, 3] == minus[3, 3] == 1j
        for u in (plus, minus):
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12

    def test_unknown_branch_rejected(self):
        with pytest.raises(ModelError, match="unknown branch"):
            open_gate("sideways")

    @pytest.mark.parametrize("cfg, want", [
        (closed_config_for_branch("plus"), np.eye(4)),
        (GateConfig(delta_branch="minus", control_state="open_0"), open_gate("minus")),
    ], ids=["closed_is_identity", "open_is_open_gate"])
    def test_default_target(self, cfg, want):
        params = symmetric_chain(**ROW6)
        times = np.linspace(0.2, 0.4, 3) * analytic_gate_time(params)
        default, = average_fidelity(params, [cfg], None, times)
        explicit, = average_fidelity(params, [cfg], None, times, targets=[want])
        assert default.fbar == explicit.fbar


class TestFidelityFormula:
    def test_perfect_gate_scores_unity(self):
        for branch in ("plus", "minus"):
            u = open_gate(branch)
            val = fbar_formula(u, lambda rho: u @ rho @ u.conj().T)
            assert val == pytest.approx(1.0, abs=1e-12)

    def test_identity_channel_against_trace_oracle(self):
        """Fbar of the do-nothing channel, computed two independent ways."""
        u = open_gate("plus")
        direct = fbar_formula(u, lambda rho: rho)
        oracle = 0.2 + sum(
            np.trace(u @ b.conj().T @ u.conj().T @ b).real
            for b in pauli_basis_2q()
        ) / 80.0
        assert direct == pytest.approx(oracle, abs=1e-12)
        # the same number must come out of the full machinery at t ~ 0
        params = symmetric_chain(**ROW6)
        tg = analytic_gate_time(params)
        cfg = GateConfig(delta_branch="plus", control_state="open_0")
        trace, = average_fidelity(params, [cfg], None, [tg * 1e-7])
        assert trace.fbar[0] == pytest.approx(oracle, abs=1e-5)

    def test_swap_channel_against_open_target(self):
        """A plain swap misses the -1 and i phases, so Fbar stays below 1."""
        u = open_gate("plus")
        val = fbar_formula(u, lambda rho: SWAP @ rho @ SWAP.conj().T)
        assert 0.3 < val < 0.9


class TestChannelMapConsistency:
    def test_linear_extension_equals_process_tomography(self):
        """Evolving the 16 basis operators equals reconstructing the channel
        from physical preparation states, on a random small channel."""
        rng = np.random.default_rng(12)
        dims = SiteDims((2, 2))
        h_mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h_mat = (h_mat + h_mat.conj().T) * 50.0
        h = OperatorMatrix(dims, h_mat)
        noise = NoiseModel(gamma=0.4)
        t_end = 2e-3
        collapse = noise.collapse_operators(dims)

        basis = pauli_basis_2q()
        direct = evolve_stack_raw(h.entries, collapse, np.stack(basis), [t_end])[-1]

        # tomography route: evolve matrix units via physical combinations
        def ket(i):
            v = np.zeros(4, dtype=complex)
            v[i] = 1.0
            return v

        prep_states = {}
        for i in range(4):
            prep_states[(i, i, "d")] = np.outer(ket(i), ket(i).conj())
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                p1 = (ket(i) + ket(j)) / np.sqrt(2)
                p2 = (ket(i) + 1j * ket(j)) / np.sqrt(2)
                prep_states[(i, j, "p")] = np.outer(p1, p1.conj())
                prep_states[(i, j, "q")] = np.outer(p2, p2.conj())
        evolved = {}
        keys = list(prep_states)
        stacked = evolve_stack_raw(
            h.entries, collapse, np.stack([prep_states[k] for k in keys]), [t_end]
        )[-1]
        for k, out in zip(keys, stacked):
            evolved[k] = out

        def evolved_unit(i, j):
            if i == j:
                return evolved[(i, i, "d")]
            return (
                evolved[(i, j, "p")]
                + 1j * evolved[(i, j, "q")]
                - (1 + 1j) / 2 * (evolved[(i, i, "d")] + evolved[(j, j, "d")])
            )

        units = {(i, j): evolved_unit(i, j) for i in range(4) for j in range(4)}
        u_tgt = open_gate("plus")
        fbar_direct = 0.2 + sum(
            np.trace(u_tgt @ basis[m].conj().T @ u_tgt.conj().T @ direct[m]).real
            for m in range(16)
        ) / 80.0
        reconstructed = []
        for b in basis:
            acc = np.zeros((4, 4), dtype=complex)
            for i in range(4):
                for j in range(4):
                    acc += b[i, j] * units[(i, j)]
            reconstructed.append(acc)
        fbar_tomo = 0.2 + sum(
            np.trace(u_tgt @ basis[m].conj().T @ u_tgt.conj().T @ reconstructed[m]).real
            for m in range(16)
        ) / 80.0
        assert fbar_direct == pytest.approx(fbar_tomo, abs=1e-8)


class TestGateSimulation:
    def test_row6_open_peak_and_target_discrimination(self):
        """The plus-branch chain realizes the -1 swap with the i phase."""
        params = symmetric_chain(**ROW6)
        tg = analytic_gate_time(params)
        cfg = GateConfig(delta_branch="plus", control_state="open_0")
        times = np.linspace(0.85 * tg, 1.05 * tg, 41)
        trace, = average_fidelity(params, [cfg], None, times)
        assert trace.peak_value > 0.985
        assert 0.9 * tg < trace.peak_time < 1.0 * tg
        # conjugate phase and opposite swap sign must both score far lower
        wrong_phase = open_gate("plus").conj()
        tr2, = average_fidelity(params, [cfg], None, times, targets=[wrong_phase])
        assert tr2.peak_value < 0.7
        tr3, = average_fidelity(
            params, [cfg], None, times, targets=[open_gate("minus")]
        )
        assert tr3.peak_value < 0.7

    def test_numerical_gate_time_five_percent_early(self):
        """At strong control coupling the peak sits ~5% before pi/|2 J1|."""
        p = symmetric_chain(30.0, 30.0, 750.0, 750.0, 3000.0,
                            detuning_choice="plus")
        tg = analytic_gate_time(p)
        cfg = GateConfig(delta_branch="plus", control_state="open_0")
        trace, = average_fidelity(p, [cfg], None, gate_window(p, *OPEN_WINDOW, 120))
        ratio = numerical_gate_time(trace) / tg
        assert 0.93 <= ratio <= 0.97

    def test_restricted_equals_full_space(self):
        """The propagator's reachable blocks give the fidelity of the whole
        space, here for the row-6 chain with cross-talk and noise."""
        params = symmetric_chain(**ROW6)
        tg = analytic_gate_time(params)
        cfg = closed_config_for_branch("minus")
        noise = NoiseModel(gamma=0.01)
        times = np.linspace(0.2 * tg, 0.4 * tg, 5)
        h = add_crosstalk(params, j_nn=0.05 * params.j1x, j_nnn=0.02 * params.j1x)
        trace, = average_fidelity(params, [cfg], noise, times, hamiltonian=h)
        want = full_space_fbar(h, noise.collapse_operators(h.dims),
                               control_state_vector(cfg, [2, 2]), np.eye(4), times)
        assert np.max(np.abs(np.array(trace.fbar) - want)) < 1e-12

    def test_fbar_stays_in_unit_interval(self):
        params = symmetric_chain(**ROW6)
        tg = analytic_gate_time(params)
        cfg = GateConfig(delta_branch="plus", control_state="open_0")
        noise = NoiseModel(gamma=0.05)
        trace, = average_fidelity(
            params, [cfg], noise, np.linspace(0.1 * tg, tg, 13)
        )
        assert all(0.0 <= f <= 1.0 for f in trace.fbar)


class TestBatchedConfigs:
    """Several register preparations on one generator, from one propagation,
    against one call per preparation."""

    @pytest.mark.parametrize("gamma", [0.0, 0.01])
    @pytest.mark.parametrize("case", ["row6_scan_point", "crosstalk"])
    def test_batch_equals_per_config_calls(self, case, gamma):
        params = symmetric_chain(**ROW6)
        window = gate_window(params, *OPEN_WINDOW, 20)
        noise = NoiseModel(gamma=gamma) if gamma else None
        if case == "row6_scan_point":
            configs = [GateConfig(delta_branch="plus", control_state="open_0"),
                       closed_config_for_branch("plus")]
            h = None
        else:
            configs = [GateConfig(delta_branch="plus", control_state=state)
                       for state in ("open_0", "closed_1plus", "closed_1minus")]
            h = add_crosstalk(params, j_nn=0.05 * params.j1x, j_nnn=0.05 * params.j1x)
        batch = average_fidelity(params, configs, noise, window, hamiltonian=h)
        assert len(batch) == len(configs)
        for cfg, got in zip(configs, batch):
            want, = average_fidelity(params, [cfg], noise, window, hamiltonian=h)
            assert got.times == want.times
            assert np.max(np.abs(np.subtract(got.fbar, want.fbar))) < 1e-12
            assert got.peak_time == pytest.approx(want.peak_time, rel=1e-9)
            assert abs(got.peak_value - want.peak_value) < 1e-12

    def test_targets_align_with_configs(self):
        params = symmetric_chain(**ROW6)
        times = gate_window(params, *OPEN_WINDOW, 9)
        cfg = GateConfig(delta_branch="plus", control_state="open_0")
        targets = [open_gate("minus"), None]
        batch = average_fidelity(params, [cfg, cfg], None, times, targets=targets)
        for target, got in zip(targets, batch):
            want, = average_fidelity(params, [cfg], None, times, targets=[target])
            assert np.max(np.abs(np.subtract(got.fbar, want.fbar))) < 1e-12
        assert batch[0].peak_value < 0.7 < batch[1].peak_value

    def test_rejects_a_bare_config_and_misaligned_targets(self):
        params = symmetric_chain(**ROW6)
        times = gate_window(params, *OPEN_WINDOW, 9)
        cfg = GateConfig(delta_branch="plus", control_state="open_0")
        for configs in (cfg, []):
            with pytest.raises(TypeError, match="nonempty sequence"):
                average_fidelity(params, configs, None, times)
        with pytest.raises(ValueError, match="one to one"):
            average_fidelity(params, [cfg], None, times, targets=[None, None])


class TestFidelityContraction:
    """The one-contraction readout against re-embedding each operator evolved
    by the full-space Liouvillian and tracing out the controls with
    ``hilbert.partial_trace``."""

    @pytest.mark.parametrize("case", ["closed_noisy", "open_full_space", "qutrit"])
    def test_matches_partial_trace_readout(self, case):
        spin = symmetric_chain(**ROW6)
        tg = analytic_gate_time(spin)
        open_cfg = GateConfig(delta_branch="plus", control_state="open_0")
        model, cfg, noise, times = {
            "closed_noisy": (spin, closed_config_for_branch("plus"),
                             NoiseModel(gamma=0.05), np.linspace(0.1, 1.0, 7) * tg),
            "open_full_space": (spin, open_cfg, NoiseModel(gamma=0.05),
                                np.linspace(0.8, 1.0, 5) * tg),
            "qutrit": (table_qutrit_params(6), open_cfg, None,
                       np.linspace(0.02, 0.1, 3) * tg),
        }[case]
        trace, = average_fidelity(model, [cfg], noise, times)

        h = (build_qutrit_hamiltonian(model) if case == "qutrit"
             else build_interaction_hamiltonian(model))
        collapse = noise.collapse_operators(h.dims) if noise else []
        cvec = control_state_vector(cfg, list(h.dims.dims[1:-1]))
        u = open_gate("plus") if cfg.is_open else np.eye(4)
        want = full_space_fbar(h, collapse, cvec, u, times)
        assert np.max(np.abs(np.array(trace.fbar) - want)) < 1e-12


class TestControlStates:
    def test_bell_states(self):
        plus = control_state_vector(GateConfig(control_state="closed_1plus"), [2, 2])
        assert np.allclose(plus, np.array([0, 1, 1, 0]) / np.sqrt(2))
        minus = control_state_vector(GateConfig(control_state="closed_1minus"), [2, 2])
        assert np.allclose(minus, np.array([0, -1, 1, 0]) / np.sqrt(2))

    def test_qutrit_embedding(self):
        plus = control_state_vector(GateConfig(control_state="closed_1plus"), [3, 3])
        want = np.zeros(9)
        want[3] = want[1] = 1 / np.sqrt(2)  # |10> and |01> in base-3 indexing
        assert np.allclose(plus, want)

    def test_custom_vector(self):
        cfg = GateConfig(
            control_state="custom", custom_vector=(1.0, 0.0, 0.0, 1.0)
        )
        v = control_state_vector(cfg, [2, 2])
        assert np.allclose(np.linalg.norm(v), 1.0)

    @pytest.mark.parametrize("vector", [(0.0,) * 4, (1.0, np.nan, 0.0, 0.0),
                                        (np.inf, 0.0, 0.0, 0.0)],
                             ids=["zero", "nan", "inf"])
    def test_bad_custom_vector_is_a_model_error(self, vector):
        """Bad input, not a numerical failure: no division, no warning."""
        cfg = GateConfig(control_state="custom", custom_vector=vector)
        with pytest.raises(ModelError, match="finite and nonzero"):
            control_state_vector(cfg, [2, 2])


class TestPeakLocation:
    def test_synthetic_peak_recovered(self):
        tg = 6e-3
        times = np.linspace(0.8 * tg, 1.05 * tg, 101)
        fbar = 1.0 - ((times - tg) / tg) ** 2
        trace = FidelityTrace(
            times=tuple(times), fbar=tuple(fbar),
            peak_time=0.0, peak_value=0.0, peak_on_boundary=False,
        )
        # rebuild through the refiner used by average_fidelity
        k = int(np.argmax(fbar))
        t_star, f_star = refine_peak(times, fbar, k)
        assert abs(t_star - tg) < (times[1] - times[0])
        assert f_star == pytest.approx(1.0, abs=1e-6)

    def test_monotone_trace_flags_boundary(self):
        times = np.linspace(0.0, 1.0, 50)
        fbar = np.linspace(0.2, 0.9, 50)
        trace = FidelityTrace(
            times=tuple(times), fbar=tuple(fbar),
            peak_time=1.0, peak_value=0.9, peak_on_boundary=True,
        )
        with pytest.raises(GateTimeWindowError):
            numerical_gate_time(trace)

    def test_gate_window(self):
        params = symmetric_chain(**ROW6)
        tg = analytic_gate_time(params)
        w = gate_window(params, *OPEN_WINDOW, 100)
        assert len(w) == 100
        assert w[0] == 0.8 * tg
        assert w[-1] == 1.05 * tg
        cw = gate_window(params, *CLOSED_WINDOW, 50)
        assert cw[0] == FIRST_SAMPLE * tg
        assert cw[-1] == tg


CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]


def haar_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def sampled_entanglement_power(u, n_samples, seed):
    """Oracle: the mean linear entropy of U|a>|b> over Haar-random product
    states |a>|b>, and its standard error."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_samples, 2)) + 1j * rng.normal(size=(n_samples, 2))
    b = rng.normal(size=(n_samples, 2)) + 1j * rng.normal(size=(n_samples, 2))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    psi = (np.einsum("ni,nj->nij", a, b).reshape(n_samples, 4) @ u.T).reshape(
        n_samples, 2, 2)
    rho1 = np.einsum("nij,nkj->nik", psi, psi.conj())
    ent = 1.0 - np.einsum("nik,nki->n", rho1, rho1).real
    return float(ent.mean()), float(ent.std(ddof=1) / np.sqrt(n_samples))


class TestEntanglementPower:
    def test_identity_and_swap_are_zero(self):
        for u in (np.eye(4, dtype=complex), SWAP):
            assert abs(entanglement_power(u)) <= 1e-12

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_open_gate_is_one_ninth(self, branch):
        value = entanglement_power(open_gate(branch))
        assert isinstance(value, float)
        assert abs(value - 1.0 / 9.0) <= 1e-12

    def test_cnot_is_two_ninths(self):
        assert abs(entanglement_power(CNOT) - 2.0 / 9.0) <= 1e-12

    def test_invariant_under_local_rotations(self):
        rng = np.random.default_rng(17)
        u = open_gate("plus")
        dressed = (np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2)) @ u
                   @ np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2)))
        assert abs(entanglement_power(u) - entanglement_power(dressed)) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_sampled_oracle(self, seed):
        """On a Haar-random unitary the closed form lies within 3 standard
        errors of the 20k-sample estimate."""
        u = haar_unitary(np.random.default_rng(seed), 4)
        mean, se = sampled_entanglement_power(u, 20_000, seed + 100)
        assert abs(entanglement_power(u) - mean) <= 3.0 * se

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            entanglement_power(np.ones((4, 4)))
