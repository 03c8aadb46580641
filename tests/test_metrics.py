"""Tests for gate targets, average fidelity, and entanglement power."""

import inspect
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from helpers import ROW6, fbar_of, fidelity_stack, pauli_basis_2q, textbook_liouvillian
from swapgate.circuit_map import table_qutrit_params
from swapgate.dynamics import NoiseModel, evolve_stack_raw
from swapgate.hilbert import OperatorMatrix, SiteDims
from swapgate.metrics import (
    CLOSED_WINDOW,
    FIRST_SAMPLE,
    OPEN_WINDOW,
    _PAULI_2Q,
    FidelityTrace,
    _checked_trace,
    average_fidelity,
    control_state_vector,
    entanglement_power,
    gate_window,
    open_gate,
    refine_peak,
)
from swapgate.spin_model import (
    GateConfig,
    ModelError,
    SpinModelParams,
    add_crosstalk,
    analytic_gate_time,
    build_interaction_hamiltonian,
    build_n5_model,
    build_qutrit_hamiltonian,
    closed_config_for_branch,
    symmetric_chain,
)

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def full_space_fbar(h, collapse, cvec, target, times):
    """Fbar read from the whole space: the 16 initial operators evolved by
    expm of the textbook Liouvillian, or by conjugation with expm(-i H t)
    when there is no noise, then read off by ``fbar_of``."""
    lv = textbook_liouvillian(h.entries, collapse)
    stack = fidelity_stack(np.outer(cvec, cvec.conj()))
    fbar = []
    for t in times:
        if collapse:
            prop = expm(lv * t)
            evolved = [(prop @ op.ravel()).reshape(op.shape) for op in stack]
        else:
            u = expm(-1j * h.entries * t)
            evolved = [u @ op @ u.conj().T for op in stack]
        fbar.append(fbar_of(evolved, target, h.dims))
    return np.array(fbar)


def fbar_formula(target, channel_of):
    """The average-fidelity sum for a callable two-qubit channel."""
    return fbar_of([channel_of(p) for p in pauli_basis_2q()], target, (2, 2))


class TestPauliBasis:
    """The fidelity's basis, ``metrics._PAULI_2Q``."""

    def test_first_elements(self):
        basis = _PAULI_2Q
        assert np.array_equal(basis, pauli_basis_2q())
        assert np.allclose(basis[0], np.eye(4))
        x = np.array([[0, 1], [1, 0]])
        assert np.allclose(basis[8], np.kron(x, np.eye(2)))  # (k,l,m,n) = (1,0,0,0)

    def test_unitary_and_trace_orthogonal(self):
        basis = _PAULI_2Q
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
        (GateConfig(delta_branch="minus", control_state="open"), open_gate("minus")),
    ], ids=["closed_is_identity", "open_is_open_gate"])
    def test_default_target(self, cfg, want):
        params = symmetric_chain(**ROW6)
        times = np.linspace(0.2, 0.4, 3) * analytic_gate_time(params)
        h = build_interaction_hamiltonian(params)
        got, = average_fidelity(h, [cfg], None, times)
        oracle = full_space_fbar(h, [], control_state_vector(cfg, [2, 2]), want, times)
        assert np.max(np.abs(np.array(got.fbar) - oracle)) < 1e-12

    def test_n5_open_register_default_target(self):
        """The five-site open register |000> is scored against the plus
        branch's open gate without naming it."""
        params = build_n5_model(40.0, 40.0, 500.0, 500.0, 900.0)
        times = np.linspace(0.5, 1.0, 3) * analytic_gate_time(params)
        h = build_interaction_hamiltonian(params)
        cfg = GateConfig(delta_branch="plus")
        got, = average_fidelity(h, [cfg], None, times)
        oracle = full_space_fbar(h, [], np.eye(8)[0], open_gate("plus"), times)
        assert np.max(np.abs(np.array(got.fbar) - oracle)) < 1e-12


class TestFidelityFormula:
    def test_perfect_gate_scores_unity(self):
        for branch in ("plus", "minus"):
            u = open_gate(branch)
            val = fbar_formula(u, lambda rho: u @ rho @ u.conj().T)
            assert val == pytest.approx(1.0, abs=1e-12)

    def test_identity_channel_against_trace_oracle(self):
        """Fbar of the do-nothing channel, computed two independent ways: the
        Pauli sum, and the closed form (d + |Tr U|^2) / (d (d + 1)) of the
        identity against the target U."""
        u = open_gate("plus")
        direct = fbar_formula(u, lambda rho: rho)
        oracle = (4 + abs(np.trace(u)) ** 2) / 20
        assert direct == pytest.approx(oracle, abs=1e-12)
        # the same number must come out of the full machinery at t ~ 0
        params = symmetric_chain(**ROW6)
        tg = analytic_gate_time(params)
        cfg = GateConfig(delta_branch="plus", control_state="open")
        trace, = average_fidelity(build_interaction_hamiltonian(params), [cfg], None,
                                  [tg * 1e-7])
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
        fbar_direct = fbar_of(direct, u_tgt, (2, 2))
        reconstructed = []
        for b in basis:
            acc = np.zeros((4, 4), dtype=complex)
            for i in range(4):
                for j in range(4):
                    acc += b[i, j] * units[(i, j)]
            reconstructed.append(acc)
        fbar_tomo = fbar_of(reconstructed, u_tgt, (2, 2))
        assert fbar_direct == pytest.approx(fbar_tomo, abs=1e-8)


class TestGateSimulation:
    def test_row6_open_peak_and_target_discrimination(self):
        """The plus-branch chain realizes the -1 swap with the i phase."""
        params = symmetric_chain(**ROW6)
        tg = analytic_gate_time(params)
        h = build_interaction_hamiltonian(params)
        cfg = GateConfig(delta_branch="plus", control_state="open")
        times = np.linspace(0.85 * tg, 1.05 * tg, 41)
        trace, = average_fidelity(h, [cfg], None, times)
        assert trace.peak_value > 0.985
        assert 0.9 * tg < trace.peak_time < 1.0 * tg
        # the opposite swap sign (the minus branch's target) and the
        # conjugate phase must both score far lower
        opposite, = average_fidelity(h, [GateConfig(delta_branch="minus")], None, times)
        assert opposite.peak_value < 0.7
        conjugate = full_space_fbar(h, [], control_state_vector(cfg, [2, 2]),
                                    open_gate("plus").conj(), times)
        assert conjugate.max() < 0.7

    def test_numerical_gate_time_five_percent_early(self):
        """At strong control coupling the peak sits ~5% before pi/|2 J1|."""
        p = symmetric_chain(30.0, 30.0, 750.0, 750.0, 3000.0)
        tg = analytic_gate_time(p)
        cfg = GateConfig(delta_branch="plus", control_state="open")
        trace, = average_fidelity(build_interaction_hamiltonian(p), [cfg], None,
                                  gate_window(p, *OPEN_WINDOW, 120))
        assert not trace.peak_on_boundary
        ratio = trace.peak_time / tg
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
        trace, = average_fidelity(h, [cfg], noise, times)
        want = full_space_fbar(h, noise.collapse_operators(h.dims),
                               control_state_vector(cfg, [2, 2]), np.eye(4), times)
        assert np.max(np.abs(np.array(trace.fbar) - want)) < 1e-12

    def test_fbar_stays_in_unit_interval(self):
        params = symmetric_chain(**ROW6)
        tg = analytic_gate_time(params)
        cfg = GateConfig(delta_branch="plus", control_state="open")
        noise = NoiseModel(gamma=0.05)
        trace, = average_fidelity(
            build_interaction_hamiltonian(params), [cfg], noise,
            np.linspace(0.1 * tg, tg, 13)
        )
        assert all(0.0 <= f <= 1.0 for f in trace.fbar)


def test_fidelity_takes_the_generator_and_chains_hold_only_couplings():
    """``average_fidelity`` takes its arguments in the order of
    ``dynamics.propagate`` (perfbench's tracer binds ``times``), and a chain
    holds only frequencies and couplings, its site count read from them."""
    assert list(inspect.signature(average_fidelity).parameters) == [
        "hamiltonian", "gate_configs", "noise", "times"]
    assert [f.name for f in fields(SpinModelParams)] == ["omega", "jx", "jz"]
    for p in (symmetric_chain(**ROW6), build_n5_model(30.0, 30.0, 750.0, 750.0, 3000.0)):
        assert p.n_sites == len(p.omega)


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
            configs = [GateConfig(delta_branch="plus", control_state="open"),
                       closed_config_for_branch("plus")]
            h = build_interaction_hamiltonian(params)
        else:
            configs = [GateConfig(delta_branch="plus", control_state=state)
                       for state in ("open", "closed_plus", "closed_minus")]
            h = add_crosstalk(params, j_nn=0.05 * params.j1x, j_nnn=0.05 * params.j1x)
        batch = average_fidelity(h, configs, noise, window)
        assert len(batch) == len(configs)
        for cfg, got in zip(configs, batch):
            want, = average_fidelity(h, [cfg], noise, window)
            assert got.times == want.times
            assert np.max(np.abs(np.subtract(got.fbar, want.fbar))) < 1e-12
            assert got.peak_time == pytest.approx(want.peak_time, rel=1e-9)
            assert abs(got.peak_value - want.peak_value) < 1e-12

    def test_mixed_branch_batch(self):
        """Each configuration is scored against its own branch's target."""
        params = symmetric_chain(**ROW6)
        h = build_interaction_hamiltonian(params)
        times = gate_window(params, *OPEN_WINDOW, 9)
        configs = [GateConfig(delta_branch="minus"), GateConfig(delta_branch="plus")]
        batch = average_fidelity(h, configs, None, times)
        for cfg, got in zip(configs, batch):
            want, = average_fidelity(h, [cfg], None, times)
            assert np.max(np.abs(np.subtract(got.fbar, want.fbar))) < 1e-12
        assert batch[0].peak_value < 0.7 < batch[1].peak_value

    def test_rejects_a_bare_config(self):
        params = symmetric_chain(**ROW6)
        h = build_interaction_hamiltonian(params)
        times = gate_window(params, *OPEN_WINDOW, 9)
        cfg = GateConfig(delta_branch="plus", control_state="open")
        for configs in (cfg, []):
            with pytest.raises(TypeError, match="nonempty sequence"):
                average_fidelity(h, configs, None, times)


class TestFidelityContraction:
    """The one-contraction readout against re-embedding each operator evolved
    by the full-space Liouvillian and tracing out the controls site by
    site."""

    @pytest.mark.parametrize("case", ["closed_noisy", "open_full_space", "qutrit"])
    def test_matches_partial_trace_readout(self, case):
        spin = symmetric_chain(**ROW6)
        tg = analytic_gate_time(spin)
        open_cfg = GateConfig(delta_branch="plus", control_state="open")
        model, cfg, noise, times = {
            "closed_noisy": (spin, closed_config_for_branch("plus"),
                             NoiseModel(gamma=0.05), np.linspace(0.1, 1.0, 7) * tg),
            "open_full_space": (spin, open_cfg, NoiseModel(gamma=0.05),
                                np.linspace(0.8, 1.0, 5) * tg),
            "qutrit": (table_qutrit_params(6), open_cfg, None,
                       np.linspace(0.02, 0.1, 3) * tg),
        }[case]
        h = (build_qutrit_hamiltonian(model) if case == "qutrit"
             else build_interaction_hamiltonian(model))
        trace, = average_fidelity(h, [cfg], noise, times)
        collapse = noise.collapse_operators(h.dims) if noise else []
        cvec = control_state_vector(cfg, h.dims[1:-1])
        u = open_gate("plus") if cfg.is_open else np.eye(4)
        want = full_space_fbar(h, collapse, cvec, u, times)
        assert np.max(np.abs(np.array(trace.fbar) - want)) < 1e-12


class TestControlStates:
    def test_bell_states(self):
        plus = control_state_vector(GateConfig(control_state="closed_plus"), [2, 2])
        assert np.allclose(plus, np.array([0, 1, 1, 0]) / np.sqrt(2))
        minus = control_state_vector(GateConfig(control_state="closed_minus"), [2, 2])
        assert np.allclose(minus, np.array([0, -1, 1, 0]) / np.sqrt(2))

    def test_qutrit_embedding(self):
        plus = control_state_vector(GateConfig(control_state="closed_plus"), [3, 3])
        want = np.zeros(9)
        want[3] = want[1] = 1 / np.sqrt(2)  # |10> and |01> in base-3 indexing
        assert np.allclose(plus, want)

    def test_open_register_on_three_controls(self):
        """The open register is all controls in |0> on any number of them."""
        v = control_state_vector(GateConfig(), [2, 2, 2])
        assert np.array_equal(v, np.eye(8)[0])

    def test_open_register_on_qutrit_controls(self):
        v = control_state_vector(GateConfig(), [3, 3])
        assert np.array_equal(v, np.eye(9)[0])

    @pytest.mark.parametrize("state", ["closed_plus", "closed_minus", "closed_11"])
    def test_closed_state_on_three_controls_is_a_model_error(self, state):
        with pytest.raises(ModelError, match="two control sites"):
            control_state_vector(GateConfig(control_state=state), [2, 2, 2])


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

    @pytest.mark.parametrize("t1, h, ratio", [
        (1.0, 2e-3, 1.0), (2247.0, 4.0, 1.0), (100.0, 0.01, 1.0), (1000.0, 1e-3, 1.0),
        (1e159, 1e156, 1.0), (1e-151, 1e-154, 1.0),
        (1.0, 2e-3, 0.7), (1000.0, 1e-3, 1.6), (1e159, 1e156, 0.45),
    ])
    @pytest.mark.parametrize("f", [(0.97, 0.99, 0.985), (0.5, 0.9, 0.2), (0.8, 0.8000001, 0.8)])
    def test_vertex_exact_to_rounding_at_any_scale(self, t1, h, ratio, f):
        """The refined peak equals the exact vertex of the same three float
        samples (in ``Fraction``) to a few roundings, far from the origin,
        near it and on uneven spacing (t1 - t0 = ratio * h), without a
        floating-point warning."""
        times = np.array([t1 - ratio * h, t1, t1 + h])
        t_star, f_star = refine_peak(times, np.array(f), 1)
        (t0, t1x, t2), (f0, f1, f2) = map(Fraction, times), map(Fraction, f)
        a = ((f2 - f1) / (t2 - t1x) - (f1 - f0) / (t1x - t0)) / (t2 - t0)
        b = (f1 - f0) / (t1x - t0) - a * (t1x + t0)
        t_exact = -b / (2 * a)
        f_exact = f0 + (t_exact - t0) * ((f1 - f0) / (t1x - t0) + a * (t_exact - t1x))
        eps = np.finfo(float).eps
        assert abs(Fraction(t_star) - t_exact) <= 4 * eps * (abs(t1) + h)
        assert abs(Fraction(f_star) - f_exact) <= 4 * eps * max(f)

    def test_monotone_trace_flags_boundary(self):
        times = np.linspace(0.0, 1.0, 50)
        fbar = np.linspace(0.2, 0.9, 50)
        trace = _checked_trace(times, fbar)
        assert trace.peak_on_boundary
        assert (trace.peak_time, trace.peak_value) == (1.0, 0.9)

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
