"""Rotating frames against the interaction picture they replace.

The qutrit-control chain and the driven register are time dependent in the
interaction picture and are propagated exactly as static generators in a
rotating frame.  Each test integrates the explicit time-dependent
interaction-picture equations with RK45 (``solve_ivp``) and compares.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.sparse import csr_array

from helpers import (
    ROW6,
    fbar_of,
    fidelity_stack,
    kron_embed,
    partial_trace_by_sites,
    textbook_liouvillian,
)
from swapgate.circuit_map import table_qutrit_params, table_spin_params
from swapgate.drive import calibrated_pi_pulse, rabi_prepare
from swapgate.dynamics import NoiseModel
from swapgate.hilbert import PAULI_X, PAULI_Y
from swapgate.metrics import average_fidelity, control_state_vector, open_gate
from swapgate.spin_model import (
    QUTRIT_DIMS,
    TWO_PI,
    GateConfig,
    analytic_gate_time,
    build_interaction_hamiltonian,
    build_qutrit_hamiltonian,
    symmetric_chain,
)


def qutrit_lab_parts(q):
    """(H_s, S, w) of the interaction picture H_s + e^{iwt} S + e^{-iwt} S+.

    H_s + S + S+ is the chain built with zero sideband gap, where the
    rotating frame is the interaction picture itself; S is its part that
    puts one more control into |2>.
    """
    h = build_qutrit_hamiltonian(replace(q, sideband_gap=0.0)).entries
    idx = np.arange(QUTRIT_DIMS.total_dim)
    n2 = ((idx // 6) % 3 == 2).astype(int) + ((idx // 2) % 3 == 2)
    step = n2[:, None] - n2[None, :]
    return np.where(step == 0, h, 0.0), np.where(step == 1, h, 0.0), \
        TWO_PI * q.sideband_gap


def lab_fbar(h_s, s_up, w, collapse, rho_c, target, times):
    """Average fidelity from RK45 on the interaction-picture master equation
    over the full space, read off by ``fbar_of``.  The static part is the
    textbook Liouvillian, independent of the engine."""
    stack = fidelity_stack(rho_c)
    lv = csr_array(textbook_liouvillian(h_s, collapse))

    def rhs(t, y):
        r = y.reshape(stack.shape)
        side = np.exp(1j * w * t) * s_up
        side = side + side.conj().T
        static = (lv @ y.reshape(len(r), -1).T).T.reshape(r.shape)
        return (static - 1j * (side @ r - r @ side)).ravel()

    sol = solve_ivp(rhs, (0.0, times[-1]), stack.astype(complex).ravel(),
                    t_eval=times, method="RK45", rtol=1e-10, atol=1e-12)
    assert sol.success
    return np.array([fbar_of(y.reshape(stack.shape), target, QUTRIT_DIMS)
                     for y in sol.y.T])


class TestQutritFrame:
    @pytest.mark.parametrize("gamma", [0.0, 0.01])
    def test_frame_matches_interaction_picture_rk45(self, gamma):
        """Row 13, open register: the exact rotating-frame trace equals RK45
        on the explicit e^{+-iwt} sidebands, with and without noise."""
        q = table_qutrit_params(13)
        tg = analytic_gate_time(table_spin_params(13))
        times = np.linspace(0.04, 0.12, 3) * tg
        cfg = GateConfig(delta_branch="plus", control_state="open")
        noise = NoiseModel(gamma=gamma) if gamma else None
        trace, = average_fidelity(build_qutrit_hamiltonian(q), [cfg], noise, times)

        h_s, s_up, w = qutrit_lab_parts(q)
        collapse = noise.collapse_operators(QUTRIT_DIMS) if noise else []
        cvec = control_state_vector(cfg, [3, 3])
        want = lab_fbar(h_s, s_up, w, collapse, np.outer(cvec, cvec.conj()),
                        open_gate("plus"), times)
        assert np.max(np.abs(np.array(trace.fbar) - want)) < 1e-9


class TestDriveFrame:
    @pytest.fixture(scope="class")
    def row6_pulse(self):
        params = symmetric_chain(**ROW6)
        return params, calibrated_pi_pulse(params, abs(params.j2z) / 20.0)

    @pytest.mark.parametrize("phase", [0.0, np.pi / 2])
    def test_reduced_register_matches_interaction_picture_rk45(
        self, row6_pulse, phase
    ):
        """Half of the calibrated row-6 pi pulse (A = J2z/20), where the
        register coherences are largest: the whole reduced control matrix
        equals RK45 on the explicit single tone
        (A/2)[cos(dt + phi) Y - sin(dt + phi) X]."""
        params, pulse = row6_pulse
        pulse = replace(pulse, phase=phase)
        duration = pulse.pi_duration() / 2.0
        got = rabi_prepare(params, pulse, (duration,))[0].control_state

        h0 = build_interaction_hamiltonian(params)
        dims = h0.dims
        y_op = kron_embed({1: PAULI_Y}, dims) + kron_embed({2: PAULI_Y}, dims)
        x_op = kron_embed({1: PAULI_X}, dims) + kron_embed({2: PAULI_X}, dims)
        amp = TWO_PI * pulse.amplitude / 2.0
        d = TWO_PI * pulse.frequency

        def rhs(t, psi):
            th = d * t + phase
            h = h0.entries + amp * (np.cos(th) * y_op - np.sin(th) * x_op)
            return -1j * (h @ psi)

        bell = control_state_vector(GateConfig(control_state="closed_plus"), [2, 2])
        ground = np.array([1.0, 0.0], dtype=complex)
        psi0 = np.kron(np.kron(ground, bell), ground)
        sol = solve_ivp(rhs, (0.0, duration), psi0, t_eval=[duration],
                        method="RK45", rtol=1e-11, atol=1e-13)
        assert sol.success
        psi = sol.y[:, -1]
        want = partial_trace_by_sites(np.outer(psi, psi.conj()), dims, (1, 2))
        assert np.max(np.abs(got.entries - want)) < 1e-8
        # the coherences the back-rotation restores are not small here
        assert abs(want[0, 1] + want[0, 2]) > 0.1
