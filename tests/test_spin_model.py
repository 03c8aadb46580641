"""Tests for chain construction and the closed-form spectral analysis."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import swapgate
from swapgate.circuit_map import table_qutrit_params
from swapgate.hilbert import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SIGMA_MINUS,
    SIGMA_PLUS,
    OperatorMatrix,
    SiteDims,
    eig_hermitian,
    excitation_number_operator,
    projector,
)
from swapgate.spin_model import (
    TWO_PI,
    GateConfig,
    ModelError,
    QutritModelParams,
    SpinModelParams,
    _qubit_terms,
    _qutrit_terms,
    add_crosstalk,
    analytic_gate_time,
    analytic_n5_spectrum,
    analytic_single_excitation_spectrum,
    build_interaction_hamiltonian,
    build_n5_model,
    build_qutrit_hamiltonian,
    closed_config_for_branch,
    closed_state_eigencheck,
    delta_for_branch,
    perfect_transfer_conditions,
    single_excitation_block,
    symmetric_chain,
    vacuum_energy,
)

ROW6 = dict(j1x=40.9, j1z=40.9, j2x=-540.4, j2z=1007.1, delta=933.4)


def row6_params():
    return symmetric_chain(**ROW6)


def random_gate_params(rng):
    j1 = rng.uniform(10, 80)
    j2x = rng.uniform(-1200, 1200)
    j2z = rng.uniform(-1200, 1200)
    delta = rng.uniform(-3000, 3000)
    return symmetric_chain(j1, j1, j2x, j2z, delta)


class TestConstruction:
    def test_noninteracting_limit_is_diagonal(self):
        delta = 123.4
        p = symmetric_chain(0.0, 0.0, 0.0, 0.0, delta)
        h = build_interaction_hamiltonian(p).entries
        assert np.allclose(h, np.diag(np.diagonal(h)))
        # detuning acts only on the middle sites: -delta/2 * (z1 + z2)
        want = []
        for idx in range(16):
            bits = [(idx >> (3 - s)) & 1 for s in range(4)]
            z = [1 - 2 * b for b in bits]
            want.append(-0.5 * delta * (z[1] + z[2]))
        assert np.allclose(np.diagonal(h) / TWO_PI, want)

    def test_single_excitation_block_matches_reference_matrix(self):
        """Restriction to one-excitation states reproduces the analytic matrix."""
        p = row6_params()
        h = build_interaction_hamiltonian(p).entries
        idx = [0b1000, 0b0100, 0b0010, 0b0001]
        block = h[np.ix_(idx, idx)] / TWO_PI
        j1, j2x, j2z, delta = ROW6["j1x"], ROW6["j2x"], ROW6["j2z"], ROW6["delta"]
        want = np.array(
            [
                [-delta + j2z, 2 * j1, 0, 0],
                [2 * j1, -j2z, 2 * j2x, 0],
                [0, 2 * j2x, -j2z, 2 * j1],
                [0, 0, 2 * j1, -delta + j2z],
            ]
        )
        assert np.allclose(block, want, atol=1e-12)
        assert np.allclose(single_excitation_block(p) / TWO_PI, want, atol=1e-12)

    def test_excitation_conservation_random_draws(self):
        rng = np.random.default_rng(11)
        n_op = excitation_number_operator((2, 2, 2, 2)).entries
        for _ in range(50):
            h = build_interaction_hamiltonian(random_gate_params(rng)).entries
            comm = h @ n_op - n_op @ h
            assert np.linalg.norm(comm) <= 1e-10 * max(np.linalg.norm(h), 1.0)

    def test_generic_chain_any_length(self):
        p = SpinModelParams(
            n_sites=3, omega=(0.0, 10.0, 5.0), jx=(1.0, 2.0), jz=(3.0, 4.0)
        )
        h = build_interaction_hamiltonian(p)
        assert h.is_hermitian(1e-12)
        assert h.dim == 8

    def test_validation(self):
        with pytest.raises(ModelError):
            SpinModelParams(n_sites=4, omega=(0, 0, 0), jx=(1, 1, 1), jz=(1, 1, 1))

    def test_gate_mode_violations(self):
        p = symmetric_chain(100.0, 100.0, 200.0, 200.0, 800.0)
        assert any("J2x/J1x" in v for v in p.gate_mode_violations())
        good = row6_params()
        assert good.gate_mode_violations() == []
        for field, value in (("omega", good.omega[:3] + (5.0,)),
                             ("jx", good.jx[:2] + (good.jx[2] + 1.0,)),
                             ("jz", (good.jz[0] - 1.0,) + good.jz[1:])):
            mirrored_off = replace(good, **{field: value})
            assert "chain is not spatially symmetric" in mirrored_off.gate_mode_violations()


class TestClosedFormSpectrum:
    def test_matches_oracle_row6(self):
        p = row6_params()
        energies, vectors = analytic_single_excitation_spectrum(p)
        block = single_excitation_block(p)
        w, v = eig_hermitian(OperatorMatrix(SiteDims((2, 2)), block))
        assert np.allclose(np.sort(energies), w, rtol=1e-9)
        # eigenvector overlap per closed-form vector
        for k in range(4):
            col = vectors[:, k]
            resid = block @ col - energies[k] * col
            assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(block)

    def test_matches_oracle_100_draws(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            p = random_gate_params(rng)
            energies, _ = analytic_single_excitation_spectrum(p)
            w = np.linalg.eigvalsh(single_excitation_block(p))
            scale = max(np.max(np.abs(w)), 1e-9)
            assert np.max(np.abs(np.sort(energies) - w)) / scale < 1e-9

    def test_equidistant_spacing_weak_coupling(self):
        # three lowest levels equidistant with spacing |2 J1x| on resonance
        p = symmetric_chain(30.0, 30.0, 750.0, 750.0,
                            delta_for_branch("plus", 750.0, 750.0))
        energies, _ = analytic_single_excitation_spectrum(p)
        e = np.sort(energies) / TWO_PI
        assert abs(abs(e[1] - e[0]) - 2 * 30.0) / (2 * 30.0) < 0.02
        assert abs(abs(e[2] - e[1]) - 2 * 30.0) / (2 * 30.0) < 0.02

    def test_degenerate_collapse(self):
        p = symmetric_chain(25.0, 25.0, 0.0, 0.0, 0.0)
        energies, _ = analytic_single_excitation_spectrum(p)
        e = np.sort(energies)
        assert abs(e[0] - e[1]) < 1e-9 or abs(e[1] - e[2]) < 1e-9

    def test_eigenvector_overlap_with_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = random_gate_params(rng)
            energies, vectors = analytic_single_excitation_spectrum(p)
            block = single_excitation_block(p)
            w, v = np.linalg.eigh(block)
            for k in range(4):
                # match by eigenvalue, compare subspace overlap
                j = int(np.argmin(np.abs(w - energies[k])))
                if np.sum(np.abs(w - w[j]) < 1e-9 * max(1, abs(w[j]))) > 1:
                    continue  # degenerate pair: single-vector overlap undefined
                overlap = abs(np.vdot(v[:, j], vectors[:, k]))
                assert overlap >= 1 - 1e-9


class TestClosedStateCheck:
    def test_decoupled_limit_exact(self):
        p = symmetric_chain(0.0, 0.0, -540.4, 1007.1, 933.4)
        rep = closed_state_eigencheck(p)
        assert rep.residual_single < 1e-12
        assert rep.b_value == pytest.approx(2 * -540.4 - 1007.1)

    def test_row6_residual_bound(self):
        rep = closed_state_eigencheck(row6_params())
        j1 = ROW6["j1x"] * TWO_PI
        assert rep.residual <= 2 * j1 * 2.0

    def test_residual_scales_linearly(self):
        p1 = symmetric_chain(40.0, 40.0, -540.4, 1007.1, 933.4)
        p2 = symmetric_chain(20.0, 20.0, -540.4, 1007.1, 933.4)
        r1 = closed_state_eigencheck(p1).residual
        r2 = closed_state_eigencheck(p2).residual
        assert abs(r1 / r2 - 2.0) < 0.2


class TestGateTime:
    def test_value_30mhz(self):
        p = symmetric_chain(30.0, 30.0, 750.0, 750.0, 3000.0)
        assert analytic_gate_time(p) == pytest.approx(1 / (4 * 30.0), rel=1e-12)
        assert analytic_gate_time(p) == pytest.approx(8.333e-3, rel=1e-3)

    def test_value_row6(self):
        assert analytic_gate_time(row6_params()) == pytest.approx(6.11e-3, rel=1e-3)

    def test_inverse_proportionality(self):
        p1 = symmetric_chain(20.0, 20.0, 500.0, 500.0, 2000.0)
        p2 = symmetric_chain(40.0, 40.0, 500.0, 500.0, 2000.0)
        assert analytic_gate_time(p1) == pytest.approx(2 * analytic_gate_time(p2))

    def test_zero_coupling_rejected(self):
        with pytest.raises(ModelError):
            analytic_gate_time(symmetric_chain(0.0, 0.0, 500.0, 500.0, 2000.0))


class TestTransferConditions:
    def test_superposition_condition_exact_when_j1_isotropic(self):
        p = symmetric_chain(30.0, 30.0, 750.0, 750.0,
                            delta_for_branch("plus", 750.0, 750.0))
        rep = perfect_transfer_conditions(p)
        assert rep.superposition_residual < 1e-9
        # |E1 - E0| equals 4|J1x| exactly on resonance
        energies, _ = analytic_single_excitation_spectrum(p)
        e0 = vacuum_energy(p)
        assert abs(energies[0] - e0) == pytest.approx(4 * 30.0 * TWO_PI, rel=1e-12)

    def test_anisotropy_breaks_superposition_condition(self):
        base = delta_for_branch("plus", 750.0, 750.0)
        residuals = []
        for eps in (10.0, 20.0):
            p = symmetric_chain(30.0, 30.0 + eps, 750.0, 750.0, base)
            residuals.append(perfect_transfer_conditions(p).superposition_residual)
        assert residuals[0] > 1e-3
        assert abs(residuals[1] / residuals[0] - 2.0) < 0.05

    def test_zero_coupling_flags_degenerate(self):
        p = symmetric_chain(0.0, 0.0, 100.0, 100.0, 400.0)
        assert perfect_transfer_conditions(p).degenerate


class TestCrosstalk:
    def test_zero_strength_identical(self):
        p = row6_params()
        h0 = build_interaction_hamiltonian(p).entries
        h = add_crosstalk(p, 0.0, 0.0).entries
        assert np.array_equal(h, h0)

    def test_excitation_conserved(self):
        p = row6_params()
        h = add_crosstalk(p, 3.0, 2.0).entries
        n_op = excitation_number_operator((2, 2, 2, 2)).entries
        assert np.linalg.norm(h @ n_op - n_op @ h) < 1e-9


class TestN5:
    def test_e0_branch_detuning(self):
        p = build_n5_model(30.0, 30.0, 750.0, 750.0, 200.0, branch="E0")
        assert p.delta == pytest.approx(1500.0)
        assert p.n_sites == 5

    def test_closed_forms_match_oracle_100_draws(self):
        """Levels of the end-decoupled one-excitation block, exact in J1z."""
        rng = np.random.default_rng(41)
        for _ in range(100):
            j1z = rng.uniform(5, 60)
            j2x = rng.uniform(-1000, 1000)
            j2z = rng.uniform(-1000, 1000)
            delta = rng.uniform(-2500, 2500)
            delta3 = rng.uniform(-2500, 2500)
            p = SpinModelParams(
                n_sites=5,
                omega=(0.0, delta, delta3, delta, 0.0),
                jx=(0.0, j2x, j2x, 0.0),
                jz=(j1z, j2z, j2z, j1z),
            )
            analytic = np.sort(analytic_n5_spectrum(p))
            oracle = np.sort(np.linalg.eigvalsh(single_excitation_block(p)))
            scale = max(np.max(np.abs(oracle)), 1e-9)
            assert np.max(np.abs(analytic - oracle)) / scale < 1e-9

    def test_eplus_branch_denominator_guard(self):
        with pytest.raises(ModelError):
            build_n5_model(30.0, 30.0, 750.0, 100.0, -400.0, branch="Eplus")

    def test_bisymmetry_of_block(self):
        p = build_n5_model(30.0, 30.0, 750.0, 750.0, 200.0, branch="E0")
        block = single_excitation_block(p)
        flipped = block[::-1, ::-1]
        assert np.allclose(block, flipped)


class TestDoubleExcitationDegeneracy:
    def test_resonant_triple_spread_is_order_j1(self):
        """The double-excitation trio spreads by O(J1), not O(J2)."""
        p = row6_params()
        h = build_interaction_hamiltonian(p).entries / TWO_PI
        idx_1001 = 0b1001
        bell_minus = np.zeros(16)
        bell_minus[0b1100] = 1 / np.sqrt(2)   # |1, psi-, 0> components
        bell_minus[0b1010] = -1 / np.sqrt(2)
        bell_minus2 = np.zeros(16)
        bell_minus2[0b0101] = 1 / np.sqrt(2)  # |0, psi-, 1>
        bell_minus2[0b0011] = -1 / np.sqrt(2)
        e_a = h[idx_1001, idx_1001]
        e_b = bell_minus @ h @ bell_minus
        e_c = bell_minus2 @ h @ bell_minus2
        spread = max(e_a, e_b, e_c) - min(e_a, e_b, e_c)
        assert spread <= 4 * abs(p.j1x)


class TestQutritModel:
    def qutrit_row6(self):
        return QutritModelParams(
            qubit=row6_params(),
            omega2=10700.0,
            omega2_prime=10700.0 - 0.0688 * 10700.0,
            k23x=3357.1,
            m23x=-671.4,
            j2y=ROW6["j2x"] - 2 * ROW6["j2z"],
        )

    def test_coefficient_identities(self):
        q = self.qutrit_row6()
        assert q.r23x == pytest.approx(q.j2y + q.k23x + 4 * q.m23x)
        assert q.p23x == pytest.approx(q.j2y + q.k23x + 2 * q.m23x)
        assert q.r23x - q.p23x == pytest.approx(2 * q.m23x)

    def test_projection_reproduces_qubit_hamiltonian(self):
        from swapgate.spin_model import project_qutrit_to_qubit

        q = self.qutrit_row6()
        h_qutrit = build_qutrit_hamiltonian(q)  # frame term and sidebands need a |2>
        projected = project_qutrit_to_qubit(h_qutrit)
        h_qubit = build_interaction_hamiltonian(q.qubit).entries
        scale = np.max(np.abs(h_qubit))
        assert np.max(np.abs(projected - h_qubit)) < 1e-12 * scale

    def test_static_part_conserves_excitation(self):
        """The rotating-frame generator conserves excitation (a control |2>
        counting two), so excitation sectors can still be evolved alone."""
        q = self.qutrit_row6()
        hs = build_qutrit_hamiltonian(q).entries
        n_op = excitation_number_operator((2, 3, 3, 2)).entries
        assert np.linalg.norm(hs @ n_op - n_op @ hs) < 1e-9

    def test_sidebands_are_conjugate_pair(self):
        """The sideband pair of the rotating frame exp(-i w n2 t).

        The blocks of H' that raise and lower the number n2 of controls in
        |2> by one are S and S+; nothing changes n2 by more; the frame term is
        w n2 (a zero-gap build has none); and back in the interaction picture
        the chain H_s + e^{iwt} S + e^{-iwt} S+ is Hermitian at every instant.
        """
        q = self.qutrit_row6()
        h = build_qutrit_hamiltonian(q).entries
        idx = np.arange(36)
        n2 = ((idx // 6) % 3 == 2).astype(int) + ((idx // 2) % 3 == 2)
        step = n2[:, None] - n2[None, :]
        s_up = np.where(step == 1, h, 0.0)
        s_dn = np.where(step == -1, h, 0.0)
        assert np.allclose(s_up.conj().T, s_dn)
        assert not np.any(h[np.abs(step) > 1])
        # |0,1,1,0> -> |0,2,0,0>: one control up to |2>, the other down to |0>
        assert s_up[12, 8] == pytest.approx(TWO_PI * 2 * np.sqrt(2) * q.p23x)
        w = TWO_PI * q.sideband_gap
        h_gapless = build_qutrit_hamiltonian(
            replace(q, omega2_prime=q.omega2)
        ).entries
        assert np.max(np.abs(h - h_gapless - w * np.diag(n2))) < 1e-9
        h_s = np.where(step == 0, h_gapless, 0.0)
        for t in (0.0, 1.3e-4, 7.7e-4):
            m = h_s + np.exp(1j * w * t) * s_up + np.exp(-1j * w * t) * s_dn
            assert np.max(np.abs(m - m.conj().T)) < 1e-9

    def test_accepts_published_row6_coefficients(self):
        q = self.qutrit_row6()
        assert q.p23x == pytest.approx(ROW6["j2x"], abs=0.15)


class TestGateConfig:
    def test_branch_detunings(self):
        assert delta_for_branch("plus", -540.4, 1007.1) == pytest.approx(933.4)
        assert delta_for_branch("minus", 936.2, 1137.7) == pytest.approx(403.0)

    def test_closed_config_per_branch(self):
        assert closed_config_for_branch("plus").control_state == "closed_1plus"
        assert closed_config_for_branch("minus").control_state == "closed_1minus"

    def test_custom_needs_vector(self):
        with pytest.raises(ModelError):
            GateConfig(control_state="custom")


# ---------------------------------------------------------------------------
# Cached term tables against a Kronecker-product reference
# ---------------------------------------------------------------------------

def kron_embed(site_ops, dims):
    """Local operators at the given sites, identities elsewhere, by np.kron."""
    out = np.eye(1, dtype=complex)
    for i, d in enumerate(dims):
        out = np.kron(out, np.asarray(site_ops.get(i, np.eye(d)), dtype=complex))
    return out


def kron_interaction_hamiltonian(p):
    """The qubit chain with every term embedded afresh by np.kron, with the
    coefficients and order of build_interaction_hamiltonian: the reference
    for the cached tables."""
    dims = (2,) * p.n_sites
    h = np.zeros((2 ** p.n_sites,) * 2, dtype=complex)
    for j, det in enumerate(p.detunings):
        if det != 0.0:
            h += -0.5 * det * kron_embed({j: PAULI_Z}, dims)
    for j in range(p.n_sites - 1):
        if p.jx[j] != 0.0:
            h += p.jx[j] * kron_flip_flop(j, j + 1, dims)
        if p.jz[j] != 0.0:
            h += p.jz[j] * kron_embed({j: PAULI_Z, j + 1: PAULI_Z}, dims)
    return TWO_PI * h


def kron_flip_flop(a, b, dims):
    return (kron_embed({a: PAULI_X, b: PAULI_X}, dims)
            + kron_embed({a: PAULI_Y, b: PAULI_Y}, dims))


def kron_qutrit_hamiltonian(params):
    """``build_qutrit_hamiltonian`` with every term embedded afresh."""
    q, dims = params.qubit, (2, 3, 3, 2)

    def pair(a, b):
        return kron_embed(a, dims) + kron_embed(b, dims)

    z2 = projector(3, 0, 0) - projector(3, 1, 1)
    zz3 = projector(3, 0, 0) - projector(3, 1, 1) - 3.0 * projector(3, 2, 2)
    up3, dn3 = projector(3, 1, 0), projector(3, 0, 1)
    p02, p20 = projector(3, 0, 2), projector(3, 2, 0)
    p12, p21, p22 = projector(3, 1, 2), projector(3, 2, 1), projector(3, 2, 2)
    h = np.zeros((36, 36), dtype=complex)
    h += -0.5 * q.delta * pair({1: z2}, {2: z2})
    for t, c in ((0, 1), (3, 2)):
        h += 2.0 * q.j1x * pair({t: SIGMA_PLUS, c: dn3}, {t: SIGMA_MINUS, c: up3})
        h += q.j1z * kron_embed({t: PAULI_Z, c: zz3}, dims)
    h += q.j2z * kron_embed({1: zz3, 2: zz3}, dims)
    h += 2.0 * q.j2z * pair({1: p20, 2: p02}, {1: p02, 2: p20})
    h += 2.0 * q.j2x * pair({1: dn3, 2: up3}, {1: up3, 2: dn3})
    h += 4.0 * params.r23x * pair({1: p21, 2: p12}, {1: p12, 2: p21})
    sideband = 2.0 * np.sqrt(2.0) * params.p23x * pair({1: p21, 2: dn3},
                                                       {1: dn3, 2: p21})
    h += sideband + sideband.conj().T
    h += params.sideband_gap * pair({1: p22}, {2: p22})
    return TWO_PI * h


def random_chain(rng, n):
    """Random detunings and couplings, each zero with probability 1/3."""
    def draw(size, scale):
        return tuple(rng.uniform(-scale, scale, size) * (rng.random(size) > 1 / 3))

    return SpinModelParams(n_sites=n, omega=draw(n, 3000.0),
                           jx=draw(n - 1, 1200.0), jz=draw(n - 1, 1200.0))


class TestTermTables:
    """The chain Hamiltonians sum scaled, cached, read-only terms; every
    entry must equal the per-call Kronecker build bit for bit."""

    @pytest.mark.parametrize("n", [4, 5])
    def test_interaction_hamiltonian_matches_kron_build(self, n):
        rng = np.random.default_rng(12 + n)
        chains = [random_chain(rng, n) for _ in range(20)]
        zero = (0.0,) * (n - 1)
        chains.append(SpinModelParams(n, (0.0,) * n, zero, zero))
        for p in chains:
            h = build_interaction_hamiltonian(p).entries
            assert np.array_equal(h, kron_interaction_hamiltonian(p))

    def test_crosstalk_matches_kron_build(self):
        rng = np.random.default_rng(7)
        for j_nn, j_nnn in ((3.0, 2.0), (0.0, -1.5), (-4.2, 0.0), (0.0, 0.0)):
            p = random_chain(rng, 4)
            want = kron_interaction_hamiltonian(p)
            extra = np.zeros_like(want)
            for (a, b), j in (((0, 2), j_nn), ((1, 3), j_nn), ((0, 3), j_nnn)):
                if j != 0.0:
                    extra += j * kron_flip_flop(a, b, (2, 2, 2, 2))
            want = want + TWO_PI * extra
            assert np.array_equal(add_crosstalk(p, j_nn, j_nnn).entries, want)

    @pytest.mark.parametrize("row", [6, 13, 15])
    def test_qutrit_hamiltonian_matches_kron_build(self, row):
        q = table_qutrit_params(row)
        assert np.array_equal(build_qutrit_hamiltonian(q).entries,
                              kron_qutrit_hamiltonian(q))

    def test_tables_are_read_only(self):
        z, zz, flip_flop = _qubit_terms(4)
        qutrit = dict(_qutrit_terms())
        bonds = qutrit.pop("target_bonds")
        arrays = [*z, *zz, *flip_flop.values(), *qutrit.values(), *sum(bonds, ())]
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            z[0][0, 0] = 2.0
        with pytest.raises(TypeError):
            flip_flop[0, 1] = z[0]
        with pytest.raises(TypeError):
            _qutrit_terms()["level2"] = z[0]

    def test_consecutive_builds_are_independent(self):
        rng = np.random.default_rng(3)
        a, b = random_chain(rng, 4), random_chain(rng, 4)
        h_a = build_interaction_hamiltonian(a).entries
        h_b = build_interaction_hamiltonian(b).entries
        assert np.array_equal(h_a, kron_interaction_hamiltonian(a))
        assert np.array_equal(h_b, kron_interaction_hamiltonian(b))
        assert np.array_equal(build_interaction_hamiltonian(a).entries, h_a)
        q6, q13 = table_qutrit_params(6), table_qutrit_params(13)
        h6 = build_qutrit_hamiltonian(q6).entries
        assert np.array_equal(build_qutrit_hamiltonian(q13).entries,
                              kron_qutrit_hamiltonian(q13))
        assert np.array_equal(build_qutrit_hamiltonian(q6).entries, h6)

    def test_import_builds_no_table(self):
        """The tables fill on first use: importing the command line leaves
        every term cache empty."""
        src = str(Path(swapgate.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import swapgate.cli\n"
                "from swapgate import drive, dynamics, spin_model as sm\n"
                "caches = (sm._qubit_terms, sm._qutrit_terms, drive._drive_terms,"
                " dynamics._jump_operators)\n"
                "print([c.cache_info().currsize for c in caches])")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[0, 0, 0, 0]"
