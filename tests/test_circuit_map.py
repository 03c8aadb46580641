"""Tests for capacitance matrices and the circuit-to-spin mapping."""

from dataclasses import fields

import numpy as np
import pytest

from swapgate.circuit_map import (
    CAP_ENERGY_SCALE,
    CIRCUIT_NAMES,
    IND_ENERGY_SCALE,
    TABLE_S1,
    CircuitParams,
    MappingError,
    SingularCapacitanceError,
    SpinMapResult,
    capacitance_matrix,
    circuit_to_spin,
    gate_capacitance_matrix,
    inverse_capacitance,
    map_cost_fields,
    map_sites,
    table_branch,
    table_circuit_params,
    table_qutrit_params,
    table_row,
    table_spin_params,
)
from swapgate.search import DEFAULT_BOUNDS
from swapgate.spin_model import TWO_PI


def row6():
    return table_circuit_params(6)


class TestCapacitanceMatrix:
    def test_physical_convention_gate_circuit(self):
        k = gate_capacitance_matrix(row6())
        c1, c2, c23 = 926.3, 76.2, 240.4
        want = np.array(
            [
                [c1, 0, 0, 0],
                [0, c2 + c23, -c23, 0],
                [0, -c23, c2 + c23, 0],
                [0, 0, 0, c1],
            ]
        )
        assert np.allclose(k, want)

    def test_gate_circuit_inverse_block_structure(self):
        """Block-diagonal inverse with C0 = C2^2 + 2 C23 C2 in the middle."""
        c1, c2, c23 = 926.3, 76.2, 240.4
        k = gate_capacitance_matrix(row6())
        kinv, cond = inverse_capacitance(k)
        c0 = c2**2 + 2 * c23 * c2
        assert kinv[0, 0] == pytest.approx(1 / c1, rel=1e-12)
        assert kinv[3, 3] == pytest.approx(1 / c1, rel=1e-12)
        assert kinv[1, 1] == pytest.approx((c2 + c23) / c0, rel=1e-12)
        assert kinv[2, 2] == pytest.approx((c2 + c23) / c0, rel=1e-12)
        # inverting the minus-coupled block gives +C23/C0 off-diagonals
        assert kinv[1, 2] == pytest.approx(c23 / c0, rel=1e-12)
        # everything outside the middle block vanishes identically
        for i in (0, 3):
            for j in (1, 2):
                assert abs(kinv[i, j]) < 1e-14
                assert abs(kinv[j, i]) < 1e-14
        assert cond < 1e3

    def test_inverse_times_matrix_is_identity(self):
        k = gate_capacitance_matrix(row6())
        kinv, _ = inverse_capacitance(k)
        assert np.max(np.abs(kinv @ k - np.eye(4))) < 1e-12

    def test_uniform_chain_node_local_convention(self):
        """All-capacitor chain with equal shunt and coupling values.

        In the node-local convention the exact inverse has the published
        alternating pattern with a vanishing (2,2) diagonal entry.
        """
        c = 3.7
        k = capacitance_matrix(
            [c] * 4, [c] * 3, augment_diagonal=False, coupling_sign=+1.0
        )
        kinv, _ = inverse_capacitance(k)
        want = (1 / c) * np.array(
            [
                [1, 0, -1, 1],
                [0, 0, 1, -1],
                [-1, 1, 0, 0],
                [1, -1, 0, 1],
            ]
        )
        assert np.allclose(kinv, want, atol=1e-12)

    def test_uniform_chain_shunt_ten_times_coupling(self):
        """With ten-fold shunts the inverse decays geometrically off-diagonal."""
        c = 2.0
        k = capacitance_matrix(
            [10 * c] * 4, [c] * 3, augment_diagonal=False, coupling_sign=+1.0
        )
        kinv, _ = inverse_capacitance(k)
        scaled = kinv * (10 * c)  # displayed in units of the shunt
        shown = np.array(
            [
                [1, -0.1, 0.01, -0.001],
                [-0.1, 1, -0.1, 0.01],
                [0.01, -0.1, 1, -0.1],
                [-0.001, 0.01, -0.1, 1],
            ]
        )
        # half a unit in the last displayed digit of each printed entry
        tol = np.where(
            np.abs(shown) == 1, 0.5,
            np.where(np.abs(shown) == 0.1, 0.05,
                     np.where(np.abs(shown) == 0.01, 0.005, 0.0005)),
        )
        assert np.all(np.abs(scaled - shown) <= tol)

    @pytest.mark.parametrize("n", [5, 8])
    def test_uniform_chain_singular_when_n_plus_1_divisible_by_3(self, n):
        c = 1.0
        k = capacitance_matrix(
            [c] * n, [c] * (n - 1), augment_diagonal=False, coupling_sign=+1.0
        )
        with pytest.raises(SingularCapacitanceError):
            inverse_capacitance(k)

    @pytest.mark.parametrize("n", [4, 6, 7])
    def test_uniform_chain_regular_otherwise(self, n):
        c = 1.0
        k = capacitance_matrix(
            [c] * n, [c] * (n - 1), augment_diagonal=False, coupling_sign=+1.0
        )
        kinv, _ = inverse_capacitance(k)
        assert np.max(np.abs(kinv @ k - np.eye(n))) < 1e-10

    def test_block_diagonal_input_gives_block_diagonal_inverse(self):
        k = capacitance_matrix([5.0, 3.0, 3.0, 5.0], [0.0, 1.2, 0.0])
        kinv, _ = inverse_capacitance(k)
        assert abs(kinv[0, 1]) < 1e-14 and abs(kinv[2, 3]) < 1e-14

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(MappingError):
            capacitance_matrix([1.0, 1.0], [1.0, 1.0])


def matrix_map(params: CircuitParams) -> dict[str, object]:
    """Per-site mapping on the 4x4 matrix inverse, as before the closed form.

    Every site is mapped from length-4 arrays and the ``np.linalg.inv`` of
    ``gate_capacitance_matrix`` that ``inverse_capacitance`` returns after
    its singularity checks.
    """
    kinv, cond = inverse_capacitance(gate_capacitance_matrix(params))
    e_c = CAP_ENERGY_SCALE * np.diagonal(kinv)
    e1, e2, e12, e23 = params.e1, params.e2, params.e12, params.e23
    e_j = np.array([e1 + e12, e2 + e12 + e23, e2 + e12 + e23, e1 + e12])
    e_lb = IND_ENERGY_SCALE * TWO_PI**2 / params.l12
    e_l = np.full(4, e_lb)
    radicand = 2.0 * e_c / (e_j + e_l)
    if np.any(radicand <= 0):
        raise MappingError("nonpositive quartic-root argument in mode scale")
    t = radicand**0.25
    s = 4.0 * np.sqrt(0.5 * e_c * (e_j + e_l))
    bond_e = [0.0, e12, e23, e12, 0.0]  # Josephson energy of bond (i-1, i)
    omega = np.empty(4)
    for i in range(4):
        left = bond_e[i] * (t[i - 1] ** 2 if i > 0 else 0.0) * t[i] ** 2
        right = bond_e[i + 1] * t[i] ** 2 * (t[i + 1] ** 2 if i < 3 else 0.0)
        omega[i] = s[i] - 0.5 * e_j[i] * t[i] ** 4 - left - right
    j1x = -0.5 * (e12 + e_lb) * t[0] * t[1] + 0.25 * e12 * (
        t[0] ** 3 * t[1] + t[0] * t[1] ** 3
    )
    j2y = -CAP_ENERGY_SCALE * kinv[1, 2] / (t[1] * t[2])
    j2x = -0.5 * e23 * t[1] * t[2] + 0.25 * e23 * (
        t[1] ** 3 * t[2] + t[1] * t[2] ** 3
    ) + j2y
    anh = -0.5 * e_j * t**4
    k23x = -e23 * t[1] * t[2] + e23 * t[1] ** 3 * t[2] / 6.0
    m23x = e23 * t[1] * t[2] ** 3 / 6.0
    mhz = 1000.0
    return {
        "omega1": omega[0],
        "omega2": omega[1],
        "j1x": j1x * mhz,
        "j1z": -0.25 * e12 * (t[0] * t[1]) ** 2 * mhz,
        "j2x": j2x * mhz,
        "j2y": j2y * mhz,
        "j2z": -0.25 * e23 * (t[1] * t[2]) ** 2 * mhz,
        "delta": (omega[1] - omega[0]) * mhz,
        "anh_rel_1": anh[0] / omega[0],
        "anh_rel_2": anh[1] / omega[1],
        "k23x": k23x * mhz,
        "m23x": m23x * mhz,
        "r23x": (j2y + k23x + 4.0 * m23x) * mhz,
        "p23x": (j2y + k23x + 2.0 * m23x) * mhz,
        "t_coeffs": tuple(t),
        "s_coeffs": tuple(s),
        "condition_number": cond,
    }


def assert_maps_agree(params: CircuitParams) -> None:
    got = circuit_to_spin(params)
    want = matrix_map(params)
    assert {f.name for f in fields(SpinMapResult)} == set(want)
    for name, value in want.items():
        assert np.allclose(getattr(got, name), value, rtol=1e-12, atol=0.0), (
            name, getattr(got, name), value, params)


def random_circuits(seed, n, widen=1.0):
    """Uniform draws over DEFAULT_BOUNDS, or log-uniform over a box widened
    by ``widen`` on both sides."""
    rng = np.random.default_rng(seed)
    lo = np.array([DEFAULT_BOUNDS[name][0] for name in CIRCUIT_NAMES]) / widen
    hi = np.array([DEFAULT_BOUNDS[name][1] for name in CIRCUIT_NAMES]) * widen
    if widen == 1.0:
        draws = lo + (hi - lo) * rng.random((n, len(CIRCUIT_NAMES)))
    else:
        draws = np.exp(np.log(lo) + np.log(hi / lo) * rng.random((n, len(CIRCUIT_NAMES))))
    return [CircuitParams(*row) for row in draws.tolist()]


class TestClosedFormOracle:
    """The two-site closed form against the 4x4 matrix-inverse mapping."""

    @pytest.mark.parametrize("row", sorted(TABLE_S1))
    def test_table_rows(self, row):
        assert_maps_agree(table_circuit_params(row))

    def test_random_points_in_search_bounds(self):
        for params in random_circuits(seed=11, n=256):
            assert_maps_agree(params)

    def test_random_points_outside_search_bounds(self):
        # The matrix path's inverse loses about eps * c23 / c2 (the middle
        # block's condition), so the box is widened only as far as that
        # stays well inside the tolerance; the closed form keeps a few ulps.
        circuits = random_circuits(seed=12, n=128, widen=5.0)
        outside = [
            p for p in circuits
            if any(not lo <= getattr(p, name) <= hi
                   for name, (lo, hi) in DEFAULT_BOUNDS.items())
        ]
        assert len(outside) > 100
        for params in outside:
            assert_maps_agree(params)

    @pytest.mark.parametrize("c1, c2, c23, message", [
        (500.0, 1e-11, 1000.0, "singular"),  # c2 << c23: normalized det ~ c2/c23
        (1e15, 1.0, 1.0, "ill-conditioned"),  # eigenvalues 1e15 and 1
    ])
    def test_singular_capacitance_raises_on_both_paths(self, c1, c2, c23, message):
        params = CircuitParams(e1=300.0, e2=300.0, e12=200.0, e23=200.0,
                               c1=c1, c2=c2, c23=c23, l12=50.0)
        with pytest.raises(SingularCapacitanceError, match=message):
            matrix_map(params)
        with pytest.raises(SingularCapacitanceError, match=message):
            circuit_to_spin(params)


class TestBatchedMap:
    """``map_sites`` maps the circuits in the columns of an (8, m) array; a
    circuit gets the same bits alone as in any batch.  The unphysical
    circuits warn, and the caller holds the ``np.errstate``."""

    def test_every_column_equals_its_single_circuit_map(self):
        rng = np.random.default_rng(41)
        lo = np.array([DEFAULT_BOUNDS[name][0] for name in CIRCUIT_NAMES])
        hi = np.array([DEFAULT_BOUNDS[name][1] for name in CIRCUIT_NAMES])
        # half a box width past each side, so some values are not positive
        x = lo + (hi - lo) * rng.uniform(-0.5, 1.5, (1000, len(lo)))
        x[2::10, 0] = -1000.0  # e1 + e12 + E_L < 0: negative end radicand
        x[5::10, 1:4] = -400.0  # e2 + e12 + e23 + E_L < 0: negative control one
        x[7::50, 5] = 0.0  # c2 = 0: division by zero
        with np.errstate(all="ignore"):
            batch = map_sites(np.ascontiguousarray(x.T))
            strided = map_sites(x.T)  # a transposed view: not C-contiguous
            parts = {size: [map_sites(np.ascontiguousarray(x[start:start + size].T))
                            for start in range(0, len(x), size)]
                     for size in (1, 7, 64)}
        assert (x <= 0).any(axis=1).sum() > 300
        assert (batch["ra"] < 0).any() and (batch["rb"] < 0).any()
        assert np.isnan(batch["j1x"]).any() and np.isfinite(batch["j1x"]).any()
        assert len(batch) == 22

        for name, column in batch.items():
            assert np.array_equal(strided[name], column, equal_nan=True), name
        for size, maps in parts.items():
            for start, part in zip(range(0, len(x), size), maps):
                for name, column in batch.items():
                    assert np.array_equal(part[name], column[start:start + size],
                                          equal_nan=True), (name, size, start)

    def test_first_stage_holds_the_reported_bits(self):
        """``map_cost_fields`` is the first stage of ``map_sites``: its six
        fields, the ones the search's cost reads, are the very arrays
        ``map_sites`` reports, NaN included."""
        rng = np.random.default_rng(43)
        lo = np.array([DEFAULT_BOUNDS[name][0] for name in CIRCUIT_NAMES])
        hi = np.array([DEFAULT_BOUNDS[name][1] for name in CIRCUIT_NAMES])
        x = np.ascontiguousarray((lo + (hi - lo) * rng.uniform(-0.5, 1.5, (200, 8))).T)
        with np.errstate(all="ignore"):
            fields, _ = map_cost_fields(x)
            sites = map_sites(x)
        assert set(fields) == {"j1x", "j1z", "j2x", "j2z", "delta", "anh_rel_1"}
        assert np.isnan(fields["j1x"]).any()
        for name, column in fields.items():
            assert np.array_equal(column, sites[name], equal_nan=True), name

    def test_unphysical_circuit_warns_without_errstate(self):
        """``map_sites`` silences nothing: a c2 = 0 column warns unless its
        caller holds an ``np.errstate``."""
        x = np.array([table_row(6)[name] for name in CIRCUIT_NAMES])[:, None]
        x[5] = 0.0
        with pytest.warns(RuntimeWarning):
            map_sites(x)


class TestTableData:
    def test_detuning_identity_all_rows(self):
        """Every published row satisfies delta = 2(J2z +/- J2x) to rounding."""
        for i in TABLE_S1:
            r = table_row(i)
            sign = 1.0 if table_branch(i) == "plus" else -1.0
            want = 2.0 * (r["j2z"] + sign * r["j2x"])
            assert abs(want - r["delta"]) <= 0.4, f"row {i}"

    def test_j1_columns_equal_all_rows(self):
        for i in TABLE_S1:
            r = table_row(i)
            assert abs(r["j1x"] - r["j1z"]) <= 0.4 + 1e-9, f"row {i}"

    def test_ladder_coefficient_structure(self):
        """k + 2m = 2 j2z and k = -5 m hold for every published row."""
        for i in TABLE_S1:
            r = table_row(i)
            assert r["k23x"] + 2 * r["m23x"] == pytest.approx(
                2 * r["j2z"], rel=2e-3
            ), f"row {i}"
            assert r["k23x"] == pytest.approx(-5 * r["m23x"], rel=2e-3), f"row {i}"

    def test_row6_values(self):
        r = table_row(6)
        assert r["j1x"] == 40.9 and r["j2x"] == -540.4 and r["delta"] == 933.4

    def test_spin_params_builder(self):
        p = table_spin_params(6)
        assert p.j2z == 1007.1
        assert (table_branch(6), table_branch(11)) == ("plus", "minus")

    def test_qutrit_params_builder(self):
        """Row 6: the gap is the table's anh2 omega2, and r23x and p23x
        follow from the published k23x and m23x with j2y = j2x - 2 j2z."""
        q = table_qutrit_params(6)
        assert q.sideband_gap == (6.88 / 100.0) * (10.7 * 1000.0)
        assert q.r23x == (-540.4 - 2.0 * 1007.1) + 3357.1 + 4.0 * -671.4
        assert q.p23x == (-540.4 - 2.0 * 1007.1) + 3357.1 + 2.0 * -671.4
        # inferred sideband couplings stay at the coupling scale
        assert q.p23x == pytest.approx(-540.3, abs=0.2)

    def test_unknown_row(self):
        with pytest.raises(KeyError):
            table_row(17)


class TestMapping:
    def test_runs_on_all_rows(self):
        for i in TABLE_S1:
            res = circuit_to_spin(table_circuit_params(i))
            assert np.isfinite(res.omega1) and np.isfinite(res.j2x)
            assert res.r23x - res.p23x == pytest.approx(2 * res.m23x, rel=1e-12)

    def test_merged_transverse_coupling(self):
        res = circuit_to_spin(row6())
        # j2x = (transverse Josephson piece) + j2y by construction
        j2x_tilde = res.j2x - res.j2y
        assert np.isfinite(j2x_tilde)

    def test_anharmonicity_definition(self):
        res = circuit_to_spin(row6())
        p = row6()
        e_j1 = p.e1 + p.e12
        t1 = res.t_coeffs[0]
        assert res.anh_rel_1 == pytest.approx(
            -0.5 * e_j1 * t1**4 / res.omega1, rel=1e-9
        )

    def test_positive_param_validation(self):
        with pytest.raises(MappingError):
            CircuitParams(e1=-1, e2=1, e12=1, e23=1, c1=1, c2=1, c23=1, l12=1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", CIRCUIT_NAMES)
    def test_nonfinite_value_rejected(self, name, value):
        """NaN passes a ``<= 0`` test and inf is positive: row 6 with
        ``e1 = nan`` mapped to ``j1x = nan`` with a finite condition number,
        and ``l12 = inf`` mapped silently.  Both are refused, as the CLI
        refuses them."""
        values = dict(zip(CIRCUIT_NAMES, TABLE_S1[6]), **{name: value})
        with pytest.raises(MappingError, match=f"{name} must be strictly positive and finite"):
            CircuitParams(**values)


class TestDriveAmplitude:
    def test_against_independent_evaluation(self):
        """A charge drive of the control nodes enters the spin drive through
        (K^-1)_22 + (K^-1)_32 of the general-chain inverse, which the closed
        form gives as (c2 + 2 c23) / d = 1 / c2."""
        for params in [row6()] + random_circuits(seed=13, n=64):
            kinv, _ = inverse_capacitance(gate_capacitance_matrix(params))
            assert kinv[1, 1] + kinv[2, 1] == pytest.approx(1.0 / params.c2, rel=1e-12)
