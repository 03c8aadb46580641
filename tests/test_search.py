"""Tests for the circuit-parameter search."""

import hashlib
import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from helpers import run_cli
from swapgate.circuit_map import (
    CIRCUIT_NAMES,
    IND_ENERGY_SCALE,
    CircuitParams,
    MappingError,
    circuit_to_spin,
    map_sites,
    table_row,
    table_spin_params,
)
from swapgate.cli import (
    default_config,
    parse_config_text,
    resolve_config,
    run_experiment,
)
from swapgate.dynamics import NoiseModel
from swapgate.metrics import CLOSED_WINDOW, OPEN_WINDOW, average_fidelity, gate_window
from swapgate.spin_model import (
    TWO_PI,
    GateConfig,
    analytic_gate_time,
    build_interaction_hamiltonian,
    closed_config_for_branch,
    delta_for_branch,
    symmetric_chain,
)
from swapgate.search import (
    DEFAULT_BOUNDS,
    _FATOL,
    _XATOL,
    _cost_rows,
    _distinct,
    _lockstep_nelder_mead,
    _residuals,
    evaluate_cost,
    search,
)


def table_circuit_values(row):
    return [table_row(row)[name] for name in CIRCUIT_NAMES]


# the search box's edges in ``CIRCUIT_NAMES`` order
BOX_LO, BOX_HI = (np.array([DEFAULT_BOUNDS[n][k] for n in CIRCUIT_NAMES]) for k in (0, 1))


def draw_starts(seed, n):
    """The starts ``search`` draws for ``seed``."""
    rng = np.random.default_rng(seed)
    return BOX_LO + (BOX_HI - BOX_LO) * rng.random((n, len(BOX_LO)))


def search_costs(branch):
    """The search's batched cost on ``branch`` and its single-point form."""
    return (lambda x: _cost_rows(x, branch)[0],
            lambda x: evaluate_cost(x, branch)[0])


#: the value of ``plateau_cost`` where the first coordinate is negative
PLATEAU = 1e6


def plateau_cost(x):
    """A cost with an exact plateau, ``PLATEAU`` wherever the first
    coordinate is negative, and below it elsewhere a bowl with its floor at
    (100, ..., 100); its terms are added left to right, so a row costs the
    same bits in any batch."""
    x = np.asarray(x, dtype=float)
    bowl = sum(((x[:, k] - 100.0) / 100.0) ** 2 for k in range(x.shape[1]))
    return np.where(x[:, 0] < 0, PLATEAU, bowl)


def plateau_costs():
    """``plateau_cost`` on a batch and on one point."""
    return plateau_cost, lambda x: plateau_cost(x[None, :])[0]


def assert_matches_scipy(starts, budget, batch_cost, point_cost):
    """The lockstep descent on ``batch_cost`` against scipy's Nelder-Mead on
    ``point_cost``, its cost on one point, start by start.

    Each start's final simplex, its costs and its evaluation count must equal
    scipy's bit for bit, with the search's stopping tolerances.  Returns the
    lockstep costs.
    """
    with np.errstate(all="ignore"):  # as ``search`` holds it for its descent
        sims, fsims, nfev = _lockstep_nelder_mead(batch_cost, starts, budget)
    for r, x0 in enumerate(starts):
        sol = minimize(
            point_cost, x0,
            method="Nelder-Mead",
            options={"maxfev": budget, "xatol": _XATOL, "fatol": _FATOL},
        )
        final_sim, final_f = sol.final_simplex
        assert np.array_equal(sims[r, 0], sol.x), (r, budget)
        assert np.array_equal(sims[r], final_sim), (r, budget)
        assert np.array_equal(fsims[r], final_f), (r, budget)
        assert nfev[r] == sol.nfev, (r, budget)
    return fsims


class TestCostFunction:
    def test_residuals_of_mapped_point(self):
        x = np.array([561.6, 438.5, 186.0, 397.1, 926.3, 76.2, 240.4, 37.3])
        _, res, _ = evaluate_cost(x, "plus")
        assert set(res) == {
            "j1_equality", "delta_branch", "coupling_ratio", "anharmonicity"
        }
        assert all(v >= 0 for v in res.values())

    def test_out_of_bounds_penalized(self):
        x_in = np.array([300, 300, 200, 200, 500, 100, 300, 50], dtype=float)
        x_out = x_in.copy()
        x_out[0] = 5000.0
        c_in, _, _ = evaluate_cost(x_in, "plus")
        c_out, _, _ = evaluate_cost(x_out, "plus")
        assert c_out > c_in

    def test_smoothness_under_perturbation(self):
        """A 1% nudge on any single parameter changes the cost finitely."""
        x = np.array([300, 300, 200, 200, 500, 100, 300, 50], dtype=float)
        c0, _, _ = evaluate_cost(x, "plus")
        for k in range(8):
            x2 = x.copy()
            x2[k] *= 1.01
            c1, _, _ = evaluate_cost(x2, "plus")
            assert np.isfinite(c1)
            assert abs(c1 - c0) < 10.0


def box_points():
    """The box's 256 corners, 1,000 uniform draws inside it and 1,000 draws
    up to three widths past either side, clipped into it as the cost clips
    them."""
    rng = np.random.default_rng(53)
    width = BOX_HI - BOX_LO
    corners = np.array(list(itertools.product(*zip(BOX_LO, BOX_HI))))
    inside = BOX_LO + width * rng.random((1000, len(BOX_LO)))
    outside = BOX_LO + width * rng.uniform(-3.0, 4.0, (1000, len(BOX_LO)))
    return np.vstack([corners, inside, np.clip(outside, BOX_LO, BOX_HI)])


class TestEveryBoxPointMaps:
    """The search's cost has no infeasible branch: every point of
    ``DEFAULT_BOUNDS`` maps.  A box that admits an unmappable point fails
    here rather than giving NaN costs."""

    def test_checked_mapping_accepts_every_point(self):
        """``circuit_to_spin`` raises on a singular or ill-conditioned
        capacitance matrix and on a nonpositive quartic-root radicand."""
        points = box_points()
        assert len(points) == 2256
        for x in points:
            circuit_to_spin(CircuitParams(*x.tolist()))

    def test_capacitance_bounds(self):
        """Over the box, the normalized determinant
        c2 (c2 + 2 c23) / ((c2 + c23)^2 + c23^2) is at least 0.0198 (at
        c2 = 20, c23 = 1000) and the condition number
        max(c1, c2 + 2 c23) / min(c1, c2) at most 150 (at c1 = 20,
        c2 = c23 = 1000), far from the mapping's 1e-12 and 1e12 limits."""
        sites = map_sites(np.ascontiguousarray(box_points().T))
        assert sites["det_norm"].min() >= 0.0198
        assert sites["condition_number"].max() <= 150.0
        assert sites["ra"].min() > 0 and sites["rb"].min() > 0

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_costs_are_finite(self, branch):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cost, _ = _cost_rows(box_points(), branch)
        assert np.isfinite(cost).all()


@pytest.fixture(scope="class")
def certificate_sites():
    """The box's 256 corners and 200,000 uniform draws inside it, as the
    columns of ``x`` (the corners first), and their ``map_sites`` fields."""
    corners = np.array(list(itertools.product(*zip(BOX_LO, BOX_HI))))
    draws = BOX_LO + (BOX_HI - BOX_LO) * np.random.default_rng(5).random((200_000, 8))
    x = np.ascontiguousarray(np.vstack([corners, draws]).T)
    with np.errstate(all="ignore"):
        return x, map_sites(x)


class TestNoBoxPointPasses:
    """No circuit of ``DEFAULT_BOUNDS`` meets the search's ``j1_equality``
    <= 0.01.  On the end bond the mapping reads, with u = e12 / (e12 + E_L)
    and the mode scales ta, tb,

        J1z / J1x = 1/2 u ta tb / (1 - 1/2 u (ta^2 + tb^2)),

    and over the box ta^2 + tb^2 < 0.251 and u < 1, so J1z / J1x < 0.0718
    (1/2 ta tb <= 1/4 (ta^2 + tb^2)) and ``j1_equality`` > 0.928 everywhere."""

    def test_closed_form_ratio_matches_the_mapping(self, certificate_sites):
        x, sites = certificate_sites
        e12, l12 = x[2], x[7]
        u = e12 / (e12 + IND_ENERGY_SCALE * TWO_PI**2 / l12)
        ta, tb = sites["ta"], sites["tb"]
        closed = 0.5 * u * ta * tb / (1.0 - 0.5 * u * (ta * ta + tb * tb))
        np.testing.assert_allclose(closed, sites["j1z"] / sites["j1x"], rtol=1e-14, atol=0)
        assert u.max() < 1.0 and (ta * ta + tb * tb).max() < 0.251

    def test_j1_equality_is_at_least_0_928(self, certificate_sites):
        _, sites = certificate_sites
        assert _residuals(sites, "plus")["j1_equality"].min() >= 0.928

    def test_best_point_is_the_small_corner(self, certificate_sites):
        """The ratio grows with ta, tb and u: its largest value, the box's
        smallest ``j1_equality``, is 0.93851 at the corner of the smallest
        junctions and capacitances and the largest inductance."""
        x, sites = certificate_sites
        equality = _residuals(sites, "plus")["j1_equality"][:256]
        best = int(np.argmin(equality))
        assert round(float(equality[best]), 5) == 0.93851
        assert dict(zip(CIRCUIT_NAMES, x[:, best])) == {
            "e1": 50.0, "e2": 50.0, "e12": 50.0, "e23": 50.0,
            "c1": 20.0, "c2": 20.0, "c23": 20.0, "l12": 100.0}


def parity_points():
    """256 points, half of them outside the box by up to half its width per
    side."""
    rng = np.random.default_rng(31)
    return BOX_LO + (BOX_HI - BOX_LO) * rng.uniform(-0.5, 1.5, (256, len(BOX_LO)))


class TestCostParity:
    """The batched cost, row by row, against ``evaluate_cost`` on one point,
    and against the recorded bits of the batch."""

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_rows_equal_single_point_cost(self, branch):
        x = parity_points()
        with np.errstate(all="ignore"):  # held by ``_cost_rows``' callers
            batch, _ = _cost_rows(x, branch)
        assert np.array_equal(batch, [evaluate_cost(row, branch)[0] for row in x])

    @pytest.mark.parametrize("branch, digest", [
        ("plus", "a1874c817730ddc20c97c40c9c4de7ba34eeb0f43b9bb41368d070a6da76c57f"),
        ("minus", "8dba038514fec97bab70c0be5ea178105005a86f726d500c9c46b1067ca09576"),
    ], ids=["plus", "minus"])
    def test_costs_keep_their_recorded_bits(self, branch, digest):
        """The sha256 of the branch's costs, little-endian, as first
        recorded.  The scipy comparisons call the same cost on both sides,
        so a cost that changed bits would still pass them; it fails here."""
        with np.errstate(all="ignore"):
            batch, _ = _cost_rows(parity_points(), branch)
        assert hashlib.sha256(batch.astype("<f8").tobytes()).hexdigest() == digest

    def test_single_point_reports_match_the_mapping(self):
        x = np.array([561.6, 438.5, 186.0, 397.1, 926.3, 76.2, 240.4, 37.3])
        cost, res, spin = evaluate_cost(x, "plus")
        want = circuit_to_spin(CircuitParams(*x))
        assert spin == want
        assert res == {name: float(v) for name, v in _residuals(vars(want), "plus").items()}
        weighted = (res["j1_equality"] ** 2 + res["delta_branch"] ** 2
                    + res["coupling_ratio"] ** 2 + 0.1 * res["anharmonicity"] ** 2)
        assert cost == pytest.approx(weighted, rel=1e-14)


class TestLockstepDescent:
    """``_lockstep_nelder_mead`` is scipy's Nelder-Mead, run for every start
    at once."""

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    @pytest.mark.parametrize("budget", [1, 8, 9, 10, 37, 400])
    def test_matches_scipy_per_start(self, budget, branch):
        # budgets below, at and just past the initial simplex's 9
        # evaluations, one that stops mid-iteration and a long descent
        assert_matches_scipy(draw_starts(budget, 6), budget, *search_costs(branch))

    def test_matches_scipy_on_the_search_budget(self):
        assert_matches_scipy(draw_starts(2000, 4), 2000, *search_costs("plus"))

    def test_zero_coordinate_start(self):
        """Starts with a zero coordinate, which scipy steps by 0.00025 where
        it steps the others by 5%; one of them sits on the plateau's edge."""
        starts = draw_starts(4, 5)
        starts[0, 2] = 0.0
        starts[1, 0] = 0.0
        starts[3, 7] = 0.0
        assert_matches_scipy(starts, 150, *plateau_costs())

    def test_cost_plateaus_and_ties(self):
        """Where the first coordinate is negative the cost is exactly
        ``PLATEAU``: ties between trial and vertex costs decide the branch."""
        starts = draw_starts(9, 8)
        starts[:, 0] -= 400.0
        fsims = assert_matches_scipy(starts, 120, *plateau_costs())
        assert np.any(fsims == PLATEAU) and np.any(fsims < PLATEAU)

    @pytest.mark.parametrize("budget", range(11, 20))
    def test_budget_ends_mid_shrink(self, budget):
        """On a plateau every iteration shrinks: 9 initial evaluations, a
        reflection and an inside contraction that tie with the worst vertex,
        then 8 shrink evaluations, of which budgets 11-19 allow 0-8.  The
        starts are table circuits with a negative first coordinate, whose
        simplices stay on the plateau, so every vertex costs exactly
        ``PLATEAU``."""
        starts = np.array([table_circuit_values(row) for row in (1, 6, 8)])
        starts[:, 0] = [-300.0, -450.0, -120.0]
        calls = []

        def cost(x):
            calls.append(len(x))
            return plateau_cost(x)

        _lockstep_nelder_mead(cost, starts, budget)
        assert calls == [27, 12, 24]  # init, trial points, all three shrink
        fsims = assert_matches_scipy(starts, budget, *plateau_costs())
        assert np.all(fsims == PLATEAU)

    def test_search_is_the_lockstep_descent_of_its_starts(self):
        """``search`` draws its starts in restart order and reports the cost
        at each start's best vertex."""
        results = search(branch="plus", seed=4, n_restarts=3, max_evaluations=60,
                         keep_all=True)
        fsims = assert_matches_scipy(draw_starts(4, 3), 60, *search_costs("plus"))
        assert results[0].cost == fsims[:, 0].min()
        assert {r.cost for r in results} <= set(fsims[:, 0].tolist())

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_results_are_the_single_point_cost_of_each_best_vertex(self, seed, branch):
        """``search`` assembles all results from one batched cost call: each
        must be ``evaluate_cost`` at its own restart's best vertex, with the
        same cost, residuals and every mapped spin field."""
        with np.errstate(all="ignore"):  # as ``search`` holds it
            sims, _, _ = _lockstep_nelder_mead(
                search_costs(branch)[0], draw_starts(seed, 6), 120)
        want = {
            CircuitParams(*map(float, np.clip(x, BOX_LO, BOX_HI))): evaluate_cost(x, branch)
            for x in sims[:, 0]
        }
        results = search(branch=branch, seed=seed, n_restarts=6,
                         max_evaluations=120, keep_all=True)
        assert len(results) >= 2
        for r in results:
            assert (r.cost, r.residuals, r.spin) == want[r.circuit]


class TestSearch:
    def test_deterministic(self):
        a = search(branch="plus", seed=3, n_restarts=3, max_evaluations=150, keep_all=True)
        b = search(branch="plus", seed=3, n_restarts=3, max_evaluations=150, keep_all=True)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra.cost == rb.cost
            assert ra.circuit == rb.circuit

    def test_sorted_and_deduplicated(self):
        results = search(branch="plus", seed=1, n_restarts=4, max_evaluations=150,
                         keep_all=True)
        costs = [r.cost for r in results]
        assert costs == sorted(costs)
        for i, a in enumerate(results):
            for b in results[i + 1:]:
                rel = max(
                    abs(getattr(a.circuit, n) - getattr(b.circuit, n))
                    / max(abs(getattr(b.circuit, n)), 1e-12)
                    for n in DEFAULT_BOUNDS
                )
                assert rel > 0.01

    def test_distinct_rows_match_the_pairwise_loop(self):
        """``_distinct`` against a loop over sorted (cost, values) tuples
        that keeps a row only if, for every kept row, some value differs by
        more than 1% of the kept row's.  Of the 26 rows, 8 go: four within
        0.5% of a base row and two exact copies; of rows that differ only in
        a value of 99, 100 and 101, the 101 (1% of 100 exactly), while 100
        stays, 1% from 99 only relative to 100; and of 200, 201.5 and 203.5,
        the 201.5, while 203.5 stays, within 1% of the dropped 201.5 only.
        Costs are drawn with many ties, then all tied."""
        base = draw_starts(7, 12)
        tail = np.repeat(base[8:9], 6, axis=0)
        tail[:, 0] = [101.0, 100.0, 99.0, 203.5, 201.5, 200.0]
        rows = np.vstack([base, base[:4] * 1.005, base[4:6], base[6:8] * 1.02, tail])
        cost = np.round(np.random.default_rng(7).random(len(rows)), 1)
        cost[-6:] = 0.0
        for c in (cost, np.zeros(len(rows))):
            order = sorted(range(len(rows)), key=lambda i: (c[i], *rows[i]))
            want = []
            for i in order:
                if all(max(abs(a - b) / max(abs(b), 1e-12) for a, b in zip(rows[i], rows[k]))
                       > 0.01 for k in want):
                    want.append(i)
            assert _distinct(c, rows).tolist() == want
            assert len(want) == len(rows) - 8 and {21, 22, 23, 25} <= set(want)

    def test_many_restarts_stay_small_in_memory(self):
        """2,000 restarts, one evaluation each: deduplicating them compares
        rows in blocks, so the search allocates far less than the 488 MiB of
        the (m, m, 8) pairwise differences (10,000 restarts, which the
        configuration allows, would have needed about 12 GB).  Points drawn
        at random in the box are all more than 1% apart."""
        tracemalloc.start()
        try:
            results = search(branch="plus", seed=0, n_restarts=2000, max_evaluations=1,
                             keep_all=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert len(results) == 2000

    def test_keep_all_false_keeps_the_accepted_results(self):
        """Nothing passes the acceptance residuals (ROADMAP item 11), so the
        filtered search is empty."""
        kwargs = dict(branch="plus", seed=2, n_restarts=4, max_evaluations=150)
        every = search(**kwargs, keep_all=True)
        assert every and not any(r.accepted for r in every)
        assert search(**kwargs, keep_all=False) == []

    def test_default_experiment_regression_pin(self):
        """The default ``search`` experiment's best cost and result count.

        Nelder-Mead on this flat landscape amplifies one-ulp changes in the
        cost path, so an edit that changes the descent shows up here.
        """
        cfg = default_config("search")
        assert (cfg["grid"]["n_restarts"], cfg["grid"]["max_evaluations"],
                cfg["run"]["seed"], cfg["model"]["branch"]) == (8, 400, 0, "plus")
        summary = run_experiment(cfg).summary
        assert summary["best_cost"] == pytest.approx(0.9633969687757836, rel=1e-9)
        assert summary["n_results"] == 8

    def test_entry_points_raise_no_warning(self):
        """Every entry point keeps numpy's warnings inside: ``search``,
        ``evaluate_cost`` far outside the box (the penalty overflows to inf)
        and ``circuit_to_spin`` on a circuit it refuses."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results = search(branch="plus", seed=9, n_restarts=8, max_evaluations=120,
                             keep_all=True)
            cost, _, _ = evaluate_cost(np.full(len(CIRCUIT_NAMES), 1e308), "plus")
            # e1 + e12 overflows: a zero end radicand, reached through inf
            huge = dict(zip(CIRCUIT_NAMES, table_circuit_values(6)), e1=1e308, e12=1e308)
            with pytest.raises(MappingError, match="quartic-root"):
                circuit_to_spin(CircuitParams(**huge))
        assert results and cost == np.inf

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        """A budget below one would leave the starts undescended, and its
        stopping test would subtract inf from inf; ``search`` refuses it, as
        the CLI does, before any arithmetic."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="max_evaluations must be at least 1"):
                search(branch="plus", seed=0, n_restarts=2, max_evaluations=budget,
                       keep_all=True)

    def test_budget_beyond_int64_runs_as_the_largest_int64_budget(self, tmp_path):
        """The schema puts no upper bound on ``max_evaluations`` and the
        descent counts in int64: 2**70 (which overflowed mid-shrink, exit 1)
        gives the results of 2**63 - 1, through the library and the CLI."""
        knobs = dict(branch="plus", seed=3, n_restarts=2, keep_all=True)
        results = search(max_evaluations=2**70, **knobs)
        assert results == search(max_evaluations=2**63 - 1, **knobs)
        cfgfile = tmp_path / "s.cfg"
        cfgfile.write_text("experiment = search\n[grid]\nn_restarts = 2\n"
                           f"max_evaluations = {2**70}\n[run]\nseed = 3\n")
        out = tmp_path / "s.csv"
        result = run_cli(["search", "--config", str(cfgfile), "--out", str(out)])
        assert result.exit_code == 0, result.output
        summary = json.loads(out.with_suffix(".json").read_text())["summary"]
        assert summary["best_cost"] == results[0].cost
        assert summary["n_results"] == len(results)

    @pytest.mark.parametrize(
        "knob", ["branch", "seed", "n_restarts", "max_evaluations", "keep_all"])
    def test_knobs_are_required_keywords(self, knob):
        """``search`` states no default for its knobs, so the CLI schema is
        the only place that does: leaving one out, or passing them by
        position, is refused before any descent."""
        knobs = dict(branch="plus", seed=0, n_restarts=2, max_evaluations=10,
                     keep_all=True)
        del knobs[knob]
        with pytest.raises(TypeError, match=f"required keyword-only argument: '{knob}'"):
            search(**knobs)
        with pytest.raises(TypeError, match="positional"):
            search(*knobs.values())

    def test_minus_branch_runs(self):
        results = search(
            branch="minus", seed=2, n_restarts=3, max_evaluations=150,
            keep_all=True,
        )
        assert results
        # the descent made progress on the branch residual somewhere
        assert min(r.residuals["delta_branch"] for r in results) < 1.0

    def test_descent_reduces_cost(self):
        """The polished minimum beats its own starting point."""
        x0, = draw_starts(5, 1)
        c0, _, _ = evaluate_cost(x0, "plus")
        best = search(branch="plus", seed=5, n_restarts=1, max_evaluations=400,
                      keep_all=True)
        assert best[0].cost <= c0


def scored_gate(params, branch, gamma, n_samples):
    """The open peak trace and the closed trace over a gate period of a
    solution on ``branch``, at decoherence rate ``gamma``."""
    noise = NoiseModel(gamma=gamma) if gamma > 0 else None
    h = build_interaction_hamiltonian(params)
    trace_open, = average_fidelity(h, [GateConfig(delta_branch=branch)], noise,
                                   gate_window(params, *OPEN_WINDOW, n_samples))
    trace_closed, = average_fidelity(h, [closed_config_for_branch(branch)], noise,
                                     gate_window(params, *CLOSED_WINDOW, n_samples))
    return trace_open, trace_closed


class TestValidation:
    """A search solution is judged by the fidelity pipeline on its branch."""

    def test_row6_equivalent_passes_thresholds(self):
        """Published row-6 spin parameters validate as a working gate."""
        params = table_spin_params(6)
        trace_open, trace_closed = scored_gate(params, "plus", 0.01, 60)
        tg = analytic_gate_time(params)
        assert trace_open.peak_value >= 0.98
        assert min(trace_closed.fbar) >= 0.98
        assert 0.85 * tg <= trace_open.peak_time <= tg

    def test_explicit_detuning_scored_on_its_branch(self):
        """A minus-resonant chain scores as a working gate on the minus
        branch (on the plus branch it read 0.2046 open peak and 0.2709
        closed minimum)."""
        j1, j2x, j2z = 40.9, -540.4, 1007.1
        delta = delta_for_branch("minus", j2x, j2z)
        chain = symmetric_chain(j1, j1, j2x, j2z, delta)
        trace_open, trace_closed = scored_gate(chain, "minus", 0.0, 60)
        assert trace_open.peak_value == pytest.approx(0.978, abs=1e-3)
        assert min(trace_closed.fbar) == pytest.approx(0.990, abs=1e-3)

    def test_noise_strictly_reduces_peak(self):
        clean, _ = scored_gate(table_spin_params(6), "plus", 0.0, 50)
        noisy, _ = scored_gate(table_spin_params(6), "plus", 0.01, 50)
        assert noisy.peak_value < clean.peak_value


def test_package_does_not_shadow_the_search_module():
    """``swapgate.search`` is the module, not a function exported over it."""
    import types

    import swapgate.search as module

    assert isinstance(module, types.ModuleType)
    assert callable(module.search)
