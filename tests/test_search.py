"""Tests for the circuit-parameter search."""

import hashlib
import importlib.util
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from swapgate.circuit_map import (
    CIRCUIT_NAMES,
    CircuitParams,
    MappingError,
    circuit_to_spin,
    map_sites,
    table_row,
    table_spin_params,
)
from swapgate.cli import default_config, parse_config_text, resolve_config, run_experiment
from swapgate.dynamics import NoiseModel
from swapgate.metrics import CLOSED_WINDOW, OPEN_WINDOW, average_fidelity, gate_window
from swapgate.spin_model import (
    GateConfig,
    analytic_gate_time,
    build_interaction_hamiltonian,
    closed_config_for_branch,
    delta_for_branch,
    symmetric_chain,
)
from swapgate.search import (
    DEFAULT_BOUNDS,
    INFEASIBLE_COST,
    _FATOL,
    _XATOL,
    _box,
    _cost_rows,
    _lockstep_nelder_mead,
    _residuals,
    evaluate_cost,
    search,
)


def table_circuit_values(row):
    return [table_row(row)[name] for name in CIRCUIT_NAMES]


def draw_starts(seed, n, bounds=DEFAULT_BOUNDS):
    lo, hi = _box(bounds)
    rng = np.random.default_rng(seed)
    return lo + (hi - lo) * rng.random((n, len(lo)))


def assert_matches_scipy(starts, budget, branch="plus", bounds=DEFAULT_BOUNDS):
    """The lockstep descent against scipy's Nelder-Mead, start by start.

    Each start's final simplex, its costs and its evaluation count must equal
    scipy's bit for bit, with the search's cost and stopping tolerances.
    Returns the lockstep costs.
    """
    lo, hi = _box(bounds)
    with np.errstate(all="ignore"):  # as ``search`` holds it for its descent
        sims, fsims, nfev = _lockstep_nelder_mead(
            lambda x: _cost_rows(x, branch, lo, hi)[0],
            starts, budget,
        )
    for r, x0 in enumerate(starts):
        sol = minimize(
            lambda x: evaluate_cost(x, branch, bounds)[0], x0,
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
        _, res, _ = evaluate_cost(x, "plus", DEFAULT_BOUNDS)
        assert set(res) == {
            "j1_equality", "delta_branch", "coupling_ratio", "anharmonicity"
        }
        assert all(v >= 0 for v in res.values())

    def test_out_of_bounds_penalized(self):
        x_in = np.array([300, 300, 200, 200, 500, 100, 300, 50], dtype=float)
        x_out = x_in.copy()
        x_out[0] = 5000.0
        c_in, _, _ = evaluate_cost(x_in, "plus", DEFAULT_BOUNDS)
        c_out, _, _ = evaluate_cost(x_out, "plus", DEFAULT_BOUNDS)
        assert c_out > c_in

    def test_inverted_bounds_rejected(self):
        """Clipping into a box with lo > hi has no meaning; the single-point
        cost refuses it as ``search`` does."""
        bounds = dict(DEFAULT_BOUNDS, e1=(700.0, 50.0))
        x = np.array([300, 300, 200, 200, 500, 100, 300, 50], dtype=float)
        with pytest.raises(ValueError, match="lo <= hi"):
            evaluate_cost(x, "plus", bounds)
        with pytest.raises(ValueError, match="lo <= hi"):
            search(bounds=bounds, n_restarts=1, max_evaluations=10)

    @pytest.mark.parametrize("bounds", [DEFAULT_BOUNDS, {"e1": (50.0, 700.0)}, None],
                             ids=["full", "partial", "none"])
    def test_partial_box_is_filled_from_the_defaults(self, bounds):
        """A name the box does not list keeps its default range, as in
        ``search``; an inverted range is still refused."""
        x = np.array([300, 300, 200, 200, 500, 100, 300, 50], dtype=float)
        want, _, _ = evaluate_cost(x, "plus", DEFAULT_BOUNDS)
        assert evaluate_cost(x, "plus", bounds)[0] == want
        with pytest.raises(ValueError, match="lo <= hi"):
            evaluate_cost(x, "plus", dict(bounds or {}, e1=(700.0, 50.0)))

    def test_smoothness_under_perturbation(self):
        """A 1% nudge on any single parameter changes the cost finitely."""
        x = np.array([300, 300, 200, 200, 500, 100, 300, 50], dtype=float)
        c0, _, _ = evaluate_cost(x, "plus", DEFAULT_BOUNDS)
        for k in range(8):
            x2 = x.copy()
            x2[k] *= 1.01
            c1, _, _ = evaluate_cost(x2, "plus", DEFAULT_BOUNDS)
            assert np.isfinite(c1)
            assert abs(c1 - c0) < 10.0


# the TestCostParity boxes
BOX_FEASIBLE = DEFAULT_BOUNDS
# lo <= 0: clipped values at or below zero are not circuits
BOX_NONPOSITIVE = dict(DEFAULT_BOUNDS, e1=(-700.0, 700.0), c2=(0.0, 1000.0))
# c2 / c23 below 1e-12: a singular capacitance matrix
BOX_SINGULAR = dict(DEFAULT_BOUNDS, c2=(1e-13, 1e-11), c23=(500.0, 1000.0))
# c1 / c2 above 1e12: an ill-conditioned one
BOX_ILL_CONDITIONED = dict(DEFAULT_BOUNDS, c1=(1e16, 1e17))


def parity_points(lo, hi):
    """256 points, half of them outside the box by up to half its width per
    side."""
    rng = np.random.default_rng(31)
    return lo + (hi - lo) * rng.uniform(-0.5, 1.5, (256, len(lo)))


class TestCostParity:
    """The batched cost, row by row, against ``evaluate_cost`` on one point,
    and against the recorded bits of each batch."""

    @pytest.mark.parametrize("bounds, n_feasible", [
        (BOX_FEASIBLE, "all"),
        (BOX_NONPOSITIVE, "some"),
        (BOX_SINGULAR, "none"),
        (BOX_ILL_CONDITIONED, "none"),
    ])
    def test_rows_equal_single_point_cost(self, bounds, n_feasible):
        lo, hi = _box(bounds)
        x = parity_points(lo, hi)
        for branch in ("plus", "minus"):
            with np.errstate(all="ignore"):  # held by ``_cost_rows``' callers
                batch, feasible, _ = _cost_rows(x, branch, lo, hi)
            single = [evaluate_cost(row, branch, bounds) for row in x]
            assert np.array_equal(batch, [c for c, _, _ in single])
            assert np.array_equal(feasible, [res is not None for _, res, _ in single])
            assert n_feasible == {0: "none", len(x): "all"}.get(feasible.sum(), "some")
            assert np.all(batch[~feasible] >= INFEASIBLE_COST)

    @pytest.mark.parametrize("bounds, digests", [
        (BOX_FEASIBLE,
         ("a1874c817730ddc20c97c40c9c4de7ba34eeb0f43b9bb41368d070a6da76c57f",
          "8dba038514fec97bab70c0be5ea178105005a86f726d500c9c46b1067ca09576")),
        (BOX_NONPOSITIVE,
         ("9c6ad31229b0b3e17c32f3019c7fc9874b66a9188d27f3de4430b135ec8a16e5",
          "95e731514687ad8e10b9a1ba07756e3b0eb6846e53b1fa2ad61b826f27341ad6")),
        # no point maps: 1e6 plus the bounds penalty, on either branch
        (BOX_SINGULAR,
         ("13e82273947407af51079a413799985c03017c334deba5724ae37eb61561b081",) * 2),
        (BOX_ILL_CONDITIONED,
         ("6e90020e9dc2a658b918c495fbbc1a3e540a0727fc36733e5c950996c3f9bfe6",) * 2),
    ], ids=["feasible", "nonpositive", "singular", "ill-conditioned"])
    def test_costs_keep_their_recorded_bits(self, bounds, digests):
        """The sha256 of each branch's costs, little-endian, as first
        recorded.  The scipy comparisons call the same cost on both sides,
        so a cost that changed bits would still pass them; it fails here."""
        lo, hi = _box(bounds)
        for branch, digest in zip(("plus", "minus"), digests):
            with np.errstate(all="ignore"):
                batch, _, _ = _cost_rows(parity_points(lo, hi), branch, lo, hi)
            assert hashlib.sha256(batch.astype("<f8").tobytes()).hexdigest() == digest

    def test_single_point_reports_match_the_mapping(self):
        x = np.array([561.6, 438.5, 186.0, 397.1, 926.3, 76.2, 240.4, 37.3])
        cost, res, spin = evaluate_cost(x, "plus", DEFAULT_BOUNDS)
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
        assert_matches_scipy(draw_starts(budget, 6), budget, branch)

    def test_matches_scipy_on_the_search_budget(self):
        assert_matches_scipy(draw_starts(2000, 4), 2000)

    def test_zero_coordinate_and_degenerate_bounds(self):
        """A start with a zero coordinate (scipy steps it by 0.00025) under a
        box with ``lo == hi`` on two parameters (a 1e-9 penalty scale)."""
        bounds = dict(DEFAULT_BOUNDS, l12=(50.0, 50.0), c23=(300.0, 300.0))
        starts = draw_starts(4, 5, bounds)
        starts[0, 2] = 0.0
        starts[3, 7] = 0.0
        assert_matches_scipy(starts, 150, "minus", bounds)

    def test_cost_plateaus_and_ties(self):
        """Under lo <= 0 bounds whole regions cost exactly ``INFEASIBLE_COST``:
        ties between trial and vertex costs decide the branch."""
        bounds = dict(DEFAULT_BOUNDS, e1=(-700.0, 700.0), c2=(-1000.0, 1000.0))
        starts = draw_starts(9, 8, bounds)
        fsims = assert_matches_scipy(starts, 120, "plus", bounds)
        assert np.any(fsims == INFEASIBLE_COST)

    @pytest.mark.parametrize("budget", range(11, 20))
    def test_budget_ends_mid_shrink(self, budget):
        """On a flat infeasible region every iteration shrinks: 9 initial
        evaluations, a reflection and an inside contraction that tie with the
        worst vertex, then 8 shrink evaluations, of which budgets 11-19 allow
        0-8.  The starts are table circuits with e1 < 0 whose initial
        simplices stay inside the box, so every vertex costs exactly
        ``INFEASIBLE_COST``."""
        bounds = dict(DEFAULT_BOUNDS, e1=(-700.0, 700.0))
        starts = np.array([table_circuit_values(row) for row in (1, 6, 8)])
        starts[:, 0] = [-300.0, -450.0, -120.0]
        calls = []

        def cost(x):
            calls.append(len(x))
            return _cost_rows(x, "plus", *_box(bounds))[0]

        with np.errstate(all="ignore"):  # as ``search`` holds it
            _lockstep_nelder_mead(cost, starts, budget)
        assert calls == [27, 12, 24]  # init, trial points, all three shrink
        fsims = assert_matches_scipy(starts, budget, "plus", bounds)
        assert np.all(fsims == INFEASIBLE_COST)

    def test_point_bounds(self):
        """A box of one point: every step off it costs ~1e18 (a 1e-9
        penalty scale), so the start stays the best vertex."""
        point = {k: (v[0], v[0]) for k, v in DEFAULT_BOUNDS.items()}
        lo, _ = _box(point)
        fsims = assert_matches_scipy(lo[None, :], 50, "plus", point)
        assert fsims[0, 0] == evaluate_cost(lo, "plus", point)[0]

    def test_search_is_the_lockstep_descent_of_its_starts(self):
        """``search`` draws its starts in restart order and reports the cost
        at each start's best vertex."""
        results = search(seed=4, n_restarts=3, max_evaluations=60, keep_all=True)
        fsims = assert_matches_scipy(draw_starts(4, 3), 60)
        assert results[0].cost == fsims[:, 0].min()
        assert {r.cost for r in results} <= set(fsims[:, 0].tolist())

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_results_are_the_single_point_cost_of_each_best_vertex(self, seed, branch):
        """``search`` assembles all results from one batched cost call: each
        must be ``evaluate_cost`` at its own restart's best vertex, with the
        same cost, residuals and every mapped spin field."""
        lo, hi = _box(DEFAULT_BOUNDS)
        with np.errstate(all="ignore"):  # as ``search`` holds it
            sims, _, _ = _lockstep_nelder_mead(
                lambda x: _cost_rows(x, branch, lo, hi)[0],
                draw_starts(seed, 6), 120,
            )
        want = {}
        for x in sims[:, 0]:
            cost, res, spin = evaluate_cost(x, branch, DEFAULT_BOUNDS)
            if res is not None:
                want[CircuitParams(*map(float, np.clip(x, lo, hi)))] = (cost, res, spin)
        results = search(branch=branch, seed=seed, n_restarts=6,
                         max_evaluations=120, keep_all=True)
        assert len(results) >= 2
        for r in results:
            assert (r.cost, r.residuals, r.spin) == want[r.circuit]


class TestSearch:
    def test_deterministic(self):
        a = search(seed=3, n_restarts=3, max_evaluations=150, keep_all=True)
        b = search(seed=3, n_restarts=3, max_evaluations=150, keep_all=True)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra.cost == rb.cost
            assert ra.circuit == rb.circuit

    def test_sorted_and_deduplicated(self):
        results = search(seed=1, n_restarts=4, max_evaluations=150, keep_all=True)
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

    def test_degenerate_infeasible_bounds_empty(self):
        point = {k: (v[0], v[0]) for k, v in DEFAULT_BOUNDS.items()}
        out = search(bounds=point, seed=0, n_restarts=2, max_evaluations=50)
        assert out == []

    def test_infeasible_and_nan_rows_raise_no_warning(self):
        """Under lo <= 0 bounds the descent meets non-positive circuit values
        and negative quartic-root radicands (NaN mode scales); every entry
        point keeps numpy's warnings inside."""
        bounds = dict(DEFAULT_BOUNDS, e1=(-700.0, 700.0), c2=(-1000.0, 1000.0))
        lo, hi = _box(bounds)
        starts = draw_starts(9, 8, bounds)
        with np.errstate(all="ignore"):  # ``_cost_rows`` is not an entry point
            _, feasible, clipped = _cost_rows(starts, "plus", lo, hi)
            sites = map_sites(clipped)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results = search(bounds=bounds, seed=9, n_restarts=8,
                             max_evaluations=120, keep_all=True)
            cost, res, spin = evaluate_cost(starts[~feasible][0], "plus", bounds)
            # e1 + e12 overflows: a zero end radicand, reached through inf
            huge = dict(zip(CIRCUIT_NAMES, table_circuit_values(6)), e1=1e308, e12=1e308)
            with pytest.raises(MappingError, match="quartic-root"):
                circuit_to_spin(CircuitParams(**huge))
        assert not feasible.all() and np.isnan(sites["ta"]).any()
        assert results and (res, spin) == (None, None) and cost >= INFEASIBLE_COST

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        """A budget below one would leave the starts undescended, and its
        stopping test would subtract inf from inf; ``search`` refuses it, as
        the CLI does, before any arithmetic."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="max_evaluations must be at least 1"):
                search(seed=0, n_restarts=2, max_evaluations=budget)

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
        rng = np.random.default_rng(5)
        lo = np.array([DEFAULT_BOUNDS[n][0] for n in DEFAULT_BOUNDS])
        hi = np.array([DEFAULT_BOUNDS[n][1] for n in DEFAULT_BOUNDS])
        x0 = lo + (hi - lo) * rng.random(8)
        c0, _, _ = evaluate_cost(x0, "plus", DEFAULT_BOUNDS)
        best = search(seed=5, n_restarts=1, max_evaluations=400, keep_all=True)
        assert best[0].cost <= c0


WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_benchmark_search_alternatives_match_the_reference(monkeypatch):
    """The benchmark's eight search alternatives (16 starts, 2,000
    evaluations, seeds 0-7) against its stored reference outputs, with its
    own tolerances: exact result and acceptance counts, the best cost to
    1e-9 relative.  A benchmark run checks only the alternative its seed
    draws.  ``perfbench/workloads.py`` uses only the standard library; it
    is loaded by path, and registered while it runs, as its dataclass
    needs."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    reference = workloads.load_reference()
    experiments = [exp for slot in workloads.WORKLOADS["circuit_search"] for exp in slot
                   if exp.key.startswith("circuit_search/search_seed")]
    assert len(experiments) == 8
    for exp in experiments:
        record = run_experiment(resolve_config(parse_config_text(exp.config)))
        assert workloads.check_outputs(exp.key, workloads.key_outputs(record),
                                       reference) == []


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
