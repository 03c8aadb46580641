"""Tests for the circuit-parameter search."""

import numpy as np
import pytest

from swapgate.circuit_map import CircuitParams, circuit_to_spin, table_spin_params
from swapgate.cli import default_config, run_experiment
from swapgate.search import (
    DEFAULT_BOUNDS,
    CostSpec,
    evaluate_cost,
    requirement_residuals,
    search,
    validate_solution,
)


class TestCostFunction:
    def test_weights_validation(self):
        with pytest.raises(ValueError):
            CostSpec(w_j1_equality=0.0)
        with pytest.raises(ValueError):
            CostSpec(w_coupling_ratio=-1.0)

    def test_residuals_of_mapped_point(self):
        spin = circuit_to_spin(CircuitParams(
            e1=561.6, e2=438.5, e12=186.0, e23=397.1,
            c1=926.3, c2=76.2, c23=240.4, l12=37.3,
        ))
        res = requirement_residuals(spin, "plus", CostSpec())
        assert set(res) == {
            "j1_equality", "delta_branch", "coupling_ratio", "anharmonicity"
        }
        assert all(v >= 0 for v in res.values())

    def test_out_of_bounds_penalized(self):
        x_in = np.array([300, 300, 200, 200, 500, 100, 300, 50], dtype=float)
        x_out = x_in.copy()
        x_out[0] = 5000.0
        c_in, _, _ = evaluate_cost(x_in, "plus", CostSpec(), DEFAULT_BOUNDS)
        c_out, _, _ = evaluate_cost(x_out, "plus", CostSpec(), DEFAULT_BOUNDS)
        assert c_out > c_in

    def test_smoothness_under_perturbation(self):
        """A 1% nudge on any single parameter changes the cost finitely."""
        x = np.array([300, 300, 200, 200, 500, 100, 300, 50], dtype=float)
        c0, _, _ = evaluate_cost(x, "plus", CostSpec(), DEFAULT_BOUNDS)
        for k in range(8):
            x2 = x.copy()
            x2[k] *= 1.01
            c1, _, _ = evaluate_cost(x2, "plus", CostSpec(), DEFAULT_BOUNDS)
            assert np.isfinite(c1)
            assert abs(c1 - c0) < 10.0


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
        c0, _, _ = evaluate_cost(x0, "plus", CostSpec(), DEFAULT_BOUNDS)
        best = search(seed=5, n_restarts=1, max_evaluations=400, keep_all=True)
        assert best[0].cost <= c0


class TestValidation:
    def test_row6_equivalent_passes_thresholds(self):
        """Published row-6 spin parameters validate as a working gate."""
        report = validate_solution(table_spin_params(6), gamma=0.01, n_samples=60)
        assert report.open_peak_fidelity >= 0.98
        assert report.closed_min_fidelity >= 0.98
        assert 0.85 * report.gate_time_analytic <= report.open_peak_time \
            <= report.gate_time_analytic

    def test_noise_strictly_reduces_peak(self):
        clean = validate_solution(table_spin_params(6), gamma=0.0, n_samples=50)
        noisy = validate_solution(table_spin_params(6), gamma=0.01, n_samples=50)
        assert noisy.open_peak_fidelity < clean.open_peak_fidelity
