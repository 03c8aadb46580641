"""Derivative-free search of circuit-parameter space for valid gate points.

The cost is a weighted sum of squared relative residuals on the gate
requirements: equal transverse and longitudinal end couplings, the detuning
on its resonance branch, a floor on the control/end coupling ratio, and a
floor on the end-qubit relative anharmonicity.  Multi-start random
initialization inside the bounds feeds a simplex descent per start; results
are deduplicated and sorted, and identical seeds give identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np
from scipy.optimize import minimize

from .circuit_map import (
    CIRCUIT_NAMES,
    CircuitParams,
    MappingError,
    SingularCapacitanceError,
    SpinMapResult,
    circuit_to_spin,
)
from .dynamics import NoiseModel
from .metrics import (
    average_fidelity,
    closed_window,
    default_open_window,
    numerical_gate_time,
)
from .spin_model import (
    GateConfig,
    SpinModelParams,
    analytic_gate_time,
    closed_config_for_branch,
    delta_for_branch,
)

#: search box matching the published solution ranges
DEFAULT_BOUNDS: dict[str, tuple[float, float]] = {
    "e1": (50.0, 700.0),
    "e2": (50.0, 700.0),
    "e12": (50.0, 700.0),
    "e23": (50.0, 700.0),
    "c1": (20.0, 1000.0),
    "c2": (20.0, 1000.0),
    "c23": (20.0, 1000.0),
    "l12": (25.0, 100.0),
}


@dataclass(frozen=True)
class CostSpec:
    """Weights and thresholds of the gate-requirement cost function."""

    w_j1_equality: float = 1.0
    w_delta_branch: float = 1.0
    w_coupling_ratio: float = 1.0
    w_anharmonicity: float = 0.1
    w_bounds: float = 10.0
    ratio_min: float = 5.0
    anh_floor: float = 0.001  # relative anharmonicity floor, 0.1%

    def __post_init__(self) -> None:
        weights = (
            self.w_j1_equality,
            self.w_delta_branch,
            self.w_coupling_ratio,
            self.w_anharmonicity,
            self.w_bounds,
        )
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        if self.w_j1_equality <= 0 or self.w_delta_branch <= 0:
            raise ValueError("the two requirement weights must be positive")


@dataclass(frozen=True)
class SearchResult:
    circuit: CircuitParams
    spin: SpinMapResult
    cost: float
    residuals: dict[str, float]

    @property
    def accepted(self) -> bool:
        """Both gate requirements met to 1% relative."""
        return (
            self.residuals["j1_equality"] <= 1e-2
            and self.residuals["delta_branch"] <= 1e-2
        )


def requirement_residuals(
    spin: SpinMapResult, branch: str, spec: CostSpec
) -> dict[str, float]:
    j1_scale = max(abs(spin.j1x), 1e-9)
    delta_target = delta_for_branch(branch, spin.j2x, spin.j2z)
    delta_scale = max(abs(delta_target), 1e-9)
    ratio = abs(spin.j2x) / j1_scale
    return {
        "j1_equality": abs(spin.j1x - spin.j1z) / j1_scale,
        "delta_branch": abs(spin.delta - delta_target) / delta_scale,
        "coupling_ratio": max(0.0, spec.ratio_min - ratio) / spec.ratio_min,
        "anharmonicity": max(0.0, spec.anh_floor - abs(spin.anh_rel_1))
        / spec.anh_floor,
    }


def evaluate_cost(
    x: np.ndarray,
    branch: str,
    spec: CostSpec,
    bounds: dict[str, tuple[float, float]],
) -> tuple[float, dict[str, float] | None, SpinMapResult | None]:
    """Cost at a parameter vector; infeasible points get a large finite cost."""
    penalty = 0.0
    vals = {}
    for name, v in zip(CIRCUIT_NAMES, x.tolist()):
        lo, hi = bounds[name]
        if v < lo:
            penalty += ((lo - v) / max(hi - lo, 1e-9)) ** 2
            v = lo
        elif v > hi:
            penalty += ((v - hi) / max(hi - lo, 1e-9)) ** 2
            v = hi
        vals[name] = v
    try:
        spin = circuit_to_spin(CircuitParams(**vals))
    except (MappingError, SingularCapacitanceError):
        return 1e6 + penalty, None, None
    res = requirement_residuals(spin, branch, spec)
    cost = (
        spec.w_j1_equality * res["j1_equality"] ** 2
        + spec.w_delta_branch * res["delta_branch"] ** 2
        + spec.w_coupling_ratio * res["coupling_ratio"] ** 2
        + spec.w_anharmonicity * res["anharmonicity"] ** 2
        + spec.w_bounds * penalty
    )
    return float(cost), res, spin


def search(
    cost: CostSpec | None = None,
    bounds: dict[str, tuple[float, float]] | None = None,
    branch: str = "plus",
    seed: int = 0,
    n_restarts: int = 64,
    max_evaluations: int = 2000,
    keep_all: bool = False,
) -> list[SearchResult]:
    """Multi-start simplex search over the circuit box.

    Returns distinct local minima sorted by (cost, parameters); two results
    are duplicates when every circuit parameter agrees within 1% relative.
    With ``keep_all`` false, only results passing the acceptance residuals
    are returned, so an infeasible search yields an empty list (the residual
    diagnostics remain available through ``keep_all=True``).
    """
    cost = cost or CostSpec()
    bounds = dict(DEFAULT_BOUNDS, **(bounds or {}))
    rng = np.random.default_rng(seed)
    lo = np.array([bounds[n][0] for n in CIRCUIT_NAMES])
    hi = np.array([bounds[n][1] for n in CIRCUIT_NAMES])
    if np.any(hi < lo):
        raise ValueError("bounds must satisfy lo <= hi")

    results: list[SearchResult] = []
    for _ in range(n_restarts):
        x0 = lo + (hi - lo) * rng.random(len(CIRCUIT_NAMES))
        if np.all(hi == lo):
            x0 = lo.copy()
        sol = minimize(
            lambda x: evaluate_cost(x, branch, cost, bounds)[0],
            x0,
            method="Nelder-Mead",
            options={
                "maxfev": max_evaluations,
                "xatol": 1e-6,
                "fatol": 1e-14,
            },
        )
        c, res, spin = evaluate_cost(sol.x, branch, cost, bounds)
        if res is None:
            continue
        vals = {
            name: float(np.clip(v, bounds[name][0], bounds[name][1]))
            for name, v in zip(CIRCUIT_NAMES, sol.x)
        }
        results.append(
            SearchResult(
                circuit=CircuitParams(**vals),
                spin=spin,
                cost=c,
                residuals=res,
            )
        )

    results.sort(key=lambda r: (r.cost,) + tuple(
        getattr(r.circuit, n) for n in CIRCUIT_NAMES
    ))
    deduped: list[SearchResult] = []
    for r in results:
        dup = False
        for kept in deduped:
            rel = [
                abs(getattr(r.circuit, n) - getattr(kept.circuit, n))
                / max(abs(getattr(kept.circuit, n)), 1e-12)
                for n in CIRCUIT_NAMES
            ]
            if max(rel) <= 0.01:
                dup = True
                break
        if not dup:
            deduped.append(r)
    if keep_all:
        return deduped
    return [r for r in deduped if r.accepted]


@dataclass(frozen=True)
class ValidationReport:
    open_peak_fidelity: float
    open_peak_time: float
    closed_min_fidelity: float
    gate_time_analytic: float
    gamma: float


def validate_solution(
    spin_params: SpinModelParams | SearchResult,
    gamma: float,
    branch: str | None = None,
    n_samples: int = 90,
) -> ValidationReport:
    """Full fidelity pipeline on a search solution (or explicit chain params).

    Reports the open-configuration peak and the closed-configuration minimum
    over one gate period, at the given decoherence rate.
    """
    if isinstance(spin_params, SearchResult):
        branch = branch or (
            "plus" if spin_params.spin.delta >= 0 else "minus"
        )
        params = spin_params.spin.spin_params()
    else:
        params = spin_params
        if branch is None:
            branch = params.detuning_choice if params.detuning_choice in (
                "plus", "minus") else "plus"
    noise = NoiseModel(gamma=gamma) if gamma > 0 else None
    open_cfg = GateConfig(delta_branch=branch, control_state="open_0")
    trace_open = average_fidelity(
        params, open_cfg, noise, default_open_window(params, n=n_samples)
    )
    closed_cfg = closed_config_for_branch(branch)
    trace_closed = average_fidelity(
        params, closed_cfg, noise, closed_window(params, n=n_samples)
    )
    return ValidationReport(
        open_peak_fidelity=trace_open.peak_value,
        open_peak_time=numerical_gate_time(trace_open)
        if not trace_open.peak_on_boundary
        else trace_open.peak_time,
        closed_min_fidelity=min(trace_closed.fbar),
        gate_time_analytic=analytic_gate_time(params),
        gamma=gamma,
    )
