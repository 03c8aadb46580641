"""Derivative-free search of circuit-parameter space for valid gate points.

The cost is a weighted sum of squared relative residuals on the gate
requirements: equal transverse and longitudinal end couplings, the detuning
on its resonance branch, a floor on the control/end coupling ratio, and a
floor on the end-qubit relative anharmonicity.  The search runs over one
box, ``DEFAULT_BOUNDS``; points outside it are clipped into it and pay a
quadratic penalty.  Every point of the box maps: all its values are
positive, so both quartic-root radicands are; the normalized determinant
of the gate capacitance matrix is at least 0.0198 (at c2 = 20, c23 = 1000)
against the mapping's 1e-12 floor, and its condition number at most 150
against the 1e12 ceiling.  So the cost has no infeasible branch.  The cost
is evaluated on arrays of points, as the columns of a C-contiguous (8, m)
array, through the first stage of the mapping
(``circuit_map.map_cost_fields``), which computes only the fields the cost
reads; ``search`` holds one ``np.errstate`` for its whole descent.  The
full ``map_sites`` runs only where values are reported: ``evaluate_cost``,
the cost on one point with its requirement residuals and mapped spin
parameters, and the one call on the restarts' best vertices.  The search
runs no dynamics: it scores circuits by the mapping alone.  The squared
bound excesses are summed in order by ``np.add.accumulate``:
``np.add.reduce`` and ``sum`` pair the terms of a lone column or of a row,
so a point would cost other bits alone.

Multi-start random initialization inside the box feeds one Nelder-Mead
simplex per start (Nelder & Mead, Comput. J. 7, 308 (1965)).  All simplices
descend in lockstep, held vertex-major: each iteration makes one batched
cost call on the reflection, expansion and both contraction points of every
live start, and the starts that shrink make one more.  Each start follows
exactly the steps, stopping rule (``xatol``/``fatol``) and evaluation budget
of scipy's ``minimize(method="Nelder-Mead")`` from the same start; trial
points that its branch does not use are not charged to the budget.  Results
are deduplicated and sorted, and identical seeds give identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .circuit_map import (
    CIRCUIT_NAMES,
    CircuitParams,
    SpinMapResult,
    map_cost_fields,
    map_sites,
    spin_result,
)
from .spin_model import MIN_COUPLING_RATIO, delta_for_branch

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

# the box's lower and upper edges and its widths, as (8, 1) columns in
# ``CIRCUIT_NAMES`` order
_LO, _HI = np.array([DEFAULT_BOUNDS[n] for n in CIRCUIT_NAMES]).T[:, :, None]
_SPAN = _HI - _LO

# weights of the anharmonicity residual and of the bounds penalty (the
# other three residuals weigh 1), and the cost's other operands, as 0-d
# arrays (see ``circuit_map``)
_W_ANHARMONICITY, _W_BOUNDS = np.array(0.1), np.array(10.0)
_SCALE_FLOOR, _ZERO = np.array(1e-9), np.array(0.0)
#: floor on the end-qubit relative anharmonicity, 0.1%
ANH_FLOOR = 0.001
_ANH_FLOOR, _MIN_RATIO = np.array(ANH_FLOOR), np.array(MIN_COUPLING_RATIO)


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


def _residuals(spin, branch: str) -> dict[str, np.ndarray]:
    """Requirement residuals of mapped spin values (floats or arrays, read
    by name from the mapping or ``SpinMapResult`` attributes)."""
    j1x, j1z, j2x = spin["j1x"], spin["j1z"], spin["j2x"]
    j1_scale = np.maximum(np.abs(j1x), _SCALE_FLOOR)
    delta_target = delta_for_branch(branch, j2x, spin["j2z"])
    delta_scale = np.maximum(np.abs(delta_target), _SCALE_FLOOR)
    ratio = np.abs(j2x) / j1_scale
    return {
        "j1_equality": np.abs(j1x - j1z) / j1_scale,
        "delta_branch": np.abs(spin["delta"] - delta_target) / delta_scale,
        "coupling_ratio": np.fmax(_MIN_RATIO - ratio, _ZERO) / _MIN_RATIO,
        "anharmonicity": np.fmax(_ANH_FLOOR - np.abs(spin["anh_rel_1"]), _ZERO)
        / _ANH_FLOOR,
    }


def _cost_rows(x: np.ndarray, branch: str) -> tuple[np.ndarray, np.ndarray]:
    """Cost of every row of ``x``: the costs and the points clipped into the
    box, as columns.

    The points become the columns of a C-contiguous (8, m) array, mapped by
    ``map_cost_fields`` alone; every step is elementwise and the
    per-parameter penalties are summed in order (see the module docstring),
    so a row's cost does not depend on the batch around it.  The caller
    holds the ``np.errstate``.
    """
    cols = np.ascontiguousarray(np.asarray(x, dtype=float).T)
    clipped = np.minimum(np.maximum(cols, _LO), _HI)
    # x - clipped is lo - x below the box and x - hi above it, up to sign
    excess = (cols - clipped) / _SPAN
    penalty = np.add.accumulate(excess * excess)[-1]

    fields, _ = map_cost_fields(clipped)
    r1, r2, r3, r4 = _residuals(fields, branch).values()
    cost = (r1 * r1 + r2 * r2 + r3 * r3 + _W_ANHARMONICITY * (r4 * r4)
            + _W_BOUNDS * penalty)
    return cost, clipped


def _reported_rows(
    x: np.ndarray, branch: str
) -> tuple[np.ndarray, np.ndarray, dict, dict]:
    """``_cost_rows`` with what is reported of each row: its clipped point
    as a row, its full ``map_sites`` result and its residual arrays."""
    cost, clipped = _cost_rows(x, branch)
    sites = map_sites(clipped)
    return cost, clipped.T, sites, _residuals(sites, branch)


def evaluate_cost(
    x: np.ndarray, branch: str
) -> tuple[float, dict[str, float], SpinMapResult]:
    """Cost at a parameter vector, with the requirement residuals and the
    mapping of the point clipped into the box.

    This is the batched cost of ``search`` on one row.
    """
    with np.errstate(all="ignore"):
        cost, _, sites, res = _reported_rows(np.asarray(x, dtype=float)[None, :], branch)
    return (
        float(cost[0]),
        {name: float(v[0]) for name, v in res.items()},
        spin_result(sites, 0),
    )


# Nelder-Mead coefficients (reflection, expansion, contraction, shrink) and
# initial-simplex steps, as in scipy's non-adaptive Nelder-Mead
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025
# the search's stopping tolerances on the simplex extent and its cost spread
_XATOL, _FATOL = 1e-6, 1e-14
# trial point k is _TRIAL_A[k] * centroid - _TRIAL_B[k] * worst vertex:
# reflection, expansion, outside and inside contraction (a - (-b) w is
# a + b w exactly, so the inside contraction keeps scipy's bits)
_TRIAL_A = np.array([1 + _RHO, 1 + _RHO * _CHI, 1 + _PSI * _RHO, 1 - _PSI])[:, None, None]
_TRIAL_B = np.array([_RHO, _RHO * _CHI, _PSI * _RHO, -_PSI])[:, None, None]


def _sort_simplices(sim: np.ndarray, fsim: np.ndarray,
                    runs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each vertex-major simplex ordered by cost, with scipy's (unstable)
    ``argsort``; ``runs`` is ``np.arange(R)``."""
    order = fsim.argsort(axis=0)
    return sim[order, runs], fsim[order, runs]


def _lockstep_nelder_mead(
    cost: Callable[[np.ndarray], np.ndarray],
    starts: np.ndarray,
    max_evaluations: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nelder-Mead from every row of ``starts`` at once.

    ``cost`` maps an (m, n) array of points to their m costs, each row on
    its own.  Every start follows scipy's ``minimize(method="Nelder-Mead")``
    with ``maxfev=max_evaluations``, ``xatol=_XATOL`` and ``fatol=_FATOL``
    step for step: the default initial simplex, the stopping test, and the
    budget, which stops a start mid-iteration (the reflection is always paid
    for, the one point its branch then needs only if budget is left) or
    mid-shrink (the vertex whose evaluation the budget refuses is already
    moved).  The simplices are held vertex-major, (n+1, R, n), so that
    centroids and per-vertex costs are contiguous.  Returns the final sorted
    simplices (R, n+1, n), their costs (R, n+1) and the evaluations charged
    to each start (R,); the best points are ``simplices[:, 0]``.
    """
    starts = np.asarray(starts, dtype=float)
    n_runs, n = starts.shape
    budget = max_evaluations
    sim = np.repeat(starts[None], n + 1, axis=0)
    for k in range(n):
        col = sim[k + 1, :, k]
        sim[k + 1, :, k] = np.where(col != 0, (1 + _NONZDELT) * col, _ZDELT)
    n_init = max(0, min(n + 1, budget))
    fsim = np.full((n + 1, n_runs), np.inf)
    if n_init and n_runs:
        fsim[:n_init] = cost(sim[:n_init].reshape(-1, n)).reshape(n_init, n_runs)
    nfev = np.full(n_runs, n_init)
    live = np.arange(n_runs)
    runs = live  # the start index of the live arrays, for sorting
    for _ in range(2):  # scipy sorts twice before its first iteration
        sim, fsim = _sort_simplices(sim, fsim, runs)

    vertices = np.arange(1, n + 1)[:, None]
    last = budget - 1  # a start with fewer evaluations left pays for its second point
    s, f, used = sim, fsim, nfev.copy()
    while live.size:
        # a start stops on its budget or on scipy's fatol and xatol tests; on
        # sorted costs max |f[0] - f[i]| is f[-1] - f[0] (a NaN sorts last and
        # fails both), and the extent is measured only where the costs pass
        stop = used >= budget
        flat = f[-1] - f[0] <= _FATOL
        if np.count_nonzero(flat):
            k = flat.nonzero()[0]
            stop[k] |= np.abs(s[1:, k] - s[:1, k]).max(axis=(0, 2)) <= _XATOL
        if np.count_nonzero(stop):
            # the stopped simplices go back to ``sim``, the live arrays shrink
            done = live[stop]
            sim[:, done], fsim[:, done], nfev[done] = s[:, stop], f[:, stop], used[stop]
            keep = ~stop
            live, s, f, used = live[keep], s[:, keep], f[:, keep], used[keep]
            runs = runs[:live.size]
            if not live.size:
                break

        # scipy's centroid, np.add.reduce over the best n vertices (it adds
        # them in order: the reduced axis is not the contiguous one)
        xbar = np.add.reduce(s[:-1], axis=0) / n
        trial = _TRIAL_A * xbar - _TRIAL_B * s[-1]
        f_trial = cost(trial.reshape(-1, n)).reshape(4, -1)
        fr, fe, fc, fcc = f_trial

        expand = fr < f[0]
        contract = ~(expand | (fr < f[-2]))
        # the outside contraction (reflection beats the worst vertex) keeps its
        # point if no worse than the reflection, the inside one if it beats it
        outside = fr < f[-1]
        kept = np.where(outside, fc <= fr, fcc < f[-1])
        # the point after the reflection is evaluated only with budget left
        second = expand | contract
        paid = second & (used < last)
        # the trial that replaces the worst vertex where ``take``:
        # reflection 0, expansion 1, outside 2 or inside contraction 3
        pick = np.where(contract, 3 - outside, expand & (fe < fr))
        take = ~second | paid & (expand | kept)
        shrink = paid & ~take
        used = used + 1 + paid

        k = take.nonzero()[0]
        pick = pick[k]
        s[-1, k] = trial[pick, k]
        f[-1, k] = f_trial[pick, k]

        if np.count_nonzero(shrink):
            k = shrink.nonzero()[0]
            best = s[:1, k]
            moved = best + _SIGMA * (s[1:, k] - best)
            f_moved = cost(moved.reshape(-1, n)).reshape(n, k.size)
            left = budget - used[k]
            s[1:, k] = np.where((vertices <= left + 1)[:, :, None], moved, s[1:, k])
            f[1:, k] = np.where(vertices <= left, f_moved, f[1:, k])
            used[k] += np.minimum(left, n)

        s, f = _sort_simplices(s, f, runs)
    return sim.transpose(1, 0, 2), fsim.T, nfev


def _distinct(cost: np.ndarray, circuits: np.ndarray) -> np.ndarray:
    """Indices of the rows of ``circuits`` (m, 8) to report, sorted by
    (cost, circuit values): a row is dropped when each of its values is
    within 1%, relative to the other row's, of a row kept before it."""
    order = np.lexsort((*circuits.T[::-1], cost))
    rows = circuits[order]
    far = (np.abs(rows[:, None] - rows) / np.maximum(np.abs(rows), 1e-12)
           ).max(axis=2) > 0.01
    kept = np.zeros(len(rows), dtype=bool)
    for i in range(len(rows)):
        kept[i] = far[i, kept].all()
    return order[kept]


def search(
    *,
    branch: str,
    seed: int,
    n_restarts: int,
    max_evaluations: int,
    keep_all: bool,
) -> list[SearchResult]:
    """Multi-start simplex search over the ``DEFAULT_BOUNDS`` box.

    Returns distinct local minima sorted by (cost, parameters); a result is
    a duplicate when every circuit parameter agrees within 1% relative with
    one kept before it.  With ``keep_all`` false, only results passing the
    acceptance residuals are returned, so a search that accepts nothing
    yields an empty list (the residual diagnostics remain available through
    ``keep_all=True``).
    """
    if max_evaluations < 1:
        raise ValueError(f"max_evaluations must be at least 1, got {max_evaluations}")
    rng = np.random.default_rng(seed)
    starts = _LO.T + _SPAN.T * rng.random((n_restarts, len(CIRCUIT_NAMES)))
    with np.errstate(all="ignore"):  # one for the whole descent
        simplices, _, _ = _lockstep_nelder_mead(
            lambda x: _cost_rows(x, branch)[0], starts, max_evaluations)
        cost, circuits, sites, res = _reported_rows(simplices[:, 0], branch)
    results = [
        SearchResult(
            circuit=CircuitParams(*(float(v) for v in circuits[i])),
            spin=spin_result(sites, i),
            cost=float(cost[i]),
            residuals={name: float(v[i]) for name, v in res.items()},
        )
        for i in _distinct(cost, circuits)
    ]
    if keep_all:
        return results
    return [r for r in results if r.accepted]
