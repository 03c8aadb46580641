"""Seeded workloads of the swapgate benchmark and the checks on their outputs.

A workload is a list of slots; each slot holds alternative experiments of
near-equal cost (equal RHS-evaluation counts within a few percent), and the
seed picks one alternative per slot.  The seed therefore varies the physics
that is simulated but not the amount of work, so wall times from different
seeds are comparable.  Every alternative has reference outputs in
``reference.json``; ``make_reference.py`` writes that file.

This module uses only the standard library, so that importing it does not
start numpy before the benchmark has fixed the BLAS thread count.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Experiment:
    """One CLI experiment: a reference key and the configuration-file text."""

    key: str
    config: str


def _fidelity_trace(key: str, row: int, control: str, gamma: float,
                    lo: float, hi: float, samples: int) -> Experiment:
    return Experiment(key, f"""\
experiment = fidelity_trace
[model]
row = {row}
[noise]
gamma = {gamma}
[grid]
control = {control}
window_lo = {lo}
window_hi = {hi}
[run]
samples = {samples}
""")


def _open_baseline() -> Experiment:
    # the ROADMAP baseline: row 6, open register, gamma = 0.01, 120 samples
    # over the default open window [0.8, 1.05] t_g
    return _fidelity_trace("gate_trace/open_row6", 6, "open", 0.01, 0.8, 1.05, 120)


def _closed_trace(row: int) -> Experiment:
    # closed register over [0, t_g] with noise off: the minimum is the
    # closed-gate floor (known-red at row 6)
    return _fidelity_trace(f"gate_trace/closed_row{row}", row, "closed", 0.0,
                           0.001, 1.0, 60)


def _scan_j2(j1: float) -> Experiment:
    # J2 from 1 to 2 J1: the scan is scale-free in J1, so every J1 costs the
    # same number of steps, while the noisy fidelities depend on J1
    return Experiment(f"param_scan/scan_j2_j1_{j1:g}", f"""\
experiment = scan_j2
[noise]
gamma = 0.01
[grid]
j1 = {j1}
lo = 1.0
hi = 2.0
points = 3
[run]
samples = 20
""")


def _qutrit(row: int) -> Experiment:
    return Experiment(f"control_td/qutrit_row{row}", f"""\
experiment = qutrit_compare
[model]
rows = {row}
[noise]
gamma = 0.0
[grid]
window_hi = 1.05
configs = open
[run]
samples = 30
""")


def _drive(row: int) -> Experiment:
    # weak-drive limit A = J2z / 20, one duration (the pi pulse itself)
    return Experiment(f"control_td/drive_row{row}", f"""\
experiment = drive_demo
[model]
row = {row}
[noise]
gamma = 0.0
[grid]
amplitude_fraction = 0.05
n_durations = 1
""")


def _search(seed: int) -> Experiment:
    return Experiment(f"circuit_search/search_seed{seed}", f"""\
experiment = search
[grid]
n_restarts = 16
max_evaluations = 2000
keep_all = true
[run]
seed = {seed}
""")


def _circuit_map(row: int) -> Experiment:
    return Experiment(f"circuit_search/circuit_map_row{row}", f"""\
experiment = circuit_map
[model]
row = {row}
""")


# Alternatives within a slot were chosen from per-row cost measurements:
# closed traces on rows 6, 9 and 16 take 18.6k-20.1k RHS evaluations and
# qutrit traces on rows 13 and 15 take 54.2k-54.3k.  The drive stays on row 6:
# the other row whose pi pulse calibrates to P(open) > 0.999 at this
# amplitude, row 1, ran 10-13% slower.  Search cost is fixed by its
# evaluation budget.
WORKLOADS: dict[str, list[list[Experiment]]] = {
    "gate_trace": [
        [_open_baseline()],
        [_closed_trace(row) for row in (6, 9, 16)],
    ],
    "param_scan": [
        [_scan_j2(j1) for j1 in (20.0, 25.0, 30.0, 35.0, 40.0)],
    ],
    "control_td": [
        [_qutrit(row) for row in (13, 15)],
        [_drive(6)],
    ],
    "circuit_search": [
        [_search(seed) for seed in range(8)],
        [_circuit_map(row) for row in range(1, 17)],
    ],
}


def draw(workload: str, seed: int) -> list[Experiment]:
    """The workload's experiments for one seed: one alternative per slot."""
    rng = random.Random(seed)
    return [rng.choice(slot) for slot in WORKLOADS[workload]]


def all_experiments() -> list[Experiment]:
    return [exp for slots in WORKLOADS.values() for slot in slots for exp in slot]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

# The integrator runs at rtol 1e-8 and atol 1e-10 (the dynamics defaults).
# An exact propagator reproduces the RK45 fidelities to ~1e-10, so fidelity
# and probability outputs get an absolute tolerance of 100 * rtol; a wrong
# phase or sign moves them by 1e-2 or more.  Peak times come from a
# quadratic fit through three samples and move ~1e-8 relative per 1e-9 in
# the fidelities, so they get a relative 1e-5.  Search costs and circuit
# mappings involve no integration; they must repeat to rounding.
FIDELITY_ABS = 1e-6
TIME_REL = 1e-5
EXACT_REL = 1e-9

# (kind, tolerance) per output name; kind "abs" or "rel"
TOLERANCES: dict[str, tuple[str, float]] = {
    "peak_fidelity": ("abs", FIDELITY_ABS),
    "peak_fidelity_noiseless": ("abs", FIDELITY_ABS),
    "peak_time_us": ("rel", TIME_REL),
    "floor_noiseless": ("abs", FIDELITY_ABS),
    "best_open_fidelity": ("abs", FIDELITY_ABS),
    "fbar_open": ("abs", FIDELITY_ABS),
    "fbar_open_noisy": ("abs", FIDELITY_ABS),
    "fbar_closed": ("abs", FIDELITY_ABS),
    "fbar_closed_noisy": ("abs", FIDELITY_ABS),
    "tg_numeric_us": ("rel", TIME_REL),
    "qubit_peak": ("abs", FIDELITY_ABS),
    "qutrit_peak": ("abs", FIDELITY_ABS),
    "qubit_peak_time_us": ("rel", TIME_REL),
    "qutrit_peak_time_us": ("rel", TIME_REL),
    "p_open": ("abs", FIDELITY_ABS),
    "frequency_mhz": ("rel", TIME_REL),
    "best_cost": ("rel", EXACT_REL),
    "n_results": ("rel", 0.0),
    "n_accepted": ("rel", 0.0),
    "j1x_mhz": ("rel", EXACT_REL),
    "j1z_mhz": ("rel", EXACT_REL),
    "j2x_mhz": ("rel", EXACT_REL),
    "j2z_mhz": ("rel", EXACT_REL),
    "delta_mhz": ("rel", EXACT_REL),
}

# README "Known-red" values, checked at their printed digits: the closed-gate
# floor at row 6 is ~0.988 (below the 0.999 criterion)
KNOWN_RED: dict[str, dict[str, float]] = {
    "gate_trace/closed_row6": {"floor_noiseless": 0.988},
}


def key_outputs(record) -> dict[str, float]:
    """The outputs of a ``swapgate.cli.RunRecord`` that the checks compare.

    Names carry an ``@<i>`` suffix when one output is taken per scan point.
    """
    s = record.summary
    kind = record.kind
    if kind == "fidelity_trace":
        if record.config["grid"]["control"] == "open":
            return {
                "peak_fidelity": s["peak_fidelity"],
                "peak_fidelity_noiseless": s["peak_fidelity_noiseless"],
                "peak_time_us": s["peak_time_us"],
            }
        return {"floor_noiseless": min(row[2] for row in record.rows)}
    if kind == "scan_j2":
        out = {"best_open_fidelity": s["best_open_fidelity"]}
        for i, row in enumerate(record.rows):
            values = dict(zip(record.columns, row))
            for name in ("fbar_open", "fbar_open_noisy", "fbar_closed",
                         "fbar_closed_noisy", "tg_numeric_us"):
                out[f"{name}@{i}"] = values[name]
        return out
    if kind == "qutrit_compare":
        (peaks,) = s["peaks"].values()
        return {name: peaks[name] for name in (
            "qubit_peak", "qutrit_peak", "qubit_peak_time_us", "qutrit_peak_time_us")}
    if kind == "drive_demo":
        return {"p_open": s["pi_transfer_probability"],
                "frequency_mhz": s["frequency_mhz"]}
    if kind == "search":
        return {"best_cost": s["best_cost"], "n_results": s["n_results"],
                "n_accepted": s["n_accepted"]}
    if kind == "circuit_map":
        values = dict(zip(record.columns, record.rows[0]))
        return {name: values[name] for name in (
            "j1x_mhz", "j1z_mhz", "j2x_mhz", "j2z_mhz", "delta_mhz")}
    raise ValueError(f"no output checks for experiment kind {kind!r}")


def load_reference() -> dict[str, dict[str, float]]:
    return json.loads(REFERENCE_PATH.read_text())


def check_outputs(key: str, outputs: dict[str, float],
                  reference: dict[str, dict[str, float]]) -> list[str]:
    """Misses against the stored reference and the known-red values."""
    expected = reference.get(key)
    if expected is None:
        return [f"{key}: no reference values"]
    misses = []
    if set(outputs) != set(expected):
        misses.append(f"{key}: outputs {sorted(outputs)} != reference {sorted(expected)}")
    for name in sorted(set(outputs) & set(expected)):
        kind, tol = TOLERANCES[name.split("@")[0]]
        got, want = float(outputs[name]), float(expected[name])
        limit = tol if kind == "abs" else tol * abs(want)
        if not abs(got - want) <= limit:
            misses.append(f"{key}: {name} = {got!r}, reference {want!r} ({kind} tol {tol:g})")
    for name, printed in KNOWN_RED.get(key, {}).items():
        got = float(outputs[name])
        if round(got, 3) != printed:
            misses.append(f"{key}: {name} = {got!r} does not read {printed} at 3 digits")
    return misses
