"""Command-line front end: experiment orchestration and CSV/JSON persistence.

Configuration files use a flat, typed key/value format with section nesting:

    # comment lines start with '#'; blank lines are ignored
    experiment = fidelity_trace   # top-level key before any section
    [model]                       # section header
    source = table_row            # name
    row = 6                       # integer
    [noise]
    gamma = 0.01                  # float
    channels = dephasing, photon_loss   # comma list
    [grid]
    window_lo = 0.8
    window_hi = 1.05
    control = open
    [run]
    samples = 90

Every key is validated against the experiment's schema (type, finiteness,
range: table rows 1..16; 1..10,000 samples, grid points, durations and
restarts; gamma >= 0; the allowed names of a string; at least one item in
every list; no item twice in ``rows`` or ``configs``) and
the cross-key rules in ``ORDER_RULES`` (time windows increase, the drive
amplitude is positive); an experiment that reads the gate time pi / |2 J1|
refuses a chain, or a scan point, with J1 = 0, and a zero any experiment
divides by, or a circuit value that is not positive, is refused
(``_check_zero_divisors``).  A schema holds only the
keys its experiment reads (the scans take no [model] section; a
``BySource`` [model] section takes only the keys of the ``source`` it
names), and unknown keys are rejected.  The gate experiments
(``fidelity_trace``, ``crosstalk_scan``, ``drive_demo``) take a chain from a
table row or from explicit spin couplings; only ``circuit_map`` takes a
circuit, and a mapped circuit is simulated by passing the couplings it
writes as ``source = spin``.  Values are integers, floats, true/false,
names or comma lists; there is no quoting and no empty list: '#' always
starts a comment, ',' always separates list items, and '"' and '[]' are
ordinary characters, which no allowed name holds.  A noiseless run is
``[noise] gamma = 0``.  Loading fills defaults, and emitting a loaded
configuration reproduces it exactly (load -> emit -> load is the identity
on resolved configurations).

Every subcommand takes ``--config`` and ``--out`` alone: the configuration
file is the one way to set a value, the noise rate and the search seed
included.  Per run, a CSV table (header row, '.' decimal, 12 significant
digits, one row per sample) and a JSON summary (peaks, locations, the
search seed, the full resolved configuration, and a format-version field)
are written to the command's ``--out`` path (default ``<kind>.csv``) and
beside it with the suffix ``.json``.  The output path is not part of the
configuration, and must not end in ``.json``, the summary's suffix.
Identical configurations produce byte-identical CSV files.

Exit codes: 0 success, 2 usage or configuration error, 3 numerical failure.

``main``, the console script, runs numpy's bundled OpenBLAS on one thread
unless ``OPENBLAS_NUM_THREADS`` is set (``_pin_blas_thread``); importing the
module changes no process setting.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import time
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import circuit_map as cmap
from .dynamics import CHANNELS, NoiseModel, PropagationError
from .hilbert import HilbertError
from .metrics import (
    FIRST_SAMPLE,
    OPEN_WINDOW,
    FidelityTrace,
    average_fidelity,
    gate_window,
)
from .search import search as run_search
from .spin_model import (
    BRANCHES,
    REGISTER_STATES,
    GateConfig,
    ModelError,
    SpinModelParams,
    add_crosstalk,
    analytic_gate_time,
    build_interaction_hamiltonian,
    build_n5_model,
    build_qutrit_hamiltonian,
    closed_config_for_branch,
    delta_for_branch,
    symmetric_chain,
)
from .drive import calibrated_pi_pulse, rabi_prepare

FORMAT_VERSION = "2"


class ConfigError(ValueError):
    """Malformed or invalid configuration input."""


# ---------------------------------------------------------------------------
# config format
# ---------------------------------------------------------------------------

def _parse_scalar(raw: str):
    raw = raw.strip()
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _parse_value(raw: str):
    parts = raw.split(",")
    if len(parts) > 1:
        return [_parse_scalar(p) for p in parts]
    return _parse_scalar(raw)


def parse_config_text(text: str) -> dict[str, dict[str, Any]]:
    """Parse the sectioned key/value format into {section: {key: value}}.

    Top-level keys (before any section header) land in section ''.
    """
    out: dict[str, dict[str, Any]] = {"": {}}
    section = ""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if not section:
                raise ConfigError(f"line {lineno}: empty section name")
            out.setdefault(section, {})
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out[section]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[section][key] = _parse_value(raw)
    return out


def _format_value(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        short = f"{v:.12g}"
        # "-0" would load back as the integer 0
        return short if float(short) == v and short != "-0" else repr(v)
    if isinstance(v, (list, tuple)):
        return ", ".join(_format_value(x) for x in v)
    return str(v)


# schema: section -> key -> (type tag, default[, limits]); the limits are,
# for each number (optional), inclusive (lo, hi) bounds with None for an
# open side, and for each string the tuple of allowed values: every string
# is a name, so the config format needs no quoting.  A list holds
# at least one item, and no item twice if its key is in _DISTINCT.
_AT_LEAST_ONE = (1, None)
# a count that sizes an array, bounded so that a run can allocate it
_COUNT = (1, 10_000)
_TABLE_ROWS = (min(cmap.TABLE_S1), max(cmap.TABLE_S1))
_SAMPLED_RUN = {"samples": ("int", 90, _COUNT)}
# each item names an output block and a summary entry of its own
_DISTINCT = frozenset({"rows", "configs"})


class BySource(dict):
    """Schema of a ``[model]`` section whose keys depend on its ``source``:
    source value -> that source's key schema (besides ``source`` itself).
    The first source is the default."""


_ROW_KEYS = {"row": ("int", 6, _TABLE_ROWS)}
# defaults: the couplings and the circuit of table row 6
_ROW6 = cmap.table_row(6)
_SPIN_KEYS = {name: ("float", _ROW6[name]) for name in ("j1x", "j1z", "j2x", "j2z", "delta")}
_CIRCUIT_KEYS = {name: ("float", _ROW6[name]) for name in cmap.CIRCUIT_NAMES}
_BRANCH_KEY = {"branch": ("str", "plus", BRANCHES)}
# a chain from a table row (whose branch is the table's) or explicit spin
# couplings; ``branch`` only where the experiment reads it
_GATE_MODEL = BySource(table_row=_ROW_KEYS, spin={**_SPIN_KEYS, **_BRANCH_KEY})
_NOISE_KEYS = {
    "gamma": ("float", 0.01, (0.0, None)),
    "channels": ("strlist", list(CHANNELS), CHANNELS),
}
# [grid] control names: ``closed`` is the stationary Bell state of the branch
_CONTROLS = ("closed", *REGISTER_STATES)

SCHEMAS: dict[str, dict[str, dict[str, tuple]]] = {
    "fidelity_trace": {
        "model": _GATE_MODEL,
        "noise": _NOISE_KEYS,
        "grid": {
            "window_lo": ("float", 0.001, (0.0, None)),
            "window_hi": ("float", 1.2),
            "control": ("str", "open", _CONTROLS),
        },
        "run": _SAMPLED_RUN,
    },
    "scan_j2": {
        "noise": _NOISE_KEYS,
        "grid": {
            "j1": ("float", 30.0),
            "lo": ("float", 2.0),
            "hi": ("float", 40.0),
            "points": ("int", 8, _COUNT),
        },
        "run": _SAMPLED_RUN,
    },
    "scan_j1": {
        "noise": _NOISE_KEYS,
        "grid": {
            "j2": ("float", 750.0),
            "lo": ("float", 18.75),
            "hi": ("float", 125.0),
            "points": ("int", 8, _COUNT),
        },
        "run": _SAMPLED_RUN,
    },
    "scan_delta": {
        "noise": _NOISE_KEYS,
        "grid": {
            "j1": ("float", 30.0),
            "j2z": ("float", 600.0),
            "lo": ("float", 300.0),
            "hi": ("float", 900.0),
            "points": ("int", 7, _COUNT),
        },
        "run": _SAMPLED_RUN,
    },
    "qutrit_compare": {
        "model": {"rows": ("intlist", [6, 11], _TABLE_ROWS)},
        "noise": _NOISE_KEYS,
        "grid": {
            "window_hi": ("float", 1.2),
            "configs": ("strlist", ["open", "closed_plus", "closed_minus"], _CONTROLS),
        },
        "run": _SAMPLED_RUN,
    },
    "crosstalk_scan": {
        "model": _GATE_MODEL,
        "noise": _NOISE_KEYS,
        "grid": {
            "fractions_pct": ("floatlist", [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]),
        },
        "run": _SAMPLED_RUN,
    },
    "n5_trace": {
        "model": {
            "j1": ("float", 30.0),
            "j2": ("float", 750.0),
            "delta3": ("float", 3000.0),
            "branch": ("str", "E0", ("E0", "Eplus", "Eminus")),
        },
        "noise": _NOISE_KEYS,
        "grid": {"window_hi": ("float", 1.2)},
        "run": _SAMPLED_RUN,
    },
    "drive_demo": {
        "model": BySource(table_row=_ROW_KEYS, spin=_SPIN_KEYS),
        "noise": _NOISE_KEYS,
        "grid": {
            "amplitude_fraction": ("float", 0.02),
            "n_durations": ("int", 25, _COUNT),
        },
    },
    "circuit_map": {
        "model": BySource(table_row=_ROW_KEYS, circuit=_CIRCUIT_KEYS),
    },
    "search": {
        "model": _BRANCH_KEY,
        "grid": {
            "n_restarts": ("int", 8, _COUNT),
            "max_evaluations": ("int", 400, _AT_LEAST_ONE),
            "keep_all": ("bool", True),
        },
        "run": {"seed": ("int", 0, (0, None))},
    },
}

# cross-key rules: kind -> (section, lower, upper) triples requiring
# lower < upper, each side a key of the section or a fixed number; time
# windows of the qutrit and five-site traces start at FIRST_SAMPLE t_g
ORDER_RULES: dict[str, tuple[tuple[str, str | float, str | float], ...]] = {
    "fidelity_trace": (("grid", "window_lo", "window_hi"),),
    "qutrit_compare": (("grid", FIRST_SAMPLE, "window_hi"),),
    "n5_trace": (("grid", FIRST_SAMPLE, "window_hi"),),
    "drive_demo": (("grid", 0.0, "amplitude_fraction"),),
}


def _check_order(kind: str, sections: dict[str, dict[str, Any]]) -> None:
    for section, lower, upper in ORDER_RULES.get(kind, ()):
        body = sections[section]
        lo, hi = (body[v] if isinstance(v, str) else v for v in (lower, upper))
        if not lo < hi:
            named = f" = {lo}" if isinstance(lower, str) else ""
            raise ConfigError(f"[{section}] {upper} = {hi} must exceed {lower}{named}")


# where an experiment that reads the gate time pi / |2 J1| finds J1:
# (section, key) of a value that must be nonzero (scan_j1 scans J1 itself)
_J1_KEYS = {
    "scan_j2": ("grid", "j1"),
    "scan_delta": ("grid", "j1"),
    "n5_trace": ("model", "j1"),
    "fidelity_trace": ("model", "j1x"),
    "crosstalk_scan": ("model", "j1x"),
}


def _check_gate_time(kind: str, sections: dict[str, dict[str, Any]]) -> None:
    """Reject J1 = 0 where the experiment reads the gate time (``_J1_KEYS``)."""
    undefined = "leaves the gate time pi / |2 J1| undefined"
    if kind == "scan_j1" and 0.0 in _scan_axis(kind, sections["grid"]):
        raise ConfigError(f"[grid] a scan point at J1 = 0 {undefined}")
    if kind in _J1_KEYS:
        section, key = _J1_KEYS[kind]
        # a [model] section holds j1x only with source = spin
        if sections[section].get(key) == 0.0:
            raise ConfigError(f"[{section}] {key} = 0 {undefined}")


def _check_zero_divisors(kind: str, sections: dict[str, dict[str, Any]]) -> None:
    """Reject a zero the experiment divides by: the drive amplitude
    amplitude_fraction * |J2z| of a spin-source chain, any five-site chain
    ``build_n5_model`` refuses (the ``Eplus``/``Eminus`` denominator
    delta3/2 + 2 J2z must be nonzero and of the branch's sign), and any
    ``circuit_map`` circuit (the only experiment with a circuit source) that
    ``CircuitParams`` refuses (every value strictly positive)."""
    model = sections.get("model", {})
    try:
        if kind == "n5_trace":
            build_n5_model(model["j1"], model["j1"], model["j2"], model["j2"],
                           model["delta3"], branch=model["branch"])
        if model.get("source") == "circuit":
            _circuit_from_model_section(model)
    except (ModelError, cmap.MappingError) as exc:
        raise ConfigError(f"[model] {exc}") from None
    # a [model] section holds j2z only with source = spin
    if (kind == "drive_demo" and "j2z" in model
            and sections["grid"]["amplitude_fraction"] * abs(model["j2z"]) == 0.0):
        raise ConfigError(f"[model] j2z = {model['j2z']} makes the drive amplitude "
                          "amplitude_fraction * |J2z| zero")


def _check_qutrit_preparations(kind: str, sections: dict[str, dict[str, Any]]) -> None:
    """Reject two ``qutrit_compare`` configs that name one preparation on a
    requested row (``closed`` is ``closed_plus`` on a plus-branch row and
    ``closed_minus`` on a minus one): it would be evolved and written twice."""
    for row in sections["model"]["rows"] if kind == "qutrit_compare" else ():
        named: dict[GateConfig, str] = {}
        for control in sections["grid"]["configs"]:
            config = _gate_config(control, cmap.table_branch(row))
            if config in named:
                raise ConfigError(f"[grid] configs: {config.control_state} is listed twice "
                                  f"on row {row}, as {named[config]!r} and {control!r}")
            named[config] = control


def _check_scalar(tag: str, value: Any, limits: tuple | None) -> Any:
    if tag == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError("expected integer")
    elif tag == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError("expected number")
        if not math.isfinite(value):
            raise ConfigError("expected a finite number")
        value = float(value)
    elif tag == "str":
        if not isinstance(value, str):
            raise ConfigError("expected string")
        if value not in limits:
            raise ConfigError(f"{value!r}: expected one of " + ", ".join(limits))
        return value
    elif tag == "bool":
        if not isinstance(value, bool):
            raise ConfigError("expected true/false")
    else:
        raise ConfigError(f"unknown schema type {tag}")
    lo, hi = limits or (None, None)
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        raise ConfigError(f"{value} outside [{lo}, {'inf' if hi is None else hi}]")
    return value


def _check_type(tag: str, value: Any, where: str, limits: tuple | None,
                distinct: bool = False) -> Any:
    try:
        if tag.endswith("list"):
            items = value if isinstance(value, list) else [value]
            if not items:
                raise ConfigError("expected at least one item")
            items = [_check_scalar(tag[:-4], x, limits) for x in items]
            twice = [x for i, x in enumerate(items) if x in items[:i]] if distinct else []
            if twice:
                raise ConfigError(f"{twice[0]!r} is listed twice")
            return items
        return _check_scalar(tag, value, limits)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment configuration."""

    kind: str
    sections: dict[str, dict[str, Any]]

    def __getitem__(self, section: str) -> dict[str, Any]:
        return self.sections[section]

    def to_text(self) -> str:
        lines = [f"experiment = {_format_value(self.kind)}"]
        for name, body in self.sections.items():
            lines.append(f"[{name}]")
            lines.extend(f"{key} = {_format_value(v)}" for key, v in body.items())
        return "\n".join(lines) + "\n"


def _section_keys(sec_name: str, spec: dict, body: dict[str, Any]) -> dict[str, tuple]:
    """The key schema of a section; for a ``BySource`` section, ``source``
    plus the keys of the source the body names (or the default source)."""
    if not isinstance(spec, BySource):
        return spec
    default, names = next(iter(spec)), tuple(spec)
    source = _check_type("str", body.get("source", default), f"[{sec_name}] source",
                         names)
    return {"source": ("str", default, names), **spec[source]}


def _source_hint(spec: dict, key: str, body: dict[str, Any]) -> str:
    if isinstance(spec, BySource) and any(key in keys for keys in spec.values()):
        return f" (not read with source = {body.get('source', next(iter(spec)))})"
    return ""


def resolve_config(raw: dict[str, dict[str, Any]]) -> ExperimentConfig:
    """Validate a parsed mapping against its experiment schema, fill defaults."""
    top = dict(raw.get("", {}))
    kind = top.pop("experiment", None)
    if kind is None:
        raise ConfigError("missing top-level key 'experiment'")
    if not isinstance(kind, str) or kind not in SCHEMAS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    if top:
        raise ConfigError(f"unknown top-level key {sorted(top)[0]!r}")
    schema = SCHEMAS[kind]
    for sec_name in raw:
        if sec_name and sec_name not in schema:
            raise ConfigError(f"unknown section [{sec_name}] for {kind}")
    sections: dict[str, dict[str, Any]] = {}
    for sec_name, spec in schema.items():
        body = dict(raw.get(sec_name, {}))
        keys = _section_keys(sec_name, spec, body)
        for key in body:
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section [{sec_name}]"
                                  + _source_hint(spec, key, body))
        resolved = {}
        for key, (tag, default, *limits) in keys.items():
            if key in body:
                resolved[key] = _check_type(tag, body[key], f"[{sec_name}] {key}",
                                            limits[0] if limits else None,
                                            key in _DISTINCT)
            else:  # a list default is copied: the schema's own stays intact
                resolved[key] = list(default) if isinstance(default, list) else default
        sections[sec_name] = resolved
    _check_order(kind, sections)
    _check_gate_time(kind, sections)
    _check_zero_divisors(kind, sections)
    _check_qutrit_preparations(kind, sections)
    return ExperimentConfig(kind=kind, sections=sections)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    return resolve_config(parse_config_text(text))


def default_config(kind: str) -> ExperimentConfig:
    return resolve_config({"": {"experiment": kind}})


# ---------------------------------------------------------------------------
# run records and persistence
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    config: ExperimentConfig
    columns: tuple[str, ...]
    rows: list[tuple]
    summary: dict[str, Any]
    wall_time_s: float

    @property
    def kind(self) -> str:
        return self.config.kind

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_format_cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "version": FORMAT_VERSION,
            "experiment": self.kind,
            "config": self.config.to_text(),
            "summary": self.summary,
            "wall_time_s": self.wall_time_s,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _format_cell(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _check_out_path(out: Path) -> None:
    if out.suffix.lower() == ".json":
        raise ConfigError(f"output path {out}: .json is the summary's suffix")
    # "." and "/" have no name to take the suffix
    for path in (out, out.with_suffix(".json") if out.name else out):
        if path.is_dir():
            raise ConfigError(f"output path {path} is a directory")
    ancestor = next(p for p in out.parents if p.exists())
    if not ancestor.is_dir():
        raise ConfigError(f"output path {out}: {ancestor} is not a directory")


def emit(record: RunRecord, out_path: str | Path) -> tuple[Path, Path]:
    """Write the CSV table and JSON summary next to each other; a ``.json``
    output path, a directory or a path below a regular file is refused
    before anything is written."""
    csv_path = Path(out_path)
    _check_out_path(csv_path)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    csv_path.write_text(record.to_csv())
    json_path = csv_path.with_suffix(".json")
    json_path.write_text(record.to_json())
    return csv_path, json_path


# ---------------------------------------------------------------------------
# model resolution helpers
# ---------------------------------------------------------------------------

def _circuit_from_model_section(model: dict[str, Any]) -> cmap.CircuitParams:
    """The circuit a model section names: a table row's, or its own values."""
    if model["source"] == "table_row":
        return cmap.table_circuit_params(model["row"])
    return cmap.CircuitParams(**{name: model[name] for name in cmap.CIRCUIT_NAMES})


def _spin_from_model_section(model: dict[str, Any]) -> tuple[SpinModelParams, str | None]:
    """The chain a model section names, and its detuning branch: the table's
    for a table row, else the section's ``branch`` (None where the
    experiment's schema has no such key)."""
    if model["source"] == "table_row":
        return cmap.table_spin_params(model["row"]), cmap.table_branch(model["row"])
    chain = symmetric_chain(**{name: model[name] for name in _SPIN_KEYS})
    return chain, model.get("branch")


def _noise_from_section(noise: dict[str, Any]) -> NoiseModel | None:
    if noise["gamma"] == 0.0:
        return None
    return NoiseModel(gamma=noise["gamma"], channels=frozenset(noise["channels"]))


def _gate_point(first: FidelityTrace, *others: FidelityTrace) -> list[float]:
    """The fidelities at the numerical gate time ``t_num``, the peak of
    ``first``: that peak, then each of ``others`` interpolated linearly
    between its two samples that bracket ``t_num``."""
    t_num = first.peak_time
    return [first.peak_value] + [float(np.interp(t_num, tr.times, tr.fbar))
                                 for tr in others]


def _bracket(window: np.ndarray, t: float) -> np.ndarray:
    """The samples of ``window`` that ``np.interp`` reads at ``t``: the pair
    ``window[i] <= t < window[i + 1]``, the last pair from the last sample
    on, the first pair before the first sample, and a one-sample window
    whole.  Interpolating a trace sampled there alone reproduces the
    full-window interpolation."""
    i = int(np.searchsorted(window, t, side="right")) - 1
    i = max(min(i, window.size - 2), 0)
    return window[i:i + 2]


# ---------------------------------------------------------------------------
# experiments: each returns (CSV columns, CSV rows, JSON summary)
# ---------------------------------------------------------------------------

Table = tuple[tuple[str, ...], list[tuple], dict[str, Any]]


def _fidelity_trace(config: ExperimentConfig) -> Table:
    model, branch = _spin_from_model_section(config["model"])
    noise = _noise_from_section(config["noise"])
    grid = config["grid"]
    times = gate_window(model, grid["window_lo"], grid["window_hi"],
                        config["run"]["samples"])
    configs = [_gate_config(grid["control"], branch)]
    h = build_interaction_hamiltonian(model)
    trace_noisy, = average_fidelity(h, configs, noise, times)
    trace_clean = (trace_noisy if noise is None
                   else average_fidelity(h, configs, None, times)[0])
    rows = list(zip(times, trace_noisy.fbar, trace_clean.fbar))
    summary = {
        "gate_time_analytic_us": analytic_gate_time(model),
        "peak_time_us": trace_noisy.peak_time,
        "peak_fidelity": trace_noisy.peak_value,
        "peak_fidelity_noiseless": trace_clean.peak_value,
    }
    return ("t_us", "fbar", "fbar_noiseless"), rows, summary


def _gate_config(control: str, branch: str) -> GateConfig:
    """The register preparation a ``control`` value names (``_CONTROLS``)."""
    if control == "closed":
        return closed_config_for_branch(branch)
    return GateConfig(delta_branch=branch, control_state=control)


def _scan_point(
    params: SpinModelParams,
    branch: str,
    noise: NoiseModel | None,
    n_samples: int,
) -> dict[str, float]:
    """The scan cells of one chain by column: open and closed fidelities at
    the numerical gate time ``t_num``, clean and noisy (``_gate_point``).

    ``t_num`` and the clean open fidelity are the refined peak of the clean
    open trace over ``OPEN_WINDOW``, sampled together with the clean closed
    trace: the noisy cells are read at the noiseless gate point, and repeat
    the clean ones without noise.  On the default scans the interpolated
    cells are up to 2.0e-5 off the exact fidelity at ``t_num`` (1.3e-5 on
    the default cross-talk scan, read the same way), so the 12 printed
    digits are not all precision.
    """
    configs = [_gate_config("open", branch), _gate_config("closed", branch)]
    window = gate_window(params, *OPEN_WINDOW, n_samples)
    h = build_interaction_hamiltonian(params)
    clean_open, clean_closed = average_fidelity(h, configs, None, window)
    noisy = (average_fidelity(h, configs, noise, _bracket(window, clean_open.peak_time))
             if noise else [])
    cells = _gate_point(clean_open, clean_closed, *noisy)
    fbar_open, fbar_closed, open_noisy, closed_noisy = cells if noise else cells * 2
    return dict(tg_analytic_us=analytic_gate_time(params), tg_numeric_us=clean_open.peak_time,
                fbar_open=fbar_open, fbar_open_noisy=open_noisy,
                fbar_closed=fbar_closed, fbar_closed_noisy=closed_noisy,
                peak_on_boundary=float(clean_open.peak_on_boundary))


# scan kind -> (axis column, detuning branch, the [grid] key whose value is
# the unit of lo and hi (None: absolute), (j1, j2x, j2z) at an axis value v).
# Every point sits on its branch's resonant detuning; scan_delta varies J2x
# at fixed J2z, so the minus-branch detuning sweeps through zero.
_SCANS: dict[str, tuple[str, str, str | None, Callable]] = {
    "scan_j2": ("j2_mhz", "plus", "j1", lambda g, v: (g["j1"], v, v)),
    "scan_j1": ("j1_mhz", "plus", None, lambda g, v: (v, g["j2"], g["j2"])),
    "scan_delta": ("j2x_mhz", "minus", None, lambda g, v: (g["j1"], v, g["j2z"])),
}


def _scan_axis(kind: str, grid: dict[str, Any]) -> np.ndarray:
    """A scan's axis; points beyond the float range overflow without a warning."""
    unit_key = _SCANS[kind][2]
    unit = grid[unit_key] if unit_key else 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linspace(grid["lo"] * unit, grid["hi"] * unit, grid["points"])


def _scan(config: ExperimentConfig) -> Table:
    axis, branch, _, couplings = _SCANS[config.kind]
    grid = config["grid"]
    noise = _noise_from_section(config["noise"])
    n = config["run"]["samples"]
    points, deltas = [], []
    for v in _scan_axis(config.kind, grid):
        j1, j2x, j2z = couplings(grid, v)
        delta = delta_for_branch(branch, j2x, j2z)
        params = symmetric_chain(j1, j1, j2x, j2z, delta)
        points.append((v, _scan_point(params, branch, noise, n)))
        deltas.append(delta)
    best_value, best = max(points, key=lambda p: p[1]["fbar_open"])
    summary = {"best_axis_value": best_value, "best_open_fidelity": best["fbar_open"],
               "axis": axis}
    if config.kind == "scan_delta":
        summary["delta_values_mhz"] = deltas
    # the header: the axis column, then the cell names every point shares
    return (axis, *best), [(v, *cells.values()) for v, cells in points], summary


def _qutrit_compare(config: ExperimentConfig) -> Table:
    noise = _noise_from_section(config["noise"])
    grid = config["grid"]
    n = config["run"]["samples"]
    rows: list[tuple] = []
    peaks: dict[str, dict[str, float]] = {}
    for row_index in config["model"]["rows"]:
        spin = cmap.table_spin_params(row_index)
        qutrit = cmap.table_qutrit_params(row_index)
        branch = cmap.table_branch(row_index)
        times = gate_window(spin, FIRST_SAMPLE, grid["window_hi"], n)
        configs = [_gate_config(control, branch) for control in grid["configs"]]
        h_qubit = build_interaction_hamiltonian(spin)
        h_qutrit = build_qutrit_hamiltonian(qutrit)
        for control, tr_qubit, tr_qutrit in zip(
                grid["configs"], average_fidelity(h_qubit, configs, noise, times),
                average_fidelity(h_qutrit, configs, noise, times)):
            for t, fq, ft in zip(times, tr_qubit.fbar, tr_qutrit.fbar):
                rows.append((row_index, control, t, fq, ft))
            peaks[f"row{row_index}_{control}"] = {
                "qubit_peak": tr_qubit.peak_value,
                "qubit_peak_time_us": tr_qubit.peak_time,
                "qutrit_peak": tr_qutrit.peak_value,
                "qutrit_peak_time_us": tr_qutrit.peak_time,
                "peak_shift": tr_qutrit.peak_value - tr_qubit.peak_value,
            }
    columns = ("table_row", "control", "t_us", "fbar_qubit", "fbar_qutrit")
    return columns, rows, {"peaks": peaks}


def _crosstalk_scan(config: ExperimentConfig) -> Table:
    """Open and closed fidelities of the chain with each cross-talk added,
    read at the numerical gate time ``t_num`` of the noisy open trace
    (``_gate_point``): each Hamiltonian has its own gate point under noise,
    and its three registers are evolved together over the window."""
    model, branch = _spin_from_model_section(config["model"])
    noise = _noise_from_section(config["noise"])
    n = config["run"]["samples"]
    window = gate_window(model, *OPEN_WINDOW, n)
    configs = [_gate_config(c, branch) for c in ("open", "closed_plus", "closed_minus")]
    rows: list[tuple] = []
    for pct in config["grid"]["fractions_pct"]:
        jc = pct / 100.0 * abs(model.j1x)
        cells = [jc]
        for j_nnn in (0.0, jc):
            h = add_crosstalk(model, j_nn=jc, j_nnn=j_nnn)
            cells += _gate_point(*average_fidelity(h, configs, noise, window))
        rows.append(tuple(cells))
    columns = (
        "jc_mhz",
        "fbar_open_nn", "fbar_closed_plus_nn", "fbar_closed_minus_nn",
        "fbar_open_nnn", "fbar_closed_plus_nnn", "fbar_closed_minus_nnn",
    )
    baseline = next((row[1] for row in rows if row[0] == 0.0), None)
    return columns, rows, {"j1_mhz": model.j1x, "baseline_open": baseline}


def _n5_trace(config: ExperimentConfig) -> Table:
    m = config["model"]
    noise = _noise_from_section(config["noise"])
    params = build_n5_model(
        m["j1"], m["j1"], m["j2"], m["j2"], m["delta3"], branch=m["branch"]
    )
    times = gate_window(params, FIRST_SAMPLE, config["grid"]["window_hi"],
                        config["run"]["samples"])
    # the open register |000>, scored against the plus branch's negative swap
    # with the i phase
    trace, = average_fidelity(build_interaction_hamiltonian(params),
                              [GateConfig(delta_branch="plus")], noise, times)
    summary = {
        "gate_time_analytic_us": analytic_gate_time(params),
        "peak_time_us": trace.peak_time,
        "peak_fidelity": trace.peak_value,
    }
    return ("t_us", "fbar"), list(zip(times, trace.fbar)), summary


def _drive_demo(config: ExperimentConfig) -> Table:
    """The calibrated pi pulse's transfer, the |00>_C population, after each
    of n = ``n_durations`` uniform durations t_pi k / m, k = 1 .. n, with
    m = ceil(n / 2), all from one propagation.  The m-th is t_pi bit for bit
    (k / m is 1.0 at k = m), so the summary's pi transfer is CSV row m; an
    even n ends at 2 t_pi."""
    model, _ = _spin_from_model_section(config["model"])
    noise = _noise_from_section(config["noise"])
    grid = config["grid"]
    amplitude = grid["amplitude_fraction"] * abs(model.j2z)
    pulse = calibrated_pi_pulse(model, amplitude)
    t_pi = pulse.pi_duration()
    n = grid["n_durations"]
    m = -(-n // 2)
    durations = t_pi * (np.arange(1, n + 1) / m)
    results = rabi_prepare(model, pulse, durations, noise)
    rows = [(float(d), res.transfer_probability) for d, res in zip(durations, results)]
    pi_result = results[m - 1]
    summary = {
        "amplitude_mhz": amplitude,
        "frequency_mhz": pulse.frequency,
        "pi_duration_us": t_pi,
        "pi_transfer_probability": pi_result.transfer_probability,
    }
    return ("duration_us", "p_open"), rows, summary


# the mapped-spin fields of a ``SpinMapResult`` -> their CSV columns, in
# column order: ``circuit-map`` writes all of them, ``search`` all but
# ``_CIRCUIT_MAP_ONLY``
_SPIN_COLUMNS = {
    "omega1": "omega1_ghz", "omega2": "omega2_ghz", "j1x": "j1x_mhz", "j1z": "j1z_mhz",
    "j2x": "j2x_mhz", "j2y": "j2y_mhz", "j2z": "j2z_mhz", "delta": "delta_mhz",
    "anh_rel_1": "anh_rel_1", "anh_rel_2": "anh_rel_2", "k23x": "k23x_mhz",
    "m23x": "m23x_mhz", "r23x": "r23x_mhz", "p23x": "p23x_mhz",
}
_CIRCUIT_MAP_ONLY = ("j2y", "r23x", "p23x")
# the unit of a circuit value's CSV column, by its kind (the name's letter)
_CIRCUIT_UNITS = {"e": "ghz", "c": "ff", "l": "nh"}


def _circuit_map(config: ExperimentConfig) -> Table:
    res = cmap.circuit_to_spin(_circuit_from_model_section(config["model"]))
    row = tuple(getattr(res, field) for field in _SPIN_COLUMNS)
    summary = {
        "condition_number": res.condition_number,
        "t_coeffs": list(res.t_coeffs),
        "s_coeffs_ghz": list(res.s_coeffs),
    }
    return tuple(_SPIN_COLUMNS.values()), [row], summary


def _search(config: ExperimentConfig) -> Table:
    grid = config["grid"]
    seed = config["run"]["seed"]
    results = run_search(
        branch=config["model"]["branch"],
        seed=seed,
        n_restarts=grid["n_restarts"],
        max_evaluations=grid["max_evaluations"],
        keep_all=grid["keep_all"],
    )
    spin = [field for field in _SPIN_COLUMNS if field not in _CIRCUIT_MAP_ONLY]
    # the circuit values in field order (``CIRCUIT_NAMES``), then the spins
    columns = (
        *(f"{name}_{_CIRCUIT_UNITS[name[0]]}" for name in cmap.CIRCUIT_NAMES),
        *(_SPIN_COLUMNS[field] for field in spin), "cost", "accepted",
    )
    rows = [astuple(r.circuit) + tuple(getattr(r.spin, field) for field in spin)
            + (r.cost, r.accepted) for r in results]
    summary = {
        "n_results": len(results),
        "n_accepted": sum(1 for r in results if r.accepted),
        "best_cost": results[0].cost if results else None,
        "best_residuals": results[0].residuals if results else None,
        "seed": seed,
    }
    return columns, rows, summary


# kind -> (subcommand, runner)
EXPERIMENTS: dict[str, tuple[str, Callable[[ExperimentConfig], Table]]] = {
    "fidelity_trace": ("trace", _fidelity_trace),
    "scan_j2": ("scan-j2", _scan),
    "scan_j1": ("scan-j1", _scan),
    "scan_delta": ("scan-delta", _scan),
    "qutrit_compare": ("qutrit", _qutrit_compare),
    "crosstalk_scan": ("crosstalk", _crosstalk_scan),
    "n5_trace": ("n5", _n5_trace),
    "drive_demo": ("drive", _drive_demo),
    "circuit_map": ("circuit-map", _circuit_map),
    "search": ("search", _search),
}


#: the errors a run raises on a numerical failure (the command's exit 3)
NUMERICAL_FAILURES = (PropagationError, ModelError, HilbertError, cmap.MappingError,
                      cmap.SingularCapacitanceError)


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """Run the configured experiment and record its table and summary."""
    t0 = time.perf_counter()
    # numpy's floating-point warnings are silenced, not checked: every result
    # passes a check that refuses a non-finite value (the engine's input and
    # output checks, the fidelity range check, ``propagate``'s state checks
    # and ``analytic_gate_time``), which raises one of NUMERICAL_FAILURES
    with np.errstate(all="ignore"):
        columns, rows, summary = EXPERIMENTS[config.kind][1](config)
    return RunRecord(
        config=config,
        columns=columns,
        rows=rows,
        summary=summary,
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _pin_blas_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread, unless the caller set
    ``OPENBLAS_NUM_THREADS``: every matrix here is at most 256 wide, so
    threads cost more in handoff than they save.  OpenBLAS read the variable
    when numpy loaded it, so the count is set through its own setter, found
    via ``ctypes`` among the libraries numpy's core links; a BLAS without
    that symbol is left alone."""
    if "OPENBLAS_NUM_THREADS" in os.environ:
        return
    try:
        from numpy._core import _multiarray_umath

        set_threads = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads(1)


def main(argv: list[str] | None = None) -> None:
    """Conditional two-qubit swap gate simulator."""
    _pin_blas_thread()
    parser = argparse.ArgumentParser(prog="swapgate", description=main.__doc__,
                                     allow_abbrev=False)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for kind, (name, _) in EXPERIMENTS.items():
        about = f"Run the {kind} experiment."
        command = commands.add_parser(name, help=about, description=about,
                                      allow_abbrev=False)
        command.set_defaults(kind=kind)
        command.add_argument("--config", metavar="PATH", help="Configuration file.")
        command.add_argument("--out", metavar="PATH", default=f"{kind}.csv",
                             help="Output CSV path (default %(default)s); the JSON "
                                  "summary goes beside it with the suffix .json.")
    args = parser.parse_args(argv)
    try:
        cfg = default_config(args.kind) if args.config is None else load_config(args.config)
        if cfg.kind != args.kind:
            raise ConfigError(f"configuration is for {cfg.kind!r}, expected {args.kind!r}")
        if not args.out:
            raise ConfigError("output path is empty")
        _check_out_path(Path(args.out))
        record = run_experiment(cfg)
    except ConfigError as exc:
        parser.exit(2, f"configuration error: {exc}\n")
    except NUMERICAL_FAILURES as exc:
        parser.exit(3, f"numerical failure: {exc}\n")
    csv_path, json_path = emit(record, args.out)
    print(f"wrote {csv_path} and {json_path} ({record.wall_time_s:.1f} s)")


if __name__ == "__main__":
    main()
