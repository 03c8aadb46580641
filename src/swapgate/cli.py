"""Command-line front end: experiment orchestration and CSV/JSON persistence.

Configuration files use a flat, typed key/value format with section nesting:

    # comment lines start with '#'; blank lines are ignored
    experiment = fidelity_trace   # top-level key before any section
    [model]                       # section header
    source = table_row            # string (bare or double-quoted)
    row = 6                       # integer
    [noise]
    gamma = 0.01                  # float
    channels = dephasing, photon_loss   # comma list ('[]' is the empty list)
    [grid]
    window_lo = 0.8
    window_hi = 1.05
    [run]
    samples = 90
    out = "runs/a#1.csv"          # quoted: '#' and ',' are literal here

Every key is validated against the experiment's schema (type, finiteness,
range: table rows 1..16, at least one sample and grid point, gamma >= 0;
the allowed names of a string; at least one item in a list other than
``channels``; no item twice in ``rows`` or ``configs``) and the cross-key
rules in ``ORDER_RULES`` (time windows increase, the drive amplitude is
positive); an experiment that reads the gate time pi / |2 J1| refuses a
chain, or a scan point, with J1 = 0.  A schema holds only the keys
its experiment reads (the scans take no [model] section; a ``BySource``
[model] section takes only the keys of the ``source`` it names), and
unknown keys are rejected.  '#' and ',' inside double quotes are literal,
and '\\' escapes '"' and '\\' there.  Loading fills defaults, and emitting a
loaded configuration reproduces it exactly (load -> emit -> load is the
identity on resolved configurations).

Per run, a CSV table (header row, '.' decimal, 12 significant digits, one
row per sample) and a JSON summary (peaks, locations, the search seed, the
full resolved configuration, and a format-version field) are written.  The
output path must not end in ``.json``, the summary's suffix.  Identical
configurations produce byte-identical CSV files.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import json
import math
import re
import time
from dataclasses import astuple, dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import click
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
    open_gate,
)
from .search import search as run_search
from .spin_model import (
    BRANCHES,
    GateConfig,
    ModelError,
    SpinModelParams,
    add_crosstalk,
    analytic_gate_time,
    build_interaction_hamiltonian,
    build_n5_model,
    closed_config_for_branch,
    delta_for_branch,
    n5_control_states,
    symmetric_chain,
)
from .drive import calibrated_pi_pulse, rabi_prepare

FORMAT_VERSION = "1"


class ConfigError(ValueError):
    """Malformed or invalid configuration input."""


# ---------------------------------------------------------------------------
# config format
# ---------------------------------------------------------------------------

_QUOTED = re.compile(r'"((?:[^"\\]|\\.)*)"')
_UNESCAPE = re.compile(r"\\(.)")


def _split_unquoted(text: str, sep: str) -> list[str]:
    """Split ``text`` at every ``sep`` character outside double quotes."""
    parts, start, quoted, escaped = [], 0, False, False
    for i, c in enumerate(text):
        if escaped:
            escaped = False
        elif quoted and c == "\\":
            escaped = True
        elif c == '"':
            quoted = not quoted
        elif c == sep and not quoted:
            parts.append(text[start:i])
            start = i + 1
    if quoted:
        raise ConfigError("unterminated string")
    parts.append(text[start:])
    return parts


def _parse_scalar(raw: str):
    raw = raw.strip()
    quoted = _QUOTED.fullmatch(raw)
    if quoted:
        return _UNESCAPE.sub(r"\1", quoted.group(1))
    if '"' in raw:
        raise ConfigError(f"stray quote in {raw!r}")
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
    parts = _split_unquoted(raw, ",")
    if len(parts) > 1:
        return [_parse_scalar(p) for p in parts]
    return [] if raw.strip() == "[]" else _parse_scalar(raw)


def parse_config_text(text: str) -> dict[str, dict[str, Any]]:
    """Parse the sectioned key/value format into {section: {key: value}}.

    Top-level keys (before any section header) land in section ''.
    """
    out: dict[str, dict[str, Any]] = {"": {}}
    section = ""
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            stripped = _split_unquoted(line, "#")[0].strip()
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
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
        try:
            out[section][key] = _parse_value(raw)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return out


def _format_value(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        short = f"{v:.12g}"
        # "-0" would load back as the integer 0
        return short if float(short) == v and short != "-0" else repr(v)
    if isinstance(v, (list, tuple)):
        return ", ".join(_format_value(x) for x in v) if v else "[]"
    if isinstance(v, str):
        if (v == "" or any(c in v for c in '#,=[]"\\') or v != v.strip()
                or _parse_scalar(v) != v):
            return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
        return v
    return str(v)


# schema: section -> key -> (type tag, default[, limits]); None default
# means required; the optional limits are, for each number, inclusive
# (lo, hi) bounds with None for an open side, and for each string the tuple
# of allowed values.  A list holds at least one item unless its key is in
# _MAY_BE_EMPTY, and no item twice if its key is in _DISTINCT.
_AT_LEAST_ONE = (1, None)
_TABLE_ROWS = (min(cmap.TABLE_S1), max(cmap.TABLE_S1))
_RUN_KEYS = {"out": ("str", "")}
_SAMPLED_RUN = {"samples": ("int", 90, _AT_LEAST_ONE), **_RUN_KEYS}
_MAY_BE_EMPTY = frozenset({"channels"})
# each item names an output block and a summary entry of its own
_DISTINCT = frozenset({"rows", "configs"})


class BySource(dict):
    """Schema of a ``[model]`` section whose keys depend on its ``source``:
    source value -> that source's key schema (besides ``source`` itself).
    The first source is the default."""


_ROW_KEYS = {"row": ("int", 6, _TABLE_ROWS)}
_SPIN_KEYS = {
    "j1x": ("float", 40.9),
    "j1z": ("float", 40.9),
    "j2x": ("float", -540.4),
    "j2z": ("float", 1007.1),
    "delta": ("float", 933.4),
}
# defaults: the circuit of table row 6
_CIRCUIT_KEYS = {
    name: ("float", cmap.table_row(6)[name]) for name in cmap.CIRCUIT_NAMES
}
_BRANCH_KEY = {"branch": ("str", "plus", BRANCHES)}
# a chain from a table row (whose branch is the table's), explicit spin
# couplings, or a mapped circuit; ``branch`` only where the experiment reads it
_GATE_MODEL = BySource(
    table_row=_ROW_KEYS,
    spin={**_SPIN_KEYS, **_BRANCH_KEY},
    circuit={**_CIRCUIT_KEYS, **_BRANCH_KEY},
)
_NOISE_KEYS = {
    "gamma": ("float", 0.01, (0.0, None)),
    "channels": ("strlist", list(CHANNELS), CHANNELS),
}
# [grid] control names: ``closed`` is the stationary Bell state of the branch
_CONTROL_STATES = {
    "open": "open_0",
    "closed_plus": "closed_1plus",
    "closed_minus": "closed_1minus",
    "closed_11": "closed_11",
}
_CONTROLS = ("closed", *_CONTROL_STATES)

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
            "points": ("int", 8, _AT_LEAST_ONE),
        },
        "run": _SAMPLED_RUN,
    },
    "scan_j1": {
        "noise": _NOISE_KEYS,
        "grid": {
            "j2": ("float", 750.0),
            "lo": ("float", 18.75),
            "hi": ("float", 125.0),
            "points": ("int", 8, _AT_LEAST_ONE),
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
            "points": ("int", 7, _AT_LEAST_ONE),
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
        "model": BySource(table_row=_ROW_KEYS, spin=_SPIN_KEYS, circuit=_CIRCUIT_KEYS),
        "noise": _NOISE_KEYS,
        "grid": {
            "amplitude_fraction": ("float", 0.02),
            "n_durations": ("int", 25, _AT_LEAST_ONE),
        },
        "run": _RUN_KEYS,
    },
    "circuit_map": {
        "model": BySource(table_row=_ROW_KEYS, circuit=_CIRCUIT_KEYS),
        "run": _RUN_KEYS,
    },
    "search": {
        "model": _BRANCH_KEY,
        "grid": {
            "n_restarts": ("int", 8, _AT_LEAST_ONE),
            "max_evaluations": ("int", 400, _AT_LEAST_ONE),
            "keep_all": ("bool", True),
        },
        "run": {"seed": ("int", 0, (0, None)), **_RUN_KEYS},
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
    if kind == "scan_j1":
        grid = sections["grid"]
        if _linspace_holds_zero(grid["lo"], grid["hi"], grid["points"]):
            raise ConfigError(f"[grid] a scan point at J1 = 0 {undefined}")
    elif kind in _J1_KEYS:
        section, key = _J1_KEYS[kind]
        # a [model] section holds j1x only with source = spin
        if sections[section].get(key) == 0.0:
            raise ConfigError(f"[{section}] {key} = 0 {undefined}")


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


def _linspace_holds_zero(lo: float, hi: float, n: int) -> bool:
    """Whether ``np.linspace(lo, hi, n)`` holds 0.0, decided without forming
    it (``n`` is unbounded).  numpy's points are ``lo``, then
    ``k * step + lo`` for ``0 < k < n - 1`` with ``step = (hi - lo) / (n - 1)``,
    then ``hi``.  A floating-point sum is zero only when its terms cancel, so
    only the ``k`` next to ``-lo / step`` can give zero.  (numpy's path for a
    step that underflows to zero is not followed.)"""
    if lo == 0.0 or (n > 1 and hi == 0.0):
        return True
    step = (hi - lo) / (n - 1) if n > 2 else 0.0
    ratio = -lo / step if step != 0.0 and math.isfinite(step) else -1.0
    if not 0.0 < ratio < n:
        return False
    k = round(ratio)
    return any(0 < j < n - 1 and j * step + lo == 0.0 for j in (k - 1, k, k + 1))


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
        if limits is not None and value not in limits:
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
                may_be_empty: bool = False, distinct: bool = False) -> Any:
    try:
        if tag.endswith("list"):
            items = value if isinstance(value, list) else [value]
            if not items and not may_be_empty:
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
    default = next(iter(spec))
    source = _check_type("str", body.get("source", default), f"[{sec_name}] source",
                         tuple(spec))
    return {"source": ("str", default), **spec[source]}


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
                                            key in _MAY_BE_EMPTY, key in _DISTINCT)
            else:
                if default is None:
                    raise ConfigError(f"missing required key {key!r} in [{sec_name}]")
                resolved[key] = default
        sections[sec_name] = resolved
    _check_order(kind, sections)
    _check_gate_time(kind, sections)
    _check_qutrit_preparations(kind, sections)
    return ExperimentConfig(kind=kind, sections=sections)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
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
    kind: str
    config: ExperimentConfig
    columns: tuple[str, ...]
    rows: list[tuple]
    summary: dict[str, Any]
    wall_time_s: float

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
    for path in (out, out.with_suffix(".json")):
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
    source = model["source"]
    if source == "table_row":
        params = cmap.table_spin_params(model["row"])
        return params, cmap.table_branch(model["row"])
    branch = model.get("branch")
    if source == "spin":
        params = symmetric_chain(
            model["j1x"], model["j1z"], model["j2x"], model["j2z"],
            model["delta"], detuning_choice=branch or "explicit",
        )
        return params, branch
    return cmap.circuit_to_spin(_circuit_from_model_section(model)).spin_params(), branch


def _noise_from_section(noise: dict[str, Any]) -> NoiseModel | None:
    if noise["gamma"] == 0.0:
        return None
    return NoiseModel(gamma=noise["gamma"], channels=frozenset(noise["channels"]))


def _trace_at(trace: FidelityTrace, t: float) -> float:
    """The trace at ``t`` by linear interpolation between its samples."""
    return float(np.interp(t, trace.times, trace.fbar))


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
    trace_noisy, = average_fidelity(model, configs, noise, times)
    trace_clean = (trace_noisy if noise is None
                   else average_fidelity(model, configs, None, times)[0])
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
    return GateConfig(delta_branch=branch, control_state=_CONTROL_STATES[control])


_SCAN_COLUMNS = (
    "tg_analytic_us", "tg_numeric_us", "fbar_open", "fbar_open_noisy",
    "fbar_closed", "fbar_closed_noisy", "peak_on_boundary",
)


def _scan_point(
    params: SpinModelParams,
    branch: str,
    noise: NoiseModel | None,
    n_samples: int,
) -> tuple[float, ...]:
    """The ``_SCAN_COLUMNS`` of one chain: open and closed fidelities at the
    numerical gate time ``t_num``, clean and noisy.

    ``t_num`` and the clean open fidelity are the refined peak of the clean
    open trace over ``OPEN_WINDOW``, sampled together with the clean closed
    trace.  The closed and noisy cells are the linear interpolation at
    ``t_num`` between the two samples of the window that bracket it; the
    noisy traces are evolved at those two samples alone.  On the default
    scans that interpolation is up to 2.0e-5 off the exact fidelity at
    ``t_num`` (1.3e-5 on the default cross-talk scan, read the same way), so
    the 12 printed digits are not all precision.
    """
    window = gate_window(params, *OPEN_WINDOW, n_samples)
    configs = [GateConfig(delta_branch=branch, control_state="open_0"),
               closed_config_for_branch(branch)]
    trace = partial(average_fidelity, params, configs,
                    hamiltonian=build_interaction_hamiltonian(params))
    clean_open, clean_closed = trace(None, window)
    t_num = clean_open.peak_time
    fbar_open = clean_open.peak_value
    fbar_closed = _trace_at(clean_closed, t_num)
    if noise is None:
        open_noisy, closed_noisy = fbar_open, fbar_closed
    else:
        open_noisy, closed_noisy = (_trace_at(tr, t_num)
                                    for tr in trace(noise, _bracket(window, t_num)))
    return (analytic_gate_time(params), t_num, fbar_open, open_noisy, fbar_closed,
            closed_noisy, float(clean_open.peak_on_boundary))


# scan kind -> (axis column, detuning branch, the [grid] key whose value is
# the unit of lo and hi (None: absolute), (j1, j2x, j2z) at an axis value v).
# Every point sits on its branch's resonant detuning; scan_delta varies J2x
# at fixed J2z, so the minus-branch detuning sweeps through zero.
_SCANS: dict[str, tuple[str, str, str | None, Callable]] = {
    "scan_j2": ("j2_mhz", "plus", "j1", lambda g, v: (g["j1"], v, v)),
    "scan_j1": ("j1_mhz", "plus", None, lambda g, v: (v, g["j2"], g["j2"])),
    "scan_delta": ("j2x_mhz", "minus", None, lambda g, v: (g["j1"], v, g["j2z"])),
}


def _scan(config: ExperimentConfig) -> Table:
    axis, branch, unit_key, couplings = _SCANS[config.kind]
    grid = config["grid"]
    noise = _noise_from_section(config["noise"])
    n = config["run"]["samples"]
    unit = grid[unit_key] if unit_key else 1.0
    rows, deltas = [], []
    for v in np.linspace(grid["lo"] * unit, grid["hi"] * unit, grid["points"]):
        j1, j2x, j2z = couplings(grid, v)
        delta = delta_for_branch(branch, j2x, j2z)
        params = symmetric_chain(j1, j1, j2x, j2z, delta, detuning_choice=branch)
        rows.append((v,) + _scan_point(params, branch, noise, n))
        deltas.append(delta)
    best = max(rows, key=lambda r: r[3])
    summary = {
        "best_axis_value": best[0],
        "best_open_fidelity": best[3],
        "axis": axis,
    }
    if config.kind == "scan_delta":
        summary["delta_values_mhz"] = deltas
    return (axis,) + _SCAN_COLUMNS, rows, summary


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
        for control, tr_qubit, tr_qutrit in zip(
                grid["configs"], average_fidelity(spin, configs, noise, times),
                average_fidelity(qutrit, configs, noise, times)):
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
    model, branch = _spin_from_model_section(config["model"])
    noise = _noise_from_section(config["noise"])
    n = config["run"]["samples"]
    fractions = config["grid"]["fractions_pct"]
    window = gate_window(model, *OPEN_WINDOW, n)
    open_cfg = [GateConfig(delta_branch=branch, control_state="open_0")]
    closed_cfgs = [GateConfig(delta_branch=branch, control_state=state)
                   for state in ("closed_1plus", "closed_1minus")]
    rows: list[tuple] = []
    for pct in fractions:
        jc = pct / 100.0 * abs(model.j1x)
        h_nn = add_crosstalk(model, j_nn=jc, j_nnn=0.0)
        h_nnn = add_crosstalk(model, j_nn=jc, j_nnn=jc)
        cells = [jc]
        for h in (h_nn, h_nnn):
            tr_open, = average_fidelity(model, open_cfg, noise, window, hamiltonian=h)
            t_num = tr_open.peak_time
            cells.append(tr_open.peak_value)
            # both closed registers at the two samples bracketing t_num
            cells.extend(_trace_at(tr, t_num) for tr in average_fidelity(
                model, closed_cfgs, noise, _bracket(window, t_num), hamiltonian=h))
        rows.append(tuple(cells))
    columns = (
        "jc_mhz",
        "fbar_open_nn", "fbar_closed_plus_nn", "fbar_closed_minus_nn",
        "fbar_open_nnn", "fbar_closed_plus_nnn", "fbar_closed_minus_nnn",
    )
    return columns, rows, {"j1_mhz": model.j1x, "baseline_open": rows[0][1]}


def _n5_trace(config: ExperimentConfig) -> Table:
    m = config["model"]
    noise = _noise_from_section(config["noise"])
    params = build_n5_model(
        m["j1"], m["j1"], m["j2"], m["j2"], m["delta3"], branch=m["branch"]
    )
    times = gate_window(params, FIRST_SAMPLE, config["grid"]["window_hi"],
                        config["run"]["samples"])
    cfg = GateConfig(delta_branch="plus", control_state="custom",
                     custom_vector=tuple(n5_control_states(params)["open_0"]))
    # the negative swap with the i phase
    trace, = average_fidelity(params, [cfg], noise, times, targets=[open_gate("plus")])
    summary = {
        "gate_time_analytic_us": analytic_gate_time(params),
        "peak_time_us": trace.peak_time,
        "peak_fidelity": trace.peak_value,
    }
    return ("t_us", "fbar"), list(zip(times, trace.fbar)), summary


def _drive_demo(config: ExperimentConfig) -> Table:
    model, _ = _spin_from_model_section(config["model"])
    noise = _noise_from_section(config["noise"])
    grid = config["grid"]
    amplitude = grid["amplitude_fraction"] * abs(model.j2z)
    pulse = calibrated_pi_pulse(model, amplitude)
    t_pi = pulse.pi_duration()
    durations = np.linspace(t_pi / grid["n_durations"], 2.0 * t_pi,
                            grid["n_durations"])
    # t_pi is off the uniform grid, and a non-uniform grid costs one
    # exponential per interval, so the pi pulse is its own propagation
    rows = [(float(d), res.transfer_probability)
            for d, res in zip(durations, rabi_prepare(model, pulse, durations, noise))]
    pi_result, = rabi_prepare(model, pulse, noise=noise)
    summary = {
        "amplitude_mhz": amplitude,
        "frequency_mhz": pulse.frequency,
        "pi_duration_us": t_pi,
        "pi_transfer_probability": pi_result.transfer_probability,
    }
    return ("duration_us", "p_open"), rows, summary


def _circuit_map(config: ExperimentConfig) -> Table:
    circuit = _circuit_from_model_section(config["model"])
    res = cmap.circuit_to_spin(circuit)
    columns = (
        "omega1_ghz", "omega2_ghz", "j1x_mhz", "j1z_mhz", "j2x_mhz", "j2y_mhz",
        "j2z_mhz", "delta_mhz", "anh_rel_1", "anh_rel_2", "k23x_mhz",
        "m23x_mhz", "r23x_mhz", "p23x_mhz",
    )
    row = (
        res.omega1, res.omega2, res.j1x, res.j1z, res.j2x, res.j2y, res.j2z,
        res.delta, res.anh_rel_1, res.anh_rel_2, res.k23x, res.m23x,
        res.r23x, res.p23x,
    )
    summary = {
        "condition_number": res.condition_number,
        "t_coeffs": list(res.t_coeffs),
        "s_coeffs_ghz": list(res.s_coeffs),
    }
    return columns, [row], summary


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
    columns = (
        "e1_ghz", "e2_ghz", "e12_ghz", "e23_ghz", "c1_ff", "c2_ff", "c23_ff",
        "l12_nh", "omega1_ghz", "omega2_ghz", "j1x_mhz", "j1z_mhz", "j2x_mhz",
        "j2z_mhz", "delta_mhz", "anh_rel_1", "anh_rel_2", "k23x_mhz",
        "m23x_mhz", "cost", "accepted",
    )
    rows = []
    for r in results:
        s = r.spin
        rows.append(astuple(r.circuit) + (
            s.omega1, s.omega2, s.j1x, s.j1z, s.j2x, s.j2z, s.delta,
            s.anh_rel_1, s.anh_rel_2, s.k23x, s.m23x, r.cost, r.accepted,
        ))
    summary = {
        "n_results": len(results),
        "n_accepted": sum(1 for r in results if r.accepted),
        "best_cost": results[0].cost if results else None,
        "best_residuals": results[0].residuals if results else None,
        "seed": seed,
    }
    return columns, rows, summary


EXPERIMENTS: dict[str, Callable[[ExperimentConfig], Table]] = {
    "fidelity_trace": _fidelity_trace,
    "scan_j2": _scan,
    "scan_j1": _scan,
    "scan_delta": _scan,
    "qutrit_compare": _qutrit_compare,
    "crosstalk_scan": _crosstalk_scan,
    "n5_trace": _n5_trace,
    "drive_demo": _drive_demo,
    "circuit_map": _circuit_map,
    "search": _search,
}


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """Run the configured experiment and record its table and summary."""
    t0 = time.perf_counter()
    columns, rows, summary = EXPERIMENTS[config.kind](config)
    return RunRecord(
        kind=config.kind,
        config=config,
        columns=columns,
        rows=rows,
        summary=summary,
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

_SUBCOMMANDS = {
    "trace": "fidelity_trace",
    "scan-j2": "scan_j2",
    "scan-j1": "scan_j1",
    "scan-delta": "scan_delta",
    "qutrit": "qutrit_compare",
    "crosstalk": "crosstalk_scan",
    "n5": "n5_trace",
    "drive": "drive_demo",
    "circuit-map": "circuit_map",
    "search": "search",
}


@click.group()
def main() -> None:
    """Conditional two-qubit swap gate simulator."""


def _register(name: str, kind: str) -> None:
    # --seed and --no-noise exist only where the schema has the key they set
    seed_option = click.option(
        "--seed", type=click.IntRange(min=0), default=None,
        help="Override [run] seed.",
    ) if "seed" in SCHEMAS[kind]["run"] else (lambda f: f)
    no_noise_option = click.option(
        "--no-noise", is_flag=True, default=False,
        help="Disable decoherence noise for this run ([noise] gamma = 0).",
    ) if "noise" in SCHEMAS[kind] else (lambda f: f)

    @main.command(name=name, help=f"Run the {kind} experiment.")
    @click.option("--config", "config_path",
                  type=click.Path(exists=True, dir_okay=False),
                  default=None, help="Configuration file.")
    @click.option("--out", "out_path", default=None, help="Output CSV path.")
    @seed_option
    @no_noise_option
    def command(config_path, out_path, seed=None, no_noise=False, _kind=kind):
        try:
            cfg = load_config(config_path) if config_path else default_config(_kind)
            if cfg.kind != _kind:
                raise ConfigError(
                    f"configuration is for {cfg.kind!r}, expected {_kind!r}"
                )
            sections = {k: dict(v) for k, v in cfg.sections.items()}
            if seed is not None:
                sections["run"]["seed"] = seed
            if no_noise:
                sections["noise"]["gamma"] = 0.0
            cfg = ExperimentConfig(kind=cfg.kind, sections=sections)
            out = Path(out_path or cfg["run"]["out"] or f"{_kind}.csv")
            _check_out_path(out)
            record = run_experiment(cfg)
        except ConfigError as exc:
            click.echo(f"configuration error: {exc}", err=True)
            raise SystemExit(2)
        except (PropagationError, ModelError, HilbertError, cmap.MappingError,
                cmap.SingularCapacitanceError) as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            raise SystemExit(3)
        csv_path, json_path = emit(record, out)
        click.echo(f"wrote {csv_path} and {json_path} "
                   f"({record.wall_time_s:.1f} s)")

    command.__name__ = f"cmd_{kind}"


for _name, _kind in _SUBCOMMANDS.items():
    _register(_name, _kind)


if __name__ == "__main__":
    main()
