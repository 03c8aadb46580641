"""Tests for configuration handling, experiment records, and the CLI."""

import ctypes
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import ROW6, run_cli
import swapgate.cli
from swapgate.circuit_map import CIRCUIT_NAMES, circuit_to_spin, table_circuit_params
from swapgate.cli import (
    SCHEMAS,
    BySource,
    ConfigError,
    default_config,
    emit,
    parse_config_text,
    resolve_config,
    run_experiment,
)
from swapgate.dynamics import NoiseModel
from swapgate.metrics import OPEN_WINDOW, average_fidelity, gate_window
from swapgate.spin_model import (
    REGISTER_STATES,
    GateConfig,
    add_crosstalk,
    build_interaction_hamiltonian,
    closed_config_for_branch,
    symmetric_chain,
)

# subcommand -> experiment kind, from the one table of experiments
SUBCOMMANDS = {name: kind for kind, (name, _) in swapgate.cli.EXPERIMENTS.items()}

MINIMAL = """\
experiment = scan_j2
[grid]
points = 1
lo = 10.0
hi = 10.0
[run]
samples = 30
"""


def _value_strategy(tag, limits):
    """Values a resolved configuration can hold for a schema entry: a string
    is one of its allowed names, and a list holds at least one item."""
    if tag.startswith("str"):
        names = st.sampled_from(limits)
        return st.lists(names, min_size=1, max_size=4) if tag.endswith("list") else names
    lo, hi = limits or (None, None)
    scalar = {
        "int": st.integers(-10**12 if lo is None else lo, 10**12 if hi is None else hi),
        "float": st.floats(min_value=lo, max_value=hi, allow_nan=False,
                           allow_infinity=False),
        "bool": st.booleans(),
    }
    if tag.endswith("list"):
        return st.lists(scalar[tag[:-4]], min_size=1, max_size=4)
    return scalar[tag]


# the largest value a count may take in ``in_bounds_raw``: the schemas allow
# up to 10,000 samples, points, durations and restarts, which would take
# minutes per example
COUNT_CAPS = {"samples": 6, "points": 3, "n_durations": 3, "n_restarts": 2,
              "max_evaluations": 30}


@st.composite
def in_bounds_raw(draw, caps=COUNT_CAPS):
    """A raw configuration of any experiment, every key within its schema
    bounds: a source, named or left at the default, then each of its keys
    set or left at its default, except that each count in ``caps`` is
    always set, at most its cap.  A configuration that is only resolved,
    not run, takes ``caps={}``: every count is then drawn like any key."""
    kind = draw(st.sampled_from(sorted(SCHEMAS)))
    raw = {"": {"experiment": kind}}
    for section, keys in SCHEMAS[kind].items():
        raw[section] = {}
        if isinstance(keys, BySource):
            source = draw(st.sampled_from(sorted(keys)))
            if source != next(iter(keys)) or draw(st.booleans()):
                raw[section]["source"] = source
            keys = keys[source]
        for key, (tag, _default, *limits) in keys.items():
            if key in caps:
                raw[section][key] = draw(st.integers(limits[0][0], caps[key]))
            elif draw(st.booleans()):
                raw[section][key] = draw(_value_strategy(tag, limits[0] if limits else None))
    return raw


@pytest.fixture(scope="module")
def one_point_record():
    cfg = resolve_config(parse_config_text(MINIMAL))
    return run_experiment(cfg)


class TestConfigFormat:
    def test_parse_types(self):
        text = """
        experiment = scan_j2
        [model]
        source = table_row
        row = 6
        [noise]
        gamma = 0.02
        channels = dephasing, photon_loss
        """
        raw = parse_config_text(text)
        assert raw[""]["experiment"] == "scan_j2"
        assert raw["model"]["row"] == 6
        assert raw["noise"]["gamma"] == 0.02
        assert raw["noise"]["channels"] == ["dephasing", "photon_loss"]

    def test_defaults_filled(self):
        cfg = resolve_config(parse_config_text(MINIMAL))
        assert cfg["noise"]["gamma"] == 0.01
        trace = resolve_config(parse_config_text("experiment = fidelity_trace\n"))
        assert trace["model"]["source"] == "table_row"
        assert cfg["grid"]["points"] == 1

    def test_resolved_lists_do_not_share_the_schema_defaults(self):
        """Mutating a resolved list default leaves the next resolution, of
        the same experiment and of another sharing the noise keys, intact."""
        first = default_config("qutrit_compare")
        first["model"]["rows"].append(1)
        first["noise"]["channels"].remove("dephasing")
        again = default_config("qutrit_compare")
        assert again["model"]["rows"] == [6, 11]
        assert again["noise"]["channels"] == ["dephasing", "photon_loss"]
        assert default_config("scan_j2")["noise"]["channels"] == [
            "dephasing", "photon_loss"]

    def test_unknown_key_rejected_with_name(self):
        text = MINIMAL + "\n[noise]\nwobble = 3\n"
        with pytest.raises(ConfigError, match="wobble"):
            resolve_config(parse_config_text(text))

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="plumbing"):
            resolve_config(parse_config_text(MINIMAL + "\n[plumbing]\nx = 1\n"))

    def test_missing_experiment_rejected(self):
        with pytest.raises(ConfigError, match="experiment"):
            resolve_config(parse_config_text("[model]\nrow = 6\n"))

    def test_unknown_experiment_rejected(self):
        for kind in ("teleport", "scan_j2, search"):
            with pytest.raises(ConfigError, match="unknown experiment"):
                resolve_config(parse_config_text(f"experiment = {kind}\n"))

    def test_type_errors_are_located(self):
        with pytest.raises(ConfigError, match=r"\[model\] row"):
            resolve_config(
                parse_config_text("experiment = fidelity_trace\n[model]\nrow = six\n")
            )

    def test_parse_diagnostics_carry_line_numbers(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("experiment = scan_j2\nnot a key value\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("[run]\nseed = 1\nseed = 2\n")

    def test_round_trip_stability(self):
        cfg = resolve_config(parse_config_text(MINIMAL))
        text = cfg.to_text()
        cfg2 = resolve_config(parse_config_text(text))
        assert cfg2.sections == cfg.sections
        assert cfg2.to_text() == text

    def test_hash_starts_a_comment_and_comma_separates_items(self):
        """There is no quoting: a '#' anywhere ends the line's value, and
        every ',' splits a list, quotes or not.  There is no empty list
        either: '[]' is an ordinary name."""
        raw = parse_config_text(
            "control = open#closed  # trailing comment\n"
            'name = "x,y", plain\n'
            "empty = []\n"
        )[""]
        assert raw["control"] == "open"
        assert raw["name"] == ['"x', 'y"', "plain"]
        assert raw["empty"] == "[]"

    @settings(max_examples=150, deadline=None)
    @given(raw=in_bounds_raw(caps={}))
    def test_load_emit_load_is_identity(self, raw):
        try:
            cfg = resolve_config(raw)
        except ConfigError as exc:
            # every draw lies within its key's bounds, so only a cross-key
            # rule (ORDER_RULES), a repeated item of a distinct list, a zero
            # J1, a zeroed divisor, a resonance branch whose denominator is
            # zero or has the wrong sign, a resonant detuning beyond the
            # float range, or a circuit value that is not positive can
            # reject; that input resolves to nothing
            assert any(rule in str(exc)
                       for rule in ("must exceed", "listed twice", "gate time",
                                    "drive amplitude", "needs delta3/2 + 2 J2z",
                                    "resonant detuning is not finite",
                                    "must be strictly positive"))
            assume(False)
        text = cfg.to_text()
        again = resolve_config(parse_config_text(text))
        assert again.sections == cfg.sections
        assert again.to_text() == text

    @pytest.mark.parametrize("kind, source, keys", [
        ("fidelity_trace", None, {"row"}),
        ("fidelity_trace", "spin", {"j1x", "j1z", "j2x", "j2z", "delta", "branch"}),
        ("drive_demo", "spin", {"j1x", "j1z", "j2x", "j2z", "delta"}),
        ("circuit_map", "circuit", set(CIRCUIT_NAMES)),
    ])
    def test_model_section_holds_its_sources_keys(self, kind, source, keys):
        """Resolving fills, and emitting writes, only the chosen source's
        keys, and the emitted text loads back to the same configuration."""
        text = f"experiment = {kind}\n"
        if source is not None:
            text += f"[model]\nsource = {source}\n"
        cfg = resolve_config(parse_config_text(text))
        assert set(cfg["model"]) == keys | {"source"}
        emitted = cfg.to_text()
        model_lines = emitted.split("[model]\n")[1].split("[")[0].splitlines()
        assert {line.split(" = ")[0] for line in model_lines} == keys | {"source"}
        assert resolve_config(parse_config_text(emitted)).sections == cfg.sections

    def test_key_of_another_source_names_the_source(self):
        with pytest.raises(ConfigError, match="not read with source = table_row"):
            resolve_config(parse_config_text(
                "experiment = fidelity_trace\n[model]\nj1x = 1\n"))
        with pytest.raises(ConfigError, match="expected one of table_row, circuit"):
            resolve_config(parse_config_text(
                "experiment = circuit_map\n[model]\nsource = spin\n"))

    def test_table_row_reference_resolves_published_circuit(self):
        cfg = default_config("circuit_map")
        record = run_experiment(cfg)
        # row 6 reference resolves to its published circuit values
        from swapgate.circuit_map import table_circuit_params

        assert cfg["model"]["row"] == 6
        assert table_circuit_params(6).e1 == 561.6


class TestRunRecords:
    def test_single_row_csv(self, one_point_record):
        csv = one_point_record.to_csv()
        lines = csv.strip().splitlines()
        assert len(lines) == 2  # header + one sample
        assert lines[0].startswith("j2_mhz,")
        assert "." in lines[1]

    def test_csv_determinism(self, one_point_record):
        cfg = resolve_config(parse_config_text(MINIMAL))
        again = run_experiment(cfg)
        assert again.to_csv() == one_point_record.to_csv()

    def test_json_summary_round_trip(self, one_point_record):
        payload = json.loads(one_point_record.to_json())
        assert payload["version"] == "2"
        assert payload["experiment"] == "scan_j2"
        # the embedded config parses back to the same resolved configuration
        embedded = resolve_config(parse_config_text(payload["config"]))
        assert embedded.sections == one_point_record.config.sections

    def test_emit_refuses_json_path_before_writing(self, one_point_record, tmp_path):
        """Called directly, ``emit`` refuses the summary's suffix, as the
        command does, instead of overwriting the CSV with the summary."""
        with pytest.raises(ConfigError, match=r"x\.json: \.json is the summary's suffix"):
            emit(one_point_record, tmp_path / "x.json")
        assert list(tmp_path.iterdir()) == []

    def test_scan_point_values_sane(self, one_point_record):
        row = dict(zip(one_point_record.columns, one_point_record.rows[0]))
        assert row["fbar_open"] > 0.95
        assert row["fbar_closed"] > 0.97
        assert row["tg_numeric_us"] < row["tg_analytic_us"]


class TestExperiments:
    def test_fidelity_trace(self):
        cfg = resolve_config(parse_config_text(
            "experiment = fidelity_trace\n[grid]\nwindow_hi = 1.05\n"
            "[run]\nsamples = 30\n"
        ))
        rec = run_experiment(cfg)
        assert rec.columns == ("t_us", "fbar", "fbar_noiseless")
        assert len(rec.rows) == 30
        assert rec.summary["peak_fidelity"] > 0.97

    def test_zero_gamma_trace_runs_one_noiseless_trace(self, monkeypatch):
        """With gamma = 0 the noisy trace is the noiseless one: computed once."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return average_fidelity(*args, **kwargs)

        monkeypatch.setattr(swapgate.cli, "average_fidelity", counted)
        rec = run_experiment(resolve_config(parse_config_text(
            "experiment = fidelity_trace\n[noise]\ngamma = 0.0\n"
            "[run]\nsamples = 12\n")))
        assert len(calls) == 1
        assert [r[1] for r in rec.rows] == [r[2] for r in rec.rows]
        assert rec.summary["peak_fidelity"] == rec.summary["peak_fidelity_noiseless"]

    def test_drive_demo_runs(self):
        cfg = resolve_config(parse_config_text(
            "experiment = drive_demo\n[grid]\nn_durations = 4\n"
            "[noise]\ngamma = 0.0\n"
        ))
        rec = run_experiment(cfg)
        assert rec.summary["pi_transfer_probability"] > 0.98
        assert len(rec.rows) == 4

    def test_circuit_map_record(self):
        rec = run_experiment(default_config("circuit_map"))
        assert len(rec.rows) == 1
        row = dict(zip(rec.columns, rec.rows[0]))
        assert row["r23x_mhz"] - row["p23x_mhz"] == pytest.approx(
            2 * row["m23x_mhz"], rel=1e-9
        )

    def test_search_record(self):
        cfg = resolve_config(parse_config_text(
            "experiment = search\n[grid]\nn_restarts = 2\n"
            "max_evaluations = 60\nkeep_all = true\n"
        ))
        rec = run_experiment(cfg)
        assert rec.summary["n_results"] >= 1
        assert "cost" in rec.columns

    def test_n5_trace_runs(self):
        cfg = resolve_config(parse_config_text(
            "experiment = n5_trace\n[run]\nsamples = 20\n[noise]\ngamma = 0.0\n"
        ))
        rec = run_experiment(cfg)
        assert rec.summary["peak_fidelity"] > 0.96
        assert len(rec.rows) == 20

    def test_scan_delta_collapses_at_zero(self):
        cfg = resolve_config(parse_config_text(
            "experiment = scan_delta\n[grid]\npoints = 2\nlo = 450.0\n"
            "hi = 600.0\n[run]\nsamples = 40\n[noise]\ngamma = 0.0\n"
        ))
        rec = run_experiment(cfg)
        rows = [dict(zip(rec.columns, r)) for r in rec.rows]
        on_branch = rows[0]   # j2x = 450, delta = 300
        at_zero = rows[1]     # j2x = 600, delta = 0
        assert on_branch["fbar_open"] > 0.98
        assert at_zero["fbar_open"] < 0.75
        assert rec.summary["delta_values_mhz"] == [300.0, 0.0]

    def test_crosstalk_scan_runs(self):
        cfg = resolve_config(parse_config_text(
            "experiment = crosstalk_scan\n[grid]\nfractions_pct = 0.0, 5.0\n"
            "[run]\nsamples = 40\n[noise]\ngamma = 0.0\n"
        ))
        rec = run_experiment(cfg)
        rows = [dict(zip(rec.columns, r)) for r in rec.rows]
        assert rows[0]["jc_mhz"] == 0.0
        # zero injected coupling reproduces the plain-model open peak
        assert rows[0]["fbar_open_nn"] == pytest.approx(
            rows[0]["fbar_open_nnn"], abs=1e-12
        )
        assert abs(rows[1]["fbar_closed_plus_nn"] - rows[0]["fbar_closed_plus_nn"]) < 5e-3

    @pytest.mark.parametrize("fractions, zero_row", [(None, 0), ("5, 0", 1), ("5", None)],
                             ids=["default", "zero_listed_last", "no_zero"])
    def test_crosstalk_baseline_is_the_row_without_crosstalk(self, fractions, zero_row):
        """``baseline_open`` is the open fidelity of the listed fraction 0,
        wherever it stands, and null when no fraction is 0."""
        grid = "" if fractions is None else f"[grid]\nfractions_pct = {fractions}\n"
        text = f"experiment = crosstalk_scan\n{grid}[run]\nsamples = 20\n[noise]\ngamma = 0.0\n"
        rec = run_experiment(resolve_config(parse_config_text(text)))
        rows = [dict(zip(rec.columns, r)) for r in rec.rows]
        if zero_row is None:
            assert all(row["jc_mhz"] != 0.0 for row in rows)
            assert rec.summary["baseline_open"] is None
        else:
            assert rows[zero_row]["jc_mhz"] == 0.0
            assert rec.summary["baseline_open"] == rows[zero_row]["fbar_open_nn"]

    def test_qutrit_compare_runs(self):
        cfg = resolve_config(parse_config_text(
            "experiment = qutrit_compare\n[model]\nrows = 6\n"
            "[grid]\nconfigs = open\nwindow_hi = 1.05\n[run]\nsamples = 25\n"
        ))
        rec = run_experiment(cfg)
        peaks = rec.summary["peaks"]["row6_open"]
        assert abs(peaks["peak_shift"]) < 0.01
        assert peaks["qubit_peak"] > 0.98

    def test_scan_j1_runs(self):
        cfg = resolve_config(parse_config_text(
            "experiment = scan_j1\n[grid]\npoints = 1\nlo = 30.0\nhi = 30.0\n"
            "j2 = 300.0\n[run]\nsamples = 30\n[noise]\ngamma = 0.0\n"
        ))
        rec = run_experiment(cfg)
        row = dict(zip(rec.columns, rec.rows[0]))
        assert row["fbar_open"] > 0.95


def full_trace_reading(trace, t):
    """A fidelity at ``t`` as read from a trace over the whole window."""
    return float(np.interp(t, trace.times, trace.fbar))


class TestScanReading:
    """Closed and noisy scan cells come from traces sampled only at the two
    window samples bracketing t_num; they must equal the linear
    interpolation of traces over the whole window, each configuration
    evolved on its own."""

    @pytest.mark.parametrize("size", [1, 2, 3, 7])
    def test_bracket_reproduces_full_window_interpolation(self, size):
        """Between samples, on every sample (the last included), and off
        both ends, for windows of one and two samples too."""
        window = np.linspace(1.0, 2.0, size)
        f = np.random.default_rng(size).random(size)
        inside = [0.5 * (a + b) for a, b in zip(window, window[1:])]
        for t in [0.5, 2.5, *window, *inside]:
            pair = swapgate.cli._bracket(window, t)
            assert pair.size == min(size, 2)
            picked = np.searchsorted(window, pair)
            assert np.interp(t, pair, f[picked]) == np.interp(t, window, f)

    @pytest.mark.parametrize("gamma", [0.0, 0.01])
    @pytest.mark.parametrize("samples", [1, 2, 3, 20])
    def test_scan_point_equals_full_trace_reading(self, samples, gamma):
        """One and two samples put t_num on the window's edge (the first or
        last sample); three and twenty refine it between samples."""
        params = symmetric_chain(**ROW6)
        noise = NoiseModel(gamma=gamma) if gamma else None
        got = swapgate.cli._scan_point(params, "plus", noise, samples)

        window = gate_window(params, *OPEN_WINDOW, samples)
        h = build_interaction_hamiltonian(params)
        open_cfg = GateConfig(delta_branch="plus", control_state="open")
        closed_cfg = closed_config_for_branch("plus")

        def trace(cfg, nz):
            return average_fidelity(h, [cfg], nz, window)[0]

        clean = trace(open_cfg, None)
        t_num = clean.peak_time
        if samples < 3:
            assert t_num in window
        closed = full_trace_reading(trace(closed_cfg, None), t_num)
        # without noise the noisy columns repeat the clean ones
        noisy = ([full_trace_reading(trace(c, noise), t_num) for c in (open_cfg, closed_cfg)]
                 if noise else [clean.peak_value, closed])
        want = {"tg_numeric_us": t_num, "fbar_open": clean.peak_value,
                "fbar_open_noisy": noisy[0], "fbar_closed": closed,
                "fbar_closed_noisy": noisy[1]}
        assert got["tg_numeric_us"] == pytest.approx(t_num, rel=1e-12)
        assert max(abs(got[column] - value) for column, value in want.items()) < 1e-12

    @pytest.mark.parametrize("samples", [1, 2, 12])
    def test_crosstalk_cells_equal_full_trace_reading(self, monkeypatch, samples):
        """One propagation per cross-talk Hamiltonian: the open and both
        closed registers together over the window."""
        calls = []
        engine = swapgate.metrics.evolve_stack_raw
        monkeypatch.setattr(swapgate.metrics, "evolve_stack_raw",
                            lambda *args, **kw: calls.append(1) or engine(*args, **kw))
        cfg = resolve_config(parse_config_text(
            "experiment = crosstalk_scan\n[grid]\nfractions_pct = 0.0, 5.0\n"
            f"[run]\nsamples = {samples}\n"))
        rec = run_experiment(cfg)
        assert len(calls) == 2 * 2
        params = swapgate.cli._spin_from_model_section(cfg["model"])[0]
        noise = NoiseModel(gamma=cfg["noise"]["gamma"])
        window = gate_window(params, *OPEN_WINDOW, samples)
        for row in rec.rows:
            jc = row[0]
            want = [jc]
            for j_nnn in (0.0, jc):
                h = add_crosstalk(params, j_nn=jc, j_nnn=j_nnn)
                tr_open, closed_plus, closed_minus = (
                    average_fidelity(h, [GateConfig(delta_branch="plus",
                                                    control_state=state)],
                                     noise, window)[0]
                    for state in ("open", "closed_plus", "closed_minus"))
                t_num = tr_open.peak_time
                want += [tr_open.peak_value, full_trace_reading(closed_plus, t_num),
                         full_trace_reading(closed_minus, t_num)]
            assert np.max(np.abs(np.subtract(row, want))) < 1e-12

    @pytest.mark.parametrize("gamma, calls", [(0.01, 2), (0.0, 1)])
    def test_one_propagation_per_scan_point_and_noise(self, monkeypatch, gamma, calls):
        """A noisy scan point propagates twice: the clean open and closed
        registers over the window, then the noisy pair at the two samples
        bracketing t_num; a clean one once."""
        seen = []
        engine = swapgate.metrics.evolve_stack_raw

        def counted(hamiltonian, collapse, stack, sample_times, functionals=None):
            seen.append((len(sample_times), len(stack), functionals.shape[0]))
            return engine(hamiltonian, collapse, stack, sample_times, functionals)

        monkeypatch.setattr(swapgate.metrics, "evolve_stack_raw", counted)
        params = symmetric_chain(**ROW6)
        noise = NoiseModel(gamma=gamma) if gamma else None
        swapgate.cli._scan_point(params, "plus", noise, 20)
        assert seen == [(20, 32, 2), (2, 32, 2)][:calls]


DEFAULT_CSV = Path(__file__).parent / "data" / "default_csv"


@pytest.mark.parametrize("name, kind", sorted(SUBCOMMANDS.items()))
def test_default_csv_matches_the_recorded_table(name, kind):
    """Each subcommand's CSV at its default config against the table recorded
    in ``tests/data/default_csv``: the same header and row count, equal text
    cells, and numeric cells within 1e-9 relative (room for last-digit
    platform differences; a real change of the outputs is larger)."""
    want = (DEFAULT_CSV / f"{name}.csv").read_text().splitlines()
    record = run_experiment(default_config(kind))
    got = record.to_csv().splitlines()
    assert got[0] == want[0]
    assert len(got) == len(want)
    for line, (got_row, want_row) in enumerate(zip(got[1:], want[1:]), start=2):
        got_cells, want_cells = got_row.split(","), want_row.split(",")
        assert len(got_cells) == len(want_cells), line
        for column, a, b in zip(want[0].split(","), got_cells, want_cells):
            if a != b:
                assert math.isclose(float(a), float(b), rel_tol=1e-9), (line, column, a, b)
    # the record's embedded configuration loads back to the one it ran, and
    # names no output path
    embedded = json.loads(record.to_json())["config"]
    assert resolve_config(parse_config_text(embedded)).sections == record.config.sections
    assert "out = " not in embedded and ".csv" not in embedded


@pytest.mark.parametrize("name", ["circuit-map", "search"])
def test_default_csv_without_integration_is_byte_identical(name, tmp_path):
    """``circuit-map`` and ``search`` use no BLAS and no integration, so the
    CSV the command writes at its default config equals the recorded table
    byte for byte (the other subcommands keep the 1e-9 room above)."""
    out = tmp_path / f"{name}.csv"
    result = run_cli([name, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (DEFAULT_CSV / f"{name}.csv").read_bytes()


class TestCommandLine:
    def test_help_lists_subcommands(self):
        result = run_cli(["--help"])
        assert result.exit_code == 0
        for name in SUBCOMMANDS:
            assert name in result.output

    def test_circuit_map_subcommand_writes_files(self, tmp_path):
        out = tmp_path / "map.csv"
        result = run_cli(["circuit-map", "--out", str(out)])
        assert result.exit_code == 0
        assert out.exists()
        assert out.with_suffix(".json").exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("experiment = scan_j2\n[grid]\nbogus = 1\n")
        result = run_cli(["scan-j2", "--config", str(bad)])
        assert result.exit_code == 2
        assert "bogus" in result.output

    @pytest.mark.parametrize("command, body", [
        ("trace", "[model]\nrow = 99"),
        ("scan-j2", "[grid]\npoints = 0"),
        ("trace", "[run]\nsamples = 0"),
        ("trace", "[noise]\ngamma = nan"),
        ("trace", "[noise]\ngamma = -0.5"),
        ("qutrit", "[model]\nrows = 6, 17"),
        ("trace", "[model]\nsource = bogus"),
        ("trace", "[noise]\nchannels = dephasing, heating"),
        ("trace", "[grid]\nwindow_lo = 1.0\nwindow_hi = 0.5"),
        ("trace", "[grid]\nwindow_lo = 0.5\nwindow_hi = 0.5"),
        ("trace", "[grid]\nwindow_lo = -0.1"),
        ("qutrit", "[grid]\nwindow_hi = 1e-4"),
        ("n5", "[grid]\nwindow_hi = 5e-5"),
        ("drive", "[grid]\namplitude_fraction = 0"),
        ("drive", "[grid]\namplitude_fraction = -0.02"),
        # a zero the experiment divides by: the Eplus/Eminus denominator
        # delta3/2 + 2 j2, and the drive amplitude amplitude_fraction * |j2z|
        ("n5", "[model]\nbranch = Eplus\ndelta3 = -3000"),
        ("n5", "[model]\nbranch = Eminus\ndelta3 = -3000"),
        # a resonant detuning -2 j2^2 / (delta3/2 + 2 j2) + j2 beyond the
        # float range
        ("n5", "[model]\nbranch = Eminus\nj2 = 1e200\ndelta3 = 0"),
        # a denominator of the wrong sign for the branch: Eplus needs it
        # negative (here the defaults, 3000/2 + 2 * 750), Eminus positive
        ("n5", "[model]\nbranch = Eplus"),
        ("n5", "[model]\nbranch = Eminus\ndelta3 = -6000"),
        ("drive", "[model]\nsource = spin\nj2z = 0"),
        # names outside a key's allowed values
        ("n5", "[model]\nbranch = foo"),
        ("search", "[model]\nbranch = foo"),
        ("trace", "[model]\nsource = spin\nbranch = foo"),
        ("trace", "[grid]\ncontrol = foo"),
        ("qutrit", "[grid]\nconfigs = open, foo"),
        ("trace", "[noise]\nchannels = foo"),
        # '[]', a name, where a list needs at least one number or name
        ("crosstalk", "[grid]\nfractions_pct = []"),
        ("qutrit", "[model]\nrows = []"),
        ("qutrit", "[grid]\nconfigs = []"),
        # counts beyond 10,000, which size arrays no run could allocate
        ("trace", "[run]\nsamples = 1000000000000"),
        ("scan-j1", "[grid]\npoints = 1000000000000"),
        ("drive", "[grid]\nn_durations = 1000000000000"),
        ("search", "[grid]\nn_restarts = 1000000000000"),
        ("trace", "[run]\nsamples = 4611686018427387904"),
        ("scan-j1", "[grid]\npoints = 4611686018427387904"),
        ("drive", "[grid]\nn_durations = 4611686018427387904"),
        ("search", "[grid]\nn_restarts = 4611686018427387904"),
    ])
    def test_out_of_range_input_exits_2(self, tmp_path, command, body):
        kind = SUBCOMMANDS[command]
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"experiment = {kind}\n{body}\n")
        result = run_cli(
            [command, "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")]
        )
        assert result.exit_code == 2, result.output
        assert "configuration error" in result.output
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("body", [
        "branch = Eplus\ndelta3 = -6000", "branch = Eminus", "branch = E0\ndelta3 = -6000",
    ])
    def test_n5_branch_of_matching_sign_resolves(self, body):
        """The sign rule refuses only a mismatched denominator: Eplus with
        delta3/2 + 2 j2 < 0, Eminus with it > 0 and E0 with either resolve."""
        resolve_config(parse_config_text(f"experiment = n5_trace\n[model]\n{body}\n"))

    @pytest.mark.parametrize("command, body", [
        ("scan-j2", "[grid]\nj1 = 0"),
        ("scan-delta", "[grid]\nj1 = 0.0"),
        ("scan-j1", "[grid]\nlo = 0"),
        ("scan-j1", "[grid]\nlo = -10\nhi = 10\npoints = 3"),
        ("n5", "[model]\nj1 = 0"),
        ("trace", "[model]\nsource = spin\nj1x = 0"),
        ("crosstalk", "[model]\nsource = spin\nj1x = -0.0"),
    ])
    def test_zero_j1_exits_2(self, tmp_path, command, body):
        """A chain whose gate time pi / |2 J1| the experiment reads, with
        J1 = 0 (at any scan point), is a configuration error, not a
        numerical failure."""
        kind = SUBCOMMANDS[command]
        cfgfile = tmp_path / "zero.cfg"
        cfgfile.write_text(f"experiment = {kind}\n{body}\n[run]\nsamples = 3\n")
        result = run_cli(
            [command, "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")]
        )
        assert result.exit_code == 2, result.output
        assert "leaves the gate time pi / |2 J1| undefined" in result.output

    @pytest.mark.parametrize("body", [
        "[model]\nrows = 6, 6",
        "[grid]\nconfigs = open, open",
        "[model]\nrows = 6, 11, 6\n[grid]\nconfigs = open, closed_plus",
    ])
    def test_repeated_qutrit_entries_exit_2(self, tmp_path, body):
        """A repeated row or configuration would write its CSV block twice
        under one JSON ``peaks`` entry."""
        cfgfile = tmp_path / "twice.cfg"
        cfgfile.write_text(f"experiment = qutrit_compare\n{body}\n[run]\nsamples = 3\n")
        result = run_cli(
            ["qutrit", "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")]
        )
        assert result.exit_code == 2, result.output
        assert "listed twice" in result.output

    @pytest.mark.parametrize("rows, configs", [
        ("6", "closed, closed_plus"),  # row 6 is on the plus branch
        ("11", "closed_minus, open, closed"),  # row 11 on the minus branch
        ("6, 11", "closed_minus, closed"),  # one preparation on row 11 only
    ])
    def test_one_preparation_under_two_names_exits_2(self, tmp_path, rows, configs):
        """``closed`` is the stationary Bell state of the row's branch; next
        to that state's own name it would evolve one preparation twice and
        write two identical blocks and ``peaks`` entries."""
        cfgfile = tmp_path / "alias.cfg"
        cfgfile.write_text(f"experiment = qutrit_compare\n[model]\nrows = {rows}\n"
                           f"[grid]\nconfigs = {configs}\n[run]\nsamples = 3\n")
        result = run_cli(
            ["qutrit", "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")]
        )
        assert result.exit_code == 2, result.output
        assert "listed twice" in result.output

    @pytest.mark.parametrize("rows, configs", [
        ("6", "closed, closed_minus"),
        ("11", "closed, closed_plus"),
    ])
    def test_closed_beside_the_other_branch_state_resolves(self, rows, configs):
        cfg = resolve_config(parse_config_text(
            f"experiment = qutrit_compare\n[model]\nrows = {rows}\n[grid]\nconfigs = {configs}\n"))
        assert cfg["grid"]["configs"] == configs.split(", ")

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_control_names_are_the_register_names(self, branch):
        """``[grid] control`` and ``configs`` name a ``REGISTER_STATES``
        preparation as the library does, or ``closed``, the stationary Bell
        state of the branch."""
        controls = SCHEMAS["fidelity_trace"]["grid"]["control"][2]
        assert SCHEMAS["qutrit_compare"]["grid"]["configs"][2] == controls
        assert controls == ("closed", *REGISTER_STATES)
        for name in controls[1:]:
            assert swapgate.cli._gate_config(name, branch) == GateConfig(branch, name)
        assert (swapgate.cli._gate_config("closed", branch)
                == closed_config_for_branch(branch))

    def test_non_finite_propagation_exits_3(self, tmp_path):
        # a finite but absurd rate overflows the propagator
        cfgfile = tmp_path / "huge.cfg"
        cfgfile.write_text("experiment = fidelity_trace\n[noise]\ngamma = 1e300\n"
                           "[run]\nsamples = 5\n")
        result = run_cli(
            ["trace", "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")]
        )
        assert result.exit_code == 3
        assert "non-finite" in result.output

    @pytest.mark.parametrize("command, body, exit_code, message", [
        # the noiseless generator's entries reach 1.26e308: its energies
        # leave the float range, and the spectral branch refuses the result
        ("trace", "[model]\nsource = spin\nj1x = 1e307\n[run]\nsamples = 5", 3,
         "numerical failure: propagation produced non-finite entries"),
        ("scan-j2", "[grid]\nj1 = 3.85e16\nlo = 3.85e16\nhi = 3.85e17\npoints = 1\n"
         "[run]\nsamples = 1", 3, "numerical failure: average fidelity left [0, 1]"),
        # a finite gate time 2.5e299 us whose window's end overflows to inf
        ("trace", "[model]\nsource = spin\nj1x = 1e-300\n[grid]\nwindow_hi = 1e10\n"
         "[run]\nsamples = 3", 3, "numerical failure: sample times are not finite"),
        # the circuit's positivity rule is CircuitParams', checked on loading
        ("circuit-map", "[model]\nsource = circuit\ne1 = -1", 2,
         "configuration error: [model] e1 must be strictly positive"),
        ("circuit-map", "[model]\nsource = circuit\nc23 = 0", 2,
         "configuration error: [model] c23 must be strictly positive"),
    ], ids=["trace-overflowing-generator", "scan-j2-fidelity-out-of-range",
            "trace-overflowing-window", "circuit-map-negative-e1", "circuit-map-zero-c23"])
    def test_failure_is_one_line_and_no_csv(self, tmp_path, command, body, exit_code,
                                            message):
        """Bad input exits 2 and a numerical failure 3, each with one line on
        stderr, nothing on stdout and no output written."""
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"experiment = {SUBCOMMANDS[command]}\n{body}\n")
        out = tmp_path / "o.csv"
        result = run_cli([command, "--config", str(cfgfile), "--out", str(out)])
        assert result.exit_code == exit_code, result.output
        assert result.stderr.startswith(message)
        assert len(result.stderr.splitlines()) == 1 and result.stdout == ""
        assert not out.exists() and not out.with_suffix(".json").exists()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(raw=in_bounds_raw())
    # a warning of numpy's while building a generator (exit 3, one line)
    @example(raw={"": {"experiment": "scan_j1"}, "grid": {"j2": 1e307, "points": 1},
                  "run": {"samples": 6}})
    @example(raw={"": {"experiment": "qutrit_compare"}, "model": {"rows": [5]},
                  "noise": {"gamma": 1.7e308}, "grid": {"configs": ["closed_minus"]},
                  "run": {"samples": 2}})
    # absolute times once overflowed the peak's parabola fit (exit 0)
    @example(raw={"": {"experiment": "scan_j2"}, "noise": {"gamma": 0.0},
                  "grid": {"j1": 1e-160, "points": 3}, "run": {"samples": 6}})
    # an overflowing noiseless generator, and fidelities outside [0, 1]
    @example(raw={"": {"experiment": "fidelity_trace"},
                  "model": {"source": "spin", "j1x": 1e307}, "run": {"samples": 5}})
    @example(raw={"": {"experiment": "scan_j2"},
                  "grid": {"j1": 3.85e16, "lo": 3.85e16, "hi": 3.85e17, "points": 1},
                  "run": {"samples": 1}})
    @example(raw={"": {"experiment": "n5_trace"}, "model": {"j1": 1.16e16},
                  "grid": {"window_hi": 1.16e16}})
    def test_every_in_bounds_configuration_exits_0_2_or_3(self, raw):
        """Under the suite's warning filter, an in-bounds configuration is
        refused on loading (exit 2), runs (exit 0), or fails with one of the
        errors the command reports as a numerical failure (exit 3); any
        other exception, a numpy warning included, fails the test."""
        try:
            cfg = resolve_config(raw)
        except ConfigError:
            return
        try:
            run_experiment(cfg)
        except swapgate.cli.NUMERICAL_FAILURES:
            pass

    @pytest.mark.parametrize("command, body", [
        ("trace", "[model]\nsource = spin\nj1x = 1e308"),
        ("n5", "[model]\nj1 = 1e308"),
        ("scan-j2", "[grid]\nj1 = 1e308"),
        ("scan-j1", "[grid]\nhi = 1.7976931348623157e+308"),
    ])
    def test_gate_time_that_underflows_exits_3(self, tmp_path, command, body):
        """pi / |2 J1| rounds to zero when |J1| is near the float range: a
        numerical failure, reported without a traceback."""
        kind = SUBCOMMANDS[command]
        cfgfile = tmp_path / "huge.cfg"
        cfgfile.write_text(f"experiment = {kind}\n{body}\n[run]\nsamples = 3\n")
        out = tmp_path / "o.csv"
        result = run_cli([command, "--config", str(cfgfile), "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert "numerical failure: gate time pi / |2 J1| is 0 at J1 = " in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command, body", [
        ("trace", "[model]\nsource = spin\nj1x = 1e-320"),
        ("n5", "[model]\nj1 = 1e-320"),
        ("scan-j2", "[grid]\nj1 = 1e-320"),
        ("scan-j1", "[grid]\nlo = 1e-320"),
    ])
    def test_gate_time_that_overflows_exits_3(self, tmp_path, command, body):
        """pi / |2 J1| overflows to inf when |J1| is subnormal: a numerical
        failure that names the gate time, not the propagation it would
        break."""
        kind = SUBCOMMANDS[command]
        cfgfile = tmp_path / "tiny.cfg"
        cfgfile.write_text(f"experiment = {kind}\n{body}\n[run]\nsamples = 3\n")
        out = tmp_path / "o.csv"
        result = run_cli([command, "--config", str(cfgfile), "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert "numerical failure: gate time pi / |2 J1| is inf at J1 = " in result.output
        assert not out.exists()

    def test_kind_mismatch_is_config_error(self, tmp_path):
        cfgfile = tmp_path / "trace.cfg"
        cfgfile.write_text("experiment = fidelity_trace\n")
        result = run_cli(["scan-j2", "--config", str(cfgfile)])
        assert result.exit_code == 2

    def test_config_seed_lands_in_summary(self, tmp_path):
        cfgfile = tmp_path / "s.cfg"
        cfgfile.write_text("experiment = search\n[grid]\nn_restarts = 2\n"
                           "max_evaluations = 20\n[run]\nseed = 42\n")
        out = tmp_path / "search.csv"
        result = run_cli(["search", "--config", str(cfgfile), "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.with_suffix(".json").read_text())
        assert payload["summary"]["seed"] == 42

    def test_empty_channel_list_exits_2(self, tmp_path):
        """A noiseless run is spelt ``gamma = 0`` alone: ``channels`` names
        at least one channel, so '[]' is refused as a name, and an empty
        list handed to ``resolve_config`` as one."""
        cfgfile = tmp_path / "noise.cfg"
        cfgfile.write_text("experiment = scan_j2\n[noise]\nchannels = []\n")
        out = tmp_path / "o.csv"
        result = run_cli(["scan-j2", "--config", str(cfgfile), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("configuration error: [noise] channels: '[]'")
        assert list(tmp_path.iterdir()) == [cfgfile]
        with pytest.raises(ConfigError, match=r"\[noise\] channels: expected at least one"):
            resolve_config({"": {"experiment": "scan_j2"}, "noise": {"channels": []}})

    @pytest.mark.parametrize("option", ["--out", "--config"])
    def test_empty_path_exits_2(self, tmp_path, monkeypatch, option):
        """An empty ``--out`` is no output path (it once wrote
        ``circuit_map.csv`` to the working directory), and an empty
        ``--config`` no configuration file: both are refused, nothing
        written."""
        monkeypatch.chdir(tmp_path)
        result = run_cli(["circuit-map", option, ""])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("configuration error: ")
        assert result.stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_json_output_path_exits_2(self, tmp_path):
        """A ``.json`` output path would have the summary overwrite the CSV."""
        out = tmp_path / "r.json"
        result = run_cli(["circuit-map", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert ".json" in result.output
        assert not out.exists()

    def test_quoted_name_exits_2_with_its_location(self, tmp_path):
        """A '"' is an ordinary character, so a quoted name is not one of the
        allowed names."""
        cfgfile = tmp_path / "q.cfg"
        cfgfile.write_text('experiment = search\n[model]\nbranch = "plus"\n')
        out = tmp_path / "o.csv"
        result = run_cli(["search", "--config", str(cfgfile), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "[model] branch" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command, kind, refused", [
        ("trace", "fidelity_trace", "unknown key 'out' in section [run]"),
        ("circuit-map", "circuit_map", "unknown section [run]"),
        ("drive", "drive_demo", "unknown section [run]"),
    ])
    def test_output_path_in_the_config_exits_2(self, tmp_path, command, kind, refused):
        """The output path comes from ``--out`` alone: no schema has a
        ``[run] out`` key."""
        cfgfile = tmp_path / "o.cfg"
        cfgfile.write_text(f"experiment = {kind}\n[run]\nout = x.csv\n")
        result = run_cli(
            [command, "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2, result.output
        assert refused in result.stderr
        assert list(tmp_path.iterdir()) == [cfgfile]

    def test_record_embeds_no_output_path(self, tmp_path):
        """The JSON record of a run written with ``--out`` holds the
        configuration it ran, which names no output path."""
        out = tmp_path / "from_flag.csv"
        result = run_cli(["circuit-map", "--out", str(out)])
        assert result.exit_code == 0, result.output
        embedded = json.loads(out.with_suffix(".json").read_text())["config"]
        assert "from_flag" not in embedded and "out = " not in embedded
        assert resolve_config(parse_config_text(embedded)).sections == \
            default_config("circuit_map").sections

    def test_config_path_that_is_a_directory_exits_2(self, tmp_path):
        out = tmp_path / "t.csv"
        result = run_cli(["trace", "--config", str(tmp_path), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "directory" in result.output
        assert not out.exists()

    def test_config_that_is_not_utf8_exits_2(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_bytes(b"experiment = circuit_map\n# caf\xe9\n")
        out = tmp_path / "m.csv"
        result = run_cli(["circuit-map", "--config", str(cfgfile), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "configuration error" in result.output
        assert not out.exists()
        with pytest.raises(ConfigError):
            swapgate.cli.load_config(cfgfile)

    def test_config_with_a_byte_order_mark_reads_as_without(self, tmp_path):
        """A UTF-8 byte-order mark, as some editors write one, is not read
        into the first key (it was: "missing top-level key", exit 2)."""
        text = "experiment = circuit_map\n[model]\nrow = 6\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(text.encode("utf-8-sig"))
        assert swapgate.cli.load_config(marked) == swapgate.cli.load_config(plain)
        out = tmp_path / "m.csv"
        result = run_cli(["circuit-map", "--config", str(marked), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert out.exists()

    @pytest.mark.parametrize("taken, out_name", [
        pytest.param("d.csv/", "d.csv", id="d.csv"),
        pytest.param("d.json/", "d.csv", id="d.json"),
        pytest.param("f", "f/x.csv", id="f/x.csv"),
        pytest.param("f", "f/sub/x.csv", id="f/sub/x.csv"),
        pytest.param("", ".", id="."),
        pytest.param("", "/", id="/"),
    ])
    def test_output_path_that_is_a_directory_exits_2(
        self, tmp_path, monkeypatch, taken, out_name
    ):
        """The CSV path, or the JSON path beside it, is a directory (a
        trailing "/" on ``taken``, or "." and "/", which have no name to
        take the .json suffix), or the path lies below a regular file:
        refused before the run starts, and by ``emit`` itself."""
        monkeypatch.chdir(tmp_path)
        out = Path(out_name)
        blocker = tmp_path / taken.rstrip("/") if taken else None
        if taken.endswith("/"):
            blocker.mkdir()
        elif blocker is not None:
            blocker.write_text("kept")
        record = run_experiment(default_config("circuit_map"))
        runs = []
        monkeypatch.setattr(swapgate.cli, "run_experiment", runs.append)
        result = run_cli(["circuit-map", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "directory" in result.output
        assert runs == []
        with pytest.raises(ConfigError):
            swapgate.cli._check_out_path(out)
        with pytest.raises(ConfigError):
            emit(record, out)
        if blocker is None:
            assert f"output path {out} is a directory" in result.output
            assert list(tmp_path.iterdir()) == []
            return
        assert [p.name for p in tmp_path.iterdir()] == [blocker.name]
        if blocker.is_dir():
            assert list(blocker.iterdir()) == []
        else:
            assert blocker.read_text() == "kept"

    def test_byte_identical_csv_across_invocations(self, tmp_path):
        cfgfile = tmp_path / "m.cfg"
        cfgfile.write_text(MINIMAL)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            result = run_cli(["scan-j2", "--config", str(cfgfile), "--out", str(out)])
            assert result.exit_code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command, kind, body", [
        ("scan-j2", "scan_j2", "[model]\nrow = 11"),
        ("scan-j2", "scan_j2", "[model]\nrow = 11\nsource = spin\nj1x = 1"),
        ("circuit-map", "circuit_map", "[noise]\ngamma = 0.01"),
        ("search", "search", "[run]\nsamples = 5"),
        ("drive", "drive_demo", "[run]\nsamples = 5"),
        ("circuit-map", "circuit_map", "[model]\nsource = spin"),
        # [model] keys of another source than the chosen one
        ("trace", "fidelity_trace", "[model]\nsource = table_row\nj1x = 1"),
        ("trace", "fidelity_trace", "[model]\nbranch = minus"),
        ("trace", "fidelity_trace", "[model]\ne1 = 5"),
        ("trace", "fidelity_trace", "[model]\nsource = spin\nrow = 3"),
        ("crosstalk", "crosstalk_scan", "[model]\nsource = table_row\nbranch = minus"),
        ("drive", "drive_demo", "[model]\nj1x = 1"),
        # the drive never reads a branch
        ("drive", "drive_demo", "[model]\nsource = spin\nbranch = minus"),
        ("circuit-map", "circuit_map", "[model]\ne1 = 5"),
    ])
    def test_key_the_experiment_does_not_read_exits_2(self, tmp_path, command,
                                                       kind, body):
        cfgfile = tmp_path / "unread.cfg"
        cfgfile.write_text(f"experiment = {kind}\n{body}\n")
        out = tmp_path / "o.csv"
        result = run_cli([command, "--config", str(cfgfile), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "configuration error" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["trace", "crosstalk", "drive"])
    def test_gate_experiment_refuses_a_circuit_source(self, tmp_path, command):
        """A circuit reaches the gate experiments only through ``circuit-map``,
        whose couplings run as ``source = spin``."""
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(f"experiment = {SUBCOMMANDS[command]}\n[model]\n"
                           "source = circuit\n")
        out = tmp_path / "o.csv"
        result = run_cli([command, "--config", str(cfgfile), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("configuration error: [model] source: ")
        assert "expected one of table_row, spin" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command, body, atol", [
        ("trace", "[run]\nsamples = 12", 1e-10),
        ("crosstalk", "[grid]\nfractions_pct = 0, 5\n[run]\nsamples = 12", 1e-10),
        ("drive", "[grid]\nn_durations = 3", 1e-7),
    ], ids=["trace", "crosstalk", "drive"])
    def test_mapped_circuit_runs_as_a_spin_source(self, tmp_path, command, body, atol):
        """The couplings ``circuit-map`` writes, passed as ``source = spin``,
        run the chain of ``circuit_to_spin``'s exact couplings, to the 12
        digits of that CSV: the fidelities to 6e-12, and the drive's
        transfer, whose calibrated pulse is off this chain's resonance (the
        pi pulse transfers 0.009), to 1.4e-8."""
        mapped = tmp_path / "map.csv"
        result = run_cli(["circuit-map", "--out", str(mapped)])
        assert result.exit_code == 0, result.output
        header, values = mapped.read_text().splitlines()
        row = dict(zip(header.split(","), values.split(",")))
        spin = circuit_to_spin(table_circuit_params(6))
        head = f"experiment = {SUBCOMMANDS[command]}\n[model]\nsource = spin\n"
        couplings = ("j1x", "j1z", "j2x", "j2z", "delta")
        cfgfile = tmp_path / "spin.cfg"
        cfgfile.write_text(head + "".join(f"{k} = {row[k + '_mhz']}\n" for k in couplings)
                           + body + "\n")
        out = tmp_path / "o.csv"
        result = run_cli([command, "--config", str(cfgfile), "--out", str(out)])
        assert result.exit_code == 0, result.output
        exact = resolve_config(parse_config_text(
            head + "".join(f"{k} = {getattr(spin, k)!r}\n" for k in couplings) + body))
        want = np.array(run_experiment(exact).rows)
        got = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-10, atol=atol)

    @pytest.mark.parametrize("args", [
        ["trace", "--no-noise"], ["search", "--seed", "1"],
        # an option is taken by its full name alone, not by a prefix
        ["circuit-map", "--conf", "m.cfg"], ["circuit-map", "--ou", "m.csv"],
    ])
    def test_setting_flags_are_usage_errors(self, tmp_path, args):
        """The noise rate and the seed are set in the configuration file alone."""
        out = tmp_path / "o.csv"
        result = run_cli([*args, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "unrecognized arguments" in result.output and args[1] in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_every_subcommand_offers_config_and_out_only(self, command):
        """Each value a run reads comes from the configuration file, and the
        output path from ``--out``: no subcommand has another option."""
        result = run_cli([command, "--help"])
        assert result.exit_code == 0
        offered = {word.rstrip(",") for word in result.output.split()
                   if word.startswith("--")}
        assert offered == {"--config", "--out", "--help"}


# reads numpy's bundled OpenBLAS thread count the way ``cli._pin_blas_thread`` sets it
_READ_BLAS_THREADS = (
    "import ctypes\n"
    "from numpy._core import _multiarray_umath\n"
    "threads = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_num_threads64_\n"
    "threads.argtypes, threads.restype = [], ctypes.c_int\n")


def _has_bundled_openblas() -> bool:
    try:
        from numpy._core import _multiarray_umath

        ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_num_threads64_
    except (ImportError, OSError, AttributeError):
        return False
    return True


@pytest.mark.skipif(not _has_bundled_openblas(), reason="numpy has no bundled OpenBLAS")
class TestBlasThreads:
    """The console script runs numpy's OpenBLAS on one thread unless
    ``OPENBLAS_NUM_THREADS`` is set; importing the package changes nothing."""

    @staticmethod
    def threads(code, tmp_path, openblas_num_threads=None):
        """The thread count ``code`` leaves, run in a fresh interpreter with
        ``OPENBLAS_NUM_THREADS`` unset or as given."""
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(swapgate.cli.__file__).resolve().parents[1])
        if openblas_num_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = openblas_num_threads
        out = subprocess.run(
            [sys.executable, "-c", _READ_BLAS_THREADS + code + "print(threads())\n",
             str(tmp_path / "map.csv")],
            env=env, cwd=tmp_path, check=True, capture_output=True, text=True).stdout
        return int(out.splitlines()[-1])

    RUN_MAIN = ("import sys\nfrom swapgate.cli import main\n"
                "main(['circuit-map', '--out', sys.argv[1]])\n")

    def test_main_pins_one_thread(self, tmp_path):
        assert self.threads(self.RUN_MAIN, tmp_path) == 1

    def test_main_keeps_an_explicit_count(self, tmp_path):
        """2, as OpenBLAS reads the variable (capped at the CPUs it may use)."""
        assert self.threads(self.RUN_MAIN, tmp_path, "2") == self.threads("", tmp_path, "2")

    def test_import_changes_nothing(self, tmp_path):
        imported = self.threads("import swapgate, swapgate.cli\n", tmp_path)
        assert imported == self.threads("", tmp_path)


def _readme_block(heading: str) -> str:
    """The first fenced block below ``heading`` in the README, without its
    language tag."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split(heading, 1)[1].split("```")[1].removeprefix("python")


def _readme_config_block() -> str:
    return _readme_block("### Configuration format")


def _docstring_config_block() -> str:
    doc = swapgate.cli.__doc__
    return textwrap.dedent(doc.split("nesting:\n\n", 1)[1].split("\n\n")[0])


@pytest.mark.parametrize("block", [_readme_config_block, _docstring_config_block],
                         ids=["readme", "cli_docstring"])
def test_documented_config_example_resolves(block):
    text = block()
    assert text.count("=") >= 8
    cfg = resolve_config(parse_config_text(text))
    assert cfg["run"]["samples"] == 90 and cfg["grid"]["control"] == "open"
    assert '"' not in text


def test_readme_command_line_lists_every_subcommand():
    """The README's ``## Command line`` block names exactly the subcommands
    of ``EXPERIMENTS``, one a line."""
    lines = _readme_block("## Command line").strip().splitlines()
    assert [line.split()[:1] for line in lines] == [["swapgate"]] * len(lines)
    assert sorted(line.split()[1] for line in lines) == sorted(SUBCOMMANDS)


def test_readme_library_example_runs(capsys):
    """The README's library example runs as printed and finds the row-6 open
    gate's peak inside its window."""
    exec(compile(_readme_block("## Library example"), "README.md", "exec"), {})
    peak_value, peak_ratio = map(float, capsys.readouterr().out.split())
    assert 0.98 < peak_value < 1.0
    assert 0.8 < peak_ratio < 1.05
