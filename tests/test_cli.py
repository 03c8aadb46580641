"""Tests for configuration handling, experiment records, and the CLI."""

import json
import math
import textwrap
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings, strategies as st

import swapgate.cli
from swapgate.circuit_map import CIRCUIT_NAMES
from swapgate.cli import (
    SCHEMAS,
    BySource,
    ConfigError,
    default_config,
    emit,
    main,
    parse_config_text,
    resolve_config,
    run_experiment,
)
from swapgate.dynamics import NoiseModel
from swapgate.metrics import OPEN_WINDOW, average_fidelity, gate_window
from swapgate.spin_model import (
    GateConfig,
    add_crosstalk,
    build_interaction_hamiltonian,
    closed_config_for_branch,
    symmetric_chain,
)


MINIMAL = """\
experiment = scan_j2
[grid]
points = 1
lo = 10.0
hi = 10.0
[run]
samples = 30
"""


def _value_strategy(tag, limits, may_be_empty):
    """Values a resolved configuration can hold for a schema entry: a string
    with allowed values is one of them, and a list is empty only where its
    key may be."""
    if tag.startswith("str") and limits is not None:
        names = st.sampled_from(limits)
        return st.lists(names, min_size=0 if may_be_empty else 1, max_size=4) \
            if tag.endswith("list") else names
    lo, hi = limits or (None, None)
    scalar = {
        "int": st.integers(-10**12 if lo is None else lo, 10**12 if hi is None else hi),
        "float": st.floats(min_value=lo, max_value=hi, allow_nan=False,
                           allow_infinity=False),
        "bool": st.booleans(),
        # any text a single line can hold (str.splitlines breaks at the rest)
        "str": st.text(st.characters(blacklist_categories=("Cs", "Zl", "Zp"),
                                     blacklist_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85"),
                       max_size=12),
    }
    if tag.endswith("list"):
        return st.lists(scalar[tag[:-4]], min_size=0 if may_be_empty else 1, max_size=4)
    return scalar[tag]


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

    def test_quotes_protect_comment_and_list_characters(self):
        raw = parse_config_text(
            'out = "a#b.csv"  # trailing comment\n'
            'name = "x,y", "q\\"uote", plain\n'
            'empty = []\n'
            'text = "[]"\n'
        )[""]
        assert raw["out"] == "a#b.csv"
        assert raw["name"] == ["x,y", 'q"uote', "plain"]
        assert raw["empty"] == []
        assert raw["text"] == "[]"

    @pytest.mark.parametrize("line", ['out = "open', 'out = a"b'])
    def test_malformed_quotes_rejected_with_line(self, line):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("experiment = scan_j2\n" + line + "\n")

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_load_emit_load_is_identity(self, data):
        kind = data.draw(st.sampled_from(sorted(SCHEMAS)))
        raw = {"": {"experiment": kind}}
        for section, keys in SCHEMAS[kind].items():
            raw[section] = {}
            if isinstance(keys, BySource):
                # a source, named or left at the default, and then its keys
                source = data.draw(st.sampled_from(sorted(keys)))
                if source != next(iter(keys)) or data.draw(st.booleans()):
                    raw[section]["source"] = source
                keys = keys[source]
            for key, (tag, _default, *limits) in keys.items():
                if data.draw(st.booleans()):
                    value = _value_strategy(tag, limits[0] if limits else None,
                                            key in swapgate.cli._MAY_BE_EMPTY)
                    raw[section][key] = data.draw(value)
        try:
            cfg = resolve_config(raw)
        except ConfigError as exc:
            # every draw lies within its key's bounds, so only a cross-key
            # rule (ORDER_RULES), a repeated item of a distinct list or a
            # zero J1 can reject; that input resolves to nothing
            assert any(rule in str(exc)
                       for rule in ("must exceed", "listed twice", "gate time"))
            assume(False)
        text = cfg.to_text()
        again = resolve_config(parse_config_text(text))
        assert again.sections == cfg.sections
        assert again.to_text() == text

    @pytest.mark.parametrize("kind, source, keys", [
        ("fidelity_trace", None, {"row"}),
        ("fidelity_trace", "spin", {"j1x", "j1z", "j2x", "j2z", "delta", "branch"}),
        ("crosstalk_scan", "circuit", set(CIRCUIT_NAMES) | {"branch"}),
        ("drive_demo", "spin", {"j1x", "j1z", "j2x", "j2z", "delta"}),
        ("drive_demo", "circuit", set(CIRCUIT_NAMES)),
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
        assert payload["version"] == "1"
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

    def test_no_noise_flag_matches_zero_gamma(self, tmp_path):
        cfgfile = tmp_path / "t.cfg"
        cfgfile.write_text("experiment = fidelity_trace\n[run]\nsamples = 12\n")
        out = tmp_path / "t.csv"
        result = CliRunner().invoke(
            main, ["trace", "--no-noise", "--config", str(cfgfile), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        fbar, clean = rows[:, 1], rows[:, 2]
        assert np.allclose(fbar, clean)

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


ROW6 = dict(j1x=40.9, j1z=40.9, j2x=-540.4, j2z=1007.1, delta=933.4)


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
        params = symmetric_chain(**ROW6, detuning_choice="plus")
        noise = NoiseModel(gamma=gamma) if gamma else None
        got = swapgate.cli._scan_point(params, "plus", noise, samples)

        window = gate_window(params, *OPEN_WINDOW, samples)
        h = build_interaction_hamiltonian(params)
        open_cfg = GateConfig(delta_branch="plus", control_state="open_0")
        closed_cfg = closed_config_for_branch("plus")

        def trace(cfg, nz):
            return average_fidelity(params, [cfg], nz, window, hamiltonian=h)[0]

        clean = trace(open_cfg, None)
        t_num = clean.peak_time
        if samples < 3:
            assert t_num in window
        closed = full_trace_reading(trace(closed_cfg, None), t_num)
        # without noise the noisy columns repeat the clean ones
        noisy = ([full_trace_reading(trace(c, noise), t_num) for c in (open_cfg, closed_cfg)]
                 if noise else [clean.peak_value, closed])
        want = (t_num, clean.peak_value, noisy[0], closed, noisy[1])
        assert got[1] == pytest.approx(t_num, rel=1e-12)
        assert np.max(np.abs(np.subtract(got[1:6], want))) < 1e-12

    @pytest.mark.parametrize("samples", [1, 2, 12])
    def test_crosstalk_cells_equal_full_trace_reading(self, monkeypatch, samples):
        """Two propagations per cross-talk Hamiltonian: the open register
        over the window, both closed ones at the samples bracketing t_num."""
        calls = []
        engine = swapgate.metrics.evolve_stack_raw
        monkeypatch.setattr(swapgate.metrics, "evolve_stack_raw",
                            lambda *args, **kw: calls.append(1) or engine(*args, **kw))
        cfg = resolve_config(parse_config_text(
            "experiment = crosstalk_scan\n[grid]\nfractions_pct = 0.0, 5.0\n"
            f"[run]\nsamples = {samples}\n"))
        rec = run_experiment(cfg)
        assert len(calls) == 2 * 2 * 2
        params = swapgate.cli._spin_from_model_section(cfg["model"])[0]
        noise = NoiseModel(gamma=cfg["noise"]["gamma"])
        window = gate_window(params, *OPEN_WINDOW, samples)
        for row in rec.rows:
            jc = row[0]
            want = [jc]
            for j_nnn in (0.0, jc):
                h = add_crosstalk(params, j_nn=jc, j_nnn=j_nnn)
                tr_open, closed_plus, closed_minus = (
                    average_fidelity(params, [GateConfig(delta_branch="plus",
                                                         control_state=state)],
                                     noise, window, hamiltonian=h)[0]
                    for state in ("open_0", "closed_1plus", "closed_1minus"))
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
        params = symmetric_chain(**ROW6, detuning_choice="plus")
        noise = NoiseModel(gamma=gamma) if gamma else None
        swapgate.cli._scan_point(params, "plus", noise, 20)
        assert seen == [(20, 32, 2), (2, 32, 2)][:calls]


DEFAULT_CSV = Path(__file__).parent / "data" / "default_csv"


@pytest.mark.parametrize("name, kind", sorted(swapgate.cli._SUBCOMMANDS.items()))
def test_default_csv_matches_the_recorded_table(name, kind):
    """Each subcommand's CSV at its default config against the table recorded
    in ``tests/data/default_csv``: the same header and row count, equal text
    cells, and numeric cells within 1e-9 relative (room for last-digit
    platform differences; a real change of the outputs is larger)."""
    want = (DEFAULT_CSV / f"{name}.csv").read_text().splitlines()
    got = run_experiment(default_config(kind)).to_csv().splitlines()
    assert got[0] == want[0]
    assert len(got) == len(want)
    for line, (got_row, want_row) in enumerate(zip(got[1:], want[1:]), start=2):
        got_cells, want_cells = got_row.split(","), want_row.split(",")
        assert len(got_cells) == len(want_cells), line
        for column, a, b in zip(want[0].split(","), got_cells, want_cells):
            if a != b:
                assert math.isclose(float(a), float(b), rel_tol=1e-9), (line, column, a, b)


@pytest.mark.parametrize("name", ["circuit-map", "search"])
def test_default_csv_without_integration_is_byte_identical(name, tmp_path):
    """``circuit-map`` and ``search`` use no BLAS and no integration, so the
    CSV the command writes at its default config equals the recorded table
    byte for byte (the other subcommands keep the 1e-9 room above)."""
    out = tmp_path / f"{name}.csv"
    result = CliRunner().invoke(main, [name, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (DEFAULT_CSV / f"{name}.csv").read_bytes()


class TestCommandLine:
    def test_help_lists_subcommands(self):
        runner = CliRunner()
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for name in ("trace", "scan-j2", "qutrit", "crosstalk", "n5",
                     "drive", "circuit-map", "search"):
            assert name in result.output

    def test_circuit_map_subcommand_writes_files(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "map.csv"
        result = runner.invoke(main, ["circuit-map", "--out", str(out)])
        assert result.exit_code == 0
        assert out.exists()
        assert out.with_suffix(".json").exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("experiment = scan_j2\n[grid]\nbogus = 1\n")
        runner = CliRunner()
        result = runner.invoke(main, ["scan-j2", "--config", str(bad)])
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
        # names outside a key's allowed values
        ("n5", "[model]\nbranch = foo"),
        ("search", "[model]\nbranch = foo"),
        ("trace", "[model]\nsource = spin\nbranch = foo"),
        ("crosstalk", "[model]\nsource = circuit\nbranch = foo"),
        ("trace", "[grid]\ncontrol = foo"),
        ("qutrit", "[grid]\nconfigs = open, foo"),
        ("trace", "[noise]\nchannels = foo"),
        # lists that need at least one item
        ("crosstalk", "[grid]\nfractions_pct = []"),
        ("qutrit", "[model]\nrows = []"),
        ("qutrit", "[grid]\nconfigs = []"),
    ])
    def test_out_of_range_input_exits_2(self, tmp_path, command, body):
        kind = swapgate.cli._SUBCOMMANDS[command]
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"experiment = {kind}\n{body}\n")
        result = CliRunner().invoke(
            main, [command, "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")]
        )
        assert result.exit_code == 2, result.output
        assert "configuration error" in result.output

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
        kind = swapgate.cli._SUBCOMMANDS[command]
        cfgfile = tmp_path / "zero.cfg"
        cfgfile.write_text(f"experiment = {kind}\n{body}\n[run]\nsamples = 3\n")
        result = CliRunner().invoke(
            main, [command, "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")]
        )
        assert result.exit_code == 2, result.output
        assert "leaves the gate time pi / |2 J1| undefined" in result.output

    @given(lo=st.floats(-1e3, 1e3), hi=st.floats(-1e3, 1e3),
           points=st.integers(1, 2000))
    @settings(max_examples=300, deadline=None)
    def test_zero_scan_point_found_without_forming_the_axis(self, lo, hi, points):
        """The J1 scan's zero check agrees with the axis the scan forms."""
        assert swapgate.cli._linspace_holds_zero(lo, hi, points) == bool(
            np.any(np.linspace(lo, hi, points) == 0.0))

    @pytest.mark.parametrize("lo, hi, points, zero", [
        (-10.0, 10.0, 2, False), (-10.0, 10.0, 3, True), (-1.0, 2.0, 4, True),
        (-0.25, 0.75, 5, True), (-0.3, 0.7, 11, False), (5.0, 0.0, 2, True),
        (0.0, 0.0, 1, True), (1e300, -1e300, 3, True), (-1e308, 1.7e308, 10**12, False),
    ])
    def test_zero_scan_point_cases(self, lo, hi, points, zero):
        assert swapgate.cli._linspace_holds_zero(lo, hi, points) is zero

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
        result = CliRunner().invoke(
            main, ["qutrit", "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")]
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
        result = CliRunner().invoke(
            main, ["qutrit", "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")]
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

    def test_non_finite_propagation_exits_3(self, tmp_path):
        # a finite but absurd rate overflows the propagator
        cfgfile = tmp_path / "huge.cfg"
        cfgfile.write_text("experiment = fidelity_trace\n[noise]\ngamma = 1e300\n"
                           "[run]\nsamples = 5\n")
        result = CliRunner().invoke(
            main, ["trace", "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")]
        )
        assert result.exit_code == 3
        assert "non-finite" in result.output

    def test_kind_mismatch_is_config_error(self, tmp_path):
        cfgfile = tmp_path / "trace.cfg"
        cfgfile.write_text("experiment = fidelity_trace\n")
        runner = CliRunner()
        result = runner.invoke(main, ["scan-j2", "--config", str(cfgfile)])
        assert result.exit_code == 2

    def test_seed_override_lands_in_summary(self, tmp_path):
        cfgfile = tmp_path / "s.cfg"
        cfgfile.write_text("experiment = search\n[grid]\nn_restarts = 2\n"
                           "max_evaluations = 20\n")
        out = tmp_path / "search.csv"
        runner = CliRunner()
        result = runner.invoke(
            main, ["search", "--config", str(cfgfile), "--out", str(out),
                   "--seed", "42"],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(out.with_suffix(".json").read_text())
        assert payload["summary"]["seed"] == 42

    @pytest.mark.parametrize("command, seed", [("trace", "3"), ("search", "-1")])
    def test_rejected_seed_exits_2(self, tmp_path, command, seed):
        """Only ``search`` has ``--seed``, and the override keeps the
        schema's ``seed >= 0``."""
        out = tmp_path / "o.csv"
        result = CliRunner().invoke(main, [command, "--seed", seed, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "--seed" in result.output
        assert not out.exists()

    def test_empty_channel_list_means_no_channel(self):
        cfg = resolve_config(parse_config_text(
            "experiment = fidelity_trace\n[noise]\nchannels = []\n"))
        assert cfg["noise"]["channels"] == []

    @pytest.mark.parametrize("where", ["option", "config"])
    def test_json_output_path_exits_2(self, tmp_path, where):
        """A ``.json`` output path would have the summary overwrite the CSV."""
        out = tmp_path / "r.json"
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("experiment = circuit_map\n"
                           + (f'[run]\nout = "{out}"\n' if where == "config" else ""))
        args = ["circuit-map", "--config", str(cfgfile)]
        if where == "option":
            args += ["--out", str(out)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert ".json" in result.output
        assert not out.exists()

    def test_config_path_that_is_a_directory_exits_2(self, tmp_path):
        out = tmp_path / "t.csv"
        result = CliRunner().invoke(
            main, ["trace", "--config", str(tmp_path), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "directory" in result.output
        assert not out.exists()

    def test_config_that_is_not_utf8_exits_2(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_bytes(b"experiment = circuit_map\n# caf\xe9\n")
        out = tmp_path / "m.csv"
        result = CliRunner().invoke(
            main, ["circuit-map", "--config", str(cfgfile), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "configuration error" in result.output
        assert not out.exists()
        with pytest.raises(ConfigError):
            swapgate.cli.load_config(cfgfile)

    @pytest.mark.parametrize("taken, out_name", [
        pytest.param("d.csv/", "d.csv", id="d.csv"),
        pytest.param("d.json/", "d.csv", id="d.json"),
        pytest.param("f", "f/x.csv", id="f/x.csv"),
        pytest.param("f", "f/sub/x.csv", id="f/sub/x.csv"),
    ])
    def test_output_path_that_is_a_directory_exits_2(
        self, tmp_path, monkeypatch, taken, out_name
    ):
        """The CSV path, or the JSON path beside it, is a directory (a
        trailing "/" on ``taken``), or the path lies below a regular file:
        refused before the run starts, and by ``emit`` itself."""
        out = tmp_path / out_name
        blocker = tmp_path / taken.rstrip("/")
        if taken.endswith("/"):
            blocker.mkdir()
        else:
            blocker.write_text("kept")
        record = run_experiment(default_config("circuit_map"))
        runs = []
        monkeypatch.setattr(swapgate.cli, "run_experiment", runs.append)
        result = CliRunner().invoke(main, ["circuit-map", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "directory" in result.output
        assert runs == []
        with pytest.raises(ConfigError):
            emit(record, out)
        assert [p.name for p in tmp_path.iterdir()] == [blocker.name]
        if blocker.is_dir():
            assert list(blocker.iterdir()) == []
        else:
            assert blocker.read_text() == "kept"

    def test_byte_identical_csv_across_invocations(self, tmp_path):
        cfgfile = tmp_path / "m.cfg"
        cfgfile.write_text(MINIMAL)
        runner = CliRunner()
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            result = runner.invoke(
                main, ["scan-j2", "--config", str(cfgfile), "--out", str(out)]
            )
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
        ("trace", "fidelity_trace", "[model]\nsource = circuit\nj1x = 1"),
        ("crosstalk", "crosstalk_scan", "[model]\nsource = table_row\nbranch = minus"),
        ("drive", "drive_demo", "[model]\nj1x = 1"),
        # the drive never reads a branch
        ("drive", "drive_demo", "[model]\nsource = spin\nbranch = minus"),
        ("drive", "drive_demo", "[model]\nsource = circuit\nbranch = minus"),
        ("circuit-map", "circuit_map", "[model]\ne1 = 5"),
    ])
    def test_key_the_experiment_does_not_read_exits_2(self, tmp_path, command,
                                                       kind, body):
        cfgfile = tmp_path / "unread.cfg"
        cfgfile.write_text(f"experiment = {kind}\n{body}\n")
        out = tmp_path / "o.csv"
        result = CliRunner().invoke(
            main, [command, "--config", str(cfgfile), "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert "configuration error" in result.output
        assert not out.exists()

    def test_no_noise_flag_is_zero_gamma_in_the_record(self, tmp_path):
        body = "experiment = fidelity_trace\n[run]\nsamples = 8\n"
        flagged = tmp_path / "flag.cfg"
        flagged.write_text(body)
        zero = tmp_path / "zero.cfg"
        zero.write_text(body + "[noise]\ngamma = 0.0\n")
        runner = CliRunner()
        for args, out in ((["--config", str(flagged), "--no-noise"], "flag.csv"),
                          (["--config", str(zero)], "zero.csv")):
            result = runner.invoke(main, ["trace", *args, "--out", str(tmp_path / out)])
            assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "flag.json").read_text())
        embedded = resolve_config(parse_config_text(payload["config"]))
        assert embedded["noise"]["gamma"] == 0.0
        assert (tmp_path / "flag.csv").read_bytes() == (tmp_path / "zero.csv").read_bytes()

    @pytest.mark.parametrize("command", ["circuit-map", "search"])
    def test_no_noise_flag_rejected_without_noise_section(self, tmp_path, command):
        out = tmp_path / "o.csv"
        result = CliRunner().invoke(main, [command, "--no-noise", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "--no-noise" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command, kind", sorted(swapgate.cli._SUBCOMMANDS.items()))
    def test_flags_offered_exactly_with_their_keys(self, command, kind):
        """``--no-noise`` where there is a ``[noise]`` section, and ``--seed``
        where there is a ``[run] seed``: only ``search`` draws random numbers."""
        result = CliRunner().invoke(main, [command, "--help"])
        assert result.exit_code == 0
        assert ("--no-noise" in result.output) == ("noise" in SCHEMAS[kind])
        assert ("seed" in SCHEMAS[kind]["run"]) == (kind == "search")
        assert ("--seed" in result.output) == (kind == "search")


def _readme_config_block() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("### Configuration format", 1)[1].split("```")[1]


def _docstring_config_block() -> str:
    doc = swapgate.cli.__doc__
    return textwrap.dedent(doc.split("nesting:\n\n", 1)[1].split("\n\n")[0])


@pytest.mark.parametrize("block", [_readme_config_block, _docstring_config_block],
                         ids=["readme", "cli_docstring"])
def test_documented_config_example_resolves(block):
    text = block()
    assert text.count("=") >= 8
    cfg = resolve_config(parse_config_text(text))
    assert cfg["run"]["out"].endswith("#1.csv")
