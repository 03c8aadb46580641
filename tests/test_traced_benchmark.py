"""Smoke test of the per-layer benchmark tracer against the package.

``perfbench/tracer.py`` looks up package functions by name and binds some
of their parameters by name; a refactor that renames or drops one breaks
``perfbench/run.py --trace 1`` without failing any other test.  This runs one
small experiment per family under the tracer, the way ``run.py`` does, and
requires a complete trace.
"""

import importlib.util
from pathlib import Path

import pytest

import swapgate.cli as cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

EXPERIMENTS = {
    "fidelity_trace": "experiment = fidelity_trace\n[run]\nsamples = 5\n",
    "qutrit_compare": (
        "experiment = qutrit_compare\n[model]\nrows = 6\n"
        "[grid]\nconfigs = open\n[run]\nsamples = 5\n"
    ),
    "drive_demo": "experiment = drive_demo\n[grid]\nn_durations = 1\n",
    # noisy by default: the block-by-block Liouvillian path of param_scan
    "scan_j2": "experiment = scan_j2\n[grid]\npoints = 2\n[run]\nsamples = 5\n",
    "circuit_map": "experiment = circuit_map\n",
    "search": (
        "experiment = search\n[grid]\nn_restarts = 1\nmax_evaluations = 20\n"
    ),
}


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind", sorted(EXPERIMENTS))
def test_traced_experiment_is_complete(tracer_module, kind):
    tracer = tracer_module.Tracer()
    with tracer.installed():
        with tracer.span(tracer_module.ROOT_SPAN):
            config = cli.resolve_config(cli.parse_config_text(EXPERIMENTS[kind]))
            # through the module attribute, which the tracer replaces
            cli.run_experiment(config)
    wall = tracer.families[tracer_module.ROOT_SPAN].time
    assert tracer.self_test(wall) == []
    assert tracer.layer_metrics()["cli.experiments"] == 1
