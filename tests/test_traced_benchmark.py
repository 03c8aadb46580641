"""The benchmark's harness against the package: the per-layer tracer's
smoke test and every alternative's reference outputs.

``perfbench/tracer.py`` looks up package functions by name and binds some
of their parameters by name; a refactor that renames or drops one breaks
``perfbench/run.py --trace 1`` without failing any other test.  This runs one
small run of every experiment under the tracer, the way ``run.py`` does,
and requires a complete trace.  A benchmark run checks only the
alternatives its seed draws, so every alternative is checked here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import swapgate.cli as cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


def _load_workloads():
    """``perfbench/workloads.py``, loaded by path; it uses only the standard
    library, and is registered while it runs, as its dataclass needs."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


workloads = _load_workloads()

EXPERIMENTS = {
    "fidelity_trace": "experiment = fidelity_trace\n[run]\nsamples = 5\n",
    "qutrit_compare": (
        "experiment = qutrit_compare\n[model]\nrows = 6\n"
        "[grid]\nconfigs = open\n[run]\nsamples = 5\n"
    ),
    "drive_demo": "experiment = drive_demo\n[grid]\nn_durations = 1\n",
    # noisy by default: the block-by-block Liouvillian path of param_scan
    "scan_j2": "experiment = scan_j2\n[grid]\npoints = 2\n[run]\nsamples = 5\n",
    "scan_j1": "experiment = scan_j1\n[grid]\npoints = 2\n[run]\nsamples = 5\n",
    "scan_delta": "experiment = scan_delta\n[grid]\npoints = 2\n[run]\nsamples = 5\n",
    "crosstalk_scan": (
        "experiment = crosstalk_scan\n[grid]\nfractions_pct = 0, 5\n[run]\nsamples = 5\n"
    ),
    "n5_trace": "experiment = n5_trace\n[run]\nsamples = 5\n",
    "circuit_map": "experiment = circuit_map\n",
    "search": (
        "experiment = search\n[grid]\nn_restarts = 1\nmax_evaluations = 20\n"
    ),
}


def test_every_experiment_is_covered():
    assert EXPERIMENTS.keys() == cli.EXPERIMENTS.keys()


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


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


@pytest.mark.parametrize("exp", workloads.all_experiments(), ids=lambda exp: exp.key)
def test_benchmark_alternative_matches_the_reference(reference, exp):
    """Each alternative of every workload against the stored reference
    outputs, with the benchmark's own tolerances and known-red readings
    (``workloads.check_outputs``)."""
    record = cli.run_experiment(cli.resolve_config(cli.parse_config_text(exp.config)))
    assert workloads.check_outputs(exp.key, workloads.key_outputs(record), reference) == []
