"""Per-layer tracing of swapgate from outside the package.

``Tracer.installed()`` replaces each traced public function by a timing
wrapper at every place it is looked up: every ``swapgate`` module attribute
that holds the function object (so ``swapgate.metrics.evolve_stack_raw``,
``swapgate.cli.average_fidelity`` and ``swapgate.cli.run_search`` are all
covered), plus ``NoiseModel.collapse_operators``.  ``solve_ivp`` (as looked
up by ``swapgate.dynamics``) and the Lindblad RHS ``__call__`` are wrapped to
count evaluations.  On exit the originals are restored.

Each wrapped call is a span with a family name (``dynamics.evolve``,
``metrics.fidelity``, ...).  A family's time is the summed duration of its
outermost spans, so a builder calling a builder is not counted twice; a
span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

ROOT_SPAN = "bench.round"

# (module, attribute, family): functions wrapped wherever a swapgate module
# holds them
FUNCTIONS = (
    ("swapgate.dynamics", "evolve_stack_raw", "dynamics.evolve"),
    ("swapgate.dynamics", "propagate", "dynamics.propagate"),
    ("swapgate.dynamics", "propagate_superoperator", "dynamics.propagate"),
    ("swapgate.metrics", "average_fidelity", "metrics.fidelity"),
    ("swapgate.spin_model", "build_interaction_hamiltonian", "spin_model.build"),
    ("swapgate.spin_model", "build_qutrit_hamiltonian", "spin_model.build"),
    ("swapgate.spin_model", "build_n5_model", "spin_model.build"),
    ("swapgate.spin_model", "add_crosstalk", "spin_model.build"),
    ("swapgate.hilbert", "embed_operators", "hilbert.embed"),
    ("swapgate.hilbert", "embed_site_operator", "hilbert.embed"),
    ("swapgate.hilbert", "sector_indices", "hilbert.sector"),
    ("swapgate.hilbert", "partial_trace", "hilbert.partial_trace"),
    ("swapgate.cli", "run_experiment", "cli.run"),
    ("swapgate.cli", "emit", "cli.emit"),
    ("swapgate.cli", "resolve_config", "cli.resolve"),
    ("swapgate.drive", "rabi_prepare", "drive.rabi"),
    ("swapgate.drive", "calibrated_pi_pulse", "drive.calibrate"),
    ("swapgate.drive", "drive_hamiltonian", "drive.hamiltonian"),
    ("swapgate.circuit_map", "circuit_to_spin", "circuit_map.map"),
    ("swapgate.search", "search", "search.search"),
    ("swapgate.search", "evaluate_cost", "search.cost"),
)

DYNAMICS = frozenset({"dynamics.evolve", "dynamics.propagate", "dynamics.collapse"})
DRIVE = ("drive.rabi", "drive.calibrate", "drive.hamiltonian")


class _Span:
    __slots__ = ("family", "start", "child", "evolve_child")

    def __init__(self, family: str):
        self.family = family
        self.child = 0.0
        self.evolve_child = 0.0
        self.start = time.perf_counter()


class _Family:
    __slots__ = ("calls", "time", "self_time")

    def __init__(self):
        self.calls = 0       # outermost spans of the family
        self.time = 0.0      # summed duration of the outermost spans
        self.self_time = 0.0  # summed self time of all spans


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self):
        self.propagation_error: type | tuple = ()
        self.reset()

    def reset(self) -> None:
        self.stack: list[_Span] = []
        self.families: dict[str, _Family] = defaultdict(_Family)
        self.open_evolve = 0
        self.nfev = 0
        self.rhs_in_evolve = 0
        self.rhs_outside = 0
        self.evolved_samples = 0
        self.max_dim = 0
        self.check_s = 0.0
        self.failures = 0
        self.fidelity_samples = 0
        self.search_results = 0
        self.search_accepted = 0
        self.cost_evals = 0
        self.cost_infeasible = 0

    # -- spans --------------------------------------------------------------

    def open(self, family: str) -> _Span:
        span = _Span(family)
        self.stack.append(span)
        if family == "dynamics.evolve":
            self.open_evolve += 1
        return span

    def close(self, span: _Span, exc: BaseException | None) -> None:
        duration = time.perf_counter() - span.start
        if self.stack.pop() is not span:
            raise RuntimeError(f"span {span.family} closed out of order")
        parent = self.stack[-1] if self.stack else None
        fam = self.families[span.family]
        fam.self_time += duration - span.child
        if parent is None or parent.family != span.family:
            fam.calls += 1
            fam.time += duration
        if parent is not None:
            parent.child += duration
        if span.family == "dynamics.evolve":
            self.open_evolve -= 1
            if parent is not None and parent.family == "dynamics.propagate":
                parent.evolve_child += duration
        elif span.family == "dynamics.propagate":
            self.check_s += duration - span.evolve_child
        if (isinstance(exc, self.propagation_error) and span.family in DYNAMICS
                and (parent is None or parent.family not in DYNAMICS)):
            self.failures += 1

    @contextlib.contextmanager
    def span(self, family: str):
        span = self.open(family)
        try:
            yield
        except BaseException as exc:
            self.close(span, exc)
            raise
        self.close(span, None)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, family: str, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(family)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(span, exc)
                raise
            self.close(span, None)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _hooks(self, dynamics) -> dict[str, object]:
        """Counters taken from the arguments or results of wrapped calls."""
        evolve_sig = inspect.signature(dynamics.evolve_stack_raw)
        fidelity_sig = inspect.signature(importlib.import_module(
            "swapgate.metrics").average_fidelity)

        def after_evolve(args, kwargs, _result):
            bound = evolve_sig.bind(*args, **kwargs).arguments
            self.evolved_samples += len(bound["sample_times"])
            self.max_dim = max(self.max_dim, int(bound["stack"].shape[1]))

        def after_fidelity(args, kwargs, _result):
            self.fidelity_samples += len(fidelity_sig.bind(*args, **kwargs).arguments["times"])

        def after_search(_args, _kwargs, results):
            self.search_results += len(results)
            self.search_accepted += sum(1 for r in results if r.accepted)

        def after_cost(_args, _kwargs, result):
            self.cost_evals += 1
            if result[1] is None:
                self.cost_infeasible += 1

        return {"evolve_stack_raw": after_evolve, "average_fidelity": after_fidelity,
                "search": after_search, "evaluate_cost": after_cost}

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced functions for the duration of the block."""
        dynamics = importlib.import_module("swapgate.dynamics")
        self.propagation_error = dynamics.PropagationError
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "swapgate" or name.startswith("swapgate.")]
        hooks = self._hooks(dynamics)
        restore: list[tuple[object, str, object]] = []

        def replace(owner, attr, value):
            restore.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        def replace_everywhere(original, wrapper):
            sites = [(m, name) for m in modules
                     for name, value in vars(m).items() if value is original]
            for module, name in sites:
                replace(module, name, wrapper)

        try:
            for mod_name, attr, family in FUNCTIONS:
                original = getattr(importlib.import_module(mod_name), attr)
                replace_everywhere(original, self._wrap(original, family, hooks.get(attr)))

            noise_cls = dynamics.NoiseModel
            replace(noise_cls, "collapse_operators",
                    self._wrap(noise_cls.collapse_operators, "dynamics.collapse"))

            solve_ivp = dynamics.solve_ivp

            def counted_solve_ivp(*args, **kwargs):
                sol = solve_ivp(*args, **kwargs)
                self.nfev += int(sol.nfev)
                return sol

            replace_everywhere(solve_ivp, counted_solve_ivp)

            generator = dynamics._LindbladGenerator
            rhs = generator.__call__

            def counted_rhs(gen, t, y):
                if self.open_evolve:
                    self.rhs_in_evolve += 1
                else:
                    self.rhs_outside += 1
                return rhs(gen, t, y)

            replace(generator, "__call__", counted_rhs)
            yield self
        finally:
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def self_test(self, wall: float) -> list[str]:
        """Trace-completeness checks after a round traced under one root span.

        The summed ``nfev`` of every ``solve_ivp`` call must equal the RHS
        evaluations seen inside evolve spans (an evolve site left unwrapped
        would show RHS calls outside them), and the self times of all spans
        must add up to the traced wall time (no span left open or overlapping).
        """
        problems = []
        if self.stack:
            problems.append(f"spans left open: {[s.family for s in self.stack]}")
        if self.nfev != self.rhs_in_evolve or self.rhs_outside:
            problems.append(
                f"solve_ivp nfev {self.nfev} != RHS calls in evolve spans "
                f"{self.rhs_in_evolve} (outside: {self.rhs_outside})")
        total_self = sum(f.self_time for f in self.families.values())
        if abs(total_self - wall) > 1e-6 * wall:
            problems.append(f"span self times sum to {total_self!r} s, traced wall {wall!r} s")
        return problems

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the round, all those in ``BENCHMARK.json``
        except ``trace.overhead_s``, which needs untraced rounds too."""
        f = self.families

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "dynamics.evolve_s": f["dynamics.evolve"].time,
            "dynamics.evolve_calls": f["dynamics.evolve"].calls,
            "dynamics.rhs_evals": self.nfev,
            "dynamics.rhs_per_sample": ratio(self.nfev, self.evolved_samples),
            "dynamics.max_dim": self.max_dim,
            "dynamics.collapse_s": f["dynamics.collapse"].time,
            "dynamics.propagate_s": f["dynamics.propagate"].time,
            "dynamics.check_s": self.check_s,
            "dynamics.failures": self.failures,
            "metrics.fidelity_s": f["metrics.fidelity"].time,
            "metrics.fidelity_calls": f["metrics.fidelity"].calls,
            "metrics.samples": self.fidelity_samples,
            "metrics.reduce_s": f["metrics.fidelity"].self_time,
            "spin_model.build_s": f["spin_model.build"].time,
            "spin_model.build_calls": f["spin_model.build"].calls,
            "hilbert.embed_s": f["hilbert.embed"].time,
            "hilbert.embed_calls": f["hilbert.embed"].calls,
            "hilbert.sector_s": f["hilbert.sector"].time,
            "hilbert.partial_trace_s": f["hilbert.partial_trace"].time,
            "cli.run_s": f["cli.run"].time,
            "cli.self_s": f["cli.run"].self_time,
            "cli.emit_s": f["cli.emit"].time,
            "cli.resolve_s": f["cli.resolve"].time,
            "cli.experiments": f["cli.run"].calls,
            "drive.rabi_s": f["drive.rabi"].time,
            "drive.rabi_calls": f["drive.rabi"].calls,
            "drive.calibrate_s": f["drive.calibrate"].time,
            "drive.self_s": sum(f[name].self_time for name in DRIVE),
            "circuit_map.map_s": f["circuit_map.map"].time,
            "circuit_map.map_calls": f["circuit_map.map"].calls,
            "search.search_s": f["search.search"].time,
            "search.cost_s": f["search.cost"].time,
            "search.cost_evals": self.cost_evals,
            "search.self_s": f["search.search"].self_time,
            "search.accept_ratio": ratio(self.search_accepted, self.search_results),
            "search.infeasible_ratio": ratio(self.cost_infeasible, self.cost_evals),
        }
