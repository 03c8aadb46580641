"""Benchmark of the swapgate simulator: one workload, one client, closed loop.

    python3 perfbench/run.py --workload gate_trace --seed 1 --seconds 20 --trace 0

The workload's experiments (drawn from the seed, see ``workloads.py``) run in
this process through ``swapgate.cli.run_experiment`` and
``swapgate.cli.emit``, one after another, in rounds; a round starts only
if it is expected to end within ``--seconds`` (judged by the round before),
and at least two run.  Every experiment is
checked against the stored reference outputs, and its CSV against the first
round's (identical configurations must give byte-identical CSVs).  An
experiment fails if it raises or misses either check.

With ``--trace 0`` the end-to-end metrics are printed: ``wall_s`` (median
round time), ``setup_s`` (median of several set-ups, each in a fresh
interpreter) and ``peak_rss_mb``.  With ``--trace 1`` rounds alternate
untraced and traced, and the per-layer metrics of ``tracer.py`` are printed
as medians over the traced rounds, after the trace-completeness self-test.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A results file with the environment record is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import ROOT_SPAN, Tracer
from workloads import WORKLOADS, check_outputs, draw, key_outputs, load_reference

# Fixed before numpy is imported, here and in the set-up probes: on a 2-core
# machine one OpenBLAS thread ran the row-6 noisy trace in 2.6 s against
# 3.6 s with the default thread count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
MIN_ROUNDS = 2
# Successive rounds and set-up probes are pinned to the allowed CPUs in turn.
# On a shared 2-vCPU host one vCPU ran the same scan 10-30% slower than the
# other for tens of seconds; left to the scheduler, a run stays on one vCPU
# and its median takes that vCPU's speed.
CPUS = sorted(os.sched_getaffinity(0))


def pin(turn: int) -> None:
    os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})



def import_swapgate():
    """Import swapgate from this checkout's ``src``, and nothing else."""
    if not (SRC / "swapgate" / "__init__.py").is_file():
        raise SystemExit(f"error: no swapgate sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import swapgate.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"error: imported swapgate from {cli.__file__}, not {SRC}")
    return cli


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(workload: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(CPUS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times = []
    for turn in range(SETUP_PROBES):
        pin(turn)  # the probe inherits the pinning
        done = subprocess.run(probe, capture_output=True, text=True, timeout=120,
                              check=True, env=os.environ)
        times.append(float(done.stdout.split()[-1]))
    return times


class Client:
    """Runs rounds of one workload and records failures and timings."""

    def __init__(self, cli, workload: str, experiments, reference):
        self.cli = cli
        self.workload = workload
        self.experiments = experiments
        self.reference = reference
        self.first_csv: dict[int, bytes] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_round(self) -> tuple[float, float]:
        """One pass over the experiments; returns the wall and CPU time spent
        in swapgate (resolving, running and emitting)."""
        cli = self.cli
        wall = cpu = 0.0
        for i, exp in enumerate(self.experiments):
            self.attempted += 1
            try:
                t0, c0 = time.perf_counter(), time.process_time()
                config = cli.resolve_config(cli.parse_config_text(exp.config))
                record = cli.run_experiment(config)
                csv_path, _ = cli.emit(record, OUT / f"{self.workload}_{i}.csv")
                wall += time.perf_counter() - t0
                cpu += time.process_time() - c0
                misses = check_outputs(exp.key, key_outputs(record), self.reference)
                csv = csv_path.read_bytes()
                if csv != self.first_csv.setdefault(i, csv):
                    misses.append(f"{exp.key}: CSV differs from the first round's")
            except Exception:
                misses = [f"{exp.key}: raised\n{traceback.format_exc()}"]
            if misses:
                self.failures.append("; ".join(misses))
        return wall, cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_swapgate()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    env = environment(args.workload, args.seed, args.trace)
    print("environment " + json.dumps(env, sort_keys=True), flush=True)

    setup = measure_setup(args.workload, args.seed) if not args.trace else []
    experiments = draw(args.workload, args.seed)
    print("experiments " + ", ".join(e.key for e in experiments), flush=True)
    OUT.mkdir(exist_ok=True)
    client = Client(cli, args.workload, experiments, load_reference())
    tracer = Tracer()

    plain: list[tuple[float, float]] = []   # (wall, cpu) of untraced rounds
    traced: list[float] = []                # wall of traced rounds
    layers: list[dict] = []
    problems: list[str] = []
    start = time.perf_counter()
    n = 0
    last = 0.0
    while n < MIN_ROUNDS or time.perf_counter() - start + last <= args.seconds:
        n += 1
        pin(n // 2)  # untraced and traced rounds (odd and even n) both alternate
        round_start = time.perf_counter()
        if args.trace and n % 2 == 0:
            tracer.reset()
            with tracer.installed():
                with tracer.span(ROOT_SPAN):
                    wall, _ = client.run_round()
            root = tracer.families[ROOT_SPAN]
            problems += [f"round {n}: {p}" for p in tracer.self_test(root.time)]
            traced.append(wall)
            layers.append(tracer.layer_metrics())
            print(f"round {n} traced wall {wall:.4f} s", flush=True)
        else:
            plain.append(client.run_round())
            print(f"round {n} untraced wall {plain[-1][0]:.4f} s "
                  f"cpu {plain[-1][1]:.4f} s", flush=True)
        last = time.perf_counter() - round_start

    attempted, failed = client.attempted, len(client.failures)
    for failure in client.failures:
        print(f"FAILED {failure}", flush=True)
    for problem in problems:
        print(f"SELF-TEST FAILED {problem}", flush=True)

    if args.trace:
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        for name, value in metrics.items():
            if units.get(name) == "count":  # counts repeat exactly from round to round
                metrics[name] = int(value)
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                         - statistics.median(w for w, _ in plain))
        print(f"self-test {'passed' if not problems else 'FAILED'} "
              f"on {len(traced)} traced rounds", flush=True)
    else:
        metrics = {
            "wall_s": statistics.median(w for w, _ in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"medians over {len(plain)} rounds and {len(setup)} set-ups; set-ups: "
              + " ".join(f"{t:.4f}" for t in setup), flush=True)
    if set(metrics) != set(units):
        raise SystemExit(f"error: measured metrics {sorted(metrics)} "
                         f"!= BENCHMARK.json {sorted(units)}")
    print(f"metric fail_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} experiments)", flush=True)
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]!r} {unit}", flush=True)

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = dict(result, environment=env, experiments=[e.key for e in experiments],
                  untraced_rounds_wall_cpu_s=plain, traced_rounds_wall_s=traced,
                  setup_probes_s=setup,
                  failures=client.failures, self_test_problems=problems,
                  elapsed_s=time.perf_counter() - start)
    path = OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
