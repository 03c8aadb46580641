"""Time one benchmark set-up in a fresh interpreter and print it in seconds.

Set-up is importing numpy, scipy and swapgate and resolving the workload's
configurations.  ``run.py`` starts this script several times per run and
reports the median; it passes the fixed BLAS thread settings in the
environment.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402,F401
import scipy.integrate  # noqa: E402,F401
import scipy.optimize  # noqa: E402,F401
import swapgate.cli as cli  # noqa: E402

from workloads import draw  # noqa: E402

for exp in draw(sys.argv[1], int(sys.argv[2])):
    cli.resolve_config(cli.parse_config_text(exp.config))
print(repr(time.perf_counter() - t0))
