"""Test-session set-up, loaded by pytest before any test module imports numpy.

Every matrix the suite builds is at most 256 wide, so OpenBLAS threads cost
more in handoff than they save: pin one thread unless the caller chose a
count (an explicit ``OPENBLAS_NUM_THREADS``, as CI sets it, wins).  OpenBLAS
reads the variable once, when numpy loads it (and scipy, which the tests
import as an oracle, its own copy), which is why this sits in a conftest
and not in a fixture.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
