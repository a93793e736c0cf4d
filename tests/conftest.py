"""Pins BLAS pools to one thread before numpy loads anywhere in the suite.

Results must not depend on threading, and single-threaded kernels make
every floating-point reduction deterministic, so reports can be compared
byte for byte.
"""

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

from hypothesis import settings  # imported after the pins, like everything in the suite

# A failing property prints the blob that replays it with @reproduce_failure;
# example counts, seeds and deadlines stay as each test sets them.
settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")
