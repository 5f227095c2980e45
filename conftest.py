"""Test-session setup shared by ``tests/`` and ``perfbench/tests/``.

The suite's dense work is many small eigensolves (at most 256 x 256) and
matrix-vector products.  A threaded BLAS gains nothing on matrices this
small, and on a host whose other processes keep the cores busy its spinning
worker threads turn each such eigensolve from milliseconds into seconds, so
the timed acceptance criteria measured the host's load instead of the code.
The test session therefore defaults every BLAS backend to one thread, as the
benchmark harness does for its child processes.  The defaults only take
effect if numpy has not been loaded yet, and an explicit setting in the
environment wins.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

if "numpy" in sys.modules:  # pragma: no cover - depends on installed plugins
    import warnings

    warnings.warn("numpy was imported before conftest.py; BLAS thread defaults not applied")
