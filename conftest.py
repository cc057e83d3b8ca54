"""Test-session settings shared by every test directory.

One BLAS/OpenMP thread, as the benchmark runs: the coercivity quotients move
with the thread count, and the inverse-trace probe runs several times slower
with default threads on a shared VM.  Set here, before any test module
imports numpy, so that a plain ``python -m pytest`` runs the suite as CI does;
a value already in the environment wins.
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
