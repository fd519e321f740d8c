"""One BLAS/OpenMP thread for every test process, as the benchmark runs
(perfbench/run.py): a threaded OpenBLAS made the first extension solve in
a process several times slower.  A root conftest loads before numpy is
imported, which is when these variables are read; a value already set in
the environment is kept."""

import os

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
