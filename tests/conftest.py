"""Pin BLAS to one thread before numpy loads.

The solvers make many small LAPACK calls, which a multi-threaded OpenBLAS
slows down when the host is busy. A thread count already set in the
environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
