"""Test-session setup that must run before numpy is imported."""

import os

# One OpenBLAS thread per GEMM, as CI runs the suite: the oracle's two draw
# lanes are its only parallelism. An explicit OPENBLAS_NUM_THREADS still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
