import os

# The tests' dense eigvalsh references run faster on one BLAS thread than
# with OpenBLAS's workers competing with the test process; src/slet itself
# calls no LAPACK. Set before numpy loads, and only where unset.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
