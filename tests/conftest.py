import os

# timings and bit-identity claims depend on how many threads BLAS uses
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PARTSSL_WORKERS")


def pytest_report_header(config):
    return "threads: " + ", ".join("%s=%s" % (k, os.environ.get(k, "unset"))
                                   for k in _THREAD_VARS)
