"""The worker process: imports qdeform once, then runs commands one by one.

Each repetition of a workload runs in a fresh worker, a new Python
process started by run.py as

    python3 qbench/worker.py READ_FD WRITE_FD SRC_DIR BLAS_THREADS TRACED KERNEL

so nothing one repetition caches reaches the next.  Messages go over the
two inherited pipe descriptors, pickled by
``multiprocessing.connection.Connection``.

The worker pins the BLAS/OpenMP thread count in its environment before
numpy is imported, times its own set-up (importing ``qdeform.cli`` with
numpy, then ``config.load_config``), and runs each argv it receives
through the public entry point ``qdeform.cli.main(argv)``, replying with
the result before it takes the next one.
"""

from __future__ import annotations

import gc
import io
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from multiprocessing.connection import Connection
from typing import Callable

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the fraction kernel's polynomials have CAL_TERMS^2 terms each
CAL_TERMS = 6
# the eigh kernel's matrix is CAL_DIM x CAL_DIM
CAL_DIM = 160
# calibration kernel runs right after set-up; the fastest one is reported
SETUP_CALIBRATIONS = 3


def _environment(numpy) -> dict:
    try:
        openblas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": openblas,
        "nproc": os.cpu_count(),
    }


# Calibration kernels: fixed pieces of work of the program's own kinds,
# which no change to the program can touch (see README.md).


def fraction_kernel(numpy) -> Callable[[], object]:
    """Pure Python: the product of two polynomials with ``Fraction``
    coefficients kept in dicts (about 3.5 ms at best).  ``numpy`` is
    unused; every kernel factory takes it."""

    def kernel():
        a = {(i, j): Fraction(i + 1, j + 2) for i in range(CAL_TERMS) for j in range(CAL_TERMS)}
        product: dict = {}
        for (i, j), x in a.items():
            for (k, m), y in a.items():
                key = (i + k, j + m)
                product[key] = product.get(key, 0) + x * y
        return product

    return kernel


def eigh_kernel(numpy) -> Callable[[], object]:
    """LAPACK through numpy: the eigendecomposition of a fixed symmetric
    CAL_DIM x CAL_DIM matrix (about 2.1 ms at best with one thread).  It
    holds on to the original ``numpy.linalg.eigh``, so a traced worker
    does not count it."""
    eigh = numpy.linalg.eigh
    matrix = numpy.fromfunction(lambda i, j: numpy.cos(i * j + i + j), (CAL_DIM, CAL_DIM))
    return lambda: eigh(matrix)


KERNELS = {"fraction": fraction_kernel, "eigh": eigh_kernel}


def timed(kernel: Callable[[], object]) -> float:
    """Seconds one run of ``kernel`` takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def _run(cli, kernel, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr, traceback or None, seconds, calibration
    seconds just before) of one command."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    calibration = timed(kernel)
    # start each command with no garbage left by the previous one, as in a
    # fresh CLI process
    gc.collect()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - any escape is a failed command
            code = None
            error = traceback.format_exc()
    seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), error, seconds, calibration


def serve(
    requests, conn, src_dir: str, blas_threads: int, traced: bool, kernel_name: str
) -> None:
    """Set up and report; run each argv received; on ``None`` send the
    repetition's summary and exit.  End of file on ``requests`` (the
    client has gone) ends the worker too."""
    for var in THREAD_VARS:
        os.environ[var] = str(blas_threads)
    os.environ.pop("QDEFORM_CONFIG", None)
    sys.path.insert(0, src_dir)

    start = time.perf_counter()
    import numpy

    import qdeform.cli as cli_module
    from qdeform import config

    imported = time.perf_counter() - start
    kernel = KERNELS[kernel_name](numpy)  # before any eigh is wrapped
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    start = time.perf_counter()
    config.load_config(None)
    setup_s = imported + time.perf_counter() - start
    conn.send({
        "setup_s": setup_s,
        "calibration_s": min(timed(kernel) for _ in range(SETUP_CALIBRATIONS)),
        "environment": _environment(numpy),
    })

    while (argv := requests.recv()) is not None:
        conn.send(_run(cli_module, kernel, list(argv)))
        if tracer is not None:
            tracer.take_weyl_bits()
    summary = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        summary["spans"] = tracer.spans
        summary["counts"] = dict(tracer.counts)
    conn.send(summary)


def main(argv: list[str]) -> int:
    read_fd, write_fd, src_dir, blas_threads, traced, kernel_name = argv
    requests = Connection(int(read_fd), readable=True, writable=False)
    conn = Connection(int(write_fd), readable=False, writable=True)
    try:
        serve(requests, conn, src_dir, int(blas_threads), traced == "1", kernel_name)
    except (EOFError, BrokenPipeError):
        return 1
    finally:
        requests.close()
        conn.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
