"""The ``relbox`` process: ``python -m relbox`` and the ``relbox`` console
script both run ``run``."""

import os
import sys

from .cli import _unwritten, main


def run() -> None:
    """Run ``cli.main`` on ``sys.argv[1:]``, flush stdout and stderr, and end
    the process by ``os._exit``, without interpreter teardown: ``atexit``
    handlers do not run.

    The exit code is the one CPython gives the ``SystemExit`` that ``main``
    raises: 0 for None, an int as it is, 1 for any other value, which is
    printed on stderr.  Output that cannot be flushed exits 1, as inside
    ``main``, after a success; after a failure it keeps that failure's code
    and error line, so output that ``main`` could not write is reported
    once.  Any other exception propagates, so its traceback prints and
    teardown runs.  OpenBLAS starts with one thread unless
    ``OPENBLAS_NUM_THREADS`` is set: no command makes a BLAS call.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        main()
        code = 0
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
        if not isinstance(code, int):
            sys.stderr.write(f"{code}\n")
            code = 1
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        code = code or _unwritten(exc)
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
