"""Child-process helpers shared by the benchmark scripts (standard library only)."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# One BLAS/OpenMP thread in every child: importing numpy/scipy otherwise
# starts worker threads whose spinning inflates CPU time on a small machine.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def child_env(root: Path) -> dict[str, str]:
    """Environment that imports relbox from ``root/src`` and nothing else."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass(frozen=True)
class Finished:
    wall_s: float
    cpu_s: float
    max_rss_mb: float
    returncode: int


def run(argv: list[str], env: dict, cwd: Path, stdout: Path, stderr: Path,
        timeout: float) -> Finished:
    """Run ``argv`` to completion with output in files; rusage from wait4.

    The child is killed after ``timeout`` seconds and then reports a
    negative return code.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        max_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        returncode=proc.returncode,
    )


def relbox_argv(args) -> list[str]:
    return [sys.executable, "-m", "relbox", *args]
