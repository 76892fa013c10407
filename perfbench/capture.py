"""Write the reference outputs the ``count`` workload checks compare to.

Run from the repository root, only at a commit whose output is trusted:

    python3 perfbench/capture.py

It writes the figure tables as the CLI prints them and pins the spin-1/2
counts of every box the ``count`` workload can be given, for any seed.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import procs
import workloads as wl

ROOT = Path.cwd()
SCRATCH = ROOT / ".perfbench" / "capture"


def cli_output(args, tag: str) -> bytes:
    out, err = SCRATCH / f"{tag}.out", SCRATCH / f"{tag}.err"
    done = procs.run(procs.relbox_argv(args), procs.child_env(ROOT), ROOT, out, err,
                     timeout=600.0)
    if done.returncode != 0:
        sys.exit(f"relbox {' '.join(args)} failed:\n{err.read_text()}")
    return out.read_bytes()


def dirac_counts(dim: int, boxes, tmax: float) -> dict[str, int]:
    def one(item):
        index, lengths = item
        text = cli_output(("count", "--dim", str(dim), "--model", "dirac",
                           "--lengths", wl.lengths_arg(lengths), "--tmax", f"{tmax:g}"),
                          f"count{dim}-{index}")
        return wl.lengths_arg(lengths), int(text.decode().splitlines()[-1].split(",")[-1])

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(pool.map(one, enumerate(boxes)))


def main() -> None:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, args in wl.FIGURE_OPS:
        (wl.REFERENCE_DIR / name).write_bytes(cli_output(args, name))
    noncubic = [(1.0, a, b) for a in wl.NONCUBIC_L2 for b in wl.NONCUBIC_L3]
    pinned = {
        "cubic": dirac_counts(3, [(1.0, 1.0, 1.0)], wl.CUBIC_TMAX),
        "noncubic": dirac_counts(3, noncubic, wl.NONCUBIC_TMAX),
        "dim1": dirac_counts(1, [(lc,) for lc in wl.COUNT_1D_LCS], wl.COUNT_1D_TMAX),
    }
    path = wl.REFERENCE_DIR / "pinned_counts.json"
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(wl.FIGURE_OPS)} figure tables and {path.name}")


if __name__ == "__main__":
    main()
