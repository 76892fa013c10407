"""Workload definitions and output checks for the relbox benchmark.

A workload is a fixed list of ``relbox`` CLI invocations (operations).  Each
operation carries a check that judges the bytes the command wrote to stdout;
a failed check counts as a failed operation.  Everything here is standard
library only, so the checks stay independent of the package under test.

Why these workloads:

* ``count`` -- the paper's comparison-figure tables and the README count
  (byte-compared with files captured at the commit that defined the
  benchmark), then large cumulative state counts (cubic, non-cubic and 1D,
  including the near-pole L_C = 0.1 box).  Mostly root solves and process
  start-up, so it shows solver, enumeration and import-time gains.  The
  figure tables are not a workload of their own: being almost all process
  start-up, their time swung with the host's speed far more than the bound.
* ``fields`` -- large eigenstate samples in 3D (CSV) and 1D (JSON).  Never
  touches the root solvers, so it is the bypass workload for solver changes,
  and the only one where memory matters.

Seed 0 gives the inputs named above.  Other seeds vary only the non-cubic
box lengths in ``count`` (a grid whose spin-1/2 counts are pinned) and the
quantum numbers in ``fields``, inside ranges that keep the amount of work
the same, so a claim can be rechecked on an unseen seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

WORKLOADS = ("count", "fields")

# Figure tables: (reference file name, CLI arguments).
FIGURE_OPS = (
    ("spectrum_dim1.csv", ("spectrum", "--dim", "1", "--model", "all",
                           "--lc", "1,10,100,300", "--levels", "4")),
    ("spectrum_dim1.json", ("spectrum", "--dim", "1", "--model", "all",
                            "--lc", "1,10,100,300", "--levels", "4",
                            "--format", "json")),
    ("spectrum_dim3.csv", ("spectrum", "--dim", "3", "--model", "all",
                           "--lc", "1,10,100,300", "--levels", "4")),
    ("spectrum_dim3.json", ("spectrum", "--dim", "3", "--model", "all",
                            "--lc", "1,10,100,300", "--levels", "4",
                            "--format", "json")),
    ("count_dim3_lc0.5.csv", ("count", "--dim", "3", "--lc", "0.5", "--tmax", "25")),
)

# Non-cubic count box: (1, L2, L3).  The ranges are narrow enough that the
# enumeration scans the same lattice for every choice, so the work per seed
# stays the same; every grid point has its spin-1/2 count pinned.
NONCUBIC_L2 = (1.08, 1.09, 1.1, 1.11, 1.12)
NONCUBIC_L3 = (1.18, 1.19, 1.2, 1.21, 1.22)
NONCUBIC_TMAX = 20.0
CUBIC_TMAX = 100.0
COUNT_1D_LCS = (0.1, 1000.0)
COUNT_1D_TMAX = 50.0

FIELD_GRID_3D = 41
FIELD_GRID_1D = 100_001
FIELD_N_3D_RANGE = (1, 3)
FIELD_N_1D_RANGE = (1, 10)

# Counts are compared with lattice counts whose energy cutoff is widened and
# narrowed by this relative margin, so a lattice point sitting on the cutoff
# to rounding cannot flip the verdict.
CUTOFF_REL_MARGIN = 1e-9

# Field values must match the closed form to this fraction of their scale.
FIELD_REL_TOL = 1e-9
NORMALIZATION_TOL = 1e-6
# The finite-difference stationarity residual loses about eps * |psi| / h^2
# to rounding (measured: under 2x that); this many times it is allowed.
STENCIL_ROUNDING_FACTOR = 16


@dataclass(frozen=True)
class Op:
    """One relbox CLI invocation and the check its stdout must pass."""

    args: tuple[str, ...]
    check: Callable[[bytes], str | None]  # None when correct, else the reason
    points: int = 0  # grid points a field command samples

    def failure(self, out: bytes, error: str | None = None) -> str | None:
        """None if the command ran (``error`` is None) and ``out`` passes the
        check; otherwise a one-line description of the failed operation."""
        if error is None:
            try:
                error = self.check(out)
            except Exception as exc:  # malformed output fails the check
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        return None if error is None else f"relbox {' '.join(self.args)}: {error}"


@dataclass(frozen=True)
class Inputs:
    noncubic_lengths: tuple[float, float, float]
    field_n_3d: tuple[int, int, int]
    field_n_1d: int


def inputs_for_seed(seed: int) -> Inputs:
    if seed == 0:
        return Inputs((1.0, 1.1, 1.2), (1, 1, 2), 3)
    rng = random.Random(seed)
    lengths = (1.0, rng.choice(NONCUBIC_L2), rng.choice(NONCUBIC_L3))
    n3 = tuple(rng.randint(*FIELD_N_3D_RANGE) for _ in range(3))
    return Inputs(lengths, n3, rng.randint(*FIELD_N_1D_RANGE))


def lengths_arg(lengths) -> str:
    return ",".join(f"{v:g}" for v in lengths)


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one pass of ``workload`` for ``seed``."""
    inputs = inputs_for_seed(seed)
    if workload == "count":
        pinned = json.loads((REFERENCE_DIR / "pinned_counts.json").read_text())
        lengths = inputs.noncubic_lengths
        figures = [Op(args, _bytes_check(REFERENCE_DIR / name)) for name, args in FIGURE_OPS]
        return figures + [
            Op(("count", "--dim", "3", "--model", "all", "--lc", "1",
                "--tmax", f"{CUBIC_TMAX:g}"),
               _count_check([(m, (1.0,) * 3) for m in ("kg", "dirac", "nonrel")],
                            CUBIC_TMAX, pinned["cubic"])),
            Op(("count", "--dim", "3", "--model", "dirac",
                "--lengths", lengths_arg(lengths), "--tmax", f"{NONCUBIC_TMAX:g}"),
               _count_check([("dirac", lengths)], NONCUBIC_TMAX, pinned["noncubic"])),
            Op(("count", "--dim", "1", "--model", "all",
                "--lc", lengths_arg(COUNT_1D_LCS), "--tmax", f"{COUNT_1D_TMAX:g}"),
               _count_check([(m, (lc,)) for m in ("kg", "dirac", "nonrel")
                             for lc in COUNT_1D_LCS],
                            COUNT_1D_TMAX, pinned["dim1"])),
        ]
    if workload == "fields":
        n3, n1 = inputs.field_n_3d, inputs.field_n_1d
        return [
            Op(("field", "--dim", "3", "--n", ",".join(map(str, n3)), "--lc", "1",
                "--grid", str(FIELD_GRID_3D)),
               _field_check(n3, 1.0, FIELD_GRID_3D, "csv"),
               points=FIELD_GRID_3D**3),
            Op(("field", "--dim", "1", "--n", str(n1), "--lc", "1",
                "--grid", str(FIELD_GRID_1D), "--format", "json"),
               _field_check((n1,), 1.0, FIELD_GRID_1D, "json"),
               points=FIELD_GRID_1D),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# -- figure tables ----------------------------------------------------------

def _bytes_check(reference: Path):
    expected = reference.read_bytes()

    def check(out: bytes) -> str | None:
        if out == expected:
            return None
        return f"output differs from {reference.name} ({len(out)} vs {len(expected)} bytes)"

    return check


# -- counts -----------------------------------------------------------------

def lattice_count(lengths, x2max: float, shift: float = 0.0) -> int:
    """Index tuples n_i >= 1 with sum(((n_i - shift) pi / L_i)^2) <= x2max.

    Plain exhaustive enumeration: shift 0 gives the spin-0 wavenumbers
    n pi / L, shift 1/2 the lower edges of the spin-1/2 root branches.
    """

    def rest(axis: int, budget: float) -> int:
        if axis == len(lengths):
            return 1
        total, n = 0, 1
        while True:
            k = (n - shift) * math.pi / lengths[axis]
            left = budget - k * k
            if left < 0.0:
                return total
            total += rest(axis + 1, left)
            n += 1

    return rest(0, x2max)


def _count_band(lengths, x2max: float, shift: float) -> tuple[int, int]:
    return (lattice_count(lengths, x2max * (1.0 - CUTOFF_REL_MARGIN), shift),
            lattice_count(lengths, x2max * (1.0 + CUTOFF_REL_MARGIN), shift))


def expected_count_range(model: str, lengths, tmax: float) -> tuple[int, int]:
    """Inclusive range the count of ``model`` must fall in."""
    if model == "nonrel":
        return _count_band(lengths, 2.0 * tmax, 0.0)
    x2max = tmax * (tmax + 2.0)
    lo, hi = _count_band(lengths, x2max, 0.0)
    if model == "kg":
        if len(lengths) == 1:
            closed = math.floor(lengths[0] * math.sqrt(x2max) / math.pi)
            lo, hi = max(lo, closed), min(hi, closed)
        return lo, hi
    # Spin-1/2 roots lie inside ((n - 1/2) pi / L, n pi / L) on every axis.
    return lo, _count_band(lengths, x2max, 0.5)[1]


def _count_check(rows, tmax: float, pinned: dict):
    """Rows are (model, lengths) in the order the CLI prints them."""
    expected = []
    for model, lengths in rows:
        lo, hi = expected_count_range(model, lengths, tmax)
        exact = pinned.get(lengths_arg(lengths)) if model == "dirac" else None
        expected.append((model, lengths, lo, hi, exact))

    def check(out: bytes) -> str | None:
        lines = [l for l in out.decode().splitlines() if l and not l.startswith("#")]
        if not lines or lines[0] != "model,dim,lc,tmax,count":
            return "missing count header"
        got = [line.split(",") for line in lines[1:]]
        if len(got) != len(expected):
            return f"{len(got)} count rows, expected {len(expected)}"
        for cells, (model, lengths, lo, hi, exact) in zip(got, expected):
            count = int(cells[-1])
            where = f"{model} lengths={lengths}"
            if cells[0] != model:
                return f"row model {cells[0]!r}, expected {model!r}"
            if not lo <= count <= hi:
                return f"{where}: count {count} outside lattice range [{lo}, {hi}]"
            if model == "dirac" and count != exact:
                return f"{where}: count {count}, pinned {exact}"
        return None

    return check


# -- fields -----------------------------------------------------------------

def _closed_form(n, lengths):
    """(wavenumbers, prefactor, phi0, chi0) of the positive-energy box state."""
    xs = [k * math.pi / length for k, length in zip(n, lengths)]
    eps = math.sqrt(math.fsum(x * x for x in xs) + 1.0)
    root = 2.0 * math.sqrt(eps)
    pref = math.sqrt(2.0 ** len(n) / math.prod(lengths))
    return xs, pref, (eps + 1.0) / root, (1.0 - eps) / root


def _stationarity_residual(xs, steps, grid, pref, phi0, chi0):
    """Closed-form value and tolerance of the 3-point-stencil residual.

    On a uniform grid the stencil maps a product of sines to itself with
    eigenvalue sum(4 / h^2 sin^2(x h / 2)) instead of |x|^2, so the largest
    interior residual of H psi = E psi is half the eigenvalue gap times the
    largest interior |upper + lower|.
    """
    gap = math.fsum(4.0 / h / h * math.sin(x * h / 2.0) ** 2 - x * x
                    for x, h in zip(xs, steps))
    peak = math.prod(max(abs(math.sin(x * k * h)) for k in range(1, grid - 1))
                     for x, h in zip(xs, steps))
    expected = 0.5 * abs(gap) * pref * abs(phi0 + chi0) * peak
    scale = pref * max(abs(phi0), abs(chi0), abs(phi0 + chi0))
    energy = math.sqrt(math.fsum(x * x for x in xs) + 1.0)
    rounding = STENCIL_ROUNDING_FACTOR * 2.0**-52 * scale * (
        math.fsum(1.0 / h / h for h in steps) + energy)
    return expected, FIELD_REL_TOL * expected + rounding


def _field_check(n, lc: float, grid: int, fmt: str):
    dim = len(n)
    lengths = (lc,) * dim
    xs, pref, phi0, chi0 = _closed_form(n, lengths)
    names = ("x", "y", "z")[:dim]
    columns = [*names, "t", "re_phi", "im_phi", "re_chi", "im_chi", "rho",
               *(f"j_{a}" for a in names)]
    amp_tol = FIELD_REL_TOL * pref * max(abs(phi0), abs(chi0))
    rho_tol = FIELD_REL_TOL * pref * pref * max(phi0 * phi0, chi0 * chi0)
    steps = [length / (grid - 1) for length in lengths]
    resid_expected, resid_tol = _stationarity_residual(xs, steps, grid, pref, phi0, chi0)

    def check_rows(rows) -> str | None:
        if len(rows) != grid**dim:
            return f"{len(rows)} rows, expected {grid ** dim}"
        for index, row in enumerate(rows):
            pos = row[:dim]
            k = index
            for axis in reversed(range(dim)):  # C order: last axis fastest
                k, i = divmod(k, grid)
                if abs(pos[axis] - i * steps[axis]) > 1e-12 * lengths[axis]:
                    return f"row {index}: coordinate {pos[axis]} off the grid"
            profile = math.prod(math.sin(x * r) for x, r in zip(xs, pos))
            upper, lower = pref * phi0 * profile, pref * chi0 * profile
            t, re_phi, im_phi, re_chi, im_chi, rho = row[dim:dim + 6]
            if (t != 0.0 or abs(re_phi - upper) > amp_tol or abs(im_phi) > amp_tol
                    or abs(re_chi - lower) > amp_tol or abs(im_chi) > amp_tol
                    or abs(rho - (upper * upper - lower * lower)) > rho_tol
                    or any(abs(j) > amp_tol for j in row[dim + 6:])):
                return f"row {index} at {pos} differs from the closed form"
        return None

    def check_summary(summary: dict) -> str | None:
        norm = float(summary["normalization"])
        if not abs(norm - 1.0) <= NORMALIZATION_TOL:
            return f"normalization {norm}, expected 1"
        current = float(summary["max_abs_current"])
        if current != 0.0:
            return f"max_abs_current {current}, expected 0"
        resid = float(summary["stationarity_residual"])
        if not abs(resid - resid_expected) <= resid_tol:
            return f"stationarity_residual {resid}, expected {resid_expected:.6g}"
        return None

    def check(out: bytes) -> str | None:
        if fmt == "json":
            payload = json.loads(out)
            rows = [[row[c] for c in columns] for row in payload["rows"]]
            return check_summary(payload["summary"]) or check_rows(rows)
        lines = out.decode().splitlines()
        body = [l for l in lines if not l.startswith("#")]
        summary = dict(l[2:].partition("=")[::2] for l in lines if l.startswith("# "))
        if not body or body[0].split(",") != columns:
            return "unexpected field header"
        rows = [[float(v) for v in line.split(",")] for line in body[1:]]
        return check_summary(summary) or check_rows(rows)

    return check
