"""Command-line front end: spectrum tables, state counting, field sampling.

Three subcommands (``spectrum``, ``count``, ``field``) emit deterministic
CSV or JSON.  Floats are serialized with 17 significant digits so repeated
runs are byte-identical and values survive a parse round trip.  Exit codes:
0 success, 2 bad usage, 3 solver failure, 4 capacity exceeded (for
``count``: a 3D spin-1/2 solve needed beyond the lattice bound, or a 1D count
beyond float64 resolution; for ``spectrum`` and ``count``: a kinetic energy
beyond the float64 range; for ``field``: a grid too large for memory).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

from . import __version__
from .core import BoxSpec, QuantumNumbers
from .errors import BracketError, CapacityError, ConvergenceError
from .spectra import MODELS, count_states, spectrum_table

__all__ = ["cli", "main", "annotate_units"]

# Compton wavelengths used for presentation only (values as commonly quoted
# to three figures): electron in angstrom, charged pion in femtometre.
ELECTRON_LAMBDA_C_ANGSTROM = 3.86e-3
PION_LAMBDA_C_FM = 1.41

_PRESET_COLUMNS = {
    "electron": ("box_angstrom", ELECTRON_LAMBDA_C_ANGSTROM),
    "pion": ("box_fm", PION_LAMBDA_C_FM),
}


def annotate_units(table: dict, preset: str) -> dict:
    """Append a physical box-length column to a column table for the chosen
    particle preset.

    ``electron`` adds ``box_angstrom`` (= lc * 3.86e-3), ``pion`` adds
    ``box_fm`` (= lc * 1.41), per axis where an ``lc`` cell lists the box
    lengths; ``none`` returns the table unchanged.  The kinetic column stays
    in units of the particle's rest energy.
    """
    if preset in (None, "none"):
        return table
    if preset not in _PRESET_COLUMNS:
        raise ValueError(f"unknown preset {preset!r}")
    column, lam = _PRESET_COLUMNS[preset]
    physical = [
        [v * lam for v in lc] if isinstance(lc, list) else lc * lam for lc in table["lc"]
    ]
    return {**table, column: physical}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        nested = any(isinstance(item, (list, tuple)) for item in value)
        return ("|" if nested else ";").join(map(_fmt, value))
    return str(value)


def _json(value, level: int = 0) -> str:
    """``value`` as ``json.dumps(..., indent=2)`` writes it ``level`` levels deep."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * level)


def _column(values, fmt: str) -> tuple[str, list | None]:
    """One table column as a printf conversion and the values it formats.

    Plain floats become one ``%.17g`` (CSV) or ``%r`` (JSON, which writes
    floats by ``repr``) conversion and plain ints one ``%d``; a float64
    array whose every value has the same bits is formatted once, into a
    literal.  Any other column is formatted cell by cell into ``%s``.
    Arrays are told apart by their ``dtype``, so that only ``field``, the
    one command that makes them, loads numpy.
    """
    cell = _fmt if fmt == "csv" else lambda v: _json(v, 3)
    if hasattr(values, "dtype"):
        import numpy as np

        if fmt == "csv" or np.isfinite(values).all():
            bits = values.view(np.int64)
            if (bits == bits[0]).all():
                return cell(float(values[0])).replace("%", "%%"), None
            return ("%.17g" if fmt == "csv" else "%r"), values.tolist()
        values = values.tolist()
    kinds = set(map(type, values))
    if kinds == {float} and (fmt == "csv" or all(map(math.isfinite, values))):
        return ("%.17g" if fmt == "csv" else "%r"), values
    if kinds == {int}:
        return "%d", values
    return "%s", [cell(v) for v in values]


def _format_rows(table: dict, nrows: int, fmt: str) -> str:
    """All rows of ``table`` through one printf row template, as the CSV body
    or as the items of the JSON ``rows`` list."""
    specs, cells = zip(*(_column(values, fmt) for values in table.values()))
    flat = tuple(itertools.chain.from_iterable(zip(*(c for c in cells if c is not None))))
    if fmt == "csv":
        return "\n".join([",".join(specs)] * nrows) % flat
    items = ",\n".join(
        f"      {_json(name).replace('%', '%%')}: {spec}" for name, spec in zip(table, specs)
    )
    return ",\n".join(["    {\n" + items + "\n    }"] * nrows) % flat


def _render(table: dict, config, summary, fmt: str) -> str:
    """A column table (name -> column, all of one length) with its config
    and summary: in JSON exactly as ``json.dumps(payload, indent=2)`` writes
    the payload, in CSV ``#`` summary lines, the header and ``_fmt`` cells."""
    nrows = len(next(iter(table.values()), ()))
    if fmt == "json":
        rows = "[\n" + _format_rows(table, nrows, fmt) + "\n  ]" if nrows else "[]"
        return (
            f'{{\n  "config": {_json(config, 1)},\n  "rows": {rows},\n'
            f'  "summary": {_json(summary, 1)}\n}}\n'
        )
    lines = [f"# {key}={_fmt(value)}" for key, value in (summary or {}).items()]
    if nrows:
        lines.append(",".join(table))
        lines.append(_format_rows(table, nrows, fmt))
    return "\n".join(lines) + "\n"


def _emit(table: dict, config, summary, args) -> None:
    text = _render(table, config, summary, args.fmt)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _fail(code: int, message: str):
    sys.stderr.write(f"error: {message}\n")
    sys.exit(code)


def _floats(text: str) -> tuple[float, ...]:
    try:
        items = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated float list")
    if not all(0.0 < v < math.inf for v in items):
        raise argparse.ArgumentTypeError("entries must be positive finite numbers")
    return items


def _ints(text: str) -> tuple[int, ...]:
    try:
        items = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated integer list")
    if min(items) < 1:
        raise argparse.ArgumentTypeError("entries must be integers >= 1")
    return items


def _expand_models(model: str) -> list[str]:
    return list(MODELS) if model == "all" else [model]


def _boxes(args, dim: int, lc) -> list:
    """(lc cell, BoxSpec) pairs; lc ascending when given as a list.

    ``dim`` and ``lc`` are the command's defaults for an unset ``--dim`` and
    ``--lc``; they are filled into ``args``, whose values the config echoes.
    """
    if args.lc is not None and args.lengths is not None:
        args.error("Set only one of '--lc' and '--lengths'.")
    args.dim = args.dim or dim
    if args.lengths is not None:
        if len(args.lengths) != args.dim:
            args.error(f"Invalid value for '--lengths': need {args.dim} values "
                       f"for --dim {args.dim}.")
        cell = list(args.lengths) if args.dim == 3 else args.lengths[0]
        return [(cell, BoxSpec(args.lengths))]
    args.lc = args.lc or lc
    if args.lc is None:
        args.error("One of '--lc' and '--lengths' is required.")
    return [(v, BoxSpec.cube(v, dim=args.dim)) for v in sorted(set(args.lc))]


def _run_guarded(fn):
    try:
        return fn()
    except CapacityError as exc:
        bound = f" (lattice bound {exc.lattice_max})" if exc.lattice_max else ""
        _fail(4, f"{exc}{bound}")
    except (ConvergenceError, BracketError) as exc:
        _fail(3, str(exc))


def _spectrum(args) -> None:
    """Tabulate energy levels: the data behind the comparison figures.

    Emits one row per (model, box, level) ordered by model (kg, dirac,
    nonrel), box size ascending, kinetic energy ascending.  The nonrel
    model appears only at the largest box size, as a reference limit.
    """
    levels, tmax = args.levels, args.tmax
    if levels is not None and tmax is not None:
        args.error("Set only one of '--levels' and '--tmax'.")
    if levels is None and tmax is None:
        levels = 4
    if levels is not None and levels < 1:
        args.error("Invalid value for '--levels': must be >= 1.")
    if tmax is not None and not (tmax > 0.0):
        args.error("Invalid value for '--tmax': must be > 0.")
    boxes = _boxes(args, dim=1, lc=(1.0, 10.0, 100.0, 300.0))
    models = _expand_models(args.model)
    table = _run_guarded(
        lambda: spectrum_table(models, boxes, levels, tmax, args.spin_counting)
    )
    table = annotate_units(table, args.preset)
    config = {
        "command": "spectrum",
        "dim": args.dim,
        "model": args.model,
        "lc": None if args.lengths is not None else sorted(set(args.lc)),
        "lengths": list(args.lengths) if args.lengths is not None else None,
        "levels": levels,
        "tmax": tmax,
        "spin_counting": args.spin_counting,
        "preset": args.preset,
        "kinetic_units": "mc^2",
    }
    _emit(table, config, {"n_rows": len(table["model"])}, args)


def _count(args) -> None:
    """Count states with kinetic energy at or below the cutoff."""
    tmax = args.tmax
    if tmax is None:
        args.error("the following arguments are required: --tmax")
    if not (0.0 < tmax < math.inf):
        args.error("Invalid value for '--tmax': must be > 0 and finite.")
    boxes = _boxes(args, dim=3, lc=(1.0,))
    runs = [(m, cell, box) for m in _expand_models(args.model) for cell, box in boxes]
    counts = _run_guarded(
        lambda: [count_states(m, box, tmax, args.spin_counting) for m, _, box in runs]
    )
    table = {
        "model": [m for m, _, _ in runs],
        "dim": [args.dim] * len(runs),
        "lc": [cell for _, cell, _ in runs],
        "tmax": [tmax] * len(runs),
        "count": counts,
    }
    config = {
        "command": "count",
        "dim": args.dim,
        "model": args.model,
        "lc": None if args.lengths is not None else sorted(set(args.lc)),
        "lengths": list(args.lengths) if args.lengths is not None else None,
        "tmax": tmax,
        "spin_counting": args.spin_counting,
    }
    _emit(table, config, {"n_rows": len(runs)}, args)


def _field(args) -> None:
    """Sample a box eigenstate: spinor, charge density and current.

    Emits one row per grid point (boundary included) plus a summary with
    the charge quadrature, the largest |current| and the finite-difference
    stationarity residual.  In CSV the summary appears as leading '#'
    comment lines.  The grid must put more than two intervals on every
    half-wavelength (grid - 1 > 2 n_i), where the quadrature stops aliasing.
    """
    import numpy as np

    from .fields import BoxState, GridSpec, normalization_check, stationarity_residual

    n, lc, grid = args.n, args.lc, args.grid
    if lc is not None and len(lc) != 1:
        args.error("Invalid value for '--lc': give exactly one box size.")
    [(_, box)] = _boxes(args, dim=1, lc=None)
    dim = args.dim
    if len(n) != dim:
        args.error(f"Invalid value for '--n': need {dim} values for --dim {dim}.")
    if grid is None:
        grid = 201 if dim == 1 else 21
    if grid < 3 or grid % 2 == 0:
        args.error("Invalid value for '--grid': need an odd count >= 3.")
    qnums = QuantumNumbers(n)
    gridspec = GridSpec(points_per_axis=grid)
    if not gridspec.resolves(qnums):
        args.error(
            f"Invalid value for '--grid': {grid} points leave at most two intervals "
            f"per half-wavelength of n={max(n)}, where the charge quadrature aliases; "
            f"need at least {2 * max(n) + 3}."
        )
    state = BoxState(box=box, qnums=qnums, conjugated=args.conjugate)

    def build():
        values = state.evaluate(gridspec.axes(box))
        names = ("x", "y", "z")[:dim]
        table = {
            name: coords.ravel()
            for name, coords in zip(names, np.meshgrid(*values.axes, indexing="ij"))
        }
        table["t"] = np.full(values.rho.size, values.time)
        table["re_phi"] = values.upper.real.ravel()
        table["im_phi"] = values.upper.imag.ravel()
        table["re_chi"] = values.lower.real.ravel()
        table["im_chi"] = values.lower.imag.ravel()
        table["rho"] = values.rho.ravel()
        for name, current in zip(names, values.current):
            table[f"j_{name}"] = current.ravel()
        summary = {
            "normalization": normalization_check(state, gridspec),
            "max_abs_current": max(float(np.max(np.abs(j))) for j in values.current),
            "stationarity_residual": stationarity_residual(state, gridspec),
        }
        return table, summary

    try:
        table, summary = build()
    except MemoryError as exc:
        _fail(4, f"a grid of {grid} points per axis does not fit in memory ({exc})")
    config = {
        "command": "field",
        "dim": dim,
        "n": list(n),
        "lc": lc[0] if lc is not None else None,
        "lengths": list(args.lengths) if args.lengths is not None else None,
        "grid": grid,
        "conjugate": args.conjugate,
    }
    _emit(table, config, summary, args)


def _parser(prog: str) -> argparse.ArgumentParser:
    """The ``relbox`` parser.  Each command's parser sets ``run`` to the
    command and ``error`` to its own usage-error exit (code 2)."""

    def options(*parents) -> argparse.ArgumentParser:
        """A parent parser: options that several commands share, declared once."""
        return argparse.ArgumentParser(add_help=False, allow_abbrev=False, parents=parents)

    box = options()
    box.add_argument("--dim", type=int, choices=(1, 3),
                     help="Box dimension (default: 3 for count, 1 otherwise).")
    box.add_argument("--lc", type=_floats,
                     help="Comma-separated cubic box sizes in Compton units (default: "
                          "1,10,100,300 for spectrum, 1 for count; field takes one).")
    box.add_argument("--lengths", type=_floats,
                     help="Explicit per-axis box lengths (alternative to --lc).")
    model = options(box)
    model.add_argument("--model", choices=("kg", "dirac", "nonrel", "all"), default="all",
                       help="Model to tabulate (default: %(default)s).")
    model.add_argument("--tmax", type=float, help="Kinetic-energy cutoff (required by count).")
    model.add_argument("--spin-counting", action="store_true",
                       help="Double spin-1/2 degeneracies.")
    output = options()
    output.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv",
                        help="Output format (default: %(default)s).")
    output.add_argument("--out", help="Output path (default stdout).")

    parser = argparse.ArgumentParser(
        prog=prog, allow_abbrev=False,
        description="Relativistic particle-in-a-box spectra, counts and wavefunctions.  "
        "All lengths are in units of the Compton wavelength and all energies in units of "
        "the rest energy mc^2.  CSV columns are fixed per subcommand; multi-valued cells "
        "are ';'-joined.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, parent) -> argparse.ArgumentParser:
        sub = commands.add_parser(
            name, parents=[parent, output], allow_abbrev=False,
            help=run.__doc__.splitlines()[0], description=run.__doc__,
        )
        sub.set_defaults(run=run, error=sub.error)
        return sub

    spectrum = command("spectrum", _spectrum, model)
    spectrum.add_argument("--levels", type=int, help="Number of levels per box (default: 4).")
    spectrum.add_argument("--preset", choices=("electron", "pion", "none"), default="none",
                          help="Annotate box sizes in physical units (default: %(default)s).")
    command("count", _count, model)
    field = command("field", _field, box)
    field.add_argument("--n", type=_ints, required=True, help="Quantum numbers.")
    field.add_argument("--grid", type=int,
                       help="Points per axis (odd; default 201 in 1D, 21 in 3D).")
    field.add_argument("--conjugate", action="store_true",
                       help="Sample the charge-conjugated state.")
    return parser


def main(args=None, prog_name: str = "relbox", standalone_mode: bool = True) -> None:
    """Run one ``relbox`` command line (``sys.argv[1:]`` when ``args`` is None).

    Success returns None; ``--help`` and ``--version`` exit 0, usage errors
    2, solver failures 3 and capacity refusals 4, all by ``SystemExit``.
    ``standalone_mode`` selects nothing: it keeps the keyword call shape
    ``cli.main(args=..., prog_name=..., standalone_mode=...)`` that in-process
    callers such as ``perfbench/trace.py`` use.
    """
    namespace, unknown = _parser(prog_name).parse_known_args(args)
    if unknown:
        namespace.error(f"unrecognized arguments: {' '.join(unknown)}")
    namespace.run(namespace)


# ``relbox.cli.cli.main`` is ``main``: the name in-process callers such as
# ``perfbench/trace.py`` call it by.
cli = sys.modules[__name__]

if __name__ == "__main__":
    main()
