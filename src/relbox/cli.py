"""Command-line front end: spectrum tables, state counting, field sampling.

Three subcommands (``spectrum``, ``count``, ``field``) emit deterministic
CSV or JSON.  Floats are serialized with 17 significant digits so repeated
runs are byte-identical and values survive a parse round trip.  Exit codes:
0 success, 2 bad usage, 3 solver failure, 4 enumeration capacity exceeded
(for ``count``: a 3D spin-1/2 solve needed beyond the lattice bound, or a 1D
count beyond float64 resolution; for both: a kinetic energy beyond the
float64 range).
"""

from __future__ import annotations

import itertools
import json
import math
import sys

import click

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


def _emit(table: dict, config, summary, fmt, out):
    text = _render(table, config, summary, fmt)
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _parse_floats(ctx, param, value):
    if value is None:
        return None
    try:
        items = tuple(float(v) for v in value.split(","))
    except ValueError:
        raise click.BadParameter(f"{value!r} is not a comma-separated float list")
    if not items:
        raise click.BadParameter("empty list")
    for v in items:
        if not (v > 0.0) or not math.isfinite(v):
            raise click.BadParameter("entries must be positive finite numbers")
    return items


def _parse_ints(ctx, param, value):
    if value is None:
        return None
    try:
        items = tuple(int(v) for v in value.split(","))
    except ValueError:
        raise click.BadParameter(f"{value!r} is not a comma-separated integer list")
    for v in items:
        if v < 1:
            raise click.BadParameter("entries must be integers >= 1")
    return items


def _expand_models(model: str) -> list[str]:
    return list(MODELS) if model == "all" else [model]


def _boxes(dim, lcs, lengths):
    """(lc cell, BoxSpec) pairs; lc ascending when given as a list."""
    if lengths is not None:
        if len(lengths) != dim:
            raise click.UsageError(
                f"Invalid value for '--lengths': need {dim} values for --dim {dim}."
            )
        cell = list(lengths) if dim == 3 else lengths[0]
        return [(cell, BoxSpec(lengths))]
    return [(lc, BoxSpec.cube(lc, dim=dim)) for lc in sorted(set(lcs))]


def _reject_lc_with_lengths(ctx, lengths) -> None:
    explicit_lc = (
        ctx.get_parameter_source("lc") is not click.core.ParameterSource.DEFAULT
    )
    if lengths is not None and explicit_lc:
        raise click.UsageError("Set only one of '--lc' and '--lengths'.")


def _run_guarded(fn):
    try:
        return fn()
    except CapacityError as exc:
        bound = f" (lattice bound {exc.lattice_max})" if exc.lattice_max else ""
        click.echo(f"error: {exc}{bound}", err=True)
        sys.exit(4)
    except (ConvergenceError, BracketError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)


@click.group()
@click.version_option(version=__version__)
def cli():
    """Relativistic particle-in-a-box spectra, counts and wavefunctions.

    All lengths are in units of the Compton wavelength and all energies in
    units of the rest energy mc^2.  CSV columns are fixed per subcommand;
    multi-valued cells are ';'-joined.
    """


@cli.command()
@click.option("--dim", type=click.Choice(["1", "3"]), default="1", show_default=True)
@click.option(
    "--model",
    type=click.Choice(["kg", "dirac", "nonrel", "all"]),
    default="all",
    show_default=True,
)
@click.option(
    "--lc",
    callback=_parse_floats,
    default="1,10,100,300",
    show_default=True,
    help="Comma-separated cubic box sizes in Compton units.",
)
@click.option(
    "--lengths",
    callback=_parse_floats,
    default=None,
    help="Explicit per-axis box lengths (alternative to --lc).",
)
@click.option("--levels", type=int, default=None, help="Number of levels per box.")
@click.option("--tmax", type=float, default=None, help="Kinetic-energy cutoff.")
@click.option("--spin-counting", is_flag=True, help="Double spin-1/2 degeneracies.")
@click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
    show_default=True,
)
@click.option("--out", type=click.Path(), default=None, help="Output path (default stdout).")
@click.option(
    "--preset", type=click.Choice(["electron", "pion", "none"]), default="none",
    show_default=True, help="Annotate box sizes in physical units.",
)
@click.pass_context
def spectrum(ctx, dim, model, lc, lengths, levels, tmax, spin_counting, fmt, out, preset):
    """Tabulate energy levels: the data behind the comparison figures.

    Emits one row per (model, box, level) ordered by model (kg, dirac,
    nonrel), box size ascending, kinetic energy ascending.  The nonrel
    model appears only at the largest box size, as a reference limit.
    """
    dim = int(dim)
    _reject_lc_with_lengths(ctx, lengths)
    if levels is not None and tmax is not None:
        raise click.UsageError("Set only one of '--levels' and '--tmax'.")
    if levels is None and tmax is None:
        levels = 4
    if levels is not None and levels < 1:
        raise click.UsageError("Invalid value for '--levels': must be >= 1.")
    if tmax is not None and not (tmax > 0.0):
        raise click.UsageError("Invalid value for '--tmax': must be > 0.")
    boxes = _boxes(dim, lc, lengths)
    models = _expand_models(model)
    table = _run_guarded(lambda: spectrum_table(models, boxes, levels, tmax, spin_counting))
    table = annotate_units(table, preset)
    config = {
        "command": "spectrum",
        "dim": dim,
        "model": model,
        "lc": None if lengths is not None else sorted(set(lc)),
        "lengths": list(lengths) if lengths is not None else None,
        "levels": levels,
        "tmax": tmax,
        "spin_counting": spin_counting,
        "preset": preset,
        "kinetic_units": "mc^2",
    }
    _emit(table, config, {"n_rows": len(table["model"])}, fmt, out)


@cli.command()
@click.option("--dim", type=click.Choice(["1", "3"]), default="3", show_default=True)
@click.option(
    "--model",
    type=click.Choice(["kg", "dirac", "nonrel", "all"]),
    default="all",
    show_default=True,
)
@click.option("--lc", callback=_parse_floats, default="1", show_default=True)
@click.option("--lengths", callback=_parse_floats, default=None)
@click.option("--tmax", type=float, required=True, help="Kinetic-energy cutoff.")
@click.option("--spin-counting", is_flag=True)
@click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
    show_default=True,
)
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def count(ctx, dim, model, lc, lengths, tmax, spin_counting, fmt, out):
    """Count states with kinetic energy at or below the cutoff."""
    dim = int(dim)
    _reject_lc_with_lengths(ctx, lengths)
    if not (0.0 < tmax < math.inf):
        raise click.UsageError("Invalid value for '--tmax': must be > 0 and finite.")
    boxes = _boxes(dim, lc, lengths)
    runs = [(m, cell, box) for m in _expand_models(model) for cell, box in boxes]
    counts = _run_guarded(
        lambda: [count_states(m, box, tmax, spin_counting) for m, _, box in runs]
    )
    table = {
        "model": [m for m, _, _ in runs],
        "dim": [dim] * len(runs),
        "lc": [cell for _, cell, _ in runs],
        "tmax": [tmax] * len(runs),
        "count": counts,
    }
    config = {
        "command": "count",
        "dim": dim,
        "model": model,
        "lc": None if lengths is not None else sorted(set(lc)),
        "lengths": list(lengths) if lengths is not None else None,
        "tmax": tmax,
        "spin_counting": spin_counting,
    }
    _emit(table, config, {"n_rows": len(runs)}, fmt, out)


@cli.command()
@click.option("--dim", type=click.Choice(["1", "3"]), default="1", show_default=True)
@click.option("--n", callback=_parse_ints, required=True, help="Quantum numbers.")
@click.option("--lc", callback=_parse_floats, default=None, help="Cubic box size.")
@click.option("--lengths", callback=_parse_floats, default=None)
@click.option(
    "--grid", type=int, default=None,
    help="Points per axis (odd; default 201 in 1D, 21 in 3D).",
)
@click.option("--conjugate", is_flag=True, help="Sample the charge-conjugated state.")
@click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
    show_default=True,
)
@click.option("--out", type=click.Path(), default=None)
def field(dim, n, lc, lengths, grid, conjugate, fmt, out):
    """Sample a box eigenstate: spinor, charge density and current.

    Emits one row per grid point (boundary included) plus a summary with
    the charge quadrature, the largest |current| and the finite-difference
    stationarity residual.  In CSV the summary appears as leading '#'
    comment lines.  The grid must put more than two intervals on every
    half-wavelength (grid - 1 > 2 n_i), where the quadrature stops aliasing.
    """
    import numpy as np

    from .fields import BoxState, GridSpec, normalization_check, stationarity_residual

    dim = int(dim)
    if len(n) != dim:
        raise click.UsageError(f"Invalid value for '--n': need {dim} values for --dim {dim}.")
    if lc is not None and lengths is not None:
        raise click.UsageError("Set only one of '--lc' and '--lengths'.")
    if lc is None and lengths is None:
        raise click.UsageError("One of '--lc' and '--lengths' is required.")
    if lc is not None and len(lc) != 1:
        raise click.UsageError("Invalid value for '--lc': give exactly one box size.")
    if grid is None:
        grid = 201 if dim == 1 else 21
    if grid < 3 or grid % 2 == 0:
        raise click.UsageError("Invalid value for '--grid': need an odd count >= 3.")
    qnums = QuantumNumbers(n)
    gridspec = GridSpec(points_per_axis=grid)
    if not gridspec.resolves(qnums):
        raise click.UsageError(
            f"Invalid value for '--grid': {grid} points leave at most two intervals "
            f"per half-wavelength of n={max(n)}, where the charge quadrature aliases; "
            f"need at least {2 * max(n) + 3}."
        )
    box = BoxSpec(lengths) if lengths is not None else BoxSpec.cube(lc[0], dim=dim)
    state = BoxState(box=box, qnums=qnums, conjugated=conjugate)

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

    table, summary = build()
    config = {
        "command": "field",
        "dim": dim,
        "n": list(n),
        "lc": lc[0] if lc is not None else None,
        "lengths": list(lengths) if lengths is not None else None,
        "grid": grid,
        "conjugate": conjugate,
    }
    _emit(table, config, summary, fmt, out)


def main():
    cli()


if __name__ == "__main__":
    main()
