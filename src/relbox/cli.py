"""Command-line front end: spectrum tables, state counting, field sampling.

Three subcommands (``spectrum``, ``count``, ``field``) emit deterministic
CSV or JSON.  Floats are serialized with 17 significant digits in CSV and in
their shortest round-trip form (``repr``) in JSON, so repeated runs are
byte-identical and values survive a parse round trip.  A table of more than
one block of rows with cells to format one by one is formatted by forked
workers on the CPUs the process may use, into the same bytes for any number
of CPUs.  Exit codes, all
chosen by ``main``: 0 success, 1 output not written (an unwritable
``--out``; a closed stdout pipe, silently), 2 bad usage, 3 solver failure,
4 capacity exceeded (the walk budget, float64 resolution or the float64
range passed; a ``field`` grid too large to allocate or index; running out of
memory; a row-formatting worker that failed, was killed or could not
start).  ``--out`` is written whole or not at all; stdout, once written,
cannot be taken back.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from collections.abc import Iterator

from . import __version__
from .core import MODELS, BoxSpec, QuantumNumbers, _integer, _positive_finite
from .errors import CapacityError, ConvergenceError

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
    import json  # loaded only by JSON output

    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * level)


# Rows per block of a streamed table: a block is formatted by one printf
# template, so the text in memory at once stays a few megabytes.
_BLOCK_ROWS = 8192


def _column(values, fmt: str) -> tuple[str, object]:
    """One table column as a printf conversion and the values it formats
    (a list or an array; None when the conversion is a literal).

    Plain floats become one ``%.17g`` (CSV) or ``%r`` (JSON, which writes
    floats by ``repr``) conversion and plain ints one ``%d``; a float64
    array whose every value has the same bits is formatted once, into a
    literal.  An array with at most half of its values distinct (as bits,
    so ``-0.0`` and ``0.0`` stay apart) has each distinct value formatted
    once and its cells filled by ``%s`` from an object array of the
    strings.  Any other column is formatted cell by cell into ``%s``.
    Arrays are told apart by their ``dtype``, so that only ``field``, the
    one command that makes them, loads numpy.
    """
    cell = _fmt if fmt == "csv" else lambda v: _json(v, 3)
    spec = "%.17g" if fmt == "csv" else "%r"
    if hasattr(values, "dtype"):
        import numpy as np

        if fmt == "csv" or np.isfinite(values).all():
            bits = values.view(np.int64)
            ordered = np.sort(bits)
            changes = ordered[1:] != ordered[:-1]
            distinct = 1 + np.count_nonzero(changes)
            if distinct == 1:
                return cell(float(values[0])).replace("%", "%%"), None
            if 2 * distinct > bits.size:
                return spec, values
            keys = np.append(ordered[:1], ordered[1:][changes])
            strings = np.array([spec % v for v in keys.view(np.float64).tolist()], dtype=object)
            return "%s", strings[np.searchsorted(keys, bits)]
        values = values.tolist()
    kinds = set(map(type, values))
    if kinds == {float} and (fmt == "csv" or all(map(math.isfinite, values))):
        return spec, values
    if kinds == {int}:
        return "%d", values
    return "%s", [cell(v) for v in values]


def _format_rows(table: dict, nrows: int, fmt: str) -> Iterator[str]:
    """The rows of ``table`` through one printf row template, a block of
    ``_BLOCK_ROWS`` rows at a time: pieces that join to the CSV body or to
    the items of the JSON ``rows`` list.  The columns are analysed at the
    call, before the first block is formatted.

    Where a column formats cell by cell (``%.17g``, ``%r``, ``%d``), the
    blocks are split into contiguous ranges, one per CPU the process may
    use, and formatted by ``_gather``; otherwise (every 3D ``field`` table,
    whose cells are strings already) or for one block, this process formats
    them alone, which costs less than a worker's fork and copy.
    """
    specs, cells = zip(*(_column(values, fmt) for values in table.values()))
    cells = [c for c in cells if c is not None]
    if fmt == "csv":
        sep, row = "\n", ",".join(specs)
    else:
        items = ",\n".join(
            f"      {_json(name).replace('%', '%%')}: {spec}" for name, spec in zip(table, specs)
        )
        sep, row = ",\n", "    {\n" + items + "\n    }"
    size = min(_BLOCK_ROWS, nrows)
    full = sep.join([row] * size)

    def block(start: int) -> str:
        stop = min(start + size, nrows)
        parts = [c[start:stop] for c in cells]
        flat = itertools.chain.from_iterable(
            zip(*(p.tolist() if hasattr(p, "tolist") else p for p in parts))
        )
        template = full if stop - start == size else sep.join([row] * (stop - start))
        return (sep if start else "") + template % tuple(flat)

    starts = range(0, nrows, size)
    count = min(_cpus(), len(starts)) if {"%.17g", "%r", "%d"} & set(specs) else 1
    ranges = [starts[i * len(starts) // count:(i + 1) * len(starts) // count]
              for i in range(count)]
    return _gather(block, ranges)


def _cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot tell, or cannot
    fork a worker into an anonymous memory file."""
    if not all(hasattr(os, name) for name in ("fork", "memfd_create", "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


# Characters of a worker's text copied out at a time.
_COPY_CHARS = 1 << 20


def _gather(block, ranges) -> Iterator[str]:
    """``block(start)`` for every start of every range, in order.

    The first range is formatted here, as its pieces are read; each later
    range by a forked worker (``_fork``), whose text is copied out once the
    worker has exited with status 0.  A worker that failed or was killed
    raises CapacityError before any of its text is copied.  On any exception,
    and when the generator is closed early, every worker not yet reaped is
    killed and reaped before the generator ends.
    """
    workers = []
    try:
        for starts in ranges[1:]:
            workers.append(_fork(block, starts))
        yield from map(block, ranges[0])
        while workers:
            pid, text = workers[0]
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            with text:
                if status:
                    end = (f"was killed by signal {-status}" if status < 0
                           else f"exited with status {status}")
                    raise CapacityError(f"a row-formatting worker {end}")
                text.seek(0)
                yield from iter(lambda: text.read(_COPY_CHARS), "")
    finally:
        for pid, text in workers:
            import signal  # loaded only where a worker is left to kill

            text.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(block, starts):
    """(pid, text): a forked worker that writes ``block(start)`` for each of
    ``starts`` into an anonymous memory file, and that file opened for
    reading as UTF-8 text.  A memory file or fork that fails raises
    CapacityError, with no file left open.  The worker ends through
    ``os._exit`` on every path, with status 0 once its text is written: it
    never flushes the buffers or runs the exit handlers it inherited."""
    try:
        text = open(os.memfd_create("relbox-rows"), encoding="utf-8", newline="")
        try:
            pid = os.fork()
        except BaseException:
            text.close()
            raise
    except OSError as exc:
        raise CapacityError(f"a row-formatting worker could not start ({exc})") from exc
    if pid == 0:
        status = 1
        try:
            with open(text.fileno(), "w", encoding="utf-8", newline="", closefd=False) as sink:
                sink.writelines(map(block, starts))
            status = 0
        finally:
            os._exit(status)
    return pid, text


def _render(table: dict, config, summary, fmt: str) -> Iterator[str]:
    """A column table (name -> column, all of one length) with its config
    and summary, as pieces of text: in JSON exactly as
    ``json.dumps(payload, indent=2)`` writes the payload, in CSV ``#``
    summary lines, the header and ``_fmt`` cells.  The columns are
    analysed at the call; the rows are formatted as the pieces are read,
    and closing the pieces closes the rows' generator."""
    nrows = len(next(iter(table.values()), ()))
    body = _format_rows(table, nrows, fmt) if nrows else ()
    if fmt == "json":
        head = f'{{\n  "config": {_json(config, 1)},\n  "rows": ' + ("[\n" if nrows else "[]")
        tail = ("\n  ]" if nrows else "") + f',\n  "summary": {_json(summary, 1)}\n}}\n'
    else:
        lines = [f"# {key}={_fmt(value)}" for key, value in (summary or {}).items()]
        if nrows:
            lines.append(",".join(table))
        head, tail = "\n".join(lines) + ("\n" if nrows else ""), "\n"

    def pieces():
        yield head
        yield from body
        yield tail

    return pieces()


def _emit(table: dict, config, summary, args) -> None:
    # ``_render`` analyses the columns, where a large table's memory goes,
    # before anything is written: running out of memory there leaves no
    # partial output, and ``_write_out`` leaves none in ``--out`` on any
    # failure.  Closing the pieces on the way out ends any row-formatting
    # workers before an exception propagates.
    pieces = _render(table, config, summary, args.fmt)
    try:
        if args.out is None:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()  # a closed pipe fails here, inside main, not at exit
        else:
            _write_out(args.out, pieces)
    finally:
        pieces.close()


def _write_out(path: str, pieces) -> None:
    """Write ``pieces`` to ``path`` whole or not at all: a regular file, or
    none yet, through a temporary file beside it (or beside the file a link
    names), moved over it after the last piece and removed on any exception;
    anything else (a device, a pipe) as it is.  An OSError names ``path``."""
    regular = os.path.isfile(path) or not os.path.exists(path)
    target = os.path.realpath(path)
    partial = f"{target}.{os.getpid()}.partial" if regular else path
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(pieces)
        if regular:
            os.replace(partial, target)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if regular and os.path.exists(partial):
            os.remove(partial)


def _fail(code: int, message: str):
    sys.stderr.write(f"error: {message}\n")
    sys.exit(code)


def _why(exc: BaseException) -> str:
    """`` (message)`` of ``exc``, or nothing where it has none."""
    return f" ({exc})" if str(exc) else ""


def _unwritten(exc: OSError) -> int:
    """The exit code, 1, of output that could not be written, after one
    ``error:`` line.  A stdout pipe whose reader is gone ends silently
    instead, with the null device put on fd 1, so no later flush fails."""
    if isinstance(exc, BrokenPipeError):
        try:  # an in-process stream has no fd
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass
    else:
        sys.stderr.write(f"error: {exc}\n")
    return 1


def _entries(convert, kind: str, rule):
    """A comma-separated list parser: each entry made by ``convert`` (else not a
    ``kind`` list) and checked by the ``core`` ``rule``, which names the value."""

    def parse(text: str) -> tuple:
        try:
            items = [convert(v) for v in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated {kind} list")
        try:
            return tuple(rule("entries", v) for v in items)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return parse


_floats = _entries(float, "float", _positive_finite)
_ints = _entries(int, "integer", _integer)


def _one(parse):
    """``parse`` (``_floats`` or ``_ints``) of exactly one entry, for an
    option that takes one value under its list's rule."""

    def single(text: str):
        [value] = parse(text)  # more entries: "invalid single value"
        return value

    return single


def _grid(text: str) -> int:
    """``--grid``: an odd ``GridSpec`` size (an integer >= 3), as Simpson's rule needs."""
    from .fields import GridSpec

    try:
        if (grid := GridSpec(int(text)).points_per_axis) % 2:
            return grid
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"need an odd count >= 3, got {text!r}")


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


def _spectrum(args) -> None:
    """Tabulate energy levels: the data behind the comparison figures.

    Emits one row per (model, box, level) ordered by model (kg, dirac,
    nonrel), box size ascending, kinetic energy ascending.  The nonrel
    model appears only at the largest box size, as a reference limit.
    """
    from .spectra import spectrum_table

    levels, tmax = args.levels, args.tmax
    if levels is not None and tmax is not None:
        args.error("Set only one of '--levels' and '--tmax'.")
    if levels is None and tmax is None:
        levels = 4
    boxes = _boxes(args, dim=1, lc=(1.0, 10.0, 100.0, 300.0))
    models = _expand_models(args.model)
    table = spectrum_table(models, boxes, levels, tmax, args.spin_counting)
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
    from .spectra import count_states

    tmax = args.tmax
    if tmax is None:
        args.error("the following arguments are required: --tmax")
    boxes = _boxes(args, dim=3, lc=(1.0,))
    runs = [(m, cell, box) for m in _expand_models(args.model) for cell, box in boxes]
    counts = [count_states(m, box, tmax, args.spin_counting) for m, _, box in runs]
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
    A 1D table of more than 8192 rows is split over every CPU the process may
    use, into the same rows for any CPU count ('taskset -c 0' gives one).
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

    config = {
        "command": "field",
        "dim": dim,
        "n": list(n),
        "lc": lc[0] if lc is not None else None,
        "lengths": list(args.lengths) if args.lengths is not None else None,
        "grid": grid,
        "conjugate": args.conjugate,
    }
    try:
        if grid ** dim * np.dtype(complex).itemsize > np.iinfo(np.intp).max:
            raise MemoryError("more bytes than numpy can index")  # numpy's ValueError past it
        table, summary = build()
    except MemoryError as exc:
        raise CapacityError(f"a grid of {grid} points per axis does not fit in memory{_why(exc)}")
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
    model.add_argument("--model", choices=(*MODELS, "all"), default="all",
                       help="Model to tabulate (default: %(default)s).")
    model.add_argument("--tmax", type=_one(_floats),
                       help="Kinetic-energy cutoff (required by count).")
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
    spectrum.add_argument("--levels", type=_one(_ints),
                          help="Number of levels per box (default: 4).")
    spectrum.add_argument("--preset", choices=("electron", "pion", "none"), default="none",
                          help="Annotate box sizes in physical units (default: %(default)s).")
    command("count", _count, model)
    field = command("field", _field, box)
    field.add_argument("--n", type=_ints, required=True, help="Quantum numbers.")
    field.add_argument("--grid", type=_grid,
                       help="Points per axis (odd; default 201 in 1D, 21 in 3D).")
    field.add_argument("--conjugate", action="store_true",
                       help="Sample the charge-conjugated state.")
    return parser


def main(args=None, prog_name: str = "relbox", standalone_mode: bool = True) -> None:
    """Run one ``relbox`` command line (``sys.argv[1:]`` when ``args`` is None).

    Success returns None; every failure ends in ``SystemExit``.  argparse
    exits 0 (``--help``, ``--version``) or 2 (bad usage); the ladder below
    alone maps each other failure to its code (see the module docstring)
    and writes one ``error: ...`` line; a closed stdout pipe exits 1
    silently.  ``standalone_mode`` selects nothing: it keeps the keyword
    call shape ``cli.main(args=..., prog_name=..., standalone_mode=...)``
    that in-process callers such as ``perfbench/trace.py`` use.
    """
    namespace, unknown = _parser(prog_name).parse_known_args(args)
    if unknown:
        namespace.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        namespace.run(namespace)
    except ConvergenceError as exc:
        _fail(3, str(exc))
    except CapacityError as exc:
        _fail(4, str(exc))
    except MemoryError as exc:
        _fail(4, f"out of memory{_why(exc)}")
    except OSError as exc:
        sys.exit(_unwritten(exc))


# ``relbox.cli.cli.main`` is ``main``: the name in-process callers such as
# ``perfbench/trace.py`` call it by.
cli = sys.modules[__name__]
