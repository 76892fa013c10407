"""Command-line interface: schemas, determinism, exit codes, units."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relbox.cli import _fmt, _render, annotate_units, cli
from relbox.core import BoxSpec
from relbox.errors import ConvergenceError
from relbox.spectra import spectrum_table

from clirunner import invoke
from oracles import lattice_count

REPO = Path(__file__).resolve().parents[1]
# Figure tables as printed by the commit that defined the benchmark.
REFERENCE_DIR = REPO / "perfbench" / "reference"


def _columns(rows):
    """Row dicts (all with the keys of the first) as a column table."""
    return {key: [row[key] for row in rows] for key in rows[0]} if rows else {}


def parse_csv(text):
    comments, rows = {}, []
    header = None
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[2:].partition("=")
            comments[key] = value
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(dict(zip(header, line.split(","))))
    return comments, header, rows


def test_spectrum_default_row_count():
    result = invoke("spectrum", "--dim", "1", "--model", "all",
                    "--lc", "1,10,100,300", "--levels", "4")
    assert result.exit_code == 0
    _, header, rows = parse_csv(result.stdout)
    assert header[:4] == ["model", "dim", "lc", "qnums"]
    assert len(rows) == 36


def test_spectrum_3d_representatives():
    result = invoke("spectrum", "--dim", "3", "--model", "kg", "--lc", "300",
                    "--levels", "4")
    assert result.exit_code == 0
    _, _, rows = parse_csv(result.stdout)
    assert [r["qnums"] for r in rows] == ["1;1;1", "1;1;2", "1;2;2", "1;1;3"]
    assert [r["degeneracy"] for r in rows] == ["1", "3", "3", "3"]


def test_spectrum_rejects_zero_box():
    result = invoke("spectrum", "--dim", "1", "--model", "kg", "--lc", "0")
    assert result.exit_code == 2
    assert "--lc" in result.stderr


def test_spectrum_rejects_levels_and_tmax_together():
    result = invoke("spectrum", "--levels", "3", "--tmax", "1.0")
    assert result.exit_code == 2


def test_explicit_lc_conflicts_with_lengths():
    result = invoke("spectrum", "--dim", "3", "--lc", "1", "--lengths", "1,2,4")
    assert result.exit_code == 2
    assert "--lengths" in result.stderr
    result = invoke("count", "--dim", "3", "--lc", "1", "--lengths", "1,1,1",
                    "--tmax", "1")
    assert result.exit_code == 2
    # the --lc default does not count as explicit
    assert invoke("spectrum", "--dim", "3", "--lengths", "1,2,4",
                  "--levels", "2").exit_code == 0


def test_runs_are_deterministic():
    for args in (
        ("spectrum", "--dim", "1", "--lc", "1,10,100,300", "--levels", "4"),
        ("spectrum", "--dim", "3", "--lc", "1,10", "--levels", "3", "--format", "json"),
        ("field", "--dim", "1", "--n", "2", "--lc", "1", "--grid", "21"),
    ):
        first = invoke(*args)
        second = invoke(*args)
        assert first.exit_code == 0
        assert first.stdout == second.stdout


def test_csv_and_json_carry_identical_values():
    args = ("spectrum", "--dim", "3", "--model", "all", "--lc", "1,300",
            "--levels", "3")
    csv_out = invoke(*args).stdout
    json_out = invoke(*args, "--format", "json").stdout
    _, _, csv_rows = parse_csv(csv_out)
    json_rows = json.loads(json_out)["rows"]
    assert len(csv_rows) == len(json_rows)
    for c, j in zip(csv_rows, json_rows):
        assert c["model"] == j["model"]
        assert int(c["dim"]) == j["dim"]
        assert float(c["lc"]) == j["lc"]
        assert [int(v) for v in c["qnums"].split(";")] == j["qnums"]
        assert [float(v) for v in c["wavenumbers"].split(";")] == j["wavenumbers"]
        assert float(c["kinetic"]) == j["kinetic"]
        assert int(c["degeneracy"]) == j["degeneracy"]


def test_json_round_trip_matches_library_table():
    result = invoke("spectrum", "--dim", "1", "--model", "all",
                    "--lc", "1,10,100,300", "--levels", "4", "--format", "json")
    payload = json.loads(result.stdout)
    boxes = [(lc, BoxSpec.cube(lc, dim=1)) for lc in (1.0, 10.0, 100.0, 300.0)]
    expected = spectrum_table(["kg", "dirac", "nonrel"], boxes, count=4)
    assert _columns(payload["rows"]) == expected
    assert payload["config"]["command"] == "spectrum"
    assert payload["summary"]["n_rows"] == 36


@pytest.mark.parametrize("dim", ["1", "3"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_figure_tables_match_reference_bytes(dim, fmt):
    result = invoke("spectrum", "--dim", dim, "--model", "all",
                    "--lc", "1,10,100,300", "--levels", "4", "--format", fmt)
    assert result.exit_code == 0
    expected = (REFERENCE_DIR / f"spectrum_dim{dim}.{fmt}").read_bytes()
    assert result.stdout_bytes == expected


def _run_python(*args):
    """A fresh interpreter, run with ``args``, that imports relbox from ``src/``."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)


def test_cli_import_leaves_scipy_unloaded():
    """Neither scipy nor click is imported with the CLI."""
    code = ("import relbox.cli, sys; assert not any("
            "m.partition('.')[0] in ('scipy', 'click') for m in sys.modules)")
    done = _run_python("-c", code)
    assert done.returncode == 0, done.stderr


def test_spectrum_count_and_version_leave_numpy_unloaded():
    """Only ``field`` loads numpy and ``relbox.fields``; no command needs click."""
    code = (
        "import sys\n"
        "sys.modules['click'] = None  # any import of click now fails\n"
        "from relbox.cli import cli\n"
        "def run(args):\n"
        "    try:\n"
        "        return cli.main(args=args, prog_name='relbox', standalone_mode=False)\n"
        "    except SystemExit as exc:\n"
        "        return exc.code\n"
        "for args in (['spectrum', '--dim', '3', '--levels', '4'],\n"
        "             ['count', '--dim', '1', '--tmax', '5'], ['--version']):\n"
        "    assert run(args) in (None, 0)\n"
        "assert 'numpy' not in sys.modules and 'relbox.fields' not in sys.modules\n"
        "assert run(['field', '--n', '1', '--lc', '1']) is None\n"
        "assert 'numpy' in sys.modules and 'relbox.fields' in sys.modules\n"
        "print('all commands ran')\n"
    )
    done = _run_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert "relbox, version 0.1.0\n" in done.stdout
    assert done.stdout.endswith("all commands ran\n")


# Every option of each command, as its --help must name it.
COMMAND_OPTIONS = {
    "spectrum": ("--dim", "--model", "--lc", "--lengths", "--levels", "--tmax",
                 "--spin-counting", "--format", "--out", "--preset"),
    "count": ("--dim", "--model", "--lc", "--lengths", "--tmax", "--spin-counting",
              "--format", "--out"),
    "field": ("--dim", "--n", "--lc", "--lengths", "--grid", "--conjugate", "--format",
              "--out"),
}


def test_help_names_every_command_and_option():
    result = invoke("--help")
    assert result.exit_code == 0
    assert all(name in result.stdout for name in ("--version", *COMMAND_OPTIONS))
    for command, options in COMMAND_OPTIONS.items():
        result = invoke(command, "--help")
        assert result.exit_code == 0, result.stderr
        assert result.stdout.startswith(f"usage: relbox {command} ")
        missing = [option for option in options if f" {option} " not in result.stdout]
        assert not missing, f"{command} --help omits {missing}"


def test_usage_errors_exit_2():
    """No command, an unknown command, or an abbreviated option is bad usage."""
    for args in ((), ("plot",), ("spectrum", "--lev", "3"), ("count", "--tm", "5"),
                 ("field", "--n", "1", "--lc", "1", "--gr", "9"), ("--vers",)):
        result = invoke(*args)
        assert result.exit_code == 2, args
        assert result.stdout == ""
        assert "error:" in result.stderr


def test_version_names_the_program():
    """``python -m relbox`` is the ``relbox`` program, not ``python -m relbox``."""
    done = _run_python("-m", "relbox", "--version")
    assert (done.returncode, done.stdout) == (0, "relbox, version 0.1.0\n")


def test_out_file_matches_stdout(tmp_path):
    args = ("spectrum", "--dim", "1", "--lc", "1", "--levels", "2")
    stdout_text = invoke(*args).stdout
    target = tmp_path / "table.csv"
    result = invoke(*args, "--out", str(target))
    assert result.exit_code == 0
    assert target.read_text() == stdout_text


def test_field_boundary_rows_are_zero():
    result = invoke("field", "--dim", "1", "--n", "3", "--lc", "2", "--grid", "9")
    summary, _, rows = parse_csv(result.stdout)
    field_columns = ["re_phi", "im_phi", "re_chi", "im_chi", "rho", "j_x"]
    for boundary in (rows[0], rows[-1]):
        assert all(boundary[c] == "0" for c in field_columns)
    assert float(summary["max_abs_current"]) <= 1e-12


def test_field_summary_normalization():
    result = invoke("field", "--dim", "1", "--n", "1", "--lc", "1", "--grid", "201",
                    "--format", "json")
    payload = json.loads(result.stdout)
    assert abs(payload["summary"]["normalization"] - 1.0) <= 1e-8
    assert payload["summary"]["max_abs_current"] <= 1e-12

    conj = invoke("field", "--dim", "1", "--n", "1", "--lc", "1", "--grid", "201",
                  "--conjugate", "--format", "json")
    assert abs(json.loads(conj.stdout)["summary"]["normalization"] + 1.0) <= 1e-8


def test_field_3d_rows():
    result = invoke("field", "--dim", "3", "--n", "1,1,2", "--lc", "1",
                    "--grid", "7", "--format", "json")
    payload = json.loads(result.stdout)
    assert len(payload["rows"]) == 343
    assert abs(payload["summary"]["max_abs_current"]) <= 1e-12


@pytest.mark.parametrize("dim,n,grid", [("1", "100", "201"), ("1", "200", "201"),
                                        ("3", "1,1,2", "5")])
def test_field_rejects_aliasing_grid(dim, n, grid):
    # at most two intervals per half-wavelength: Simpson gives 4/3, ~0, 4/3
    result = invoke("field", "--dim", dim, "--n", n, "--lc", "1", "--grid", grid)
    assert result.exit_code == 2
    assert "half-wavelength" in result.stderr


def test_field_accepts_grid_just_above_aliasing():
    result = invoke("field", "--dim", "1", "--n", "99", "--lc", "1", "--grid", "201",
                    "--format", "json")
    assert result.exit_code == 0
    assert abs(json.loads(result.stdout)["summary"]["normalization"] - 1.0) <= 1e-12


def test_field_large_wavenumber_runs():
    # x = 1e4 pi / 1e-3: the amplitude identity holds only relative to
    # phi0^2 ~ 7.85e6, so phi0^2 - chi0^2 formed in floats is off by ~1e-9;
    # the quadrature must not depend on that difference
    result = invoke("field", "--dim", "1", "--n", "10000", "--lc", "0.001",
                    "--grid", "40001", "--format", "json")
    assert result.exit_code == 0, result.stderr
    assert abs(json.loads(result.stdout)["summary"]["normalization"] - 1.0) <= 1e-12


def test_field_prints_no_negative_zero():
    for fmt in ("csv", "json"):
        result = invoke("field", "--dim", "3", "--n", "1,2,1", "--lc", "1", "--grid", "9",
                        "--format", fmt)
        cells = result.stdout.replace(",", " ").replace("\n", " ").split()
        assert "-0" not in cells and "-0.0" not in cells


def test_field_validation_errors():
    assert invoke("field", "--dim", "3", "--n", "1", "--lc", "1").exit_code == 2
    assert invoke("field", "--dim", "1", "--n", "1", "--lc", "1",
                  "--grid", "10").exit_code == 2
    assert invoke("field", "--dim", "1", "--n", "1").exit_code == 2


def test_count_matches_oracle():
    result = invoke("count", "--dim", "3", "--model", "kg", "--lc", "0.5",
                    "--tmax", "17.3", "--format", "json")
    payload = json.loads(result.stdout)
    assert payload["rows"][0]["count"] == lattice_count((0.5,) * 3, 17.3, 10)


def test_count_dirac_dominates_kg():
    result = invoke("count", "--dim", "3", "--model", "all", "--lc", "0.5",
                    "--tmax", "25", "--format", "json")
    rows = {r["model"]: r["count"] for r in json.loads(result.stdout)["rows"]}
    assert rows["dirac"] >= rows["kg"]


def test_count_below_ground_level_is_zero():
    result = invoke("count", "--dim", "3", "--model", "all", "--lc", "300",
                    "--tmax", "1e-6", "--format", "json")
    assert all(r["count"] == 0 for r in json.loads(result.stdout)["rows"])


def test_count_1d_kg_beyond_the_enumeration_bound_is_the_closed_form():
    """318628 levels exceed the 1D enumeration bound; counting needs none."""
    result = invoke("count", "--dim", "1", "--model", "kg", "--lc", "1000",
                    "--tmax", "1000", "--format", "json")
    assert result.exit_code == 0
    closed_form = math.floor(1000.0 * math.sqrt(1000.0 * 1002.0) / math.pi)
    assert json.loads(result.stdout)["rows"][0]["count"] == closed_form == 318628


def test_count_3d_kg_beyond_the_enumeration_bound():
    """Indices up to 318 on the unit cube: counted by columns, no lattice cap."""
    result = invoke("count", "--dim", "3", "--model", "kg", "--lc", "1",
                    "--tmax", "1000", "--format", "json")
    assert result.exit_code == 0
    assert json.loads(result.stdout)["rows"][0]["count"] == 16817874


def test_count_rejects_an_infinite_cutoff():
    result = invoke("count", "--dim", "3", "--model", "kg", "--tmax", "inf")
    assert result.exit_code == 2
    assert "finite" in result.stderr


def test_count_capacity_exit_code_only_for_spin_half_shell_solves():
    result = invoke("count", "--dim", "3", "--model", "dirac", "--lc", "1",
                    "--tmax", "300")
    assert result.exit_code == 4
    assert "lattice bound" in result.stderr


def test_count_1d_beyond_float64_resolution_exit_code():
    result = invoke("count", "--dim", "1", "--lc", "1e300", "--tmax", "1e10")
    assert result.exit_code == 4
    assert "float64" in result.stderr


def test_overflowing_energy_exit_code():
    """At L = 1e-160 the spin-0 kinetic energy overflows to NaN: exit 4, not
    a table of NaN rows."""
    result = invoke("spectrum", "--dim", "1", "--model", "kg", "--lc", "1e-160")
    assert result.exit_code == 4
    assert "overflows float64" in result.stderr
    assert "lattice bound" not in result.stderr


def test_count_with_overflowing_energies_below_the_cutoff_is_zero():
    """At L = 1e-160 every |x|^2 overflows, so every energy is above the
    cutoff 1: counts of 0, not a refusal."""
    result = invoke("count", "--dim", "1", "--lc", "1e-160", "--tmax", "1")
    assert result.exit_code == 0
    _, _, rows = parse_csv(result.stdout)
    assert [(r["model"], r["count"]) for r in rows] == [("kg", "0"), ("dirac", "0"),
                                                        ("nonrel", "0")]


def test_tolerance_is_not_an_option():
    """The solver tolerances are module constants: ``--tol`` is bad usage."""
    for command in ("spectrum", "count"):
        result = invoke(command, "--tmax", "1", "--tol", "1e-12")
        assert result.exit_code == 2
        assert "--tol" in result.stderr


def test_capacity_exit_code():
    result = invoke("spectrum", "--dim", "3", "--model", "kg", "--lc", "1",
                    "--tmax", "1000")
    assert result.exit_code == 4
    assert "lattice bound" in result.stderr


def _no_convergence(*args, **kwargs):
    raise ConvergenceError("no convergence for indices (1, 1, 1)", iterations=500)


def test_field_grid_beyond_memory_exit_code():
    """A grid of 1e14 + 1 points needs 800 TB, more than any address space:
    numpy refuses the allocation at once, and the command exits 4."""
    result = invoke("field", "--dim", "1", "--n", "1", "--lc", "1",
                    "--grid", "100000000000001")
    assert result.exit_code == 4
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "100000000000001" in result.stderr


def test_solver_failure_exit_code(monkeypatch):
    monkeypatch.setattr("relbox.spectra.enumerate_levels", _no_convergence)
    result = invoke("spectrum", "--dim", "3", "--model", "dirac", "--lc", "1")
    assert result.exit_code == 3
    assert "(1, 1, 1)" in result.stderr


def test_main_raises_every_failure_exit(monkeypatch, capsys):
    """``cli.main`` returns None on success and raises ``SystemExit`` with the
    failure code otherwise: in-process callers see every failure raised."""

    def exit_code(*args):
        with pytest.raises(SystemExit) as exc:
            cli.main(args=list(args), prog_name="relbox", standalone_mode=False)
        return exc.value.code

    assert cli.main(args=["count", "--dim", "1", "--tmax", "5"], prog_name="relbox",
                    standalone_mode=False) is None
    assert exit_code("spectrum", "--lev", "3") == 2
    assert exit_code("spectrum", "--dim", "3", "--model", "kg", "--lc", "1",
                     "--tmax", "1000") == 4
    monkeypatch.setattr("relbox.spectra.enumerate_levels", _no_convergence)
    assert exit_code("spectrum", "--dim", "3", "--model", "dirac", "--lc", "1") == 3
    assert "no convergence" in capsys.readouterr().err


def test_annotate_units_electron_matches_quoted_size():
    table = {"lc": [300.0], "kinetic": [1.0]}
    out = annotate_units(table, "electron")
    # quoted as "about 1.15 angstrom" at two digits
    assert abs(out["box_angstrom"][0] - 1.15) <= 0.01
    assert "box_angstrom" not in table


def test_annotate_units_pion():
    out = annotate_units({"lc": [1.0]}, "pion")
    assert out["box_fm"][0] == pytest.approx(1.41, rel=1e-12)


def test_annotate_units_none_is_identity():
    table = {"lc": [2.0]}
    assert annotate_units(table, "none") == table
    with pytest.raises(ValueError):
        annotate_units(table, "muon")


def test_preset_flag_adds_column():
    result = invoke("spectrum", "--dim", "1", "--model", "kg", "--lc", "300",
                    "--levels", "1", "--preset", "electron", "--format", "json")
    row = json.loads(result.stdout)["rows"][0]
    assert row["box_angstrom"] == pytest.approx(1.158, rel=1e-12)


def test_preset_annotates_each_axis_of_explicit_lengths():
    args = ("spectrum", "--dim", "3", "--lengths", "1,2,4", "--preset", "electron",
            "--levels", "2")
    rows = json.loads(invoke(*args, "--format", "json").stdout)["rows"]
    assert rows
    for row in rows:
        assert row["lc"] == [1.0, 2.0, 4.0]
        assert row["box_angstrom"] == [v * 3.86e-3 for v in (1.0, 2.0, 4.0)]
    _, header, csv_rows = parse_csv(invoke(*args).stdout)
    assert header[-1] == "box_angstrom"
    cell = ";".join(f"{v * 3.86e-3:.17g}" for v in (1.0, 2.0, 4.0))
    assert [r["box_angstrom"] for r in csv_rows] == [cell] * len(rows)


# -- the column emitter -----------------------------------------------------

def test_fmt_joins_each_item_by_its_own_shape():
    """A list holding any list is '|'-joined, each list item ';'-joined;
    whether the first item is a list does not decide it."""
    assert _fmt([[], 0.0]) == "|0"
    assert _fmt([0.5, [1, 2]]) == "0.5|1;2"
    assert _fmt([[1, 2], [3]]) == "1;2|3"
    assert _fmt([[1, 2]]) == "1;2"
    assert _fmt([1.5, 2]) == "1.5;2"
    assert _fmt([]) == ""


def _old_csv(rows, summary):
    """The per-cell CSV emitter the column emitter replaced."""
    lines = [f"# {key}={_fmt(value)}" for key, value in (summary or {}).items()]
    if rows:
        columns = list(rows[0].keys())
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


_EDGE_FLOATS = (0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                1e16, 1e-7, 0.1, float("inf"), float("-inf"), float("nan"))
floats = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
scalars = st.one_of(floats, st.integers(-2**70, 2**70), st.booleans(), st.none(),
                    st.text(max_size=4))
json_cells = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
# the cell shapes the CSV format has: scalars, ';'-lists and '|'-lists of ';'-lists
csv_cells = st.one_of(scalars, st.lists(scalars, max_size=3),
                      st.lists(st.lists(scalars, max_size=3), min_size=1, max_size=3))


@st.composite
def tables(draw, cells):
    """(rows as dicts, the same table as columns); float columns may be arrays."""
    names = draw(st.lists(st.one_of(st.text(max_size=4), st.sampled_from(["%", "%s", "a%d"])),
                          min_size=1, max_size=5, unique=True))
    nrows = draw(st.integers(0, 6))
    column_of = st.sampled_from(["float", "constant", "int", "any"])
    columns = {}
    for name in names:
        kind = draw(column_of)
        if kind == "constant":
            values = [draw(floats)] * nrows
        else:
            values = draw(st.lists({"float": floats, "int": st.integers(-2**70, 2**70),
                                    "any": cells}[kind], min_size=nrows, max_size=nrows))
        columns[name] = values
    rows = [{name: columns[name][i] for name in names} for i in range(nrows)]
    as_arrays = draw(st.booleans())
    table = {name: np.array(values, dtype=float)
             if as_arrays and nrows and all(type(v) is float for v in values) else values
             for name, values in columns.items()}
    return rows, table


def summaries(cells):
    return st.one_of(st.none(), st.dictionaries(st.text(max_size=4), cells, max_size=3))


@settings(deadline=None, max_examples=300)
@given(tables(json_cells), st.dictionaries(st.text(max_size=4), json_cells, max_size=3),
       summaries(json_cells))
def test_render_json_matches_json_dumps(table, config, summary):
    rows, columns = table
    payload = {"config": config, "rows": rows, "summary": summary}
    assert _render(columns, config, summary, "json") == json.dumps(payload, indent=2) + "\n"
    assert _render(_columns(rows), config, summary, "json") == json.dumps(payload, indent=2) + "\n"


@settings(deadline=None, max_examples=300)
@given(tables(csv_cells), summaries(csv_cells))
def test_render_csv_matches_per_cell_format(table, summary):
    rows, columns = table
    assert _render(columns, {}, summary, "csv") == _old_csv(rows, summary)
    assert _render(_columns(rows), {}, summary, "csv") == _old_csv(rows, summary)
