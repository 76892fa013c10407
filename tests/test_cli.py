"""Command-line interface: schemas, determinism, exit codes, units."""

import ast
import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

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

# The figure tables of the benchmark's ``count`` workload, as captured in
# ``perfbench/reference``.
FIGURE_TABLES = {
    "spectrum_dim1.csv": ("spectrum", "--dim", "1", "--model", "all", "--lc", "1,10,100,300",
                          "--levels", "4"),
    "spectrum_dim1.json": ("spectrum", "--dim", "1", "--model", "all", "--lc", "1,10,100,300",
                           "--levels", "4", "--format", "json"),
    "spectrum_dim3.csv": ("spectrum", "--dim", "3", "--model", "all", "--lc", "1,10,100,300",
                          "--levels", "4"),
    "spectrum_dim3.json": ("spectrum", "--dim", "3", "--model", "all", "--lc", "1,10,100,300",
                           "--levels", "4", "--format", "json"),
    "count_dim3_lc0.5.csv": ("count", "--dim", "3", "--lc", "0.5", "--tmax", "25"),
}


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
        # spin-1/2 roots within an ulp of the tangent pole and of n pi
        ("count", "--dim", "1", "--lengths", "1e11", "--model", "dirac",
         "--tmax", "1000"),
        ("spectrum", "--dim", "1", "--lc", "1e17"),
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


@pytest.mark.parametrize("name", FIGURE_TABLES)
def test_figure_tables_match_reference_bytes(name):
    result = invoke(*FIGURE_TABLES[name])
    assert result.exit_code == 0
    assert result.stdout_bytes == (REFERENCE_DIR / name).read_bytes()


def _src_env():
    """The environment of a fresh interpreter that imports relbox from ``src/``."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _run_python(*args, timeout=60, preexec_fn=None, text=True):
    """A fresh interpreter, run with ``args``, that imports relbox from ``src/``."""
    return subprocess.run([sys.executable, *args], env=_src_env(), capture_output=True,
                          text=text, timeout=timeout, preexec_fn=preexec_fn)


def test_cli_import_leaves_scipy_unloaded():
    """Neither scipy, click, dataclasses nor inspect is imported with the CLI."""
    code = ("import relbox.cli, sys; assert not any(m.partition('.')[0] in "
            "('scipy', 'click', 'dataclasses', 'inspect') for m in sys.modules)")
    done = _run_python("-c", code)
    assert done.returncode == 0, done.stderr


def test_spectrum_count_and_version_leave_numpy_unloaded():
    """Only ``field`` loads numpy and ``relbox.fields``; no command needs click,
    and none loads dataclasses (numpy itself loads inspect)."""
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
        "assert 'dataclasses' not in sys.modules and 'inspect' not in sys.modules\n"
        "assert run(['field', '--n', '1', '--lc', '1']) is None\n"
        "assert 'numpy' in sys.modules and 'relbox.fields' in sys.modules\n"
        "assert 'dataclasses' not in sys.modules\n"
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


@pytest.mark.parametrize("args, option", [
    (("spectrum", "--lc", "a,b"), "--lc"),
    (("field", "--n", "x", "--lc", "1"), "--n"),
    (("field", "--n", "0", "--lc", "1"), "--n"),
    (("spectrum", "--dim", "3", "--lengths", "1,2"), "--lengths"),
    (("count", "--dim", "1", "--lengths", "1,2", "--tmax", "1"), "--lengths"),
    (("spectrum", "--levels", "0"), "--levels"),
    (("spectrum", "--tmax", "0"), "--tmax"),
    (("spectrum", "--tmax", "inf"), "--tmax"),
    (("count", "--tmax", "inf"), "--tmax"),
    (("count",), "--tmax"),
    (("field", "--lc", "1,2", "--n", "1"), "--lc"),
], ids=["lc-not-floats", "n-not-ints", "n-zero", "lengths-3d-count", "lengths-1d-count",
        "levels-zero", "spectrum-tmax-zero", "spectrum-tmax-inf", "count-tmax-inf",
        "count-without-tmax", "field-two-lc"])
def test_invalid_option_values_exit_2_naming_the_option(args, option):
    """Each refused value is bad usage: exit 2, nothing on stdout, and the
    error line (after the usage text) names the option."""
    result = invoke(*args)
    assert result.exit_code == 2
    assert result.stdout == ""
    error = result.stderr.splitlines()[-1]
    assert "error:" in error
    assert option in error


@pytest.mark.parametrize("args, line", [
    (("spectrum", "--lc", "1,-1"), "argument --lc: entries must be positive and finite, got -1.0"),
    (("field", "--n", "0", "--lc", "1"), "argument --n: entries must be an integer >= 1, got 0"),
    (("spectrum", "--levels", "0"), "argument --levels: entries must be an integer >= 1, got 0"),
    (("spectrum", "--tmax", "inf"), "argument --tmax: entries must be positive and finite, got inf"),
], ids=["lc-negative", "n-zero", "levels-zero", "tmax-inf"])
def test_a_refused_option_value_is_named_in_the_error_line(args, line):
    """An option's entries are checked by the library's own rule, whose
    message names the refused value after the option."""
    result = invoke(*args)
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr.splitlines()[-1].endswith(f"error: {line}")


def test_an_even_or_too_small_grid_is_refused_by_its_option():
    """``--grid`` takes an odd count >= 3, refused in argparse's
    ``argument --grid:`` form before any sampling."""
    for grid in ("4", "1", "2.5"):
        result = invoke("field", "--dim", "1", "--n", "1", "--lc", "1", "--grid", grid)
        assert result.exit_code == 2 and result.stdout == ""
        assert result.stderr.splitlines()[-1].endswith(
            f"error: argument --grid: need an odd count >= 3, got '{grid}'")


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


def test_field_summary_does_not_depend_on_blas_threads_or_cpus():
    """The quadrature sums in a fixed order, not through BLAS: one BLAS thread
    on one CPU prints the same bytes, ``normalization`` included."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("needs os.sched_setaffinity")
    args = ("-m", "relbox", "field", "--dim", "1", "--n", "3", "--lc", "1",
            "--grid", "100001", "--format", "json")
    default = _run_python(*args)
    assert default.returncode == 0, default.stderr
    cpu = min(os.sched_getaffinity(0))
    with mock.patch.dict(os.environ, OPENBLAS_NUM_THREADS="1"):
        pinned = _run_python(*args, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    assert pinned.returncode == 0, pinned.stderr
    assert pinned.stdout == default.stdout


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
    # neither the quadrature nor the density may depend on that difference.
    # At L = 1e-16 the two squares are ~1e24 and their difference ~2e16.
    for n, lc, grid in (10000, 0.001, 40001), (1, 1e-16, 5):
        result = invoke("field", "--dim", "1", "--n", str(n), "--lc", str(lc),
                        "--grid", str(grid), "--format", "json")
        assert result.exit_code == 0, result.stderr
        payload = json.loads(result.stdout)
        assert abs(payload["summary"]["normalization"] - 1.0) <= 1e-12
        # rho = (2 / L) sin^2(x_n x), the sine argument rounded as the library
        # rounds it (x_n = n pi / L, then x_n x): one rounding of an argument
        # ~3e4 moves the sine by ~4e-12
        x_n = n * math.pi / lc
        for row in payload["rows"]:
            expected = 2.0 / lc * math.sin(x_n * row["x"]) ** 2
            assert abs(row["rho"] - expected) <= 1e-12 * 2.0 / lc, (n, lc, row)


def test_field_prints_no_negative_zero():
    for fmt in ("csv", "json"):
        result = invoke("field", "--dim", "3", "--n", "1,2,1", "--lc", "1", "--grid", "9",
                        "--format", fmt)
        cells = result.stdout.replace(",", " ").replace("\n", " ").split()
        assert "-0" not in cells and "-0.0" not in cells


@pytest.mark.parametrize("args, code", [
    (("--dim", "1", "--n", "1", "--lc", "1e-154"), 4),
    (("--dim", "3", "--n", "1,1,1", "--lengths", "1e200,1e-200,1"), 4),
    (("--dim", "3", "--n", "1,1,1", "--lc", "1e-110"), 4),
    (("--dim", "3", "--n", "1,1,1", "--lc", "1e-103"), 4),
    (("--dim", "3", "--n", "1,1,1", "--lc", "4e-103"), 4),
    (("--dim", "3", "--n", "1,1,1", "--lc", "1e110"), 4),
    (("--dim", "1", "--n", "1", "--lc", "1e300"), 0),
    (("--dim", "3", "--n", "1,1,1", "--lc", "1e300"), 4),
], ids=["1d-1e-154", "3d-lengths-1e200-1e-200", "3d-1e-110", "3d-1e-103", "3d-4e-103",
        "3d-1e110", "1d-1e300", "3d-1e300"])
def test_field_at_the_float64_extremes_answers_or_refuses(args, code):
    """Where the state's |x|^2 overflows, 2^d / volume is 0 or infinite, or
    the stationarity residual overflows (the cube 4e-103), ``field`` exits 4
    with one error line and writes nothing.  In the 1D box 1e300 every
    step's square overflows: its second differences are 0 and it answers."""
    result = invoke("field", *args, "--grid", "5")
    assert result.exit_code == code
    if code:
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    else:
        assert result.stderr == ""
        summary, _, _ = parse_csv(result.stdout)
        assert summary == {"normalization": "0.99999999999999989", "max_abs_current": "0",
                           "stationarity_residual": "0"}


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
    """Indices up to 318 on the unit cube: counted by columns, within the walk
    budget."""
    result = invoke("count", "--dim", "3", "--model", "kg", "--lc", "1",
                    "--tmax", "1000", "--format", "json")
    assert result.exit_code == 0
    assert json.loads(result.stdout)["rows"][0]["count"] == 16817874


def test_count_rejects_an_infinite_cutoff():
    result = invoke("count", "--dim", "3", "--model", "kg", "--tmax", "inf")
    assert result.exit_code == 2
    assert "finite" in result.stderr


def test_count_of_a_spin_half_shell_up_to_index_96_answers():
    """Shell modes of the unit cube at T = 300 reach index 96 on an axis, in
    1839 solves: the count (checked against an independent count in
    ``tests/test_spectra.py``) answers."""
    result = invoke("count", "--dim", "3", "--model", "dirac", "--lc", "1",
                    "--tmax", "300", "--format", "json")
    assert result.exit_code == 0
    assert json.loads(result.stdout)["rows"][0]["count"] == 457573


_WALK_BUDGET_REFUSAL = "3D lattice walk visits more columns and shell modes than the walk budget"


@pytest.mark.parametrize("args", [
    pytest.param(("--lc", "1", "--tmax", "30000", "--model", "dirac"), id="30000"),
    pytest.param(("--lc", "1", "--tmax", "1e12", "--model", "dirac"), id="1e12"),
    pytest.param(("--lc", "1", "--tmax", "1e12", "--model", "kg"), id="kg-1e12"),
    pytest.param(("--lc", "1e6", "--tmax", "1", "--model", "kg"), id="kg-lc-1e6"),
    pytest.param(("--lc", "1", "--tmax", "1e8", "--model", "nonrel"), id="nonrel-1e8"),
    pytest.param(("--lengths", "1,1,1e10", "--tmax", "10"), id="chain-merged-1e10"),
])
def test_count_far_past_the_lattice_bound_is_refused_at_once(args):
    """A 3D count whose walk passes the walk budget is refused as the walk
    passes it, before any solve, not after listing the whole shell (which ran
    for minutes and grew to gigabytes at ``--tmax 1e12``) or walking every
    column (~1e22 of them for kg at ``--tmax 1e12``).  Along the 1e10 axis
    the levels merge in one chain, so no depth of the shell settles the
    count.  Each exits 4 within seconds, inside a 1 GB address space."""
    resource = pytest.importorskip("resource")
    limit = 1 << 30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    done = _run_python("-m", "relbox", "count", "--dim", "3", *args, timeout=10,
                       preexec_fn=cap_address_space)
    assert done.returncode == 4, done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert f"{_WALK_BUDGET_REFUSAL} 100000" in done.stderr


@pytest.mark.parametrize("args, message", [
    (("count", "--dim", "3", "--lc", "1", "--tmax", "30000", "--model", "dirac"),
     f"{_WALK_BUDGET_REFUSAL} 100000"),
    (("spectrum", "--dim", "3", "--lc", "1", "--tmax", "1e6", "--model", "kg"),
     f"{_WALK_BUDGET_REFUSAL} 100000"),
    (("spectrum", "--dim", "1", "--lc", "1", "--levels", "200000", "--model", "kg"),
     "1D enumeration needs 200000 levels, above the walk budget 100000"),
    (("count", "--dim", "1", "--lc", "1e300", "--tmax", "1e10"),
     "count needs indices above 2**53 (float64 resolution)"),
    (("count", "--dim", "3", "--model", "kg", "--lc", "1e308", "--tmax", "1e150"),
     "count needs indices above 2**53 (float64 resolution)"),
    (("count", "--dim", "1", "--lc", "1e-300", "--tmax", "1e300"),
     "|x|^2 at kinetic energy 1.0000000010000002e+300 overflows float64"),
    (("spectrum", "--dim", "1", "--lc", "1", "--tmax", "1e300"),
     "|x|^2 at kinetic energy 1.0000000010000002e+300 overflows float64"),
    (("count", "--dim", "3", "--lc", "1e-300", "--tmax", "1e300"),
     "|x|^2 at kinetic energy 1.0000000010000002e+300 overflows float64"),
    (("spectrum", "--dim", "1", "--model", "kg", "--lc", "1e-160", "--levels", "4"),
     "kinetic energy of indices (1,) in box (1e-160,) overflows float64"),
    (("spectrum", "--dim", "1", "--model", "dirac", "--lc", "1e-300", "--levels", "3"),
     "kinetic energy of indices (1,) in box (1e-300,) overflows float64"),
    (("spectrum", "--dim", "3", "--model", "dirac", "--lc", "2.244e-154", "--levels", "5"),
     f"kinetic energy of indices (1, 1, 1) in box {(2.244e-154,) * 3} overflows float64"),
    (("count", "--dim", "3", "--model", "dirac", "--lc", "2.244e-154", "--tmax", "1.25e154"),
     f"kinetic energy of indices (1, 1, 1) in box {(2.244e-154,) * 3} overflows float64"),
], ids=["count-3d-30000", "spectrum-3d", "spectrum-1d", "count-1d", "count-3d-index",
        "count-1d-overflow", "spectrum-1d-overflow", "count-3d-overflow",
        "spectrum-1d-kg-level-overflow", "spectrum-1d-dirac-level-overflow",
        "spectrum-3d-dirac-spin0-square-overflow", "count-3d-dirac-spin0-square-overflow"])
def test_capacity_refusal_names_its_bound_once(args, message):
    """Each refusal is the library's own message on one line, exit 4."""
    result = invoke(*args)
    assert result.exit_code == 4
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["missing-dir", "a-dir"])
def test_unwritable_out_is_one_error_line(tmp_path, target):
    """An ``--out`` that cannot be opened is one error line naming it, exit 1;
    nothing is created."""
    out = tmp_path / target
    result = invoke("count", "--tmax", "5", "--out", str(out))
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert repr(str(out)) in result.stderr
    assert list(tmp_path.iterdir()) == []


def test_count_1d_beyond_float64_resolution_exit_code():
    result = invoke("count", "--dim", "1", "--lc", "1e300", "--tmax", "1e10")
    assert result.exit_code == 4
    assert "float64" in result.stderr


def test_overflowing_energy_exit_code():
    """At L = 1e-160 the spin-0 kinetic energy overflows to +inf: exit 4, not
    a table of NaN or inf rows."""
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
    assert "walk budget" in result.stderr


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


@pytest.mark.parametrize("dim, n", [(1, "1"), (3, "1,1,1")])
def test_field_grid_past_numpy_indexing_exit_code(monkeypatch, dim, n):
    """A grid whose arrays hold more bytes than numpy can index is refused
    like one too large to allocate (exit 4, one error line), before any
    array of the grid is made."""

    def no_axes(*args, **kwargs):
        raise AssertionError("grid axes allocated")

    monkeypatch.setattr("relbox.fields.GridSpec.axes", no_axes)
    grid = "9999999999999999999"
    result = invoke("field", "--dim", str(dim), "--n", n, "--lc", "1", "--grid", grid)
    assert result.exit_code == 4
    assert result.stdout == ""
    assert result.stderr == (f"error: a grid of {grid} points per axis does not fit in memory "
                             "(more bytes than numpy can index)\n")


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("target, line", [
    ("relbox.cli._column", "out of memory"),
    ("relbox.fields.BoxState.evaluate", "a grid of 201 points per axis does not fit in memory"),
], ids=["emission", "evaluation"])
def test_memory_error_without_a_message_is_one_plain_line(monkeypatch, target, line):
    """A bare MemoryError, as a failed allocation raises it, adds no empty
    parentheses to its error line."""
    monkeypatch.setattr(target, _out_of_memory)
    result = invoke("field", "--dim", "1", "--n", "1", "--lc", "1")
    assert result.exit_code == 4
    assert result.stdout == ""
    assert result.stderr == f"error: {line}\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_field_emission_beyond_memory_exit_code(monkeypatch, tmp_path, fmt):
    """Running out of memory while the table is written is the same
    refusal as while it is built: exit 4, one error line, no --out file."""
    monkeypatch.setattr(cli, "_column", _out_of_memory)
    out = tmp_path / "field.txt"
    result = invoke("field", "--dim", "1", "--n", "1", "--lc", "1", "--format", fmt,
                    "--out", str(out))
    assert result.exit_code == 4
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert not out.exists()
    result = invoke("field", "--dim", "1", "--n", "1", "--lc", "1", "--format", fmt)
    assert result.exit_code == 4 and result.stdout == ""


def test_field_json_keeps_its_own_peak_memory_small(tmp_path):
    """The 1D JSON table of 100001 rows is written a block of rows at a time:
    the process's own peak RSS stays far below the ~106 MB that building the
    whole text at once took."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status")
    code = (
        "import sys\n"
        "from relbox.cli import main\n"
        "main(['field', '--dim', '1', '--n', '3', '--lc', '1', '--grid', '100001',\n"
        "      '--format', 'json', '--out', sys.argv[1]])\n"
        "print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM:')))\n"
    )
    done = _run_python("-c", code, str(tmp_path / "field.json"))
    assert done.returncode == 0, done.stderr
    peak_kb = int(done.stdout.split()[1])
    assert peak_kb < 75 * 1024, f"VmHWM {peak_kb} kB"


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


def _text(*args):
    """What ``_render`` writes: its pieces, joined."""
    return "".join(_render(*args))


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
    nrows = draw(st.integers(0, 7))
    column_of = st.sampled_from(["float", "constant", "pooled", "int", "any"])
    columns = {}
    for name in names:
        kind = draw(column_of)
        if kind == "constant":
            values = [draw(floats)] * nrows
        elif kind == "pooled":  # few distinct values: the dedupe path of arrays
            pool = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), floats),
                                 min_size=1, max_size=3))
            values = draw(st.lists(st.sampled_from(pool), min_size=nrows, max_size=nrows))
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
    with mock.patch.object(cli, "_BLOCK_ROWS", 3):
        assert _text(columns, config, summary, "json") == json.dumps(payload, indent=2) + "\n"
        assert (_text(_columns(rows), config, summary, "json")
                == json.dumps(payload, indent=2) + "\n")


@settings(deadline=None, max_examples=300)
@given(tables(csv_cells), summaries(csv_cells))
def test_render_csv_matches_per_cell_format(table, summary):
    rows, columns = table
    with mock.patch.object(cli, "_BLOCK_ROWS", 3):
        assert _text(columns, {}, summary, "csv") == _old_csv(rows, summary)
        assert _text(_columns(rows), {}, summary, "csv") == _old_csv(rows, summary)


@pytest.mark.parametrize("args, fmt", [
    (("--dim", "3", "--n", "1,2,3", "--grid", "41"), "csv"),
    (("--dim", "1", "--n", "8", "--grid", "100001"), "json"),
])
def test_render_field_tables_of_the_workload_shapes(monkeypatch, args, fmt):
    """The field tables of the benchmark's two shapes, many blocks long and
    with columns of few distinct values, render as the per-cell formatter
    (CSV) and ``json.dumps`` (JSON) write them."""
    seen = []

    def render(*call):
        seen.append(call)
        return _render(*call)

    monkeypatch.setattr(cli, "_render", render)
    result = invoke("field", *args, "--lc", "1", "--format", fmt)
    assert result.exit_code == 0
    [(table, config, summary, _)] = seen
    rows = [dict(zip(table, cells)) for cells in zip(*(c.tolist() for c in table.values()))]
    assert len(rows) > 4 * cli._BLOCK_ROWS
    if fmt == "csv":
        assert result.stdout == _old_csv(rows, summary)
    else:
        payload = {"config": config, "rows": rows, "summary": summary}
        assert result.stdout == json.dumps(payload, indent=2) + "\n"


# Field tables of many blocks, as (arguments, whether rows are formatted by
# workers).  A table of more than one block is split over the CPUs where a
# column still formats cell by cell; the 3D CSV table is not, as its cells
# are all formatted strings (every column has few distinct values).
MULTI_BLOCK_FIELDS = {
    "1d-json-13-blocks": (("--dim", "1", "--n", "3", "--grid", "100001", "--format", "json"),
                          True),
    "3d-csv-9-blocks": (("--dim", "3", "--n", "1,2,3", "--grid", "41"), False),
    "1d-csv-conjugate": (("--dim", "1", "--n", "7", "--grid", "100001", "--conjugate"), True),
    "1d-json-2-blocks-and-1-row": (("--dim", "1", "--n", "2", "--grid", str(2 * 8192 + 1),
                                    "--format", "json"), True),
}


def _affinity(monkeypatch, cpus: int):
    """Pretend the process may run on ``cpus`` CPUs; returns the list of
    worker pids that ``os.fork`` hands back to the process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forked, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forked


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("case", MULTI_BLOCK_FIELDS)
def test_field_bytes_do_not_depend_on_the_cpu_count(monkeypatch, tmp_path, case):
    """1, 2 and 3 CPUs write the same bytes, to stdout and to ``--out``; a
    table of more than one block forks one worker per CPU past the first, and
    every worker is reaped by the time the command returns."""
    args, forks = MULTI_BLOCK_FIELDS[case]
    assert cli._BLOCK_ROWS == 8192
    outputs = {}
    for cpus in (1, 2, 3):
        forked = _affinity(monkeypatch, cpus)
        result = invoke("field", *args, "--lc", "1")
        assert result.exit_code == 0 and result.stderr == ""
        out = tmp_path / f"field-{cpus}.txt"
        assert invoke("field", *args, "--lc", "1", "--out", str(out)).exit_code == 0
        assert out.read_bytes() == result.stdout_bytes
        assert len(forked) == (2 * (cpus - 1) if forks else 0)
        _assert_no_child_left()
        outputs[cpus] = result.stdout_bytes
    assert outputs[2] == outputs[1] and outputs[3] == outputs[1]


def _broken_child_formatting():
    """Formatting fails in the child: ``block`` looks ``itertools`` up at call time."""
    cli.itertools = None


def _killed_child():
    import signal

    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("child", [_broken_child_formatting, _killed_child])
@pytest.mark.parametrize("args", [
    ("field", "--dim", "1", "--n", "3", "--lc", "1", "--grid", "100001", "--format", "json"),
    ("spectrum", "--dim", "1", "--model", "kg", "--lc", "1", "--levels", "9000"),
], ids=["field-1d-json", "spectrum-9000-rows"])
def test_failed_row_worker_fails_the_command(monkeypatch, tmp_path, child, args):
    """A worker that fails or is killed makes the command exit 4 with one
    error line, never 0 with truncated output, and leaves no process behind."""
    _affinity(monkeypatch, 2)
    fork = os.fork

    def failing_fork():
        pid = fork()
        if pid == 0:
            child()
        return pid

    monkeypatch.setattr(os, "fork", failing_fork)
    result = invoke(*args)
    assert result.exit_code == 4
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "row-formatting worker" in result.stderr
    assert "does not fit in memory" not in result.stderr
    assert "out of memory" not in result.stderr
    _assert_no_child_left()


@pytest.mark.parametrize("existing", [None, b"an earlier table\n"], ids=["absent", "present"])
def test_failed_row_worker_leaves_out_as_it_was(monkeypatch, tmp_path, existing):
    """The process writes its own rows before it reaps a worker; when the
    worker failed, ``--out`` is left absent, or unchanged where it existed,
    and no temporary file is left beside it."""
    _affinity(monkeypatch, 2)
    fork = os.fork

    def failing_fork():
        pid = fork()
        if pid == 0:
            _broken_child_formatting()
        return pid

    monkeypatch.setattr(os, "fork", failing_fork)
    out = tmp_path / "field.json"
    if existing is not None:
        out.write_bytes(existing)
    result = invoke("field", "--dim", "1", "--n", "3", "--lc", "1", "--grid", "100001",
                    "--format", "json", "--out", str(out))
    assert result.exit_code == 4
    assert "row-formatting worker exited with status 1" in result.stderr
    if existing is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert list(tmp_path.iterdir()) == [out] and out.read_bytes() == existing
    _assert_no_child_left()


def _open_fds():
    """The descriptors open in this process, where ``/proc/self/fd`` lists them."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.mark.parametrize("cpus", [2, 3])
def test_row_worker_that_cannot_start_fails_the_command(monkeypatch, cpus):
    """A fork refused for want of processes (EAGAIN) makes the command exit 4
    with one error line naming the worker, after the workers already started
    are killed and reaped; no memory file is left open."""
    forked = _affinity(monkeypatch, cpus)
    fork = os.fork

    def fork_until_the_last():
        if len(forked) == cpus - 2:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", fork_until_the_last)
    fds = _open_fds()
    result = invoke("field", "--dim", "1", "--n", "3", "--lc", "1", "--grid", "100001",
                    "--format", "json")
    assert result.exit_code == 4
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "row-formatting worker could not start" in result.stderr
    assert len(forked) == cpus - 2
    _assert_no_child_left()
    assert _open_fds() == fds


def test_row_worker_without_a_memory_file_fails_the_command(monkeypatch):
    """A memory file refused for want of descriptors (EMFILE) makes the
    command exit 4 with one error line naming the worker; nothing is forked
    and no descriptor is left open."""
    forked = _affinity(monkeypatch, 2)

    def no_descriptor(name):
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    monkeypatch.setattr(os, "memfd_create", no_descriptor)
    fds = _open_fds()
    result = invoke("field", "--dim", "1", "--n", "3", "--lc", "1", "--grid", "100001",
                    "--format", "json")
    assert result.exit_code == 4
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "row-formatting worker could not start" in result.stderr
    assert forked == []
    _assert_no_child_left()
    assert _open_fds() == fds


def test_without_memory_files_the_process_formats_every_row(monkeypatch):
    """Where ``os.memfd_create`` is missing, the process counts one CPU and
    formats a multi-block table alone, into the bytes that 2 CPUs write."""
    args = ("field", *MULTI_BLOCK_FIELDS["1d-json-2-blocks-and-1-row"][0], "--lc", "1")
    forked = _affinity(monkeypatch, 2)
    shared = invoke(*args)
    assert shared.exit_code == 0 and len(forked) == 1
    monkeypatch.delattr(os, "memfd_create")
    assert cli._cpus() == 1
    assert invoke(*args) == shared
    assert len(forked) == 1
    _assert_no_child_left()


class _ClosingStdout:
    """A stdout that takes the first two pieces written, then fails."""

    def __init__(self, error):
        self.error = error

    def writelines(self, pieces):
        next(pieces), next(pieces)
        raise self.error


@pytest.mark.parametrize("error", [BrokenPipeError, KeyboardInterrupt])
def test_workers_are_reaped_before_a_write_error_propagates(monkeypatch, error):
    """An exception while the table is written kills and reaps every worker
    before ``main`` maps it to an exit code (a closed pipe: exit 1) or lets
    it propagate: while the traceback, and so the unfinished row generator,
    is still alive."""
    forked = _affinity(monkeypatch, 3)
    monkeypatch.setattr(sys, "stdout", _ClosingStdout(error))
    expected = SystemExit if error is BrokenPipeError else error
    with pytest.raises(expected) as raised:
        cli.main(["field", "--dim", "1", "--n", "3", "--lc", "1", "--grid", "100001"])
    assert len(forked) == 2 and raised.traceback
    if error is BrokenPipeError:
        assert raised.value.code == 1
    _assert_no_child_left()


def test_closed_stdout_pipe_ends_quietly():
    """A reader that closes the pipe early ends the command with exit 1 and
    nothing on stderr, not a traceback, and leaves no worker behind."""
    with subprocess.Popen(
        [sys.executable, "-m", "relbox", "field", "--dim", "1", "--n", "3", "--lc", "1",
         "--grid", "100001", "--format", "json"],
        env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    ) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
    with pytest.raises(ProcessLookupError):  # the command's process group is empty
        os.killpg(proc.pid, 0)


def _run_buffered(*args, stdout=subprocess.PIPE, preexec_fn=None):
    """``_run_python(*args)`` with a block-buffered stdout on ``stdout``, in bytes."""
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)  # stdout stays buffered until a flush
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=60, preexec_fn=preexec_fn)


def _into_closed_pipe(*args):
    """``python -m relbox *args`` with stdout on a pipe whose reader is gone."""
    reader, writer = os.pipe()
    os.close(reader)
    try:
        return _run_buffered("-m", "relbox", *args, stdout=writer)
    finally:
        os.close(writer)


def test_output_to_an_already_closed_pipe_ends_quietly():
    """A table small enough to sit in the stdout buffer until exit meets a
    pipe whose reader is gone: still exit 1 and nothing on stderr."""
    done = _into_closed_pipe("count", "--tmax", "5")
    assert done.returncode == 1
    assert done.stderr == b""


@pytest.mark.parametrize("args", [("--help",), ("--version",), ("count", "--help")],
                         ids=["help", "version", "count-help"])
def test_help_and_version_into_a_closed_pipe_end_quietly(args):
    """argparse prints help and the version into the stdout buffer and exits
    0 before anything is flushed: the process's own flush meets the closed
    pipe, and it too exits 1 with nothing on stderr."""
    done = _into_closed_pipe(*args)
    assert done.returncode == 1
    assert done.stderr == b""


def test_help_past_the_file_size_limit_is_one_error_line(tmp_path):
    """Help text that cannot be flushed into its file is output not written:
    exit 1 and one ``error:`` line, as for a table."""
    import resource

    _, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    with open(tmp_path / "help.txt", "wb") as out:
        done = _run_buffered("-m", "relbox", "--help", stdout=out,
                             preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (0, hard)))
    assert done.returncode == 1
    assert done.stderr.startswith(b"error: ") and done.stderr.count(b"\n") == 1


@pytest.mark.parametrize("code, args", [
    (0, ("spectrum", "--dim", "1", "--lc", "1", "--levels", "2")),
    (1, ("count", "--tmax", "5", "--out", "{tmp}/missing/x.csv")),
    (2, ("spectrum", "--lev", "3")),
    (4, ("count", "--dim", "3", "--lc", "1", "--tmax", "1e12", "--model", "dirac")),
], ids=["0-table", "1-unwritable-out", "2-usage", "4-capacity"])
def test_process_prints_and_exits_as_main_does(tmp_path, code, args):
    """``python -m relbox`` writes the stdout and stderr of ``cli.main`` run in
    process, and exits with its code."""
    args = [arg.format(tmp=tmp_path) for arg in args]
    result = invoke(*args)
    assert result.exit_code == code
    done = _run_python("-m", "relbox", *args)
    assert (done.returncode, done.stdout, done.stderr) == (code, result.stdout, result.stderr)


def test_process_writes_a_multi_block_table_whole(tmp_path):
    """A table of three blocks, formatted by forked workers, reaches stdout
    and ``--out`` complete, in the bytes that ``cli.main`` writes in process."""
    args = ("field", "--dim", "1", "--n", "2", "--lc", "1", "--grid", str(2 * 8192 + 1),
            "--format", "json")
    expected = invoke(*args).stdout_bytes
    assert len(json.loads(expected)["rows"]) == 2 * 8192 + 1
    done = _run_python("-m", "relbox", *args, text=False)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == expected
    out = tmp_path / "field.json"
    done = _run_python("-m", "relbox", *args, "--out", str(out), text=False)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    assert out.read_bytes() == expected


# ``relbox.__main__.run`` with ``cli.main`` replaced by ``sys.argv[1]``, and an
# exit handler that reports whether interpreter teardown ran.
_PATCHED_RUN = (
    "import atexit, sys\n"
    "import relbox.cli\n"
    "def main():\n"
    "    exec(sys.argv[1])\n"
    "relbox.cli.main = main\n"
    "from relbox.__main__ import run\n"
    "atexit.register(print, 'teardown ran')\n"
    "run()\n"
)


@pytest.mark.parametrize("statement", [
    "raise SystemExit", "raise SystemExit(None)", "raise SystemExit(3)",
    "raise SystemExit(True)", "raise SystemExit('no table')", "print('table')",
])
def test_process_exits_as_cpython_does_without_teardown(statement):
    """``run`` gives the exit code and stderr that CPython gives the
    ``SystemExit`` of ``main`` (0 on return), flushes the buffered stdout,
    and ends the process without running exit handlers."""
    done = _run_buffered("-c", _PATCHED_RUN, statement)
    plain = _run_buffered("-c", statement)
    assert (done.returncode, done.stdout, done.stderr) == (
        plain.returncode, plain.stdout, plain.stderr)
    assert b"teardown ran" not in done.stdout


@pytest.mark.parametrize("given, seen", [(None, "1"), ("3", "3")], ids=["unset", "set"])
def test_process_starts_openblas_with_one_thread_unless_told(given, seen):
    """``run`` sets ``OPENBLAS_NUM_THREADS`` to 1 before ``main`` where it is
    unset (no command makes a BLAS call, and the default thread pool slows
    numpy's import) and keeps a value the caller gave; ``cli.main`` called in
    a process leaves the environment as it is."""
    with mock.patch.dict(os.environ):
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
        if given is not None:
            os.environ["OPENBLAS_NUM_THREADS"] = given
        done = _run_python("-c", _PATCHED_RUN,
                           "import os; print(os.environ['OPENBLAS_NUM_THREADS'])")
        assert invoke("--version").exit_code == 0
        assert os.environ.get("OPENBLAS_NUM_THREADS") == given
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{seen}\n", "")


def test_process_lets_any_other_exception_propagate():
    """An exception other than ``SystemExit`` prints its traceback and exits
    1 after the usual teardown."""
    done = _run_python("-c", _PATCHED_RUN, "raise RuntimeError('no luck')")
    assert done.returncode == 1
    assert done.stderr.startswith("Traceback (most recent call last):")
    assert done.stderr.endswith("RuntimeError: no luck\n")
    assert done.stdout == "teardown ran\n"


def test_console_script_runs_what_python_m_relbox_runs():
    """The installed ``relbox`` script names the function that
    ``python -m relbox`` calls under its ``__main__`` guard."""
    text = (REPO / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        assert 'relbox = "relbox.__main__:run"' in text.splitlines()
    else:
        assert tomllib.loads(text)["project"]["scripts"] == {"relbox": "relbox.__main__:run"}
    tree = ast.parse((REPO / "src" / "relbox" / "__main__.py").read_text())
    [guard] = [node for node in tree.body if isinstance(node, ast.If)]
    assert ast.unparse(guard) == "if __name__ == '__main__':\n    run()"


def test_commands_import_only_the_modules_they_use():
    """CSV output runs without ``json``, and ``field`` compiles neither the
    root solvers nor the level tables."""
    code = (
        "import sys\n"
        "sys.modules['json'] = None  # any import of json now fails\n"
        "from relbox.cli import main\n"
        "main(['field', '--n', '2', '--lc', '1', '--grid', '9'])\n"
        "assert 'relbox.spectra' not in sys.modules, 'spectra'\n"
        "assert 'relbox.rootfind' not in sys.modules, 'rootfind'\n"
        "main(['count', '--dim', '1', '--tmax', '5'])\n"
        "main(['spectrum', '--dim', '3', '--lc', '1', '--levels', '2'])\n"
    )
    done = _run_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("# n_rows=") == 2


@pytest.mark.parametrize("name", FIGURE_TABLES)
def test_figure_tables_never_fork(monkeypatch, name):
    """Tables of one block are formatted in the process: with 3 CPUs and an
    ``os.fork`` that raises, the figure tables keep their reference bytes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})

    def no_fork():
        raise AssertionError("a one-block table forked")

    monkeypatch.setattr(os, "fork", no_fork)
    result = invoke(*FIGURE_TABLES[name])
    assert result.exit_code == 0
    assert result.stdout_bytes == (REFERENCE_DIR / name).read_bytes()
