"""Command-line interface: schemas, determinism, exit codes, units."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from relbox.cli import annotate_units, cli
from relbox.errors import ConvergenceError
from relbox.spectra import figure_table

from oracles import lattice_count

runner = CliRunner()

REPO = Path(__file__).resolve().parents[1]
# Figure tables as printed by the commit that defined the benchmark.
REFERENCE_DIR = REPO / "perfbench" / "reference"


def invoke(*args):
    return runner.invoke(cli, list(args))


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
    _, header, rows = parse_csv(result.output)
    assert header[:4] == ["model", "dim", "lc", "qnums"]
    assert len(rows) == 36


def test_spectrum_3d_representatives():
    result = invoke("spectrum", "--dim", "3", "--model", "kg", "--lc", "300",
                    "--levels", "4")
    assert result.exit_code == 0
    _, _, rows = parse_csv(result.output)
    assert [r["qnums"] for r in rows] == ["1;1;1", "1;1;2", "1;2;2", "1;1;3"]
    assert [r["degeneracy"] for r in rows] == ["1", "3", "3", "3"]


def test_spectrum_rejects_zero_box():
    result = invoke("spectrum", "--dim", "1", "--model", "kg", "--lc", "0")
    assert result.exit_code == 2
    assert "--lc" in result.output


def test_spectrum_rejects_levels_and_tmax_together():
    result = invoke("spectrum", "--levels", "3", "--tmax", "1.0")
    assert result.exit_code == 2


def test_explicit_lc_conflicts_with_lengths():
    result = invoke("spectrum", "--dim", "3", "--lc", "1", "--lengths", "1,2,4")
    assert result.exit_code == 2
    assert "--lengths" in result.output
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
        assert first.output == second.output


def test_csv_and_json_carry_identical_values():
    args = ("spectrum", "--dim", "3", "--model", "all", "--lc", "1,300",
            "--levels", "3")
    csv_out = invoke(*args).output
    json_out = invoke(*args, "--format", "json").output
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
    payload = json.loads(result.output)
    expected = figure_table(["kg", "dirac", "nonrel"], [1.0, 10.0, 100.0, 300.0], 4, 1)
    assert payload["rows"] == expected
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


def test_cli_import_leaves_scipy_unloaded():
    code = ("import relbox.cli, sys; assert not any("
            "m == 'scipy' or m.startswith('scipy.') for m in sys.modules)")
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_out_file_matches_stdout(tmp_path):
    args = ("spectrum", "--dim", "1", "--lc", "1", "--levels", "2")
    stdout_text = invoke(*args).output
    target = tmp_path / "table.csv"
    result = invoke(*args, "--out", str(target))
    assert result.exit_code == 0
    assert target.read_text() == stdout_text


def test_field_boundary_rows_are_zero():
    result = invoke("field", "--dim", "1", "--n", "3", "--lc", "2", "--grid", "9")
    summary, _, rows = parse_csv(result.output)
    field_columns = ["re_phi", "im_phi", "re_chi", "im_chi", "rho", "j_x"]
    for boundary in (rows[0], rows[-1]):
        assert all(boundary[c] == "0" for c in field_columns)
    assert float(summary["max_abs_current"]) <= 1e-12


def test_field_summary_normalization():
    result = invoke("field", "--dim", "1", "--n", "1", "--lc", "1", "--grid", "201",
                    "--format", "json")
    payload = json.loads(result.output)
    assert abs(payload["summary"]["normalization"] - 1.0) <= 1e-8
    assert payload["summary"]["max_abs_current"] <= 1e-12

    conj = invoke("field", "--dim", "1", "--n", "1", "--lc", "1", "--grid", "201",
                  "--conjugate", "--format", "json")
    assert abs(json.loads(conj.output)["summary"]["normalization"] + 1.0) <= 1e-8


def test_field_3d_rows():
    result = invoke("field", "--dim", "3", "--n", "1,1,2", "--lc", "1",
                    "--grid", "5", "--format", "json")
    payload = json.loads(result.output)
    assert len(payload["rows"]) == 125
    assert abs(payload["summary"]["max_abs_current"]) <= 1e-12


def test_field_validation_errors():
    assert invoke("field", "--dim", "3", "--n", "1", "--lc", "1").exit_code == 2
    assert invoke("field", "--dim", "1", "--n", "1", "--lc", "1",
                  "--grid", "10").exit_code == 2
    assert invoke("field", "--dim", "1", "--n", "1").exit_code == 2


def test_count_matches_oracle():
    result = invoke("count", "--dim", "3", "--model", "kg", "--lc", "0.5",
                    "--tmax", "17.3", "--format", "json")
    payload = json.loads(result.output)
    assert payload["rows"][0]["count"] == lattice_count((0.5,) * 3, 17.3, 10)


def test_count_dirac_dominates_kg():
    result = invoke("count", "--dim", "3", "--model", "all", "--lc", "0.5",
                    "--tmax", "25", "--format", "json")
    rows = {r["model"]: r["count"] for r in json.loads(result.output)["rows"]}
    assert rows["dirac"] >= rows["kg"]


def test_count_below_ground_level_is_zero():
    result = invoke("count", "--dim", "3", "--model", "all", "--lc", "300",
                    "--tmax", "1e-6", "--format", "json")
    assert all(r["count"] == 0 for r in json.loads(result.output)["rows"])


def test_capacity_exit_code():
    result = invoke("spectrum", "--dim", "3", "--model", "kg", "--lc", "1",
                    "--tmax", "1000")
    assert result.exit_code == 4
    assert "lattice bound" in result.output


def test_solver_failure_exit_code(monkeypatch):
    def boom(*args, **kwargs):
        raise ConvergenceError("no convergence for indices (1, 1, 1)", iterations=500)

    monkeypatch.setattr("relbox.cli.enumerate_levels", boom)
    result = invoke("spectrum", "--dim", "3", "--model", "dirac", "--lc", "1")
    assert result.exit_code == 3
    assert "(1, 1, 1)" in result.output


def test_annotate_units_electron_matches_quoted_size():
    rows = [{"lc": 300.0, "kinetic": 1.0}]
    out = annotate_units(rows, "electron")
    # quoted as "about 1.15 angstrom" at two digits
    assert abs(out[0]["box_angstrom"] - 1.15) <= 0.01
    assert "box_angstrom" not in rows[0]


def test_annotate_units_pion():
    out = annotate_units([{"lc": 1.0}], "pion")
    assert out[0]["box_fm"] == pytest.approx(1.41, rel=1e-12)


def test_annotate_units_none_is_identity():
    rows = [{"lc": 2.0}]
    assert annotate_units(rows, "none") == rows
    with pytest.raises(ValueError):
        annotate_units(rows, "muon")


def test_tol_override_still_solves():
    result = invoke("spectrum", "--dim", "3", "--model", "dirac", "--lc", "1",
                    "--levels", "2", "--tol", "1e-6", "--format", "json")
    assert result.exit_code == 0
    rows = json.loads(result.output)["rows"]
    assert len(rows) == 2
    # loose tolerance still lands within it of the default-tolerance run
    tight = invoke("spectrum", "--dim", "3", "--model", "dirac", "--lc", "1",
                   "--levels", "2", "--format", "json")
    tight_rows = json.loads(tight.output)["rows"]
    for a, b in zip(rows, tight_rows):
        assert abs(a["kinetic"] - b["kinetic"]) <= 1e-6 * b["kinetic"]


def test_preset_flag_adds_column():
    result = invoke("spectrum", "--dim", "1", "--model", "kg", "--lc", "300",
                    "--levels", "1", "--preset", "electron", "--format", "json")
    row = json.loads(result.output)["rows"][0]
    assert row["box_angstrom"] == pytest.approx(1.158, rel=1e-12)
