"""CLI and problem-file tests: parsing round-trips, report files,
determinism, and the exit-code contract."""

import json
import os

import numpy as np
import pytest

from dirpareto import problemfile
from dirpareto.cli import main
from dirpareto.problemfile import ProblemFileError, normalize, parse_problem

SADDLE_DOC = {
    "schema_version": 1,
    "dim_in": 2,
    "objective": {"builtin": "saddle_x2_y2"},
    "K": [[1.0]],
    "L": {"finite": [[1, 0], [-1, 0]]},
    "point": [0, 0],
    "grid": {"levels": 9, "rays_per_level": 8},
}

CIRCLE_DOC = dict(SADDLE_DOC, L={"full_sphere": True})


def _write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# problem files

def test_parse_problem_builds_equivalent_problem():
    p = parse_problem(SADDLE_DOC)
    assert p.f.dim_in == 2
    assert p.grid.levels == 9
    assert np.allclose(p.x0, [0.0, 0.0])


def test_normalize_round_trip_idempotent():
    n1 = normalize(SADDLE_DOC)
    n2 = normalize(n1)
    assert n1 == n2
    p1, p2 = parse_problem(SADDLE_DOC), parse_problem(n1)
    assert p1.xbar == p2.xbar and p1.grid == p2.grid
    assert np.allclose(p1.L.matrix, p2.L.matrix)


def test_normalize_scales_directions_to_unit():
    doc = dict(SADDLE_DOC, L={"finite": [[2, 0]]})
    n = normalize(doc)
    assert np.allclose(n["L"]["finite"], [[1.0, 0.0]])


def test_parse_rejects_bad_schema_and_fields():
    with pytest.raises(ProblemFileError):
        parse_problem(dict(SADDLE_DOC, schema_version=99))
    bad = dict(SADDLE_DOC)
    del bad["point"]
    with pytest.raises(ProblemFileError):
        parse_problem(bad)
    with pytest.raises(ProblemFileError):
        parse_problem(dict(SADDLE_DOC, objective={"mystery": 1}))


def test_expression_and_constraint_objective():
    doc = {
        "schema_version": 1, "dim_in": 1,
        "objective": {"expressions": ["x0"]},
        "K": [[1.0]], "L": {"finite": [[1.0]]}, "point": [0.0],
        "constraint": {"mu": ["-x0"]},
    }
    p = parse_problem(doc)
    assert p.constraint is not None
    assert p.f(np.array([0.5]))[0] == 0.5


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ProblemFileError):
        problemfile.load(str(path))


# ---------------------------------------------------------------------------
# exit codes

def test_certify_exit_0_and_report(tmp_path):
    path = _write(tmp_path, SADDLE_DOC)
    code = main(["certify", "--problem", path, "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "certify.report.json").read_text())
    assert rep["schema_version"] == 1
    assert rep["command"] == "certify"
    assert rep["report"]["verdict"] == "certified_on_grid"
    assert (tmp_path / "certify.points.csv").exists()


def test_certify_exit_2_on_refutation(tmp_path):
    path = _write(tmp_path, CIRCLE_DOC)
    code = main(["certify", "--problem", path, "--out", str(tmp_path)])
    assert code == 2
    rep = json.loads((tmp_path / "certify.report.json").read_text())
    assert rep["report"]["verdict"] == "refuted"
    assert "counterexample" in rep["report"]


def test_exit_1_on_missing_file(tmp_path, capsys):
    code = main(["certify", "--problem", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_exit_1_on_malformed_problem(tmp_path):
    path = _write(tmp_path, {"schema_version": 1, "dim_in": 2})
    code = main(["certify", "--problem", path, "--out", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize("command, doc", [
    ("certify", dict(SADDLE_DOC, dim_in=1, L={"finite": [[1.0]]}, point=[0.0],
                     objective={"expressions": ["x0 +* 2"]})),
    ("certify", dict(SADDLE_DOC, dim_in=1, L={"finite": [[1.0]]}, point=[0.0],
                     objective={"expressions": ["1/x0"]})),
    ("gerstewitz", {"K": [[1.0, 0.0], [0.0, 1.0]], "e": [1.0, -1.0],
                    "y": [3.0, -1.0]}),
    ("certify", dict(SADDLE_DOC, grid=[9, 8])),
    ("certify", dict(SADDLE_DOC, grid=[])),
    ("certify", dict(SADDLE_DOC, L={"finite": [[0, 0], [1, 0]]})),
], ids=["bad-expression", "evaluation-error", "e-outside-int-K",
        "grid-not-object", "grid-empty-list", "zero-direction"])
def test_exit_1_single_error_line(tmp_path, capsys, command, doc):
    path = _write(tmp_path, doc)
    code = main([command, "--problem", path, "--out", str(tmp_path)])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("command, doc", [
    ("certify", SADDLE_DOC),
    ("certify-set", {"set": {"polyhedron": {"rows": [[1, 0], [0, 1]],
                                            "offsets": [0, 0]}},
                     "K": [[1.0, 0.0], [0.0, 1.0]], "L": {"full_sphere": True},
                     "point": [0.0, 0.0],
                     "grid": {"levels": 5, "rays_per_level": 16}}),
])
def test_new_out_directory_is_created(tmp_path, command, doc):
    path = _write(tmp_path, doc)
    out = tmp_path / "new" / "reports"
    assert main([command, "--problem", path, "--out", str(out)]) == 0
    assert (out / f"{command}.report.json").is_file()


def test_grid_flags_override_file(tmp_path):
    path = _write(tmp_path, SADDLE_DOC)
    code = main(["certify", "--problem", path, "--out", str(tmp_path),
                 "--levels", "3", "--rays", "4"])
    assert code == 0
    csv = (tmp_path / "certify.points.csv").read_text().strip().splitlines()
    assert len(csv) == 1 + 2 * 3  # header + 2 finite rays x 3 levels


# ---------------------------------------------------------------------------
# determinism

def test_reports_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    path = _write(tmp_path, CIRCLE_DOC)
    assert main(["certify", "--problem", path, "--out", str(a)]) == 2
    assert main(["certify", "--problem", path, "--out", str(b)]) == 2
    assert (a / "certify.report.json").read_bytes() == \
        (b / "certify.report.json").read_bytes()
    assert (a / "certify.points.csv").read_bytes() == \
        (b / "certify.points.csv").read_bytes()


# ---------------------------------------------------------------------------
# other subcommands

def test_gerstewitz_command_value(tmp_path):
    doc = {"K": [[1.0, 0.0], [0.0, 1.0]], "e": [1.0, 1.0], "y": [3.0, -1.0]}
    path = _write(tmp_path, doc)
    code = main(["gerstewitz", "--problem", path, "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "gerstewitz.report.json").read_text())
    assert abs(rep["value"] - 3.0) <= 1e-9


def test_tangent_command_exact_polyhedral(tmp_path):
    doc = {"set": {"polyhedron": {"rows": [[1, 0], [0, 1]],
                                  "offsets": [0, 0]}},
           "point": [0, 0], "direction": [1, 0],
           "L": {"finite": [[1, 0], [-1, 0]]}}
    path = _write(tmp_path, doc)
    assert main(["tangent", "--problem", path, "--out", str(tmp_path)]) == 0
    doc["direction"] = [-1, 0]
    path = _write(tmp_path, doc)
    assert main(["tangent", "--problem", path, "--out", str(tmp_path)]) == 2


def test_kkt_command_both_codes(tmp_path):
    doc = {"schema_version": 1, "dim_in": 1,
           "objective": {"expressions": ["x0"]},
           "K": [[1.0]], "L": {"finite": [[1.0]]}, "point": [0.0],
           "e": [1.0]}
    path = _write(tmp_path, doc)
    assert main(["kkt", "--problem", path, "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "kkt.report.json").read_text())
    assert abs(rep["multipliers"]["ystar"][0] - 1.0) <= 1e-9
    doc["L"] = {"finite": [[-1.0]]}
    path = _write(tmp_path, doc)
    assert main(["kkt", "--problem", path, "--out", str(tmp_path)]) == 2


def test_mintime_command(tmp_path):
    doc = {"dim": 2, "L": {"finite": [[1.0, 0.0]]}, "point": [0.0, 0.0],
           "target": {"point": [2.0, 0.0]}}
    path = _write(tmp_path, doc)
    code = main(["mintime", "--problem", path, "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "mintime.report.json").read_text())
    assert abs(rep["value"] - 2.0) <= 1e-9


def test_certify_set_writes_svg(tmp_path):
    doc = {"set": {"polyhedron": {"rows": [[1, 0], [0, 1]],
                                  "offsets": [0, 0]}},
           "K": [[1.0, 0.0], [0.0, 1.0]],
           "L": {"full_sphere": True}, "point": [0.0, 0.0],
           "grid": {"levels": 5, "rays_per_level": 16}}
    path = _write(tmp_path, doc)
    code = main(["certify-set", "--problem", path, "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "certify-set.svg").exists()


# ---------------------------------------------------------------------------
# examples subcommand

def test_examples_list(capsys):
    assert main(["examples", "list"]) == 0
    out = capsys.readouterr().out
    assert "saddle-x2-y2" in out and "cardioid-tangent" in out


def test_examples_run_exit_codes(tmp_path):
    small = ["--levels", "6", "--rays", "16"]
    assert main(["examples", "run", "saddle-x2-y2",
                 "--out", str(tmp_path)] + small) == 0
    assert main(["examples", "run", "sin-inv-x",
                 "--out", str(tmp_path)] + small) == 2
    assert main(["examples", "run", "no-such-example",
                 "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("flags", [["--levels", "0"], ["--levels", "-1"],
                                   ["--radius", "0"], ["--rays", "0"]])
def test_examples_run_rejects_bad_grid_flags(tmp_path, capsys, flags):
    code = main(["examples", "run", "saddle-x2-y2", "--out", str(tmp_path)]
                + flags)
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "examples.report.json").exists()
