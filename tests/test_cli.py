"""CLI and problem-file tests: parsing round-trips, report files,
determinism, and the exit-code contract."""

import contextlib
import copy
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirpareto import cli, problemfile
from dirpareto.cli import main
from dirpareto.gallery import GALLERY, gallery_names, run_example
from dirpareto.problemfile import ProblemFileError, normalize, parse_problem

from oracles import rational_feasible

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
# the difference quotient of the objective overflows in the x0 column
FD_OVERFLOW_DOC = dict(SADDLE_DOC, objective={"expressions": ["x0 * 1e308 * 10 + x1"]},
                       directions=[[1, 0], [-2, 0]], e=[1.0])
G_OVERFLOW_DOC = dict(SADDLE_DOC, g={"expressions": ["x0 * 1e308 * 10 + x1"]}, Q=[[1.0]])
G_DIMENSION_DOC = dict(SADDLE_DOC, g={"builtin": "identity_1"}, Q=[[1.0]])
# fields that parse alone but do not fit the problem's spaces
POLYHEDRON_3D = {"polyhedron": {"rows": [[1, 0, 0]], "offsets": [0]}}
WRONG_SPACE_DOCS = {
    "Q-3d-on-scalar-g": ("fritz-john", dict(SADDLE_DOC, g={"expressions": ["x0"]},
                                            Q=[[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                         "Q: cone has dimension 3, expected 1"),
    "constraint-3d": ("certify", dict(SADDLE_DOC, constraint=POLYHEDRON_3D),
                      "constraint: set has dimension 3, expected 2"),
    "constraint-cardioid-1d": ("certify", dict(SADDLE_DOC, dim_in=1, objective={"expressions": ["x0"]},
                                               L={"finite": [[1]]}, point=[0],
                                               constraint={"named": "cardioid"}),
                               "constraint: set has dimension 2, expected 1"),
    "penalized-A-3d": ("penalized", dict(SADDLE_DOC, A=POLYHEDRON_3D),
                       "A: set has dimension 3, expected 2"),
    "penalized-e-3": ("penalized", dict(SADDLE_DOC, objective={"expressions": ["x0", "x1"]},
                                        K=[[1, 0], [0, 1]],
                                        A={"polyhedron": {"rows": [[1, 0]], "offsets": [0]}},
                                        vector_mode={"e": [1, 1, 1], "ell": 10}),
                      "vector_mode.e: expected 2 numbers, got [1, 1, 1]"),
    "penalized-vector-objective-scalar-mode": (
        "penalized", dict(SADDLE_DOC, objective={"expressions": ["x0", "x1"]}, K=[[1, 0], [0, 1]],
                          A={"polyhedron": {"rows": [[1, 0]], "offsets": [0]}}),
        "vector_mode: required for an objective with 2 outputs"),
}
# '²' passes str.isdigit but is no decimal digit, so 'x²' names no variable
SUPERSCRIPT_DOC = dict(SADDLE_DOC, objective={"expressions": ["x² - x1^2"]})
# the comparison and boolean tokens lex, but no rule of the grammar takes them
COMPARISON_OBJECTIVES = {
    "objective-less-than": ("x0 < 1", "unexpected trailing input '<' (at position 3)"),
    "objective-and": ("x0 > 0 and x1", "unexpected trailing input '>' (at position 3)"),
    "objective-or": ("x0 or x1", "unexpected trailing input 'or' (at position 3)"),
    "objective-not-equal": ("x0 != 1", "unexpected trailing input '!=' (at position 3)"),
    "objective-equal-in-parentheses": ("(x0 == 1)", "expected ')', found '==' (at position 4)"),
    "objective-less-equal-in-call": ("sin(x0 <= 1)", "expected ')', found '<=' (at position 7)"),
}
CIRCLE_64 = [[np.cos(a), np.sin(a)] for a in np.arange(64) * (2.0 * np.pi / 64)]
OPEN_IDENTITY_DOC = {"schema_version": 1, "dim_in": 2, "objective": {"builtin": "identity_2"},
                     "K": [[1, 0], [0, 1]], "L": {"finite": CIRCLE_64}, "point": [0, 0],
                     "C": {"finite": [[0.6, 0.8]]}}
GOLDEN = os.path.join(os.path.dirname(__file__), "cli_golden")


def _golden_problem(name):
    """The problem document of the CLI golden ``name``."""
    with open(os.path.join(GOLDEN, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)["problem"]


PENALIZED_VECTOR_DOC = _golden_problem("penalized-vector-mode")
# e = (1, 0) lies on the boundary of K = R2+: y* = (0, 1) gives y*(e) = 0,
# so an LP normalised by y*(e) = 1 would miss it and answer none
BOUNDARY_E_DOC = {"schema_version": 1, "dim_in": 2, "objective": {"expressions": ["x0", "x1^2"]},
                  "K": [[1, 0], [0, 1]], "L": {"finite": [[1, 0], [-1, 0]]}, "point": [0, 0],
                  "A": {"polyhedron": {"rows": [[1, 0]], "offsets": [-5]}},
                  "vector_mode": {"e": [1, 0], "ell": 10}}
# documents that each print one pinned error line: (argv, doc, line)
ERROR_LINES = {
    "objective-superscript-digit": (
        ["certify"], SUPERSCRIPT_DOC, "error: objective: unknown identifier 'x²' (at position 0)"),
    **{name: (["certify"], dict(SADDLE_DOC, objective={"expressions": [text]}),
              f"error: objective: {message}")
       for name, (text, message) in COMPARISON_OBJECTIVES.items()},
    "objective-variable-range": (
        ["certify"], dict(SADDLE_DOC, objective={"expressions": ["x5 + x0"]}),
        "error: objective: variable x5 out of range for dim 2"),
    "constraint-variable-range": (
        ["certify"], dict(SADDLE_DOC, constraint={"mu": ["x7 - 1"]}),
        "error: constraint: variable x7 out of range for dim 2"),
    "openness-negative-r": (
        ["openness"], dict(OPEN_IDENTITY_DOC, r_schedule=[-0.1]),
        "error: r_schedule entries must be positive and finite, got -0.1"),
    "openness-negative-eps": (
        ["openness"], dict(OPEN_IDENTITY_DOC, eps_schedule=[-0.5]),
        "error: eps_schedule entries must be positive and finite, got -0.5"),
    "penalized-negative-ell": (
        ["penalized"], dict(PENALIZED_VECTOR_DOC, vector_mode={"e": [1, 1], "ell": -1}),
        "error: vector mode bound ell must be nonnegative, got -1.0"),
    "penalized-e-on-the-boundary-of-K": (
        ["penalized"], BOUNDARY_E_DOC, "error: e must be strictly interior to K"),
    "objective-sqrt-of-a-negative-number": (
        ["certify"], dict(SADDLE_DOC, objective={"expressions": ["sqrt(x0 - 1)"]}),
        "error: sqrt of a negative number"),
    "objective-division-by-zero": (
        ["certify"], dict(SADDLE_DOC, objective={"expressions": ["1/x0"]}),
        "error: division by zero"),
    "penalized-negative-tiny-ell": (
        ["penalized"], dict(PENALIZED_VECTOR_DOC, vector_mode={"e": [1, 1], "ell": -1e-12}),
        "error: vector mode bound ell must be nonnegative, got -1e-12"),
    "first-order-no-direction": (
        ["first-order"], dict(_golden_problem("first-order-violated"), directions=[]),
        "error: no direction to check"),
    "first-order-zero-direction": (
        ["first-order"], dict(_golden_problem("first-order-violated"), directions=[[0, 0]]),
        "error: direction [0.0, 0.0] is zero: not admissible"),
    "openness-empty-eps": (
        ["openness"], dict(_golden_problem("openness-identity"), eps_schedule=[]),
        "error: eps_schedule is empty: nothing to search"),
    "openness-empty-r": (
        ["openness"], dict(_golden_problem("openness-identity"), r_schedule=[]),
        "error: r_schedule is empty: nothing to search"),
}
# deeper than the interpreter's recursion limit: in the parser and in ``json``
DEEP_PARENS_DOC = dict(SADDLE_DOC, objective={"expressions": ["(" * 20000 + "x0" + ")" * 20000]})
DEEP_K_TEXT = json.dumps(dict(SADDLE_DOC, K="deep")).replace(
    '"deep"', "[" * 100000 + "]" * 100000)


def _write(tmp_path, doc, name="problem.json"):
    """Write ``doc`` as JSON, or as is when it is already text."""
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
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
    assert np.allclose(p1.L.vectors, p2.L.vectors)


def test_normalize_scales_directions_to_unit():
    doc = dict(SADDLE_DOC, L={"finite": [[2, 0]]})
    n = normalize(doc)
    assert np.allclose(n["L"]["finite"], [[1.0, 0.0]])


@pytest.mark.parametrize("direction, unit", [
    ([1e308, 1e308], [0.7071067811865475, 0.7071067811865475]),
    ([1e200, 1], [1.0, 1e-200]),
    ([1e-160, 1e-160], [0.7071067811865475, 0.7071067811865475]),
    ([5e-324, 0], [1.0, 0.0]),
    ([1e-155, 0], [1.0, 0.0]),
])
def test_normalize_scales_directions_of_any_magnitude_to_unit(direction, unit):
    """A direction whose norm overflows or underflows normalizes to the
    unit vector of its direction."""
    n = normalize(dict(SADDLE_DOC, L={"finite": [direction]}))
    assert n["L"]["finite"] == [unit]


def test_the_zero_direction_is_still_rejected(tmp_path):
    code, err, reports = _run(["certify"], dict(SADDLE_DOC, L={"finite": [[0, 0]]}),
                              str(tmp_path))
    assert (code, reports) == (1, [])
    assert err == ["error: L.finite: direction 0 is the zero vector [0.0, 0.0]"]


# f = (x0, -x1) with K and L the orthant: the image of (-s, s) is (-s, -s)
# in -int K, but (-s, s) lies outside cone L at any scale s
SCALED_FIRST_ORDER_DOC = {
    "schema_version": 1, "dim_in": 2, "objective": {"expressions": ["x0", "-x1"]},
    "K": [[1, 0], [0, 1]], "L": {"finite": [[1, 0], [0, 1]]}, "point": [0, 0]}


@pytest.mark.parametrize("direction", [[-1, 1], [-1e160, 1e160], [-1e300, 1e300]])
def test_first_order_rejects_a_direction_outside_cone_L_at_any_scale(tmp_path, direction):
    code, err, reports = _run(["first-order"], dict(SCALED_FIRST_ORDER_DOC, directions=[direction]),
                              str(tmp_path))
    assert (code, reports) == (1, [])
    assert err == [f"error: direction {[float(c) for c in direction]} "
                   "is outside cone L: not admissible"]


@pytest.mark.parametrize("direction", [[1, 0], [1e200, 0], [1e-200, 0]])
def test_exact_tangent_member_at_any_scale(tmp_path, direction):
    """(s, 0) is tangent to the upper half plane along L's ray (1, 0) at
    any scale s."""
    doc = {"schema_version": 1, "set": {"polyhedron": {"rows": [[0, 1]], "offsets": [0]}},
           "point": [0, 0], "L": {"finite": [[1, 0], [0, 1]]}, "direction": direction}
    code, err, _ = _run(["tangent"], doc, str(tmp_path))
    with open(tmp_path / "out" / "tangent.report.json", encoding="utf-8") as fh:
        assert (code, err, json.load(fh)["status"]) == (0, [], "member")


@pytest.mark.parametrize("direction", [[1, 0], [1e308, 0]])
def test_sampled_tangent_member_at_any_scale(tmp_path, direction):
    """(s, 0) is tangent to the cardioid at its cusp at any scale s: a
    direction whose norm overflows is searched as its unit direction."""
    doc = {"schema_version": 1, "set": {"named": "cardioid"}, "point": [0, 0],
           "direction": direction}
    code, err, _ = _run(["tangent"], doc, str(tmp_path))
    with open(tmp_path / "out" / "tangent.report.json", encoding="utf-8") as fh:
        assert (code, err, json.load(fh)["status"]) == (0, [], "member")


def test_certify_samples_a_cone_section_without_interior(tmp_path):
    """L is the x2 axis in 3-D, a section no lattice direction lies on:
    its two rays are sampled and -e2 refutes the orthant's minimum."""
    doc = {"schema_version": 1, "dim_in": 3, "objective": {"expressions": ["x0", "x1", "x2"]},
           "K": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
           "L": {"cone_section": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]},
           "point": [0, 0, 0]}
    code, err, _ = _run(["certify"], doc, str(tmp_path))
    with open(tmp_path / "out" / "certify.report.json", encoding="utf-8") as fh:
        report = json.load(fh)["report"]
    assert (code, err, report["verdict"]) == (2, [], "refuted")
    assert report["counterexample"]["x"] == [0.0, 0.0, -0.5]


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


def test_certify_parses_its_document_once(tmp_path, monkeypatch):
    """The report's problem echo reuses the parsed problem (and still
    echoes the file's grid, not the one after --rays)."""
    with open(os.path.join(GOLDEN, "certify-cone-section.json"), encoding="utf-8") as fh:
        fx = json.load(fh)
    calls = []

    def counted(doc):
        calls.append(doc)
        return parse_problem(doc)

    monkeypatch.setattr(cli, "parse_problem", counted)
    monkeypatch.setattr(problemfile, "parse_problem", counted)
    path = _write(tmp_path, fx["problem"])
    code = main(["certify", "--problem", path, "--out", str(tmp_path), *fx["flags"]])
    assert code == fx["code"] and len(calls) == 1
    rep = json.loads((tmp_path / "certify.report.json").read_text())
    assert rep["problem"] == fx["report"]["problem"]


def test_exit_1_on_missing_file(tmp_path, capsys):
    code = main(["certify", "--problem", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_exit_1_on_malformed_problem(tmp_path):
    path = _write(tmp_path, {"schema_version": 1, "dim_in": 2})
    code = main(["certify", "--problem", path, "--out", str(tmp_path)])
    assert code == 1


CERTIFY_SET_DOC = {"set": {"polyhedron": {"rows": [[1, 0], [0, 1]], "offsets": [0, 0]}},
                   "K": [[1.0, 0.0], [0.0, 1.0]], "L": {"full_sphere": True},
                   "point": [0.0, 0.0], "grid": {"levels": 5, "rays_per_level": 16}}
# a reference point outside the set, for each subcommand that takes one
OUTSIDE_SET_DOCS = [
    ("certify-set", dict(CERTIFY_SET_DOC, point=[-1.0, 0.0])),
    ("tangent", {"set": CERTIFY_SET_DOC["set"], "point": [-1.0, 0.0],
                 "direction": [1.0, 0.0], "L": {"finite": [[1.0, 0.0]]}}),
    ("tangent", {"set": CERTIFY_SET_DOC["set"], "point": [-1.0, 0.0],
                 "direction": [1.0, 0.0]}),
    ("penalized", dict(SADDLE_DOC, point=[-1.0, 0.0], A=CERTIFY_SET_DOC["set"])),
]


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
    ("certify", dict(SADDLE_DOC, objective={"expressions": ["(x0 - x0)^(-1) + x1"]})),
    ("certify", dict(SADDLE_DOC, objective={"expressions": ["(x0 + 10)^400 - x1^2"]})),
    ("certify", dict(SADDLE_DOC, objective={"expressions": ["sin(x0 * 1e308 * 10) + x1"]})),
    ("first-order", FD_OVERFLOW_DOC),
    ("kkt", FD_OVERFLOW_DOC),
    ("fritz-john", FD_OVERFLOW_DOC),
    ("fritz-john", G_OVERFLOW_DOC),
    ("certify", DEEP_PARENS_DOC),
    ("certify", DEEP_K_TEXT),
    *OUTSIDE_SET_DOCS,
], ids=["bad-expression", "evaluation-error", "e-outside-int-K",
        "grid-not-object", "grid-empty-list", "zero-direction",
        "zero-base-negative-power", "power-overflow", "sin-of-inf",
        "fd-overflow-first-order", "fd-overflow-kkt", "fd-overflow-fritz-john",
        "fd-overflow-fritz-john-g", "deep-parentheses", "deep-K", "point-outside-set",
        "tangent-exact-point-outside-set", "tangent-sampled-point-outside-set",
        "penalized-point-outside-set"])
def test_exit_1_single_error_line(tmp_path, capsys, command, doc):
    path = _write(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--problem", path, "--out", str(tmp_path)])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: ")
    if doc is FD_OVERFLOW_DOC or doc is G_OVERFLOW_DOC:
        field = "objective" if doc is FD_OVERFLOW_DOC else "g"
        assert err == [f"error: {field}: the finite-difference Jacobian at [0.0, 0.0] "
                       "has non-finite entries"]
    if (command, doc) in OUTSIDE_SET_DOCS:
        assert err == ["error: reference point is not feasible"]


TANGENT_DOC = {"set": {"polyhedron": {"rows": [[1, 0], [0, 1]], "offsets": [0, 0]}},
               "point": [0, 0], "direction": [1, 0], "L": {"finite": [[1, 0], [-1, 0]]}}
MINTIME_DOC = {"L": {"finite": [[1.0, 0.0]]}, "point": [0.0, 0.0],
               "target": {"point": [2.0, 0.0]}}
GERSTEWITZ_DOC = {"K": [[1.0, 0.0], [0.0, 1.0]], "e": [1.0, 1.0], "y": [3.0, -1.0]}
# sampled tangent path: without L the default radius answers nonmember
HALF_PLANE_TANGENT_DOC = {"set": {"polyhedron": {"rows": [[1, 0]], "offsets": [0]}},
                          "point": [0, 0], "direction": [-1, 0]}


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _run(argv, doc, tmp_dir):
    """main(argv [+ --problem doc]) -> (code, stderr lines, reports written)."""
    out = os.path.join(tmp_dir, "out")
    if doc is not None:
        path = os.path.join(tmp_dir, "problem.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = argv[:1] + ["--problem", path, "--out", out] + argv[1:]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    reports = os.listdir(out) if os.path.isdir(out) else []
    return code, err.getvalue().splitlines(), reports


@pytest.mark.parametrize("argv, doc", [
    (["certify"], dict(SADDLE_DOC, L={"finite": [1, 0]})),
    (["certify"], dict(SADDLE_DOC, K=[1.0])),
    (["certify"], dict(SADDLE_DOC, L=[[1, 0]])),
    (["certify"], dict(SADDLE_DOC, point=5)),
    (["certify-set"], dict(CERTIFY_SET_DOC, point=5)),
    (["first-order"], dict(SADDLE_DOC, directions=7)),
    (["first-order"], dict(SADDLE_DOC, directions=[[1, 0, 0]])),
    (["certify-set"], dict(CERTIFY_SET_DOC, set=3)),
    (["gerstewitz"], _without(GERSTEWITZ_DOC, "y")),
    (["certify"], dict(SADDLE_DOC, objective={"expressions": [5]})),
    (["certify"], dict(SADDLE_DOC, constraint={"mu": [5]})),
    (["certify"], dict(SADDLE_DOC, dim_in=2.7)),
    (["certify"], dict(SADDLE_DOC, dim_in=True)),
    (["certify"], dict(SADDLE_DOC, grid={"levels": 2.7})),
    (["certify"], dict(SADDLE_DOC, grid={"rays_per_level": True})),
    (["certify"], dict(SADDLE_DOC, grid={"seed": 0.5})),
    (["penalized"], dict(SADDLE_DOC, A={"named": "cardioid"})),
    (["fritz-john"], G_DIMENSION_DOC),
    (["tangent", "--radius", "0"], HALF_PLANE_TANGENT_DOC),
    (["tangent", "--radius", "-1"], HALF_PLANE_TANGENT_DOC),
    (["certify", "--weak"], None),
    (["certify", "--problem", "p.json", "--levels", "abc"], None),
    (["no-such-command"], None),
    (["mintime", "--problem", "p.json", "--norm", "l3"], None),
    (["examples"], None),
    (["certify"], {"schema_version": 1, "dim_in": 1, "objective": {"expressions": ["1/x0"]},
                   "K": [[1]], "L": {"finite": [[1]]}, "point": [1e-320]}),
    (["openness"], {"schema_version": 1, "dim_in": 1, "objective": {"expressions": ["1/x0"]},
                    "K": [[1]], "L": {"finite": [[1]]}, "C": {"finite": [[1]]},
                    "point": [1e-320]}),
    (["certify"], dict(SADDLE_DOC, L={"finite": [[1, 0]]}, point=[1e200, 0])),
    (["first-order"], dict(SADDLE_DOC, objective={"builtin": "saddle_x2_y3"},
                           point=[0, 1e155], directions=[[1, 0]])),
    *(([command], doc) for command, doc, _ in WRONG_SPACE_DOCS.values()),
    *((argv, doc) for argv, doc, _ in ERROR_LINES.values()),
], ids=["L-finite-flat", "K-flat", "L-list", "point-number", "set-point-number",
        "directions-number", "directions-wrong-length", "set-number", "gerstewitz-no-y", "expression-number",
        "mu-number", "dim_in-fraction", "dim_in-bool", "levels-fraction",
        "rays-bool", "seed-fraction", "penalized-named-A", "g-dimension", "tangent-radius-0",
        "tangent-radius-negative", "no-problem-flag",
        "levels-not-int", "unknown-command", "unknown-norm", "examples-no-action",
        "objective-infinite-at-point", "openness-infinite-at-point",
        "builtin-overflows-at-point", "builtin-jacobian-overflows",
        *WRONG_SPACE_DOCS, *ERROR_LINES])
def test_malformed_input_exits_1_with_one_error_line(tmp_path, argv, doc):
    code, err, reports = _run(argv, doc, str(tmp_path))
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: ")
    assert reports == []
    for _, known, line in ERROR_LINES.values():
        if doc is known:
            assert err == [line]


# the flags each subcommand reads besides --out and --problem
GRID_FLAGS = ("--radius", "--levels", "--rays", "--seed")
READS = {"certify": GRID_FLAGS + ("--weak",), "certify-set": GRID_FLAGS + ("--weak",),
         "tangent": ("--radius",), "mintime": ("--norm",), "examples": GRID_FLAGS}
FLAG_VALUES = {"--radius": ["0.3"], "--levels": ["4"], "--rays": ["6"], "--seed": ["3"],
               "--weak": [], "--norm": ["linf"]}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in [*cli.COMMANDS, "examples"]
    for flag in FLAG_VALUES if flag not in READS.get(command, ())])
def test_flag_a_subcommand_ignores_is_a_usage_error(tmp_path, command, flag):
    argv = [command, flag, *FLAG_VALUES[flag]]
    if command == "examples":
        argv = ["examples", "run", "saddle-x2-y2", "--out", str(tmp_path / "out"), *argv[1:]]
    code, err, reports = _run(argv, None if command == "examples" else SADDLE_DOC,
                              str(tmp_path))
    assert code == 1
    assert err == [f"error: unrecognized arguments: {' '.join(argv[-1 - len(FLAG_VALUES[flag]):])}"]
    assert reports == []


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in READS.items() for flag in flags])
def test_flags_a_subcommand_reads_are_accepted(command, flag):
    head = ["examples", "run"] if command == "examples" else [command, "--problem", "p.json"]
    args = cli._parser().parse_args(head + [flag, *FLAG_VALUES[flag]])
    given = getattr(args, flag[2:])
    assert given is True if flag == "--weak" else str(given) == FLAG_VALUES[flag][0]


def test_error_line_names_the_missing_field(tmp_path):
    _, err, _ = _run(["gerstewitz"], _without(GERSTEWITZ_DOC, "y"), str(tmp_path))
    assert err[0].startswith("error: y: ")


def test_error_line_names_the_field_of_a_wrong_dimension_map(tmp_path):
    _, err, _ = _run(["fritz-john"], G_DIMENSION_DOC, str(tmp_path))
    assert err == ["error: g: g expects dimension 1, file says 2"]


@pytest.mark.parametrize("name", WRONG_SPACE_DOCS)
def test_error_line_names_the_field_in_the_wrong_space(tmp_path, name):
    command, doc, message = WRONG_SPACE_DOCS[name]
    _, err, _ = _run([command], doc, str(tmp_path))
    assert err == [f"error: {message}"]


def test_error_line_names_a_wrong_length_direction(tmp_path):
    _, err, _ = _run(["first-order"], dict(SADDLE_DOC, directions=[[1, 0], [1, 0, 0]]),
                     str(tmp_path))
    assert err == ["error: directions: expected 2 numbers, got [1, 0, 0]"]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "certify" in capsys.readouterr().out


def _fresh_python(*args):
    """``python *args`` in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def _python_m_dirpareto(*args):
    """``python -m dirpareto *args`` in a fresh interpreter."""
    return _fresh_python("-m", "dirpareto", *args)


def test_python_m_dirpareto_help_exits_0():
    done = _python_m_dirpareto("--help")
    assert done.returncode == 0
    assert "certify" in done.stdout


def test_import_leaves_the_file_parser_unloaded():
    """The gallery imports its readers when it first parses an entry."""
    done = _fresh_python("-c", "import sys, dirpareto; "
                         "print(sorted({'dirpareto.problemfile', 'json'} & set(sys.modules)))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("expression", ["(" * 195 + "x0" + ")" * 195,
                                        " + ".join(["x0"] * 800),
                                        " + ".join(["x0"] * 5000)],
                         ids=["196-parentheses", "800-term-sum", "5000-term-sum"])
def test_deep_expressions_certify_from_a_fresh_interpreter(tmp_path, expression):
    """Nesting has no limit of its own: only the interpreter's stack bounds
    it; a flat chain of `+ - * /` has no bound at all."""
    doc = dict(SADDLE_DOC, objective={"expressions": [f"({expression})^2 - x1^2"]})
    done = _python_m_dirpareto("certify", "--problem", _write(tmp_path, doc),
                               "--out", str(tmp_path))
    assert (done.returncode, done.stderr) == (0, "")


NESTED_250 = "(" * 250 + "x0" + ")" * 250


@pytest.mark.parametrize("command, doc", [
    ("certify", dict(SADDLE_DOC, objective={"expressions": [NESTED_250 + "^2 - x1^2"]})),
    ("certify", dict(SADDLE_DOC, constraint={"mu": [NESTED_250 + " - 1"]})),
    ("fritz-john", dict(SADDLE_DOC, g={"expressions": [NESTED_250 + " + x1"]}, Q=[[1.0]])),
], ids=["objective", "mu", "fritz-john-g"])
def test_250_nested_parentheses_certify_from_a_fresh_interpreter(tmp_path, command, doc):
    """A parenthesis costs the parser three frames, so 250 levels fit under
    the default recursion limit in every expression field, whatever the
    depth of the code that reads the field."""
    done = _python_m_dirpareto(command, "--problem", _write(tmp_path, doc),
                               "--out", str(tmp_path))
    assert (done.returncode, done.stderr) == (0, "")


def test_integral_floats_are_accepted(tmp_path):
    doc = dict(SADDLE_DOC, dim_in=2.0, grid={"levels": 9.0, "rays_per_level": 8.0})
    assert _run(["certify"], doc, str(tmp_path))[0] == 0


FUZZ_DOCS = {"certify": SADDLE_DOC, "tangent": TANGENT_DOC, "mintime": MINTIME_DOC,
             "gerstewitz": GERSTEWITZ_DOC}
DROP = object()
FUZZ_VALUES = [DROP, -1, 0, 0.5, 2, "x", None, [1, 0], [[1, 0]], {"x": 1}]


def _key_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


@st.composite
def _mutated_documents(draw):
    """One of the fuzz documents with one key dropped or its value replaced."""
    command = draw(st.sampled_from(sorted(FUZZ_DOCS)))
    doc = copy.deepcopy(FUZZ_DOCS[command])
    *parents, key = draw(st.sampled_from(list(_key_paths(doc))))
    node = functools.reduce(dict.__getitem__, parents, doc)
    value = draw(st.sampled_from(FUZZ_VALUES))
    if value is DROP:
        del node[key]
    else:
        node[key] = value
    return command, doc


@settings(max_examples=200, deadline=None)
@given(_mutated_documents())
def test_mutated_documents_keep_the_exit_code_contract(case):
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        code, err, _ = _run([command], doc, tmp)
    assert code in (0, 1, 2)
    assert (code == 1) == (len(err) == 1 and err[0].startswith("error: "))


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
                                   ["--radius", "0"], ["--rays", "0"],
                                   ["--radius", "inf"], ["--radius", "nan"]])
def test_examples_run_rejects_bad_grid_flags(tmp_path, capsys, flags):
    code = main(["examples", "run", "saddle-x2-y2", "--out", str(tmp_path)]
                + flags)
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "examples.report.json").exists()


# ---------------------------------------------------------------------------
# golden reports: every subcommand on committed fixtures


@pytest.mark.parametrize("name", sorted(f[:-5] for f in os.listdir(GOLDEN)))
def test_golden_report(tmp_path, capsys, name):
    """Each fixture's exit code, its report byte for byte, the sha256 of
    every other file the command writes (``files``), the report's path as
    the one stdout line, and nothing on stderr: in
    certify-sector-subnormal-point, x1 / x0 overflows at the reference
    point, a value the sector map settles and not a numpy warning."""
    with open(os.path.join(GOLDEN, name + ".json"), encoding="utf-8") as fh:
        fx = json.load(fh)
    path = _write(tmp_path, fx["problem"])
    out = tmp_path / "out"
    code = main([fx["command"], "--problem", path, "--out", str(out), *fx["flags"]])
    report = out / f"{fx['command']}.report.json"
    assert code == fx["code"] and capsys.readouterr() == (f"{report}\n", "")
    want = json.dumps(fx["report"], sort_keys=True, indent=2) + "\n"
    assert report.read_bytes() == want.encode()
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in out.iterdir() if f != report} == fx["files"]


GALLERY_GOLDEN = os.path.join(os.path.dirname(__file__), "gallery_golden")


@pytest.mark.parametrize("name", gallery_names())
def test_gallery_report_is_byte_identical(tmp_path, name):
    """``examples run`` on each gallery entry writes the pinned report and
    exits with the pinned code."""
    with open(os.path.join(GALLERY_GOLDEN, "codes.json"), encoding="utf-8") as fh:
        codes = json.load(fh)
    code, err, _ = _run(["examples", "run", name, "--out", str(tmp_path / "out")],
                        None, str(tmp_path))
    assert (code, err) == (codes[name], [])
    with open(os.path.join(GALLERY_GOLDEN, name + ".report.json"), "rb") as fh:
        assert (tmp_path / "out" / "examples.report.json").read_bytes() == fh.read()


@pytest.mark.parametrize("name", gallery_names())
def test_gallery_documents_are_cli_problem_files(tmp_path, capsys, name):
    """Each gallery run's document, given to ``dirpareto <kind>`` as a
    problem file, reproduces the run: the same certifier report, or the
    same tangent status, note and level count, with exit 0 exactly when
    the verdict is a certificate or ``member``."""
    report, _ = run_example(name)
    for (run, kind, doc, _), got in zip(GALLERY[name][1], report["runs"]):
        out = tmp_path / run
        code = main([kind, "--problem", _write(tmp_path, doc, f"{run}.json"),
                     "--out", str(out)])
        written = json.loads((out / f"{kind}.report.json").read_text())
        if kind == "tangent":
            assert {key: written[key] for key in got["report"]} == got["report"], run
            verdict = got["report"]["status"]
        else:
            assert written["report"] == json.loads(json.dumps(cli._jsonable(got["report"]))), run
            verdict = got["report"]["verdict"]
        assert code == (0 if verdict in ("certified_on_grid", "member") else 2), run
    assert capsys.readouterr().err == ""


def _in_row_cone(rows, y):
    """y = rows^T w for some w >= 0 (rows square and invertible here)."""
    w = np.linalg.solve(rows.T, y)
    return np.allclose(rows.T @ w, y) and np.all(w >= -1e-12)


@pytest.mark.parametrize("name", ["fritz-john-exists", "kkt-constraint",
                                  "penalized-vector-mode"])
def test_golden_witness_satisfies_its_rows(name):
    """These goldens pin one vertex of a set of certificates; whichever one
    the LP returns must satisfy the rows that define a certificate."""
    with open(os.path.join(GOLDEN, name + ".json"), encoding="utf-8") as fh:
        fx = json.load(fh)
    doc, rep = fx["problem"], fx["report"]
    p = parse_problem(doc)
    J, K, L = p.f.jacobian(p.x0), p.K.rows, p.L.vectors
    if name == "fritz-john-exists":
        ystar = np.array(rep["multipliers"]["ystar"])
        assert _in_row_cone(K, ystar) and np.any(ystar != 0.0)
        assert np.all(L @ (J.T @ ystar) >= 0.0)
    elif name == "kkt-constraint":
        m = rep["multipliers"]
        w, lam, ystar = (np.array(m[k]) for k in ("weights", "lambda", "ystar"))
        grads = np.array([mu.jacobian(p.x0)[0] for mu in p.constraint.mu])
        active = np.array([abs(mu(p.x0)[0]) <= 1e-9 for mu in p.constraint.mu])
        assert np.all(w >= 0.0) and np.allclose(K.T @ w, ystar)
        assert np.all(lam >= 0.0) and np.all(lam[~active] == 0.0)
        assert ystar @ np.array(doc["e"]) == pytest.approx(1.0)
        residual = J.T @ ystar + grads.T @ lam
        assert np.allclose(m["residual_in_Lpolar"], -residual)
        assert np.all(L @ residual >= 0.0)
    else:
        wit, vm = rep["witness"], doc["vector_mode"]
        ystar, xstar = np.array(wit["ystar"]), np.array(wit["xstar"])
        assert _in_row_cone(K, ystar)
        assert ystar @ np.array(vm["e"], dtype=float) == pytest.approx(1.0)
        assert np.allclose(xstar, J.T @ ystar)
        assert np.abs(xstar).sum() <= vm["ell"]
        # -x* = N^T a + q with a >= 0 over the normal-cone generators N
        # (minus the active rows of A) and L q <= 0: rows in a alone
        N = -problemfile.parse_set(doc["A"]).active_rows(p.x0)
        ge = [(row, 0.0) for row in np.eye(len(N))]
        ge += [(ell @ N.T, -float(ell @ xstar)) for ell in L]
        assert rational_feasible(len(N), ge, [])
