"""End-to-end checks of the command line interface.

The CLI prints one JSON document per invocation, so every test parses
stdout and asserts on the document rather than on raw text.
"""

import contextlib
import functools
import io
import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gearpinv.verify
from gearpinv import __version__, cli
from gearpinv.cli import build_parser, main, serialize_matrix
from gearpinv.graphs import (
    _gear_distance_rows, _wheel_distance_rows, bfs_distances, build_wheel, gear_distance_closed,
)
from gearpinv.laplacian import (
    _a_rows, _b_rows, _h_rows, _laplacian_rows, a_matrix, b_matrix, h_matrix, special_laplacian,
)
from gearpinv.pinv import _formula_rows, _pinv_ints, gear_pinv_formula, rational_pinv
from gearpinv.spectral import lambda_pairs, theta


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_doc(*argv, expect=0):
    code, out, err = run_cli(*argv)
    assert code == expect, f"exit {code}, stderr: {err}"
    return json.loads(out)


GEAR_4_ROWS = [
    ["0", "1", "1", "1", "2", "2", "2"],
    ["1", "0", "2", "2", "1", "3", "1"],
    ["1", "2", "0", "2", "1", "1", "3"],
    ["1", "2", "2", "0", "3", "1", "1"],
    ["2", "1", "1", "3", "0", "2", "2"],
    ["2", "3", "1", "1", "2", "0", "2"],
    ["2", "1", "3", "1", "2", "2", "0"],
]


def test_gen_gear_distance_golden():
    doc = run_doc("gen", "gear-distance", "--n", "4")
    assert doc["kind"] == "matrix"
    assert doc["n"] == 4
    assert doc["format"] == "rational"
    assert doc["payload"] == GEAR_4_ROWS
    assert doc["metadata"]["version"] == __version__
    assert doc["metadata"]["parity"] == "even"
    assert doc["checks"] == []


def test_gen_gear_distance_decimal():
    doc = run_doc("gen", "gear-distance", "--n", "4", "--format", "decimal")
    assert doc["format"] == "decimal"
    assert doc["payload"][0] == [0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0]


def test_gen_wheel_distance_is_complete_graph_at_four():
    doc = run_doc("gen", "wheel-distance", "--n", "4")
    want = [["1"] * 4 for _ in range(4)]
    for i in range(4):
        want[i][i] = "0"
    assert doc["payload"] == want


def test_gen_tree_distance_unit():
    doc = run_doc("gen", "tree-distance", "--edges", "[[1,2],[2,3]]")
    assert doc["n"] == 3
    assert doc["metadata"]["parity"] is None
    assert doc["payload"] == [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]]


def test_gen_tree_distance_weighted():
    doc = run_doc("gen", "tree-distance", "--edges", '[[1,2,"1/2"],[2,3,"1/2"]]')
    assert doc["payload"][0] == ["0", "1/2", "1"]


def test_gen_tree_distance_refuses_decimal_beyond_float_range():
    edges = json.dumps([[1, 2, "9" * 400]])
    code, out, err = run_cli("gen", "tree-distance", "--edges", edges, "--format", "decimal")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--format rational" in err
    assert run_doc("gen", "tree-distance", "--edges", edges)["payload"][0] == ["0", "9" * 400]


def test_gen_rejects_float_weights():
    code, _, err = run_cli("gen", "tree-distance", "--edges", "[[1,2,0.5]]")
    assert code == 2
    assert "weights must be ints or strings" in err


def test_gen_rejects_small_n():
    code, _, err = run_cli("gen", "gear-distance", "--n", "3")
    assert code == 2
    assert "n must be" in err and "4" in err


def test_gen_tree_needs_edges():
    code, _, err = run_cli("gen", "tree-distance")
    assert code == 2
    assert "needs --edges" in err


def test_gen_edge_list_errors():
    for edges, fragment in [
        ("[[1,2", "cannot parse"),
        ("[[1,2],[1,2,3]]", "must all be"),
        ("[]", "empty"),
    ]:
        code, _, err = run_cli("gen", "tree-distance", "--edges", edges)
        assert code == 2
        assert fragment in err


@pytest.mark.parametrize(
    "edges, fragment",
    [
        ('[[1,2,"1/0"]]', "zero denominator"),
        ("[[1.5,2]]", "vertex ids"),
        ("[[1,2,true]]", "weights must be"),
        ("[[true,2]]", "vertex ids"),
        ('[["1",2]]', "vertex ids"),
        ("[[0,1]]", "vertex ids"),
        ("[[1,2,null]]", "weights must be"),
        ('[[1,2,"abc"]]', "bad weight"),
        ('[[1,2,"1e999999999"]]', "bad weight"),
        ('[[1,2,"-1"]]', "positive"),
        ('["ab"]', "vertex ids"),
        ("5", "cannot parse"),
    ],
)
def test_gen_tree_distance_rejects_bad_ids_and_weights(edges, fragment):
    code, out, err = run_cli("gen", "tree-distance", "--edges", edges)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and fragment in err


def test_gen_tree_distance_rejects_deeply_nested_edges():
    # The JSON decoder recurses once per bracket and gives up past the recursion limit.
    code, out, err = run_cli("gen", "tree-distance", "--edges", "[" * 100000)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "cannot parse" in err


def test_pinv_oracle_rational_golden():
    doc = run_doc("pinv", "--n", "5", "--method", "oracle")
    assert doc["format"] == "rational"
    assert doc["payload"][0][0] == "-35/162"


def test_pinv_formula_is_decimal():
    doc = run_doc("pinv", "--n", "6")
    assert doc["format"] == "decimal"
    assert doc["payload"][0][0] == pytest.approx(-0.2, abs=1e-12)
    assert doc["payload"][0][1] == pytest.approx(-0.06, abs=1e-12)


def test_pinv_formula_rejects_rational_format():
    code, _, err = run_cli("pinv", "--n", "6", "--format", "rational")
    assert code == 2
    assert "needs an exact payload" in err


def test_pinv_k4_matches_formula():
    k4 = run_doc("pinv", "--n", "5", "--method", "k4")["payload"]
    formula = run_doc("pinv", "--n", "5")["payload"]
    gap = np.abs(np.array(k4) - np.array(formula)).max()
    assert gap <= 1e-9


@pytest.mark.parametrize("n", range(4, 13))
def test_pinv_k4_is_the_oracle_rounded(n):
    k4 = run_doc("pinv", "--n", str(n), "--method", "k4")["payload"]
    oracle = run_doc("pinv", "--n", str(n), "--method", "oracle")["payload"]
    assert k4 == [[float(Fraction(entry)) for entry in row] for row in oracle]


def test_pinv_round_trips_through_gen():
    dist_doc = run_doc("gen", "gear-distance", "--n", "5")
    parsed = np.array(
        [[Fraction(entry) for entry in row] for row in dist_doc["payload"]],
        dtype=object,
    )
    rebuilt = json.loads(serialize_matrix(rational_pinv(parsed), "rational"))
    oracle_doc = run_doc("pinv", "--n", "5", "--method", "oracle")
    assert rebuilt == oracle_doc["payload"]


def _reference_payload(matrix, fmt):
    """The payload text the JSON encoder writes for the plain nested lists."""
    if fmt == "rational":
        return json.dumps([[str(Fraction(x)) for x in row] for row in matrix])
    return json.dumps([[float(x) for x in row] for row in matrix])


_NASTY = [-0.0, 0.0, math.nan, math.inf, -math.inf, 1e-300, -2.5, 5e-324, 1.0]


@pytest.mark.parametrize(
    "matrix, fmt",
    [
        (np.array([[-0.0, 0.0, math.nan], [math.inf, -math.inf, -0.0]]), "decimal"),
        (np.array([[1.0, 1.0], [1.0, 1.0]]), "decimal"),
        (np.zeros((0, 0)), "decimal"),
        (np.zeros((0, 3)), "decimal"),
        (np.zeros((3, 0)), "decimal"),
        (np.array([[3, -1], [0, 2**40]]), "decimal"),
        (
            np.array([[Fraction(1, 3), Fraction(-2, 7)], [Fraction(0), Fraction(10**30, 3)]],
                     dtype=object),
            "decimal",
        ),
        (np.array([[1, -2], [3, 0]], dtype=np.int64), "rational"),
        (np.array([[1, -2], [3, 10**30]], dtype=object), "rational"),
        (np.array([[np.int64(4), np.int64(-4)], [np.int64(0), np.int64(4)]], dtype=object),
         "rational"),
        (
            np.array([[Fraction(1, 2**70 + 1), Fraction(-3, 2**90)], [Fraction(5), 7]],
                     dtype=object),
            "rational",
        ),
        (np.zeros((0, 0), dtype=object), "rational"),
        (np.zeros((2, 0), dtype=int), "rational"),
        # Keys at both ends of int64, then one past it and an unsigned 64-bit key.
        (np.array([[2**63 - 1, -(2**63)], [0, 1]], dtype=object), "rational"),
        (np.array([[2**63 - 1, -(2**63)], [2**63, 1]], dtype=object), "rational"),
        (np.array([[2**64 - 1, 0]], dtype=np.uint64), "rational"),
    ],
)
def test_serialize_matrix_equals_encoder_on_reference_lists(matrix, fmt):
    assert serialize_matrix(matrix, fmt) == _reference_payload(matrix, fmt)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.data())
def test_serialize_matrix_equals_encoder_on_generated_floats(rows, cols, data):
    values = data.draw(st.lists(st.sampled_from(_NASTY) | st.floats(), min_size=rows * cols,
                                max_size=rows * cols))
    matrix = np.array(values, dtype=float).reshape(rows, cols)
    assert serialize_matrix(matrix, "decimal") == _reference_payload(matrix, "decimal")


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_serialize_matrix_equals_encoder_on_generated_fractions(rows, cols, data):
    entries = st.fractions(max_denominator=2**80) | st.integers(-(2**70), 2**70)
    values = data.draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    matrix = np.array(values, dtype=object).reshape(rows, cols)
    for fmt in ("rational", "decimal"):
        assert serialize_matrix(matrix, fmt) == _reference_payload(matrix, fmt)


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "gear-distance", "--n", "5"),
        ("gen", "wheel-distance", "--n", "6", "--format", "decimal"),
        ("gen", "tree-distance", "--edges", '[[1,2,"1/2"],[2,3,2]]'),
        ("pinv", "--n", "6"),
        ("pinv", "--n", "5", "--method", "oracle"),
        ("pinv", "--n", "5", "--method", "k4"),
        ("spectrum", "--n", "8"),
        ("laplacian", "--n", "7", "--part", "h"),
        ("laplacian", "--n", "6", "--part", "b", "--k", "1"),
        ("laplacian", "--n", "6"),
        ("verify", "--n", "6"),
    ],
)
def test_every_command_prints_one_compact_line(argv):
    code, out, err = run_cli(*argv)
    assert code == 0, err
    assert out.count("\n") == 1
    assert out == json.dumps(json.loads(out)) + "\n"


def test_spectrum_document():
    doc = run_doc("spectrum", "--n", "8")
    payload = doc["payload"]
    assert payload["lambda"][0] == pytest.approx(16 + math.sqrt(340))
    assert payload["lambda"][1] == pytest.approx(16 - math.sqrt(340))
    assert len(payload["theta"]) == 6
    assert payload["null_multiplicity"] == 7
    assert payload["max_residual"] <= 1e-9
    assert (payload["theta"], payload["lambda"]) == (
        [theta(8, k) for k in range(1, 7)], [value for value, _ in lambda_pairs(8)]
    )


@pytest.mark.parametrize("n", [70, 150, 300])
def test_spectrum_residual_stays_small_at_large_n(n):
    doc = run_doc("spectrum", "--n", str(n))
    assert doc["payload"]["max_residual"] <= 1e-9


def test_spectrum_rejects_rational_format():
    code, _, err = run_cli("spectrum", "--n", "8", "--format", "rational")
    assert code == 2
    assert "needs an exact payload" in err


def test_laplacian_rank_one_part():
    doc = run_doc("laplacian", "--n", "6", "--part", "a")
    assert doc["format"] == "rational"
    assert doc["payload"][0][0] == "9/20"


def test_laplacian_alternating_part():
    doc = run_doc("laplacian", "--n", "5", "--part", "h")
    assert doc["payload"][1][1] == "1/4"
    assert doc["payload"][1][2] == "-1/4"
    assert doc["payload"][0][0] == "0"


def test_laplacian_alternating_part_needs_odd_n():
    code, _, err = run_cli("laplacian", "--n", "6", "--part", "h")
    assert code == 2
    assert "odd n" in err


def test_laplacian_cosine_part_needs_k():
    code, _, err = run_cli("laplacian", "--n", "6", "--part", "b")
    assert code == 2
    assert "needs --k" in err


def test_laplacian_cosine_part_rejects_vanishing_cosine():
    code, _, err = run_cli("laplacian", "--n", "5", "--part", "b", "--k", "2")
    assert code == 2
    assert "vanishes" in err
    for k in ("0", "4", "-1"):
        code, out, err = run_cli("laplacian", "--n", "5", "--part", "b", "--k", k)
        assert (code, out) == (2, "") and "k must satisfy" in err


class RecordingStdout(io.StringIO):
    """A stdout that also keeps the length of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("n", [4, 7, 12, 60, 301])
def test_row_written_commands_print_serialize_matrix_of_the_dense_matrix(n):
    cases = [(("gen", "gear-distance"), gear_distance_closed(n), "rational"),
             (("pinv",), gear_pinv_formula(n), "decimal"),
             (("laplacian",), special_laplacian(n), "decimal")]
    for k in sorted({1, n - 2}):
        cases.append((("laplacian", "--part", "b", "--k", str(k)), b_matrix(n, k), "decimal"))
    metadata = json.dumps({"version": __version__, "parity": "even" if n % 2 == 0 else "odd",
                           "tolerance": None})
    for argv, matrix, fmt in cases:
        out = RecordingStdout()
        with contextlib.redirect_stdout(out):
            assert main([*argv, "--n", str(n)]) == 0
        text = out.getvalue()
        payload = serialize_matrix(matrix, fmt)
        assert text == (f'{{"kind": "matrix", "n": {n}, "format": "{fmt}", "payload": {payload}, '
                        f'"metadata": {metadata}, "checks": []}}\n'), argv
        # Written row by row as it is formed: never the document, or the payload, in one piece.
        if n >= 60:
            assert len(out.sizes) >= 2 * n - 1, argv
            assert max(out.sizes) < len(text) / 20, argv


def test_decimal_overflow_is_refused_before_any_text():
    out, err = RecordingStdout(), io.StringIO()
    edges = json.dumps([[1, 2, "9" * 400], [2, 3, 1]])
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["gen", "tree-distance", "--edges", edges, "--format", "decimal"])
    assert code == 2
    assert out.sizes == []
    assert err.getvalue().startswith("error:") and "too large for decimal" in err.getvalue()


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (("verify", "--n", "5", "--format", "rational"), "needs an exact payload"),
        (("gen", "tree-distance", "--edges", "[[1,2],[2,3]]", "--n", "7"), "no --n"),
        (("gen", "gear-distance", "--n", "5", "--edges", "[[1,2]]"), "no --edges"),
        (("gen", "wheel-distance", "--n", "5", "--edges", "[[1,2]]"), "no --edges"),
        (("laplacian", "--n", "6", "--part", "a", "--k", "2"), "--k"),
        (("laplacian", "--n", "7", "--part", "h", "--k", "2"), "--k"),
        (("laplacian", "--n", "6", "--part", "full", "--k", "2"), "--k"),
        (("laplacian", "--n", "6", "--k", "2"), "--k"),
    ],
)
def test_ignored_options_are_refused(monkeypatch, argv, fragment):
    monkeypatch.setattr(cli, "run_checks", _refuse)
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and fragment in err


@pytest.mark.parametrize("n", list(range(4, 41)) + [150, 151, 299, 300])
def test_rows_writer_equals_serialize_matrix_of_the_dense_matrix(n):
    cases = [
        (_formula_rows, gear_pinv_formula, "decimal"),
        (_laplacian_rows, special_laplacian, "decimal"),
        (_gear_distance_rows, gear_distance_closed, "decimal"),
        (_gear_distance_rows, gear_distance_closed, "rational"),
        (_wheel_distance_rows, lambda order: bfs_distances(build_wheel(order)), "decimal"),
        (_wheel_distance_rows, lambda order: bfs_distances(build_wheel(order)), "rational"),
        (_a_rows, a_matrix, "rational"),
    ]
    if n % 2 == 1:
        cases.append((_h_rows, h_matrix, "rational"))
    if n <= 12:
        cases += [(rows_of, dense_of, "decimal") for rows_of, dense_of, _ in cases[6:]]
    for k in sorted({1, (n - 2) // 2, n - 2}):
        cases.append((functools.partial(_b_rows, k=k), functools.partial(b_matrix, k=k), "decimal"))
    for rows_of, dense_of, fmt in cases:
        text = "".join(cli._rows_json(rows_of(n), fmt))
        expected = serialize_matrix(dense_of(n), fmt)
        # Not a bare assert: pytest's own diff of two texts of megabytes takes minutes.
        if text != expected:
            pairs = enumerate(zip(text, expected))
            first = next((i for i, (a, b) in pairs if a != b), min(len(text), len(expected)))
            pytest.fail(f"{dense_of}, {fmt}: differs from {text[first:first + 40]!r}")


def test_laplacian_full_document():
    doc = run_doc("laplacian", "--n", "5")
    assert doc["format"] == "decimal"
    assert doc["payload"][0][0] == pytest.approx(4 / 9, abs=1e-12)


@pytest.mark.parametrize("n", [5, 6])
def test_verify_document_passes(n):
    doc = run_doc("verify", "--n", str(n))
    assert doc["kind"] == "verify-report"
    assert doc["payload"] == {"checks_passed": 9, "checks_total": 9}
    assert doc["metadata"]["tolerance"] == 1e-9
    assert len(doc["checks"]) == 9
    for check in doc["checks"]:
        assert check["pass"] is True
        assert check["residual"] >= 0.0


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_verify_prints_valid_json_when_a_check_fails(monkeypatch):
    # G+ off by 1 in one entry leaves no D+ to judge: checks 7 to 9 fail with
    # an infinite residual, which the document carries as null.
    def corrupted(ints, den, certificate):
        pinv, pinv_den = _pinv_ints(ints, den, certificate)
        pinv = pinv.copy()
        pinv[1, 2] += pinv_den
        return pinv, pinv_den

    monkeypatch.setattr(gearpinv.verify, "_pinv_ints", corrupted)
    code, out, err = run_cli("verify", "--n", "6")
    assert code == 1, err
    doc = json.loads(out, parse_constant=_no_constant)
    checks = {check["name"]: check for check in doc["checks"]}
    for name in ("formula-vs-oracle", "penrose", "edm"):
        assert checks[name] == {"name": name, "pass": False, "residual": None}
    assert doc["payload"] == {"checks_passed": 5, "checks_total": 9}


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "1e400", "-0.5"])
def test_verify_rejects_bad_tolerance(monkeypatch, tol):
    monkeypatch.setattr(cli, "run_checks", _refuse)
    code, out, err = run_cli("verify", "--n", "6", "--tol", tol)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--tol" in err


def test_verify_accepts_zero_tolerance(monkeypatch):
    monkeypatch.setattr(cli, "run_checks", lambda n, tol: [])
    code, _, err = run_cli("verify", "--n", "6", "--tol", "0")
    assert code == 0, err


def test_verify_rejects_small_n():
    code, _, err = run_cli("verify", "--n", "2")
    assert code == 2
    assert "error:" in err


def _refuse(*args, **kwargs):
    raise AssertionError("the cost guard must refuse before any exact work")


@pytest.mark.parametrize(
    "argv", [("verify",), ("pinv", "--method", "oracle"), ("pinv", "--method", "k4")]
)
def test_exact_routes_refuse_n_above_ceiling(monkeypatch, argv):
    for name in ("run_checks", "rational_pinv", "balaji_bapat_pinv"):
        monkeypatch.setattr(cli, name, _refuse)
    code, out, err = run_cli(*argv, "--n", str(cli.MAX_EXACT_N + 1))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(cli.MAX_EXACT_N) in err


_DENSE_BUILDERS = (
    "gear_distance_closed", "_wheel_distance_rows", "_formula_rows",
    "_eigenvalues", "max_eigen_residual",
    "_a_rows", "_h_rows", "_b_rows", "_gear_distance_rows", "_laplacian_rows", "tree_distance",
)


@pytest.mark.parametrize("n", [cli.MAX_DENSE_N + 1, 10**6])
@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "gear-distance"),
        ("gen", "wheel-distance"),
        ("pinv",),
        ("spectrum",),
        ("laplacian",),
        ("laplacian", "--part", "a"),
        ("laplacian", "--part", "h"),
        ("laplacian", "--part", "b", "--k", "1"),
    ],
)
def test_dense_commands_refuse_n_above_ceiling(monkeypatch, argv, n):
    for name in _DENSE_BUILDERS:
        monkeypatch.setattr(cli, name, _refuse)
    code, out, err = run_cli(*argv, "--n", str(n))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(cli.MAX_DENSE_N) in err


def _path_edges(vertices: int) -> str:
    return json.dumps([[v, v + 1] for v in range(1, vertices)])


def test_gen_tree_distance_refuses_trees_above_dense_order(monkeypatch):
    # The ceiling is the largest matrix order the dense commands emit.
    bound = 2 * cli.MAX_DENSE_N - 1
    for name in _DENSE_BUILDERS:
        monkeypatch.setattr(cli, name, _refuse)
    code, out, err = run_cli("gen", "tree-distance", "--edges", _path_edges(bound + 1))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(bound) in err
    monkeypatch.setattr(cli, "tree_distance", lambda tree: np.zeros((1, 1), dtype=int))
    code, _, err = run_cli("gen", "tree-distance", "--edges", _path_edges(bound))
    assert code == 0, err


def test_gen_tree_distance_refuses_trees_above_text_budget(monkeypatch):
    monkeypatch.setattr(cli, "tree_distance", _refuse)
    harmonic = json.dumps([[v, v + 1, f"1/{v}"] for v in range(1, 2 * cli.MAX_DENSE_N - 1)])
    code, out, err = run_cli("gen", "tree-distance", "--edges", harmonic)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "characters" in err


def test_verify_accepts_n_at_ceiling(monkeypatch):
    monkeypatch.setattr(cli, "run_checks", lambda n, tol: [])
    code, _, err = run_cli("verify", "--n", str(cli.MAX_EXACT_N))
    assert code == 0, err


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4),
    max_leaves=12,
)
_weights = st.integers(-2, 5) | st.sampled_from(["3/2", "1/0", "-1", "0.5", "x", "1e9"])
_edges = st.lists(
    st.tuples(st.integers(-1, 8), st.integers(-1, 8))
    | st.tuples(st.integers(-1, 8), st.integers(-1, 8), _weights),
    max_size=6,
)


@st.composite
def commands(draw):
    command = draw(st.sampled_from(["gen", "pinv", "spectrum", "laplacian", "verify"]))
    argv = [command]
    if command == "gen":
        argv.append(
            draw(st.sampled_from(["gear-distance", "wheel-distance", "tree-distance"]))
        )
        if draw(st.booleans()):
            text = draw(st.one_of(_edges.map(json.dumps), _json_values.map(json.dumps),
                                  st.text(max_size=8)))
            argv += ["--edges", text]
    if draw(st.integers(0, 9)):
        argv += ["--n", str(draw(st.integers(-3, 20)))]
    if command == "pinv" and draw(st.booleans()):
        argv += ["--method", draw(st.sampled_from(["formula", "oracle", "k4"]))]
    if command == "laplacian":
        argv += ["--part", draw(st.sampled_from(["a", "h", "b", "full"]))]
        if draw(st.booleans()):
            argv += ["--k", str(draw(st.integers()))]
    if command == "verify" and draw(st.booleans()):
        argv += ["--tol", str(draw(st.floats()))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["rational", "decimal"]))]
    return argv


@settings(max_examples=120, deadline=None)
@given(commands())
def test_main_never_raises_on_generated_commands(argv):
    code, out, err = run_cli(*argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
    else:
        json.loads(out)


def test_reused_parser_matches_a_fresh_one(monkeypatch):
    commands = (
        ["gen", "gear-distance", "--n", "5"],
        ["spectrum", "--n", "6"],
        ["pinv", "--n", "5", "--part", "a"],
    )
    fresh = []
    for argv in commands:
        cli._parser.cache_clear()
        fresh.append(run_cli(*argv))
    assert [code for code, _, _ in fresh] == [0, 0, 2]
    assert "unrecognized arguments: --part a" in fresh[2][2]
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    assert [run_cli(*argv) for argv in commands] == fresh
    assert len(built) == 1


def test_no_subcommand_exits_two():
    code, _, _ = run_cli()
    assert code == 2


def test_unknown_kind_exits_two():
    code, _, _ = run_cli("gen", "bogus")
    assert code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gearpinv.cli", "verify", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["payload"]["checks_passed"] == 9
