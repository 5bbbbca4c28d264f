import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import djets
import djets.acceptance
import djets.cli
import djets.dsl
import djets.dvariety
import djets.mpoly
from djets.acceptance import AcceptanceResult
from djets.cli import main
from djets.series import MAX_PRECISION

PARABOLA = """
dvariety parabola {
  vars: x, y;
  ideal: [y - x^2];
  section: [1, 2*x];
}
point p on parabola { coords: [1, 1]; }
"""

BAD_SECTION = """
dvariety broken {
  vars: x, y;
  ideal: [y - x^2];
  section: [1, 1];
}
"""

LINES = """
dvariety L1 { vars: x; ideal: []; section: [x]; }
dvariety L2 { vars: x; ideal: []; section: [2*x]; }
point a on L1 { coords: [1]; }
point b on L2 { coords: [1]; }
"""


@pytest.fixture
def parabola_file(tmp_path):
    path = tmp_path / "parabola.djv"
    path.write_text(PARABOLA, encoding="utf-8")
    return str(path)


def test_check_valid_section(parabola_file, capsys):
    assert main(["check", parabola_file]) == 0
    out = capsys.readouterr().out
    assert "valid [exact]" in out


def test_check_reports_residual_and_exit_one(tmp_path, capsys):
    path = tmp_path / "broken.djv"
    path.write_text(BAD_SECTION, encoding="utf-8")
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out and "residual" in out


NON_TRIANGULAR = """
dvariety circle { vars: x, y; ideal: [x^2 + y^2 - 25]; section: [-y, x]; }
dvariety lines { vars: x, y, z; ideal: [x*y, x*z]; section: [-x, y, z]; }
dvariety cusp { vars: x, y; ideal: [y^2 - x^3]; section: [2*x, 3*y]; }
dvariety swapped { vars: x, y; ideal: [x^2 + y^2 - 25]; section: [y, x]; }
point q on lines { coords: [0, 1, 1]; }
"""


@pytest.fixture
def non_triangular_file(tmp_path):
    path = tmp_path / "non_triangular.djv"
    path.write_text(NON_TRIANGULAR, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name", ["circle", "lines", "cusp"])
def test_check_is_exact_on_any_ideal(non_triangular_file, capsys, name):
    # no generator has the shape x_k - g(others)
    assert main(["check", non_triangular_file, "--name", name]) == 0
    assert capsys.readouterr().out == f"{name}: valid [exact]\n"


def test_check_prints_the_normal_form_of_the_residual(non_triangular_file, capsys):
    argv = ["check", non_triangular_file, "--name", "swapped"]
    assert main(argv) == 1
    assert capsys.readouterr().out == "swapped: INVALID [exact]\n  residual: 4*x*y\n"
    assert main(argv + ["--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"swapped": {"ok": False, "exact": True, "residuals": ["4*x*y"]}}


def test_check_names_the_basis_bound(non_triangular_file, capsys, monkeypatch):
    monkeypatch.setattr(djets.mpoly, "MAX_BASIS", 1)
    assert main(["check", non_triangular_file, "--name", "lines"]) == 2
    assert "MAX_BASIS = 1" in capsys.readouterr().err


def test_jet_at_a_smooth_point_of_a_reducible_variety(non_triangular_file, capsys):
    # (0, 1, 1) is a smooth point of the plane x = 0 inside V(x*y, x*z)
    assert main(["jet", "--at", "q", non_triangular_file]) == 0
    out, err = capsys.readouterr()
    assert "dim 2" in out and err == ""


def test_internal_error_exits_three_without_traceback(parabola_file, capsys, monkeypatch):
    def fail(*_args):
        raise RuntimeError("unexpected state")

    monkeypatch.setattr(djets.cli, "delta_jet_space", fail)
    assert main(["horizontal", "--from", "p", "-N", "8", parabola_file]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: unexpected state\n"
    assert "Traceback" not in err


def test_jet_command_prints_basis(parabola_file, capsys):
    assert main(["jet", "--at", "p", parabola_file]) == 0
    out = capsys.readouterr().out
    assert "dim 1" in out and "['1', '2']" in out


def test_jet_json_schema(parabola_file, capsys):
    assert main(["--format", "json", "jet", "--at", "p", parabola_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["basis"] == [["1", "2"]]
    assert payload["equations"] == [["-2", "1"]]
    assert payload["lambda"] == [[1, 0], [0, 1]]
    assert payload["dim"] == 1


def test_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.djv"
    path.write_text("dvariety ", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert "error" in capsys.readouterr().err


REPEATED_VARIABLE = "dvariety A { vars: x, x; ideal: [x - 1]; section: [0, x]; }\n"


@pytest.mark.parametrize("text, argv, message", [
    (REPEATED_VARIABLE, ["check"], "variable 'x' is declared twice"),
    (REPEATED_VARIABLE + "point p on A { coords: [1, 1]; }\n",
     ["verify-product", "A", "A", "--from", "p", "p"], "variable 'x' is declared twice"),
    (LINES + "dvariety L1 { vars: y; ideal: []; section: [y]; }\n", ["check"],
     "dvariety 'L1' is declared twice at line 6"),
    (LINES + "restrict r { x = 1; }\nrestrict r { delta x = 0; }\n",
     ["tangent", "--name", "L1", "--restrict", "r"],
     "restriction 'r' is declared twice at line 7"),
    (LINES + "point a on L2 { coords: [2]; }\n", ["integrate", "--from", "a"],
     "point 'a' is declared twice at line 6"),
], ids=["variable-check", "variable-verify-product", "dvariety", "restriction", "point"])
def test_a_repeated_name_exits_2(tmp_path, capsys, text, argv, message):
    # `lie` and `embed` would conflate a repeated variable, and a repeated
    # block name would replace the first block.
    path = tmp_path / "repeated.djv"
    path.write_text(text, encoding="utf-8")
    assert main([*argv, str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text, argv, message", [
    ("dvariety X { vars: x, y; ideal: [];\n section: [x, y]; section: [y, x]; }\n",
     ["check"], "dvariety 'X' already has section at line 2, column 19"),
    (PARABOLA + "point q on parabola { coords: [3, 4]; integrate from p; }\n",
     ["integrate", "--from", "q"], "point 'q' already has coords at line 8, column 39"),
    ("dvariety X { vars: x, y; ideal: []; section: [x, y]; }\n"
     "restrict r { delta x = 0; delta x = 1; }\n", ["tangent", "--restrict", "r"],
     "restriction 'r' already has delta x at line 2, column 27"),
], ids=["section", "coords-and-integrate", "delta"])
def test_a_repeated_field_exits_2(tmp_path, capsys, text, argv, message):
    # the second field would otherwise replace the first without a word
    path = tmp_path / "repeated.djv"
    path.write_text(text, encoding="utf-8")
    assert main([*argv, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("# no blocks\n", "document defines no dvariety"),
    (LINES, "--name required: document defines L1, L2"),
], ids=["none", "two"])
def test_tangent_without_name_needs_exactly_one_variety(tmp_path, capsys, text, message):
    # with no dvariety at all, --name cannot help, so the message does not ask for it
    path = tmp_path / "varieties.djv"
    path.write_text(text, encoding="utf-8")
    assert main(["tangent", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("text", ["# no blocks\n", "restrict r { x = 1; }\n"],
                         ids=["comment", "restriction"])
def test_check_on_a_document_with_no_dvariety_exits_2(tmp_path, capsys, text):
    # exit 0 would read as a pass, though nothing was checked
    path = tmp_path / "empty.djv"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "error: document defines no dvariety\n"


def test_default_fiber_names_avoid_the_base_variables(tmp_path, capsys):
    path = tmp_path / "fiber.djv"
    path.write_text("dvariety A { vars: x, u_x; ideal: []; section: [x, u_x]; }\n",
                    encoding="utf-8")
    assert main(["tangent", str(path)]) == 0
    lhs = [line.split(" = ")[0] for line in capsys.readouterr().out.splitlines()]
    assert lhs == ["delta x", "delta u_x", "delta u_x_", "delta u_u_x"]


@pytest.mark.parametrize("command", [["jet", "--at", "p"], ["integrate", "--from", "p"]])
def test_a_rejected_point_prints_as_a_tuple_of_rationals(tmp_path, capsys, command):
    path = tmp_path / "unit.djv"
    path.write_text(
        "dvariety U { vars: x, y; ideal: [1]; section: [0, 0]; }\n"
        "point p on U { coords: [2, 1/2]; }\n",
        encoding="utf-8",
    )
    assert main([*command, str(path)]) == 2
    err = capsys.readouterr().err
    assert "evaluates to 1 at (2, 1/2)\n" in err and "Fraction(" not in err


def test_unknown_point_exits_two(parabola_file, capsys):
    assert main(["jet", "--at", "nowhere", parabola_file]) == 2


def test_off_variety_point_exits_two(tmp_path, capsys):
    path = tmp_path / "off.djv"
    path.write_text(PARABOLA.replace("[1, 1]", "[1, 3]"), encoding="utf-8")
    assert main(["jet", "--at", "p", str(path)]) == 2


def test_integrate_and_horizontal(parabola_file, capsys):
    assert main(["integrate", "--from", "p", "-N", "6", parabola_file]) == 0
    out = capsys.readouterr().out
    assert "x = 1 + t" in out
    assert main(["horizontal", "--from", "p", "-N", "8", parabola_file]) == 0
    out = capsys.readouterr().out
    assert "dim over series field: 1" in out
    assert "dim over constants:    1" in out


def test_counterexample_command(capsys):
    assert main(["counterexample", "-N", "8"]) == 0
    out = capsys.readouterr().out
    assert "delta u = 2*x*u - 2*x*v" in out
    assert "kernel identity: True" in out
    assert "all checks passed" in out


def test_counterexample_json_deterministic(capsys):
    assert main(["--format", "json", "counterexample", "-N", "8"]) == 0
    first = capsys.readouterr().out
    assert main(["--format", "json", "counterexample", "-N", "8"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["ok"] is True


def test_verify_product_command(tmp_path, capsys):
    path = tmp_path / "lines.djv"
    path.write_text(LINES, encoding="utf-8")
    assert main(["verify-product", "L1", "L2", "--from", "a", "b",
                 "-m", "2", str(path)]) == 0
    out = capsys.readouterr().out
    assert "5 horizontal jets decompose" in out


# The point u = 0 of the line: its jet space is 0 at every order.
POINT_AND_LINE = """
dvariety Pt { vars: u; ideal: [u]; section: [0]; }
dvariety L { vars: x; ideal: []; section: [x]; }
point q on Pt { coords: [0]; }
point a on L { coords: [1]; }
"""


def test_horizontal_on_a_zero_dimensional_jet_space(tmp_path, capsys):
    path = tmp_path / "point.djv"
    path.write_text(POINT_AND_LINE, encoding="utf-8")
    argv = ["horizontal", "--from", "q", "-m", "2", "--format", "json", str(path)]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"dim_C": 0, "dim_K": 0, "horizontal_basis": [], "precision": None}


def test_verify_product_with_a_zero_dimensional_factor(tmp_path, capsys):
    # an empty factor basis: the jet of the line factor decomposes through
    # the line's basis alone, on either side
    path = tmp_path / "point.djv"
    path.write_text(POINT_AND_LINE, encoding="utf-8")
    jet = {"all_constant": True, "left": [], "pair": [], "right": ["1"], "unit": "0"}
    for left, right, points, decomposition in [
        ("Pt", "L", ["q", "a"], jet),
        ("L", "Pt", ["a", "q"], {**jet, "left": ["1"], "pair": [[]], "right": []}),
    ]:
        argv = ["verify-product", left, right, str(path), "--from", *points]
        assert main(argv + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"dim_C": 1, "jets": [decomposition], "order": 1,
                           "product": f"{left}*{right}"}


def test_suite_command_reports_every_result(capsys, monkeypatch):
    results = [
        AcceptanceResult("a", "first check", True, "3 cases", 0.12345, 5.0),
        AcceptanceResult("b", "second check", True, "", 1.0006, 5.0),
    ]
    seeds = []

    def run_all(seed=0):
        seeds.append(seed)
        return results

    monkeypatch.setattr(djets.acceptance, "run_all", run_all)
    assert main(["suite", "--format", "json", "--seed", "4"]) == 0
    assert seeds == [4]
    assert json.loads(capsys.readouterr().out) == [
        {"key": "a", "title": "first check", "passed": True, "seconds": 0.123,
         "detail": "3 cases"},
        {"key": "b", "title": "second check", "passed": True, "seconds": 1.001,
         "detail": ""},
    ]
    assert main(["suite"]) == 0
    assert capsys.readouterr().out.splitlines() == [r.line() for r in results]
    results[1] = AcceptanceResult("b", "second check", False, "x", 1.0, 5.0)
    assert main(["suite"]) == 1
    assert capsys.readouterr().out.splitlines() == [r.line() for r in results]


def test_tangent_command_with_restriction(tmp_path, capsys):
    path = tmp_path / "plane.djv"
    path.write_text(
        """
        dvariety X { vars: x, y; ideal: []; section: [x^2 - y^2, x^2 - x*y]; }
        restrict toZ { x = y; delta x = 0; }
        """,
        encoding="utf-8",
    )
    assert main(["tangent", "--restrict", "toZ", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "x = y"
    assert out[1] == "delta x = 0"


CHAINS = """
dvariety P { vars: x, y, z; ideal: []; section: [x^2 - y^2, x^2 - x*y, z]; }
restrict ch { x = z; z = y; }
restrict hc { z = y; x = z; }
dvariety T { vars: x, y, w; ideal: []; section: [y, w, x*w]; }
restrict tri { y = w^2; x = y + 1; }
restrict self { x = x^2 + y; }
restrict unit { x = y; x = y + 1; }
restrict first { x = x^2 + y; z = x; }
"""


def test_tangent_reduces_chained_identifications(tmp_path, capsys):
    path = tmp_path / "chains.djv"
    path.write_text(CHAINS, encoding="utf-8")
    assert main(["tangent", "--restrict", "ch", "--name", "P", str(path)]) == 0
    chain = capsys.readouterr().out.splitlines()
    assert chain == [
        "x = z",
        "z = y",
        "delta y = 0",
        "delta u_x = 2*y*u_x - 2*y*u_y",
        "delta u_y = y*u_x - y*u_y",
        "delta u_z = u_z",
    ]
    # the other rule order echoes its rules as written and reduces the same way
    assert main(["tangent", "--restrict", "hc", "--name", "P", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["z = y", "x = z"] + chain[2:]


def test_tangent_reduces_a_triangular_pair_written_out_of_order(tmp_path, capsys):
    # substituting y = w^2 before x = y + 1 would leave y behind
    path = tmp_path / "chains.djv"
    path.write_text(CHAINS, encoding="utf-8")
    assert main(["tangent", "--restrict", "tri", "--name", "T", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "y = w^2",
        "x = y + 1",
        "delta w = w^3 + w",
        "delta u_x = u_y",
        "delta u_y = u_w",
        "delta u_w = w^2*u_w + w*u_x + u_w",
    ]


@pytest.mark.parametrize("restriction, rule", [
    ("self", "x = x^2 + y"),
    ("unit", "x = y + 1"),
    ("first", "x = x^2 + y"),
])
def test_identifications_that_do_not_substitute_exit_2(tmp_path, capsys, restriction, rule):
    path = tmp_path / "chains.djv"
    path.write_text(CHAINS, encoding="utf-8")
    assert main(["tangent", "--restrict", restriction, "--name", "P", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: identification {rule} gives the basis element ")
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err


def test_override_on_an_eliminated_variable_exits_2(tmp_path, capsys):
    path = tmp_path / "chains.djv"
    path.write_text(CHAINS + "restrict late { x = y; delta y = 1; }\n", encoding="utf-8")
    assert main(["tangent", "--restrict", "late", "--name", "P", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: derivative override delta y = 1 is on y, which the "
        "identification x = y eliminates\n"
    )


def test_jet_rejects_a_point_integrated_from_another_arity(tmp_path, capsys):
    path = tmp_path / "mixed.djv"
    path.write_text(
        "dvariety X { vars: x, y; ideal: []; section: [x^2 - y^2, x^2 - x*y]; }\n"
        + LINES + "point q on X { integrate from a; }\n",
        encoding="utf-8",
    )
    assert main(["jet", "--at", "q", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: point 'q' has 1 coordinates for 2 variables\n"


@pytest.mark.parametrize("expr, code", [
    (" + ".join(["x"] * 5000), 0),
    ("(" * 5000 + "x" + ")" * 5000, 2),
    ("-" * 5000 + "x", 2),
], ids=["sum", "parentheses", "minus"])
def test_long_and_deep_expressions_never_end_in_an_internal_error(tmp_path, capsys, expr, code):
    path = tmp_path / "deep.djv"
    path.write_text(f"dvariety L {{ vars: x; ideal: []; section: [{expr}]; }}\n",
                    encoding="utf-8")
    assert main(["check", str(path)]) == code
    err = capsys.readouterr().err
    assert "internal error" not in err
    if code == 2:
        assert err.startswith("error: expression nested more than 100 deep at line 1, column ")


def test_a_superscript_digit_exits_2(tmp_path, capsys):
    path = tmp_path / "superscript.djv"
    path.write_text("dvariety L { vars: x; ideal: []; section: [x^²]; }\n", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "error: unexpected character '²' at line 1, column 46\n"


@pytest.mark.parametrize("digits, code, err", [
    (4300, 0, ""),
    (4301, 2, "error: integer literal longer than 4300 digits at line 2, column 25\n"),
], ids=["4300", "4301"])
def test_a_coordinate_literal_past_the_digit_bound_exits_2(tmp_path, capsys, digits, code, err):
    path = tmp_path / "long.djv"
    path.write_text("dvariety L { vars: x; ideal: []; section: [x]; }\n"
                    f"point p on L {{ coords: [{'9' * digits}]; }}\n", encoding="utf-8")
    assert main(["check", str(path)]) == code
    assert capsys.readouterr().err == err


def test_integrate_prints_integers_past_the_int_to_str_limit(tmp_path, capsys):
    # x' = a x^2 from x(0) = a: the coefficient of t^130 has 4,461 digits,
    # past the 4,300 that str(int) allows by default
    a = 123456789123456789
    path = tmp_path / "big.djv"
    path.write_text(f"dvariety B {{ vars: x; ideal: []; section: [{a}*x^2]; }}\n"
                    f"point p on B {{ coords: [{a}]; }}\n", encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    argv = ["integrate", str(path), "--from", "p", "-N", "130", "--format", "json"]
    assert main(argv) == 0
    assert sys.get_int_max_str_digits() == limit  # restored on the way out
    (x,) = json.loads(capsys.readouterr().out)["coords"]
    want = [F(a)]
    for k in range(130):  # (k + 1) x_(k+1) = a sum_i x_i x_(k-i)
        want.append(a * sum(want[i] * want[k - i] for i in range(k + 1)) / (k + 1))
    sys.set_int_max_str_digits(0)
    try:
        assert [F(c) for c in x["coeffs"]] == want
    finally:
        sys.set_int_max_str_digits(limit)
    assert x["prec"] == 130


@pytest.mark.parametrize("left", ["cusp", "cubic"], ids=["first", "second"])
def test_verify_product_rejects_mismatched_points_before_integrating(capsys, monkeypatch,
                                                                     left):
    # t111 lies on the cubic and c11 on the cusp, neither on the line L
    monkeypatch.setattr(djets.dsl, "sharp_integrate",
                        lambda *args: pytest.fail("integrated a point of the wrong variety"))
    corpus = str(Path(__file__).resolve().parent.parent / "djv" / "corpus.djv")
    argv = ["verify-product", left, "L", corpus, "--from", "t111", "c11", "-N", "1024"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: points belong to different varieties than named\n"


def test_a_section_monomial_of_high_degree_integrates(tmp_path, capsys):
    path = tmp_path / "power.djv"
    path.write_text(
        "dvariety L { vars: x; ideal: []; section: [x^2000]; }\n"
        "point z on L { coords: [0]; }\n",
        encoding="utf-8",
    )
    assert main(["integrate", "--from", "z", "-N", "4", str(path)]) == 0
    assert capsys.readouterr().out == "x = 0 + O(t^5)\n"
    assert main(["horizontal", "--from", "z", "-N", "4", str(path)]) == 0
    assert "internal error" not in capsys.readouterr().err


def test_jet_of_order_three_in_sixteen_variables(tmp_path, capsys):
    names = ", ".join(f"x{i}" for i in range(1, 17))
    zeros = ", ".join(["0"] * 16)
    ideal = ", ".join(f"x{i}" for i in range(11, 17))
    path = tmp_path / "sixteen.djv"
    path.write_text(
        f"dvariety W {{ vars: {names}; ideal: [{ideal}]; section: [{zeros}]; }}\n"
        f"point a on W {{ coords: [{zeros}]; }}\n",
        encoding="utf-8",
    )
    assert main(["jet", "--at", "a", "-m", "3", str(path)]) == 0
    # the jets of a 10-dimensional linear space: binom(13, 3) - 1
    assert f"at ({zeros}), order 3: dim 285\n" in capsys.readouterr().out


def test_jet_text_output_renders_no_json_payload(parabola_file, capsys, monkeypatch):
    def refuse(space):
        raise AssertionError("render_jet_space called for text output")

    monkeypatch.setattr("djets.cli.render_jet_space", refuse)
    assert main(["jet", "--at", "p", "-m", "2", parabola_file]) == 0
    assert "dim" in capsys.readouterr().out


def test_jet_json_output_builds_no_text_lines(parabola_file, capsys, monkeypatch):
    class Unprintable(int):
        def __str__(self):
            raise AssertionError("jet basis entry printed for JSON output")

    jet_space = djets.cli.jet_space

    def unprintable_basis(*args):
        space = jet_space(*args)
        space.basis = [[Unprintable(e) for e in v] for v in space.basis]
        return space

    monkeypatch.setattr("djets.cli.jet_space", unprintable_basis)
    monkeypatch.setattr("djets.cli.render_jet_space", lambda space: {"dim": space.dim})
    assert main(["jet", "--at", "p", "-m", "2", "--format", "json", parabola_file]) == 0
    assert json.loads(capsys.readouterr().out) == {"dim": 2}


def test_a_jet_past_the_coordinate_bound_exits_2(tmp_path, capsys, monkeypatch):
    names = ", ".join(f"x{i}" for i in range(1, 41))
    zeros = ", ".join(["0"] * 40)
    path = tmp_path / "forty.djv"
    path.write_text(
        f"dvariety W {{ vars: {names}; ideal: [x1]; section: [{zeros}]; }}\n"
        f"point a on W {{ coords: [{zeros}]; }}\n",
        encoding="utf-8",
    )

    def refuse(*args):
        raise AssertionError("jet coordinates built past the bound")

    monkeypatch.setattr("djets.mpoly.multi_indices_with_zero", refuse)
    assert main(["jet", "--at", "a", "-m", "3", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: jets of order 3 in 40 variables have 12340 coordinates, "
        "more than MAX_JET_COORDS = 1024\n"
    )


def test_precision_env_override(parabola_file, capsys, monkeypatch):
    monkeypatch.setenv("DJETS_PRECISION", "5")
    assert main(["integrate", "--from", "p", parabola_file]) == 0
    out = capsys.readouterr().out
    assert "O(t^6)" in out


def test_precision_floor_enforced(parabola_file):
    with pytest.raises(SystemExit) as info:
        main(["integrate", "--from", "p", "-N", "2", parabola_file])
    assert info.value.code == 2


def test_order_bounds_enforced(parabola_file):
    with pytest.raises(SystemExit) as info:
        main(["jet", "--at", "p", "-m", "7", parabola_file])
    assert info.value.code == 2


def test_precision_env_must_be_an_integer(parabola_file, monkeypatch):
    monkeypatch.setenv("DJETS_PRECISION", "1.5")
    with pytest.raises(SystemExit) as info:
        main(["integrate", "--from", "p", parabola_file])
    assert info.value.code == 2


def test_precision_ceiling_enforced(parabola_file, monkeypatch):
    assert MAX_PRECISION >= 192
    with pytest.raises(SystemExit) as info:
        main(["integrate", "--from", "p", "-N", str(MAX_PRECISION + 1), parabola_file])
    assert info.value.code == 2
    monkeypatch.setenv("DJETS_PRECISION", str(MAX_PRECISION + 1))
    with pytest.raises(SystemExit) as info:
        main(["integrate", "--from", "p", parabola_file])
    assert info.value.code == 2


CUSP = """
dvariety cusp {
  vars: x, y;
  ideal: [y^2 - x^3];
  section: [2*x, 3*y];
}
point o on cusp { coords: [0, 0]; }
"""


def test_horizontal_at_singular_equilibrium(tmp_path, capsys):
    path = tmp_path / "cusp.djv"
    path.write_text(CUSP, encoding="utf-8")
    argv = ["horizontal", "--from", "o", "-m", "2", "-N", "12", "--format", "json"]
    assert main(argv + [str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim_K"] == payload["dim_C"] == 4


def test_horizontal_at_the_vertex_of_the_parabola(tmp_path, capsys):
    # o = (0, 0) is smooth, but the jet row [-2t, 1] at the sharp point
    # (t, t^2) has no unit in column 0; the flow carries the jet (1, 0) at o
    # to (1, 2t).
    path = tmp_path / "parabola.djv"
    path.write_text(PARABOLA + "point o on parabola { coords: [0, 0]; }\n",
                    encoding="utf-8")
    argv = ["--format", "json", "horizontal", "--from", "o", "-N", "8", str(path)]
    assert main(argv + ["-m", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim_K"] == payload["dim_C"] == 1
    assert payload["horizontal_basis"] == [[
        {"coeffs": ["1"] + ["0"] * 8, "prec": 8},
        {"coeffs": ["0", "2"] + ["0"] * 7, "prec": 8},
    ]]
    for m in ("2", "3"):
        assert main(argv + ["-m", m]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(["--format", "json", "jet", "--at", "o", "-m", m, str(path)]) == 0
        jet = json.loads(capsys.readouterr().out)
        assert payload["dim_K"] == payload["dim_C"] == jet["dim"]


def perturb_derivation_matrix(monkeypatch, i, j, only=lambda variety: True):
    """Add 1 to entry (i, j) of B for the varieties `only` accepts."""
    original = djets.dvariety._derivation_matrix

    def perturbed(variety, point, order_m):
        B = original(variety, point, order_m)
        if only(variety):
            B[i][j] = B[i][j] + 1
        return B

    monkeypatch.setattr(djets.dvariety, "_derivation_matrix", perturbed)


@pytest.mark.parametrize("i, j", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_a_perturbed_derivation_matrix_fails_horizontal(parabola_file, capsys,
                                                         monkeypatch, i, j):
    perturb_derivation_matrix(monkeypatch, i, j)
    assert main(["horizontal", "--from", "p", "-m", "1", "-N", "8", parabola_file]) == 1
    err = capsys.readouterr().err
    assert err == ("verification failure: horizontal vector 0 fails jet equation 0: "
                   "residual nonzero at order 1, guaranteed to order 8\n")


@pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (1, 2)])
def test_a_perturbed_derivation_matrix_fails_verify_product(tmp_path, capsys,
                                                            monkeypatch, i, j):
    # Only the product's B is perturbed, inside its parabola block or from
    # the parabola into the line; the factor spaces stay correct.
    path = tmp_path / "product.djv"
    path.write_text(PARABOLA + LINES, encoding="utf-8")
    perturb_derivation_matrix(monkeypatch, i, j, lambda variety: "*" in variety.name)
    assert main(["verify-product", "parabola", "L2", "--from", "p", "b",
                 "-m", "1", "-N", "8", str(path)]) == 1
    assert "fails jet equation" in capsys.readouterr().err


def test_unreadable_file_exits_two(tmp_path, capsys):
    missing = tmp_path / "missing.djv"
    assert main(["integrate", "--from", "a", "-N", "8", str(missing)]) == 2
    assert f"error: cannot read {missing}" in capsys.readouterr().err
    binary = tmp_path / "binary.djv"
    binary.write_bytes(b"\xff\xfe\x00dvariety")
    assert main(["check", str(binary)]) == 2
    assert f"error: cannot read {binary}" in capsys.readouterr().err
    assert main(["check", str(tmp_path)]) == 2
    assert f"error: cannot read {tmp_path}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code",
    [
        # large output: the write inside the command fails
        (["horizontal", "--from", "generic", "-m", "3", "-N", "24", "--format",
          "json", "counterexample.djv"], 0),
        # small output: only the final flush fails
        (["check", "parabola.djv"], 0),
        (["check", "broken.djv"], 1),
    ],
)
def test_closed_stdout_keeps_exit_code(tmp_path, argv, code):
    root = Path(__file__).resolve().parent.parent / "djv"
    (tmp_path / "broken.djv").write_text(BAD_SECTION, encoding="utf-8")
    files = {"counterexample.djv": root / "counterexample.djv",
             "parabola.djv": root / "parabola.djv",
             "broken.djv": tmp_path / "broken.djv"}
    argv = [str(files.get(a, a)) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(djets.__file__).parent.parent))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "djets.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr.decode() == ""
    assert proc.returncode == code
