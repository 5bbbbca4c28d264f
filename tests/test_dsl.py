from fractions import Fraction as F
from math import comb

import pytest

from djets.dsl import (
    MAX_LITERAL_DIGITS,
    MAX_POWER_TERMS,
    _Parser,
    _power_terms,
    parse_document,
    tokenize,
)
from djets.dvariety import validate_section
from djets.errors import ArityError, ParseError, UnknownName
from djets.mpoly import MPoly
from djets.series import exp_series

PLANE_DOC = """
dvariety X {
  vars: x, y;
  ideal: [];
  section: [x^2 - y^2, x^2 - x*y];
}
restrict toZ {
  x = y;
  delta x = 0;
}
point p on X { coords: [2, 1]; }
point flow on X { integrate from p; }
"""


def render_document(doc):
    """Print a document back to parsable text (round-trip check support)."""
    lines = []
    for name, variety in doc.varieties.items():
        lines.append(f"dvariety {name} {{")
        lines.append(f"  vars: {', '.join(variety.vars)};")
        lines.append(
            "  ideal: [" + ", ".join(str(p) for p in variety.generators) + "];"
        )
        lines.append(
            "  section: [" + ", ".join(str(p) for p in variety.section) + "];"
        )
        lines.append("}")
    for name, decl in doc.restrictions.items():
        lines.append(f"restrict {name} {{")
        for rule in decl.rules:
            if rule.kind == "identify":
                lines.append(f"  {rule.lhs} = {rule.rhs};")
            else:
                lines.append(f"  delta {rule.lhs} = {rule.rhs};")
        lines.append("}")
    for name, decl in doc.points.items():
        if decl.coords is not None:
            coords = ", ".join(str(c) for c in decl.coords)
            lines.append(f"point {name} on {decl.variety} {{ coords: [{coords}]; }}")
        else:
            lines.append(
                f"point {name} on {decl.variety} "
                f"{{ integrate from {decl.integrate_from}; }}"
            )
    return "\n".join(lines) + "\n"


def test_parse_plane_document_and_validate():
    doc = parse_document(PLANE_DOC)
    X = doc.variety("X")
    assert X.vars == ("x", "y")
    x = MPoly.variable(X.vars, "x")
    y = MPoly.variable(X.vars, "y")
    assert X.section[0] == x**2 - y**2
    assert X.section[1] == x**2 - x * y
    assert validate_section(X).ok


def test_empty_document_is_valid():
    doc = parse_document("")
    assert not doc.varieties and not doc.points


def test_section_arity_error():
    bad = """
    dvariety B { vars: x, y; ideal: []; section: [x^2]; }
    """
    with pytest.raises(ArityError):
        parse_document(bad)


def test_point_arity_error():
    bad = PLANE_DOC + "point q on X { coords: [1]; }"
    with pytest.raises(ArityError):
        parse_document(bad)


def test_integrated_point_arity_error():
    # q's coordinates come from a point of the line L1, not of the plane X
    bad = PLANE_DOC + """
    dvariety L1 { vars: x; ideal: []; section: [x]; }
    point a on L1 { coords: [1]; }
    point q on X { integrate from a; }
    """
    with pytest.raises(ArityError, match="point 'q' has 1 coordinates for 2 variables"):
        parse_document(bad)


def line_section(expr):
    doc = parse_document(f"dvariety L {{ vars: x; ideal: []; section: [{expr}]; }}")
    return doc.variety("L").section[0]


def test_long_sums_and_products_bind_without_recursion():
    x = MPoly.variable(("x",), "x")
    assert line_section(" + ".join(["x"] * 5000)) == 5000 * x
    assert line_section(" - ".join(["x"] * 5001)) == -4999 * x
    assert line_section("*".join(["1"] * 5000) + "*x") == x


def test_a_long_sum_builds_each_term_a_bounded_number_of_times(monkeypatch):
    """A sum of n distinct monomials gathers its terms in one map: the
    polynomials built while it parses hold O(n) terms in all, not the
    n^2 / 2 of adding each summand into a fresh polynomial."""
    n = 300
    names = [f"x{i}" for i in range(n)]
    parser = _Parser(tokenize(" + ".join(names[:-1]) + " - " + names[-1]))
    parser.read_names()
    built = []
    init = MPoly.__init__

    def spy(self, variables, terms):
        built.append(len(terms))
        init(self, variables, terms)

    monkeypatch.setattr(MPoly, "__init__", spy)
    poly = parser.parse_expr()
    assert sum(built) <= 3 * n
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    assert poly.terms == {**{e: 1 for e in unit[:-1]}, unit[-1]: -1}


def test_nesting_is_bounded_with_a_position():
    x = MPoly.variable(("x",), "x")
    assert line_section("(" * 100 + "x" + ")" * 100) == x
    assert line_section("-" * 100 + "x") == x
    for expr in ("(" * 5000 + "x" + ")" * 5000, "-" * 5000 + "x", "-(" * 51 + "x" + ")" * 51):
        with pytest.raises(ParseError, match="nested more than 100 deep at line 1, column "):
            line_section(expr)


def test_integer_literals_are_bounded_with_a_position():
    # int() reads at most 4,300 digits by default, so a longer literal is
    # refused at its own position, as a coefficient, a denominator or an
    # exponent
    x = MPoly.variable(("x",), "x")
    longest = "9" * MAX_LITERAL_DIGITS
    assert line_section(f"{longest}*x") == int(longest) * x
    assert line_section(f"1/{longest}*x") == F(1, int(longest)) * x
    for expr, col in ((f"9{longest}*x", 44), (f"1/9{longest}*x", 46), (f"x^9{longest}", 46)):
        with pytest.raises(ParseError) as info:
            line_section(expr)
        assert str(info.value) == (
            f"integer literal longer than 4300 digits at line 1, column {col}")


def test_power_terms_is_the_binomial_count_up_to_its_cap():
    assert _power_terms(0, 7) == 1 and _power_terms(1, 200000) == 1
    for nterms in range(1, 7):
        for exponent in range(40):
            assert _power_terms(nterms, exponent) == comb(exponent + nterms - 1, nterms - 1)
    assert _power_terms(2, 10**30 - 1) == 10**30
    assert _power_terms(2, 10**30) is None
    assert _power_terms(3000, int("9" * MAX_LITERAL_DIGITS)) is None


def test_powers_are_bounded_by_their_term_count_with_a_position(monkeypatch):
    x = MPoly.variable(("x",), "x")
    assert line_section("x^200000") == MPoly(("x",), {(200000,): 1})
    assert line_section("(x+1)^3") == x**3 + 3 * x**2 + 3 * x + 1
    assert MAX_POWER_TERMS == 2048
    cases = [
        ("(x+1)^2048", "up to 2049", 49),
        ("(x+1)^4000", "up to 4001", 49),
        ("(x+1)^20000", "up to 20001", 49),
        ("(x*x+x+1)^63", "up to 2080", 53),
        ("2*(x+1)^" + "9" * MAX_LITERAL_DIGITS, "more than 10^30", 51),
    ]

    def refuse(base, exponent):
        raise AssertionError("a refused power must not be expanded")

    monkeypatch.setattr(MPoly, "__pow__", refuse)
    for expr, size, col in cases:
        with pytest.raises(ParseError) as info:
            line_section(expr)
        assert str(info.value) == (
            f"power with {size} terms, more than MAX_POWER_TERMS = 2048 "
            f"at line 1, column {col}")
    # the bound lets the largest powers through, to the expansion
    expanded = []
    monkeypatch.setattr(MPoly, "__pow__", lambda base, e: expanded.append(e) or base)
    line_section("(x+1)^2000 + (x+1)^2047 + (x*x+x+1)^62")
    assert expanded == [2000, 2047, 62]


@pytest.mark.parametrize("block, message", [
    ("dvariety B {\n vars: x;\n vars: y;\n section: [x]; }",
     "dvariety 'B' already has vars at line 3, column 2"),
    ("dvariety B {\n vars: x;\n ideal: [];\n section: [x];\n ideal: [x]; }",
     "dvariety 'B' already has ideal at line 5, column 2"),
    ("dvariety B {\n vars: x;\n section: [x];\n  section: [2*x]; }",
     "dvariety 'B' already has section at line 4, column 3"),
    (PLANE_DOC + "point q on X {\n coords: [1, 1];\n coords: [2, 1]; }",
     "point 'q' already has coords at line 15, column 2"),
    (PLANE_DOC + "point q on X {\n integrate from p;\n integrate from flow; }",
     "point 'q' already has integrate from at line 15, column 2"),
    (PLANE_DOC + "point q on X {\n coords: [3, 4];\n integrate from p; }",
     "point 'q' already has coords at line 15, column 2"),
    (PLANE_DOC + "point q on X {\n integrate from p;\n coords: [3, 4]; }",
     "point 'q' already has integrate from at line 15, column 2"),
    (PLANE_DOC + "restrict r {\n delta x = 0;\n x = y;\n  delta x = 1; }",
     "restriction 'r' already has delta x at line 16, column 3"),
], ids=["vars", "ideal", "section", "coords", "integrate", "coords-then-integrate",
        "integrate-then-coords", "delta"])
def test_a_repeated_field_is_a_parse_error_at_its_position(block, message):
    with pytest.raises(ParseError) as info:
        parse_document(block)
    assert str(info.value) == message


def test_unknown_variety_reference():
    with pytest.raises(UnknownName):
        parse_document("point p on nowhere { coords: [1]; }")


def test_unknown_variable_in_polynomial():
    with pytest.raises(UnknownName):
        parse_document("dvariety B { vars: x; ideal: [z]; section: [x]; }")


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as info:
        parse_document("dvariety B { vars: x; ideal: [x +]; section: [x]; }")
    assert "line" in str(info.value)


def test_unexpected_character_rejected():
    with pytest.raises(ParseError):
        parse_document("dvariety B { vars: x; ideal: [x?]; section: [x]; }")


def test_only_decimal_digits_make_integers():
    # '²' is a digit to str.isdigit, but not one int() reads
    with pytest.raises(ParseError, match="unexpected character '²' at line 1, column "):
        line_section("x^²")
    assert line_section("x^٣") == MPoly.variable(("x",), "x") ** 3


def test_rational_literals():
    doc = parse_document(
        "dvariety B { vars: x; ideal: []; section: [1/2*x - 3]; }"
    )
    B = doc.variety("B")
    x = MPoly.variable(("x",), "x")
    assert B.section[0] == F(1, 2) * x - 3


def test_restriction_binds_to_variables():
    doc = parse_document(PLANE_DOC)
    rules = doc.restriction("toZ").bind(("x", "y"))
    assert rules[0].kind == "identify" and rules[0].lhs == "x"
    assert rules[1].kind == "derivative" and rules[1].rhs.is_zero()
    with pytest.raises(UnknownName):
        doc.restriction("toZ").bind(("a", "b"))


def test_point_resolution_and_integration():
    doc = parse_document(PLANE_DOC)
    assert doc.rational_point("p") == (F(2), F(1))
    sharp = doc.sharp_point("flow", 8)
    assert sharp.coords[0].constant_term == 2


def test_integrate_chain_resolves_through_points():
    doc = parse_document(
        """
        dvariety L { vars: x; ideal: []; section: [x]; }
        point base on L { coords: [1]; }
        point once on L { integrate from base; }
        point twice on L { integrate from once; }
        """
    )
    sharp = doc.sharp_point("twice", 6)
    assert sharp.coords[0] == exp_series(1, 6)


def test_comments_are_ignored():
    doc = parse_document("# leading comment\n" + PLANE_DOC + "\n# trailing\n")
    assert "X" in doc.varieties


def test_round_trip_render_parse():
    doc = parse_document(PLANE_DOC)
    text = render_document(doc)
    again = parse_document(text)
    assert set(again.varieties) == set(doc.varieties)
    for name in doc.varieties:
        a, b = doc.variety(name), again.variety(name)
        assert a.vars == b.vars
        assert list(a.generators) == list(b.generators)
        assert list(a.section) == list(b.section)
    assert {
        name: (decl.coords, decl.integrate_from)
        for name, decl in doc.points.items()
    } == {
        name: (decl.coords, decl.integrate_from)
        for name, decl in again.points.items()
    }
    for name in doc.restrictions:
        bound_a = doc.restriction(name).bind(("x", "y"))
        bound_b = again.restriction(name).bind(("x", "y"))
        assert [(r.kind, r.lhs, r.rhs) for r in bound_a] == [
            (r.kind, r.lhs, r.rhs) for r in bound_b
        ]
