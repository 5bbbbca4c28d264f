"""The small input language for D-varieties, restrictions, and points.

    dvariety X {
      vars: x, y;
      ideal: [];
      section: [x^2 - y^2, x^2 - x*y];
    }
    restrict toZ { x = y; delta x = 0; }
    point p on X { coords: [2, 1]; }
    point sp on X { integrate from p; }

Polynomial expressions use explicit `*` and `^` with integer or p/q
rational literals of at most MAX_LITERAL_DIGITS digits.  Sums and products
may be of any length; parentheses and leading minus signs nest at most
MAX_NESTING deep.  Each expression parses straight into an MPoly over the
names its statement mentions.  A dvariety's polynomials embed into its
declared variables when its block closes; restriction rules embed into a
variety's variables where they are used, so one restriction block can serve
any variety that declares the names it uses.  A block names each field at
most once, and a point has coords or integrate from, not both.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .dvariety import DVariety, sharp_integrate
from .errors import ArityError, ParseError, UnknownName
from .mpoly import MPoly
from .tangent import RestrictionRule


# -- tokens ----------------------------------------------------------------------

_PUNCT = set("{}[]():;,=^*+-/")

#: Deepest nesting of parentheses and leading minus signs in an expression.
MAX_NESTING = 100

#: Most digits in an integer literal: CPython's default bound on int(str).
MAX_LITERAL_DIGITS = 4300


@dataclass
class Token:
    kind: str  # "name" | "int" | punctuation literal
    text: str
    line: int
    col: int


def tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            if j - i > MAX_LITERAL_DIGITS:
                raise ParseError(f"integer literal longer than {MAX_LITERAL_DIGITS} digits",
                                 line, col)
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    return tokens


# -- document objects ----------------------------------------------------------------


def _embed(poly, variables):
    """`poly` over `variables`, refused if it mentions a name they lack."""
    if poly.vars == variables:
        return poly
    for name in poly.vars:
        if name not in variables:
            raise UnknownName(f"unknown variable {name!r}")
    return poly.embed(variables)


@dataclass
class RestrictionDecl:
    name: str
    rules: list  # RestrictionRule, rhs over the names its rule mentions

    def bind(self, variables):
        out = []
        for rule in self.rules:
            if rule.lhs not in variables:
                raise UnknownName(
                    f"restriction {self.name!r} mentions unknown variable {rule.lhs!r}"
                )
            out.append(replace(rule, rhs=_embed(rule.rhs, variables)))
        return out


@dataclass
class PointDecl:
    name: str
    variety: str
    coords: tuple | None = None
    integrate_from: str | None = None


@dataclass
class DslDocument:
    varieties: dict = field(default_factory=dict)
    restrictions: dict = field(default_factory=dict)
    points: dict = field(default_factory=dict)

    def variety(self, name):
        if name not in self.varieties:
            raise UnknownName(f"unknown dvariety {name!r}")
        return self.varieties[name]

    def restriction(self, name):
        if name not in self.restrictions:
            raise UnknownName(f"unknown restriction {name!r}")
        return self.restrictions[name]

    def point(self, name):
        if name not in self.points:
            raise UnknownName(f"unknown point {name!r}")
        return self.points[name]

    def rational_point(self, name):
        """Resolve a point's rational coordinates, following integrate chains."""
        decl = self.point(name)
        while decl.coords is None:
            decl = self.point(decl.integrate_from)
        return decl.coords

    def sharp_point(self, name, order):
        """A series point on the named point's variety, integrated from its
        rational coordinates."""
        decl = self.point(name)
        variety = self.variety(decl.variety)
        coords = self.rational_point(name)
        return sharp_integrate(variety, coords, order)


# -- parser ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open parentheses and minus signs around the position
        self.names = ()  # the variables of the expressions being read

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            raise ParseError(
                "unexpected end of input",
                last.line if last else 1,
                last.col if last else 1,
            )
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def expect_name(self, text=None):
        tok = self.expect("name")
        if text is not None and tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def comma_list(self, parse):
        """One or more items read by `parse`, separated by commas."""
        items = [parse()]
        while self.peek() and self.peek().kind == ",":
            self.next()
            items.append(parse())
        return items

    def read_names(self, known=()):
        """Read expressions over `known`, then the other names from here up to
        the statement's ';', each once in order of first mention."""
        names = dict.fromkeys(known)
        i = self.pos
        while i < len(self.tokens) and self.tokens[i].kind != ";":
            if self.tokens[i].kind == "name":
                names.setdefault(self.tokens[i].text)
            i += 1
        self.names = tuple(names)

    # expressions: expr := term (('+'|'-') term)* ; term := factor ('*' factor)*
    # factor := '-' factor | atom ('^' int)? ; atom := rational | name | '(' expr ')'
    # Each builds its MPoly over self.names.
    def parse_expr(self):
        poly = self.parse_term()
        while self.peek() and self.peek().kind in "+-":
            op = self.next().kind
            right = self.parse_term()
            poly = poly + right if op == "+" else poly - right
        return poly

    def parse_term(self):
        poly = self.parse_factor()
        while self.peek() and self.peek().kind == "*":
            self.next()
            poly = poly * self.parse_factor()
        return poly

    def nested(self, tok, parse):
        """parse() one level deeper than the parentheses or minus sign `tok`."""
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"expression nested more than {MAX_NESTING} deep", tok.line, tok.col
            )
        self.depth += 1
        poly = parse()
        self.depth -= 1
        return poly

    def parse_factor(self):
        tok = self.peek()
        if tok and tok.kind == "-":
            self.next()
            return -self.nested(tok, self.parse_factor)
        poly = self.parse_atom()
        if self.peek() and self.peek().kind == "^":
            self.next()
            poly = poly ** int(self.expect("int").text)
        return poly

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "int":
            return MPoly.constant(self.names, self.parse_fraction(tok))
        if tok.kind == "name":
            return MPoly.variable(self.names, tok.text)
        if tok.kind == "(":
            poly = self.nested(tok, self.parse_expr)
            self.expect(")")
            return poly
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)

    def parse_rational(self):
        sign = 1
        if self.peek() and self.peek().kind == "-":
            self.next()
            sign = -1
        return sign * self.parse_fraction(self.expect("int"))

    def parse_fraction(self, num):
        """The literal `num` or `num/den`, the int token `num` already read."""
        if not (self.peek() and self.peek().kind == "/"):
            return Fraction(int(num.text))
        self.next()
        den = self.expect("int")
        if int(den.text) == 0:
            raise ParseError("zero denominator", den.line, den.col)
        return Fraction(int(num.text), int(den.text))


def parse_document(text):
    """Parse a whole document and run the cross-reference and arity checks."""
    parser = _Parser(tokenize(text))
    doc = DslDocument()
    while parser.peek() is not None:
        tok = parser.expect("name")
        if tok.text == "dvariety":
            _parse_dvariety(parser, doc)
        elif tok.text == "restrict":
            _parse_restrict(parser, doc)
        elif tok.text == "point":
            _parse_point(parser, doc)
        else:
            raise ParseError(
                f"expected dvariety, restrict, or point, found {tok.text!r}",
                tok.line,
                tok.col,
            )
    _validate(doc)
    return doc


def _block_name(parser, taken, kind):
    """The name of a new block of `kind`, refused if one of that kind has it."""
    tok = parser.expect("name")
    if tok.text in taken:
        raise ParseError(f"{kind} {tok.text!r} is declared twice", tok.line, tok.col)
    return tok.text


def _parse_dvariety(parser, doc):
    name = _block_name(parser, doc.varieties, "dvariety")
    parser.expect("{")
    fields = {}
    while parser.peek() and parser.peek().kind != "}":
        key = parser.expect("name")
        if key.text not in ("vars", "ideal", "section"):
            raise ParseError(f"unknown dvariety field {key.text!r}", key.line, key.col)
        if key.text in fields:
            raise ParseError(
                f"dvariety {name!r} already has {key.text}", key.line, key.col
            )
        parser.expect(":")
        if key.text == "vars":
            fields["vars"] = tuple(parser.comma_list(lambda: parser.expect_name().text))
        else:
            fields[key.text] = _parse_expr_list(parser, fields.get("vars", ()))
        parser.expect(";")
    parser.expect("}")
    if "vars" not in fields:
        raise ParseError(f"dvariety {name!r} lacks a vars declaration")
    if "section" not in fields:
        raise ParseError(f"dvariety {name!r} lacks a section declaration")
    variables, section = fields["vars"], fields["section"]
    if len(section) != len(variables):
        raise ArityError(
            f"dvariety {name!r}: section has {len(section)} components "
            f"for {len(variables)} variables"
        )
    generators = tuple(_embed(p, variables) for p in fields.get("ideal", ()))
    section = tuple(_embed(p, variables) for p in section)
    doc.varieties[name] = DVariety(variables, generators, section, name=name)


def _parse_expr_list(parser, variables):
    """A bracketed list of expressions over `variables` and the names it
    mentions besides."""
    parser.expect("[")
    parser.read_names(variables)
    items = []
    if parser.peek() and parser.peek().kind != "]":
        items = parser.comma_list(parser.parse_expr)
    parser.expect("]")
    return items


def _parse_restrict(parser, doc):
    name = _block_name(parser, doc.restrictions, "restriction")
    parser.expect("{")
    rules = []
    while parser.peek() and parser.peek().kind != "}":
        first = parser.expect("name")
        kind, lhs = "identify", first.text
        if first.text == "delta":
            kind, lhs = "derivative", parser.expect("name").text
            if any(r.kind == kind and r.lhs == lhs for r in rules):
                raise ParseError(f"restriction {name!r} already has delta {lhs}",
                                 first.line, first.col)
        parser.expect("=")
        parser.read_names()
        rules.append(RestrictionRule(kind, lhs, parser.parse_expr()))
        parser.expect(";")
    parser.expect("}")
    doc.restrictions[name] = RestrictionDecl(name, rules)


def _parse_point(parser, doc):
    name = _block_name(parser, doc.points, "point")
    parser.expect_name("on")
    variety = parser.expect("name").text
    parser.expect("{")
    coords = None
    integrate_from = None
    while parser.peek() and parser.peek().kind != "}":
        key = parser.expect("name")
        if key.text not in ("coords", "integrate"):
            raise ParseError(f"unknown point field {key.text!r}", key.line, key.col)
        if coords is not None or integrate_from is not None:
            had = "coords" if coords is not None else "integrate from"
            raise ParseError(f"point {name!r} already has {had}", key.line, key.col)
        if key.text == "coords":
            parser.expect(":")
            parser.expect("[")
            coords = parser.comma_list(parser.parse_rational)
            parser.expect("]")
        else:
            parser.expect_name("from")
            integrate_from = parser.expect("name").text
        parser.expect(";")
    parser.expect("}")
    if coords is None and integrate_from is None:
        raise ParseError(f"point {name!r} needs coords or integrate from")
    doc.points[name] = PointDecl(
        name, variety, tuple(coords) if coords else None, integrate_from
    )


def _validate(doc):
    """Each point names a dvariety, integrates along an acyclic chain of known
    points and resolves to one coordinate per variable of its dvariety."""
    for pname, decl in doc.points.items():
        if decl.variety not in doc.varieties:
            raise UnknownName(
                f"point {pname!r} references unknown dvariety {decl.variety!r}"
            )
        seen = set()
        cur = decl
        while cur.integrate_from is not None:
            if cur.integrate_from not in doc.points:
                raise UnknownName(
                    f"point {cur.name!r} integrates from unknown point "
                    f"{cur.integrate_from!r}"
                )
            if cur.name in seen:
                raise UnknownName(f"point {pname!r} has a cyclic integrate chain")
            seen.add(cur.name)
            cur = doc.points[cur.integrate_from]
        coords = doc.rational_point(pname)
        nvars = doc.varieties[decl.variety].nvars
        if len(coords) != nvars:
            raise ArityError(
                f"point {pname!r} has {len(coords)} coordinates for {nvars} variables"
            )
