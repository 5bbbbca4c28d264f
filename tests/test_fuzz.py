"""Seeded mutations of `.djv` inputs never end in an internal error.

A token mutation deletes, duplicates or swaps a token, or replaces it with
another token of the same file; most of these documents no longer parse.
A structural mutation follows the grammar instead: it replaces a rational
literal (also by the superscript digit "²", which is no integer literal),
an exponent (either also by a literal of 4,301 digits, one past
`dsl.MAX_LITERAL_DIGITS`), or a variable by another variable of the same
dvariety block, drops or duplicates an item of a bracketed list,
swaps two section components, or puts a list item in one of the shapes
that once overflowed the recursion: a sum with 1,200 zeros, or 1,200
parentheses or minus signs around it; at least half of these documents
must parse, so the commands get past the parser.  Every mutated document
goes through `check`, `jet`, `tangent`, `integrate` and `horizontal`, and
the counterexample document also through `tangent --restrict toZ`; each
exit code must be 0, 1 or 2 (ok, verification failed, bad input), never 3
(internal error).  Mutated ideals drive the Groebner normal form behind
`check`, and mutated restriction blocks the one behind `restrict`.  A
second test mutates `djv/corpus.djv` with its own seeds, running the same
commands from the point t111 of the twisted cubic.
"""

import contextlib
import io
import random
import re
from pathlib import Path

from djets.cli import main
from djets.dsl import parse_document
from djets.errors import DjetsError

DJV = Path(__file__).resolve().parent.parent / "djv"

PROBE = """
dvariety circle { vars: x, y; ideal: [x^2 + y^2 - 25]; section: [-y, x]; }
point c on circle { coords: [3, 4]; }
dvariety cusp { vars: x, y; ideal: [y^2 - x^3]; section: [2*x, 3*y]; }
point o on cusp { coords: [1, 1]; }
"""

# (document, point to integrate from, dvariety for `tangent`, restriction or None)
SOURCES = [
    ((DJV / "counterexample.djv").read_text(encoding="utf-8"), "generic", "X", "toZ"),
    ((DJV / "parabola.djv").read_text(encoding="utf-8"), "p", "parabola", None),
    ((DJV / "lines.djv").read_text(encoding="utf-8"), "a", "L1", None),
    (PROBE, "c", "circle", None),
    (PROBE, "o", "cusp", None),
]

TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|\d+|\S")

MUTATIONS = 500


def mutate(text, rng):
    spans = [m.span() for m in TOKEN.finditer(text)]
    i = rng.randrange(len(spans))
    start, end = spans[i]
    token = text[start:end]
    kind = rng.choice(["delete", "duplicate", "swap", "replace"])
    if kind == "delete":
        return text[:start] + text[end:]
    if kind == "duplicate":
        return text[:start] + token + " " + text[start:]
    if kind == "swap" and i + 1 < len(spans):
        s2, e2 = spans[i + 1]
        return text[:start] + text[s2:e2] + text[end:s2] + token + text[e2:]
    other = rng.choice(spans)
    return text[:start] + text[other[0]:other[1]] + text[end:]


BLOCK = re.compile(r"dvariety\s+\w+\s*\{(.*?)\}", re.S)
VARS = re.compile(r"vars\s*:([^;]*);")
LIST = re.compile(r"\[([^\[\]]*)\]")
COMMENT = re.compile(r"#[^\n]*")
LITERALS = ["0", "1", "2", "7", "12", "1/2", "3/5", "²"]
LONG_LITERAL = "9" * 4301  # one digit past dsl.MAX_LITERAL_DIGITS


def deep_shapes(item):
    """The item in a long sum of zeros, and nested far past dsl.MAX_NESTING."""
    return [item + "+0" * 1200, "(" * 1200 + item + ")" * 1200, "-" * 1200 + item]


def structural_edits(text):
    """Candidate edits (start, end, replacements) by kind, outside comments."""
    comments = [m.span() for m in COMMENT.finditer(text)]
    spans = [
        (m.start(), m.end(), m.group()) for m in TOKEN.finditer(text)
        if not any(a <= m.start() < b for a, b in comments)
    ]
    edits = {"literal": [], "exponent": [], "variable": [], "list item": [], "swap": [],
             "nesting": []}
    for i, (start, end, tok) in enumerate(spans):
        if not tok.isdigit():
            continue
        neighbours = {spans[i - 1][2], spans[min(i + 1, len(spans) - 1)][2]}
        if spans[i - 1][2] == "^":
            edits["exponent"].append((start, end, [*map(str, range(5)), LONG_LITERAL]))
        elif "/" in neighbours:  # one side of a p/q literal: a positive integer
            edits["literal"].append((start, end, [*LITERALS[1:5], LONG_LITERAL]))
        else:
            edits["literal"].append((start, end, [*LITERALS, LONG_LITERAL]))
    for block in BLOCK.finditer(text):
        declared = VARS.search(block.group(1))
        if declared is None:
            continue
        names = declared.group(1).replace(",", " ").split()
        offset = block.start(1)
        for m in re.finditer(r"[A-Za-z_]\w*", block.group(1)[declared.end():]):
            others = [v for v in names if v != m.group()]
            if m.group() in names and others:
                start = offset + declared.end() + m.start()
                edits["variable"].append((start, start + len(m.group()), others))
    for m in LIST.finditer(text):
        if not m.group(1).strip():
            continue
        items = [item.strip() for item in m.group(1).split(",")]
        start, end = m.span(1)
        for k, item in enumerate(items):
            dropped = items[:k] + items[k + 1:]
            doubled = items[:k + 1] + items[k:]
            edits["list item"].append(
                (start, end, [", ".join(dropped), ", ".join(doubled)])
            )
            edits["nesting"].append((start, end, [
                ", ".join(items[:k] + [shape] + items[k + 1:]) for shape in deep_shapes(item)
            ]))
        if re.search(r"section\s*:\s*$", text[:m.start()]):
            for a in range(len(items)):
                for b in range(a + 1, len(items)):
                    swapped = list(items)
                    swapped[a], swapped[b] = items[b], items[a]
                    edits["swap"].append((start, end, [", ".join(swapped)]))
    return {kind: sites for kind, sites in edits.items() if sites}


def mutate_structure(text, rng):
    edits = structural_edits(text)
    start, end, choices = rng.choice(edits[rng.choice(sorted(edits))])
    return text[:start] + rng.choice(choices) + text[end:]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def parses(text):
    try:
        parse_document(text)
    except DjetsError:
        return False
    return True


def test_mutated_documents_exit_with_a_defined_code(tmp_path):
    rng = random.Random(2024)
    structure_rng = random.Random(2025)
    path = tmp_path / "mutated.djv"
    codes = set()
    parsed = {"token": 0, "structure": 0}
    for n in range(MUTATIONS):
        text, point, variety, restriction = SOURCES[n % len(SOURCES)]
        mutants = {
            "token": mutate(text, rng),
            "structure": mutate_structure(text, structure_rng),
        }
        for kind, mutated in mutants.items():
            parsed[kind] += parses(mutated)
            path.write_text(mutated, encoding="utf-8")
            file = str(path)
            argvs = [
                ["check", file],
                ["jet", file, "--at", point],
                ["tangent", file, "--name", variety],
                ["integrate", file, "--from", point, "-N", "8"],
                ["horizontal", file, "--from", point, "-m", "1", "-N", "8"],
            ]
            if restriction:
                argvs.append(["tangent", file, "--restrict", restriction])
            for argv in argvs:
                code, err = run(argv)
                assert code in (0, 1, 2), (argv, mutated, err)
                assert "Traceback" not in err
                codes.add(code)
    # the mutations reach both accepted and rejected inputs
    assert {0, 2} <= codes
    # most structural mutants get past the parser (about one token mutant in five does)
    assert 2 * parsed["structure"] >= MUTATIONS, parsed


CORPUS = (DJV / "corpus.djv").read_text(encoding="utf-8")

CORPUS_MUTATIONS = 50


def test_mutated_corpus_documents_exit_with_a_defined_code(tmp_path):
    # the corpus adds a singular curve, two generators in three variables and
    # sixteen variables to the documents above; `check` runs on all of them,
    # so each mutant costs more and there are fewer mutations
    rng = random.Random(4242)
    structure_rng = random.Random(4243)
    path = tmp_path / "mutated.djv"
    file = str(path)
    argvs = [
        ["check", file],
        ["jet", file, "--at", "t111"],
        ["tangent", file, "--name", "cubic"],
        ["integrate", file, "--from", "t111", "-N", "8"],
        ["horizontal", file, "--from", "t111", "-m", "1", "-N", "8"],
    ]
    codes = set()
    parsed = 0
    for _ in range(CORPUS_MUTATIONS):
        structural = mutate_structure(CORPUS, structure_rng)
        parsed += parses(structural)
        for mutated in (mutate(CORPUS, rng), structural):
            path.write_text(mutated, encoding="utf-8")
            for argv in argvs:
                code, err = run(argv)
                assert code in (0, 1, 2), (argv, mutated, err)
                assert "Traceback" not in err
                codes.add(code)
    assert {0, 2} <= codes
    assert 2 * parsed >= CORPUS_MUTATIONS, parsed
