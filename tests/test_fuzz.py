"""Seeded token-level mutations of `.djv` inputs never end in an internal error.

Each mutation deletes, duplicates or swaps a token, or replaces it with
another token of the same file.  Every mutated document goes through
`check`, `jet`, `tangent`, `integrate` and `horizontal`, and the
counterexample document also through `tangent --restrict toZ`; each exit
code must be 0, 1 or 2 (ok, verification failed, bad input), never 3
(internal error).  Mutated ideals drive the Groebner normal form behind
`check`, and mutated restriction blocks the one behind `restrict`.
"""

import contextlib
import io
import random
import re
from pathlib import Path

from djets.cli import main

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


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_mutated_documents_exit_with_a_defined_code(tmp_path):
    rng = random.Random(2024)
    path = tmp_path / "mutated.djv"
    codes = set()
    for n in range(MUTATIONS):
        text, point, variety, restriction = SOURCES[n % len(SOURCES)]
        mutated = mutate(text, rng)
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
