"""The benchmark's workloads: jobs, seeded inputs and independent checks.

A job is one call of a public djets entry point: `djets.cli.main` on a
`.djv` document, or `djets.delta_modules.verify_tensor_pairing` on a pair of
generated delta-modules.  Every job has a correctness check computed here
with plain `fractions.Fraction` arithmetic; no value in a check is taken
from djets.  CLI jobs also have their `--format json` output pinned by a
SHA-256 digest in `digests.json`, so any change of output counts as a
failure.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

WORKLOADS = ("integrate", "horizontal", "modules")
ROOT = Path(__file__).resolve().parent.parent
DJV = ROOT / "djv"
DOCUMENTS = ("counterexample.djv", "lines.djv", "parabola.djv")
DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: Witness ratios of `djets counterexample` (the family (c, c, 2 exp(ct), exp(ct))).
WITNESS_RATIOS = tuple(Fraction(r) for r in ("0", "1", "-1", "2", "-2", "1/2", "-3/5"))

#: Delta-module pair shapes (left dim, right dim) of one `modules` pass: every
#: ordered pair of dims 1..3 twice, and (1, 3), (3, 1) once more -- 20 pairs.
#: The shapes are fixed because cost grows steeply with dimension (a (3, 3)
#: pair costs about 300 (1, 1) pairs); only their order and coefficients are
#: drawn.  The two extra pairs put the median job inside one cost class
#: (1 x 3), so `job_p50_s` does not jump between classes.
MODULE_SHAPES = tuple((a, b) for a in (1, 2, 3) for b in (1, 2, 3)) * 2 + ((1, 3), (3, 1))
MODULE_PRECISION = 24
MODULE_DEGREE = 2
MODULE_BOUND = 2


class CheckFailed(Exception):
    """A job's output disagrees with the benchmark's own computation."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


# -- truncated series over Q, as lists of Fractions ----------------------------------


def s_const(c, n):
    return [Fraction(c)] + [Fraction(0)] * n


def s_add(a, b):
    return [x + y for x, y in zip(a, b)]


def s_sub(a, b):
    return [x - y for x, y in zip(a, b)]


def s_mul(a, b):
    n = min(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j in range(n - i):
                if b[j]:
                    out[i + j] += x * b[j]
    return out


def s_derive(a):
    return [k * a[k] for k in range(1, len(a))]


def s_exp(c, n):
    """Coefficients c^k / k! of exp(ct) through t^n."""
    c = Fraction(c)
    return [c**k / factorial(k) for k in range(n + 1)]


def _series_of(rendered):
    return [Fraction(c) for c in rendered["coeffs"]]


def eval_poly(text, env, n):
    """Evaluate a printed polynomial such as `2*x*u - 2*x*v` on series `env`."""

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return s_const(node.value, n)
        if isinstance(node, ast.Name):
            return env[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return [-x for x in walk(node.operand)]
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Pow) and isinstance(node.right, ast.Constant):
                out = s_const(1, n)
                base = walk(node.left)
                for _ in range(node.right.value):
                    out = s_mul(out, base)
                return out
            left, right = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Add):
                return s_add(left, right)
            if isinstance(node.op, ast.Sub):
                return s_sub(left, right)
            if isinstance(node.op, ast.Mult):
                return s_mul(left, right)
            if isinstance(node.op, ast.Div) and not any(right[1:]):
                return [x / right[0] for x in left]
        raise CheckFailed(f"cannot evaluate {text!r}")

    return walk(ast.parse(text.replace("^", "**"), mode="eval"))


# -- independent checks of CLI outputs -------------------------------------------------


def check_exponential(rate, n):
    """`integrate` on a line with section x' = rate*x from 1: coefficients rate^k/k!."""

    def check(payload):
        (coords,) = payload["coords"]
        _require(coords["prec"] == n, f"precision {coords['prec']} != {n}")
        _require(_series_of(coords) == s_exp(rate, n), f"not exp({rate}t)")

    return check


def check_parabola_flow(n):
    """x' = 1, y' = 2x from (1, 1): x = 1 + t and y = (1 + t)^2."""

    def check(payload):
        x, y = (_series_of(c) for c in payload["coords"])
        _require(x == [1, 1] + [0] * (n - 1), "x is not 1 + t")
        _require(y == [1, 2, 1] + [0] * (n - 2), "y is not (1 + t)^2")

    return check


def check_counterexample_flow(n):
    """x' = x^2 - y^2, y' = x^2 - x*y from (2, 1), coefficient by coefficient."""

    def check(payload):
        x, y = (_series_of(c) for c in payload["coords"])
        _require(len(x) == len(y) == n + 1, "wrong number of coefficients")
        _require((x[0], y[0]) == (2, 1), "wrong initial point")
        xx, yy, xy = s_mul(x, x), s_mul(y, y), s_mul(x, y)
        for k in range(n):
            _require((k + 1) * x[k + 1] == xx[k] - yy[k], f"x' differs at t^{k}")
            _require((k + 1) * y[k + 1] == xx[k] - xy[k], f"y' differs at t^{k}")

    return check


def check_counterexample_report(n):
    """Each witness (c, c, 2 exp(ct), exp(ct)) solves the printed restricted
    equations to order n, and its image u - v = exp(ct) has log derivative c."""

    def check(payload):
        _require(payload["ok"] and payload["kernel_identity"], "report not ok")
        _require(payload["precision"] == n, "wrong precision")
        ratios = tuple(Fraction(w["ratio"]) for w in payload["witnesses"])
        _require(ratios == WITNESS_RATIOS, f"witness ratios {ratios}")
        for w in payload["witnesses"]:
            _require(w["ok"] and w["image_in_group"] and w["image_ratio_matches"]
                     and w["separated"], f"witness {w['ratio']} not ok")
            _require(all(r["zero"] for r in w["residuals"]), "nonzero residual")
        for c in ratios:
            g = s_exp(c, n)
            env = {"x": s_const(c, n), "y": s_const(c, n), "u": [2 * e for e in g], "v": g}
            image = s_sub(env["u"], env["v"])
            _require(image == g, "image is not exp(ct)")
            _require(s_derive(image) == [c * e for e in image[:n]],
                     "image log derivative is not c")
            for eq in payload["restricted_equations"]:
                lhs, rhs = (side.strip() for side in eq.split("="))
                value = eval_poly(rhs, env, n)
                if lhs.startswith("delta "):
                    _require(s_derive(env[lhs[6:]]) == value[:n], f"{eq} fails at c={c}")
                else:
                    _require(env[lhs] == value, f"{eq} fails at c={c}")

    return check


def check_horizontal(expected_dim):
    def check(payload):
        _require(payload["dim_K"] == expected_dim, f"dim_K {payload['dim_K']}")
        _require(payload["dim_C"] == expected_dim, f"dim_C {payload['dim_C']}")
        _require(len(payload["horizontal_basis"]) == expected_dim, "basis size")

    return check


def check_product(expected_dim):
    def check(payload):
        _require(payload["dim_C"] == expected_dim, f"dim_C {payload['dim_C']}")
        _require(len(payload["jets"]) == expected_dim, "jet count")
        _require(all(j["all_constant"] for j in payload["jets"]), "non-constant jet")

    return check


def plane_jet_dim(m):
    """Jets of order m on the affine plane: monomials of degree 1..m in 2 variables."""
    return comb(m + 2, 2) - 1


# -- jobs --------------------------------------------------------------------------------


def _doc(name):
    return str(DJV / name)


def cli_jobs(workload):
    """(job id, argv, check) for a CLI workload, in canonical order."""
    if workload == "integrate":
        return [
            ("integrate-generic-N64",
             ["integrate", "--from", "generic", "-N", "64", _doc("counterexample.djv")],
             check_counterexample_flow(64)),
            ("integrate-a-N96", ["integrate", "--from", "a", "-N", "96", _doc("lines.djv")],
             check_exponential(1, 96)),
            ("integrate-b-N96", ["integrate", "--from", "b", "-N", "96", _doc("lines.djv")],
             check_exponential(2, 96)),
            ("integrate-p-N192",
             ["integrate", "--from", "p", "-N", "192", _doc("parabola.djv")],
             check_parabola_flow(192)),
            ("counterexample-N96", ["counterexample", "-N", "96"],
             check_counterexample_report(96)),
        ]
    if workload == "horizontal":
        jobs = []
        for point, doc, dim in (("generic", "counterexample.djv", plane_jet_dim),
                                ("p", "parabola.djv", lambda m: m)):
            for m in (1, 2, 3):
                jobs.append((f"horizontal-{point}-m{m}-N24",
                             ["horizontal", "-m", str(m), "-N", "24", "--from", point,
                              _doc(doc)],
                             check_horizontal(dim(m))))
        for m in (2, 3):
            jobs.append((f"verify-product-m{m}",
                         ["verify-product", "L1", "L2", "--from", "a", "b", "-m", str(m),
                          _doc("lines.djv")],
                         check_product(plane_jet_dim(m))))
        return jobs
    raise KeyError(workload)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CliJob:
    """One `djets` command run in-process through `djets.cli.main`."""

    def __init__(self, job_id, argv, check, pinned):
        self.id = job_id
        self.argv = argv + ["--format", "json"]
        self._check = check
        self.pinned = pinned
        self.checked = False

    def run(self, api):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = api.cli.main(self.argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def verify(self, result, api):
        code, text = result
        _require(code == 0, f"exit code {code}")
        _require(digest(text) == self.pinned, "JSON output differs from the pinned digest")
        if not self.checked:
            self._check(json.loads(text))
            self.checked = True


def random_matrix(rng, dim):
    """dim x dim entries of degree MODULE_DEGREE with coefficients in [-B, B]."""
    return [[[Fraction(rng.randint(-MODULE_BOUND, MODULE_BOUND))
              for _ in range(MODULE_DEGREE + 1)] for _ in range(dim)] for _ in range(dim)]


def tensor_matrix(a, b):
    """A (x) I + I (x) B on the lexicographic product basis, as coefficient lists."""
    da, db = len(a), len(b)
    zero = [Fraction(0)] * (MODULE_DEGREE + 1)
    rows = []
    for i in range(da):
        for j in range(db):
            row = []
            for k in range(da):
                for l in range(db):
                    e = list(zero)
                    if j == l:
                        e = s_add(e, a[i][k])
                    if i == k:
                        e = s_add(e, b[j][l])
                    row.append(e)
            rows.append(row)
    return rows


def dual_matrix(a):
    d = len(a)
    return [[[-x for x in a[c][r]] for c in range(d)] for r in range(d)]


def check_sections(matrix, sections, prec):
    """delta(c) + A c = 0 through t^(prec-1) for every section, and the
    sections are independent (their constant terms form the identity)."""
    d = len(matrix)
    _require(len(sections) == d, f"{len(sections)} sections for dim {d}")
    for k, section in enumerate(sections):
        c = [list(e.coeffs[: prec + 1]) for e in section]
        _require(all(len(x) == prec + 1 for x in c), "section precision too low")
        _require([x[0] for x in c] == [int(i == k) for i in range(d)],
                 "sections are not the fundamental basis")
        for r in range(d):
            acc = s_derive(c[r])
            for s in range(d):
                acc = s_add(acc, s_mul(matrix[r][s] + [0] * prec, c[s])[:prec])
            _require(not any(acc), f"section {k} is not horizontal")


class ModulesJob:
    """`verify_tensor_pairing` on one generated pair of delta-modules."""

    def __init__(self, job_id, api, left, right):
        self.id = job_id
        self.left_rows, self.right_rows = left, right
        self.left = self._module(api, left)
        self.right = self._module(api, right)
        self.first = None

    @staticmethod
    def _module(api, rows):
        TSeries = api.series.TSeries
        return api.delta_modules.DeltaModule.from_rows(
            [[TSeries(e, MODULE_PRECISION) for e in row] for row in rows])

    def run(self, api):
        return api.delta_modules.verify_tensor_pairing(self.left, self.right)

    def verify(self, report, api):
        summary = report.to_json()
        _require(report.ok, f"pairing report not ok: {summary}")
        if self.first is not None:
            _require(summary == self.first, "report differs from the first pass")
            return
        for rows in (self.left_rows, self.right_rows,
                     tensor_matrix(self.left_rows, self.right_rows)):
            dual = dual_matrix(rows)
            module = self._module(api, dual)
            sections = api.delta_modules.horizontal_sections(module)
            check_sections(dual, sections, MODULE_PRECISION + 1)
        self.first = summary


def make_jobs(workload, seed, api):
    """The workload's jobs for a seed.  CLI workloads run fixed documents and
    the seed only orders them; `modules` draws its coefficients from it."""
    rng = random.Random(seed)
    if workload == "modules":
        shapes = list(MODULE_SHAPES)
        rng.shuffle(shapes)
        return [
            ModulesJob(f"pair{i}-{a}x{b}", api, random_matrix(rng, a), random_matrix(rng, b))
            for i, (a, b) in enumerate(shapes)
        ]
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    jobs = [CliJob(job_id, argv, check, pinned.get(job_id))
            for job_id, argv, check in cli_jobs(workload)]
    rng.shuffle(jobs)
    return jobs
