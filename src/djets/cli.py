"""Command-line front end.

Commands operate on `.djv` documents (see dsl.py for the grammar) and print
either human-readable text or deterministic JSON with exact rationals as
strings.  Exit codes: 0 on success, 1 when a verification fails, 2 on input
errors (parse problems, unknown names, points off the variety, and so on),
3 on an internal error, reported as one line on stderr with no traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain

from .delta_modules import product_jet_decompose
from .dsl import parse_document
from .dvariety import (
    delta_jet_space,
    product_dvariety,
    product_sharp_point,
    sharp_integrate,
    validate_section,
)
from .errors import DecompositionFailure, DjetsError, InvarianceViolation, ParseError
from .jets import jet_space, render_jet_space
from .series import DEFAULT_PRECISION, MAX_PRECISION, format_point, render_vector
from .tangent import counterexample_report, delta_tangent, restrict

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _add_common(parser, suppress=False):
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument(
        "--precision",
        "-N",
        type=int,
        default=default,
        help=f"working series precision (default {DEFAULT_PRECISION}, "
        f"at most {MAX_PRECISION}, env DJETS_PRECISION)",
    )
    parser.add_argument(
        "--order", "-m", type=int,
        default=argparse.SUPPRESS if suppress else 1,
        help="jet order, between 1 and 3",
    )
    parser.add_argument(
        "--format", choices=("text", "json"),
        default=argparse.SUPPRESS if suppress else "text",
    )
    parser.add_argument(
        "--seed", type=int,
        default=argparse.SUPPRESS if suppress else 0,
        help="seed for the randomized suites",
    )


@functools.cache  # one parser per process; parsing never changes it
def build_parser():
    parser = argparse.ArgumentParser(
        prog="djets",
        description="exact differential-algebra engine: jets, D-varieties, "
        "delta-modules, and the tangent-bundle counterexample",
    )
    _add_common(parser)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="validate sections of every dvariety block")
    p.add_argument("file")
    p.add_argument("--name", help="check a single dvariety")

    p = sub.add_parser("jet", parents=[common],
                       help="algebraic jet space at a rational point")
    p.add_argument("file")
    p.add_argument("--at", required=True, help="point block name")

    p = sub.add_parser("tangent", parents=[common],
                       help="differential tangent bundle equations")
    p.add_argument("file")
    p.add_argument("--name", help="dvariety block (default: the only one)")
    p.add_argument("--restrict", dest="restriction",
                   help="apply a named restriction block")

    p = sub.add_parser("integrate", parents=[common],
                       help="integrate a sharp point")
    p.add_argument("file")
    p.add_argument("--from", dest="from_point", required=True)

    p = sub.add_parser("horizontal", parents=[common],
                       help="differential jet space at a sharp point")
    p.add_argument("file")
    p.add_argument("--from", dest="from_point", required=True,
                   help="rational point block to integrate from")

    p = sub.add_parser("verify-product", parents=[common],
                       help="decompose horizontal jets of a product")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("file")
    p.add_argument("--from", dest="from_points", nargs=2, required=True,
                   metavar=("P1", "P2"))

    sub.add_parser("counterexample", parents=[common],
                   help="verify the restricted tangent bundle chain")

    sub.add_parser("suite", parents=[common],
                   help="run the full acceptance suite")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    precision = args.precision
    if precision is None:
        raw = os.environ.get("DJETS_PRECISION", str(DEFAULT_PRECISION))
        try:
            precision = int(raw)
        except ValueError:
            parser.error(f"DJETS_PRECISION must be an integer, not {raw!r}")
    if precision < 4:
        parser.error("precision must be at least 4")
    if precision > MAX_PRECISION:
        parser.error(f"precision must be at most {MAX_PRECISION}")
    if not 1 <= args.order <= 3:
        parser.error("jet order must be between 1 and 3")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # exact output may pass CPython's int-to-str limit
    try:
        return _run(args, precision)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(args, precision):
    try:
        code, payload, lines = _dispatch(args, precision)
    except (DecompositionFailure, InvarianceViolation) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except DjetsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        _emit(args, payload, lines)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (say `| head -1`): the verdict still stands,
        # and the rest of the output, flushed again at exit, goes nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def _load(args):
    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ParseError(f"cannot read {args.file}: {reason}") from exc
    return parse_document(text)


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _single_variety(doc, name):
    if name is not None:
        return doc.variety(name)
    if not doc.varieties:
        raise ParseError("document defines no dvariety")
    if len(doc.varieties) != 1:
        names = ", ".join(doc.varieties)
        raise ParseError(f"--name required: document defines {names}")
    return next(iter(doc.varieties.values()))


def _dispatch(args, precision):
    """Run one command; returns (exit code, JSON payload, text lines).

    Lines that print series or jet bases are generated lazily, so
    `--format json` never renders them.
    """
    if args.command == "counterexample":
        report = counterexample_report(precision=precision)
        lines = ["tangent bundle:"]
        lines += [f"  {eq}" for eq in report.tangent_equations]
        lines.append("restricted to the constant diagonal:")
        lines += [f"  {eq}" for eq in report.restricted_equations]
        lines.append(f"kernel identity: {report.kernel_identity}")
        for w in report.witnesses:
            status = "ok" if w.ok else "FAIL"
            lines.append(f"witness c={w.ratio}: {status}")
        lines.append("all checks passed" if report.ok else "FAILED")
        return (EXIT_OK if report.ok else EXIT_VERIFICATION), report.to_json(), lines

    if args.command == "suite":
        # Loaded here only: the other commands never need the suite's modules.
        from .acceptance import run_all

        results = run_all(seed=args.seed)
        payload = [
            {
                "key": r.key,
                "title": r.title,
                "passed": r.passed,
                "seconds": round(r.seconds, 3),
                "detail": r.detail,
            }
            for r in results
        ]
        code = EXIT_OK if all(r.passed for r in results) else EXIT_VERIFICATION
        return code, payload, [r.line() for r in results]

    doc = _load(args)

    if args.command == "check":
        names = [args.name] if args.name else list(doc.varieties)
        if not names:
            raise ParseError("document defines no dvariety")
        ok = True
        lines = []
        payload = {}
        for name in names:
            variety = doc.variety(name)
            result = validate_section(variety)
            ok = ok and result.ok
            lines.append(f"{name}: {'valid' if result.ok else 'INVALID'} [exact]")
            if not result.ok:
                lines += [f"  residual: {r}" for r in result.residuals]
            payload[name] = {
                "ok": result.ok,
                "exact": True,
                "residuals": [str(r) for r in result.residuals],
            }
        return (EXIT_OK if ok else EXIT_VERIFICATION), payload, lines

    if args.command == "jet":
        decl = doc.point(args.at)
        variety = doc.variety(decl.variety)
        point = doc.rational_point(args.at)
        space = jet_space(variety.generators, point, args.order)
        # Text output prints only the basis: render the equations for JSON only.
        payload = render_jet_space(space) if args.format == "json" else None
        header = (f"jet space of {variety.name or decl.variety} at {format_point(point)}"
                  f", order {args.order}: dim {space.dim}")
        lines = chain([header], (f"  basis {[str(e) for e in v]}" for v in space.basis))
        return EXIT_OK, payload, lines

    if args.command == "tangent":
        variety = _single_variety(doc, args.name)
        bundle = delta_tangent(variety)
        if args.restriction:
            rules = doc.restriction(args.restriction).bind(variety.vars)
            bundle = restrict(bundle, rules)
        lines = bundle.presentation_text()
        return EXIT_OK, {"equations": lines}, lines

    if args.command == "integrate":
        point = doc.sharp_point(args.from_point, precision)
        lines = (f"{v} = {c}" for v, c in zip(point.variety.vars, point.coords))
        payload = {
            "variety": point.variety.name,
            "coords": render_vector(point.coords),
        }
        return EXIT_OK, payload, lines

    if args.command == "horizontal":
        point = doc.sharp_point(args.from_point, precision)
        space = delta_jet_space(point.variety, point, args.order)
        payload = {
            "dim_K": space.dim_k,
            "dim_C": space.dim_c,
            "horizontal_basis": [render_vector(v) for v in space.horizontal],
            "precision": space.precision,
        }
        lines = chain(
            [
                f"dim over series field: {space.dim_k}",
                f"dim over constants:    {space.dim_c}",
            ],
            ("  " + "; ".join(str(e) for e in v) for v in space.horizontal),
        )
        return EXIT_OK, payload, lines

    if args.command == "verify-product":
        left = doc.variety(args.left)
        right = doc.variety(args.right)
        if [doc.point(p).variety for p in args.from_points] != [left.name, right.name]:
            raise ParseError("points belong to different varieties than named")
        lp, rp = (doc.sharp_point(p, precision) for p in args.from_points)
        prod = product_dvariety(left, right)
        pp = product_sharp_point(prod, lp, rp)
        W = delta_jet_space(left, lp, args.order).horizontal
        Wp = delta_jet_space(right, rp, args.order).horizontal
        space = delta_jet_space(prod, pp, args.order)
        decomposed = [
            dec.to_json()
            for dec in product_jet_decompose(
                space.horizontal, W, Wp, left.nvars, right.nvars, args.order
            )
        ]
        payload = {
            "product": prod.name,
            "order": args.order,
            "jets": decomposed,
            "dim_C": space.dim_c,
        }
        lines = [
            f"product {prod.name}, order {args.order}: "
            f"{len(decomposed)} horizontal jets decompose with constant coefficients"
        ]
        return EXIT_OK, payload, lines

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
