"""Command-line front end.

Commands operate on `.djv` documents (see dsl.py for the grammar) and print
either human-readable text or deterministic JSON with exact rationals as
strings.  Exit codes: 0 on success, 1 when a verification fails, 2 on input
errors (parse problems, unknown names, points off the variety, and so on).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .acceptance import run_all
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
from .linalg import RATIONAL, LinSystem, rank
from .render import render_scalar, render_vector
from .series import DEFAULT_PRECISION, MAX_PRECISION
from .tangent import counterexample_report, delta_tangent, restrict

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


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
    try:
        return _dispatch(args, precision)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DecompositionFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except InvarianceViolation as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except DjetsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


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
    if len(doc.varieties) != 1:
        names = ", ".join(doc.varieties)
        raise ParseError(f"--name required: document defines {names}")
    return next(iter(doc.varieties.values()))


def _dispatch(args, precision):
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
        _emit(args, report.to_json(), lines)
        return EXIT_OK if report.ok else EXIT_VERIFICATION

    if args.command == "suite":
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
        _emit(args, payload, [r.line() for r in results])
        return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFICATION

    doc = _load(args)

    if args.command == "check":
        names = [args.name] if args.name else list(doc.varieties)
        ok = True
        lines = []
        payload = {}
        for name in names:
            variety = doc.variety(name)
            result = validate_section(variety)
            ok = ok and result.ok
            mode = "exact" if result.exact else f"sampled-only({result.sampled_points})"
            lines.append(
                f"{name}: {'valid' if result.ok else 'INVALID'} [{mode}]"
            )
            if not result.ok:
                lines += [f"  residual: {r}" for r in result.residuals]
            payload[name] = {
                "ok": result.ok,
                "exact": result.exact,
                "residuals": [str(r) for r in result.residuals],
            }
        _emit(args, payload, lines)
        return EXIT_OK if ok else EXIT_VERIFICATION

    if args.command == "jet":
        decl = doc.point(args.at)
        variety = doc.variety(decl.variety)
        point = doc.rational_point(args.at)
        space = jet_space(variety.generators, point, args.order)
        _warn_special_rank(variety, point, space)
        payload = render_jet_space(space)
        at = "(" + ", ".join(str(c) for c in point) + ")"
        lines = [
            f"jet space of {variety.name or decl.variety} at {at}, "
            f"order {args.order}: dim {space.dim}",
        ]
        lines += ["  basis " + str([str(Fraction(e)) for e in v]) for v in space.basis]
        _emit(args, payload, lines)
        return EXIT_OK

    if args.command == "tangent":
        variety = _single_variety(doc, args.name)
        bundle = delta_tangent(variety)
        if args.restriction:
            rules = doc.restriction(args.restriction).bind(variety.vars)
            bundle = restrict(bundle, rules)
        lines = bundle.presentation_text()
        _emit(args, {"equations": lines}, lines)
        return EXIT_OK

    if args.command == "integrate":
        point = doc.sharp_point(args.from_point, precision)
        lines = [
            f"{v} = {c}" for v, c in zip(point.variety.vars, point.coords)
        ]
        payload = {
            "variety": point.variety.name,
            "coords": render_vector(point.coords),
        }
        _emit(args, payload, lines)
        return EXIT_OK

    if args.command == "horizontal":
        decl = doc.point(args.from_point)
        variety = doc.variety(decl.variety)
        point = doc.sharp_point(args.from_point, precision)
        space = delta_jet_space(variety, point, args.order)
        payload = {
            "dim_K": space.dim_k,
            "dim_C": space.dim_c,
            "horizontal_basis": [render_vector(v) for v in space.horizontal],
            "precision": space.precision,
        }
        lines = [
            f"dim over series field: {space.dim_k}",
            f"dim over constants:    {space.dim_c}",
        ]
        for v in space.horizontal:
            lines.append("  " + "; ".join(str(e) for e in v))
        _emit(args, payload, lines)
        return EXIT_OK

    if args.command == "verify-product":
        left = doc.variety(args.left)
        right = doc.variety(args.right)
        lp = doc.sharp_point(args.from_points[0], precision)
        rp = doc.sharp_point(args.from_points[1], precision)
        if lp.variety.name != left.name or rp.variety.name != right.name:
            raise ParseError("points belong to different varieties than named")
        prod = product_dvariety(left, right)
        pp = product_sharp_point(prod, lp, rp)
        W = delta_jet_space(left, lp, args.order).horizontal
        Wp = delta_jet_space(right, rp, args.order).horizontal
        space = delta_jet_space(prod, pp, args.order)
        decomposed = []
        for v in space.horizontal:
            dec = product_jet_decompose(v, W, Wp, left.nvars, right.nvars, args.order)
            decomposed.append(dec.to_json())
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
        _emit(args, payload, lines)
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command}")


def _warn_special_rank(variety, point, space):
    """Warn when the order-1 rank at the point drops below the generic one."""
    if not variety.generators:
        return
    rows = [
        [P.partial(v).eval(point) for v in variety.vars]
        for P in variety.generators
    ]
    point_rank = rank(LinSystem(rows, variety.nvars, RATIONAL))
    generic = 0
    for shift in range(1, 4):
        sample = tuple(Fraction(c) + Fraction(shift, 7) for c in point)
        rows = [
            [P.partial(v).eval(sample) for v in variety.vars]
            for P in variety.generators
        ]
        generic = max(generic, rank(LinSystem(rows, variety.nvars, RATIONAL)))
    if point_rank < generic:
        print(
            "warning: order-1 rank at the point is below the generic Jacobian "
            "rank; the supplied generators may not cut the variety there",
            file=sys.stderr,
        )


if __name__ == "__main__":
    sys.exit(main())
