"""Span tracer that observes djets from outside the package.

`Tracer.install()` replaces every binding of each traced function -- module
attributes such as `djets.cli.sharp_integrate` or
`djets.delta_modules.constant_combination`, and class attributes such as
`TSeries.__mul__` together with its `__rmul__` alias -- by a wrapper that
records one span (name, start, end, parent) per call.  `uninstall()` puts the
originals back, so untraced passes run the program exactly as shipped.

Spans are kept in flat arrays while a pass runs and summarised afterwards:
`calls`, inclusive seconds `s` (outermost span of a name only, so recursion
is not counted twice) and `self_s` (span time minus the time its child spans
cover).  Work counters (`cells`, `pivots`) and size descriptors
(`bits_max`) are measured on arguments and results; the time spent
measuring them is taken out of every span's clock.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from fractions import Fraction
from time import perf_counter

RATIONAL_RREF = "linalg.rref.q"
SERIES_RREF = "linalg.rref.series"


def _coeff_bits(values):
    """Largest numerator or denominator bit length among scalars and series."""
    best = 0
    for v in values:
        coeffs = getattr(v, "coeffs", None)
        for c in (v,) if coeffs is None else coeffs:
            if isinstance(c, Fraction):
                best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
            elif isinstance(c, int):
                best = max(best, c.bit_length())
    return best


def _rref_name(args, kwargs):
    domain = kwargs["domain"] if "domain" in kwargs else args[2]
    return SERIES_RREF if domain == "series" else RATIONAL_RREF


def _measure_rref(tracer, name, args, kwargs, result):
    rows, ncols = args[0], args[1]
    red, pivots = result
    tracer.add(name + ".cells", len(rows) * ncols)
    tracer.add(name + ".pivots", len(pivots))
    tracer.high("linalg.rref.bits_max", _coeff_bits(e for row in red for e in row))


def _measure_sharp_point(tracer, name, args, kwargs, result):
    tracer.high("series.coeff_bits_max", _coeff_bits(result.coords))


def _measure_matrix(tracer, name, args, kwargs, result):
    tracer.high("series.coeff_bits_max", _coeff_bits(e for row in result for e in row))


# (module, attribute path, span name or namer, measure)
TRACED = (
    ("djets.cli", "main", "cli.main", None),
    ("djets.dsl", "parse_document", "dsl.parse_document", None),
    ("djets.dvariety", "sharp_integrate", "dvariety.sharp_integrate", _measure_sharp_point),
    ("djets.dvariety", "delta_jet_space", "dvariety.delta_jet_space", None),
    ("djets.mpoly", "MPoly.eval", "mpoly.eval", None),
    ("djets.mpoly", "taylor_coeffs", "mpoly.taylor_coeffs", None),
    ("djets.series", "TSeries.__mul__", "series.mul", None),
    ("djets.series", "TSeries.__truediv__", "series.div", None),
    ("djets.series", "TSeries.__add__", "series.add", None),
    ("djets.series", "fundamental_matrix", "series.fundamental_matrix", _measure_matrix),
    ("djets.linalg", "rref", _rref_name, _measure_rref),
    ("djets.linalg", "solve", "linalg.solve", None),
    ("djets.linalg", "constant_combination", "linalg.constant_combination", None),
    ("djets.jets", "jet_space", "jets.jet_space", None),
    ("djets.delta_modules", "product_jet_decompose",
     "delta_modules.product_jet_decompose", None),
    ("djets.delta_modules", "horizontal_sections", "delta_modules.horizontal_sections", None),
    ("djets.delta_modules", "is_horizontal", "delta_modules.is_horizontal", None),
    ("djets.delta_modules", "verify_tensor_pairing",
     "delta_modules.verify_tensor_pairing", None),
    ("djets.tangent", "counterexample_report", "tangent.counterexample_report", None),
    ("djets.diffpoly", "reduce", "diffpoly.reduce", None),
)

SPAN_NAMES = tuple(
    n for _, _, name, _ in TRACED
    for n in ((name,) if isinstance(name, str) else (RATIONAL_RREF, SERIES_RREF))
)


def resolve(module_name, path):
    """The function object bound at `module.path`, as stored (not bound)."""
    owner = sys.modules[module_name]
    *outer, last = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return vars(owner)[last]


def binding_sites(original):
    """Every (owner, attribute) in a loaded djets module or class bound to `original`."""
    sites = []
    for mod_name, module in sorted(sys.modules.items()):
        if mod_name != "djets" and not mod_name.startswith("djets."):
            continue
        for key, value in vars(module).items():
            if value is original:
                sites.append((module, key))
            elif isinstance(value, type) and value.__module__ == mod_name:
                sites += [(value, k) for k, v in vars(value).items() if v is original]
    return sites


class Tracer:
    """Records spans and counters for the djets functions listed in TRACED."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.nids = array("i")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = {}
        self.highs = {}
        self.excluded = 0.0
        self._stack = [-1]
        self.installed = []  # (owner, attribute, original, wrapper)

    # -- counters ---------------------------------------------------------------

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def high(self, key, value):
        self.highs[key] = max(self.highs.get(key, 0), value)

    # -- installation -----------------------------------------------------------

    def install(self):
        if self.installed:
            raise RuntimeError("tracer already installed")
        for module_name, path, name, measure in TRACED:
            original = resolve(module_name, path)
            wrapper = self._wrap(original, name, measure)
            for owner, key in binding_sites(original):
                setattr(owner, key, wrapper)
                self.installed.append((owner, key, original, wrapper))

    def uninstall(self):
        for owner, key, original, _ in reversed(self.installed):
            setattr(owner, key, original)
        self.installed = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, name, measure):
        tracer = self
        nids, parents, starts, ends = self.nids, self.parents, self.starts, self.ends
        stack = self._stack
        fixed = self._ids[name] if isinstance(name, str) else None
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if fixed is not None else name(args, kwargs)
            idx = len(starts)
            nids.append(fixed if fixed is not None else ids[label])
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter() - tracer.excluded)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter() - tracer.excluded
                stack.pop()
            if measure is not None:
                t0 = perf_counter()
                measure(tracer, label, args, kwargs, result)
                tracer.excluded += perf_counter() - t0
            return result

        return wrapper

    # -- results ----------------------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive s, self_s; plus counters."""
        n = len(self.starts)
        nids, parents, starts, ends = self.nids, self.parents, self.starts, self.ends
        child = [0.0] * n
        masks = [0] * n
        stats = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            p = parents[i]
            dur = ends[i] - starts[i]
            bit = 1 << nids[i]
            above = masks[p] if p >= 0 else 0
            masks[i] = above | bit
            if p >= 0:
                child[p] += dur
        for i in range(n):
            st = stats[self.names[nids[i]]]
            dur = ends[i] - starts[i]
            p = parents[i]
            st[0] += 1
            if not (p >= 0 and masks[p] & (1 << nids[i])):
                st[1] += dur
            st[2] += dur - child[i]
        out = {}
        for name, (calls, s, self_s) in stats.items():
            out[name + ".calls"] = calls
            out[name + ".s"] = s
            out[name + ".self_s"] = self_s
        for key in (RATIONAL_RREF, SERIES_RREF):
            out.setdefault(key + ".cells", 0)
            out.setdefault(key + ".pivots", 0)
        out.update(self.counts)
        out["linalg.rref.bits_max"] = self.highs.get("linalg.rref.bits_max", 0)
        out["series.coeff_bits_max"] = self.highs.get("series.coeff_bits_max", 0)
        return out

    def write_spans(self, path):
        """Write every span as one JSON line [name, start, end, parent]."""
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(len(self.starts)):
                handle.write(json.dumps([
                    self.names[self.nids[i]], round(self.starts[i], 7),
                    round(self.ends[i], 7), self.parents[i],
                ]) + "\n")
