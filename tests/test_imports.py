"""No module in `src/djets` imports a name it does not use, and no
function binds a local it never reads.

The scans read each module with the stdlib `ast`.  Every name bound by an
import must occur as a name somewhere in the same module.  `__init__.py` is
skipped, because its imports are the package's re-exports.  The single
allowed exception is `cli.sharp_integrate`: the benchmark's tracer wraps
every binding of `dvariety.sharp_integrate`, and its self-test requires
this one to exist.  Every name a function binds (assignment, loop or
unpacking target, `with ... as`, `except ... as`) must be read somewhere in
that function, nested functions included; a target that is deliberately
unused takes a name starting with `_`.  Outside `series.py` no module in
`src/djets` or `tests` touches `TSeries._ints` or the raw stored integers
(`SERIES_PRIVATE`), so every series is built by that module and every
outside reader sees its reduced integer form or, through
`series.over_one_denominator`, its stored integers over one common
denominator.  In `src/djets` only the functions of `RAW_READERS` read the
reduced form (`.nums` or `.den`) outside `series.py`; every other reader
goes through `series`.  In `mpoly.py` only `_zero_like` reads `TSeries`,
to evaluate at a point of series, so a polynomial's coefficients stay
rational, and no code in `mpoly.py` calls `int(...)`, so an exponent
vector is never coerced.  In `src/djets` only `dvariety.py` calls
`SharpPoint(...)`, and no function has both a `DVariety`-annotated and a
`SharpPoint`-annotated parameter: a sharp point carries its variety, so a
second one beside it could only disagree.  Every public
top-level function or class of a module in `src/djets` other than
`__init__.py` is read somewhere in those modules, as a name or an
attribute: an API that only the tests or the re-exports use is dead code.
Every module of `src/djets` sits in one layer of `LAYERS` and imports,
at any depth of its body, only modules of lower layers, so the package
imports form no cycle.  `dvariety` imports nothing from `delta_modules`:
the differential jet space solves its linear ODE through `series` alone.  Only the modules in `SERIES_DOMAIN` name the
series domain of `linalg` (`SERIES`, or its value "series"): elimination
over the series field stays in the product decomposition, and the jet
layer stays over Q.  Every top-level `check_*` of `acceptance.py` is
declared by `_criterion(key, title, budget)` with its row of `CRITERIA`
and called exactly once in `run_all`.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "djets"

ALLOWED = {("cli", "sharp_integrate")}

# The constructor from integers and the raw, possibly unreduced, stored form.
SERIES_PRIVATE = {"_ints", "_raw_nums", "_raw_den", "_is_reduced", "_reduce_raw"}

INTEGER_FORM = {"nums", "den"}

# (module, top-level function or Class.method) pairs that read the integer
# form of a series outside `series.py`.
RAW_READERS = {
    ("delta_modules", "_constants"),
    ("tangent", "log_constant"),
}

SERIES_DOMAIN = {"linalg", "delta_modules"}


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def dead_locals(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(func))
        names = [n for n in nodes if isinstance(n, ast.Name)]
        read = {n.id for n in names if not isinstance(n.ctx, ast.Store)}
        read |= {name for n in nodes if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names}
        bound = {n.id for n in names if isinstance(n.ctx, ast.Store)}
        bound |= {n.name for n in nodes if isinstance(n, ast.ExceptHandler) and n.name}
        found |= {(func.name, name) for name in bound - read if not name.startswith("_")}
    return sorted(found)


def test_no_unused_imports_in_src():
    found = {
        (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(path)
    }
    assert found - ALLOWED == set()


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from math import gcd, lcm\n"
        "print(gcd, system.argv)\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == ["lcm", "os"]


def test_no_dead_locals_in_src():
    found = [
        (path.stem, *entry)
        for path in sorted(SRC.glob("*.py"))
        for entry in dead_locals(path)
    ]
    assert found == []


def test_the_scan_sees_a_dead_local(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def f(pairs):\n"
        "    total = 0\n"
        "    for i, (a, b) in enumerate(pairs):\n"
        "        unused = a * 2\n"
        "        total += b\n"
        "    for _k, _ in pairs:\n"
        "        pass\n"
        "    try:\n"
        "        return total\n"
        "    except ValueError as exc:\n"
        "        return None\n"
        "\n"
        "def g():\n"
        "    seen = []\n"
        "    def inner():\n"
        "        seen.append(1)\n"
        "    return inner\n",
        encoding="utf-8",
    )
    assert dead_locals(module) == [("f", "exc"), ("f", "i"), ("f", "unused")]


def series_private_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted({
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in SERIES_PRIVATE
    })


def test_only_series_touches_the_integer_form():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    found = [
        (path.parent.name, path.stem, name)
        for path in paths
        if path != SRC / "series.py"
        for name in series_private_uses(path)
    ]
    assert found == []


def test_the_scan_sees_the_integer_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from djets.series import TSeries\n"
        "s = TSeries._ints([2, 4], 1, 1)\n"
        "print(s._ints, s.nums, s.den, s.coeffs)\n"
        "print(s._raw_nums, s._raw_den, s._is_reduced, s._reduce_raw())\n",
        encoding="utf-8",
    )
    assert series_private_uses(module) == [
        "_ints", "_is_reduced", "_raw_den", "_raw_nums", "_reduce_raw",
    ]


def owned_nodes(path):
    """(owner, node) pairs: each statement of a module with its owner, the
    top-level function or `Class.method` it is, or "<module>"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    owned = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            owned += [(f"{node.name}.{item.name}" if isinstance(item, funcs)
                       else node.name, item) for item in node.body]
        else:
            owned.append((node.name if isinstance(node, funcs) else "<module>", node))
    return owned


def integer_form_readers(path):
    """(module, owner) pairs where `.nums` or `.den` is read."""
    return sorted({
        (path.stem, owner) for owner, node in owned_nodes(path) for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and sub.attr in INTEGER_FORM
    })


def test_only_the_listed_functions_read_the_integer_form():
    found = {
        entry for path in sorted(SRC.glob("*.py")) if path.name != "series.py"
        for entry in integer_form_readers(path)
    }
    assert found == RAW_READERS


def test_the_scan_sees_a_stray_integer_form_reader(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from djets.series import TSeries\n"
        "TOP = TSeries.zero(2).den\n"
        "def reads(s):\n"
        "    def inner():\n"
        "        return s.nums\n"
        "    return inner\n"
        "def clean(s, f):\n"
        "    return s.coeffs, f.denominator, s.prec\n"
        "class C:\n"
        "    def method(self, s):\n"
        "        return s.den\n",
        encoding="utf-8",
    )
    assert integer_form_readers(module) == [
        ("m", "<module>"), ("m", "C.method"), ("m", "reads"),
    ]


def series_readers(path):
    """The owners that read `TSeries`, as a name or an attribute; an import
    alone reads nothing."""
    return sorted({
        owner for owner, node in owned_nodes(path) for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and sub.id == "TSeries"
        or isinstance(sub, ast.Attribute) and sub.attr == "TSeries"
    })


def test_polynomials_read_series_only_to_evaluate_at_them():
    assert series_readers(SRC / "mpoly.py") == ["_zero_like"]


def test_the_scan_sees_a_stray_series_reader(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from djets import series\n"
        "from djets.series import TSeries\n"
        "ZERO = TSeries.zero(2)\n"
        "def lift(c):\n"
        "    return isinstance(c, (int, series.TSeries))\n"
        "def clean(c):\n"
        "    return c.prec\n"
        "class P:\n"
        "    def coeff(self, c: TSeries):\n"
        "        return c\n",
        encoding="utf-8",
    )
    assert series_readers(module) == ["<module>", "P.coeff", "lift"]


def int_callers(path):
    """The owners that call `int(...)`."""
    return sorted({
        owner for owner, node in owned_nodes(path) for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
        and sub.func.id == "int"
    })


def test_polynomials_never_coerce_an_exponent():
    assert int_callers(SRC / "mpoly.py") == []


def test_the_scan_sees_an_int_call(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "ONE = int('1')\n"
        "def exps(e):\n"
        "    return tuple(int(a) for a in e)\n"
        "def clean(e):\n"
        "    return isinstance(e, int) and e.bit_length()\n"
        "class P:\n"
        "    def hasse(self, alpha):\n"
        "        return [int(a) for a in alpha]\n",
        encoding="utf-8",
    )
    assert int_callers(module) == ["<module>", "P.hasse", "exps"]


def named(node, name):
    """Whether an expression is `name`, `module.name` or the string "name"."""
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.Constant) and node.value == name)


def sharp_point_builders(path):
    """The owners that call `SharpPoint(...)`."""
    return sorted({
        owner for owner, node in owned_nodes(path) for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and named(sub.func, "SharpPoint")
    })


def test_only_dvariety_builds_sharp_points():
    found = sorted(path.stem for path in SRC.glob("*.py") if sharp_point_builders(path))
    assert found == ["dvariety"]


def test_the_scan_sees_a_sharp_point_built(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from djets import dvariety\n"
        "from djets.dvariety import SharpPoint\n"
        "POINT = SharpPoint(None, ())\n"
        "def integrate(v, c):\n"
        "    return dvariety.SharpPoint(v, c)\n"
        "def reads(p: SharpPoint):\n"
        "    return isinstance(p, SharpPoint), p.coords\n"
        "class Q:\n"
        "    def lift(self, v):\n"
        "        return SharpPoint(v, ())\n",
        encoding="utf-8",
    )
    assert sharp_point_builders(module) == ["<module>", "Q.lift", "integrate"]


def variety_beside_point(path):
    """The functions, nested ones and methods included, with one parameter
    annotated `DVariety` and another annotated `SharpPoint`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = func.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        notes = [p.annotation for p in params if p.annotation is not None]
        if all(any(named(n, kind) for n in notes) for kind in ("DVariety", "SharpPoint")):
            found.add(func.name)
    return sorted(found)


def test_no_function_takes_a_variety_beside_a_sharp_point():
    found = [(path.stem, name) for path in sorted(SRC.glob("*.py"))
             for name in variety_beside_point(path)]
    assert found == []


def test_the_scan_sees_a_variety_beside_a_sharp_point(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def both(variety: DVariety, point: SharpPoint):\n"
        "    def inner(v: 'DVariety', *, p: dvariety.SharpPoint):\n"
        "        return v, p\n"
        "    return inner\n"
        "def point_only(point: SharpPoint, order):\n"
        "    return point.variety\n"
        "def varieties(left: DVariety, right: DVariety) -> SharpPoint:\n"
        "    return left, right\n"
        "class C:\n"
        "    async def method(self, v: DVariety, *points: SharpPoint):\n"
        "        return v, points\n",
        encoding="utf-8",
    )
    assert variety_beside_point(module) == ["both", "inner", "method"]


def names_series_domain(path):
    """Whether a module names `SERIES` (as a name, attribute or import) or
    spells its value "series"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return any(
        isinstance(node, ast.Name) and node.id == "SERIES"
        or isinstance(node, ast.Attribute) and node.attr == "SERIES"
        or isinstance(node, ast.alias) and "SERIES" in (node.name, node.asname)
        or isinstance(node, ast.Constant) and node.value == "series"
        for node in ast.walk(tree)
    )


def test_only_the_product_decomposition_eliminates_over_series():
    found = sorted(path.stem for path in SRC.glob("*.py") if names_series_domain(path))
    assert set(found) <= SERIES_DOMAIN, found


def test_the_scan_sees_the_series_domain(tmp_path):
    sources = {
        "name": "from .linalg import rref, SERIES\nrref([], 0, SERIES)\n",
        "alias": "from .linalg import SERIES as S\n",
        "attribute": "from . import linalg\nlinalg.rref([], 0, linalg.SERIES)\n",
        "literal": "from .linalg import rref\nrref([], 0, 'series')\n",
        "clean": "from .linalg import RATIONAL, rref\nrref([], 0, RATIONAL)  # series\n",
    }
    for name, text in sources.items():
        (tmp_path / f"{name}.py").write_text(text, encoding="utf-8")
    assert sorted(
        path.stem for path in tmp_path.glob("*.py") if names_series_domain(path)
    ) == ["alias", "attribute", "literal", "name"]


def public_definitions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def names_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def dead_api(paths):
    read = set().union(*(names_read(path) for path in paths))
    return sorted(
        (path.stem, name)
        for path in paths
        for name in public_definitions(path)
        if name not in read
    )


def test_every_public_definition_is_read_in_src():
    paths = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert dead_api(paths) == []


def test_the_scan_sees_dead_api(tmp_path):
    (tmp_path / "a.py").write_text(
        "from b import used_elsewhere\n"
        "class Used:\n"
        "    pass\n"
        "class Unused:\n"
        "    def method(self):\n"
        "        return Used()\n"
        "def helper():\n"
        "    return used_elsewhere()\n"
        "def _private():\n"
        "    pass\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "import a\n"
        "def used_elsewhere():\n"
        "    return a.helper\n"
        "def only_defined():\n"
        "    pass\n",
        encoding="utf-8",
    )
    paths = sorted(tmp_path.glob("*.py"))
    assert dead_api(paths) == [("a", "Unused"), ("b", "only_defined")]


# Lowest first.  tangent imports diffpoly for the kernel identity and cli
# imports acceptance for `suite`, so each sits one layer above the other.
LAYERS = (
    ("errors",),
    ("series",),
    ("mpoly",),
    ("linalg",),
    ("jets", "delta_modules"),
    ("dvariety",),
    ("diffpoly",),
    ("tangent",),
    ("dsl",),
    ("acceptance",),
    ("cli",),
    ("__init__", "__main__"),
)


def package_imports(path):
    """The sibling modules a module imports by relative import, anywhere in it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found |= {a.name for a in node.names}
    return found


def layering_violations(paths, layers):
    """(module, imported module) pairs whose import does not go down a layer;
    a module missing from the layers is paired with None."""
    rank = {name: i for i, layer in enumerate(layers) for name in layer}
    found = []
    for path in paths:
        if path.stem not in rank:
            found.append((path.stem, None))
            continue
        found += [
            (path.stem, name) for name in sorted(package_imports(path))
            if rank.get(name, len(layers)) >= rank[path.stem]
        ]
    return sorted(found)


def test_imports_follow_the_layers():
    assert layering_violations(sorted(SRC.glob("*.py")), LAYERS) == []


def test_the_scan_sees_an_import_against_the_layers(tmp_path):
    (tmp_path / "low.py").write_text("from . import high\n", encoding="utf-8")
    (tmp_path / "mid.py").write_text(
        "from .low import f\n"
        "from .mid2 import g\n"
        "def h():\n"
        "    from .high import k\n"
        "    return f, g, k\n",
        encoding="utf-8",
    )
    (tmp_path / "mid2.py").write_text("import os\n", encoding="utf-8")
    (tmp_path / "high.py").write_text("from .low import f\n", encoding="utf-8")
    (tmp_path / "stray.py").write_text("", encoding="utf-8")
    layers = (("low",), ("mid", "mid2"), ("high",))
    assert layering_violations(sorted(tmp_path.glob("*.py")), layers) == [
        ("low", "high"), ("mid", "high"), ("mid", "mid2"), ("stray", None),
    ]


def imports_from(path, target):
    """The names a module imports from the sibling module `target`, at any
    depth of its body, by a relative or a `djets.` import; importing the
    module itself yields its own name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0:
                if not source.startswith("djets"):
                    continue
                source = source[len("djets"):].lstrip(".")
            if source == target:
                found |= {a.name for a in node.names}
            elif not source:
                found |= {a.name for a in node.names if a.name == target}
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name == f"djets.{target}"}
    return sorted(found)


def test_differential_jets_do_not_go_through_delta_modules():
    # delta_jet_space solves v' = B v with series.fundamental_matrix itself.
    assert imports_from(SRC / "dvariety.py", "delta_modules") == []


def test_the_scan_sees_an_import_from_a_module(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from .delta_modules import DeltaModule\n"
        "from . import delta_modules, series\n"
        "from .series import transpose\n"
        "import djets.delta_modules\n"
        "import djets.series\n"
        "def f():\n"
        "    from djets.delta_modules import dual\n"
        "    from djets import delta_modules_extra\n"
        "    return dual\n",
        encoding="utf-8",
    )
    assert imports_from(module, "delta_modules") == [
        "DeltaModule", "delta_modules", "djets.delta_modules", "dual",
    ]


# The acceptance criteria, as (key, title, budget).  A budget is the floor
# of the suite and is never raised to let a slow path pass, so a changed row
# here is a changed criterion.
CRITERIA = {
    "check_tangent_display": (
        "tangent-display", "Jacobian linearization of the plane system", 1.0),
    "check_restriction_display": (
        "restriction-display", "restriction to the constant diagonal", 1.0),
    "check_kernel_identity": (
        "kernel-identity", "second log derivative of u - v vanishes symbolically",
        1.0),
    "check_surjectivity_witnesses": (
        "surjectivity-witnesses", "witness family (c, c, 2 exp(ct), exp(ct))", 2.0),
    "check_dimension_law": (
        "dimension-law", "horizontal sections count the module dimension", 10.0),
    "check_tensor_pairing": (
        "tensor-pairing", "pairings of horizontal duals span the dual tensor", 20.0),
    "check_product_decomposition": (
        "product-decomposition",
        "horizontal product jets decompose with constant coefficients", 30.0),
    "check_constant_points_jets": (
        "constant-points-jets", "jets of constant points equal the rational nullspace",
        1.0),
    "check_m1_crosscheck": (
        "m1-crosscheck", "order-1 jets agree with the Jacobian linearization", 10.0),
    "check_degree_step": (
        "degree-step", "log-derivative degree comparison never balances", 5.0),
    "check_series_oracles": (
        "series-oracles", "sharp integration reproduces exp and 1/(1-t)", 1.0),
    "check_property_suites": (
        "property-suites", "randomized invariants, 100 cases each", 60.0),
}


def criterion_of(func):
    """The (key, title, budget) of a function's lone `_criterion(...)`
    decorator, or None."""
    if len(func.decorator_list) != 1:
        return None
    deco = func.decorator_list[0]
    if not (isinstance(deco, ast.Call) and isinstance(deco.func, ast.Name)
            and deco.func.id == "_criterion" and not deco.keywords):
        return None
    return tuple(ast.literal_eval(arg) for arg in deco.args)


def criterion_violations(path, table):
    """(check, problem) pairs: a top-level `check_*` that is not declared by
    `_criterion` with its row of `table`, or is not called exactly once in
    `run_all`, and a row of `table` with no check."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    checks = {name: node for name, node in functions.items()
              if name.startswith("check_")}
    calls = [node.func.id for node in ast.walk(functions["run_all"])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in checks]
    found = [(name, "not defined") for name in table if name not in checks]
    for name, func in checks.items():
        declared = criterion_of(func)
        if declared is None:
            found.append((name, "not declared with _criterion"))
        elif declared != table.get(name):
            found.append((name, f"declares {declared}"))
        if calls.count(name) != 1:
            found.append((name, f"called {calls.count(name)} times in run_all"))
    return sorted(found)


def test_every_criterion_is_declared_once_and_run_once():
    assert criterion_violations(SRC / "acceptance.py", CRITERIA) == []


def test_the_scan_sees_a_stray_criterion(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "@_criterion('a', 'A', 1.0)\n"
        "def check_a():\n"
        "    return True, ''\n"
        "def check_b():\n"
        "    return True, ''\n"
        "@_criterion('c', 'C', 3.0)\n"
        "def check_c(seed=0):\n"
        "    return True, ''\n"
        "def run_all(seed=0):\n"
        "    return [check_b(), check_a(), check_b()]\n",
        encoding="utf-8",
    )
    table = {"check_a": ("a", "A", 1.0), "check_b": ("b", "B", 1.0),
             "check_c": ("c", "C", 2.0), "check_d": ("d", "D", 1.0)}
    assert criterion_violations(module, table) == [
        ("check_b", "called 2 times in run_all"),
        ("check_b", "not declared with _criterion"),
        ("check_c", "called 0 times in run_all"),
        ("check_c", "declares ('c', 'C', 3.0)"),
        ("check_d", "not defined"),
    ]
