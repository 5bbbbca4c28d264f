"""No module in `src/djets` imports a name it does not use.

The scan reads each module with the stdlib `ast`: every name bound by an
import must occur as a name somewhere in the same module.  `__init__.py` is
skipped, because its imports are the package's re-exports.  The single
allowed exception is `cli.sharp_integrate`: the benchmark's tracer wraps
every binding of `dvariety.sharp_integrate`, and its self-test requires
this one to exist.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "djets"

ALLOWED = {("cli", "sharp_integrate")}


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
