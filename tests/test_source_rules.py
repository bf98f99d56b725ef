"""Rules every module of the package keeps, checked on its source.

A structural surprise raises one of the typed errors in errors.py,
never a bare AssertionError: an assert statement is stripped under
python -O, and its error names nothing a caller could catch apart
from a failing test.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "arcring"


def test_no_assert_statements():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {p.stem for p in modules} >= {"arc_ring", "cache", "errors"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_cache_and_cli_import_no_private_names():
    # the product table's layout belongs to ArcRing: the cache and the
    # command line reach it through the ring's public methods, never
    # through another module's underscore names
    found = []
    for name in ("cache.py", "cli.py"):
        path = PACKAGE / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "arcring"
            ):
                found += [
                    f"{name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert found == []
