"""Rules every module of the package keeps, checked on its source.

A structural surprise raises one of the typed errors in errors.py,
never a bare AssertionError: an assert statement is stripped under
python -O, and its error names nothing a caller could catch apart
from a failing test.  A function cache keeps what it returns for the
life of the process, so the cached functions are listed by name.
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


def _decorator_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_process_wide_caches_are_listed():
    # a new process-wide cache takes a deliberate edit of this list
    cached = {
        node.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_decorator_name(d) in ("lru_cache", "cache") for d in node.decorator_list)
    }
    assert cached == {
        "label_words",
        "get_ring",
        "glue",
        "_matchings",
        "arrows",
        "monomials_of_degree",
        "_admissible_index",
    }
