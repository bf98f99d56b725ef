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


def _definitions(tree):
    """The public module-level functions and classes of a module, and
    the public methods of its classes, as (name, definition node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item


def _references(tree) -> dict:
    """How often each name occurs in tree as a Name or an Attribute."""
    counts: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] = counts.get(node.id, 0) + 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] = counts.get(node.attr, 0) + 1
    return counts


def test_public_names_have_a_caller_outside_tests():
    # public API that only tests reach is kept for the tests alone: each
    # public function, class and method in src/arcring must be named
    # somewhere in src/ or bench/ outside its own definition
    bench = PACKAGE.parents[1] / "bench"
    paths = sorted(PACKAGE.glob("*.py")) + sorted(bench.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    total: dict = {}
    for tree in trees.values():
        for name, count in _references(tree).items():
            total[name] = total.get(name, 0) + count
    # bench/tracer.py names it only as a string in ALIASES, and it goes
    # with the cache (ROADMAP item 4)
    allowed = {"payload_to_ring"}
    unused = [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for name, node in _definitions(tree)
        if name not in allowed and total.get(name, 0) == _references(node).get(name, 0)
    ]
    assert unused == []


def test_package_exports_resolve():
    import arcring

    assert [name for name in arcring.__all__ if not hasattr(arcring, name)] == []
