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


def test_function_bodies_import_only_csv_for_csv_reports():
    # a module is imported at the top of the module that needs it, so
    # what `import arcring.cli` loads can be read off the module heads;
    # csv alone waits for a csv report
    found = [
        (node.name, alias.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
        for alias in inner.names
    ]
    assert found == [("render_report", "csv")]


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
    the public methods of its classes, as (qualified name, name,
    definition node, is a method)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item, True


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _local_names(func) -> set:
    """The names func binds itself: parameters and the targets of its
    assignments, loops and comprehensions, not those of nested functions."""
    args = func.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    stack = list(func.body) if isinstance(func.body, list) else [func.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _references(tree, modules) -> tuple:
    """(attributes, names): the lines of tree where each name occurs as an
    attribute, which may call a method, and where it occurs as a name no
    enclosing function binds, or at the end of an attribute chain rooted
    at an imported module, which may call a module-level definition.
    modules are the package's module names."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            aliases |= {a.asname or a.name for a in node.names if a.name in modules}
    attributes: dict = {}
    names: dict = {}

    def visit(node, bound):
        if isinstance(node, _SCOPES):
            bound = bound | _local_names(node)
        if isinstance(node, ast.Attribute):
            attributes.setdefault(node.attr, []).append(node.lineno)
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in aliases - bound:
                names.setdefault(node.attr, []).append(node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
            names.setdefault(node.id, []).append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, frozenset())
    return attributes, names


def _uncalled(package: dict, others: dict) -> list:
    """The public definitions of the package's modules that nothing
    outside their own definition calls, as module.qualified_name.
    package and others map a module name to its source; only the
    package's definitions are checked, and others may call them too."""
    trees = {(True, stem): ast.parse(text) for stem, text in package.items()}
    trees.update({(False, stem): ast.parse(text) for stem, text in others.items()})
    refs = {key: _references(tree, set(package)) for key, tree in trees.items()}
    unused = []
    for key, tree in trees.items():
        if not key[0]:
            continue
        for qualified, name, node, is_method in _definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                where != key or line not in own
                for where, (attributes, names) in refs.items()
                for line in (attributes if is_method else names).get(name, ())
            ):
                unused.append(f"{key[1]}.{qualified}")
    return unused


def test_public_names_have_a_caller_outside_tests():
    # public API that only tests reach is kept for the tests alone: each
    # public function, class and method in src/arcring must be called
    # somewhere in src/ or bench/ outside its own definition, a method
    # as an attribute and a module-level name as itself or through its
    # module
    bench = PACKAGE.parents[1] / "bench"
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    others = {path.stem: path.read_text() for path in sorted(bench.glob("*.py"))}
    # bench/tracer.py names it only as a string in ALIASES, and it goes
    # with the cache (ROADMAP item 4)
    allowed = {"cache.payload_to_ring"}
    assert [name for name in _uncalled(package, others) if name not in allowed] == []


# Excerpts of the package and bench at commit 078fccd, verbatim but for
# the elided lines: only tests called the module-level unit and
# idempotent and the method IntMatrix.identity, while callers of the
# same bare names (a method, a local, a loop target) hid them.
_EXCERPTS_078FCCD = {
    "__init__": """
from .arc_ring import (
    idempotent,
    unit,
)
__all__ = ["idempotent", "unit"]
""",
    "arc_ring": """
class ArcRing:
    def idempotent(self, a: Matching) -> RingElement:
        k = len(glue(a, a).circles)
        return RingElement(self.n, {BasisVector(a, a, "1" * k): 1})

    def unit(self) -> RingElement:
        out = RingElement(self.n)
        for a in self.order:
            out = out + self.idempotent(a)
        return out


def idempotent(a: Matching) -> RingElement:
    return get_ring(a.n).idempotent(a)


def unit(n: int) -> RingElement:
    return get_ring(n).unit()


def verify_ring_integrity(n: int, seed: int = 0, samples: int = 10000) -> dict:
    failure = _unit_failure(ring, ring.unit())
""",
    "integer_linalg": """
class IntMatrix:
    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])
""",
    "center": """
def verify_presentation_iso(n: int, seed: int = 0, pres: CenterPresentation | None = None) -> dict:
    elementary = [ring.unit()] + [RingElement(n)] * (2 * n)


def verify_symmetric_action(n: int, seed: int = 0, pres: CenterPresentation | None = None) -> dict:
    identity = {j: j for j in range(1, 2 * n + 1)}
    identity_ok = all(act(identity, c) == c for c in coords)
""",
}

_BENCH_078FCCD = {
    "run": """
def unit_of(metric: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if metric.endswith(suffix):
            return unit
""",
}


def test_callers_by_bare_name_do_not_count():
    # the excerpts keep no caller of their other definitions
    hidden = ["arc_ring.idempotent", "arc_ring.unit", "integer_linalg.IntMatrix.identity"]
    called = ["arc_ring.ArcRing.idempotent", "arc_ring.ArcRing.unit"]
    unused = _uncalled(_EXCERPTS_078FCCD, _BENCH_078FCCD)
    assert [name for name in unused if name in hidden + called] == hidden


def test_module_level_names_count_through_their_module():
    package = {"cache": "def load_ring(n):\n    return n\n"}
    callers = {
        "import arcring.cache\narcring.cache.load_ring(3)\n": [],
        "from arcring import cache as c\nc.load_ring(3)\n": [],
        "def run(ns):\n    return [load_ring(n) for n in ns]\n": [],
        "ring.load_ring(3)\n": ["cache.load_ring"],
        "from arcring import cache\ndef run(cache):\n    return cache.load_ring(3)\n": [
            "cache.load_ring"
        ],
        "def run(ns):\n    return [load_ring for load_ring in ns]\n": ["cache.load_ring"],
    }
    for source, unused in callers.items():
        assert _uncalled(package, {"run": source}) == unused, source


def test_package_exports_resolve():
    import arcring

    assert [name for name in arcring.__all__ if not hasattr(arcring, name)] == []
