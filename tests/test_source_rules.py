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
