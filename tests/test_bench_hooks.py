"""The benchmark's hooks into the package still resolve.

bench/tracer.py patches the methods in its METHODS on their classes and
names spans through ALIASES, and bench/run.py sums self times over the
modules in its LAYERS, so every module with a function the tracer wraps
must be a layer.  A renamed method or a new module would otherwise show
up only as a failing traced benchmark run.  Both bench files are
only read here: tracer.py is executed from its source text, so no
bytecode is written beside it, and LAYERS is read from run.py's syntax
tree without importing it.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
PACKAGE = ROOT / "src" / "arcring"


def _tracer():
    path = BENCH / "tracer.py"
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _resolve(qualified: str):
    """The object named module.attr[.attr...] inside arcring."""
    module, *attrs = qualified.split(".")
    obj = importlib.import_module(f"arcring.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def _layers() -> tuple:
    tree = ast.parse((BENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no LAYERS")


def test_tracer_hooks_resolve():
    tracer = _tracer()
    assert tracer.METHODS
    for module, cls, method in tracer.METHODS:
        assert callable(_resolve(f"{module}.{cls}.{method}")), (module, cls, method)
    for key in tracer.ALIASES:
        assert callable(_resolve(key)), key


def _spanned(name: str) -> bool:
    """Whether the tracer wraps a function of arcring.<name>, as install() picks them."""
    module = importlib.import_module(f"arcring.{name}")
    return any(
        not attr.startswith("_")
        and not inspect.isclass(obj)
        and callable(obj)
        and getattr(obj, "__module__", None) == module.__name__
        for attr, obj in vars(module).items()
    )


def test_every_module_is_a_layer():
    # a module whose functions get spans but which is no layer breaks
    # the check that layer self times plus outside time fill the window;
    # errors.py defines only classes, which get no span
    layers = set(_layers())
    modules = {p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    assert {"arc_ring", "cli", "errors"} <= modules
    assert not _spanned("errors")
    assert {name for name in modules if _spanned(name)} - layers == set()
