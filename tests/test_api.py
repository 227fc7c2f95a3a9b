"""Every module's ``__all__`` names exactly its public API, and nothing but
``binform`` and the shim's own tests names ``BinForm``."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import curvesplit

# the tests in tests/test_binform.py that exercise the ``BinForm`` shim
SHIM_TESTS = {"test_empty_vector_refused", "test_shim_product_and_moduli"}

# exported names that are neither functions nor classes: constants and aliases
NON_CALLABLE_EXPORTS = {"conjscan": {"R7_FAMILIES"}, "exactla": {"MODULUS"}, "lattice": {"WeylWord"}}


def public_api(mod) -> set[str]:
    """The functions and classes a module defines under a public name; a
    cached function counts as the function it wraps."""
    return {
        name
        for name, obj in vars(mod).items()
        if not name.startswith("_")
        and (inspect.isfunction(inspect.unwrap(obj)) or inspect.isclass(obj))
        and obj.__module__ == mod.__name__
    }


def test_all_names_exactly_the_public_api():
    mismatches = {}
    for info in pkgutil.iter_modules(curvesplit.__path__):
        mod = importlib.import_module(f"curvesplit.{info.name}")
        if info.name == "cli":  # the command-line entry point exports nothing
            continue
        extra = NON_CALLABLE_EXPORTS.get(info.name, set())
        assert len(mod.__all__) == len(set(mod.__all__)), info.name
        assert all(hasattr(mod, name) for name in extra), info.name
        listed, want = set(mod.__all__), public_api(mod) | extra
        if listed != want:
            mismatches[info.name] = {"unlisted": sorted(want - listed), "stale": sorted(listed - want)}
    assert mismatches == {}


def test_only_binform_names_binform():
    # a form is its int64 coefficient row; ``BinForm`` survives only for the
    # benchmark harness, so nothing else in the package, the tests or the
    # demos may name it but the shim's own tests
    root = Path(__file__).resolve().parents[1]
    sources = sorted((root / "src" / "curvesplit").glob("*.py"))
    sources += sorted((root / "tests").glob("*.py")) + sorted((root / "demos").glob("*.py"))
    assert len(sources) > 20
    named = []
    for path in sources:
        if path.name == "binform.py":
            continue
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "test_binform.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name in SHIM_TESTS:
                    allowed.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name == "BinForm" and id(node) not in allowed:
                named.append((path.name, node.lineno))
    assert named == []
