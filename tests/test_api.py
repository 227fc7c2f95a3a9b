"""Every module's ``__all__`` names exactly its public API, and no module
but ``binform`` names ``BinForm``."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import curvesplit

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
    # inside the package a form is its int64 coefficient row; ``BinForm`` is
    # the value type for callers outside it, so wrapping rows again elsewhere
    # would bring back a second representation
    named = []
    sources = sorted(Path(curvesplit.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        if path.name == "binform.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name == "BinForm":
                named.append((path.name, node.lineno))
    assert named == []
