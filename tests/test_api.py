"""Every module's ``__all__`` names exactly its public API."""

import importlib
import inspect
import pkgutil

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
