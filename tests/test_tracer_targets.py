"""Every function the benchmark tracer wraps must still exist in the package.

``perfbench/tracer.py`` names the functions it wraps as ``(module,
attribute, layer, kind)`` entries of ``TARGETS``, where the attribute is a
function or a ``Class.method``.  The tuple is read from the source with
``ast`` rather than imported, so this test runs without the harness.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets() -> list[tuple[str, str, str, str]]:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no TARGETS assignment in {TRACER}")


TARGETS = _targets()


@pytest.mark.parametrize("module, attr", [t[:2] for t in TARGETS], ids=[f"{t[0]}.{t[1]}" for t in TARGETS])
def test_target_resolves(module, attr):
    obj = importlib.import_module(f"curvesplit.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_scan_record_hands_the_split3_functions_its_parameterization(monkeypatch):
    """The benchmark's ``scan9`` times ``parameterize`` through the name
    ``conjscan.parameterize``, and ``split3`` passes the result of
    ``param.parameterize`` straight to the three splitting functions."""
    from curvesplit import conjscan, splitting
    from curvesplit.binform import ParamTriple
    from curvesplit.lattice import NumType

    results = []
    real = conjscan.parameterize

    def counting(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(conjscan, "parameterize", counting)
    rec = conjscan.scan_record(NumType(8, (3, 3, 3, 3, 3, 3, 3, 1, 1)), seed=1)
    [phi] = results
    assert isinstance(phi, ParamTriple)
    ml = splitting.splitting_moving_lines(phi)
    sat = splitting.splitting_saturation(phi)
    syz = splitting.min_syzygy(phi)
    assert ml == sat == rec.split and syz.degree == ml.a


def test_chain_divides_through_the_traced_name(monkeypatch):
    """The tracer's ``binform.div`` layer rebinds ``div_exact`` wherever the
    package holds it; the Cremona chain's exact divisions go through
    ``param.div_exact``, so the layer sees them."""
    from curvesplit import param
    from curvesplit.lattice import NumType

    calls = []
    real = param.div_exact

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(param, "div_exact", counting)
    param.parameterize(NumType(8, (3,) * 7), param.random_points(9, 1), 1)
    assert len(calls) > 0
