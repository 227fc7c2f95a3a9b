"""Each benchmark workload's setup, op and oracle run on the package in ``src``.

``perfbench/workloads.py`` makes the package calls the benchmark times and
holds the oracles that judge them.  The module is loaded by path, so this
needs nothing else of the harness; it is skipped where ``perfbench/`` is
absent.  One op per workload, at seed 1, must pass that workload's check.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

pytestmark = pytest.mark.skipif(not WORKLOADS_PY.exists(), reason="perfbench/ is not in this checkout")


@pytest.fixture(scope="module")
def workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclass resolves the module's annotations through sys.modules
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module.WORKLOADS
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("name", ["scan9", "split3", "fatcert"])
def test_one_op_passes_its_check(workloads, name):
    w = workloads[name]
    inp = next(w.setup(1))
    out = w.op(inp)
    assert w.check(inp, out) == []
