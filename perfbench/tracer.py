"""Outside-in tracer: spans around calls into curvesplit, recorded from here.

The package is not edited.  ``installed`` rebinds each traced public
function in every curvesplit module that holds a reference to it (so
``param.gcd_many``, ``splitting.gcd_many`` and ``binform.gcd_many`` all
reach the wrapper), replaces traced methods on their classes, and puts every
original back when the block ends.  Spans live in flat in-memory arrays and
are written out once, after the run.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import importlib
import pkgutil
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

OP_ROOT = "bench.op"
NO_OP = -1

# (module, attribute, layer name, kind).  "span" records a timed span,
# "rref" a span that also keeps the eliminated matrix, "count" only counts
# calls and leaves their time with the caller's layer.
TARGETS = (
    ("lattice", "enum_exceptional", "lattice.enum", "span"),
    ("lattice", "reduce_to_base", "lattice.reduce", "span"),
    ("exactla", "MatFp.rref", "exactla.rref", "rref"),
    ("plane", "eval_row", "plane.eval_row", "span"),
    ("binform", "gcd_many", "binform.gcd", "span"),
    ("binform", "div_exact", "binform.div", "span"),
    ("binform", "BinForm.__mul__", "binform.mul", "count"),
    ("param", "random_points", "param.points", "span"),
    ("param", "cremona_apply", "param.cremona", "span"),
    ("param", "CremonaStep.pull_back", "param.pullback", "span"),
    ("param", "multiplicity_at", "param.verify", "span"),
    ("param", "parameterize", "param.parameterize", "span"),
    ("splitting", "splitting_moving_lines", "splitting.moving_lines", "span"),
    ("splitting", "splitting_saturation", "splitting.saturation", "span"),
    ("splitting", "min_syzygy", "splitting.min_syzygy", "span"),
    ("fatpoints", "conditions_matrix", "fatpoints.conditions", "span"),
    ("fatpoints", "ideal_dim", "fatpoints.ideal_dim", "span"),
    ("fatpoints", "mu_rank", "fatpoints.mu_rank", "span"),
    ("conjscan", "scan_record", "conjscan.record", "span"),
)

SPAN_LAYERS = tuple(t[2] for t in TARGETS if t[3] != "count") + (OP_ROOT,)

# An elimination with at least this many cells counts as large: the d'=12
# condition matrices (about 648 x 700) are, the 703 x 54 mu matrix is not.
LARGE_CELLS = 1 << 16


class Tracer:
    """Spans with name, start, end, parent span and op id, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.stack = [-1]
        self.current_op = NO_OP
        # (layer, inside an op) -> calls, for the "count" targets
        self.counts: Counter = Counter()
        # (span index, rows, cols, rank, p, entries) per traced elimination
        self.elims: list[tuple] = []
        self.active = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def op_span(self, op_id: int):
        """The root span of one op; every span opened inside carries op_id."""
        self.current_op = op_id
        idx = self.open(self.name_id(OP_ROOT))
        try:
            yield
        finally:
            self.close(idx)
            self.current_op = NO_OP

    def write(self, path) -> None:
        """All spans as gzip CSV: id, name, start_ns, end_ns, parent, op."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start_ns,end_ns,parent,op\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{names[self.name[i]]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.op[i]}\n"
                )


def _span_wrapper(tr: Tracer, name: str, fn):
    nid = tr.name_id(name)

    def traced(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        idx = tr.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.close(idx)

    return traced


def _rref_wrapper(tr: Tracer, name: str, fn):
    nid = tr.name_id(name)

    def traced(mat, *args, **kwargs):
        if not tr.active:
            return fn(mat, *args, **kwargs)
        idx = tr.open(nid)
        try:
            result = fn(mat, *args, **kwargs)
            # MatFp entries are read-only, so keeping the array is enough to
            # hash its content after the run, outside every timed span.
            rows, cols = mat.entries.shape
            tr.elims.append((idx, rows, cols, len(result[1]), mat.p, mat.entries))
            return result
        finally:
            tr.close(idx)

    return traced


def _count_wrapper(tr: Tracer, name: str, fn):
    counts = tr.counts

    def counted(*args, **kwargs):
        if tr.active:
            counts[name, tr.current_op != NO_OP] += 1
        return fn(*args, **kwargs)

    return counted


_WRAPPERS = {"span": _span_wrapper, "rref": _rref_wrapper, "count": _count_wrapper}


def package_modules() -> list:
    """Every curvesplit module, imported, so each binding can be found."""
    import curvesplit

    mods = [curvesplit]
    for info in pkgutil.iter_modules(curvesplit.__path__):
        mods.append(importlib.import_module(f"curvesplit.{info.name}"))
    return mods


def _targets(mods) -> list[tuple]:
    """(original, the namespaces holding it, layer, kind) per target."""
    out = []
    for mod_name, attr, layer, kind in TARGETS:
        mod = sys.modules[f"curvesplit.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            out.append((cls.__dict__[meth], [(cls, meth)], layer, kind))
            continue
        orig = getattr(mod, attr)
        places = [(m, key) for m in mods for key, val in vars(m).items() if val is orig]
        out.append((orig, places, layer, kind))
    return out


def bindings() -> dict:
    """(namespace, attribute) -> bound object, for every traced target.

    Used to check by identity that a traced run leaves the package as it
    found it.
    """
    return {place: orig for orig, places, _, _ in _targets(package_modules()) for place in places}


@contextmanager
def installed(tr: Tracer):
    """Wrap every target while the block runs; restore the originals after.

    One wrapper per original function, bound wherever the original was.
    """
    undo = []
    try:
        for orig, places, layer, kind in _targets(package_modules()):
            wrapper = functools.wraps(orig)(_WRAPPERS[kind](tr, layer, orig))
            for ns, key in places:
                undo.append((ns, key, orig))
                setattr(ns, key, wrapper)
        tr.active = True
        yield tr
    finally:
        tr.active = False
        for ns, key, orig in reversed(undo):
            setattr(ns, key, orig)


def self_times(start, end, parent) -> list[int]:
    """Span duration minus the part of its interval that child spans cover.

    Children are clipped to their parent and overlapping children are
    merged, so the result never double-counts and never goes negative.
    """
    n = len(start)
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        if parent[i] >= 0:
            children[parent[i]].append(i)
    out = [0] * n
    for i in range(n):
        s, e = start[i], end[i]
        covered = 0
        cur_s = cur_e = None
        for c in sorted(children[i], key=lambda c: start[c]):
            cs, ce = max(start[c], s), min(end[c], e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[i] = (e - s) - covered
    return out


@dataclass
class LayerReport:
    metrics: dict  # name -> (value, unit)
    inclusive_s: dict  # layer -> time of its outermost spans, for the note


def _has_ancestor(i: int, parent, name, target: int) -> bool:
    j = parent[i]
    while j >= 0:
        if name[j] == target:
            return True
        j = parent[j]
    return False


def analyse(tr: Tracer, n_ops: int) -> LayerReport:
    """Per-layer self times, call counts and elimination figures.

    Run figures sum every span (the traced set-up and the traced ops); the
    ``.per_op`` figures sum the spans inside ops and divide by n_ops.
    """
    self_ns = self_times(tr.start, tr.end, tr.parent)
    names = tr.names
    in_op = [o >= 0 for o in tr.op]
    run_s = Counter()
    op_s = Counter()
    run_calls = Counter()
    op_calls = Counter()
    inclusive = Counter()
    for i, nid in enumerate(tr.name):
        layer = names[nid]
        run_s[layer] += self_ns[i]
        run_calls[layer] += 1
        if in_op[i]:
            op_s[layer] += self_ns[i]
            op_calls[layer] += 1
        if not _has_ancestor(i, tr.parent, tr.name, nid):
            inclusive[layer] += tr.end[i] - tr.start[i]
    per = max(n_ops, 1)
    m = {}

    def put(name, run_value, op_value, unit):
        m[name] = (run_value, unit)
        m[f"{name}.per_op"] = (op_value / per, f"{unit}/op")

    for layer in SPAN_LAYERS:
        metric = "bench.op_self" if layer == OP_ROOT else layer
        put(f"{metric}_s", run_s[layer] / 1e9, op_s[layer] / 1e9, "s")
    for layer in ("param.points", "plane.eval_row", "binform.gcd", "binform.div",
                  "exactla.rref", "fatpoints.conditions", "lattice.reduce"):
        put(f"{layer}_calls", run_calls[layer], op_calls[layer], "count")
    mul_in_op = tr.counts["binform.mul", True]
    put("binform.mul_calls", tr.counts["binform.mul", False] + mul_in_op, mul_in_op, "count")

    cells = op_cells = large = op_large = 0
    keys = set()
    large_keys = set()
    for idx, rows, cols, rank, p, entries in tr.elims:
        c = rows * cols * rank
        cells += c
        key = (tr.op[idx], rows, cols, p, hashlib.blake2b(entries.tobytes(), digest_size=16).digest())
        keys.add(key)
        is_large = rows * cols >= LARGE_CELLS
        large += is_large
        if is_large:
            large_keys.add(key)
        if in_op[idx]:
            op_cells += c
            op_large += is_large
    n_elims = len(tr.elims)
    put("exactla.elim_cells_computed", cells, op_cells, "cells")
    put("exactla.large_rref_calls", large, op_large, "count")
    m["exactla.distinct_elim_ratio"] = (len(keys) / n_elims if n_elims else 0.0, "ratio")
    m["exactla.large_distinct_ratio"] = (len(large_keys) / large if large else 0.0, "ratio")

    # attempts = parameterize calls + points re-drawn inside them, per call
    # (0 when the workload makes none); a call that gives up raises, which
    # fails its op
    pid = tr._ids.get("param.parameterize")
    rid = tr._ids.get("param.points")
    calls = run_calls["param.parameterize"]
    redraws = 0
    if pid is not None and rid is not None:
        redraws = sum(
            1 for i, nid in enumerate(tr.name) if nid == rid and _has_ancestor(i, tr.parent, tr.name, pid)
        )
    m["param.attempts_per_success"] = ((calls + redraws) / calls if calls else 0.0, "ratio")

    total_op_ns = sum(tr.end[i] - tr.start[i] for i, nid in enumerate(tr.name) if names[nid] == OP_ROOT)
    put("trace.op_s", total_op_ns / 1e9, total_op_ns / 1e9, "s")
    attributed = sum(op_s[layer] for layer in SPAN_LAYERS)
    if attributed != total_op_ns:
        raise AssertionError(f"layer self times sum to {attributed} ns, ops took {total_op_ns} ns")
    return LayerReport(m, {k: v / 1e9 for k, v in inclusive.items()})
