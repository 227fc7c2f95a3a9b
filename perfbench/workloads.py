"""The benchmark's three closed-loop workloads and their correctness oracles.

Each workload has a ``setup(seed)`` that builds and checks its static input
list (the enumeration, the golden types, the classes), draws the run's fixed
set of items from it (types, or the one class triple) and returns an endless
iterator of op inputs: pass after pass over those items, each pass in a new
order and with fresh points, so no two ops repeat their work;
``key(inp)`` names the item an op input belongs to; ``op(inp)`` makes the
package calls of one op; ``check(inp, out)`` returns the list of ways the
output is wrong (empty when correct).  Ops call the package through module
attributes, so a traced run sees every call.

* scan9: the paper's headline experiment, one ``scan_record`` per op.
* split3: the north-star query, the splitting type of one type three ways.
* fatcert: the criterion-5 fat-point certificates, large F_p elimination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

from curvesplit import conjscan, fatpoints, lattice, param, splitting
from curvesplit.lattice import DivClass, NumType

SCAN_DMAX = 61
SCAN_STRATA = 10
# types per scan9 run: ten from each degree stratum, about 6 s a pass
SCAN_ITEMS = 100


def has_semi_adjoint(T: NumType) -> bool:
    """2A = E + K + L is solvable iff d is even and every m_i is odd."""
    return T.d % 2 == 0 and all(m % 2 == 1 for m in T.m)


def _exceptional_types() -> list[NumType]:
    """The dmax=61 enumeration, checked against the published counts."""
    types = sorted(lattice.enum_exceptional(9, SCAN_DMAX), key=NumType.sort_key)
    n_high = sum(1 for T in types if T.d >= 50)
    n_sa = sum(1 for T in types if has_semi_adjoint(T))
    if (len(types), n_high, n_sa) != (1054, 451, 39):
        raise RuntimeError(f"enumeration gave {len(types)} types, {n_high} of degree >= 50, {n_sa} semi-adjoint")
    return types


def _stratified(types: list, strata: int, rng: random.Random) -> Iterator:
    """Round-robin over degree strata, reshuffled each pass.

    Types are in degree order, so every run prefix keeps the degree mix of
    the whole list whatever its length.
    """
    size = -(-len(types) // strata)
    groups = [types[i : i + size] for i in range(0, len(types), size)]
    while True:
        order = [rng.sample(g, len(g)) for g in groups]
        for k in range(size):
            for g in order:
                if k < len(g):
                    yield g[k]


def _passes(items: list, rng: random.Random) -> Iterator:
    """Endless passes over the items, each pass in a new order."""
    order = list(items)
    while True:
        rng.shuffle(order)
        yield from order


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Iterator]
    key: Callable
    op: Callable
    check: Callable[[object, object], list]
    # the host-speed reference its op times are scaled by (see hostref)
    reference: str = "python"


# --- scan9 -----------------------------------------------------------------


def _scan9_setup(seed: int) -> Iterator:
    return _scan9_inputs(_exceptional_types(), random.Random(seed))


def _scan9_inputs(types: list, rng: random.Random) -> Iterator:
    stream = _stratified(types, SCAN_STRATA, rng)
    items = [next(stream) for _ in range(SCAN_ITEMS)]
    # scan_record derives each type's points from (seed, type); a fresh
    # seed per op keeps repeated types from repeating their work.
    for T in _passes(items, rng):
        yield T, rng.getrandbits(31)


def _scan9_op(inp):
    T, run_seed = inp
    return conjscan.scan_record(T, run_seed, certify=False)


def _scan9_check(inp, rec) -> list:
    T, _ = inp
    bad = []
    if rec.error is not None:
        bad.append(f"error: {rec.error}")
    if rec.ntype != T:
        bad.append(f"record is for {rec.ntype}")
    sa = has_semi_adjoint(T)
    if (rec.semiadjoint is not None) != sa:
        bad.append(f"semi-adjoint reported {rec.semiadjoint}, expected {sa}")
    if T.d == 0:
        if rec.split is not None:
            bad.append("a point has no splitting type")
        return bad
    s = rec.split
    if s is None:
        return bad + ["no splitting type"]
    if not (s.a <= s.b and s.a + s.b == T.d):
        bad.append(f"split ({s.a}, {s.b}) for degree {T.d}")
    # gap >= 2 on semi-adjoint types is proved; gap <= 1 elsewhere is the
    # published dmax=61 result (39 of 39 unbalanced types are semi-adjoint)
    if sa and s.gap < 2:
        bad.append(f"gap {s.gap} on a semi-adjoint type")
    if not sa and s.gap > 1:
        bad.append(f"gap {s.gap} on a type without semi-adjoint")
    return bad


# --- split3 ----------------------------------------------------------------

# criterion 3: (type, a, b); b is None where the golden table leaves it open
GOLDEN_SPLITS = (
    (NumType(8, (3, 3, 3, 3, 3, 3, 3)), 3, 5),
    (NumType(4, (3, 1, 1, 1, 1, 1, 1, 1, 1)), 1, 3),
    (NumType(12, (5, 5, 5, 5, 3, 3, 3, 3, 3)), 5, 7),
    (NumType(12, (5, 5, 5, 4, 4, 4, 4, 2)), 5, 7),
    (NumType(10, (4, 4, 4, 4, 4, 4)), 5, 5),
    (NumType(16, (6, 6, 6, 6, 6, 6, 6)), 6, 10),
    (NumType(14, (6, 6, 6, 6, 4, 4, 4)), 6, 8),
    (NumType(18, (8, 8, 8, 6, 6, 5, 3, 3, 3, 3)), 8, None),
    (NumType(20, (9, 7, 7, 7, 7, 7, 5, 5, 5)), 9, None),
)
SPLIT_MIN_DEGREE = 30
SPLIT_STRATA = 8
# items per split3 run, about 9 s a pass: every golden type once, spread
# evenly, and 63 drawn types, so the median and the tail fall among the
# drawn high-degree types
SPLIT_ITEMS = 72
SPLIT_GOLDEN_EVERY = SPLIT_ITEMS // len(GOLDEN_SPLITS)


def _split3_setup(seed: int) -> Iterator:
    drawn = [T for T in _exceptional_types() if T.d >= SPLIT_MIN_DEGREE]
    return _split3_inputs(drawn, random.Random(seed))


def _split3_inputs(drawn: list, rng: random.Random) -> Iterator:
    stream = _stratified(drawn, SPLIT_STRATA, rng)
    golden = iter(GOLDEN_SPLITS)
    items = []
    for i in range(SPLIT_ITEMS):
        if i % SPLIT_GOLDEN_EVERY == 0:
            T, a, b = next(golden)
            items.append((T, ("golden", a, b)))
        else:
            T = next(stream)
            items.append((T, ("semi-adjoint", has_semi_adjoint(T), None)))
    for T, expect in _passes(items, rng):
        yield T, rng.getrandbits(63), expect


def _split3_op(inp):
    T, op_seed, _ = inp
    pts = param.random_points(max(T.r, 9), op_seed)
    phi = param.parameterize(T, pts, op_seed)
    ml = splitting.splitting_moving_lines(phi)
    sat = splitting.splitting_saturation(phi)
    syz = splitting.min_syzygy(phi)
    return ml, sat, syz


def _split3_check(inp, out) -> list:
    T, _, (kind, x, y) = inp
    ml, sat, syz = out
    bad = []
    if ml != sat:
        bad.append(f"moving lines {ml} != saturation {sat}")
    if syz.degree != ml.a:
        bad.append(f"min syzygy degree {syz.degree} != a = {ml.a}")
    if ml.a + ml.b != T.d:
        bad.append(f"a + b = {ml.a + ml.b} != d = {T.d}")
    if kind == "golden":
        if ml.a != x or (y is not None and ml.b != y):
            bad.append(f"({ml.a}, {ml.b}) != golden ({x}, {y})")
    elif (ml.gap >= 2) != x:
        bad.append(f"gap {ml.gap} but semi-adjoint {x}")
    return bad


# --- fatcert ---------------------------------------------------------------

# criterion 5: class, alpha, least cokernel, exact cokernel (None: ">= least")
FAT_CLASSES = (
    (DivClass(4, (3, 1, 1, 1, 1, 1, 1, 1, 1)), 5, 2, 2),
    (DivClass(8, (3, 3, 3, 3, 3, 3, 3, 1, 1)), 11, 2, 2),
    (DivClass(24, (7, 9, 9, 9, 9, 9, 7, 7, 5)), 35, 2, None),
)


def _fatcert_setup(seed: int) -> Iterator:
    # nothing to build: the classes are constants, the points come per op
    return _fatcert_inputs(random.Random(seed))


def _fatcert_inputs(rng: random.Random) -> Iterator:
    while True:
        # the points are the op's input, drawn before the op starts
        yield param.random_points(9, rng.getrandbits(63))


def _fatcert_op(pts):
    return [fatpoints.check_nongeneric_resolution(c, pts) for c, _, _, _ in FAT_CLASSES]


def _fatcert_check(pts, reports) -> list:
    bad = []
    for (c, alpha, cok_min, cok_exact), rep in zip(FAT_CLASSES, reports):
        label = f"({c.d}; {', '.join(map(str, c.m))})"
        if rep.alpha != alpha or not rep.alpha_ok:
            bad.append(f"{label}: alpha {rep.alpha}, expected {alpha}")
        if not rep.hilbert_maximal:
            bad.append(f"{label}: Hilbert function not maximal")
        if rep.cokernel < cok_min or (cok_exact is not None and rep.cokernel != cok_exact):
            bad.append(f"{label}: cokernel {rep.cokernel}")
    if len(reports) != len(FAT_CLASSES):
        bad.append(f"{len(reports)} reports for {len(FAT_CLASSES)} classes")
    return bad


def _type_key(inp) -> NumType:
    return inp[0]


def _fatcert_key(pts) -> str:
    # one item: every op certifies the same three classes on new points
    return "classes"


# why each workload exists is in BENCHMARK.json and the module docstring
WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan9", _scan9_setup, _type_key, _scan9_op, _scan9_check),
        Workload("split3", _split3_setup, _type_key, _split3_op, _split3_check),
        # an op is almost all large numpy eliminations, which the host's slow
        # phases slow less than they slow the interpreter
        Workload("fatcert", _fatcert_setup, _fatcert_key, _fatcert_op, _fatcert_check, reference="numpy"),
    )
}
