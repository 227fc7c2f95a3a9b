"""Exact arithmetic on the divisor-class lattice of a blown-up plane.

A class is stored as ``(d; m_1, ..., m_r)`` meaning ``d*L - sum m_i E_i`` on
the blow-up of the plane at r points, so the i-th exceptional class itself is
``(0; ..., -1_i, ...)`` and the canonical class is ``(-3; -1, ..., -1)``.
The intersection form is ``d1*d2 - sum m_i*m'_i``.

Reflections come in two kinds: ``Swap(i, j)`` exchanges two multiplicities
and ``Quad(i, j, k)`` is the reflection in ``L - E_i - E_j - E_k`` (the
lattice shadow of a quadratic Cremona map centered at three of the points).
Together they generate the Weyl group acting on the lattice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Union

__all__ = [
    "DivClass",
    "NumType",
    "Swap",
    "Quad",
    "WeylWord",
    "canonical_class",
    "line_class",
    "point_class",
    "intersect",
    "reflect",
    "is_exceptional_class",
    "smooth_rational_numerics_ok",
    "enum_exceptional",
    "is_ascenzi",
    "ascenzi_classify",
    "ascenzi_gap",
    "semi_adjoint",
    "derive_unbalanced_exceptional",
    "ascenzi_degree_bound",
    "orbit_closure",
    "reduce_to_base",
    "num_permutations",
]


@dataclass(frozen=True)
class DivClass:
    """Integer lattice point (d; m_1..m_r) for d*L - sum m_i E_i.

    Equality is entrywise; no implicit permutation of the m_i.
    """

    d: int
    m: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(int(v) for v in self.m))
        object.__setattr__(self, "d", int(self.d))
        if self.r < 1:
            raise ValueError("need at least one blown-up point")

    @property
    def r(self) -> int:
        return len(self.m)

    def __add__(self, other: "DivClass") -> "DivClass":
        self._compat(other)
        return DivClass(self.d + other.d, tuple(a + b for a, b in zip(self.m, other.m)))

    def __sub__(self, other: "DivClass") -> "DivClass":
        self._compat(other)
        return DivClass(self.d - other.d, tuple(a - b for a, b in zip(self.m, other.m)))

    def __neg__(self) -> "DivClass":
        return DivClass(-self.d, tuple(-a for a in self.m))

    def __rmul__(self, c: int) -> "DivClass":
        return DivClass(c * self.d, tuple(c * a for a in self.m))

    def dot(self, other: "DivClass") -> int:
        self._compat(other)
        return self.d * other.d - sum(a * b for a, b in zip(self.m, other.m))

    def halve(self) -> "DivClass | None":
        """self / 2 if all coordinates are even, else None."""
        if self.d % 2 or any(v % 2 for v in self.m):
            return None
        return DivClass(self.d // 2, tuple(v // 2 for v in self.m))

    def _compat(self, other: "DivClass") -> None:
        if self.r != other.r:
            raise ValueError(f"rank mismatch: r={self.r} vs r={other.r}")

    def to_json(self) -> list[int]:
        return [self.d, *self.m]


@dataclass(frozen=True)
class NumType:
    """Numerical type (d, m_1 >= m_2 >= ... >= m_r); sorting is the normal form."""

    d: int
    m: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "m", tuple(sorted((int(v) for v in self.m), reverse=True)))

    @classmethod
    def of(cls, D: DivClass) -> "NumType":
        return cls(D.d, D.m)

    @property
    def r(self) -> int:
        return len(self.m)

    @property
    def max_mult(self) -> int:
        return self.m[0] if self.m else 0

    def to_divclass(self) -> DivClass:
        return DivClass(self.d, self.m)

    def to_json(self) -> list[int]:
        return [self.d, *self.m]

    @classmethod
    def from_json(cls, data: Iterable[int]) -> "NumType":
        data = list(data)
        return cls(data[0], tuple(data[1:]))

    def sort_key(self) -> tuple:
        return (self.d, tuple(-v for v in self.m))


@dataclass(frozen=True)
class Swap:
    """Transposition of the multiplicities at slots i and j (1-based)."""

    i: int
    j: int

    def __post_init__(self):
        if self.i == self.j or self.i < 1 or self.j < 1:
            raise ValueError(f"invalid swap indices ({self.i}, {self.j})")


@dataclass(frozen=True)
class Quad:
    """Reflection in L - E_i - E_j - E_k, with 1-based i < j < k."""

    i: int
    j: int
    k: int

    def __post_init__(self):
        if not 1 <= self.i < self.j < self.k:
            raise ValueError(f"quad indices must satisfy i < j < k, got ({self.i}, {self.j}, {self.k})")


Reflection = Union[Swap, Quad]
WeylWord = tuple[Reflection, ...]


def canonical_class(r: int) -> DivClass:
    return DivClass(-3, (-1,) * r)


def line_class(r: int) -> DivClass:
    return DivClass(1, (0,) * r)


def point_class(i: int, r: int) -> DivClass:
    """The class E_i of the i-th exceptional curve (1-based i)."""
    if not 1 <= i <= r:
        raise ValueError(f"index {i} out of range 1..{r}")
    return DivClass(0, tuple(-1 if n == i - 1 else 0 for n in range(r)))


def intersect(D1: DivClass, D2: DivClass) -> int:
    """Intersection number d1*d2 - sum m_i*m'_i."""
    return D1.dot(D2)


def _reflect_one(D: DivClass, ref: Reflection) -> DivClass:
    if isinstance(ref, Swap):
        if ref.j > D.r:
            raise ValueError(f"swap index {ref.j} out of range for r={D.r}")
        m = list(D.m)
        m[ref.i - 1], m[ref.j - 1] = m[ref.j - 1], m[ref.i - 1]
        return DivClass(D.d, tuple(m))
    if ref.k > D.r:
        raise ValueError(f"quad index {ref.k} out of range for r={D.r}")
    c = D.d - D.m[ref.i - 1] - D.m[ref.j - 1] - D.m[ref.k - 1]
    m = list(D.m)
    for idx in (ref.i, ref.j, ref.k):
        m[idx - 1] += c
    return DivClass(D.d + c, tuple(m))


def reflect(D: DivClass, word: Iterable[Reflection]) -> DivClass:
    """Apply a Weyl word left to right; each letter preserves the form."""
    for ref in word:
        D = _reflect_one(D, ref)
    return D


def is_exceptional_class(D: DivClass) -> bool:
    """Numerical test D.D == K.D == -1 (genericity is the caller's concern)."""
    return D.dot(D) == -1 and canonical_class(D.r).dot(D) == -1


def smooth_rational_numerics_ok(D: DivClass) -> bool:
    """Adjunction sanity filter: D.D == -2 - K.D, i.e. arithmetic genus 0."""
    return D.dot(D) == -2 - canonical_class(D.r).dot(D)


def enum_exceptional(r: int, dmax: int | None) -> set[NumType]:
    """All normalized exceptional numerical types with degree <= dmax.

    The ``orbit_closure`` of E_r (every E_i has the same normalized type).
    Every exceptional class reduces to an E_i through degree-decreasing
    quads, so the reversed path stays under the cap and the closure is
    exhaustive.  For r <= 8 the Weyl group is finite and ``dmax=None``
    enumerates everything.
    """
    if not 3 <= r <= 9:
        raise ValueError(f"r={r} outside the supported range 3..9")
    if dmax is None:
        if r > 8:
            raise ValueError("r=9 has infinitely many exceptional classes; a degree cap is required")
    elif dmax < 0:
        raise ValueError("dmax must be non-negative")
    return orbit_closure(point_class(r, r), dmax)


def is_ascenzi(T: NumType) -> bool:
    """m <= d <= 2m + 1 for m = max(m_max, 1); degree-0 types (points) count
    as Ascenzi.

    The maximum multiplicity of a curve of positive degree is at least 1
    (its smooth points), even when no marked point lies on it, and at most
    d: no curve of degree d has a point of multiplicity above d.
    """
    if T.d == 0:
        return True
    m = max(T.max_mult, 1)
    return m <= T.d <= 2 * m + 1


def ascenzi_classify(T: NumType) -> tuple[int, int] | None:
    """Predicted splitting type (a, b) for an Ascenzi type, else None.

    For d <= 2m the type splits as (d-m, m); for d == 2m+1 as (m, m+1),
    where m is the maximum point multiplicity of the curve (at least 1 for
    positive degree).  Requires d >= 1: a point has no splitting type.
    """
    if T.d < 1:
        raise ValueError("classification needs degree >= 1")
    if not is_ascenzi(T):
        return None
    m = max(T.max_mult, 1)
    if T.d <= 2 * m:
        return (T.d - m, m)
    return (m, m + 1)


def ascenzi_gap(T: NumType) -> int:
    """Splitting gap |2*m_max - d| of an Ascenzi type."""
    pred = ascenzi_classify(T)
    if pred is None:
        raise ValueError(f"{T} is not Ascenzi")
    return pred[1] - pred[0]


def semi_adjoint(E: DivClass) -> DivClass | None:
    """The class A with 2A = E + K + L, or None if no such class exists.

    A exists exactly when the degree of E is even and every multiplicity is
    odd.  The input must be an exceptional class.
    """
    if not is_exceptional_class(E):
        raise ValueError(f"{E} is not an exceptional class")
    return (E + canonical_class(E.r) + line_class(E.r)).halve()


def derive_unbalanced_exceptional(E: DivClass) -> tuple[DivClass, DivClass]:
    """From an exceptional class, derive one that has a semi-adjoint.

    Returns (A, C) with A = E + E_1 - s*K for s = d - 2*m_1 + 1 and
    C = 2A - K - L.  C is again exceptional, has even degree and all odd
    multiplicities, and its semi-adjoint is A.  Requires m sorted
    non-increasing, m_r >= 0 and d >= 2*m_1 - 1.
    """
    if not is_exceptional_class(E):
        raise ValueError(f"{E} is not an exceptional class")
    if any(E.m[i] < E.m[i + 1] for i in range(E.r - 1)) or E.m[-1] < 0:
        raise ValueError("multiplicities must be sorted non-increasing and non-negative")
    s = E.d - 2 * E.m[0] + 1
    if s < 0:
        raise ValueError("requires d >= 2*m_1 - 1")
    K = canonical_class(E.r)
    A = E + point_class(1, E.r) - s * K
    C = 2 * A - K - line_class(E.r)
    return A, C


def ascenzi_degree_bound(j: int) -> int:
    """3*j + floor(4*sqrt(4*j + 8)) + 10, the degree bound at gap offset j."""
    if 4 * j + 8 < 0:
        raise ValueError("bound undefined for j < -2")
    return 3 * j + math.isqrt(16 * (4 * j + 8)) + 10


def orbit_closure(D: DivClass, dmax: int | None = None) -> set[NumType]:
    """Weyl-orbit of D as normalized types, capped at |degree| <= dmax.

    Breadth-first closure under quad reflections, run on plain ``(d, m)``
    tuples with m sorted non-increasing: ``NumType``'s normal form, so tuple
    equality is type equality and each type becomes a ``NumType`` once.  A
    type is reflected once per distinct value triple, not per slot triple:
    the quad adds c = d - m_i - m_j - m_k to d and to those three entries,
    so the normalized image depends only on their values.  An image with
    c = 0 or |degree| above dmax is never built.  r >= 9 needs a cap: the
    quads keep D^2 = d^2 - sum m_i^2, so |d| <= dmax bounds sum m_i^2 and
    leaves finitely many classes, also for an orbit whose degrees have no
    lower bound, as that of -L.
    """
    if dmax is None and D.r > 8:
        raise ValueError("orbit can be infinite for r >= 9; pass a degree cap")
    cap = math.inf if dmax is None else dmax
    seed = NumType.of(D)
    frontier = [(seed.d, seed.m)]
    seen = set(frontier)
    while frontier:
        new = []
        for d, m in frontier:
            done = set()
            for i, j, k in itertools.combinations(range(len(m)), 3):
                c = d - m[i] - m[j] - m[k]
                if c == 0 or abs(d + c) > cap or (m[i], m[j], m[k]) in done:
                    continue
                done.add((m[i], m[j], m[k]))
                mm = list(m)
                for s in (i, j, k):
                    mm[s] += c
                img = (d + c, tuple(sorted(mm, reverse=True)))
                if img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
    return {NumType(d, m) for d, m in seen}


def reduce_to_base(D: DivClass) -> tuple[WeylWord, DivClass]:
    """Greedy degree reduction by quadratic reflections.

    While the degree is at least 2 and some index triple has multiplicity sum
    exceeding the degree, reflect in the triple with the largest sum (ties:
    lexicographically least triple).  That triple holds the three largest
    multiplicities, the lowest indices first among equal ones, so a stable
    sort on -m finds it.  Each applied step strictly decreases the degree, so
    the loop runs at most d times.  For r >= 3 it stops at d >= 2 only when
    the three largest multiplicities sum to at most d: a conic base has at
    most two 1s, a pencil base (d-1 at one point) at most one simple point,
    which ``param``'s closed forms need; its line case refuses more than two
    1s.  Every r = 9 exceptional type ends at a line through two points.
    """
    if D.d < 1:
        raise ValueError("reduction needs degree >= 1")
    if not smooth_rational_numerics_ok(D):
        raise ValueError(f"{D} fails the rational smoothness numerics")
    word: list[Reflection] = []
    cur = D
    while cur.d >= 2 and cur.r >= 3:
        best = sorted(sorted(range(cur.r), key=lambda idx: -cur.m[idx])[:3])
        if sum(cur.m[idx] for idx in best) <= cur.d:
            break
        quad = Quad(best[0] + 1, best[1] + 1, best[2] + 1)
        word.append(quad)
        nxt = _reflect_one(cur, quad)
        if nxt.d >= cur.d:
            raise AssertionError("greedy step failed to decrease the degree")
        cur = nxt
    return tuple(word), cur


def num_permutations(T: NumType) -> int:
    """Number of distinct multiplicity vectors obtained by permuting T.m."""
    total = math.factorial(T.r)
    for v in set(T.m):
        total //= math.factorial(T.m.count(v))
    return total
