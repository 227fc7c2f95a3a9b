"""End-to-end experiment drivers welding the other modules together.

Three pipelines:

* the r = 9 scan: enumerate exceptional types up to a degree cap,
  parameterize each over random points, compute the splitting gap, and
  compare gap > 1 against the existence of a semi-adjoint class (the proved
  direction, semi-adjoint => gap >= 2, is checked on every record; the
  unproved converse is only tallied);
* the certificate search: for a fixed exceptional class, find the divisor A
  with -K.A = 2, h^1 = 0 and linear excess 1 minimizing A.E;
* spot checks of the full r <= 7 classification table at small family
  parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .binform import ParamTriple
from .exactla import MODULUS
from .fatpoints import class_cohomology, h0_class
from .lattice import (
    DivClass,
    NumType,
    ascenzi_gap,
    enum_exceptional,
    is_ascenzi,
    line_class,
    semi_adjoint,
)
from .param import PointSet, RetryLimitError, mix_seed, parameterize, random_points
from .splitting import SplitType, splitting_moving_lines

__all__ = [
    "ScanRecord",
    "scan_record",
    "scan_conjecture9",
    "summarize_scan",
    "UnbalancedCertificate",
    "certify_unbalanced",
    "SearchResult",
    "search_min_product",
    "CurveFamily",
    "R7_FAMILIES",
    "classification7_spotcheck",
    "SpotRow",
]

LINE_SPLIT = SplitType(0, 1)


@dataclass(frozen=True)
class ScanRecord:
    """One exceptional type's worth of scan output."""

    ntype: NumType
    ascenzi: bool
    semiadjoint: tuple[int, ...] | None
    split: SplitType | None
    seed: int
    error: str | None = None
    h1_a: int | None = None
    le_a: int | None = None

    @property
    def gap(self) -> int | None:
        return self.split.gap if self.split is not None else None

    @property
    def proved_direction_ok(self) -> bool:
        """Semi-adjoint exists => computed gap >= 2 (proved, unlike its converse)."""
        if self.semiadjoint is None or self.split is None:
            return True
        return self.split.gap >= 2

    def to_json(self) -> dict:
        return {
            "type": self.ntype.to_json(),
            "ascenzi": self.ascenzi,
            "semiadjoint": list(self.semiadjoint) if self.semiadjoint else None,
            "split": self.split.to_json() if self.split else None,
            "seed": self.seed,
            "error": self.error,
            "h1_a": self.h1_a,
            "le_a": self.le_a,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ScanRecord":
        """Inverse of ``to_json``; ValueError on a malformed record."""
        try:
            sa, split = data["semiadjoint"], data["split"]
            return cls(
                ntype=NumType.from_json(data["type"]),
                ascenzi=data["ascenzi"],
                semiadjoint=tuple(sa) if sa is not None else None,
                split=SplitType(split["a"], split["b"]) if split is not None else None,
                seed=data["seed"],
                error=data["error"],
                h1_a=data["h1_a"],
                le_a=data["le_a"],
            )
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed scan record {data!r}") from exc


def _type_seed(T: NumType, seed: int) -> int:
    """The sub-seed of type T in a run at ``seed``."""
    return mix_seed(seed, T.d, *T.m)


def _parameterize_and_split(T: NumType, sub_seed: int, p: int) -> tuple[ParamTriple | None, SplitType | None]:
    """T's parameterization at ``sub_seed`` and its splitting type: (None, None)
    for a point (d = 0) and (None, LINE_SPLIT) for a line (d = 1)."""
    if T.d == 0:
        return None, None
    if T.d == 1:
        # a line pulls the twisted cotangent bundle back to O(0) + O(-1)
        return None, LINE_SPLIT
    phi = parameterize(T, random_points(T.r, sub_seed, p), sub_seed)
    return phi, splitting_moving_lines(phi)


def scan_record(T: NumType, seed: int, p: int = MODULUS, certify: bool = False) -> ScanRecord:
    """Process one type with a sub-seed derived from the type itself.

    Any exception raised while processing the type becomes the record's
    ``error``: the message of a ``RetryLimitError``, otherwise the
    exception's class name and message.
    """
    sub_seed = _type_seed(T, seed)
    A = semi_adjoint(T.to_divclass())
    sa = (A.d, *A.m) if A is not None else None
    h1_a = le_a = None
    try:
        phi, split = _parameterize_and_split(T, sub_seed, p)
        if phi is not None and A is not None and certify:
            _, h1_a, le_a = class_cohomology(A, phi.points)
    except Exception as exc:
        error = str(exc) if isinstance(exc, RetryLimitError) else f"{type(exc).__name__}: {exc}"
        return ScanRecord(T, is_ascenzi(T), sa, None, sub_seed, error=error)
    return ScanRecord(T, is_ascenzi(T), sa, split, sub_seed, h1_a=h1_a, le_a=le_a)


def scan_conjecture9(
    dmax: int,
    seed: int,
    p: int = MODULUS,
    certify: bool = False,
    resumed: Iterable[ScanRecord] = (),
) -> tuple[list[ScanRecord], dict]:
    """Scan every r = 9 exceptional type with degree <= dmax.

    Returns the records (in deterministic type order) and a summary counting
    both directions of the conjectured biconditional
    "semi-adjoint exists <=> gap > 1".  A type with a record in ``resumed``
    reuses it instead of being scanned again.  A resumed record must carry
    the sub-seed that ``seed`` derives for its type, and h1_a exactly when
    ``certify`` computes it (a certified error record has none); otherwise
    ValueError.  The modulus is not recorded, so a record scanned at another
    p cannot be detected.
    """
    done: dict[NumType, ScanRecord] = {}
    for rec in resumed:
        want = _type_seed(rec.ntype, seed)
        if rec.seed != want:
            raise ValueError(
                f"resumed record {rec.ntype.to_json()} has seed {rec.seed}, but seed {seed} gives {want}"
            )
        excused = certify and rec.error is not None
        if rec.semiadjoint is not None and (rec.h1_a is None) == certify and not excused:
            state = "lacks" if certify else "has"
            raise ValueError(
                f"resumed record {rec.ntype.to_json()} {state} h1_a; it was scanned with certify={not certify}"
            )
        done[rec.ntype] = rec
    types = sorted(enum_exceptional(9, dmax), key=lambda t: t.sort_key())
    records = [done[T] if T in done else scan_record(T, seed, p, certify=certify) for T in types]
    return records, summarize_scan(records)


def summarize_scan(records: list[ScanRecord]) -> dict:
    with_sa = [r for r in records if r.semiadjoint is not None]
    gap2 = [r for r in records if r.gap is not None and r.gap > 1]
    errors = [r for r in records if r.error is not None]
    proved_violations = [r for r in records if not r.proved_direction_ok]
    converse_failures = [r for r in gap2 if r.semiadjoint is None]
    return {
        "n_types": len(records),
        "n_semiadjoint": len(with_sa),
        "n_gap_gt1": len(gap2),
        "n_errors": len(errors),
        "max_gap": max((r.gap for r in records if r.gap is not None), default=None),
        "proved_direction_violations": [r.ntype.to_json() for r in proved_violations],
        "converse_failures": [r.ntype.to_json() for r in converse_failures],
        "conjecture_consistent": not proved_violations and not converse_failures and not errors,
    }


@dataclass(frozen=True)
class UnbalancedCertificate:
    """Evidence chain that an exceptional class has unbalanced splitting."""

    etype: tuple[int, ...]
    a_class: tuple[int, ...]
    h1_a: int
    le_a: int | None
    h0_residual: int
    product_bound: int
    computed: SplitType

    @property
    def valid(self) -> bool:
        return (
            self.h1_a == 0
            and self.le_a is not None
            and self.le_a >= 1
            and self.h0_residual == 0
            and self.computed.a <= self.product_bound
            and self.computed.gap >= 2
        )

    def to_json(self) -> dict:
        return {
            "E": list(self.etype),
            "A": list(self.a_class),
            "h1_A": self.h1_a,
            "le_A": self.le_a,
            "h0_A_minus_E_plus_L": self.h0_residual,
            "A_dot_E": self.product_bound,
            "split": self.computed.to_json(),
            "valid": self.valid,
        }


def certify_unbalanced(E: DivClass, points: PointSet, seed: int) -> UnbalancedCertificate | None:
    """Certify unbalanced splitting through the semi-adjoint, if one exists.

    Verifies numerically, at the points the parameterization of E went
    through, that A = (E + K + L)/2 has h^1 = 0, le >= 1 and
    h^0(A - E + L) = 0, and that the computed splitting obeys
    a_E <= A.E = (d_E - 2)/2.  E is parameterized in its own order, the
    order A is read in.  Returns None when E has no semi-adjoint.
    """
    A = semi_adjoint(E)
    if A is None:
        return None
    phi = parameterize(E, points, seed)
    _, h1_a, le_a = class_cohomology(A, phi.points)
    residual = h0_class(A - E + line_class(E.r), phi.points)
    split = splitting_moving_lines(phi)
    return UnbalancedCertificate(
        etype=(E.d, *E.m),
        a_class=(A.d, *A.m),
        h1_a=h1_a,
        le_a=le_a,
        h0_residual=residual,
        product_bound=A.dot(E),
        computed=split,
    )


def _partitions(total: int, max_part: int, max_len: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing tuples with the given sum, part bound and length bound."""

    def rec(remaining: int, bound: int, slots: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        if slots == 0 or bound == 0:
            return
        for part in range(min(bound, remaining), 0, -1):
            yield from rec(remaining - part, part, slots - 1, prefix + (part,))

    yield from rec(total, max_part, max_len, ())


@dataclass(frozen=True)
class SearchResult:
    product: int
    witness: tuple[int, ...]
    tested: int
    computed_a: int | None = None

    def to_json(self) -> dict:
        return {
            "min_product": self.product,
            "witness": list(self.witness),
            "candidates_tested": self.tested,
            "computed_a": self.computed_a,
        }


def search_min_product(
    E: DivClass,
    points: PointSet,
    dA_max: int | None = None,
    compare_seed: int | None = None,
) -> SearchResult | None:
    """Minimize A.E over classes A with -K.A = 2, h^1(A) = 0 and le(A) = 1.

    Candidates run over the slice 0 <= d_A <= dA_max, 0 <= m_i <= d_A
    (sorted; the pairing against E's sorted multiplicities already minimizes
    the product, and the two filters are permutation-invariant at generic
    points).  Candidates are tested in increasing order of A.E, so the first
    survivor is the minimum.  Returns None if nothing qualifies.

    With ``compare_seed``, E is parameterized first and its computed a_E is
    reported; the candidates are then tested on the points of that
    parameterization, which differ from ``points`` when it retried.
    """
    if dA_max is None:
        dA_max = E.d
    computed = None
    if compare_seed is not None:
        phi = parameterize(NumType.of(E), points, compare_seed)
        points = phi.points
        computed = splitting_moving_lines(phi).a
    r = E.r
    e_sorted = tuple(sorted(E.m, reverse=True))
    candidates: list[tuple[int, int, tuple[int, ...]]] = []
    for d_a in range(1, dA_max + 1):
        total = 3 * d_a - 2
        for part in _partitions(total, d_a, r):
            m = part + (0,) * (r - len(part))
            prod = d_a * E.d - sum(a * e for a, e in zip(m, e_sorted))
            candidates.append((prod, d_a, m))
    candidates.sort(key=lambda t: (t[0], t[1], tuple(-v for v in t[2])))
    tested = 0
    for prod, d_a, m in candidates:
        A = DivClass(d_a, m)
        tested += 1
        _, h1, le = class_cohomology(A, points)
        # le is None when A has no sections
        if h1 != 0 or le != 1:
            continue
        return SearchResult(prod, (d_a, *m), tested, computed)
    return None


@dataclass(frozen=True)
class CurveFamily:
    """One line of the r <= 7 classification: base + d * step.

    ``ascenzi`` is 'always', 'never', 'd==0' or 'd<2'; ``gap`` gives the
    splitting gap as a function of d where the table states one (families
    whose members are all Ascenzi carry None and fall back to the Ascenzi
    prediction).
    """

    orbit: str
    base: tuple[int, ...]
    step: tuple[int, ...] | None = None
    ascenzi: str = "always"
    gap: Callable[[int], int] | None = None

    def member(self, d: int) -> NumType:
        if self.step is None:
            if d != 0:
                raise ValueError(f"{self.label} has no parameter")
            return NumType(self.base[0], self.base[1:])
        vals = [b + d * s for b, s in zip(self.base, self.step)]
        return NumType(vals[0], tuple(vals[1:]))

    def ascenzi_expected(self, d: int) -> bool:
        return {"always": True, "never": False, "d==0": d == 0, "d<2": d < 2}[self.ascenzi]

    def expected_gap(self, d: int) -> int:
        if self.gap is not None:
            return self.gap(d)
        T = self.member(d)
        if T.d == 0:
            return 0
        return ascenzi_gap(T)

    @property
    def label(self) -> str:
        if self.step is None:
            return f"{self.orbit}:{self.base}"
        return f"{self.orbit}:{self.base}+d*{self.step}"


_H1_STEP = (1, 1, 0, 0, 0, 0, 0, 0)
_C2_STEP = (2, 1, 1, 1, 1, 0, 0, 0)
_C3_STEP = (3, 2, 1, 1, 1, 1, 1, 0)
_C4_STEP = (4, 2, 2, 2, 1, 1, 1, 1)
_C5_STEP = (5, 2, 2, 2, 2, 2, 2, 1)

R7_FAMILIES: tuple[CurveFamily, ...] = (
    # orbit of E_7: the 56 exceptional classes, all Ascenzi
    CurveFamily("E7", (0, 0, 0, 0, 0, 0, 0, -1)),
    CurveFamily("E7", (1, 1, 1, 0, 0, 0, 0, 0)),
    CurveFamily("E7", (2, 1, 1, 1, 1, 1, 0, 0)),
    CurveFamily("E7", (3, 2, 1, 1, 1, 1, 1, 1)),
    # orbit of H0 + d*H1
    CurveFamily("H0+dH1", (1, 0, 0, 0, 0, 0, 0, 0), _H1_STEP),
    CurveFamily("H0+dH1", (2, 1, 1, 1, 0, 0, 0, 0), _H1_STEP),
    CurveFamily("H0+dH1", (2, 1, 1, 1, 0, 0, 0, 0), _C2_STEP),
    CurveFamily("H0+dH1", (3, 2, 1, 1, 1, 1, 0, 0), _H1_STEP),
    CurveFamily("H0+dH1", (3, 2, 1, 1, 1, 1, 0, 0), _C2_STEP),
    CurveFamily("H0+dH1", (3, 2, 1, 1, 1, 1, 0, 0), _C3_STEP),
    CurveFamily("H0+dH1", (4, 2, 2, 2, 1, 1, 1, 0), _C2_STEP),
    CurveFamily("H0+dH1", (4, 2, 2, 2, 1, 1, 1, 0), _C3_STEP),
    CurveFamily("H0+dH1", (4, 2, 2, 2, 1, 1, 1, 0), _C4_STEP),
    CurveFamily("H0+dH1", (4, 3, 1, 1, 1, 1, 1, 1), _C3_STEP),
    CurveFamily("H0+dH1", (5, 2, 2, 2, 2, 2, 2, 0), _C3_STEP),
    CurveFamily("H0+dH1", (5, 2, 2, 2, 2, 2, 2, 0), _C5_STEP, "d==0", lambda d: abs(d - 1)),
    CurveFamily("H0+dH1", (5, 3, 2, 2, 2, 1, 1, 1), _C2_STEP),
    CurveFamily("H0+dH1", (6, 3, 3, 2, 2, 2, 2, 1), _C3_STEP),
    CurveFamily("H0+dH1", (6, 3, 3, 2, 2, 2, 2, 1), _C4_STEP),
    CurveFamily("H0+dH1", (6, 3, 3, 2, 2, 2, 2, 1), _C5_STEP, "d<2", lambda d: d),
    CurveFamily("H0+dH1", (7, 3, 3, 3, 3, 2, 2, 2), _C4_STEP),
    CurveFamily("H0+dH1", (7, 3, 3, 3, 3, 2, 2, 2), _C5_STEP, "d==0", lambda d: d + 1),
    CurveFamily("H0+dH1", (8, 3, 3, 3, 3, 3, 3, 3), _C5_STEP, "never", lambda d: d + 2),
    # orbit of H2 + d*H1
    CurveFamily("H2+dH1", (2, 1, 1, 0, 0, 0, 0, 0), _H1_STEP),
    CurveFamily("H2+dH1", (3, 2, 1, 1, 1, 0, 0, 0), _H1_STEP),
    CurveFamily("H2+dH1", (3, 2, 1, 1, 1, 0, 0, 0), _C2_STEP),
    CurveFamily("H2+dH1", (4, 2, 2, 2, 1, 1, 0, 0), _C2_STEP),
    CurveFamily("H2+dH1", (4, 3, 1, 1, 1, 1, 1, 0), _H1_STEP),
    CurveFamily("H2+dH1", (4, 3, 1, 1, 1, 1, 1, 0), _C3_STEP),
    CurveFamily("H2+dH1", (5, 3, 2, 2, 2, 1, 1, 0), _C2_STEP),
    CurveFamily("H2+dH1", (5, 3, 2, 2, 2, 1, 1, 0), _C3_STEP),
    CurveFamily("H2+dH1", (6, 3, 3, 3, 2, 1, 1, 1), _C2_STEP),
    CurveFamily("H2+dH1", (6, 3, 3, 3, 2, 1, 1, 1), _C4_STEP),
    CurveFamily("H2+dH1", (6, 4, 2, 2, 2, 2, 1, 1), _C3_STEP),
    CurveFamily("H2+dH1", (6, 3, 3, 2, 2, 2, 2, 0), _C3_STEP),
    CurveFamily("H2+dH1", (7, 4, 3, 3, 2, 2, 2, 1), _C3_STEP),
    CurveFamily("H2+dH1", (7, 4, 3, 3, 2, 2, 2, 1), _C4_STEP),
    CurveFamily("H2+dH1", (8, 4, 4, 3, 3, 2, 2, 2), _C4_STEP),
    CurveFamily("H2+dH1", (8, 4, 3, 3, 3, 3, 3, 1), _C5_STEP, "d<2", lambda d: d),
    CurveFamily("H2+dH1", (9, 4, 4, 4, 3, 3, 3, 2), _C4_STEP),
    CurveFamily("H2+dH1", (9, 4, 4, 4, 3, 3, 3, 2), _C5_STEP, "d==0", lambda d: d + 1),
    CurveFamily("H2+dH1", (10, 4, 4, 4, 4, 4, 3, 3), _C5_STEP, "never", lambda d: d + 2),
    # orbit of 2*H0
    CurveFamily("2H0", (2, 0, 0, 0, 0, 0, 0, 0)),
    CurveFamily("2H0", (4, 2, 2, 2, 0, 0, 0, 0)),
    CurveFamily("2H0", (6, 4, 2, 2, 2, 2, 0, 0)),
    CurveFamily("2H0", (8, 4, 4, 4, 2, 2, 2, 0)),
    CurveFamily("2H0", (8, 6, 2, 2, 2, 2, 2, 2)),
    CurveFamily("2H0", (10, 6, 4, 4, 4, 2, 2, 2)),
    CurveFamily("2H0", (10, 4, 4, 4, 4, 4, 4, 0), None, "never", lambda d: 0),
    CurveFamily("2H0", (12, 6, 6, 4, 4, 4, 4, 2)),
    CurveFamily("2H0", (14, 6, 6, 6, 6, 4, 4, 4), None, "never", lambda d: 2),
    CurveFamily("2H0", (16, 6, 6, 6, 6, 6, 6, 6), None, "never", lambda d: 4),
    # orbit of H1
    CurveFamily("H1", (1, 1, 0, 0, 0, 0, 0, 0)),
    CurveFamily("H1", (2, 1, 1, 1, 1, 0, 0, 0)),
    CurveFamily("H1", (3, 2, 1, 1, 1, 1, 1, 0)),
    CurveFamily("H1", (4, 2, 2, 2, 1, 1, 1, 1)),
    CurveFamily("H1", (5, 2, 2, 2, 2, 2, 2, 1)),
)


@dataclass(frozen=True)
class SpotRow:
    family: str
    d: int
    ntype: NumType
    ascenzi_expected: bool
    ascenzi_actual: bool
    expected_gap: int
    computed_gap: int

    @property
    def ok(self) -> bool:
        return self.ascenzi_expected == self.ascenzi_actual and self.expected_gap == self.computed_gap

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "d": self.d,
            "type": self.ntype.to_json(),
            "ascenzi_expected": self.ascenzi_expected,
            "ascenzi_actual": self.ascenzi_actual,
            "expected_gap": self.expected_gap,
            "computed_gap": self.computed_gap,
            "ok": self.ok,
        }


def classification7_spotcheck(
    family: CurveFamily, drange, seed: int, p: int = MODULUS
) -> list[SpotRow]:
    """Compare computed gaps against the classification table for one family."""
    rows = []
    for d in drange if family.step is not None else (0,):
        T = family.member(d)
        _, split = _parameterize_and_split(T, _type_seed(T, seed), p)
        # the contracted class is a point: Ascenzi by convention, gap 0
        computed_gap = split.gap if split is not None else 0
        rows.append(
            SpotRow(family.label, d, T, family.ascenzi_expected(d), is_ascenzi(T), family.expected_gap(d), computed_gap)
        )
    return rows
