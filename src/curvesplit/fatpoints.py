"""Interpolation-based cohomology at random points.

Everything here reduces to ranks of condition matrices over F_p: dimensions
of fat-point ideals, h^0 and h^1 of divisor classes, and the rank, kernel and
cokernel of the multiplication maps mu_k : (I_Z)_k (x) R_1 -> (I_Z)_{k+1}.

Vanishing to order m at a point is imposed in the point's affine chart: the
point is scaled so its first nonzero coordinate x_c is 1, and the rows are
the Taylor coefficients of f(x + u e_a + v e_b) of order below m, with a, b
the other two coordinates.  For a form of degree k these span the same
functionals as the order-(m-1) homogeneous partial derivatives, because the
Euler relation trades a derivative in x_c for lower orders and back; that
needs the characteristic to exceed the degree, and the p > k guard of every
entry point is kept unchanged.  A form of degree k has no nonzero Taylor
coefficient of order above k, and those of order <= k determine it, so a
point with m > k imposes the ones of order <= k: vanishing to order m > k
leaves only the zero form.

Where x0 is a unit at every point of Z, as at the points (1, y, z) of
``random_points``, one RREF of the degree-K matrix C_K answers for every
degree j <= K: x0^(K-j) G lies in I_Z exactly when G does, and the
monomials are ordered by descending x0 exponent, so x0^(K-j) S_j fills the
first C(j+2, 2) columns of C_K in S_j's order.  ``MatFp.rref`` pivots on
the first nonzero entry, so that column prefix has the pivots of its own
RREF: dim (I_Z)_j is C(j+2, 2) minus the pivots left of column C(j+2, 2),
and the prefix's reduced-echelon kernel vectors, zero right of their free
column, are ``ideal_basis(Z, j)``.  ``mu_rank``, ``betti_report``,
``alpha_degree`` and ``check_nongeneric_resolution`` read Z this way and
refuse a point of positive multiplicity on x0 = 0; the certificate reads
C_(k0+1), k0 the counting bound on alpha, so its p > k guard checks k0 + 1.

That RREF is taken in a frame where the first point of largest multiplicity
m, (1, y, z), sits at e0 = (1, 0, 0): T = [[1, 0, 0], [-y, 1, 0],
[-z, 0, 1]] sends x to (x0, x1 - y x0, x2 - z x0).  T is a graded ring
automorphism that sends I_Z to I_TZ and commutes with multiplication by R_1,
so every dim, alpha and mu rank of TZ is exactly that of Z, at any points,
not only general ones.  At e0 the conditions of order < m on a degree-K form
are its coefficients on x0^a x1^b x2^c with b + c < m, the first C(m+1, 2)
columns (all of them when m > K): they are deleted with the point's rows,
and the rest of C_K(TZ) is eliminated once; m = 0 deletes nothing.  T fixes
x0, so x0 is still 1 at every other point of positive multiplicity, and the
deleted columns (a > K - m) lead every prefix x0^(K-j) S_j, so each prefix
keeps its pivots; its kernel vectors, zero on the deleted columns, are
``ideal_basis(TZ, j)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import comb

import numpy as np

from .exactla import MatFp, _kernel_rows
from .lattice import DivClass, canonical_class, is_exceptional_class
from .param import PointSet
from .plane import dim_forms, monomials, var_shift

__all__ = [
    "FatScheme",
    "MuReport",
    "conditions_matrix",
    "ideal_dim",
    "ideal_basis",
    "mu_rank",
    "h0_class",
    "class_cohomology",
    "alpha_degree",
    "betti_report",
    "ResolutionReport",
    "check_nongeneric_resolution",
]


@dataclass(frozen=True)
class FatScheme:
    """r plane points with non-negative multiplicities: Z = sum m_i p_i."""

    points: PointSet
    mults: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mults", tuple(int(m) for m in self.mults))
        if len(self.mults) != self.points.r:
            raise ValueError("one multiplicity per point")
        if any(m < 0 for m in self.mults):
            raise ValueError("multiplicities must be non-negative")

    @property
    def length(self) -> int:
        return sum(m * (m + 1) // 2 for m in self.mults)

    @property
    def p(self) -> int:
        return self.points.p


def _check_degree(p: int, k: int) -> None:
    if k < 0:
        raise ValueError("degree must be non-negative")
    if p <= k:
        raise ValueError(f"modulus {p} too small for degree {k}; derivative conditions need p > k")


def _shift_table(x: int, binom: np.ndarray, p: int) -> np.ndarray:
    """t[i, e] = C(e, i) x^(e - i) mod p, the u^i coefficient of (x + u)^e,
    from binom[i, e] = C(e, i) mod p."""
    rows, cols = binom.shape
    pows = np.array([pow(x, e, p) for e in range(cols)], dtype=np.int64)
    # where e < i the exponent e - i wraps to the end of pows, but C(e, i) = 0
    return binom * pows[np.arange(cols) - np.arange(rows)[:, None]] % p


def conditions_matrix(Z: FatScheme, k: int) -> MatFp:
    """Rows: the Taylor coefficients of order <= min(m_i - 1, k) of each point
    in its chart (see the module docstring); columns: degree-k monomials.  The
    u^i v^j row of a point is C(nu_a, i) x_a^(nu_a - i) C(nu_b, j) x_b^(nu_b - j)
    on x^nu.  Full row count is the scheme length when every m_i <= k + 1."""
    p = Z.p
    _check_degree(p, k)
    monos = np.array(monomials(k), dtype=np.int64)
    # Taylor order per point; order k already kills every degree-k form
    orders = [min(m - 1, k) for m in Z.mults]
    rows = np.empty((sum((o + 1) * (o + 2) // 2 for o in orders), len(monos)), dtype=np.int64)
    binom = np.array([[comb(e, i) % p for e in range(k + 1)] for i in range(k + 1)], dtype=np.int64)
    start = 0
    for x, o in zip(Z.points.coords.tolist(), orders):
        if o < 0:
            continue
        c = x.index(1)  # the first nonzero coordinate, scaled to 1
        a, b = (j for j in range(3) if j != c)
        # ta[i], tb[j]: the u^i and v^j factors on every monomial
        ta = _shift_table(x[a], binom[: o + 1], p)[:, monos[:, a]]
        tb = _shift_table(x[b], binom[: o + 1], p)[:, monos[:, b]]
        for i in range(o + 1):
            np.multiply(ta[i], tb[: o + 1 - i], out=rows[start : start + o + 1 - i])
            start += o + 1 - i
    # each product is at most (p - 1)^2 < 2^63; MatFp reduces them mod p
    return MatFp(rows, p)


def ideal_dim(Z: FatScheme, k: int) -> int:
    """dim (I_Z)_k = C(k+2, 2) - rank of the conditions matrix."""
    return dim_forms(k) - conditions_matrix(Z, k).rank()


def ideal_basis(Z: FatScheme, k: int) -> np.ndarray:
    """A basis of (I_Z)_k, one coefficient vector per row (see
    ``MatFp.kernel_basis``)."""
    return conditions_matrix(Z, k).kernel_basis()


def _prefix_basis(Z: FatScheme, K: int) -> tuple[np.ndarray, np.ndarray]:
    """ideal_basis(TZ, K) as read-only rows and each row's free column in
    C_K's indices, for TZ = Z moved by T so that its first point of largest
    multiplicity m is at e0, which keeps every dim and mu rank exactly (see
    the module docstring); the rows with free column below C(j+2, 2), cut
    there, are ideal_basis(TZ, j) for j <= K.  At e0 that point's conditions
    are the first C(m+1, 2) columns, so only the rest of C_K(TZ) is
    eliminated."""
    coords = Z.points.coords.tolist()
    for i, (x, m) in enumerate(zip(coords, Z.mults)):
        if m and x[0] == 0:
            raise ValueError(f"point {i} {tuple(x)} of multiplicity {m} lies on x0 = 0; x0 must be a unit at every point")
    m = max(Z.mults, default=0)
    top = next((i for i, mi in enumerate(Z.mults) if mi == m), None)
    _, y, z = coords[top] if coords else (1, 0, 0)
    moved = FatScheme(
        PointSet([(x0, x1 - y * x0, x2 - z * x0) for x0, x1, x2 in coords], Z.points.seed, Z.p),
        tuple(0 if i == top else mi for i, mi in enumerate(Z.mults)),
    )
    # the monomials x0^a x1^b x2^c with b + c < m come first
    cut = dim_forms(min(m - 1, K))
    rows, free = _kernel_rows(*MatFp(conditions_matrix(moved, K).entries[:, cut:], Z.p).rref(), Z.p)
    basis = np.zeros((len(rows), dim_forms(K)), dtype=np.int64)
    basis[:, cut:] = rows
    basis.flags.writeable = False
    return basis, free + cut


def _least_degree(n: int) -> int:
    """The least k with C(k+2, 2) > n."""
    return next(k for k in count() if dim_forms(k) > n)


@dataclass(frozen=True)
class MuReport:
    """Rank data of mu_k : (I_Z)_k (x) R_1 -> (I_Z)_{k+1}."""

    degree: int
    dim_k: int
    dim_k_plus_1: int
    rank: int
    kernel_dim: int
    cokernel_dim: int

    def __post_init__(self):
        if self.rank + self.kernel_dim != 3 * self.dim_k:
            raise ValueError("rank + kernel != 3 * dim (I_Z)_k")
        if self.rank + self.cokernel_dim != self.dim_k_plus_1:
            raise ValueError("rank + cokernel != dim (I_Z)_{k+1}")

    def to_json(self) -> dict:
        return {
            "k": self.degree,
            "dim_k": self.dim_k,
            "dim_k_plus_1": self.dim_k_plus_1,
            "rank": self.rank,
            "kernel": self.kernel_dim,
            "cokernel": self.cokernel_dim,
        }


def _mu_matrix(basis: np.ndarray, k: int, p: int) -> MatFp:
    """mu_k on a basis of (I_Z)_k, one form per row: column 3b + j is basis
    form b times x_j."""
    mat = np.zeros((dim_forms(k + 1), 3 * len(basis)), dtype=np.int64)
    for j in range(3):
        mat[var_shift(k, j), j::3] = basis.T
    return MatFp(mat, p)


def _mu_report(basis: np.ndarray, free: np.ndarray, k: int, p: int) -> MuReport:
    """mu_k read off ``_prefix_basis(Z, K)`` for k < K."""
    rows = basis[free < dim_forms(k), : dim_forms(k)]
    dim_k1, rank = int((free < dim_forms(k + 1)).sum()), _mu_matrix(rows, k, p).rank()
    return MuReport(k, len(rows), dim_k1, rank, 3 * len(rows) - rank, dim_k1 - rank)


def mu_rank(Z: FatScheme, k: int) -> MuReport:
    """Rank/kernel/cokernel of multiplication by linear forms at degree k."""
    return betti_report(Z, [k])[0]


def _scheme_for(D: DivClass, points: PointSet) -> FatScheme:
    if D.r > points.r:
        raise ValueError(f"class touches {D.r} points but only {points.r} given")
    # negative multiplicities are fixed components; they do not change h^0.
    # The points past D.r get multiplicity 0: no condition row, no length
    return FatScheme(points, tuple(max(m, 0) for m in D.m) + (0,) * (points.r - D.r))


def h0_class(D: DivClass, points: PointSet) -> int:
    """h^0 of the class: forms of its degree with the imposed multiplicities.

    Negative degree gives 0.  Negative multiplicities (E_i components of an
    effective class) are clamped to 0: a fixed component does not change h^0.
    """
    if D.d < 0:
        return 0
    return ideal_dim(_scheme_for(D, points), D.d)


def class_cohomology(A: DivClass, points: PointSet) -> tuple[int, int, int | None]:
    """(h^0, h^1, le) of a class of degree >= -2, from one condition matrix.

    h^1 = h^0 - chi (degree >= -2 kills h^2).  The linear excess, the
    dimension of the kernel of H^0(A) (x) H^0(L) -> H^0(A + L), is
    3 h^0 - rank mu_{d_A} on the same basis of H^0(A); it is None when A has
    no sections.  Negative degree builds no matrix.
    """
    if A.d < -2:
        raise ValueError("h1 computed only for degree >= -2")
    chi = (A.dot(A) - canonical_class(A.r).dot(A)) // 2 + 1
    if A.d < 0:
        return 0, -chi, None
    basis = ideal_basis(_scheme_for(A, points), A.d)
    h0 = len(basis)
    return h0, h0 - chi, 3 * h0 - _mu_matrix(basis, A.d, points.p).rank() if h0 else None


def alpha_degree(Z: FatScheme) -> int:
    """Least k with (I_Z)_k nonzero.

    The counting bound k0 (the first k where C(k+2,2) exceeds the scheme
    length) guarantees forms, so alpha <= k0; one RREF of C_(k0-1) gives
    every dim (I_Z)_j below it, which also covers special postulation.
    """
    return _betti_alpha(Z, [], alpha=True)[1]


def betti_report(Z: FatScheme, krange) -> list[MuReport]:
    """MuReports over a degree range, all read off one RREF of C_(max k + 1);
    cokernels are the generator counts nu_{k+1}, and
    nu_alpha = dim (I_Z)_alpha at alpha = alpha_degree(Z)."""
    return _betti_alpha(Z, list(krange), alpha=False)[0]


def _betti_alpha(Z: FatScheme, krange: list[int], alpha: bool) -> tuple[list[MuReport], int]:
    """betti_report(Z, krange) and min(alpha_degree(Z), K + 1), read off one
    RREF of C_K, K the largest of every k + 1 and, when ``alpha``, k0 - 1.

    Then the second value is alpha itself, as alpha <= k0.  No kernel vector
    of C_K means (I_Z)_j = 0 for every j <= K.  K < 0 builds nothing.
    """
    if krange:
        _check_degree(Z.p, min(krange))
    K = max([k + 1 for k in krange] + ([_least_degree(Z.length) - 1] if alpha else []), default=-1)
    if K < 0:
        return [], 0
    basis, free = _prefix_basis(Z, K)
    reports = [_mu_report(basis, free, k, Z.p) for k in krange]
    return reports, _least_degree(free.min()) if free.size else K + 1


@dataclass(frozen=True)
class ResolutionReport:
    """Outcome of the non-generic-resolution check for one derived scheme."""

    cprime: tuple[int, ...]
    mults: tuple[int, ...]
    alpha: int
    alpha_expected: int
    alpha_ok: bool
    hilbert_maximal: bool
    expected_cokernel: int
    cokernel: int

    @property
    def nongeneric(self) -> bool:
        return self.alpha_ok and self.hilbert_maximal and self.cokernel >= 2

    def to_json(self) -> dict:
        return {
            "cprime": list(self.cprime),
            "mults": list(self.mults),
            "alpha": self.alpha,
            "alpha_expected": self.alpha_expected,
            "hilbert_maximal": self.hilbert_maximal,
            "expected_cokernel": self.expected_cokernel,
            "cokernel": self.cokernel,
            "nongeneric": self.nongeneric,
        }


def check_nongeneric_resolution(cprime: DivClass, points: PointSet) -> ResolutionReport:
    """Certify the bad resolution forced by an unbalanced exceptional class.

    For an exceptional class of type (2d'; 2m'_1 + 1, ..., 2m'_9 + 1) with
    d' >= 2, the fat scheme Z = sum (3 m'_i + 1) p_i has maximal Hilbert
    function with initial degree 3d' - 1, where one generator is expected
    beyond the initial ones but the cokernel of mu_alpha is at least 2.
    """
    if cprime.r != 9:
        raise ValueError("the construction lives on 9-point blow-ups")
    if not is_exceptional_class(cprime):
        raise ValueError(f"{cprime} is not exceptional")
    if cprime.d % 2 or any(m % 2 == 0 or m < 1 for m in cprime.m):
        raise ValueError("need even degree and odd positive multiplicities")
    dprime = cprime.d // 2
    if dprime < 2:
        raise ValueError("need d' >= 2")
    mprime = tuple((m - 1) // 2 for m in cprime.m)
    Z = FatScheme(points, tuple(3 * mp + 1 for mp in mprime))
    alpha_expected = 3 * dprime - 1
    # alpha <= k0 (alpha_degree), so C_(k0+1) holds degrees alpha and alpha + 1
    basis, free = _prefix_basis(Z, _least_degree(Z.length) + 1)
    alpha = _least_degree(free.min())
    report = _mu_report(basis, free, alpha, Z.p)
    # (I_Z)_{alpha-1} = 0 by the choice of alpha, so it holds whenever alpha >= 1
    hilbert_maximal = alpha == alpha_expected and report.dim_k == dim_forms(alpha) - Z.length
    expected_cok = report.dim_k_plus_1 - 3 * report.dim_k
    return ResolutionReport(
        cprime=(cprime.d, *cprime.m),
        mults=Z.mults,
        alpha=alpha,
        alpha_expected=alpha_expected,
        alpha_ok=alpha == alpha_expected,
        hilbert_maximal=hilbert_maximal,
        expected_cokernel=expected_cok,
        cokernel=report.cokernel_dim,
    )
