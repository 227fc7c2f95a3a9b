"""Interpolation-based cohomology at random points.

Everything here reduces to ranks of condition matrices over F_p: dimensions
of fat-point ideals, h^0 and h^1 of divisor classes, and the rank, kernel and
cokernel of the multiplication maps mu_k : (I_Z)_k (x) R_1 -> (I_Z)_{k+1}.

Vanishing to order m at a point is imposed through the order-(m-1) partial
derivatives; for a homogeneous form the Euler relation makes the lower
orders redundant as long as the characteristic exceeds the degree, which is
why every entry point insists on p > k.  A form of degree k has no nonzero
derivative of order above k, and its order-k derivatives are its
coefficients up to nonzero factorials, so a point with m > k imposes the
order-k ones: vanishing to order m > k leaves only the zero form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exactla import MatFp
from .lattice import DivClass, canonical_class
from .param import PointSet
from .plane import PlaneForm, dim_forms, monomials, var_shift

__all__ = [
    "FatScheme",
    "MuReport",
    "conditions_matrix",
    "ideal_dim",
    "ideal_basis",
    "mu_rank",
    "plane_syzygies",
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


def conditions_matrix(Z: FatScheme, k: int) -> MatFp:
    """Rows: order-min(m_i - 1, k) derivative functionals of each point;
    columns: degree-k monomials.  Full row count is the scheme length when
    every m_i <= k + 1."""
    p = Z.p
    _check_degree(p, k)
    monos = np.array(monomials(k), dtype=np.int64)
    nu = [monos[:, j] for j in range(3)]
    # derivative order per point; order k already kills every degree-k form
    orders = [min(m - 1, k) for m in Z.mults]
    rows = np.empty((sum((o + 1) * (o + 2) // 2 for o in orders), len(monos)), dtype=np.int64)
    i = 0
    # falling factorials ff[e][b] = e (e-1) ... (e-b+1) mod p
    max_o = max([0, *orders])
    ff = np.zeros((k + 1, max_o + 1), dtype=np.int64)
    ff[:, 0] = 1
    for b in range(1, max_o + 1):
        for e in range(k + 1):
            ff[e, b] = ff[e, b - 1] * ((e - b + 1) % p) % p
    for pt, o in zip(Z.points.points, orders):
        if o < 0:
            continue
        pows = np.ones((3, k + 1), dtype=np.int64)
        for j in range(3):
            for e in range(1, k + 1):
                pows[j, e] = pows[j, e - 1] * pt.x[j] % p
        # factor[j][b][e] = ff(e, b) * x_j^(e-b), zero when e < b
        factor = []
        for j in range(3):
            per_b = []
            for b in range(o + 1):
                col = np.zeros(k + 1, dtype=np.int64)
                col[b:] = ff[b:, b] * pows[j, : k + 1 - b] % p
                per_b.append(col)
            factor.append(per_b)
        for b0 in range(o + 1):
            for b1 in range(o + 1 - b0):
                b2 = o - b0 - b1
                row = factor[0][b0][nu[0]] * factor[1][b1][nu[1]] % p
                rows[i] = row * factor[2][b2][nu[2]] % p
                i += 1
    return MatFp(rows, p)


def ideal_dim(Z: FatScheme, k: int) -> int:
    """dim (I_Z)_k = C(k+2, 2) - rank of the conditions matrix."""
    return dim_forms(k) - conditions_matrix(Z, k).rank()


def ideal_basis(Z: FatScheme, k: int) -> list[np.ndarray]:
    """Coefficient vectors of a basis of (I_Z)_k."""
    return conditions_matrix(Z, k).kernel_basis()


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


def _mu_matrix(Z: FatScheme, k: int) -> tuple[MatFp, list[np.ndarray]]:
    basis = ideal_basis(Z, k)
    n1 = dim_forms(k + 1)
    if not basis:
        return MatFp.zeros(n1, 0, Z.p), basis
    cols = []
    for b in basis:
        for j in range(3):
            col = np.zeros(n1, dtype=np.int64)
            col[var_shift(k, j)] = b
            cols.append(col)
    return MatFp(np.column_stack(cols), Z.p), basis


def mu_rank(Z: FatScheme, k: int) -> MuReport:
    """Rank/kernel/cokernel of multiplication by linear forms at degree k."""
    mat, basis = _mu_matrix(Z, k)
    dim_k = len(basis)
    dim_k1 = ideal_dim(Z, k + 1)
    rank = mat.rank()
    return MuReport(k, dim_k, dim_k1, rank, 3 * dim_k - rank, dim_k1 - rank)


def plane_syzygies(Z: FatScheme, k: int) -> list[tuple[PlaneForm, PlaneForm, PlaneForm]]:
    """Triples (A0, A1, A2) in (I_Z)_k^3 with A0 x0 + A1 x1 + A2 x2 = 0.

    These are the kernel vectors of mu_k, reassembled as forms; they are the
    raw material for syzygies of parameterizations that come from the plane.
    """
    mat, basis = _mu_matrix(Z, k)
    p = Z.p
    out = []
    for vec in mat.kernel_basis():
        comps = []
        for j in range(3):
            acc = np.zeros(dim_forms(k), dtype=np.int64)
            for b_idx, b in enumerate(basis):
                c = int(vec[3 * b_idx + j])
                if c:
                    acc = (acc + c * b) % p
            comps.append(PlaneForm.from_vector(k, acc, p))
        out.append(tuple(comps))
    return out


def _scheme_for(D: DivClass, points: PointSet) -> FatScheme:
    if D.r > points.r:
        raise ValueError(f"class touches {D.r} points but only {points.r} given")
    sub = PointSet(points.points[: D.r], points.seed, points.p)
    # negative multiplicities are fixed components; they do not change h^0
    return FatScheme(sub, tuple(max(m, 0) for m in D.m))


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
    mat, basis = _mu_matrix(_scheme_for(A, points), A.d)
    h0 = len(basis)
    return h0, h0 - chi, 3 * h0 - mat.rank() if h0 else None


def alpha_degree(Z: FatScheme) -> int:
    """Least k with (I_Z)_k nonzero.

    Starts at the counting bound (the first k where C(k+2,2) exceeds the
    scheme length, so forms are guaranteed) and walks down while the ideal
    stays nonzero, which also covers schemes with special postulation.
    """
    k = 0
    while dim_forms(k) <= Z.length:
        k += 1
    while k > 0 and ideal_dim(Z, k - 1) > 0:
        k -= 1
    return k


def betti_report(Z: FatScheme, krange) -> list[MuReport]:
    """MuReports over a degree range; cokernels are the generator counts
    nu_{k+1}, and nu_alpha = dim (I_Z)_alpha at alpha = alpha_degree(Z)."""
    return [mu_rank(Z, k) for k in krange]


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
    from .lattice import is_exceptional_class

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
    alpha = alpha_degree(Z)
    report = mu_rank(Z, alpha)
    # (I_Z)_{alpha-1} = 0 is alpha_degree's exit condition, so it holds whenever alpha >= 1
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
