"""Splitting type of a parameterized rational plane curve, three ways.

For a degree-d parameterization the pulled-back twisted cotangent bundle
splits as O(-a) + O(-b) with a <= b and a + b = d, and the syzygies of
(phi0, phi1, phi2) have dim Syz_k = (k - a + 1)_+ + (k - b + 1)_+, which
gives the moving-line law below for odd d too.  Three routes:

* moving lines: the nullity p of the coefficient matrix of the map
  (S_{n-1})^3 -> S_{n-1+d} (d = 2n + delta) gives a = n - p;
* saturation: the least k >= d with dim J_k = k + 1 is sigma = b + d - 1;
* minimal syzygy: a is the least k with a nonzero syzygy of the ideal
  (phi0, phi1, phi2) in degree k.

Column 3w + i of ``syzygy_matrix(phi, K)`` fills only rows w..w+d, so for
k <= K ``syzygy_matrix(phi, k)`` is its first 3(k+1) columns, less rows that
are zero there.  ``MatFp.rref`` pivots on the first nonzero entry, so the
rank of a column prefix is the number of pivots in it, and the kernel vector
of a free column f, zero right of f, is the same for every K >= f // 3.
Saturation reads (and checks dim Syz_k for) every k <= K off the pivots at
K = min(d // 2, d - 2), and again at K = d - 2 only when that prefix never
saturates (gap >= 3); the minimal syzygy is the first free column's vector
at K = d // 2.  Both read ``_syzygy_rref``, which eliminates
``syzygy_matrix(phi, K)`` once per triple and K, so for d >= 3 saturation
and the minimal syzygy share one elimination at K = d // 2.  Moving lines
eliminate their own matrix (K = d // 2 - 1), an independent check of the
other two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binform import ParamTriple, _conv_mod, _to_json
from .exactla import MatFp, _kernel_rows

__all__ = [
    "SplitType",
    "Syzygy",
    "syzygy_matrix",
    "moving_line_matrix",
    "splitting_moving_lines",
    "splitting_saturation",
    "min_syzygy",
    "is_syzygy",
]


@dataclass(frozen=True)
class SplitType:
    """(a, b) with 0 <= a <= b; a + b is the curve degree."""

    a: int
    b: int

    def __post_init__(self):
        if not 0 <= self.a <= self.b:
            raise ValueError(f"splitting ({self.a}, {self.b}) violates 0 <= a <= b")

    @property
    def gap(self) -> int:
        return self.b - self.a

    @property
    def degree(self) -> int:
        return self.a + self.b

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "gap": self.gap}


@dataclass(frozen=True, eq=False)
class Syzygy:
    """A degree-k relation alpha0 phi0 + alpha1 phi1 + alpha2 phi2 = 0.

    ``alphas`` is the read-only (3, k + 1) int64 array of the reduced
    coefficient rows of alpha0, alpha1, alpha2, so its width gives k;
    equality and hash are the array's.
    """

    alphas: np.ndarray

    def __post_init__(self):
        alphas = np.array(self.alphas, dtype=np.int64)
        if alphas.ndim != 2 or len(alphas) != 3:
            raise ValueError("a syzygy is three rows of k + 1 coefficients")
        if not alphas.any():
            raise ValueError("the zero syzygy is not a syzygy")
        alphas.flags.writeable = False
        object.__setattr__(self, "alphas", alphas)

    @property
    def degree(self) -> int:
        return self.alphas.shape[1] - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Syzygy):
            return NotImplemented
        return np.array_equal(self.alphas, other.alphas)

    def __hash__(self) -> int:
        return hash(self.alphas.tobytes())

    def to_json(self) -> dict:
        return {"degree": self.degree, "alphas": [_to_json(row) for row in self.alphas]}


def is_syzygy(phi: ParamTriple, syz: Syzygy) -> bool:
    """Whether alpha0 phi0 + alpha1 phi1 + alpha2 phi2 is zero: the three
    products in one stacked ``_conv_mod``, then their sum."""
    return not (_conv_mod(syz.alphas, phi.coeffs, phi.p).sum(axis=0) % phi.p).any()


def syzygy_matrix(phi: ParamTriple, k: int) -> MatFp:
    """Matrix of (beta0, beta1, beta2) in (S_k)^3 -> sum beta_i phi_i.

    Column 3w + i holds the coefficients of s^(k-w) t^w * phi_i; rows are
    indexed by the t-exponent in S_{k+d}.  The kernel is the degree-k graded
    piece of the syzygy module.
    """
    if k < 0:
        raise ValueError("syzygy degree must be non-negative")
    d = phi.degree
    p = phi.p
    rows = k + d + 1
    mat = np.zeros((rows, 3 * (k + 1)), dtype=np.int64)
    for w in range(k + 1):
        # s^(k-w) t^w shifts the t-exponent of every coefficient by w
        mat[w : w + d + 1, 3 * w : 3 * w + 3] = phi.coeffs.T
    return MatFp(mat, p)


def _syzygy_rref(phi: ParamTriple, K: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """``syzygy_matrix(phi, K).rref()``, eliminated once per triple and K.

    The results live in a private entry of the triple's own ``__dict__``,
    so they die with it: an equal triple built anew eliminates again.  The
    reduced array is read-only.
    """
    memo = vars(phi).setdefault("_splitting_rrefs", {})
    if K not in memo:
        red, pivots = syzygy_matrix(phi, K).rref()
        red.flags.writeable = False
        memo[K] = red, pivots
    return memo[K]


def moving_line_matrix(phi: ParamTriple) -> MatFp:
    """The (n+d) x 3n moving-line matrix in degree n-1, for d = 2n + delta."""
    d = phi.degree
    if d < 2:
        raise ValueError("splitting computation needs degree >= 2")
    return syzygy_matrix(phi, d // 2 - 1)


def splitting_moving_lines(phi: ParamTriple) -> SplitType:
    """Splitting type from the rank of the moving-line matrix."""
    d = phi.degree
    m = moving_line_matrix(phi)
    a = d // 2 - (m.cols - m.rank())
    return SplitType(a, d - a)


def splitting_saturation(phi: ParamTriple) -> SplitType:
    """Splitting type from the saturation degree of (phi0, phi1, phi2).

    dim J_{d+k} is the rank of ``syzygy_matrix(phi, k)``; the least k with
    dim J_{d+k} = k + d + 1 gives sigma = d + k = b + d - 1 <= 2d - 2, and
    dim Syz_k = 3(k+1) - dim J_{d+k} must be (k - a + 1)_+ + (k - b + 1)_+.

    The ranks for k <= K are read off the pivots of ``syzygy_matrix(phi, K)``,
    first at K = min(d // 2, d - 2), which shows sigma whenever the gap is at
    most 2 (then b - 1 <= d // 2), and only if that prefix never saturates
    again at K = d - 2, as for (16; 6^7) with splitting (6, 10).  Stopping at
    the first K that saturates loses nothing.  The column prefixes of a larger
    matrix have the same pivots, so the same least k, hence the same b, comes
    out.  Saturation persists, as J_j = S_j gives J_{j+1} = S_1 J_j = S_{j+1},
    so for every k >= b - 1 the rank is k + d + 1 and dim Syz_k = 2k + 2 - d,
    which is also the module formula there (k >= b - 1 >= a - 1); checking
    dim Syz_k for k <= K thus checks it in every degree.
    """
    d = phi.degree
    if d < 2:
        raise ValueError("saturation analysis needs degree >= 2")
    for K in sorted({min(d // 2, d - 2), d - 2}):
        pivots = _syzygy_rref(phi, K)[1]
        k = np.arange(K + 1)
        ranks = np.searchsorted(pivots, 3 * (k + 1))
        saturated = np.flatnonzero(ranks == k + d + 1)
        if saturated.size:
            break
    else:
        raise ValueError("saturation cap 2d-2 exceeded; components share a factor or the map is degenerate")
    b = int(saturated[0]) + 1
    split = SplitType(d - b, b)
    module = np.maximum(k - split.a + 1, 0) + np.maximum(k - b + 1, 0)
    if not np.array_equal(3 * (k + 1) - ranks, module):
        raise AssertionError("syzygy dimensions do not match the splitting; matrix layout broken")
    return split


def min_syzygy(phi: ParamTriple) -> Syzygy:
    """A nonzero syzygy of least degree (at least 1); that degree equals a.

    It is the kernel vector of the first free column of
    ``syzygy_matrix(phi, d // 2)``, read off the elimination that
    ``splitting_saturation`` shares for d >= 3.
    """
    d = phi.degree
    if d < 2:
        raise ValueError("syzygy search needs degree >= 2")
    # 3(K+1) columns exceed K+d+1 rows at K = d // 2, so a free column f
    # exists; the vector of the first one ends at f, in degree f // 3
    K = d // 2
    vec = _kernel_rows(*_syzygy_rref(phi, K), phi.p)[0][0]
    k = max(1, int(np.flatnonzero(vec)[-1]) // 3)
    syz = Syzygy(vec[: 3 * (k + 1)].reshape(k + 1, 3).T)
    if not is_syzygy(phi, syz):
        raise AssertionError("kernel vector is not a syzygy; matrix layout broken")
    return syz
