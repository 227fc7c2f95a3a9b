"""Degree-graded slices of F_p[x0, x1, x2]: monomial bases and dense forms.

Monomials of degree k are ordered with exponents (a, b, c), a + b + c = k,
lexicographically by descending (a, b).  A degree-k form is the int64 row
of its C(k+2, 2) reduced coefficients in that order; n of them are an
(n, C(k+2, 2)) array.  Only what the interpolation and syzygy machinery
needs lives here: evaluation, variable shifts, and restriction to a map
P^1 -> P^2.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import isqrt
from operator import mul

import numpy as np

from .binform import BinForm, ParamTriple
from .exactla import MODULUS

__all__ = ["monomials", "dim_forms", "eval_row", "var_shift", "restrict"]


@lru_cache(maxsize=None)
def monomials(k: int) -> tuple[tuple[int, int, int], ...]:
    """Exponent triples of degree k in the canonical order."""
    if k < 0:
        raise ValueError("degree must be non-negative")
    return tuple((a, b, k - a - b) for a in range(k, -1, -1) for b in range(k - a, -1, -1))


def dim_forms(k: int) -> int:
    """dim of the space of degree-k forms, C(k+2, 2)."""
    return (k + 1) * (k + 2) // 2


def _row_degree(width: int) -> int:
    """The k with C(k+2, 2) = width, as 8 C(k+2, 2) + 1 = (2k + 3)^2."""
    k = (isqrt(8 * width + 1) - 3) // 2
    if k < 0 or dim_forms(k) != width:
        raise ValueError(f"{width} coefficients do not match any degree")
    return k


def eval_row(point: tuple[int, int, int], k: int, p: int = MODULUS) -> np.ndarray:
    """Values of every degree-k monomial at a point, as an int64 row."""
    x0, x1, x2 = (int(c) % p for c in point)
    pows = []
    for base in (x0, x1, x2):
        row = [1] * (k + 1)
        for e in range(1, k + 1):
            row[e] = row[e - 1] * base % p
        pows.append(row)
    return np.array(
        [pows[0][a] * pows[1][b] % p * pows[2][c] % p for a, b, c in monomials(k)],
        dtype=np.int64,
    )


@lru_cache(maxsize=None)
def var_shift(k: int, j: int) -> np.ndarray:
    """Index map sending a degree-k monomial to its product with x_j."""
    target = {m: i for i, m in enumerate(monomials(k + 1))}
    out = np.empty(len(monomials(k)), dtype=np.int64)
    for idx, (a, b, c) in enumerate(monomials(k)):
        e = [a, b, c]
        e[j] += 1
        out[idx] = target[tuple(e)]
    return out


def restrict(forms: np.ndarray, phi: ParamTriple) -> list[BinForm]:
    """Substitute the components of phi for x0, x1, x2 in each row of the
    (n, C(k+2, 2)) array ``forms``: one BinForm of degree k * deg phi per row.
    The table of the degree-k monomials in phi is built once for all rows.
    """
    p = phi.p
    forms = np.asarray(forms, dtype=np.int64) % p
    k = _row_degree(forms.shape[-1])
    # pows[c][e] = phi_c^e for e = 0..k
    pows = [list(accumulate([f] * k, mul, initial=BinForm((1,), p))) for f in phi.phis]
    table = np.stack([(pows[0][a] * pows[1][b] * pows[2][c]).coeffs for a, b, c in monomials(k)])
    return [BinForm(row, p) for row in (forms[:, :, None] * table % p).sum(axis=1) % p]
