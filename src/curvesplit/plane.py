"""Degree-graded slices of F_p[x0, x1, x2]: monomial bases and dense forms.

Monomials of degree k are ordered with exponents (a, b, c), a + b + c = k,
lexicographically by descending (a, b).  A degree-k form is the int64 row
of its C(k+2, 2) reduced coefficients in that order; n of them are an
(n, C(k+2, 2)) array.  Only monomial bases, evaluation and variable
shifts live here.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .exactla import MODULUS

__all__ = ["monomials", "dim_forms", "eval_row", "var_shift"]


@lru_cache(maxsize=None)
def monomials(k: int) -> tuple[tuple[int, int, int], ...]:
    """Exponent triples of degree k in the canonical order."""
    if k < 0:
        raise ValueError("degree must be non-negative")
    return tuple((a, b, k - a - b) for a in range(k, -1, -1) for b in range(k - a, -1, -1))


def dim_forms(k: int) -> int:
    """dim of the space of degree-k forms, C(k+2, 2)."""
    return (k + 1) * (k + 2) // 2


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
