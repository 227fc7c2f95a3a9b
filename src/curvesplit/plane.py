"""Degree-graded slices of F_p[x0, x1, x2]: monomial bases and dense forms.

Monomials of degree k are ordered with exponents (a, b, c), a + b + c = k,
lexicographically by descending (a, b); coefficient vectors follow that
order.  Only what the interpolation and syzygy machinery needs lives here:
evaluation, variable shifts, and composition with a map P^1 -> P^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .binform import BinForm, ParamTriple
from .exactla import MODULUS

__all__ = ["monomials", "dim_forms", "eval_row", "var_shift", "PlaneForm"]


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


@dataclass(frozen=True)
class PlaneForm:
    """Dense homogeneous form in x0, x1, x2 over F_p."""

    degree: int
    coeffs: tuple[int, ...]
    p: int = MODULUS

    def __post_init__(self):
        if len(self.coeffs) != dim_forms(self.degree):
            raise ValueError("coefficient vector does not match the degree")
        object.__setattr__(self, "coeffs", tuple(int(c) % self.p for c in self.coeffs))

    def compose(self, phi: ParamTriple) -> BinForm:
        """Substitute the components of phi for x0, x1, x2."""
        if phi.p != self.p:
            raise ValueError("mixed moduli")
        k = self.degree
        pows: list[list[BinForm]] = []
        for f in phi.phis:
            cur = [BinForm((1,), self.p)]
            for _ in range(k):
                cur.append(cur[-1] * f)
            pows.append(cur)
        total = BinForm(np.zeros(phi.degree * k + 1, dtype=np.int64), self.p)
        for c, (a, b, cc) in zip(self.coeffs, monomials(k)):
            if c == 0:
                continue
            total = total + (pows[0][a] * pows[1][b] * pows[2][cc]).scale(c)
        return total
