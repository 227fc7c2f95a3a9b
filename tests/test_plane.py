"""Restriction of plane-form rows to a parameterized curve."""

import numpy as np
import pytest

from curvesplit.binform import BinForm
from curvesplit.lattice import NumType
from curvesplit.param import SeededRng, parameterize, random_points
from curvesplit.plane import dim_forms, eval_row, monomials, restrict

CURVES = ((1, NumType(4, (2, 2, 2, 1, 1, 1, 1, 1))), (2, NumType(5, (4, 1, 1, 1))), (3, NumType(3, (2, 1, 1))))


def _substitute(row, k, phi):
    """Reference restriction of one row: the powers of phi built afresh for
    this row, then one scaled monomial added at a time."""
    p = phi.p
    pows = []
    for f in phi.phis:
        cur = [BinForm((1,), p)]
        for _ in range(k):
            cur.append(cur[-1] * f)
        pows.append(cur)
    total = BinForm(np.zeros(phi.degree * k + 1, dtype=np.int64), p)
    for c, (a, b, cc) in zip(row, monomials(k)):
        if c:
            total = total + (pows[0][a] * pows[1][b] * pows[2][cc]).scale(c)
    return total


def _at(f, s, t):
    """f(s, t) mod p over Python ints."""
    d = f.degree
    return sum(c * pow(s, d - i, f.p) * pow(t, i, f.p) for i, c in enumerate(f.coeffs.tolist())) % f.p


# 3037000493 is the largest prime the int64 bound admits: every product of
# a row with the monomial table must be reduced before it is summed
@pytest.mark.parametrize("p", [211, 2**31 - 1, 3037000493])
def test_restrict_matches_the_reference(p):
    rng = SeededRng(p)
    for seed, ntype in CURVES:
        phi = parameterize(ntype, random_points(9, seed, p), seed=seed)
        for k in range(5):
            rows = [[rng.below(p) for _ in range(dim_forms(k))] for _ in range(3)]
            rows += [[0] * dim_forms(k), [p - 1] * dim_forms(k)]
            got = restrict(np.array(rows, dtype=np.int64), phi)
            assert [f.degree for f in got] == [k * phi.degree] * len(rows)
            assert got == [_substitute(row, k, phi) for row in rows]
            # the restricted form at (s, t) is the row at phi(s, t)
            for row, f in zip(rows, got):
                s, t = rng.below(p), rng.below(p)
                x = [_at(c, s, t) for c in phi.phis]
                assert _at(f, s, t) == sum(a * b for a, b in zip(row, eval_row(x, k, p).tolist())) % p
        assert restrict(np.zeros((0, dim_forms(2)), dtype=np.int64), phi) == []


def test_restrict_refuses_a_width_of_no_degree(points9):
    phi = parameterize(CURVES[0][1], points9, seed=1)
    for width in (0, 2, 4, 5, 7):
        with pytest.raises(ValueError, match="do not match any degree"):
            restrict(np.zeros((1, width), dtype=np.int64), phi)
