"""Monomial evaluation and variable shifts on degree-graded plane forms."""

import pytest

from curvesplit.param import SeededRng
from curvesplit.plane import eval_row, monomials, var_shift


def test_var_shift_multiplies_each_monomial_by_x_j():
    for k in range(6):
        for j in range(3):
            shift = var_shift(k, j)
            assert len(shift) == len(monomials(k))
            for idx, (a, b, c) in enumerate(monomials(k)):
                e = [a, b, c]
                e[j] += 1
                assert shift[idx] == monomials(k + 1).index(tuple(e))


@pytest.mark.parametrize("p", [211, 2**31 - 1])
def test_eval_row_is_the_products_of_coordinate_powers(p):
    rng = SeededRng(p)
    points = [(0, 0, 1), (1, 0, 0), (p - 1, 1, p - 1)]
    points += [tuple(rng.below(p) for _ in range(3)) for _ in range(4)]
    for x in points:
        for k in range(6):
            row = eval_row(x, k, p)
            assert row.tolist() == [pow(x[0], a, p) * pow(x[1], b, p) * pow(x[2], c, p) % p for a, b, c in monomials(k)]
