import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvesplit.binform import BinForm, ParamTriple, div_exact, gcd
from curvesplit.exactla import MODULUS

P = MODULUS

S = BinForm((1, 0), P)  # s
T = BinForm((0, 1), P)  # t


def form(*coeffs):
    return BinForm(coeffs, P)


def forms(max_degree=8, allow_zero=False):
    min_size = 0 if allow_zero else 1
    return st.lists(
        st.integers(min_value=0, max_value=P - 1), min_size=min_size, max_size=max_degree + 1
    ).map(lambda cs: BinForm(cs, P))


def nonzero_forms(max_degree=8):
    return forms(max_degree).filter(lambda f: not f.is_zero)


class TestMul:
    def test_s_times_t(self):
        assert S * T == form(0, 1, 0)

    def test_difference_of_squares(self):
        assert form(1, 1) * form(1, -1) == form(1, 0, -1)

    @settings(max_examples=40, deadline=None)
    @given(f=nonzero_forms(5), g=nonzero_forms(5), data=st.data())
    def test_evaluation_oracle(self, f, g, data):
        # products must evaluate to the product of values at random points
        for _ in range(20):
            s0 = data.draw(st.integers(min_value=0, max_value=P - 1))
            t0 = data.draw(st.integers(min_value=1, max_value=P - 1))
            assert (f * g).eval(s0, t0) == f.eval(s0, t0) * g.eval(s0, t0) % P

    @settings(max_examples=30, deadline=None)
    @given(f=forms(5, True), g=forms(5, True), h=forms(5, True))
    def test_associative(self, f, g, h):
        assert (f * g) * h == f * (g * h)

    @settings(max_examples=30, deadline=None)
    @given(f=nonzero_forms(5), g=st.data())
    def test_distributive(self, f, g):
        a = g.draw(forms(4).filter(lambda x: not x.is_zero))
        b = g.draw(st.lists(st.integers(min_value=0, max_value=P - 1), min_size=a.degree + 1, max_size=a.degree + 1).map(lambda cs: BinForm(cs, P)))
        if b.is_zero:
            return
        assert f * (a + b) == f * a + f * b


class TestGcd:
    def test_monomials(self):
        assert gcd(form(1, 0, 0, 0, 0), form(0, 1, 0, 0, 0)) == form(1, 0, 0, 0)  # gcd(s^4, s^3 t) = s^3

    def test_coprime_lines(self):
        assert gcd(form(1, 1), form(1, -1)) == form(1)

    def test_t_powers(self):
        # both divisible by t: gcd(s t, t^2) = t
        assert gcd(form(0, 1, 0), form(0, 0, 1)) == form(0, 1)

    def test_zero_one_side(self):
        assert gcd(BinForm.zero(P), form(3, 0)) == form(1, 0)

    def test_both_zero_raises(self):
        with pytest.raises(ValueError):
            gcd(BinForm.zero(P), BinForm.zero(P))

    @settings(max_examples=30, deadline=None)
    @given(f=nonzero_forms(4), g=nonzero_forms(4), h=nonzero_forms(3))
    def test_multiplicativity_oracle(self, f, g, h):
        # gcd(f h, g h) = h * gcd(f, g) up to the monic normalization
        left = gcd(f * h, g * h)
        right = (h * gcd(f, g)).monic()
        assert left == right


class TestDivExact:
    def test_monomial_quotient(self):
        assert div_exact(form(1, 0, 0), form(1, 0)) == form(1, 0)

    def test_rejects_nondivisor(self):
        with pytest.raises(ValueError):
            div_exact(form(1, 0, 1), form(1, 1))

    @settings(max_examples=40, deadline=None)
    @given(f=nonzero_forms(6), g=nonzero_forms(6))
    def test_mul_roundtrip(self, f, g):
        assert div_exact(f * g, g) == f


class TestEval:
    def test_square(self):
        assert form(1, 0, 0).eval(2, 0) == 4

    def test_product_monomial(self):
        assert form(0, 1, 0).eval(1, 1) == 1

    @settings(max_examples=30, deadline=None)
    @given(f=nonzero_forms(6))
    def test_coefficient_sum_oracle(self, f):
        # evaluating at (1, 1) sums the coefficients
        assert f.eval(1, 1) == int(sum(int(c) for c in f.coeffs) % P)


def test_degree_law_gcd_lcm():
    f = form(1, 2, 1) * form(1, 1)
    g = form(1, 2, 1) * form(1, 5)
    h = gcd(f, g)
    lcm = f * div_exact(g, h)
    assert h.degree + lcm.degree == f.degree + g.degree


def test_text_rendering():
    assert form(1, 0, 5).to_text() == "s^2 + 5*t^2"
    assert BinForm.zero(P).to_text() == "0"


class TestParamTriple:
    def test_valid(self):
        tri = ParamTriple(form(1, 0, 0, 0, 0), form(0, 1, 0, 0, 0), form(0, 0, 0, 0, 1))
        assert tri.degree == 4

    def test_common_factor_rejected(self):
        with pytest.raises(ValueError):
            ParamTriple(form(1, 0, 0), form(0, 1, 0), form(1, 1, 0))  # all divisible by s

    def test_proportional_rejected(self):
        with pytest.raises(ValueError, match="share the factor"):
            ParamTriple(form(1, 1), form(2, 2), form(3, 3))

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            ParamTriple(form(1), form(2), form(3))
