import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvesplit import binform
from curvesplit.binform import _SKEW_CELLS, ParamTriple, _conv_mod, _to_json, _to_text, div_exact, gcd_many
from curvesplit.exactla import MODULUS

P = MODULUS


def form(*coeffs, p=P):
    """The reduced coefficient row of a form."""
    return np.array(coeffs, dtype=np.int64) % p


S = form(1, 0)  # s
T = form(0, 1)  # t


def zero(d):
    """The zero form of degree d: d + 1 zero coefficients."""
    return np.zeros(d + 1, dtype=np.int64)


def mul(f, g, p=P):
    """The product of two rows, as the one-row case of ``_conv_mod``."""
    return _conv_mod(f[None], g[None], p)[0]


def _value(f, s0, t0):
    """f(s0, t0) mod P by Horner's rule over Python ints:
    b_k = b_(k-1) s0 + c_k t0^k ends at the sum of c_k s0^(d-k) t0^k."""
    acc, tpow = 0, 1
    for c in f.tolist():
        acc = acc * s0 + c * tpow
        tpow *= t0
    return acc % P


def forms(max_degree=8, allow_zero=False):
    """Forms of degree <= max_degree; with allow_zero, also the zero of every such degree."""
    drawn = st.lists(
        st.integers(min_value=0, max_value=P - 1), min_size=1, max_size=max_degree + 1
    ).map(lambda cs: form(*cs))
    if not allow_zero:
        return drawn
    return st.one_of(st.integers(min_value=0, max_value=max_degree).map(zero), drawn)


def nonzero_forms(max_degree=8):
    return forms(max_degree).filter(lambda f: f.any())


def gcd(*fs):
    return gcd_many(fs, P)


def div(f, g):
    return div_exact(f, g, P)


class TestMul:
    def test_s_times_t(self):
        assert mul(S, T).tolist() == [0, 1, 0]

    def test_difference_of_squares(self):
        assert np.array_equal(mul(form(1, 1), form(1, -1)), form(1, 0, -1))

    @settings(max_examples=40, deadline=None)
    @given(f=nonzero_forms(5), g=nonzero_forms(5), data=st.data())
    def test_evaluation_oracle(self, f, g, data):
        # products must evaluate to the product of values at random points
        for _ in range(20):
            s0 = data.draw(st.integers(min_value=0, max_value=P - 1))
            t0 = data.draw(st.integers(min_value=1, max_value=P - 1))
            assert _value(mul(f, g), s0, t0) == _value(f, s0, t0) * _value(g, s0, t0) % P

    @pytest.mark.parametrize("p", (211, 2**31 - 1, 3037000493))
    def test_stacked_conv_mod_matches_python_ints(self, p):
        """``_conv_mod`` row by row against a Python-int convolution, for one
        and three rows, on lengths either side of its switch between methods:
        random rows, rows of p - 1 (the largest partial sums), and rows of
        unequal true lengths zero-padded on the right into one stack."""

        def ref(x, y):
            out = [0] * (len(x) + len(y) - 1)
            for i, a in enumerate(x):
                for j, b in enumerate(y):
                    out[i + j] += a * b
            return [v % p for v in out]

        rng = random.Random(p)
        kinds = set()
        for la, lb in ((1, 1), (1, 7), (5, 3), (10, 10), (16, 30), (23, 23), (40, 7), (62, 62), (9, 120)):
            for k in (1, 3):
                for fill in ("random", "p - 1", "padded"):
                    if fill == "p - 1":
                        a = np.full((k, la), p - 1, dtype=np.int64)
                        b = np.full((k, lb), p - 1, dtype=np.int64)
                    else:
                        a = np.array([[rng.randrange(p) for _ in range(la)] for _ in range(k)], dtype=np.int64)
                        b = np.array([[rng.randrange(p) for _ in range(lb)] for _ in range(k)], dtype=np.int64)
                    sizes = [(la, lb)] * k
                    if fill == "padded":
                        sizes = [(rng.randint(1, la), rng.randint(1, lb)) for _ in range(k)]
                        for row, (na, nb) in enumerate(sizes):
                            a[row, na:] = 0
                            b[row, nb:] = 0
                    got = _conv_mod(a, b, p)
                    assert got.shape == (k, la + lb - 1) and got.dtype == np.int64
                    for row, (na, nb) in enumerate(sizes):
                        want = ref(a[row, :na].tolist(), b[row, :nb].tolist())
                        assert got[row].tolist() == want + [0] * (la + lb - na - nb), (la, lb, k, fill, row)
                    kinds.add((k, fill, min(la, lb) * (la + lb - 1) <= _SKEW_CELLS))
        assert len(kinds) == 12

    @settings(max_examples=30, deadline=None)
    @given(f=forms(5, True), g=forms(5, True), h=forms(5, True))
    def test_associative(self, f, g, h):
        assert np.array_equal(mul(mul(f, g), h), mul(f, mul(g, h)))


class TestGcd:
    def test_monomials(self):
        assert gcd(form(1, 0, 0, 0, 0), form(0, 1, 0, 0, 0)).tolist() == [1, 0, 0, 0]  # gcd(s^4, s^3 t) = s^3

    def test_coprime_lines(self):
        assert gcd(form(1, 1), form(1, -1)).tolist() == [1]

    def test_t_powers(self):
        # both divisible by t: gcd(s t, t^2) = t
        assert gcd(form(0, 1, 0), form(0, 0, 1)).tolist() == [0, 1]

    def test_zero_one_side(self):
        for d in range(4):
            assert gcd(zero(d), form(3, 0)).tolist() == [1, 0]

    def test_both_zero_raises(self):
        with pytest.raises(ValueError, match="gcd of all-zero forms"):
            gcd(zero(1), zero(3))

    def test_rows_of_one_array(self):
        # a (k, d + 1) array is k forms: gcd(s^2 + s t, s t + t^2) = s + t
        assert gcd_many(np.array([[1, 1, 0], [0, 1, 1]]), P).tolist() == [1, 1]

    @settings(max_examples=30, deadline=None)
    @given(f=nonzero_forms(4), g=nonzero_forms(4), h=nonzero_forms(3))
    def test_multiplicativity_oracle(self, f, g, h):
        # gcd(f h, g h) = h * gcd(f, g) up to the monic normalization
        assert np.array_equal(gcd(mul(f, h), mul(g, h)), _ref_monic(mul(h, gcd(f, g)), P))


class TestDivExact:
    def test_monomial_quotient(self):
        assert div(form(1, 0, 0), form(1, 0)).tolist() == [1, 0]

    def test_rejects_nondivisor(self):
        with pytest.raises(ValueError):
            div(form(1, 0, 1), form(1, 1))

    @settings(max_examples=40, deadline=None)
    @given(f=nonzero_forms(6), g=nonzero_forms(6))
    def test_mul_roundtrip(self, f, g):
        assert np.array_equal(div(mul(f, g), g), f)


class TestGradedZero:
    """A zero of degree d is d + 1 zero coefficients and behaves as a form of degree d."""

    def test_empty_vector_refused(self):
        with pytest.raises(ValueError, match="d \\+ 1 coefficients"):
            binform.BinForm((), P)
        with pytest.raises(ValueError, match="d \\+ 1 coefficients"):
            binform.BinForm([], P)

    @settings(max_examples=30, deadline=None)
    @given(f=forms(6, True), e=st.integers(min_value=0, max_value=6))
    def test_product_with_zero_has_the_summed_degree(self, f, e):
        for prod in (mul(f, zero(e)), mul(zero(e), f)):
            assert not prod.any() and prod.size - 1 == f.size - 1 + e
            assert np.array_equal(prod, zero(f.size - 1 + e))

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(min_value=0, max_value=8), g=nonzero_forms(6))
    def test_div_exact_of_a_zero(self, d, g):
        if d < g.size - 1:
            with pytest.raises(ValueError, match=r"^non-exact division \(degree\)$"):
                div(zero(d), g)
        else:
            assert np.array_equal(div(zero(d), g), zero(d - (g.size - 1)))

    def test_zeros_of_different_degrees_differ(self):
        for d in range(9):
            assert _to_json(zero(d)) == [-1, []]
            assert zero(d).size - 1 == d and not zero(d).any()
            assert not np.array_equal(zero(d), zero(d + 1))


def test_degree_law_gcd_lcm():
    f = mul(form(1, 2, 1), form(1, 1))
    g = mul(form(1, 2, 1), form(1, 5))
    h = gcd(f, g)
    lcm = mul(f, div(g, h))
    assert h.size + lcm.size == f.size + g.size


def test_text_rendering():
    assert _to_text(form(1, 0, 5)) == "s^2 + 5*t^2"
    for d in range(4):
        assert _to_text(zero(d)) == "0"


def test_shim_product_and_moduli():
    f = binform.BinForm([1, 2, 3])
    prod = f * f
    assert prod.p == P and np.array_equal(prod.coeffs, mul(form(1, 2, 3), form(1, 2, 3)))
    with pytest.raises(ValueError, match="^mixed moduli 211 and 2147483647$"):
        binform.BinForm([1, 2, 3], 211) * binform.BinForm([1, 2, 3], 2**31 - 1)


class TestParamTriple:
    def test_valid(self):
        tri = ParamTriple([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 1)], P)
        assert tri.degree == 4
        assert tri.coeffs.dtype == np.int64 and not tri.coeffs.flags.writeable

    def test_common_factor_rejected(self):
        with pytest.raises(ValueError):
            ParamTriple([(1, 0, 0), (0, 1, 0), (1, 1, 0)], P)  # all divisible by s

    def test_proportional_rejected(self):
        with pytest.raises(ValueError, match="share the factor"):
            ParamTriple([(1, 1), (2, 2), (3, 3)], P)

    def test_zero_component_of_the_shared_degree(self):
        assert ParamTriple([(1, 0), (0, 1), (0, 0)], P).degree == 1
        for d in (0, 2):
            with pytest.raises(ValueError):
                ParamTriple([(1, 0), (0, 1), (0,) * (d + 1)], P)
        with pytest.raises(ValueError, match="three rows"):
            ParamTriple([(1, 0), (0, 1)], P)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            ParamTriple([(1,), (2,), (3,)], P)

    def test_coefficients_are_reduced_and_compared_with_p(self):
        tri = ParamTriple([(1, 0), (0, -1), (P, 1)], P)
        assert tri.coeffs.tolist() == [[1, 0], [0, P - 1], [0, 1]]
        assert tri == ParamTriple([(1, 0), (0, P - 1), (0, 1)], P)
        assert hash(tri) == hash(ParamTriple(tri.coeffs, P))
        assert tri != ParamTriple([(1, 0), (0, -1), (0, 1)], 211)

    def test_json_bytes(self):
        tri = ParamTriple([(1, 0), (0, 1), (0, 0)], P)
        assert json.dumps(tri.to_json()) == (
            '{"degree": 1, "p": 2147483647, "components": [[1, [1, 0]], [1, [0, 1]], [-1, []]]}'
        )

    @pytest.mark.parametrize(
        "rows, factor",
        [(((1, 0, 0), (0, 1, 0), (1, 1, 0)), "s"), (((1, 2), (2, 4), (3, 6)), "s + 2*t")],
        ids=["s", "s+2t"],
    )
    def test_shared_factor_message(self, rows, factor):
        with pytest.raises(ValueError, match=f"^{re.escape(f'components share the factor {factor}')}$"):
            ParamTriple(rows, P)


# The binform arithmetic before the in-place kernel, kept as a reference on
# coefficient rows: a univariate divmod that trims and copies at every step,
# a two-form Euclid, and gcd_many as a fold of two-form gcds.
def _ref_trim(u):
    nz = np.nonzero(u)[0]
    return u[:0] if nz.size == 0 else u[: int(nz[-1]) + 1]


def _ref_monic(f, p):
    """A nonzero row scaled so its first nonzero coefficient is 1."""
    lead = int(f[np.nonzero(f)[0][0]])
    return f * pow(lead, -1, p) % p


def _ref_univ_divmod(a, b, p):
    a, b = _ref_trim(a), _ref_trim(b)
    if a.size < b.size:
        return a[:0], a
    q = np.zeros(a.size - b.size + 1, dtype=np.int64)
    r = a.copy()
    inv = pow(int(b[-1]), -1, p)
    for k in range(a.size - b.size, -1, -1):
        c = int(r[k + b.size - 1]) * inv % p
        if c:
            q[k] = c
            r[k : k + b.size] = (r[k : k + b.size] - c * b) % p
    return q, _ref_trim(r)


def _ref_univ_gcd(a, b, p):
    a, b = _ref_trim(a), _ref_trim(b)
    while b.size:
        a, b = b, _ref_univ_divmod(a, b, p)[1]
    return a * pow(int(a[-1]), -1, p) % p


def _ref_dehom(f):
    return _ref_trim(f[::-1].copy())


def _ref_rehom(univ, t_power):
    return np.concatenate([np.zeros(t_power, dtype=np.int64), univ[::-1]])


def _ref_t_power(f):
    return int(np.nonzero(f)[0][0])


def ref_gcd(f, g, p):
    if not f.any() and not g.any():
        raise ValueError("gcd of two zero forms")
    if not f.any():
        return _ref_monic(g, p)
    if not g.any():
        return _ref_monic(f, p)
    t_common = min(_ref_t_power(f), _ref_t_power(g))
    return _ref_rehom(_ref_univ_gcd(_ref_dehom(f), _ref_dehom(g), p), t_common)


def ref_gcd_many(rows, p):
    acc = None
    for f in rows:
        if not f.any():
            continue
        acc = f if acc is None else ref_gcd(acc, f, p)
        if acc.size == 1:
            return _ref_monic(acc, p)
    if acc is None:
        raise ValueError("gcd of all-zero forms")
    return _ref_monic(acc, p)


def ref_div_exact(f, g, p):
    if not g.any():
        raise ValueError("division by the zero form")
    if not f.any():
        if f.size < g.size:
            raise ValueError("non-exact division (degree)")
        return np.zeros(f.size - g.size + 1, dtype=np.int64)
    tf, tg = _ref_t_power(f), _ref_t_power(g)
    if tf < tg:
        raise ValueError("non-exact division (t power)")
    q, r = _ref_univ_divmod(_ref_dehom(f), _ref_dehom(g), p)
    if r.size:
        raise ValueError("non-exact division (nonzero remainder)")
    quotient = _ref_rehom(_ref_trim(q), tf - tg)
    if not quotient.any() or quotient.size != f.size - g.size + 1:
        raise ValueError("non-exact division (degree drop)")
    return quotient


def outcome(fn, *args):
    try:
        res = fn(*args)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", res.tolist()


KERNEL_PRIMES = (7, 211, 2**31 - 1, 3037000493)


def _random_form(rng, p, deg, zero_odds=0.0):
    """A random form of degree deg times a random power of s and of t;
    zero (of that degree) with probability zero_odds, constant when deg and
    the powers are 0."""
    f = zero(deg)
    if rng.random() >= zero_odds:
        while not f.any():
            f = form(*(rng.randrange(p) for _ in range(deg + 1)), p=p)
    for var in (S, T):
        for _ in range(rng.choice((0, 0, 1, 2))):
            f = mul(f, var, p)
    return f


def _related_pair(rng, p):
    """Two forms that often share a factor, including a form with itself."""
    common = _random_form(rng, p, rng.randrange(4))
    f = mul(common, _random_form(rng, p, rng.randrange(6)), p)
    if rng.random() < 0.1:
        return f, f
    return f, mul(common, _random_form(rng, p, rng.randrange(6)), p)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_gcd_matches_the_reference(p):
    rng = random.Random(p)
    for _ in range(150):
        f, g = _related_pair(rng, p)
        if rng.random() < 0.15:
            z = zero(rng.randrange(9))
            f, g = rng.choice(((z, g), (f, z)))
        assert outcome(gcd_many, (f, g), p) == outcome(ref_gcd, f, g, p), (f, g)
        assert outcome(gcd_many, (g, f), p) == outcome(ref_gcd, g, f, p), (g, f)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_gcd_many_matches_the_reference(p):
    rng = random.Random(p + 1)
    for _ in range(100):
        common = _random_form(rng, p, rng.randrange(3))
        rows = [
            mul(common, _random_form(rng, p, rng.randrange(5)), p) if rng.random() < 0.8 else zero(rng.randrange(9))
            for _ in range(rng.randrange(1, 6))
        ]
        assert outcome(gcd_many, rows, p) == outcome(ref_gcd_many, rows, p), rows
    zeros = [zero(d) for d in (0, 3, 8)]
    assert outcome(gcd_many, zeros, p) == outcome(ref_gcd_many, zeros, p) == ("error", "gcd of all-zero forms")


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_div_exact_matches_the_reference(p):
    rng = random.Random(p + 2)
    texts = set()
    for _ in range(200):
        g = _random_form(rng, p, rng.randrange(5), zero_odds=0.05)
        kind = rng.randrange(3)
        if kind == 0:  # exact
            f = mul(_random_form(rng, p, rng.randrange(5), zero_odds=0.05), g, p)
        elif kind == 1:  # a random multiple, perturbed at one coefficient
            f = mul(_random_form(rng, p, rng.randrange(5)), g, p)
            if f.any():
                f[rng.randrange(f.size)] += 1 + rng.randrange(p - 1)
                f %= p
        else:  # unrelated forms
            f = _random_form(rng, p, rng.randrange(8), zero_odds=0.05)
        got = outcome(div_exact, f, g, p)
        assert got == outcome(ref_div_exact, f, g, p), (f, g)
        texts.add(got[1] if got[0] == "error" else "exact")
    assert {"exact", "non-exact division (t power)", "non-exact division (nonzero remainder)"} <= texts
