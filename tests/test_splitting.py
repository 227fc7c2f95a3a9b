import re

import numpy as np
import pytest

import curvesplit.splitting as splitting
from curvesplit.binform import ParamTriple
from curvesplit.conjscan import R7_FAMILIES
from curvesplit.exactla import MODULUS, MatFp
from curvesplit.lattice import NumType, ascenzi_classify, enum_exceptional
from curvesplit.param import SeededRng, parameterize, random_points
from curvesplit.splitting import (
    SplitType,
    Syzygy,
    is_syzygy,
    min_syzygy,
    moving_line_matrix,
    splitting_moving_lines,
    splitting_saturation,
    syzygy_matrix,
)

P = MODULUS


def cuspidal_quartic():
    # (s^4, s^3 t, t^4): splitting (1,3) witnessed by the syzygy (t, -s, 0)
    return ParamTriple([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 1)], P)


def smooth_conic():
    return ParamTriple([(1, 0, 0), (0, 1, 0), (0, 0, 1)], P)


class TestMovingLineMatrix:
    def test_conic_full_rank(self):
        m = moving_line_matrix(smooth_conic())
        assert (m.rows, m.cols) == (3, 3)
        assert m.rank() == 3

    def test_quartic_nullity_one(self):
        m = moving_line_matrix(cuspidal_quartic())
        assert (m.rows, m.cols) == (6, 6)
        assert m.cols - m.rank() == 1
        # the kernel vector is exactly the syzygy (t, -s, 0) in degree 1
        syz = min_syzygy(cuspidal_quartic())
        assert syz.degree == 1
        assert syz.alphas.tolist() == [[0, 1], [P - 1, 0], [0, 0]]

    def test_flagship_dimensions(self, points9):
        phi = parameterize(NumType(8, (3,) * 7), points9, seed=2)
        m = moving_line_matrix(phi)
        assert (m.rows, m.cols) == (12, 12)
        assert m.cols - m.rank() == 1

    def test_matches_direct_index_formula_even_degree(self, points9):
        # the direct entry rule m_{u,v} = phi_{i, 2n+w-u} (v = 3w+i, with
        # w the s-exponent) equals the semantic layout after reversing both
        # the row order and the within-column w index
        phi = parameterize(NumType(4, (2, 2, 2, 1, 1, 1, 1, 1)), points9, seed=2)
        d = phi.degree
        n = d // 2
        mine = moving_line_matrix(phi).entries
        coeff = phi.coeffs

        def phi_entry(i, idx):
            return int(coeff[i][idx]) if 0 <= idx <= d else 0

        for u in range(3 * n):
            for w_p in range(n):
                for i in range(3):
                    direct = phi_entry(i, 2 * n + w_p - u)
                    ours = mine[3 * n - 1 - u, 3 * (n - 1 - w_p) + i]
                    assert direct == int(ours)

    def test_degree_too_small(self):
        line = ParamTriple([(1, 0), (0, 1), (1, 1)], P)
        with pytest.raises(ValueError):
            moving_line_matrix(line)


class TestSplittingMethods:
    def test_conic_balanced(self):
        assert splitting_moving_lines(smooth_conic()) == SplitType(1, 1)
        assert splitting_saturation(smooth_conic()) == SplitType(1, 1)
        assert min_syzygy(smooth_conic()).degree == 1

    def test_quartic_explicit(self):
        phi = cuspidal_quartic()
        assert splitting_moving_lines(phi) == SplitType(1, 3)
        # saturation oracle: dim J_5 = 5 (s^2 t^3 missing), dim J_6 = 7
        assert syzygy_matrix(phi, 1).rank() == 5
        assert syzygy_matrix(phi, 2).rank() == 7
        assert splitting_saturation(phi) == SplitType(1, 3)

    def test_flagship(self, points9):
        phi = parameterize(NumType(8, (3,) * 7), points9, seed=4)
        assert splitting_moving_lines(phi) == SplitType(3, 5)
        assert splitting_saturation(phi) == SplitType(3, 5)

    def test_unbalanced_ascenzi(self, points9):
        phi = parameterize(NumType(4, (3, 1, 1, 1, 1, 1, 1, 1, 1)), points9, seed=4)
        assert splitting_moving_lines(phi) == SplitType(1, 3)

    def test_dimension_law(self, points9):
        # nullity in degree k is (k-a+1)_+ + (k-b+1)_+ for the graded module
        for d, m in [(4, (3, 1, 1, 1, 1, 1, 1, 1, 1)), (5, (2, 2, 2, 2, 2, 2, 1, 1)), (8, (3,) * 7)]:
            phi = parameterize(NumType(d, m), points9, seed=6)
            split = splitting_moving_lines(phi)
            a, b = split.a, split.b
            for k in range(d + 1):
                mat = syzygy_matrix(phi, k)
                nullity = mat.cols - mat.rank()
                assert nullity == max(0, k - a + 1) + max(0, k - b + 1)

    def test_method_agreement_random_sample(self, points9):
        rng = SeededRng(77)
        types = sorted(enum_exceptional(9, 14), key=lambda t: t.sort_key())
        types = [t for t in types if t.d >= 2]
        for T in types:
            phi = parameterize(T, points9, seed=rng.below(2**32))
            ml = splitting_moving_lines(phi)
            sat = splitting_saturation(phi)
            syz = min_syzygy(phi)
            assert ml == sat
            assert syz.degree == ml.a
            assert is_syzygy(phi, syz)
            # the Ascenzi prediction pins the splitting where it applies
            pred = ascenzi_classify(T)
            if pred is not None:
                assert (ml.a, ml.b) == pred
            # multiplicity bounds: min(m, d-m) <= a <= min(d-m, floor(d/2))
            for mult in T.m:
                if mult <= 0:
                    continue
                assert min(mult, T.d - mult) <= ml.a <= min(T.d - mult, T.d // 2)


def reference_saturation(phi):
    """The per-degree loop that splitting_saturation replaced: rank
    syzygy_matrix(phi, sigma - d) for sigma = d, d+1, ... until it saturates."""
    d = phi.degree
    for sigma in range(d, 2 * d - 1):
        if syzygy_matrix(phi, sigma - d).rank() == sigma + 1:
            b = sigma - d + 1
            return SplitType(d - b, b)
    raise ValueError("saturation cap 2d-2 exceeded")


def reference_min_syzygy(phi):
    """The per-degree loop that min_syzygy replaced: the first kernel vector
    of syzygy_matrix(phi, k) for the least k >= 1 with a kernel."""
    for k in range(1, phi.degree // 2 + 1):
        kernel = syzygy_matrix(phi, k).kernel_basis()
        if len(kernel):
            vec = kernel[0]
            alphas = [[vec[3 * w + i] for w in range(k + 1)] for i in range(3)]
            return Syzygy(alphas)
    raise AssertionError("no syzygy found up to degree d/2")


def outcome(route, phi):
    try:
        return route(phi)
    except (ValueError, AssertionError) as exc:
        return type(exc)


# (p, every n-th exceptional type of degree >= 2 at dmax=61, point seed)
SAMPLES = [(P, 37, 1), (211, 61, 1), (1009, 59, 2)]
# members of each r <= 7 family up to this parameter: degrees up to 25
R7_MAX_PARAM = 3


class TestOneEliminationPerRoute:
    @pytest.mark.parametrize("p,every,seed", SAMPLES)
    def test_routes_match_the_per_degree_loops(self, p, every, seed):
        types = [T for T in sorted(enum_exceptional(9, 61), key=lambda t: t.sort_key()) if T.d >= 2]
        sample = types[::every]
        assert len(sample) >= 17
        pts = random_points(9, seed, p)
        for T in sample:
            phi = parameterize(T, pts, seed)
            assert outcome(splitting_saturation, phi) == outcome(reference_saturation, phi), T
            syz, ref = min_syzygy(phi), reference_min_syzygy(phi)
            assert syz.to_json() == ref.to_json(), T

    @pytest.mark.parametrize("p,seed", [(P, 1), (211, 1), (1009, 2)])
    def test_saturation_past_half_the_degree(self, p, seed):
        # gap >= 3 puts sigma past the prefix K = d // 2, which no dmax=61
        # type does; the r <= 7 families and the golden (16; 6^7) reach it
        types = {
            fam.member(t)
            for fam in R7_FAMILIES
            for t in (range(R7_MAX_PARAM + 1) if fam.step is not None else (0,))
        }
        assert NumType(16, (6,) * 7) in types
        wide = 0
        for T in sorted((T for T in types if T.d >= 2), key=lambda t: t.sort_key()):
            phi = parameterize(T, random_points(max(T.r, 3), seed, p), seed)
            ref = outcome(reference_saturation, phi)
            assert outcome(splitting_saturation, phi) == ref, T
            wide += ref.gap >= 3
        assert wide >= 40

    @pytest.mark.parametrize(
        "T, degrees",
        [
            (NumType(2, (1,) * 5), [0]),
            (NumType(3, (2, 1, 1, 1, 1, 1, 1)), [1]),
            (NumType(8, (3,) * 7), [4]),
            (NumType(16, (6,) * 7), [8, 14]),
        ],
        ids=str,
    )
    def test_saturation_elimination_degrees(self, monkeypatch, T, degrees):
        real = splitting.syzygy_matrix
        calls = []

        def counting(phi, k):
            calls.append(k)
            return real(phi, k)

        monkeypatch.setattr(splitting, "syzygy_matrix", counting)
        for p in (P, 211, 1009):
            phi = parameterize(T, random_points(max(T.r, 3), 1, p), 1)
            calls.clear()
            splitting_saturation(phi)
            assert calls == degrees, p

    def test_degenerate_coprime_triple(self):
        # s^2, t^2, s^2 + t^2: a syzygy of degree 0, reported in degree 1 as
        # (-s, -s, s); the ideal never saturates
        phi = ParamTriple([(1, 0, 0), (0, 0, 1), (1, 0, 1)], P)
        minus_s, s = [P - 1, 0], [1, 0]
        for route in (min_syzygy, reference_min_syzygy):
            syz = route(phi)
            assert (syz.degree, syz.alphas.tolist()) == (1, [minus_s, minus_s, s])
        for route in (splitting_saturation, reference_saturation):
            with pytest.raises(ValueError):
                route(phi)

    def test_saturation_checks_the_whole_module(self, points9, monkeypatch):
        # with column 0 zeroed the ideal still saturates, but dim Syz_0 is 1
        phi = parameterize(NumType(8, (3,) * 7), points9, seed=4)
        real = splitting.syzygy_matrix

        def column_zeroed(phi, k):
            entries = real(phi, k).entries.copy()
            entries[:, 0] = 0
            return MatFp(entries, phi.p)

        monkeypatch.setattr(splitting, "syzygy_matrix", column_zeroed)
        with pytest.raises(AssertionError, match="syzygy dimensions"):
            splitting_saturation(phi)


# (type, the distinct K that saturation and the minimal syzygy eliminate)
SHARED_CASES = [
    (NumType(8, (3,) * 7), {4}),
    (NumType(16, (6,) * 7), {8, 14}),
    (NumType(2, (1,) * 5), {0, 1}),
]


class TestSharedElimination:
    """Saturation and the minimal syzygy read one elimination per triple and K."""

    @staticmethod
    def counted_rrefs(monkeypatch):
        real = MatFp.rref
        widths = []

        def counting(self):
            widths.append(self.cols)
            return real(self)

        monkeypatch.setattr(MatFp, "rref", counting)
        return widths

    @staticmethod
    def fresh(phi):
        return ParamTriple(phi.coeffs, phi.p)

    @pytest.mark.parametrize("p", [P, 211, 1009])
    @pytest.mark.parametrize("T, degrees", SHARED_CASES, ids=str)
    @pytest.mark.parametrize("first", ["saturation", "min_syzygy"])
    def test_one_rref_per_distinct_degree_in_either_order(self, monkeypatch, T, degrees, p, first):
        phi = parameterize(T, random_points(max(T.r, 3), 1, p), 1)
        want_sat, want_syz = splitting_saturation(self.fresh(phi)), min_syzygy(self.fresh(phi))
        widths = self.counted_rrefs(monkeypatch)
        if first == "saturation":
            sat, syz = splitting_saturation(phi), min_syzygy(phi)
        else:
            syz, sat = min_syzygy(phi), splitting_saturation(phi)
        assert sorted(widths) == sorted(3 * (K + 1) for K in degrees)
        assert sat == want_sat
        assert syz.to_json() == want_syz.to_json()

    @pytest.mark.parametrize("p", [P, 211, 1009])
    @pytest.mark.parametrize("T, degrees", SHARED_CASES, ids=str)
    def test_memo_is_read_only_and_scoped_to_the_instance(self, monkeypatch, T, degrees, p):
        phi = self.fresh(parameterize(T, random_points(max(T.r, 3), 1, p), 1))
        splitting_saturation(phi)
        min_syzygy(phi)
        for K in degrees:
            red = splitting._syzygy_rref(phi, K)[0]
            with pytest.raises(ValueError):
                red[0, 0] = 1
        again = self.fresh(phi)
        assert again == phi
        widths = self.counted_rrefs(monkeypatch)
        splitting_saturation(phi)
        min_syzygy(phi)
        assert widths == []
        splitting_saturation(again)
        min_syzygy(again)
        assert sorted(widths) == sorted(3 * (K + 1) for K in degrees)


_LINE = ParamTriple(np.array([[1, 0], [0, 1], [1, 1]]), MODULUS)
_REFUSALS = [
    (lambda: SplitType(2, 1), "splitting (2, 1) violates 0 <= a <= b"),
    (lambda: Syzygy(np.zeros((3, 2), dtype=np.int64)), "the zero syzygy is not a syzygy"),
    (lambda: Syzygy(np.ones((2, 3), dtype=np.int64)), "a syzygy is three rows of k + 1 coefficients"),
    (lambda: syzygy_matrix(_LINE, -1), "syzygy degree must be non-negative"),
    (lambda: splitting_saturation(_LINE), "saturation analysis needs degree >= 2"),
    (lambda: min_syzygy(_LINE), "syzygy search needs degree >= 2"),
]


@pytest.mark.parametrize("call, message", _REFUSALS, ids=[message for _, message in _REFUSALS])
def test_input_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is ValueError
