import collections
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvesplit.lattice import (
    DivClass,
    NumType,
    Quad,
    Swap,
    ascenzi_classify,
    ascenzi_degree_bound,
    ascenzi_gap,
    canonical_class,
    derive_unbalanced_exceptional,
    enum_exceptional,
    intersect,
    is_ascenzi,
    is_exceptional_class,
    line_class,
    num_permutations,
    orbit_closure,
    point_class,
    reduce_to_base,
    reflect,
    semi_adjoint,
    smooth_rational_numerics_ok,
)

E8337 = DivClass(4, (3, 1, 1, 1, 1, 1, 1, 1, 1))


class TestIntersect:
    def test_two_lines_through_common_point(self):
        l1 = DivClass(1, (1, 1, 0, 0))
        l2 = DivClass(1, (1, 0, 0, 0))
        assert intersect(l1, l2) == 0

    def test_exceptional_self_intersection(self):
        assert intersect(E8337, E8337) == -1

    def test_canonical_product(self):
        # hand evaluation: (-3)*4 - (-1)*(3 + 8*1) = -12 + 11
        assert intersect(canonical_class(9), E8337) == -1

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            intersect(DivClass(1, (1, 1)), DivClass(1, (1, 1, 0)))


class TestReflect:
    def test_quad_on_unbalanced_type(self):
        # hand evaluation of D + (v.D) v with v.D = -1
        out = reflect(E8337, [Quad(1, 2, 3)])
        assert out == DivClass(3, (2, 0, 0, 1, 1, 1, 1, 1, 1))

    def test_swap(self):
        out = reflect(E8337, [Swap(1, 2)])
        assert out.m[:3] == (1, 3, 1)

    def test_quad_involution(self):
        w = [Quad(1, 2, 3), Quad(1, 2, 3)]
        assert reflect(E8337, w) == E8337

    def test_fixes_canonical_class(self):
        K = canonical_class(9)
        for word in ([Quad(1, 2, 3)], [Swap(2, 5)], [Quad(2, 5, 9), Swap(1, 9)]):
            assert reflect(K, word) == K

    @settings(max_examples=200, deadline=None)
    @given(
        d1=st.integers(min_value=-9, max_value=9),
        d2=st.integers(min_value=-9, max_value=9),
        m1=st.lists(st.integers(min_value=-4, max_value=4), min_size=9, max_size=9),
        m2=st.lists(st.integers(min_value=-4, max_value=4), min_size=9, max_size=9),
        data=st.data(),
    )
    def test_preserves_intersection_form(self, d1, d2, m1, m2, data):
        D1, D2 = DivClass(d1, tuple(m1)), DivClass(d2, tuple(m2))
        word = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            if data.draw(st.booleans()):
                i, j, k = sorted(data.draw(st.permutations(range(1, 10)))[:3])
                word.append(Quad(i, j, k))
            else:
                i, j = data.draw(st.permutations(range(1, 10)))[:2]
                word.append(Swap(i, j))
        assert intersect(reflect(D1, word), reflect(D2, word)) == intersect(D1, D2)


class TestPredicates:
    def test_er_is_exceptional(self):
        assert is_exceptional_class(point_class(9, 9))

    def test_depth_two_exceptional(self):
        assert is_exceptional_class(DivClass(8, (3, 3, 3, 3, 3, 3, 3, 1, 1)))

    def test_nonexceptional_variant(self):
        # self-intersection 1, not -1
        assert not is_exceptional_class(DivClass(8, (3, 3, 3, 3, 3, 3, 3, 0, 0)))

    def test_smooth_numerics(self):
        assert smooth_rational_numerics_ok(DivClass(10, (4, 4, 4, 4, 4, 4)))
        assert smooth_rational_numerics_ok(line_class(5))
        # hand evaluation: D^2 = 7 but -2 - K.D = 5
        assert not smooth_rational_numerics_ok(DivClass(3, (1, 1, 0, 0)))


class TestEnumeration:
    def test_r9_count_61(self):
        assert len(enum_exceptional(9, 61)) == 1054

    def test_r7_orbit_of_e7(self):
        types = enum_exceptional(7, None)
        assert len(types) == 4
        assert sum(num_permutations(t) for t in types) == 56

    def test_r8_degree_6_representatives(self):
        got = {t.to_json()[0:] and tuple(t.to_json()) for t in enum_exceptional(8, 6)}
        want = {
            (0, 0, 0, 0, 0, 0, 0, 0, -1),
            (1, 1, 1, 0, 0, 0, 0, 0, 0),
            (2, 1, 1, 1, 1, 1, 0, 0, 0),
            (3, 2, 1, 1, 1, 1, 1, 1, 0),
            (4, 2, 2, 2, 1, 1, 1, 1, 1),
            (5, 2, 2, 2, 2, 2, 2, 1, 1),
            (6, 3, 2, 2, 2, 2, 2, 2, 2),
        }
        assert got == want

    def test_enumerated_types_pass_invariants(self):
        K = canonical_class(9)
        for T in enum_exceptional(9, 20):
            D = T.to_divclass()
            assert intersect(D, D) == -1
            assert intersect(K, D) == -1
            assert smooth_rational_numerics_ok(D)

    def test_r9_needs_cap(self):
        with pytest.raises(ValueError):
            enum_exceptional(9, None)


class TestAscenzi:
    def test_unbalanced_exceptional(self):
        assert ascenzi_classify(NumType(4, (3, 1, 1, 1, 1, 1, 1, 1, 1))) == (1, 3)

    def test_balanced_listed_type(self):
        assert ascenzi_classify(NumType(5, (2, 2, 2, 2, 2, 2, 1, 1))) == (2, 3)

    def test_non_ascenzi(self):
        assert ascenzi_classify(NumType(8, (3, 3, 3, 3, 3, 3, 3))) is None
        assert not is_ascenzi(NumType(8, (3, 3, 3, 3, 3, 3, 3)))

    def test_smooth_conic_is_ascenzi(self):
        # no marked point on the curve; its smooth points still have m = 1
        assert ascenzi_classify(NumType(2, (0, 0, 0))) == (1, 1)

    @pytest.mark.parametrize("d, m", [(1, (2,)), (2, (3,)), (3, (4, 1)), (5, (6, 2, 2))])
    def test_no_prediction_for_a_point_above_the_degree(self, d, m):
        # no curve of degree d has a point of multiplicity above d, so no
        # (d - m, m) with d - m < 0
        assert not is_ascenzi(NumType(d, m))
        assert ascenzi_classify(NumType(d, m)) is None

    def test_is_ascenzi_is_having_a_prediction(self):
        for d, m1, m2 in itertools.product(range(1, 10), range(12), range(3)):
            T = NumType(d, (m1, min(m1, m2)))
            assert is_ascenzi(T) == (ascenzi_classify(T) is not None), T


class TestSemiAdjoint:
    def test_flagship(self):
        A = semi_adjoint(DivClass(8, (3, 3, 3, 3, 3, 3, 3, 1, 1)))
        assert A == DivClass(3, (1, 1, 1, 1, 1, 1, 1, 0, 0))

    def test_ascenzi_case(self):
        assert semi_adjoint(E8337) == DivClass(1, (1, 0, 0, 0, 0, 0, 0, 0, 0))

    def test_parity_obstruction(self):
        # even degree but an even multiplicity: no class can double to E+K+L
        D = DivClass(12, (6, 4, 4, 4, 4, 4, 4, 3, 2))
        assert is_exceptional_class(D)
        assert semi_adjoint(D) is None

    def test_requires_exceptional(self):
        with pytest.raises(ValueError):
            semi_adjoint(DivClass(12, (5, 5, 5, 4, 3, 3, 3, 3, 3)))

    def test_doubling_identity(self):
        for T in enum_exceptional(9, 15):
            D = T.to_divclass()
            A = semi_adjoint(D)
            if A is None:
                continue
            assert 2 * A == D + canonical_class(9) + line_class(9)
            assert intersect(-1 * canonical_class(9), A) == 2


class TestDerivedUnbalanced:
    def test_worked_example(self):
        E = DivClass(5, (2, 2, 2, 2, 2, 2, 1, 1, 0))
        A, C = derive_unbalanced_exceptional(E)
        assert A == DivClass(11, (3, 4, 4, 4, 4, 4, 3, 3, 2))
        assert C == DivClass(24, (7, 9, 9, 9, 9, 9, 7, 7, 5))
        # verified by hand: C*C = K*C = -1
        assert is_exceptional_class(C)
        assert semi_adjoint(C) == A

    def test_parity_of_output(self):
        for T in enum_exceptional(9, 8):
            if T.m[-1] < 0 or T.d < 2 * T.m[0] - 1:
                continue
            _, C = derive_unbalanced_exceptional(T.to_divclass())
            assert C.d % 2 == 0
            assert all(m % 2 == 1 for m in C.m)

    def test_line_through_two_points(self):
        E = DivClass(1, (1, 1, 0, 0, 0, 0, 0, 0, 0))
        A, C = derive_unbalanced_exceptional(E)
        assert A == E + point_class(1, 9)
        assert is_exceptional_class(C)
        assert semi_adjoint(C) == A


class TestDegreeBound:
    def test_gap_offset_one(self):
        assert ascenzi_degree_bound(1) == 26

    def test_lower_edge(self):
        assert ascenzi_degree_bound(-2) == 4

    def test_j_zero(self):
        assert ascenzi_degree_bound(0) == 21

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ascenzi_degree_bound(-3)


def _reference_orbit_closure(D, dmax=None):
    # the slot-triple search that orbit_closure replaced: one NumType per
    # slot triple of every type, de-duplicated after it is built
    def quad_images(T):
        d = T.d
        m = T.m
        for i, j, k in itertools.combinations(range(T.r), 3):
            c = d - m[i] - m[j] - m[k]
            if c == 0:
                continue
            mm = list(m)
            mm[i] += c
            mm[j] += c
            mm[k] += c
            yield NumType(d + c, tuple(mm))

    seed = NumType.of(D)
    seen = {seed}
    frontier = [seed]
    while frontier:
        new = []
        for T in frontier:
            for img in quad_images(T):
                if dmax is not None and img.d > dmax:
                    continue
                if img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
    return seen


class TestOrbitClosure:
    @pytest.mark.parametrize(
        "D, dmax",
        [(point_class(r, r), None) for r in range(3, 9)]
        + [
            (point_class(9, 9), 30),
            (point_class(9, 9), 61),
            (point_class(9, 9), 100),
            (DivClass(2, (0,) * 7), None),
            (DivClass(3, (1,) * 6), None),
            (DivClass(4, (2, 1, 1, 1, 1, 1, 1, 0)), None),
            (line_class(9), 2),
            (DivClass(5, (2, 2, 1, 1, 1, 1, 0, 0, 0)), 30),
            # seeds with a negative entry, on which a search that keeps one
            # image per pair of values, any two of the three, loses types
            (DivClass(5, (2, 2, 1, 1, 1, 1, 0, 0, -1)), 12),
            (DivClass(6, (3, 3, 3, -2)), None),
        ],
        ids=str,
    )
    def test_matches_the_slot_triple_search(self, D, dmax):
        assert orbit_closure(D, dmax) == _reference_orbit_closure(D, dmax)

    def test_e7_orbit(self):
        types = orbit_closure(point_class(7, 7))
        assert {tuple(t.to_json()) for t in types} == {
            (0, 0, 0, 0, 0, 0, 0, -1),
            (1, 1, 1, 0, 0, 0, 0, 0),
            (2, 1, 1, 1, 1, 1, 0, 0),
            (3, 2, 1, 1, 1, 1, 1, 1),
        }

    def test_2h0_orbit(self):
        types = orbit_closure(DivClass(2, (0,) * 7))
        got = {tuple(t.to_json()) for t in types}
        assert len(got) == 10
        assert (16, 6, 6, 6, 6, 6, 6, 6) in got
        assert (10, 4, 4, 4, 4, 4, 4, 0) in got

    def test_line_closure_small_cap(self):
        # brute-force closure: L and its quad images up to degree 2
        types = orbit_closure(line_class(9), dmax=2)
        got = {tuple(t.to_json()) for t in types}
        assert (1, 0, 0, 0, 0, 0, 0, 0, 0, 0) in got
        assert (2, 1, 1, 1, 0, 0, 0, 0, 0, 0) in got
        assert all(t[0] <= 2 for t in got)

    @pytest.mark.parametrize(
        "D, count",
        [(DivClass(-1, (0,) * 9), 8), (DivClass(0, (1, 1, 1) + (0,) * 6), 15)],
        ids=str,
    )
    def test_orbits_unbounded_below_end_at_the_cap(self, D, count):
        # these orbits reach every negative degree: the cap bounds |d|
        types = orbit_closure(D, 5)
        assert len(types) == count
        assert {t.d for t in types} == set(range(-5, D.d + 1))


class TestReduceToBase:
    def test_three_nodes_quartic(self):
        D = DivClass(4, (2, 2, 2, 1, 1, 1, 1, 1))
        word, base = reduce_to_base(D)
        assert base.d == 1
        assert sorted(base.m, reverse=True)[:2] == [1, 1]
        # replaying the word reproduces the base
        assert reflect(D, word) == base

    def test_flagship_reduces_to_low_degree(self):
        word, base = reduce_to_base(DivClass(8, (3,) * 7))
        assert base.d <= 2
        assert all(m <= 1 for m in base.m)

    def test_line_already_base(self):
        D = DivClass(1, (1, 1, 0, 0, 0))
        word, base = reduce_to_base(D)
        assert word == ()
        assert base == D

    @staticmethod
    def _base(T: NumType, r: int) -> DivClass:
        """The base class of T padded with zeros to r points, as
        ``parameterize`` pads it to its point set."""
        return reduce_to_base(DivClass(T.d, T.m + (0,) * (r - T.r)))[1]

    def test_every_r9_exceptional_type_ends_at_a_line(self):
        # the loop stops at d >= 2 only when the three largest multiplicities
        # sum to at most d; every exceptional type runs on to d = 1
        types = [T for T in enum_exceptional(9, 61) if T.d >= 1]
        assert len(types) == 1053
        for T in types:
            base = self._base(T, 9)
            assert base.d == 1 and sorted(base.m) == [0] * 7 + [1, 1], T

    def test_base_cases_get_what_they_accept(self):
        # the r <= 7 classification at d in {0, 1, 2}, padded to r >= 3: a
        # pencil base has one (d-1)-fold point and at most one simple point,
        # a conic at most two 1s, a line at most two 1s
        from curvesplit.conjscan import R7_FAMILIES

        kinds = collections.Counter()
        for fam in R7_FAMILIES:
            for d in range(3) if fam.step is not None else (0,):
                T = fam.member(d)
                if T.d < 1:
                    continue
                base = self._base(T, max(T.r, 3))
                m = sorted(base.m)
                assert base.d < 2 or sum(m[-3:]) <= base.d, T
                if base.d <= 2:
                    assert set(m) <= {0, 1} and m.count(1) <= 2, T
                else:
                    assert set(m) <= {0, 1, base.d - 1} and m.count(base.d - 1) == 1 and m.count(1) <= 1, T
                kinds[min(base.d, 3)] += 1
        assert kinds == {3: 57, 2: 48, 1: 27}

    @staticmethod
    def _bruteforce_reduction(D):
        # independent oracle: replay the greedy rule step by step over every triple
        cur = D
        expected_word = []
        while cur.d >= 2:
            sums = sorted((sum(cur.m[i] for i in t), tuple(t)) for t in itertools.combinations(range(cur.r), 3))
            top = max(s for s, _ in sums)
            if top <= cur.d:
                break
            triple = min(t for s, t in sums if s == top)
            q = Quad(triple[0] + 1, triple[1] + 1, triple[2] + 1)
            expected_word.append(q)
            cur = reflect(cur, [q])
        return expected_word, cur

    @staticmethod
    def _greedy_cases():
        # every exceptional type with r = 3..8 up to degree 30 and r = 9 up to
        # degree 61, each with three shuffles that move tied multiplicities, plus
        # random genus-0 classes with multiplicities >= -1
        rng = random.Random(0)
        cases = [DivClass(4, (2, 2, 2, 1, 1, 1, 1, 1))]
        for r, dmax in [(r, 30) for r in range(3, 9)] + [(9, 61)]:
            for T in sorted(enum_exceptional(r, dmax), key=lambda t: t.sort_key()):
                if T.d < 1:
                    continue
                cases.append(T.to_divclass())
                for _ in range(3):
                    m = list(T.m)
                    rng.shuffle(m)
                    cases.append(DivClass(T.d, tuple(m)))
        n_random = 0
        while n_random < 300:
            r, d = rng.randint(3, 9), rng.randint(1, 8)
            D = DivClass(d, tuple(rng.randint(-1, d) for _ in range(r)))
            if smooth_rational_numerics_ok(D):
                cases.append(D)
                n_random += 1
        return cases

    def test_greedy_matches_bruteforce_trace(self):
        cases = self._greedy_cases()
        assert len(cases) > 4500
        for D in cases:
            expected_word, expected_base = self._bruteforce_reduction(D)
            word, base = reduce_to_base(D)
            assert (list(word), base) == (expected_word, expected_base), D

    def test_degree_strictly_decreases(self):
        D = DivClass(16, (6,) * 7)
        word, base = reduce_to_base(D)
        degs = [D.d]
        cur = D
        for q in word:
            cur = reflect(cur, [q])
            degs.append(cur.d)
        assert all(a > b for a, b in zip(degs, degs[1:]))
        assert len(word) <= D.d


class TestJson:
    def test_numtype_roundtrip(self):
        T = NumType(4, (1, 3, 1, 1))
        assert T.m == (3, 1, 1, 1)
        assert NumType.from_json(T.to_json()) == T


_REFUSALS = [
    (lambda: DivClass(1, ()), "need at least one blown-up point"),
    (lambda: Swap(1, 1), "invalid swap indices (1, 1)"),
    (lambda: Quad(2, 1, 3), "quad indices must satisfy i < j < k, got (2, 1, 3)"),
    (lambda: point_class(0, 3), "index 0 out of range 1..3"),
    (lambda: reflect(DivClass(1, (0, 0)), [Swap(1, 3)]), "swap index 3 out of range for r=2"),
    (lambda: reflect(DivClass(1, (0, 0)), [Quad(1, 2, 3)]), "quad index 3 out of range for r=2"),
    (lambda: enum_exceptional(2, 5), "r=2 outside the supported range 3..9"),
    (lambda: enum_exceptional(9, -1), "dmax must be non-negative"),
    (lambda: ascenzi_classify(NumType(0, (1,))), "classification needs degree >= 1"),
    (lambda: ascenzi_gap(NumType(8, (3,) * 7)), "NumType(d=8, m=(3, 3, 3, 3, 3, 3, 3)) is not Ascenzi"),
    (lambda: derive_unbalanced_exceptional(DivClass(3, (1, 1))), "DivClass(d=3, m=(1, 1)) is not an exceptional class"),
    (
        lambda: derive_unbalanced_exceptional(DivClass(1, (0, 1, 1))),
        "multiplicities must be sorted non-increasing and non-negative",
    ),
    (lambda: orbit_closure(DivClass(1, (0,) * 9)), "orbit can be infinite for r >= 9; pass a degree cap"),
    (lambda: reduce_to_base(DivClass(0, (0, 0, 0))), "reduction needs degree >= 1"),
    (lambda: reduce_to_base(DivClass(3, (1, 1))), "DivClass(d=3, m=(1, 1)) fails the rational smoothness numerics"),
]


@pytest.mark.parametrize("call, message", _REFUSALS, ids=[message for _, message in _REFUSALS])
def test_input_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is ValueError
