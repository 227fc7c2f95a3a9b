import random
import re

import numpy as np
import pytest

from curvesplit.exactla import MODULUS, MatFp
from curvesplit.fatpoints import (
    FatScheme,
    MuReport,
    _mu_matrix,
    _prefix_basis,
    alpha_degree,
    betti_report,
    check_nongeneric_resolution,
    class_cohomology,
    conditions_matrix,
    h0_class,
    ideal_basis,
    ideal_dim,
    mu_rank,
)
from curvesplit.lattice import DivClass
from curvesplit.param import PointSet, random_points
from curvesplit.plane import dim_forms, eval_row, monomials

P = MODULUS


@pytest.fixture
def condition_degrees(monkeypatch):
    """The degree of every condition matrix built while the test runs."""
    import curvesplit.fatpoints as fp

    degrees = []
    real = fp.conditions_matrix

    def counting(Z, k):
        degrees.append(k)
        return real(Z, k)

    monkeypatch.setattr(fp, "conditions_matrix", counting)
    return degrees


def derivative_conditions(Z: FatScheme, k: int) -> np.ndarray:
    """Reference conditions: every order-min(m - 1, k) homogeneous partial
    derivative of each point, evaluated there, on the degree-k monomials."""
    p = Z.p
    monos = np.array(monomials(k), dtype=np.int64)
    orders = [min(m - 1, k) for m in Z.mults]
    max_o = max([0, *orders])
    # falling factorials ff[e][b] = e (e-1) ... (e-b+1) mod p
    ff = np.zeros((k + 1, max_o + 1), dtype=np.int64)
    ff[:, 0] = 1
    for b in range(1, max_o + 1):
        for e in range(k + 1):
            ff[e, b] = ff[e, b - 1] * ((e - b + 1) % p) % p
    rows = []
    for x, o in zip(Z.points.coords.tolist(), orders):
        if o < 0:
            continue
        # factor[j][b][e] = ff(e, b) * x_j^(e-b), zero when e < b
        factor = []
        for j in range(3):
            pows = [pow(x[j], e, p) for e in range(k + 1)]
            per_b = []
            for b in range(o + 1):
                col = np.zeros(k + 1, dtype=np.int64)
                col[b:] = ff[b:, b] * np.array(pows[: k + 1 - b], dtype=np.int64) % p
                per_b.append(col)
            factor.append(per_b)
        for b0 in range(o + 1):
            for b1 in range(o + 1 - b0):
                row = factor[0][b0][monos[:, 0]] * factor[1][b1][monos[:, 1]] % p
                rows.append(row * factor[2][o - b0 - b1][monos[:, 2]] % p)
    return np.array(rows, dtype=np.int64).reshape(-1, len(monos))


def random_scheme(rng: random.Random, p: int, k: int) -> FatScheme:
    """One to five distinct points, drawn from three with a zero first
    coordinate and four with first coordinate 1; multiplicities 0..k+3."""
    coords = {(0, 1, rng.randrange(p)), (0, 0, 1), (0, 1, 5)}
    while len(coords) < 7:
        coords.add((1, rng.randrange(p), rng.randrange(p)))
    pts = rng.sample(sorted(coords), rng.randint(1, 5))
    mults = tuple(rng.randint(0, k + 3) for _ in pts)
    return FatScheme(PointSet(pts, 0, p), mults)


def assert_matches_reference(Z: FatScheme, k: int) -> None:
    # same row count and row space, so the same RREF and pivots
    got = conditions_matrix(Z, k)
    ref = MatFp(derivative_conditions(Z, k), Z.p)
    assert got.entries.shape == ref.entries.shape
    (red, pivots), (ref_red, ref_pivots) = got.rref(), ref.rref()
    assert pivots == ref_pivots and np.array_equal(red, ref_red), (Z, k)


@pytest.mark.parametrize("p", [211, 1009, P])
def test_taylor_conditions_match_the_derivative_reference(p):
    rng = random.Random(p)
    for k in range(13):
        for _ in range(6):
            assert_matches_reference(random_scheme(rng, p, k), k)


@pytest.mark.parametrize("p", [211, 1009, P])
@pytest.mark.parametrize(
    "coords, mults, k",
    [
        (((0, 1, 5), (0, 0, 1)), (0, 0), 3),  # m = 0 everywhere: no rows
        (((0, 1, 5), (0, 0, 1)), (3, 2), 4),  # charts c = 1 and c = 2
        (((0, 0, 1), (1, 0, 0)), (6, 2), 4),  # m = k + 2
        (((0, 1, 5), (1, 2, 3)), (9, 1), 4),  # m > k + 2
        (((0, 1, 0), (1, 0, 7)), (1, 3), 5),  # a zero coordinate in a chart
    ],
)
def test_taylor_conditions_edge_schemes(p, coords, mults, k):
    assert_matches_reference(FatScheme(PointSet(coords, 0, p), mults), k)


def test_mu_matrix_and_syzygies_on_an_empty_basis(points9):
    # a 4-fold point leaves no cubic: mu_3 has no columns and no syzygies
    Z = FatScheme(points9, (4,) + (0,) * 8)
    basis = np.array(ideal_basis(Z, 3), dtype=np.int64).reshape(-1, dim_forms(3))
    assert len(basis) == 0
    mat = _mu_matrix(basis, 3, Z.p)
    assert (mat.rows, mat.cols) == (dim_forms(4), 0)
    assert mat.rank() == 0
    assert mat.kernel_basis().shape == (0, 0)


@pytest.mark.parametrize("mults, k", [((2, 1, 1) + (0,) * 6, 3), ((4,) + (0,) * 8, 3), ((4,) + (1,) * 8, 6)])
def test_ideal_basis_is_one_read_only_array(points9, mults, k):
    # one (dim (I_Z)_k) x C(k+2, 2) array, also when the ideal is zero
    Z = FatScheme(points9, mults)
    basis = ideal_basis(Z, k)
    assert isinstance(basis, np.ndarray) and basis.dtype == np.int64
    assert basis.shape == (ideal_dim(Z, k), dim_forms(k))
    assert not basis.flags.writeable


def walk_down_alpha(Z: FatScheme) -> int:
    """Reference alpha: from the counting bound, walk down while the ideal
    one degree lower is still nonzero, one ideal_dim per degree."""
    k = 0
    while dim_forms(k) <= Z.length:
        k += 1
    while k > 0 and ideal_dim(Z, k - 1) > 0:
        k -= 1
    return k


@pytest.mark.parametrize("p", [211, 1009, P])
def test_one_elimination_reads_every_lower_degree(p):
    # at points (1, y, z), the prefixes of one C_K give the same dims and
    # the same bases as one conditions matrix per degree j <= K
    rng = random.Random(p)
    for trial in range(12):
        K = rng.randint(0, 9)
        pts = random_points(rng.randint(1, 5), seed=rng.getrandbits(32), p=p)
        # zeros, small multiplicities, and m >= j + 2 for the lower degrees
        Z = FatScheme(pts, tuple(rng.choice([0, 1, 2, 3, K // 2 + 2, K + 1, K + 3]) for _ in range(pts.r)))
        basis, free = _prefix_basis(Z, K)
        for j in range(K + 1):
            rows = basis[free < dim_forms(j), : dim_forms(j)]
            assert len(rows) == ideal_dim(Z, j), (Z.mults, K, j)
            ref = ideal_basis(Z, j)
            assert len(ref) == len(rows) and all(np.array_equal(a, b) for a, b in zip(rows, ref)), (Z.mults, K, j)
        assert alpha_degree(Z) == walk_down_alpha(Z), Z.mults


def test_schemes_through_x0_zero_are_refused():
    # x0 must be a unit at every point of positive multiplicity; the
    # per-degree functions still take such schemes
    p = 1009
    pts = PointSet([(1, 2, 3), (0, 1, 5), (0, 0, 1)], 0, p)
    Z = FatScheme(pts, (2, 3, 0))
    for call in (
        lambda: mu_rank(Z, 3),
        lambda: betti_report(Z, range(1, 4)),
        lambda: alpha_degree(Z),
    ):
        with pytest.raises(ValueError, match=r"point 1 \(0, 1, 5\) of multiplicity 3 lies on x0 = 0"):
            call()
    # the line through the two fat points is a component of every such cubic
    assert len(ideal_basis(Z, 3)) == ideal_dim(Z, 3) == 2
    # a zero multiplicity there imposes nothing and is accepted
    Z0 = FatScheme(pts, (2, 0, 0))
    assert alpha_degree(Z0) == walk_down_alpha(Z0) == 2
    # the certificate, on nine points with the fourth on x0 = 0
    nine = random_points(9, seed=5, p=p).coords
    off = PointSet(np.vstack([nine[:3], [(0, 1, 7)], nine[4:]]), 0, p)
    with pytest.raises(ValueError, match=r"point 3 \(0, 1, 7\) of multiplicity 1 lies on x0 = 0"):
        check_nongeneric_resolution(DivClass(4, (3, 1, 1, 1, 1, 1, 1, 1, 1)), off)


class TestIdealDim:
    def test_single_simple_point(self, points9):
        Z = FatScheme(points9, (1, 0, 0, 0, 0, 0, 0, 0, 0))
        assert ideal_dim(Z, 1) == 2

    def test_conditions_count_matches_length(self, points9):
        Z = FatScheme(points9, (4, 1, 1, 1, 1, 1, 1, 1, 1))
        assert Z.length == 18
        assert conditions_matrix(Z, 6).rows == 18

    def test_one_fat_point_dims(self, points9):
        # frozen values: dim 0, 3, 10 in degrees 4, 5, 6
        Z = FatScheme(points9, (4, 1, 1, 1, 1, 1, 1, 1, 1))
        assert ideal_dim(Z, 4) == 0
        assert ideal_dim(Z, 5) == 3
        assert ideal_dim(Z, 6) == 10

    def test_seven_fat_points_dims(self, points9):
        # frozen values: dim 0, 6, 19 in degrees 10, 11, 12
        Z = FatScheme(points9, (4, 4, 4, 4, 4, 4, 4, 1, 1))
        assert ideal_dim(Z, 10) == 0
        assert ideal_dim(Z, 11) == 6
        assert ideal_dim(Z, 12) == 19

    def test_counting_lower_bound(self, points9):
        Z = FatScheme(points9, (2, 2, 1, 1, 1, 0, 0, 0, 0))
        for k in range(2, 7):
            assert ideal_dim(Z, k) >= dim_forms(k) - Z.length

    def test_basis_vanishes_at_points(self, points9):
        Z = FatScheme(points9, (2, 1, 1, 0, 0, 0, 0, 0, 0))
        for vec in ideal_basis(Z, 3):
            for x, m in zip(points9.coords.tolist(), Z.mults):
                if m >= 1:
                    assert int((vec * eval_row(x, 3, P) % P).sum() % P) == 0

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_point_beyond_the_degree_kills_every_form(self, points9, k):
        # a degree-k form vanishing to order m > k at a point is zero; at
        # m >= k + 2 the order-(m-1) derivatives are all zero themselves
        for m in (k + 1, k + 2, k + 9):
            Z = FatScheme(points9, (m, 1) + (0,) * 7)
            assert conditions_matrix(Z, k).rank() == dim_forms(k)
            assert ideal_dim(Z, k) == 0
            assert ideal_dim(Z, m) == ideal_dim(FatScheme(points9, (m,) + (0,) * 8), m) - 1

    def test_point_beyond_the_degree_in_the_mu_table(self, points9):
        # the fatpoints CLI table for a 5-fold point in degrees 1..3
        Z = FatScheme(points9, (5,) + (0,) * 8)
        assert [r.to_json() for r in betti_report(Z, range(1, 4))] == [
            {"k": k, "dim_k": 0, "dim_k_plus_1": 0, "rank": 0, "kernel": 0, "cokernel": 0}
            for k in range(1, 4)
        ]
        assert alpha_degree(Z) == 5

    def test_modulus_guard(self, points9):
        Z = FatScheme(points9, (1,) * 9)
        with pytest.raises(ValueError):
            ideal_dim(Z, P)


class TestMuRank:
    def test_empty_scheme_koszul(self, points9):
        # mu: R_1 (x) R_1 -> R_2 has kernel 3 (the Koszul relations) and
        # cokernel 0: 9 = 6 + 3
        Z = FatScheme(points9, (0,) * 9)
        rep = mu_rank(Z, 1)
        assert rep.kernel_dim == 3
        assert rep.cokernel_dim == 0

    def test_cokernel_jump_one_fat_point(self, points9):
        Z = FatScheme(points9, (4, 1, 1, 1, 1, 1, 1, 1, 1))
        rep = mu_rank(Z, 5)
        assert rep.cokernel_dim == 2  # expected 1 for a generic resolution

    def test_cokernel_jump_seven_fat_points(self, points9):
        Z = FatScheme(points9, (4, 4, 4, 4, 4, 4, 4, 1, 1))
        rep = mu_rank(Z, 11)
        assert rep.cokernel_dim == 2

    def test_report_identities(self, points9):
        Z = FatScheme(points9, (3, 2, 2, 1, 1, 1, 0, 0, 0))
        for k in range(3, 8):
            rep = mu_rank(Z, k)
            assert rep.rank + rep.kernel_dim == 3 * rep.dim_k
            assert rep.rank + rep.cokernel_dim == rep.dim_k_plus_1

    def test_identity_violation_rejected(self):
        with pytest.raises(ValueError):
            MuReport(1, 2, 5, 3, 1, 2)


class TestCohomology:
    def test_h0_examples(self, points9):
        A = DivClass(3, (1, 1, 1, 1, 1, 1, 1, 0, 0))
        assert h0_class(A, points9) == 3
        assert h0_class(DivClass(4, (1, 1, 1, 1, 1, 1, 1, 0, 0)), points9) == 8
        assert h0_class(DivClass(1, (0,) * 9), points9) == 3

    def test_h0_negative_degree(self, points9):
        assert h0_class(DivClass(-2, (1, 0, 0)), points9) == 0

    def test_h0_clamps_fixed_components(self, points9):
        # E_1 + (line through p_2, p_3): fixed component does not change h^0
        D = DivClass(1, (-1, 1, 1, 0, 0, 0, 0, 0, 0))
        assert h0_class(D, points9) == 1

    def test_class_cohomology_h0_is_h0_class(self, points9):
        for D in (
            DivClass(3, (1, 1, 1, 1, 1, 1, 1, 0, 0)),
            DivClass(4, (1, 1, 1, 1, 1, 1, 1, 0, 0)),
            DivClass(1, (0,) * 9),
            DivClass(1, (-1, 1, 1, 0, 0, 0, 0, 0, 0)),
            DivClass(-2, (1, 0, 0)),
        ):
            assert class_cohomology(D, points9)[0] == h0_class(D, points9)

    def test_point_beyond_the_degree(self, points9):
        # (2; 5): chi = (D.D - K.D) / 2 + 1 = (-21 + 1) / 2 + 1 = -9
        D = DivClass(2, (5,) + (0,) * 8)
        assert h0_class(D, points9) == 0
        assert class_cohomology(D, points9) == (0, 9, None)
        # (3; 4, 1^4): the 4-fold point leaves no cubic, m = k + 1
        assert h0_class(DivClass(3, (4, 1, 1, 1, 1, 0, 0, 0, 0)), points9) == 0
        # (2; 9, 1): chi = (4 - 82 - 4) / 2 + 1 = -40
        assert class_cohomology(DivClass(2, (9, 1)), points9) == (0, 40, None)

    def test_h1_examples(self, points9):
        assert class_cohomology(DivClass(3, (1, 1, 1, 1, 1, 1, 1, 0, 0)), points9)[1] == 0
        assert class_cohomology(DivClass(5, (2, 2, 2, 2, 1, 1, 1, 1, 1)), points9)[1] == 0
        # three generic points impose independent conditions on lines:
        # h^0 = 0 and chi = 0, so h^1 = 0
        assert class_cohomology(DivClass(1, (1, 1, 1, 0, 0, 0, 0, 0, 0)), points9)[1] == 0
        # negative degree: no sections and no h^2, so h^1 = -chi = 1
        assert class_cohomology(DivClass(-1, (1,) + (0,) * 8), points9)[1] == 1
        assert class_cohomology(DivClass(-2, (1,) + (0,) * 8), points9)[1] == 1

    def test_h1_domain_guard(self, points9):
        with pytest.raises(ValueError, match="h1 computed only for degree >= -2"):
            class_cohomology(DivClass(-3, (0,) * 9), points9)

    def test_linear_excess_examples(self, points9):
        assert class_cohomology(DivClass(3, (1,) * 7 + (0, 0)), points9)[2] == 1
        assert class_cohomology(DivClass(1, (1, 0, 0, 0, 0, 0, 0, 0, 0)), points9)[2] == 1
        assert class_cohomology(DivClass(1, (0,) * 9), points9)[2] == 3

    def test_linear_excess_needs_sections(self, points9, condition_degrees):
        # chi is 0 for both: the line through three points, and O(-1)
        assert class_cohomology(DivClass(1, (1, 1, 1, 0, 0, 0, 0, 0, 0)), points9) == (0, 0, None)
        assert class_cohomology(DivClass(-1, (0,) * 9), points9) == (0, 0, None)
        # negative degree builds no condition matrix
        assert condition_degrees == [1]

    def test_le_criterion(self, points9):
        # whenever h1 = 0, -K.A = 2, d >= 0 and A^2 + 1 >= L.A the excess is >= 1
        from curvesplit.lattice import canonical_class, line_class, intersect

        K = canonical_class(9)
        L = line_class(9)
        for cand in [
            DivClass(1, (1, 0, 0, 0, 0, 0, 0, 0, 0)),
            DivClass(3, (1, 1, 1, 1, 1, 1, 1, 0, 0)),
            DivClass(5, (2, 2, 2, 2, 1, 1, 1, 1, 1)),
            DivClass(7, (3, 3, 2, 2, 2, 2, 2, 2, 1)),
        ]:
            assert intersect(-1 * K, cand) == 2
            _, h1, le = class_cohomology(cand, points9)
            if h1 == 0 and cand.dot(cand) + 1 >= intersect(L, cand):
                assert le >= 1


class TestAlphaAndBetti:
    def test_alpha_fat_point_example(self, points9):
        assert alpha_degree(FatScheme(points9, (4, 1, 1, 1, 1, 1, 1, 1, 1))) == 5

    def test_alpha_empty(self, points9):
        assert alpha_degree(FatScheme(points9, (0,) * 9)) == 0

    def test_two_simple_points(self):
        pts = random_points(2, seed=31)
        Z = FatScheme(pts, (1, 1))
        assert alpha_degree(Z) == 1
        reports = betti_report(Z, range(1, 3))
        # brute-force small case: one line through the two points, and one
        # extra generator in degree 2 (conics not divisible by that line)
        assert ideal_dim(Z, 1) == 1
        assert reports[0].cokernel_dim == 1

    def test_generator_counts_at_initial_degree(self, points9):
        Z = FatScheme(points9, (4, 1, 1, 1, 1, 1, 1, 1, 1))
        alpha = alpha_degree(Z)
        reports = betti_report(Z, [alpha])
        assert ideal_dim(Z, alpha) == 3  # nu_alpha
        assert reports[0].cokernel_dim == 2  # nu_{alpha+1}


class TestSplittingBound:
    def test_product_bounds_a_across_modules(self, points9):
        # a divisor A with h1 = 0, h0(A - D + L) = 0 and le >= 1 bounds the
        # computed a of the curve D by A.D
        from curvesplit.lattice import line_class, intersect, NumType
        from curvesplit.param import parameterize
        from curvesplit.splitting import splitting_moving_lines

        L = line_class(9)
        pairs = [
            (DivClass(3, (1, 1, 1, 1, 1, 1, 1, 0, 0)), DivClass(8, (3, 3, 3, 3, 3, 3, 3, 0, 0))),
            (DivClass(1, (1, 0, 0, 0, 0, 0, 0, 0, 0)), DivClass(5, (2, 2, 2, 2, 2, 2, 1, 1, 0))),
            (DivClass(5, (2, 2, 2, 2, 1, 1, 1, 1, 1)), DivClass(12, (5, 5, 5, 5, 3, 3, 3, 3, 3))),
        ]
        for A, D in pairs:
            _, h1, le = class_cohomology(A, points9)
            assert h1 == 0 and le >= 1
            assert h0_class(A - D + L, points9) == 0
            phi = parameterize(NumType(D.d, D.m), points9, seed=3)
            a = splitting_moving_lines(phi).a
            assert a <= intersect(A, D)


class TestNongenericResolution:
    def test_first_instance(self, points9):
        rep = check_nongeneric_resolution(DivClass(4, (3, 1, 1, 1, 1, 1, 1, 1, 1)), points9)
        assert rep.alpha == 5 and rep.alpha_ok
        assert rep.hilbert_maximal
        assert rep.expected_cokernel == 1
        assert rep.cokernel == 2
        assert rep.nongeneric

    def test_second_instance(self, points9):
        rep = check_nongeneric_resolution(DivClass(8, (3, 3, 3, 3, 3, 3, 3, 1, 1)), points9)
        assert rep.alpha == 11 and rep.alpha_ok
        assert rep.hilbert_maximal
        assert rep.cokernel == 2

    def test_rejects_wrong_parity(self, points9):
        with pytest.raises(ValueError):
            check_nongeneric_resolution(DivClass(12, (6, 4, 4, 4, 4, 4, 4, 3, 2)), points9)

    def test_rejects_small_degree(self, points9):
        with pytest.raises(ValueError):
            check_nongeneric_resolution(DivClass(2, (1, 1, 1, 1, 1, 0, 0, 0, 0)), points9)

    def test_each_condition_matrix_built_once(self, points9, condition_degrees):
        check_nongeneric_resolution(DivClass(4, (3, 1, 1, 1, 1, 1, 1, 1, 1)), points9)
        # k0 = 5 bounds alpha, so C_6 holds (I_Z)_5 and (I_Z)_6
        assert condition_degrees == [6]


def test_large_certificate_eliminates_two_matrices(monkeypatch):
    # MatFp.rref is the only elimination entry point, and the benchmark
    # tracer's boundary: the d'=12 certificate calls it twice, on C_36 and
    # on mu_35, and nothing inside an elimination calls it again
    import curvesplit.exactla as ex

    shapes = []
    real = ex.MatFp.rref

    def counting(self):
        shapes.append(self.entries.shape)
        return real(self)

    monkeypatch.setattr(ex.MatFp, "rref", counting)
    rep = check_nongeneric_resolution(DivClass(24, (7, 9, 9, 9, 9, 9, 7, 7, 5)), random_points(9, 101))
    assert shapes == [(648, 703), (703, 54)]
    assert rep.alpha == 35 and rep.hilbert_maximal and rep.nongeneric


class TestEliminationCounts:
    """Each quantity builds the condition matrices it needs once."""

    def test_linear_excess_eliminates_once(self, points9, condition_degrees):
        A = DivClass(3, (1,) * 7 + (0, 0))
        assert class_cohomology(A, points9) == (3, 0, 1)
        assert condition_degrees == [A.d]

    def test_betti_report_builds_one(self, points9, condition_degrees):
        # frozen values: dim (I_Z)_k = 0, 0, 4, 9 for k = 1..4
        Z = FatScheme(points9, (2, 1, 1, 1, 0, 0, 0, 0, 0))
        reports = betti_report(Z, range(1, 4))
        assert [(r.dim_k, r.rank, r.cokernel_dim) for r in reports] == [(0, 0, 0), (0, 0, 4), (4, 9, 0)]
        assert condition_degrees == [4]

    def test_alpha_degree_builds_one(self, points9, condition_degrees):
        # length 18: the counting bound is 5, so alpha is read off C_4
        assert alpha_degree(FatScheme(points9, (4, 1, 1, 1, 1, 1, 1, 1, 1))) == 5
        assert condition_degrees == [4]

    def test_certified_scan_record_builds_one(self, condition_degrees):
        from curvesplit.conjscan import scan_record
        from curvesplit.lattice import NumType, semi_adjoint

        T = NumType(8, (3, 3, 3, 3, 3, 3, 3, 1, 1))
        A = semi_adjoint(T.to_divclass())
        rec = scan_record(T, 1, certify=True)
        assert (rec.h1_a, rec.le_a) == (0, 1)
        # h1 and le come from one class_cohomology call
        assert condition_degrees == [A.d]

    def test_search_builds_one_per_candidate(self, points9, condition_degrees):
        from curvesplit.conjscan import search_min_product

        E = DivClass(8, (3, 3, 3, 3, 3, 3, 3, 1, 1))
        res = search_min_product(E, points9, dA_max=3)
        assert res is not None and res.witness == (3, 1, 1, 1, 1, 1, 1, 1, 0, 0)
        assert len(condition_degrees) == res.tested


_REFUSALS = [
    (lambda pts: FatScheme(pts, (1,) * 8), "one multiplicity per point"),
    (lambda pts: FatScheme(pts, (-1,) + (0,) * 8), "multiplicities must be non-negative"),
    (lambda pts: h0_class(DivClass(1, (0,) * 10), pts), "class touches 10 points but only 9 given"),
    (
        lambda pts: check_nongeneric_resolution(DivClass(4, (3,) + (1,) * 7), random_points(8, 1)),
        "the construction lives on 9-point blow-ups",
    ),
    (
        lambda pts: check_nongeneric_resolution(DivClass(4, (3,) + (1,) * 7 + (0,)), pts),
        "DivClass(d=4, m=(3, 1, 1, 1, 1, 1, 1, 1, 0)) is not exceptional",
    ),
]


@pytest.mark.parametrize("call, message", _REFUSALS, ids=[message for _, message in _REFUSALS])
def test_input_refusals(points9, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call(points9)
    assert info.type is ValueError
