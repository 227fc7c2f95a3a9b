import dataclasses
import hashlib
import itertools
import random
import re
from collections import Counter

import numpy as np
import pytest

from curvesplit.binform import ParamTriple, _conv_mod
from curvesplit.exactla import MODULUS
from curvesplit.lattice import DivClass, NumType, Quad, enum_exceptional, reduce_to_base, reflect
from curvesplit.param import (
    _CONIC_BRACKETS,
    CremonaStep,
    DegenerateConfigurationError,
    ParameterizationError,
    PointSet,
    RetryLimitError,
    SeededRng,
    _base_curve,
    _combine,
    _parameterize_conic,
    _parameterize_pencil,
    cremona_apply,
    fibre_at,
    genericity_certificate,
    mix_seed,
    multiplicity_at,
    Parameterization,
    parameterize,
    random_points,
)
from curvesplit.plane import eval_row, monomials

P = MODULUS


def _value(row, x, p):
    """A quadratic form's coefficient row at a point: dotted with eval_row
    over Python ints, since int64 would overflow past p ~ 2**31."""
    return sum(a * c for a, c in zip(eval_row(x, 2, p).tolist(), row.tolist())) % p


def _substitute(row, k, phi):
    """The coefficient row of the degree-k plane form ``row`` at phi: the
    powers of phi built afresh for this row, then one scaled monomial added
    at a time over Python ints."""
    p = phi.p

    def mul(f, g):
        return _conv_mod(f[None], g[None], p)[0]

    pows = []
    for f in phi.coeffs:
        cur = [np.ones(1, dtype=np.int64)]
        for _ in range(k):
            cur.append(mul(cur[-1], f))
        pows.append(cur)
    total = [0] * (phi.degree * k + 1)
    for c, (a, b, cc) in zip(row.tolist(), monomials(k)):
        if c:
            term = mul(mul(pows[0][a], pows[1][b]), pows[2][cc]).tolist()
            total = [(x + c * y) % p for x, y in zip(total, term)]
    return np.array(total, dtype=np.int64)


def _rank_mod(rows, p):
    """Rank of a list of int rows over F_p by plain Gauss-Jordan."""
    rows = [[v % p for v in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _multiplicities(phi, points) -> list[int]:
    return [multiplicity_at(phi, points, i) for i in range(points.r)]


def _reference_certificate(coords, p):
    """Distinct, every triple's determinant nonzero, every six conic rows of rank 6."""
    xs = [tuple(x) for x in coords.tolist()]
    if len(set(xs)) != len(xs):
        return False
    for a, b, c in itertools.combinations(xs, 3):
        det = (
            a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0])
        )
        if det % p == 0:
            return False
    conic = [[x * x, x * y, x * z, y * y, y * z, z * z] for x, y, z in xs]
    return all(_rank_mod(list(six), p) == 6 for six in itertools.combinations(conic, 6))


def _sign(perm) -> int:
    return (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))


def _bracket_difference(xs, p):
    """[abc][aef][bdf][cde] - [abf][ace][bcd][def] mod p of six points with
    integer coordinates, from the index table the certificate uses."""

    def bracket(i, j, k):
        return sum(_sign(s) * xs[i][s[0]] * xs[j][s[1]] * xs[k][s[2]] for s in itertools.permutations(range(3)))

    b = [bracket(*t) for t in _CONIC_BRACKETS]
    return (b[0] * b[1] * b[2] * b[3] - b[4] * b[5] * b[6] * b[7]) % p


def _conic_det(xs) -> int:
    """Integer determinant of the six conic evaluation rows (x^2, xy, xz, y^2,
    yz, z^2) by fraction-free (Bareiss) elimination."""
    m = [[x * x, x * y, x * z, y * y, y * z, z * z] for x, y, z in xs]
    sign, prev = 1, 1
    for k in range(5):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, 6) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, 6):
            for j in range(k + 1, 6):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[5][5]


def test_conic_determinant_is_the_bracket_difference_over_z():
    """Both sides expanded as polynomials in the 18 coordinates: the same 720
    terms with coefficients +-1, so the identity holds mod every p."""

    def var(i, j):
        e = [0] * 18
        e[3 * i + j] = 1
        return {tuple(e): 1}

    def mul(f, g):
        out = Counter()
        for ef, cf in f.items():
            for eg, cg in g.items():
                out[tuple(a + b for a, b in zip(ef, eg))] += cf * cg
        return out

    def product(*fs):
        out = Counter({(0,) * 18: 1})
        for f in fs:
            out = mul(out, f)
        return out

    xs = [[var(i, j) for j in range(3)] for i in range(6)]

    def bracket(i, j, k):
        out = Counter()
        for s in itertools.permutations(range(3)):
            for e, c in product(xs[i][s[0]], xs[j][s[1]], xs[k][s[2]]).items():
                out[e] += _sign(s) * c
        return out

    b = [bracket(*t) for t in _CONIC_BRACKETS]
    rhs = product(*b[:4])
    rhs.subtract(product(*b[4:]))
    # the determinant is sum over permutations s of sgn(s) prod_i monomial s(i) at point i
    det = Counter()
    for s in itertools.permutations(range(6)):
        det[tuple(e for i in range(6) for e in monomials(2)[s[i]])] += _sign(s)
    assert len(det) == 720 and set(det.values()) == {-1, 1}
    assert {e: c for e, c in rhs.items() if c} == dict(det)


@pytest.mark.parametrize("p", [7, 211, MODULUS, 3037000493])
def test_conic_determinant_matches_brackets_mod_p(p):
    rng = random.Random(p)
    zeros = 0
    for _ in range(60):
        xs = [tuple(rng.randrange(p) for _ in range(3)) for _ in range(6)]
        if rng.random() < 0.3:
            # six points on x0 x2 = x1^2 make the determinant 0
            xs = [(s * s % p, s * u % p, u * u % p) for s, u, _ in xs]
        want = _conic_det(xs) % p
        assert _bracket_difference(xs, p) == want, (p, xs)
        zeros += want == 0
    assert zeros


class TestRandomPoints:
    def test_deterministic(self):
        a = random_points(9, seed=7)
        b = random_points(9, seed=7)
        assert a == b

    def test_triples_not_collinear(self):
        pts = random_points(3, seed=1)
        assert genericity_certificate(pts.coords, P)

    def test_nine_points_certificate(self):
        # failure probability is ~ r^3/p per draw; one try should do
        pts = random_points(9, seed=99)
        assert genericity_certificate(pts.coords, P)

    def test_five_points_need_no_conic_check(self):
        assert genericity_certificate(random_points(5, seed=11).coords, P)
        # any five points lie on a conic; only six or more can fail that check
        on_conic = np.array([(1, t, t * t) for t in range(1, 6)], dtype=np.int64)
        assert genericity_certificate(on_conic, P)

    def test_six_on_a_conic_rejected(self):
        # six points on x0*x2 = x1^2 and three more: no three are collinear,
        # so only the conic check can reject the set
        on_conic = np.array([(1, t, t * t) for t in range(1, 7)], dtype=np.int64)
        pts = np.vstack([on_conic, random_points(3, seed=5).coords])
        assert not genericity_certificate(pts, P)
        assert genericity_certificate(pts[1:], P)

    def test_collinear_triple_rejected(self):
        line = np.array([(1, t, 0) for t in range(3)], dtype=np.int64)
        assert not genericity_certificate(np.vstack([line, random_points(6, seed=8).coords]), P)

    def test_repeated_point_rejected(self):
        pts = random_points(8, seed=9).coords
        assert not genericity_certificate(np.vstack([pts, pts[:1]]), P)

    def test_certificate_matches_reference(self):
        # random sets, some with a repeated point, a collinear triple or six
        # points (s^2, su, u^2) on the conic x0 x2 = x1^2 planted and shuffled
        # in; at p = 7 and 31 raw sets hit these by chance as well, and at
        # full size an unreduced product would overflow int64.  r = 3..5
        # never reach the conic check
        for p in (7, 31, MODULUS, 3037000493):
            rng = random.Random(p)

            def point():
                while not any(x := tuple(rng.randrange(p) for _ in range(3))):
                    pass
                return x

            verdicts = set()
            for n, r in enumerate(list(range(3, 10)) * 40):
                xs = [point() for _ in range(r)]
                if n % 4 == 1 and r >= 6:
                    su = [(rng.randrange(1, p), rng.randrange(p)) for _ in range(6)]
                    xs[:6] = [(s * s % p, s * u % p, u * u % p) for s, u in su]
                elif n % 4 == 2:
                    lam, mu = rng.randrange(1, p), rng.randrange(1, p)
                    on_line = tuple((lam * x + mu * y) % p for x, y in zip(xs[0], xs[1]))
                    xs[2] = on_line if any(on_line) else xs[2]
                elif n % 4 == 3:
                    lam = rng.randrange(1, p)
                    xs[1] = tuple(c * lam % p for c in xs[0])
                rng.shuffle(xs)
                pts = PointSet(xs, 0, p).coords
                want = _reference_certificate(pts, p)
                assert genericity_certificate(pts, p) == want, (p, pts)
                verdicts.add((r >= 6, want))
            assert verdicts == {(False, False), (False, True), (True, False), (True, True)}, p

    def test_random_points_digest(self):
        # at p = 211 most certificate calls reject, so a changed verdict
        # anywhere changes which points are drawn
        h = hashlib.sha256()
        for p in (211, 1009, MODULUS):
            for r in (3, 5, 6, 9, 10):
                for s in range(1, 301):
                    try:
                        h.update(repr([tuple(x) for x in random_points(r, s, p).coords.tolist()]).encode())
                    except RetryLimitError:
                        h.update(b"retry")
        assert h.hexdigest() == "c5c8c274ffe305f2b19432467765107a2ee4ca4647209d6882cda8b2c55cf4b5"

    def test_small_modulus_exhausts(self, monkeypatch):
        from curvesplit import param
        from curvesplit.param import RetryLimitError

        calls = []
        real = param.genericity_certificate

        def counting(pts, p):
            calls.append(p)
            return real(pts, p)

        monkeypatch.setattr(param, "genericity_certificate", counting)
        with pytest.raises(RetryLimitError):
            random_points(9, seed=1, p=3)
        assert len(calls) == param.POINT_TRIES


def _reference_normalize(x, p):
    """A point's row as points were first normalized, one at a time: reduce
    mod p, then scale by the inverse of the first nonzero coordinate."""
    coords = [int(c) % p for c in x]
    inv = pow(next(c for c in coords if c), -1, p)
    return [c * inv % p for c in coords]


class TestPointSet:
    # 3037000493 is the largest prime the int64 bound admits
    @pytest.mark.parametrize("p", [211, MODULUS, 3037000493])
    def test_rows_normalize_as_the_reference(self, p):
        rng = random.Random(p)
        rows = []
        while len(rows) < 300:
            # entries negative or not yet reduced; a leading zero may be a multiple of p
            x = [rng.randrange(-3 * p, 3 * p) for _ in range(3)]
            for c in range(rng.randrange(3)):
                x[c] = p * rng.randrange(-2, 3)
            if any(v % p for v in x):
                rows.append(x)
        pts = PointSet(rows, 5, p)
        assert pts.coords.tolist() == [_reference_normalize(x, p) for x in rows]
        assert pts.coords.dtype == np.int64 and not pts.coords.flags.writeable
        assert {row.index(1) for row in pts.coords.tolist()} == {0, 1, 2}

        with pytest.raises(ValueError, match=r"^\(0, 0, 0\) is not a projective point$"):
            PointSet(rows[:3] + [[0, p, -2 * p]], 5, p)
        with pytest.raises(ValueError, match="cannot reshape"):
            PointSet([row[:2] for row in rows[:3]], 5, p)
        again = PointSet([[v + p for v in x] for x in rows], 5, p)
        assert again == pts and hash(again) == hash(pts)
        assert PointSet(pts.coords, 5, p) == pts
        assert PointSet(rows, 6, p) != pts


class TestSqrtMod:
    def test_conic_base_at_p_1_mod_4(self):
        # (2; 1, 1) is its own base: the conic through points 1 and 2
        p = 1009
        T = NumType(2, (1, 1))
        for s in range(6):
            pts = random_points(9, s, p)
            phi = parameterize(T, pts, s)
            assert phi.degree == 2
            assert _multiplicities(phi, pts) == [1, 1] + [0] * 7


class TestCremona:
    def test_point_on_opposite_line_contracts(self, points9):
        # a point on the line through centers j,k maps to (1,0,0)
        pj, pk = points9.coords[1:3].tolist()
        rng = SeededRng(3)
        u = rng.below(P)
        on_line = tuple((pj[c] + u * pk[c]) % P for c in range(3))
        step = cremona_apply(points9, 1, 2, 3)
        vals = tuple(_value(q, on_line, P) for q in step.quad_forms)
        assert PointSet([vals], 0, P) == PointSet([(1, 0, 0)], 0, P)

    def test_standard_form_is_involution(self):
        # with the centers at the coordinate triangle the map is (y1y2, y0y2, y0y1)
        extra = random_points(2, seed=4)
        pts = PointSet(np.vstack([np.eye(3, dtype=np.int64), extra.coords]), extra.seed, P)
        once = cremona_apply(pts, 1, 2, 3)
        assert not np.array_equal(once.points_after.coords[3:], extra.coords)
        twice = cremona_apply(once.points_after, 1, 2, 3)
        assert twice.points_after == pts

    def test_collinear_centers_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            cremona_apply(PointSet([(1, 0, 0), (1, 1, 0), (1, 2, 0)], 0, P), 1, 2, 3)

    def test_points_at_another_modulus_are_refused(self):
        # the modulus is never implied: a point set carries its one modulus,
        # and the map takes no other; a curve at another modulus is refused
        # where it meets the points (TestMultiplicity.test_fibre_errors)
        pts = random_points(6, 5, 211)
        with pytest.raises(TypeError):
            cremona_apply(pts, 1, 2, 3, P)
        after = cremona_apply(pts, 1, 2, 3).points_after
        assert after.coords[3].tolist() == [1, 42, 129]
        assert (after.p, after.seed) == (211, 5)

    def test_errors_come_in_order(self):
        a, b, c, q = (tuple(x) for x in random_points(4, seed=6).coords.tolist())
        on_bc = tuple((x + 3 * y) % P for x, y in zip(b, c))
        on_ab = tuple((x + 5 * y) % P for x, y in zip(a, b))

        def apply(rows, *centers):
            return cremona_apply(PointSet(rows, 0, P), *centers)

        with pytest.raises(ValueError, match="points coincide"):
            apply((a, a, b, q, q), 1, 2, 3)
        with pytest.raises(DegenerateConfigurationError, match="collinear centers"):
            apply((a, b, on_ab, on_bc, q, q), 1, 2, 3)
        # with the centers a, b, c in slots 2, 4 and 6, whose images are zero
        # before they become e_0, e_1, e_2, the lowest other point is named
        for pts in ((q, a, on_ab, b, on_bc, c, q), (q, a, on_bc, b, on_ab, c, q)):
            with pytest.raises(DegenerateConfigurationError, match="^point 3 lies on a fundamental line$"):
                apply(pts, 2, 4, 6)
        with pytest.raises(DegenerateConfigurationError, match="transformed points collide"):
            apply((a, b, c, q, q), 1, 2, 3)
        step = apply((q, a, (1, 2, 3), b, (1, 4, 9), c), 2, 4, 6)
        assert step.points_after.coords[[1, 3, 5]].tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    # 3037000493 is the largest prime the int64 bound admits: every product
    # of the batched map must be reduced before it is summed
    @pytest.mark.parametrize("p", [P, 211, 3037000493])
    def test_quad_forms_are_the_forward_map(self, p):
        rng = SeededRng(p)
        checked = 0
        for seed, centers in ((1, (1, 2, 3)), (2, (2, 4, 6)), (3, (1, 5, 6))):
            base = random_points(6, seed, p)
            lines = cremona_apply(base, *centers).n_matrix.tolist()
            taken = base.coords.tolist()
            extra: list[list[int]] = []
            for _ in range(40):
                x = [1, rng.below(p), rng.below(p)]
                if x in taken or x in extra or any(sum(a * b for a, b in zip(h, x)) % p == 0 for h in lines):
                    continue  # taken, or on a fundamental line
                extra.append(x)
            step = cremona_apply(PointSet(taken + extra, base.seed, p), *centers)
            forms = step.quad_forms
            assert forms.shape == (3, 6) and forms.dtype == np.int64 and not forms.flags.writeable
            assert ((0 <= forms) & (forms < p)).all()
            for x, image in zip(extra, step.points_after.coords[6:]):
                want = PointSet([[_value(q, x, p) for q in forms]], 0, p)
                assert np.array_equal(image, want.coords[0])
            checked += len(extra)
        assert checked >= 100

    def test_matches_lattice_reflection(self, points9):
        # the numerical type of the forward-transformed curve is the
        # reflected class, with multiplicities read at the new points
        from curvesplit.binform import gcd_many, div_exact

        from curvesplit.lattice import enum_exceptional

        rng = SeededRng(17)
        cases = [(3, (2, 1, 1, 1, 1, 1)), (4, (2, 2, 2, 1, 1, 1, 1, 1)), (6, (3, 3, 2, 2, 2, 2, 1))]
        # widen with exceptional types of moderate degree
        pool = sorted(enum_exceptional(9, 12), key=lambda t: t.sort_key())
        cases += [(T.d, T.m) for T in pool if 2 <= T.d <= 12][-4:]
        for d, m in cases:
            D = DivClass(d, m + (0,) * (9 - len(m)))
            phi = parameterize(NumType(d, m), points9, seed=rng.below(2**32))
            step = cremona_apply(points9, 1, 2, 3)
            psis = [_substitute(row, 2, phi) for row in step.quad_forms]
            g = gcd_many(psis, phi.p)
            image = ParamTriple([div_exact(f, g, phi.p) for f in psis], phi.p)
            expect = reflect(D, [Quad(1, 2, 3)])
            assert image.degree == expect.d
            assert tuple(_multiplicities(image, step.points_after)) == expect.m


class TestMultiplicity:
    def test_cuspidal_quartic(self):
        phi = ParamTriple([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 1)], P)
        # gcd(s^4, s^3 t) = s^3
        assert multiplicity_at(phi, PointSet([(0, 0, 1)], 0, P), 0) == 3

    def test_point_off_curve(self):
        phi = ParamTriple([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 1)], P)
        assert multiplicity_at(phi, PointSet([(1, 7, 9)], 0, P), 0) == 0

    def test_line_hits_anchor_once(self, points9):
        a, b = points9.coords[:2].tolist()
        phi = ParamTriple([(a[c], b[c]) for c in range(3)], P)
        assert multiplicity_at(phi, points9, 0) == 1
        assert multiplicity_at(phi, points9, 1) == 1

    def test_fibre_is_the_monic_gcd(self, points9):
        a, b = points9.coords[:2].tolist()
        coeffs = np.array([(a[c], b[c]) for c in range(3)], dtype=np.int64)
        # the line s*a + t*b meets a at t = 0, b at s = 0, and misses the rest
        assert fibre_at(coeffs, points9, 0).tolist() == [0, 1]
        assert fibre_at(coeffs, points9, 1).tolist() == [1, 0]
        assert fibre_at(coeffs, points9, 2).tolist() == [1]

    def test_fibre_errors(self, points9):
        point = np.array([(v, 2 * v % P) for v in points9.coords[0].tolist()], dtype=np.int64)
        with pytest.raises(ValueError, match="components are proportional at this point; not a curve"):
            fibre_at(point, points9, 0)
        phi = parameterize(NumType(1, (1, 1)), points9, seed=1)
        at_211 = PointSet(points9.coords, points9.seed, 211)
        with pytest.raises(ValueError, match="mixed moduli"):
            multiplicity_at(phi, at_211, 0)


class TestParameterize:
    def test_line_base_case(self, points9):
        phi = parameterize(NumType(1, (1, 1)), points9, seed=1)
        assert phi.degree == 1
        assert multiplicity_at(phi, points9, 0) == 1
        assert multiplicity_at(phi, points9, 1) == 1

    def test_quartic_with_three_nodes(self, points9):
        phi = parameterize(NumType(4, (2, 2, 2, 1, 1, 1, 1, 1)), points9, seed=1)
        assert phi.degree == 4
        for idx in range(3):
            assert multiplicity_at(phi, points9, idx) == 2
        for idx in range(3, 8):
            assert multiplicity_at(phi, points9, idx) == 1

    def test_flagship_curve(self, points9):
        phi = parameterize(NumType(8, (3,) * 7), points9, seed=1)
        assert phi.degree == 8
        assert _multiplicities(phi, points9)[:7] == [3] * 7

    def test_type_invariants_hold(self, points9):
        types = [
            (2, (1, 1, 1, 1, 1)),
            (5, (2, 2, 2, 2, 2, 2, 1, 1)),
            (6, (3, 3, 2, 2, 2, 2, 1)),
            (10, (4, 4, 4, 4, 4, 4)),
        ]
        for d, m in types:
            T = NumType(d, m)
            # genus consistency is forced by the smoothness numerics
            assert sum(v * (v - 1) for v in m) == (d - 1) * (d - 2)
            phi = parameterize(T, points9, seed=5)
            assert phi.degree == d
            assert tuple(_multiplicities(phi, points9)) == T.m + (0,) * (9 - len(m))

    def test_degree_zero_rejected(self, points9):
        with pytest.raises(ValueError):
            parameterize(NumType(0, (0, 0, -1)), points9, seed=1)

    def test_bad_numerics_rejected(self, points9):
        with pytest.raises(ValueError):
            parameterize(NumType(3, (1, 1)), points9, seed=1)

    def test_same_seed_same_output(self, points9):
        a = parameterize(NumType(4, (2, 2, 2, 1, 1, 1, 1, 1)), points9, seed=9)
        b = parameterize(NumType(4, (2, 2, 2, 1, 1, 1, 1, 1)), points9, seed=9)
        assert a == b

    def test_trace_exposed(self, points9):
        res = parameterize(NumType(4, (2, 2, 2, 1, 1, 1, 1, 1)), points9, seed=9)
        assert res.degree == 4
        assert res.steps, "the quartic needs at least one quadratic step"
        for step in res.steps:
            data = step.to_json()
            assert set(data) == {"centers", "quad_forms", "points_before", "points_after"}


def test_mix_seed_stable():
    assert mix_seed(1, 2, 3) == mix_seed(1, 2, 3)
    assert mix_seed(1, 2, 3) != mix_seed(1, 2, 4)


class TestParameterizePaths:
    QUARTIC = NumType(4, (2, 2, 2, 1, 1, 1, 1, 1))

    def test_trace_triple_is_the_parameterization(self, points9):
        res = parameterize(self.QUARTIC, points9, seed=9)
        assert isinstance(res, Parameterization) and isinstance(res, ParamTriple)
        assert res == parameterize(self.QUARTIC, points9, seed=9)
        assert hash(res) == hash(parameterize(self.QUARTIC, points9, seed=9))
        assert res.to_json() == ParamTriple(res.coeffs, res.p).to_json()

    def test_trace_steps_start_at_the_given_points(self, points9):
        res = parameterize(self.QUARTIC, points9, seed=9)
        # nothing retried, so the result went through the points handed in
        assert res.points is points9
        assert res.steps[0].points_before is res.points
        for before, after in zip(res.steps, res.steps[1:]):
            assert after.points_before == before.points_after

    def test_retried_result_carries_its_fresh_points(self, points9, monkeypatch):
        from curvesplit import param

        real = param._parameterize_once
        attempts = []

        def fail_first(D, pts, rng):
            attempts.append(pts)
            if len(attempts) == 1:
                raise DegenerateConfigurationError("forced")
            return real(D, pts, rng)

        monkeypatch.setattr(param, "_parameterize_once", fail_first)
        res = parameterize(self.QUARTIC, points9, seed=9)
        assert len(attempts) == 2 and res.points is attempts[1]
        assert res.points.seed == mix_seed(9, 1, 0x52455452) and res.points != points9
        assert res.steps[0].points_before is res.points
        assert _multiplicities(res, res.points) == list(self.QUARTIC.m) + [0]

    def test_no_redraw_after_the_last_attempt(self, points9, monkeypatch):
        from curvesplit import param
        from curvesplit.param import RetryLimitError

        def always_degenerate(*args):
            raise DegenerateConfigurationError("forced")

        seeds = []

        def counting(r, seed, p=P):
            seeds.append(seed)
            return random_points(r, seed, p)

        monkeypatch.setattr(param, "_parameterize_once", always_degenerate)
        monkeypatch.setattr(param, "random_points", counting)
        monkeypatch.setattr(param, "ATTEMPTS", 3)
        with pytest.raises(RetryLimitError, match="after 3 attempts: forced"):
            parameterize(self.QUARTIC, points9, seed=9)
        # attempts 1 and 2 draw fresh points, from the same seeds as before
        assert seeds == [mix_seed(9, attempt, 0x52455452) for attempt in (1, 2)]

    def test_the_attempt_budget_is_24(self, points9, monkeypatch):
        from curvesplit import param

        def always_degenerate(*args):
            raise DegenerateConfigurationError("forced")

        monkeypatch.setattr(param, "_parameterize_once", always_degenerate)
        assert param.ATTEMPTS == 24
        with pytest.raises(RetryLimitError, match="^parameterization failed after 24 attempts: forced$"):
            parameterize(self.QUARTIC, points9, seed=9)


class TestPullBackFibres:
    """``CremonaStep.pull_back`` divides by the fibres it is handed and hands
    back the fibres over its centers; they must be the gcd fibres."""

    QUARTIC = TestParameterizePaths.QUARTIC
    CASES = [
        (1, (1, 1)),
        (2, (1, 1, 1, 1, 1)),
        (3, (2, 1, 1, 1, 1, 1)),
        (4, (2, 2, 2, 1, 1, 1, 1, 1)),
        (5, (2, 2, 2, 2, 2, 2, 1, 1)),
        (6, (3, 3, 2, 2, 2, 2, 1)),
        (8, (3,) * 7),
        (10, (4, 4, 4, 4, 4, 4)),
    ] + sorted((T.d, T.m) for T in enum_exceptional(9, 12) if T.d >= 2)

    @pytest.mark.parametrize("p", [P, 211])
    def test_returned_fibres_are_the_gcd_fibres(self, p, monkeypatch):
        real = CremonaStep.pull_back
        calls = []

        def recording(step, coeffs, fibres):
            out = real(step, coeffs, fibres)
            calls.append((step, out))
            return out

        monkeypatch.setattr(CremonaStep, "pull_back", recording)
        checked = 0
        for n, (d, m) in enumerate(self.CASES):
            D = DivClass(d, m + (0,) * (9 - len(m)))
            calls.clear()
            res = parameterize(NumType(d, m), random_points(9, n, p), seed=n)
            word, _ = reduce_to_base(D)
            classes = [D]
            for quad in word:
                classes.append(reflect(classes[-1], [quad]))
            # the successful attempt's pull-backs, last step first
            done = calls[-len(res.steps):] if res.steps else []
            assert [id(step) for step, _ in done] == [id(step) for step in reversed(res.steps)]
            for (step, (coeffs, fibres)), cls in zip(done, reversed(classes[:-1])):
                for c, fibre in zip(step.centers, fibres):
                    assert fibre.dtype == np.int64, (d, m, step.centers, c)
                    want = fibre_at(coeffs, step.points_before, c - 1)
                    assert fibre.tolist() == want.tolist(), (d, m, step.centers, c)
                    assert fibre.size - 1 == cls.m[c - 1], (d, m, step.centers, c)
                    checked += 1
        assert checked == 405

    def test_curve_on_a_fundamental_line_is_degenerate(self, points9):
        # the line y_0 = 0 through e_1 and e_2 is contracted to center 1
        step = cremona_apply(points9, 1, 2, 3)
        coeffs = np.array([(0, 0), (1, 0), (0, 1)], dtype=np.int64)
        fibres = (np.array([1]), np.array([0, 1]), np.array([1, 0]))
        with pytest.raises(DegenerateConfigurationError, match="lies on a fundamental line"):
            step.pull_back(coeffs, fibres)

    def test_wrong_fibre_retries(self, points9, monkeypatch):
        # the first base curve hands back its fibre over point 1, a center
        # of the last step, times s + t
        from curvesplit import param

        real = param._base_curve
        calls = []

        def wrong_first(base, points, rng):
            calls.append(points)
            coeffs, fibres = real(base, points, rng)
            if len(calls) == 1:
                fibres[0] = _conv_mod(fibres[0][None], np.ones((1, 2), dtype=np.int64), points.p)[0]
            return coeffs, fibres

        monkeypatch.setattr(param, "_base_curve", wrong_first)
        res = parameterize(self.QUARTIC, points9, seed=9)
        assert res.points != points9
        assert _multiplicities(res, res.points) == list(self.QUARTIC.m) + [0]

        calls.clear()
        monkeypatch.setattr(param, "ATTEMPTS", 1)
        with pytest.raises(RetryLimitError, match="after 1 attempts: fibre product does not divide"):
            parameterize(self.QUARTIC, points9, seed=9)


class TestParameterizationFibres:
    """``Parameterization.fibres`` are the fibres the pull-backs carry, in
    point order; they stay out of equality, hash and ``to_json``."""

    @pytest.mark.parametrize("p", [P, 211])
    def test_fibres_are_the_gcd_fibres(self, p):
        checked = 0
        for n, (d, m) in enumerate(TestPullBackFibres.CASES):
            res = parameterize(NumType(d, m), random_points(9, n, p), seed=n)
            assert len(res.fibres) == res.points.r == 9
            for i, fibre in enumerate(res.fibres):
                assert fibre.dtype == np.int64 and not fibre.flags.writeable, (d, m, i)
                assert fibre.tolist() == fibre_at(res.coeffs, res.points, i).tolist(), (d, m, i)
                checked += 1
            assert [f.size - 1 for f in res.fibres] == list(m) + [0] * (9 - len(m)), (d, m)
        assert checked == 9 * len(TestPullBackFibres.CASES)

    def test_fibres_stay_out_of_equality_hash_and_json(self, points9):
        res = parameterize(TestParameterizePaths.QUARTIC, points9, seed=9)
        other = dataclasses.replace(res, fibres=tuple(reversed(res.fibres)))
        assert [f.tolist() for f in other.fibres] != [f.tolist() for f in res.fibres]
        assert other == res and hash(other) == hash(res)
        assert other.to_json() == res.to_json()
        assert set(res.to_json()) == {"degree", "p", "components"}


def test_parameterization_equals_the_triple_of_its_components():
    phi = parameterize(NumType(8, (3,) * 7), random_points(9, 1), 1)
    t = ParamTriple(phi.coeffs, phi.p)
    assert phi == t and t == phi
    assert hash(phi) == hash(t) and len({phi, t}) == 1
    assert phi != ParamTriple(phi.coeffs[[1, 0, 2]], phi.p)


class TestPushForward:
    """``CremonaStep.push_forward`` undoes ``pull_back`` up to one scalar."""

    @pytest.mark.parametrize("p", [P, 211])
    def test_push_forward_of_every_pull_back_of_a_scan(self, p, monkeypatch):
        from curvesplit.conjscan import scan_conjecture9

        real = CremonaStep.pull_back
        calls = []

        def recording(step, coeffs, fibres):
            out = real(step, coeffs, fibres)
            calls.append((step, coeffs, fibres, out))
            return out

        monkeypatch.setattr(CremonaStep, "pull_back", recording)
        scan_conjecture9(30, 1, p)
        assert len(calls) > 1000
        for step, coeffs, fibres, (pulled, center_fibres) in calls:
            image, image_fibres = step.push_forward(pulled, center_fibres)
            # one nonzero scalar c with image = c * coeffs
            assert image.shape == coeffs.shape, step.centers
            idx = np.unravel_index(np.flatnonzero(coeffs)[0], coeffs.shape)
            c = int(image[idx]) * pow(int(coeffs[idx]), -1, p) % p
            assert c and np.array_equal(image, coeffs * c % p), step.centers
            assert all(np.array_equal(a, b) for a, b in zip(image_fibres, fibres)), step.centers


def _reference_parameterize_once(D, pts, rng):
    """``_parameterize_once`` as it verified before it read the carried
    fibres: a fresh gcd of degree d at every point, which become the
    result's ``fibres``."""
    from curvesplit import param

    p = pts.p
    word, base = reduce_to_base(D)
    classes = [D]
    for quad in word:
        classes.append(reflect(classes[-1], [quad]))
    steps = []
    current = pts
    for quad in word:
        steps.append(cremona_apply(current, quad.i, quad.j, quad.k))
        current = steps[-1].points_after
    coeffs, _ = param._base_curve(base, current, rng)
    fibres = {idx: fibre_at(coeffs, current, idx) for idx in {c - 1 for step in steps for c in step.centers}}
    for step, cls in zip(reversed(steps), reversed(classes[:-1])):
        slots = [c - 1 for c in step.centers]
        coeffs, center_fibres = step.pull_back(coeffs, tuple(fibres[idx] for idx in slots))
        fibres.update(zip(slots, center_fibres))
        got = coeffs.shape[1] - 1
        if got != cls.d:
            raise DegenerateConfigurationError(f"pull-back degree {got}, class predicts {cls.d}")
    try:
        res = Parameterization(coeffs, p, pts, tuple(steps), ())
    except ValueError as exc:
        raise DegenerateConfigurationError(str(exc)) from exc
    if res.degree != D.d:
        raise DegenerateConfigurationError("final degree disagrees with the class")
    gcd_fibres = tuple(fibre_at(res.coeffs, pts, idx) for idx in range(pts.r))
    for idx, m in enumerate(D.m):
        got = gcd_fibres[idx].size - 1
        if got != m:
            raise DegenerateConfigurationError(f"multiplicity {got} != {m} at point {idx + 1}")
    return dataclasses.replace(res, fibres=gcd_fibres)


class TestCarriedFibreVerify:
    """The verify reads the fibres the pull-backs carry; on every type of a
    scan it must decide, attempt by attempt, as the gcd verify did."""

    @staticmethod
    def _scan(monkeypatch, once, p):
        """Each type of ``scan-conj9 --dmax 30 --seed 1`` parameterized as the
        scan does it, with ``once`` as the attempt: (result or error, attempts)."""
        from curvesplit import param

        attempts = [0]

        def counting(D, pts, rng):
            attempts[0] += 1
            return once(D, pts, rng)

        out = []
        with monkeypatch.context() as mp:
            mp.setattr(param, "_parameterize_once", counting)
            for T in sorted(enum_exceptional(9, 30), key=lambda t: t.sort_key()):
                if T.d < 2:
                    continue
                sub_seed = mix_seed(1, T.d, *T.m)
                attempts[0] = 0
                try:
                    res = parameterize(T, random_points(T.r, sub_seed, p), sub_seed)
                except (RetryLimitError, ValueError) as exc:
                    res = f"{type(exc).__name__}: {exc}"
                out.append((T, res, attempts[0]))
        return out

    @pytest.mark.parametrize("p", [P, 211])
    def test_same_results_and_attempts_as_the_gcd_verify(self, p, monkeypatch):
        from curvesplit import param

        got = self._scan(monkeypatch, param._parameterize_once, p)
        want = self._scan(monkeypatch, _reference_parameterize_once, p)
        assert [T for T, _, _ in got] == [T for T, _, _ in want] and len(got) > 150
        for (T, res, n), (_, ref, n_ref) in zip(got, want):
            assert n == n_ref, T
            if isinstance(ref, str):
                assert res == ref, T
                continue
            assert res.to_json() == ref.to_json() and res.points.seed == ref.points.seed, T
            assert [f.tolist() for f in res.fibres] == [f.tolist() for f in ref.fibres], T
            assert _multiplicities(res, res.points) == list(T.m), T

    def test_multiplicity_mismatch_retries(self, points9, monkeypatch):
        # the type asks for the line through points 1 and 4; the first base
        # case hands back the one through points 1 and 3
        from curvesplit import param

        real = param._parameterize_line
        calls = []

        def through_3_first(mults, points, rng, p):
            calls.append(points)
            if len(calls) == 1:
                line = points.coords[[0, 2]].T.copy()
                return line, param._base_fibres(points.r, (0, 2), ([0, 1], [1, 0]), p)
            return real(mults, points, rng, p)

        monkeypatch.setattr(param, "_parameterize_line", through_3_first)
        D = DivClass(1, (1, 0, 0, 1, 0, 0, 0, 0, 0))
        with pytest.raises(DegenerateConfigurationError, match=r"^multiplicity 1 != 0 at point 3$"):
            param._parameterize_once(D, points9, SeededRng(1))

        calls.clear()
        res = parameterize(D, points9, seed=5)
        assert len(calls) == 2 and calls[1] is res.points
        assert res.points.seed == mix_seed(5, 1, 0x52455452)
        assert _multiplicities(res, res.points) == list(D.m)


def _reference_combine(matrix, rows, p):
    """The N^-1 combination as it was first written, nine scales and six
    adds, over Python ints."""
    out = []
    for c in range(3):
        acc = [0] * len(rows[0])
        for l in range(3):
            if not rows[l].any() or matrix[c, l] == 0:
                continue
            acc = [(a + int(matrix[c, l]) * v) % p for a, v in zip(acc, rows[l].tolist())]
        out.append(acc)
    return out


@pytest.mark.parametrize("p", [7, 211, MODULUS, 3037000493])
def test_combine_matches_scale_and_add(p):
    rng = random.Random(p)
    for trial in range(60):
        n = rng.randrange(1, 9)
        rows = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(3)], dtype=np.int64)
        matrix = np.array([[rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(3)] for _ in range(3)])
        if trial % 4 == 0:
            # row 0 cancels: 2 f - 2 f = 0; row 2 of the forms is the zero form
            rows[1] = 2 * rows[0] % p
            rows[2] = 0
            matrix[0] = (2, p - 1, rng.randrange(p))
        got = _combine(matrix, rows, p).tolist()
        want = _reference_combine(matrix, rows, p)
        assert got == want, (matrix, rows)
        if trial % 4 == 0:
            assert not any(got[0])


class _ConstantRng:
    """An rng stub whose every draw is ``value``; counts its draws."""

    def __init__(self, value: int):
        self.value, self.calls = value, 0

    def below(self, n: int) -> int:
        self.calls += 1
        return self.value % n


# every base-case rejection, drawn with every draw equal to 5:
# (reason, degree, multiplicities, points, rng calls of one draw).  The line
# stand-ins are both (1, 5, 5); the conic is M (s^2, st, t^2) with
# M = [a | (5, 5, 5) | 5 b]; the pencil frame is [u | w | center] with
# u = (1, 5, 5) and w = (0, 1, 5), G = 5 (s^2 + st + t^2) and
# H = h s^3 + 5 (s^2 t + s t^2 + t^3), h solved from the simple point.
_A, _B = random_points(2, 3, P).coords.tolist()
_U, _W, _C = np.array([1, 5, 5]), np.array([0, 1, 5]), np.array([1, 7, 3])
_REJECTIONS = [
    ("stand-in points of the line coincide", 1, (0,), [_A], 4),
    ("the line passes through a point of multiplicity 0", 1, (1, 1, 0), [_A, _B, 2 * np.array(_A) + 3 * np.array(_B)], 0),
    ("the conic matrix is singular", 2, (1, 1), [[1, 1, 1], _B], 4),
    # q = M (1, 1, 1)
    ("the conic passes through a point of multiplicity 0", 2, (1, 1, 0), [_A, _B, np.add(_A, 5) + 5 * np.array(_B)], 4),
    ("the pencil frame is singular", 3, (2,), [_U + _W], 3),
    ("the simple point has frame coordinate a = 0", 3, (2, 1), [_C, _W + _C], 3),
    # frame coordinates (1, 1, -1) make h = 0, so t divides H by G
    ("gcd(G, H) != 1", 3, (2, 1), [_C, _U + _W - _C], 3 + 7),
    # q is the curve's point at (s, t) = (1, 2): (G, 2 G, -H) there, through the frame
    ("the pencil curve passes through a point of multiplicity 0", 3, (2, 0), [_C, 35 * _U + 70 * _W - 75 * _C], 3 + 7),
]


class TestBaseCurves:
    """Each base case returns its curve and its fibres over all the points in
    closed form (``param`` module docstring, (i)).  It draws once: a draw
    that misses genericity raises DegenerateConfigurationError with its
    reason, and the attempt loop of ``parameterize`` retries."""

    @staticmethod
    def _bases() -> set[DivClass]:
        """Every base class of the dmax=61 list at r = 9 and of the r <= 7
        family members up to degree 4 (``list7-check --dmax-param 4``)."""
        from curvesplit.conjscan import R7_FAMILIES

        types = [(T, 9) for T in enum_exceptional(9, 61) if T.d >= 1]
        for fam in R7_FAMILIES:
            types += [(fam.member(d), max(fam.member(d).r, 3)) for d in (range(5) if fam.step is not None else (0,))]
        return {reduce_to_base(DivClass(T.d, T.m + (0,) * (r - T.r)))[1] for T, r in types if T.d >= 1}

    @pytest.mark.parametrize("p", [211, MODULUS, 3037000493])
    def test_fibres_are_the_gcd_fibres(self, p):
        bases = sorted(self._bases(), key=lambda D: (D.d, D.m))
        kinds = Counter(min(D.d, 3) for D in bases)
        assert kinds == {1: 21, 2: 15, 3: 75}, kinds
        checked = degenerate = 0
        for base in bases:
            for seed in (1, 2, 3):
                pts = random_points(base.r, mix_seed(seed, base.d, *base.m), p)
                rng = SeededRng(seed)
                # a degenerate draw takes the next attempt's points and rng,
                # as ``parameterize`` does
                for attempt in range(1, 25):
                    try:
                        coeffs, fibres = _base_curve(base, pts, rng)
                        break
                    except DegenerateConfigurationError:
                        degenerate += 1
                        pts = random_points(base.r, mix_seed(seed, attempt, 0x52455452), p)
                        rng = SeededRng(mix_seed(seed, attempt, 0x504152))
                else:
                    pytest.fail(f"{base}: 24 degenerate draws")
                assert coeffs.shape == (3, base.d + 1) and coeffs.dtype == np.int64, base
                assert ((0 <= coeffs) & (coeffs < p)).all(), base
                assert [f.tolist() for f in fibres] == [fibre_at(coeffs, pts, i).tolist() for i in range(pts.r)], base
                assert [f.size - 1 for f in fibres] == list(base.m), base
                checked += 1
        assert checked == 3 * 111
        # the retry path runs at the small prime and never at the large ones
        assert degenerate > 0 if p == 211 else degenerate == 0

    @pytest.mark.parametrize("reason, d, mults, coords, calls", _REJECTIONS, ids=[r[0] for r in _REJECTIONS])
    def test_a_degenerate_draw_raises_its_reason(self, reason, d, mults, coords, calls):
        pts = PointSet(coords, 0, P)
        rng = _ConstantRng(5)
        with pytest.raises(DegenerateConfigurationError, match=f"^{re.escape(reason)}$"):
            _base_curve(DivClass(d, mults), pts, rng)
        assert rng.calls == calls

    @pytest.mark.parametrize("reason, d, mults, coords, calls", _REJECTIONS, ids=[r[0] for r in _REJECTIONS])
    def test_parameterize_retries_a_degenerate_draw(self, monkeypatch, reason, d, mults, coords, calls):
        from curvesplit import param

        seed = 4
        pts = PointSet(coords, 0, P)
        first = mix_seed(seed, 0, 0x504152)
        monkeypatch.setattr(param, "SeededRng", lambda s: _ConstantRng(5) if s == first else SeededRng(s))
        D = DivClass(d, mults)
        with monkeypatch.context() as one_attempt:
            one_attempt.setattr(param, "ATTEMPTS", 1)
            with pytest.raises(RetryLimitError, match=f"after 1 attempts: {re.escape(reason)}$"):
                parameterize(D, pts, seed)
        res = parameterize(D, pts, seed)
        assert res.points.seed == mix_seed(seed, 1, 0x52455452)
        assert _multiplicities(res, res.points) == list(mults)

    def test_refused_multiplicities(self, points9):
        rng = SeededRng(1)
        with pytest.raises(ValueError, match="not a conic type"):
            _parameterize_conic((1, 1, 1, 0, 0, 0, 0, 0, 0), points9, rng, P)
        with pytest.raises(ValueError, match="is not parameterizable"):
            _parameterize_pencil(3, (2, 1, 1, 0, 0, 0, 0, 0, 0), points9, rng, P)
        assert _parameterize_pencil(3, (2, 1, 0, 0, 0, 0, 0, 0, 0), points9, rng, P)


_REFUSALS = [
    (lambda pts: random_points(0, 1), ValueError, "need at least one point"),
    (
        lambda pts: cremona_apply(pts, 2, 1, 3),
        ValueError,
        "center indices (2, 1, 3) must satisfy 1 <= i < j < k <= 9",
    ),
    (
        lambda pts: parameterize(DivClass(3, (2, 1, 1, 1, 1, 0, 0, 0, -1)), pts, 1),
        ValueError,
        "multiplicities must be non-negative",
    ),
    (
        lambda pts: parameterize(NumType(1, (1, 1) + (0,) * 8), pts, 1),
        ValueError,
        "type needs 10 points but only 9 given",
    ),
    (
        lambda pts: parameterize(NumType(1, (1, 1, 1, 1)), pts, 1),
        ValueError,
        "not a line type: multiplicities (1, 1, 1, 1, 0, 0, 0, 0, 0)",
    ),
    # (9; 6, 5, 3) passes the numerics, but its base class does not exist
    (
        lambda pts: parameterize(NumType(9, (6, 5, 3)), pts, 1),
        ParameterizationError,
        "base class DivClass(d=4, m=(1, 0, -2, 0, 0, 0, 0, 0, 0)) has negative multiplicities",
    ),
]


@pytest.mark.parametrize("call, exc, message", _REFUSALS, ids=[message for *_, message in _REFUSALS])
def test_input_refusals(points9, call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$") as info:
        call(points9)
    assert info.type is exc
