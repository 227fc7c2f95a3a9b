"""Explicit parameterization of rational plane curves over F_p.

Given a numerical type and random points, the engine reduces the class by
greedy quadratic reflections (mirrored geometrically by Cremona maps centered
at triples of points), parameterizes the base case in closed form, and
back-substitutes through the inverse maps.  Each base case returns its curve
with its fibres over all the points, which its construction fixes, so no gcd
finds them; each inverse map then divides the components by the fibres over
its centers, hands back the fibres over the centers it restores and passes
every other fibre on unchanged.  The verify reads each multiplicity m_i as
the degree of the fibre carried to point i, so neither a step nor the verify
needs a gcd of degree d.  The chain runs on int64 arrays from the base
curve to ``Parameterization``: the curve as its (3, d + 1) coefficient
array, the fibres as rows, and one kernel, ``_bracket``, for the divisions
and products of a step in either direction.

The carried fibres are the gcd fibres exactly, so the verify decides as a
gcd would.  The fibre of f = (f_0, f_1, f_2) over q is the monic gcd of the
components of f x q; ``fibre_at`` takes two of them, which generate the
third.  Its roots, with their orders, are the parameters sent to q, and an
invertible A changes no fibre, since Af x Aq is f x q times the invertible
cofactor matrix of A.  Call f coprime when its components have no common
root over the algebraic closure.  By induction over the steps, last first:

(i)   Every base curve is coprime, and its fibres are as built; a base
      curve through a point of multiplicity 0 is a degenerate
      configuration.  The line s a + t b, a != b: t over a, s over b.
      The conic M v, v = (s^2, st, t^2), M = [a | c | beta b]
      invertible: v never vanishes, and the fibre over q is v's over
      M^{-1} q: t over e_0 (q = a), s over e_2 (q = b), 1 off y1^2 = y0 y2.
      The pencil curve, a frame change of (s G, t G, -H) with the center at
      (0, 0, 1): gcd(G, H) = 1 is checked.  At q = (a, b, c), f x q is
      (c t G + b H, -c s G - a H, (b s - a t) G), so the fibre over the
      center is monic(G); over any other point it divides b s - a t (at a
      root of G, b H and -a H are not both 0), with equality exactly when
      H(a, b) + c G(a, b) = 0, as the simple point imposes.
(ii)  A pull-back of a coprime curve with exact fibres over its centers is
      coprime, with exact fibres monic(h_c) over the centers; so is a
      push-forward, its inverse, with the centers' images e_0, e_1, e_2
      (``CremonaStep``).
(iii) Either direction keeps the fibre over every point that is not a
      center (``CremonaStep``).

``multiplicity_at`` computes the gcd itself and stays the independent check
of the tests.

Randomness over a large prime field stands in for genericity: every
degenerate configuration (collinear centers, a point landing on a fundamental
line, a base draw that misses genericity) raises
DegenerateConfigurationError with its reason.  Each base case draws once;
the attempt loop of ``parameterize`` is the only retry, on points and a base
rng regenerated deterministically from seed + attempt counter, for at most
``ATTEMPTS`` attempts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .binform import ParamTriple, _conv_mod, _monic, div_exact, gcd_many
from .exactla import MODULUS, check_modulus
from .lattice import DivClass, NumType, reduce_to_base, reflect, smooth_rational_numerics_ok

__all__ = [
    "DegenerateConfigurationError",
    "RetryLimitError",
    "SeededRng",
    "mix_seed",
    "genericity_certificate",
    "PointSet",
    "random_points",
    "CremonaStep",
    "cremona_apply",
    "fibre_at",
    "multiplicity_at",
    "ParameterizationError",
    "Parameterization",
    "parameterize",
]


_MASK = (1 << 64) - 1
# point sets random_points draws before it gives up on the modulus
POINT_TRIES = 32
# configurations parameterize tries before it gives up on the modulus
ATTEMPTS = 24


def _combine(matrix: np.ndarray, coeffs: np.ndarray, p: int) -> np.ndarray:
    """The (3, n) rows matrix @ coeffs mod p, each product reduced before the
    sum, for a 3x3 matrix and the coefficients of three forms of one degree."""
    return (matrix[:, :, None] * coeffs[None] % p).sum(axis=1) % p


def _cross(u, v, p: int) -> tuple[int, int, int]:
    """The cross product u x v over F_p."""
    (u0, u1, u2), (v0, v1, v2) = u, v
    return ((u1 * v2 - u2 * v1) % p, (u2 * v0 - u0 * v2) % p, (u0 * v1 - u1 * v0) % p)


def _inverse3(m, p: int) -> np.ndarray | None:
    """Inverse of a 3x3 matrix over F_p as a read-only int64 array, or None
    when it is singular.

    Row i of the inverse is the cross product of columns i+1 and i+2 of m
    (indices mod 3) divided by det m; det m is the dot product of the first
    such row with column 0.
    """
    cols = np.asarray(m, dtype=np.int64).T.tolist()
    rows = [_cross(cols[(i + 1) % 3], cols[(i + 2) % 3], p) for i in range(3)]
    det = sum(a * b for a, b in zip(rows[0], cols[0])) % p
    if det == 0:
        return None
    inv = pow(det, -1, p)
    arr = np.array([[v * inv % p for v in row] for row in rows], dtype=np.int64)
    arr.flags.writeable = False
    return arr


class DegenerateConfigurationError(RuntimeError):
    """A random configuration failed a genericity requirement; retry."""


class RetryLimitError(RuntimeError):
    """Deterministic retries were exhausted (modulus too small for the task)."""


class SeededRng:
    """splitmix64: tiny, portable, and stable across platforms."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next_u64() % n


def mix_seed(*parts: int) -> int:
    """Deterministically fold integers into one 64-bit sub-seed."""
    state = 0x243F6A8885A308D3
    for part in parts:
        rng = SeededRng(state ^ (part & _MASK))
        state = rng.next_u64()
    return state


def _line_through(a, b, p: int) -> tuple[int, int, int]:
    """Coefficients of the line through two distinct points (cross product)."""
    line = _cross(a, b, p)
    if line == (0, 0, 0):
        raise ValueError("points coincide; no unique line")
    return line


# for six points a < b < c < d < e < f: [abc] [aef] [bdf] [cde], then [abf] [ace] [bcd] [def]
_CONIC_BRACKETS = ((0, 1, 2), (0, 4, 5), (1, 3, 5), (2, 3, 4), (0, 1, 5), (0, 2, 4), (1, 2, 3), (3, 4, 5))


@lru_cache(maxsize=None)
def _bracket_tables(r: int) -> tuple[np.ndarray, np.ndarray]:
    """The triples i < j < k of r points, and for every six of them the
    indices among those triples of the eight brackets of ``_CONIC_BRACKETS``."""
    triples = list(itertools.combinations(range(r), 3))
    index = {t: n for n, t in enumerate(triples)}
    sixes = [[index[s[i], s[j], s[k]] for i, j, k in _CONIC_BRACKETS] for s in itertools.combinations(range(r), 6)]
    return np.array(triples, dtype=np.int64).reshape(-1, 3), np.array(sixes, dtype=np.int64).reshape(-1, 8)


def genericity_certificate(coords: np.ndarray, p: int) -> bool:
    """Pairwise distinct, no 3 collinear, no 6 on a conic, read off the
    brackets [ijk] = det(x_i, x_j, x_k) of every triple of the normalized
    (r, 3) rows ``coords``.

    Three points are collinear exactly when their bracket is 0.  Six points
    a < b < c < d < e < f lie on a conic exactly when the 6x6 determinant of
    their conic evaluation rows (columns in ``monomials(2)`` order) is 0, and
    that determinant is [abc][aef][bdf][cde] - [abf][ace][bcd][def] (the
    bracket ring; Sturmfels, Algorithms in Invariant Theory, 1993).  Both
    sides are integer polynomials in the 18 coordinates; expanded over Z they
    are the same 720 terms with coefficients +-1 (the tests expand them), so
    the identity holds mod every p.  Every product of two reduced entries is
    reduced before it is added to anything, so no int64 intermediate exceeds
    (p - 1)**2 < 2**63, and a bracket sums three reduced products.
    """
    if len(set(map(tuple, coords.tolist()))) != len(coords):
        return False
    triples, sixes = _bracket_tables(len(coords))
    x, y, z = (coords[triples[:, i]] for i in range(3))
    cross = (y[:, [1, 2, 0]] * z[:, [2, 0, 1]] % p - y[:, [2, 0, 1]] * z[:, [1, 2, 0]] % p) % p
    brackets = (x * cross % p).sum(axis=1) % p
    if not brackets.all():
        return False
    b = brackets[sixes]
    lhs = b[:, 0] * b[:, 1] % p * b[:, 2] % p * b[:, 3] % p
    rhs = b[:, 4] * b[:, 5] % p * b[:, 6] % p * b[:, 7] % p
    return bool((lhs != rhs).all())


@dataclass(frozen=True, eq=False)
class PointSet:
    """r points of the plane over F_p as one read-only (r, 3) int64 array,
    each row reduced and scaled so its first nonzero coordinate is 1 (equal
    rows, equal points), and the seed that drew them; compared by value."""

    coords: np.ndarray
    seed: int
    p: int = MODULUS

    def __post_init__(self):
        check_modulus(self.p)
        x = np.asarray(self.coords, dtype=np.int64)
        x = np.remainder(x.reshape(len(x), 3), self.p)
        lead = x[np.arange(len(x)), (x != 0).argmax(axis=1)].tolist()
        if 0 in lead:
            raise ValueError("(0, 0, 0) is not a projective point")
        x = x * np.array([pow(v, -1, self.p) for v in lead], dtype=np.int64)[:, None] % self.p
        x.flags.writeable = False
        object.__setattr__(self, "coords", x)

    @property
    def r(self) -> int:
        return len(self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.p == other.p and self.seed == other.seed and np.array_equal(self.coords, other.coords)

    def __hash__(self) -> int:
        return hash((self.p, self.seed, self.coords.tobytes()))


def random_points(r: int, seed: int, p: int = MODULUS) -> PointSet:
    """Deterministic generic points; retries fold a counter into the seed."""
    if r < 1:
        raise ValueError("need at least one point")
    check_modulus(p)
    for attempt in range(POINT_TRIES):
        rng = SeededRng(mix_seed(seed, attempt, 0x70494E54))
        coords = np.array([(1, rng.below(p), rng.below(p)) for _ in range(r)], dtype=np.int64)
        if genericity_certificate(coords, p):
            return PointSet(coords, seed, p)
    raise RetryLimitError(f"no generic configuration of {r} points found mod {p}")


def _pad(rows: tuple[np.ndarray, ...] | list[np.ndarray]) -> np.ndarray:
    """Rows of unequal lengths as one int64 array, zero-padded on the right."""
    out = np.zeros((len(rows), max(row.size for row in rows)), dtype=np.int64)
    for dst, row in zip(out, rows):
        dst[: row.size] = row
    return out


def _pair_products(rows: np.ndarray, p: int) -> np.ndarray:
    """(x_1 x_2, x_0 x_2, x_0 x_1) for three stacked rows x_c, in one
    ``_conv_mod``."""
    return _conv_mod(rows.take((1, 0, 0), axis=0), rows.take((2, 2, 1), axis=0), p)


def _bracket(
    coeffs: np.ndarray, fibres: tuple[np.ndarray, ...], p: int
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The bracket B = (g_0 h_1 h_2, g_1 h_0 h_2, g_2 h_0 h_1) of a curve
    and its fibres over the centers, monic(h_0), monic(h_1), monic(h_2).

    ``coeffs`` is the (3, d + 1) array of the components f_c, ``fibres``
    their monic fibres g_0, g_1, g_2 over e_0, e_1, e_2 as int64 rows, and
    h_0 = f_0 / (g_1 g_2) and so on (``CremonaStep``).  The products run on
    stacked rows zero-padded on the right, so each is one ``_conv_mod``; the
    bracket's rows all have degree 2d - deg g_0 - deg g_1 - deg g_2.  A zero
    component, or a fibre product that does not divide its component, is a
    degenerate configuration.
    """
    sizes = [g.size for g in fibres]
    gs = _pad(fibres)
    prods = _pair_products(gs, p)
    hs = []
    for c, (f, (i, j)) in enumerate(zip(coeffs, ((1, 2), (0, 2), (0, 1)))):
        if not f.any():
            raise DegenerateConfigurationError("image curve lies on a fundamental line")
        try:
            hs.append(div_exact(f, prods[c, : sizes[i] + sizes[j] - 1], p))
        except ValueError as exc:
            raise DegenerateConfigurationError(f"fibre product does not divide component {c}: {exc}") from exc
    hp = _pad(hs)
    bracket = _conv_mod(gs, _pair_products(hp, p), p)
    width = 2 * coeffs.shape[1] + 2 - sum(sizes)
    return bracket[:, :width], tuple(_monic(h, p) for h in hs)


@dataclass(frozen=True)
class CremonaStep:
    """One quadratic Cremona map centered at three of the current points.

    The map is x -> sigma(N x): ``n_matrix`` N, a read-only int64 array
    whose rows h_jk, h_ik, h_ij are the lines joining the centers, sends the
    centers to the coordinate triangle, then the standard involution
    sigma(y) = (y1 y2, y0 y2, y0 y1) follows.  N is fixed by the points and
    the centers, so equality and hash leave it out.
    The three center slots of ``points_after`` hold the coordinate points
    e_0, e_1, e_2.  The inverse map is N^{-1} after sigma; ``pull_back``
    composes it with a parameterization f = (f_0, f_1, f_2) of the image
    curve, and ``push_forward`` composes the map with a curve through the
    centers.  Both go through one kernel, the bracket B below (``_bracket``):
    ``pull_back`` returns N^{-1} B(f), ``push_forward`` B(N f).  Let f be
    coprime with no zero component (``_bracket`` refuses one) and g_c its
    monic fibre over e_c, so
    g_0 = gcd(f_1, f_2), g_1 = gcd(f_0, f_2) and g_2 = gcd(f_0, f_1).

    (ii) The pull-back is coprime, and its fibres over the centers are
    monic(h_0), monic(h_1), monic(h_2).
      - g_i and g_j (i != j) are coprime: a common root would kill all
        three components.  So f_0 = g_1 g_2 h_0, f_1 = g_0 g_2 h_1 and
        f_2 = g_0 g_1 h_2.
      - g_i and h_i are coprime: g_0 divides f_1 and f_2, h_0 divides f_0.
      - h_i and h_j are coprime: a common root t of h_0 and h_1 is a root
        of f_0 and f_1, so of g_2 and of neither g_0 nor g_1; then
        ord_t f_0 = ord_t g_2 + ord_t h_0 and ord_t f_1 = ord_t g_2 +
        ord_t h_1 both exceed ord_t g_2 = min(ord_t f_0, ord_t f_1).
    Hence sigma(f) = g_0 g_1 g_2 B with the bracket
    B = (g_0 h_1 h_2, g_1 h_0 h_2, g_2 h_0 h_1).  B has no common root: at
    a root of g_0, B_1 and B_2 vanish only through h_2 and h_1, which share
    none; at a root of h_1 (or h_2), B_1 (or B_2) does not vanish.  So the
    pull-back N^{-1} B is coprime.  N sends center i to a multiple of e_0
    (the centers are not collinear), so the pull-back's fibre over
    center i is that of B over e_0, gcd(B_1, B_2) =
    h_0 gcd(g_1 h_2, g_2 h_1) = monic(h_0): g_1 and h_2 are each prime to
    g_2 and to h_1.  Centers j and k likewise.

    (iii) Any other point q keeps its fibre: the pull-back's fibre over q
    is f's over q' = sigma(N q).  ``cremona_apply`` refuses every point
    whose image has two zero coordinates, which is every point with a zero
    coordinate in y = N q, so neither y nor q' has one.  At a root of any
    g_c or h_c a component of B, and one of f, vanishes, so no root of
    either fibre is one.  Away from those roots, with H = h_0 h_1 h_2,
    f = sigma(B) / H and the ratios u_a = B_a / B_0 are units; the
    fibre of B over y has the local ideal (u_1 - y_1/y_0, u_2 - y_2/y_0),
    that of f over q' has (1/u_1 - y_0/y_1, 1/u_2 - y_0/y_2), and
    1/u_a - y_0/y_a = -y_0 / (u_a y_a) * (u_a - y_a/y_0).  So the two fibres
    have the same roots, each of the same order.

    The push-forward.  N sends center i to a multiple of e_0, and an
    invertible map changes no fibre, so a coprime curve f through the
    centers with exact fibres over them makes N f coprime with those fibres
    over e_0, e_1, e_2, and (ii) holds for B(N f) as it stands.  The two
    directions are inverse up to one scalar: with l_c the leading
    coefficient of h_c, B(f) has the fibres monic(h_c), its quotients are
    l_1 l_2 g_0, l_0 l_2 g_1 and l_0 l_1 g_2, and B(B(f)) = l_0 l_1 l_2 f.
    So f is, up to that scalar, the pull-back of B(N f), and (iii) for that
    pull-back is (iii) for the push-forward.

    A parameterization keeps its steps in ``Parameterization.steps``.
    """

    centers: tuple[int, int, int]
    points_before: PointSet
    points_after: PointSet
    n_matrix: np.ndarray = field(compare=False)

    @property
    def quad_forms(self) -> np.ndarray:
        """The forward conics sigma(N x), each a product of two lines a, b, as
        a read-only (3, 6) int64 array in the order x0^2, x0x1, x0x2, x1^2,
        x1x2, x2^2; x_i x_j (i < j) has a_i b_j + a_j b_i, products reduced."""
        h, p = self.n_matrix, self.points_before.p
        prods = h[[1, 0, 0], :, None] * h[[2, 2, 1], None, :] % p
        i, j = np.triu_indices(3)
        forms = (prods[:, i, j] + prods[:, j, i] * (i != j)) % p
        forms.flags.writeable = False
        return forms

    def pull_back(
        self, coeffs: np.ndarray, fibres: tuple[np.ndarray, ...]
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Compose the inverse map with a parameterization of the image curve.

        ``coeffs`` is the (3, d + 1) array of the image curve's components
        and ``fibres`` its monic fibres g_0, g_1, g_2 over the coordinate
        points e_0, e_1, e_2, as int64 rows.  Returns N^{-1} (g_0 h_1 h_2,
        g_1 h_0 h_2, g_2 h_0 h_1), where h_0 = f_0 / (g_1 g_2) and so on, and
        the fibres of that curve over the centers, monic(h_0), monic(h_1)
        and monic(h_2) in center order, exact by (ii) of the class
        docstring (``_bracket``).  The caller checks the degree against the
        reflected class.  A fibre product that does not divide its component
        is a degenerate configuration.
        """
        p = self.points_before.p
        bracket, center_fibres = _bracket(coeffs, fibres, p)
        return _combine(_inverse3(self.n_matrix, p), bracket, p), center_fibres

    def push_forward(
        self, coeffs: np.ndarray, fibres: tuple[np.ndarray, ...]
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Compose the map with a parameterization of a curve through the
        centers: the inverse of ``pull_back``, up to one nonzero scalar.

        ``coeffs`` is the (3, d + 1) array of the curve's components and
        ``fibres`` its monic fibres over the centers in center order, which
        are those of N f over e_0, e_1, e_2.  Returns the bracket of N f,
        sigma(N f) divided by the product of those fibres, and its monic
        fibres over e_0, e_1, e_2, exact by (ii) of the class docstring.
        """
        p = self.points_before.p
        return _bracket(_combine(self.n_matrix, coeffs, p), fibres, p)

    def to_json(self) -> dict:
        return {
            "centers": list(self.centers),
            "quad_forms": self.quad_forms.tolist(),
            "points_before": self.points_before.coords.tolist(),
            "points_after": self.points_after.coords.tolist(),
        }


def cremona_apply(points: PointSet, i: int, j: int, k: int) -> CremonaStep:
    """Quadratic Cremona map centered at points i, j, k (1-based indices).

    All r points go through N in one product, then through sigma.  A point
    other than a center whose image has two zero coordinates lies on a
    fundamental line; the lowest such index is reported.  The image points
    keep the seed of ``points``.
    """
    r, p = points.r, points.p
    if not (1 <= i < j < k <= r):
        raise ValueError(f"center indices ({i}, {j}, {k}) must satisfy 1 <= i < j < k <= {r}")
    x = points.coords
    pi, pj, pk = x[[i - 1, j - 1, k - 1]].tolist()
    n_matrix = np.array([_line_through(pj, pk, p), _line_through(pi, pk, p), _line_through(pi, pj, p)], dtype=np.int64)
    n_matrix.flags.writeable = False
    y0, y1, y2 = _combine(n_matrix, x.T, p)
    if y0[i - 1] == 0:
        raise DegenerateConfigurationError("collinear centers")

    images = np.stack([y1 * y2 % p, y0 * y2 % p, y0 * y1 % p])
    slots = [i - 1, j - 1, k - 1]
    on_line = (images == 0).sum(axis=0) >= 2
    on_line[slots] = False
    if on_line.any():
        raise DegenerateConfigurationError(f"point {int(on_line.argmax()) + 1} lies on a fundamental line")
    images[:, slots] = np.eye(3, dtype=np.int64)
    after = PointSet(images.T, points.seed, p)
    if len(set(map(tuple, after.coords.tolist()))) != r:
        raise DegenerateConfigurationError("transformed points collide")
    return CremonaStep((i, j, k), points, after, n_matrix)


def fibre_at(coeffs: np.ndarray, points: PointSet, i: int) -> np.ndarray:
    """Monic fibre, as a coefficient row, of the curve whose components are
    the rows of the (3, d + 1) array ``coeffs`` over row i of ``points``.

    With the point normalized at its first nonzero coordinate c, the
    parameter values mapping to the point are the common roots of
    phi_a - x_a phi_c and phi_b - x_b phi_c; the fibre is their gcd, a
    constant off the curve.
    """
    p, x = points.p, points.coords[i]
    c = x.tolist().index(1)  # the first nonzero coordinate, scaled to 1
    others = [a for a in range(3) if a != c]
    diffs = (coeffs[others] - x[others, None] * coeffs[c] % p) % p
    if not diffs.any():
        raise ValueError("components are proportional at this point; not a curve")
    return gcd_many(diffs, p)


def multiplicity_at(phi: ParamTriple, points: PointSet, i: int) -> int:
    """Multiplicity of the parameterized curve at row i of ``points``: the
    degree of its gcd fibre there, which counts the parameters over the
    point with multiplicity (0 off the curve).

    ``parameterize`` does not call it: it reads the fibres it carries.  This
    is the independent check the tests hold those against.
    """
    if phi.p != points.p:
        raise ValueError("mixed moduli")
    return fibre_at(phi.coeffs, points, i).size - 1


def _base_fibres(r: int, slots, fibres, p: int) -> list[np.ndarray]:
    """Monic fibres over r points as int64 rows: monic(``fibres[n]``) over
    point ``slots[n]``, zipped, and the constant 1 over every other point."""
    out = [np.ones(1, dtype=np.int64) for _ in range(r)]
    for idx, fibre in zip(slots, fibres):
        out[idx] = _monic(np.array(fibre, dtype=np.int64) % p, p)
    return out


def _pencil_at(gvec: list[int], hvec: list[int], point: list[int], p: int) -> int:
    """H(a, b) + c G(a, b) at the frame coordinates (a, b, c) of a point
    other than the center: zero exactly when the pencil curve (s G, t G, -H)
    passes through it (module docstring, (i))."""
    a, b, c = point
    d = len(hvec) - 1
    h_at = sum(h * pow(a, d - k, p) * pow(b, k, p) for k, h in enumerate(hvec))
    g_at = sum(g * pow(a, d - 1 - k, p) * pow(b, k, p) for k, g in enumerate(gvec))
    return (h_at + c * g_at) % p


def _parameterize_line(mults, points: PointSet, rng: SeededRng, p: int):
    """The line s a + t b through the points of multiplicity 1, random points
    standing in for missing ones: its (3, 2) coefficient array [a | b] and its
    fibres over all the points (module docstring, (i)).  Stand-in points that
    coincide, or a line through a point of multiplicity 0, are a degenerate
    configuration."""
    assigned = [idx for idx, m in enumerate(mults) if m == 1]
    if any(m not in (0, 1) for m in mults) or len(assigned) > 2:
        raise ValueError(f"not a line type: multiplicities {mults}")
    rows = [tuple(x) for x in points.coords.tolist()]
    cand = [rows[idx] for idx in assigned] + [(1, rng.below(p), rng.below(p)) for _ in range(2 - len(assigned))]
    if len(set(cand)) != 2:
        raise DegenerateConfigurationError("stand-in points of the line coincide")
    line = _line_through(cand[0], cand[1], p)
    if any(sum(a * b for a, b in zip(line, q)) % p == 0 for q, m in zip(rows, mults) if m == 0):
        raise DegenerateConfigurationError("the line passes through a point of multiplicity 0")
    return np.array(cand, dtype=np.int64).T, _base_fibres(points.r, assigned, ([0, 1], [1, 0]), p)


def _parameterize_conic(mults, points: PointSet, rng: SeededRng, p: int):
    """The conic M (s^2, st, t^2), M = [a | c | beta b], through the points a,
    b of multiplicity 1, random points standing in for missing ones, with c
    and beta random: M and the fibres over all the points (module docstring,
    (i)).  A singular M, or a conic through a point q of multiplicity 0, that
    is y = M^{-1} q has y1^2 = y0 y2, is a degenerate configuration."""
    assigned = [idx for idx, m in enumerate(mults) if m == 1]
    if any(m not in (0, 1) for m in mults) or len(assigned) > 2:
        raise ValueError(f"not a conic type: multiplicities {mults}")
    avoid = points.coords[[idx for idx, m in enumerate(mults) if m == 0]].T
    a, b = points.coords[assigned].tolist() + [[1, rng.below(p), rng.below(p)] for _ in range(2 - len(assigned))]
    c = [rng.below(p) for _ in range(3)]
    beta = rng.below(p)
    mat = np.array([a, c, [beta * v % p for v in b]], dtype=np.int64).T
    inv = _inverse3(mat, p)
    if inv is None:
        raise DegenerateConfigurationError("the conic matrix is singular")
    y0, y1, y2 = _combine(inv, avoid, p)
    if (y1 * y1 % p == y0 * y2 % p).any():
        raise DegenerateConfigurationError("the conic passes through a point of multiplicity 0")
    return mat, _base_fibres(points.r, assigned, ([0, 1], [1, 0]), p)


def _parameterize_pencil(d: int, mults, points: PointSet, rng: SeededRng, p: int):
    """Degree-d curve with a (d-1)-fold point: swept by the lines through it.

    With the multiple point moved to (0, 0, 1) by a random frame, such a
    curve is (s G, t G, -H) for random binary forms G, H of degrees d-1 and
    d.  A simple point of frame coordinates (a, b, c) fixes the s^d
    coefficient of H through H(a, b) + c G(a, b) = 0.  A singular frame, a
    simple point at a = 0, G and H with a common factor, or a curve through a
    point of multiplicity 0 is a degenerate configuration.  Returns the
    (3, d + 1) coefficient array and the fibres over all the points (module
    docstring, (i)).
    """
    center = [idx for idx, m in enumerate(mults) if m == d - 1]
    simple = [idx for idx, m in enumerate(mults) if m == 1]
    if d < 3 or len(center) != 1 or len(simple) > 1 or any(m not in (0, 1, d - 1) for m in mults):
        raise ValueError(f"base class of degree {d} with multiplicities {mults} is not parameterizable")
    u = np.array([1, rng.below(p), rng.below(p)], dtype=np.int64)
    w = np.array([0, 1, rng.below(p)], dtype=np.int64)
    umat = np.vstack([u, w, points.coords[center[0]]]).T % p
    uinv = _inverse3(umat, p)
    if uinv is None:
        raise DegenerateConfigurationError("the pencil frame is singular")
    # frame coordinates (a, b, c) of every point
    frame = _combine(uinv, points.coords.T, p).T.tolist()
    if any(frame[idx][0] == 0 for idx in simple):
        raise DegenerateConfigurationError("the simple point has frame coordinate a = 0")
    coeffs = [rng.below(p) for _ in range(2 * d + 1)]
    gvec, hvec = coeffs[:d], coeffs[d:]
    for idx in simple:
        hvec[0] = 0
        hvec[0] = -_pencil_at(gvec, hvec, frame[idx], p) * pow(frame[idx][0], -d, p) % p
    if not any(gvec) or gcd_many([np.array(v, dtype=np.int64) for v in (gvec, hvec)], p).size != 1:
        raise DegenerateConfigurationError("gcd(G, H) != 1")
    if any(_pencil_at(gvec, hvec, frame[idx], p) == 0 for idx, m in enumerate(mults) if m == 0):
        raise DegenerateConfigurationError("the pencil curve passes through a point of multiplicity 0")
    # (s G, t G, -H) in the normalized frame, then back through the frame
    # change
    curve = np.zeros((3, d + 1), dtype=np.int64)
    curve[0, :d] = curve[1, 1:] = gvec
    curve[2] = [-h % p for h in hvec]
    fibres = [gvec] + [[frame[idx][1], -frame[idx][0]] for idx in simple]  # G, b s - a t
    return _combine(umat, curve, p), _base_fibres(points.r, center + simple, fibres, p)


class ParameterizationError(ValueError):
    """The requested type cannot be parameterized by this engine."""


@dataclass(frozen=True, eq=False)
class Parameterization(ParamTriple):
    """A triple with the points it was built through and verified at (the
    given points, or the retried set after a degenerate configuration), the
    Cremona steps of its reduction, the first starting at those points, and
    its monic fibres over those points in point order as read-only int64
    rows, carried through the pull-backs (module docstring).

    Equality, hash and ``to_json`` are the triple's.
    """

    points: PointSet
    steps: tuple[CremonaStep, ...]
    fibres: tuple[np.ndarray, ...]


def _base_curve(base: DivClass, points: PointSet, rng: SeededRng) -> tuple[np.ndarray, list[np.ndarray]]:
    """The curve of class ``base`` through ``points``: its (3, d + 1)
    coefficient array and its monic fibres over the points, in point order."""
    if any(m < 0 for m in base.m):
        raise ParameterizationError(f"base class {base} has negative multiplicities")
    if base.d == 1:
        return _parameterize_line(base.m, points, rng, points.p)
    if base.d == 2:
        return _parameterize_conic(base.m, points, rng, points.p)
    return _parameterize_pencil(base.d, base.m, points, rng, points.p)


def _parameterize_once(D: DivClass, pts: PointSet, rng: SeededRng) -> Parameterization:
    p = pts.p
    word, base = reduce_to_base(D)
    classes = [D]
    for quad in word:
        classes.append(reflect(classes[-1], [quad]))
    steps: list[CremonaStep] = []
    current = pts
    for quad in word:
        step = cremona_apply(current, quad.i, quad.j, quad.k)
        steps.append(step)
        current = step.points_after

    # each pull-back replaces the fibres over its own centers and keeps the
    # rest (module docstring)
    coeffs, fibres = _base_curve(base, current, rng)
    for step, cls in zip(reversed(steps), reversed(classes[:-1])):
        slots = [c - 1 for c in step.centers]
        coeffs, center_fibres = step.pull_back(coeffs, tuple(fibres[idx] for idx in slots))
        for idx, fibre in zip(slots, center_fibres):
            fibres[idx] = fibre
        got = coeffs.shape[1] - 1
        if got != cls.d:
            raise DegenerateConfigurationError(f"pull-back degree {got}, class predicts {cls.d}")

    for fibre in fibres:
        fibre.flags.writeable = False
    try:
        res = Parameterization(coeffs, p, pts, tuple(steps), tuple(fibres))
    except ValueError as exc:
        raise DegenerateConfigurationError(str(exc)) from exc
    if res.degree != D.d:
        raise DegenerateConfigurationError("final degree disagrees with the class")
    for idx, m in enumerate(D.m):
        got = res.fibres[idx].size - 1
        if got != m:
            raise DegenerateConfigurationError(f"multiplicity {got} != {m} at point {idx + 1}")
    return res


def parameterize(ntype: NumType | DivClass, points: PointSet, seed: int) -> Parameterization:
    """Parameterize a curve of the given type through the given points.

    The i-th multiplicity is imposed at the i-th point and verified there
    (a mismatch is a degenerate configuration).  The type must pass the
    rational-smoothness numerics and have degree >= 1.  A degenerate
    configuration retries on fresh points drawn from seed and the attempt
    counter, up to ``ATTEMPTS`` configurations in all.  The result's
    ``points``, and so its first step's ``points_before``, are the given
    ones when the first attempt succeeds and the retried set otherwise.
    """
    D = ntype.to_divclass() if isinstance(ntype, NumType) else ntype
    if D.d < 1:
        raise ValueError("degree must be >= 1")
    if any(m < 0 for m in D.m):
        raise ValueError("multiplicities must be non-negative")
    if not smooth_rational_numerics_ok(D):
        raise ValueError(f"{D} fails the rational smoothness numerics")
    if D.r > points.r:
        raise ValueError(f"type needs {D.r} points but only {points.r} given")
    if D.r < points.r:
        D = DivClass(D.d, D.m + (0,) * (points.r - D.r))

    pts = points
    last = "no attempt"
    for attempt in range(ATTEMPTS):
        if attempt:
            pts = random_points(points.r, mix_seed(seed, attempt, 0x52455452), points.p)
        rng = SeededRng(mix_seed(seed, attempt, 0x504152))
        try:
            return _parameterize_once(D, pts, rng)
        except DegenerateConfigurationError as exc:
            last = str(exc)
    raise RetryLimitError(f"parameterization failed after {ATTEMPTS} attempts: {last}")
