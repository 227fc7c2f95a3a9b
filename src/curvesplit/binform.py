"""Homogeneous forms in two variables s, t over F_p.

A form of degree d is an int64 row ``c`` of d+1 reduced coefficients with
``c[i]`` the coefficient of ``s^(d-i) t^i``, and the package passes forms
as such rows.  Every form has a degree, the zero form included: the zero of
degree d is d+1 zero coefficients, as a syzygy of degree k may have zero
components in S_k.  So a product with a zero is the zero of the summed
degree, and zeros of different degrees are different forms.  ``_to_json``
prints every zero as ``[-1, []]`` and ``_to_text`` as ``0``, whatever its
degree.

One kernel, ``_reduce``, divides univariate polynomials in place, and both
``gcd_many`` and ``div_exact`` run on it.  A form t^k u is dehomogenized at
t = 1 into a copy of u(s, 1); the Euclidean algorithm runs on those copies,
and the common power of t is restored once, at the end.  All gcd outputs
are normalized by ``_monic`` so their first nonzero coefficient is 1.
``_conv_mod`` multiplies stacked rows.

``ParamTriple`` holds its three components as one (3, d + 1) array.
``BinForm`` is a row with its modulus and a product, the one-row case of
``_conv_mod``; the benchmark harness alone still builds one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exactla import MODULUS, check_modulus

__all__ = ["BinForm", "gcd_many", "div_exact", "ParamTriple"]

_SPLIT = 1 << 16
# _conv_mod forms all products of a row pair at once while the shorter row
# times the product's length is at most this; past it a convolution is faster
_SKEW_CELLS = 512


def _conv_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact row-by-row convolution modulo p of two stacks of reduced int64
    rows: (k, la) by (k, lb) gives (k, la + lb - 1).  Rows zero-padded on
    the right give products zero-padded on the right.

    Short rows take every product at once, each reduced before the sum: the
    (lb, la) products of a row pair, padded to width la + lb and read back
    as (lb, la + lb - 1), hold b_j a_i at column i + j, so the column sums
    are the product.  Longer rows are convolved one pair at a time, as
    ``np.correlate`` with the longer row reversed (the lighter call), the
    shorter operand split into 16-bit halves, which keeps every partial sum
    below 2**63 for moduli up to ~3e9 and lengths into the thousands.
    """
    if a.shape[1] < b.shape[1]:
        a, b = b, a
    (k, la), lb = a.shape, b.shape[1]
    n = la + lb - 1
    if lb * n <= _SKEW_CELLS:
        buf = np.zeros((k, lb, la + lb), dtype=np.int64)
        prods = buf[:, :, :la]
        np.multiply(a[:, None, :], b[:, :, None], out=prods)
        np.remainder(prods, p, out=prods)
        return buf.reshape(k, -1)[:, : lb * n].reshape(k, lb, n).sum(axis=1) % p
    out = np.empty((k, n), dtype=np.int64)
    for r in range(k):
        x = a[r, ::-1]
        hi, lo = np.divmod(b[r], _SPLIT)
        acc = np.correlate(hi, x, "full")
        acc %= p
        acc *= _SPLIT
        acc += np.correlate(lo, x, "full")
        out[r] = acc
    out %= p
    return out


def _reduce(a: np.ndarray, b: np.ndarray, p: int, q: np.ndarray | None = None) -> np.ndarray:
    """Reduce ``a`` modulo ``b`` in place; return the trimmed remainder, a view of ``a``.

    Both are little-endian univariate polys with reduced int64 coefficients:
    ``a`` writable, ``b`` with a nonzero last coefficient.  Quotient
    coefficient k goes into ``q[k]`` when ``q`` is given.  Each step cancels
    the top coefficient of ``a`` by construction, so it updates only the
    len(b) - 1 below and leaves the cancelled ones unwritten: past the
    returned view, ``a`` holds no remainder.
    """
    nb = b.size
    inv = pow(int(b[-1]), -1, p)
    low = b[:-1] * inv % p
    for k in range(a.size - nb, -1, -1):
        c = int(a[k + nb - 1])
        if c:
            seg = a[k : k + nb - 1]
            seg -= c * low
            seg %= p
            if q is not None:
                q[k] = c * inv % p
    n = min(a.size, nb - 1)
    while n and not a[n - 1]:
        n -= 1
    return a[:n]


def _to_text(row: np.ndarray) -> str:
    """The form of a coefficient row as text, ``0`` for a zero of any degree."""
    if not row.any():
        return "0"
    d = row.size - 1
    parts = []
    for i, c in enumerate(row.tolist()):
        if c == 0:
            continue
        factors = []
        if c != 1:
            factors.append(str(c))
        if d - i > 0:
            factors.append("s" if d - i == 1 else f"s^{d - i}")
        if i > 0:
            factors.append("t" if i == 1 else f"t^{i}")
        if not factors:
            factors.append("1")
        parts.append("*".join(factors))
    return " + ".join(parts)


def _to_json(row: np.ndarray) -> list:
    """[degree, coefficients] of a coefficient row, ``[-1, []]`` for a zero of
    any degree."""
    if not row.any():
        return [-1, []]
    return [row.size - 1, row.tolist()]


class BinForm:
    """A coefficient row with its modulus and a product, immutable after
    construction.  Kept only because the benchmark harness rebinds
    ``BinForm.__mul__`` and multiplies one; ROADMAP item 14 deletes it once
    items 5 and 11 land.  Everything else passes forms as rows."""

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs, p: int = MODULUS):
        check_modulus(p)
        arr = np.remainder(np.asarray(coeffs, dtype=np.int64).ravel(), p)
        if not arr.size:
            raise ValueError("a form of degree d has d + 1 coefficients; got none")
        arr.flags.writeable = False
        self.coeffs = arr
        self.p = p

    def __mul__(self, other: "BinForm") -> "BinForm":
        if self.p != other.p:
            raise ValueError(f"mixed moduli {self.p} and {other.p}")
        return BinForm(_conv_mod(self.coeffs[None], other.coeffs[None], self.p)[0], self.p)


def _monic(row: np.ndarray, p: int) -> np.ndarray:
    """A nonzero coefficient row scaled so its first nonzero entry is 1."""
    return row * pow(int(row[row.nonzero()[0][0]]), -1, p) % p


def gcd_many(rows, p: int) -> np.ndarray:
    """Monic gcd of any number of forms, as reduced int64 coefficient rows
    (zeros allowed, not all zero); a (k, d + 1) array is k rows.

    Each nonzero form t^k u(s, t) is dehomogenized once, into a copy of
    u(s, 1), and the remainder sequence runs in place on those copies.  The
    least k is put back and the result normalized once, at the end.
    """
    acc = None
    t_common = 0
    for f in rows:
        nonzero = f.nonzero()[0]
        if not nonzero.size:
            continue
        t = int(nonzero[0])
        u = f[t:][::-1].copy()
        if acc is None:
            acc, t_common = u, t
        else:
            t_common = min(t_common, t)
            while u.size:
                acc, u = u, _reduce(acc, u, p)
        if acc.size == 1 and t_common == 0:
            break
    if acc is None:
        raise ValueError("gcd of all-zero forms")
    out = np.zeros(t_common + acc.size, dtype=np.int64)
    out[t_common:] = acc[::-1]
    return _monic(out, p)


def div_exact(f: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    """Coefficients of f/g for reduced int64 coefficient rows when g divides
    f exactly; raises ValueError otherwise.

    With f = t^tf u and g = t^tg v, where u(s, 1) and v(s, 1) have degrees
    deg f - tf and deg g - tg and nonzero leading coefficients, an exact
    quotient u(s, 1) / v(s, 1) has degree (deg f - tf) - (deg g - tg) and
    the nonzero leading coefficient lead(u) / lead(v).  So f / g has degree
    deg f - deg g exactly, and no degree check is needed.  A zero f of
    degree at least deg g gives the zero of degree deg f - deg g.
    """
    tg = g.nonzero()[0]
    if not tg.size:
        raise ValueError("division by the zero form")
    tf = f.nonzero()[0]
    if not tf.size:
        if f.size < g.size:
            raise ValueError("non-exact division (degree)")
        return np.zeros(f.size - g.size + 1, dtype=np.int64)
    tf, tg = int(tf[0]), int(tg[0])
    if tf < tg:
        raise ValueError("non-exact division (t power)")
    out = np.zeros(max(f.size - g.size + 1, 0), dtype=np.int64)
    # the s^k coefficient of u / v is the s^(deg f - deg g - k) t^k one of f / g
    if _reduce(f[tf:][::-1].copy(), g[tg:][::-1], p, out[tf - tg :][::-1]).size:
        raise ValueError("non-exact division (nonzero remainder)")
    return out


@dataclass(frozen=True, eq=False)
class ParamTriple:
    """Three coprime binary forms of equal degree d >= 1: a map P^1 -> P^2.

    ``coeffs`` is the read-only (3, d + 1) int64 array of the components'
    reduced coefficient rows.  The components must not have a common factor.
    That also makes the image a curve: proportional components would share
    their common form, of degree d >= 1, as a factor.  Equality and hash are
    (p, coeffs), so a subclass instance equals the plain triple of its
    components.
    """

    coeffs: np.ndarray
    p: int

    def __post_init__(self):
        check_modulus(self.p)
        arr = np.remainder(np.asarray(self.coeffs, dtype=np.int64), self.p)
        if arr.ndim != 2 or len(arr) != 3:
            raise ValueError("a triple is three rows of d + 1 coefficients")
        if arr.shape[1] < 2:
            raise ValueError("parameterization degree must be >= 1")
        g = gcd_many(arr, self.p)
        if g.size != 1:
            raise ValueError(f"components share the factor {_to_text(g)}")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamTriple):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs.tobytes()))

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "p": self.p,
            "components": [_to_json(row) for row in self.coeffs],
        }
