"""Homogeneous forms in two variables s, t over F_p.

A form of degree d is a coefficient vector ``c`` of length d+1 with ``c[i]``
the coefficient of ``s^(d-i) t^i``.  The zero form carries an explicit flag
(empty coefficient vector); its degree is undefined.

gcds are computed by splitting off the common power of t, dehomogenizing at
t = 1, running the Euclidean algorithm on univariate polynomials, and
rehomogenizing.  All gcd outputs are normalized so their first nonzero
coefficient is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exactla import MODULUS, check_modulus

_SPLIT = 1 << 16


def _conv_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact convolution of reduced int64 arrays modulo p.

    Splitting one operand into 16-bit halves keeps every partial sum below
    2**63 for moduli up to ~3e9 and lengths into the thousands.
    """
    hi, lo = np.divmod(a, _SPLIT)
    out = (np.convolve(hi, b) % p) * _SPLIT
    out += np.convolve(lo, b)
    return out % p


def _trim(u: np.ndarray) -> np.ndarray:
    """Drop trailing (high-degree) zeros of a little-endian univariate poly."""
    nz = np.nonzero(u)[0]
    if nz.size == 0:
        return u[:0]
    return u[: int(nz[-1]) + 1]


def _univ_divmod(a: np.ndarray, b: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    a = _trim(a)
    b = _trim(b)
    if b.size == 0:
        raise ZeroDivisionError("polynomial division by zero")
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
    return q, _trim(r)


def _univ_gcd(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    a = _trim(a)
    b = _trim(b)
    while b.size:
        _, rem = _univ_divmod(a, b, p)
        a, b = b, rem
    if a.size == 0:
        raise ValueError("gcd of two zero polynomials")
    return a * pow(int(a[-1]), -1, p) % p


class BinForm:
    """A homogeneous binary form over F_p, immutable after construction."""

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs, p: int = MODULUS):
        check_modulus(p)
        arr = np.remainder(np.asarray(coeffs, dtype=np.int64).ravel(), p)
        if arr.size and not arr.any():
            arr = arr[:0]
        arr.flags.writeable = False
        self.coeffs = arr
        self.p = p

    @classmethod
    def zero(cls, p: int = MODULUS) -> "BinForm":
        return cls((), p)

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0

    @property
    def degree(self) -> int:
        if self.is_zero:
            raise ValueError("the zero form has no degree")
        return self.coeffs.size - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinForm):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs.tobytes()))

    def __repr__(self) -> str:
        return f"BinForm({self.to_text()!r} mod {self.p})"

    def __add__(self, other: "BinForm") -> "BinForm":
        self._compat(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        return BinForm(self.coeffs + other.coeffs, self.p)

    def __sub__(self, other: "BinForm") -> "BinForm":
        return self + (-other)

    def __neg__(self) -> "BinForm":
        if self.is_zero:
            return self
        return BinForm((-self.coeffs) % self.p, self.p)

    def __mul__(self, other: "BinForm") -> "BinForm":
        self._compat(other)
        if self.is_zero or other.is_zero:
            return BinForm.zero(self.p)
        return BinForm(_conv_mod(self.coeffs, other.coeffs, self.p), self.p)

    def scale(self, c: int) -> "BinForm":
        if self.is_zero or c % self.p == 0:
            return BinForm.zero(self.p)
        return BinForm(self.coeffs * (c % self.p) % self.p, self.p)

    def eval(self, s0: int, t0: int) -> int:
        """Value at (s0, t0)."""
        if self.is_zero:
            return 0
        p = self.p
        s0 %= p
        t0 %= p
        d = self.degree
        acc = 0
        tp = 1
        spow = [1] * (d + 1)
        for i in range(1, d + 1):
            spow[i] = spow[i - 1] * s0 % p
        for i, c in enumerate(self.coeffs):
            acc = (acc + int(c) * spow[d - i] % p * tp) % p
            tp = tp * t0 % p
        return acc

    def t_multiplicity(self) -> int:
        """Largest k with t^k dividing the form."""
        if self.is_zero:
            raise ValueError("the zero form is divisible by every power of t")
        return int(np.nonzero(self.coeffs)[0][0])

    def monic(self) -> "BinForm":
        """Scale so the first nonzero coefficient is 1."""
        if self.is_zero:
            raise ValueError("cannot normalize the zero form")
        lead = int(self.coeffs[self.t_multiplicity()])
        return self.scale(pow(lead, -1, self.p))

    def _dehom(self) -> np.ndarray:
        """Coefficients of f(s, 1) as a little-endian univariate poly in s."""
        return _trim(self.coeffs[::-1].copy())

    def _compat(self, other: "BinForm") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed moduli {self.p} and {other.p}")

    def to_text(self) -> str:
        if self.is_zero:
            return "0"
        d = self.degree
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            factors = []
            if c != 1:
                factors.append(str(int(c)))
            if d - i > 0:
                factors.append("s" if d - i == 1 else f"s^{d - i}")
            if i > 0:
                factors.append("t" if i == 1 else f"t^{i}")
            if not factors:
                factors.append("1")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def to_json(self) -> list:
        if self.is_zero:
            return [-1, []]
        return [self.degree, [int(c) for c in self.coeffs]]


def _rehom(univ: np.ndarray, t_power: int, p: int) -> BinForm:
    """Homogenize a little-endian univariate poly and multiply by t^t_power."""
    coeffs = np.concatenate([np.zeros(t_power, dtype=np.int64), univ[::-1]])
    return BinForm(coeffs, p)


def gcd(f: BinForm, g: BinForm) -> BinForm:
    """Monic gcd of two binary forms, not both zero."""
    f._compat(g)
    if f.is_zero and g.is_zero:
        raise ValueError("gcd of two zero forms")
    if f.is_zero:
        return g.monic()
    if g.is_zero:
        return f.monic()
    t_common = min(f.t_multiplicity(), g.t_multiplicity())
    h = _univ_gcd(f._dehom(), g._dehom(), f.p)
    return _rehom(h, t_common, f.p)


def gcd_many(forms) -> BinForm:
    """Monic gcd of any number of forms (zeros allowed, not all zero)."""
    acc: BinForm | None = None
    for f in forms:
        if f.is_zero:
            continue
        acc = f if acc is None else gcd(acc, f)
        if not acc.is_zero and acc.degree == 0:
            return acc.monic()
    if acc is None:
        raise ValueError("gcd of all-zero forms")
    return acc.monic()


def div_exact(f: BinForm, g: BinForm) -> BinForm:
    """Quotient f/g when g divides f exactly; raises ValueError otherwise."""
    f._compat(g)
    if g.is_zero:
        raise ValueError("division by the zero form")
    if f.is_zero:
        return BinForm.zero(f.p)
    tf, tg = f.t_multiplicity(), g.t_multiplicity()
    if tf < tg:
        raise ValueError("non-exact division (t power)")
    q, r = _univ_divmod(f._dehom(), g._dehom(), f.p)
    if r.size:
        raise ValueError("non-exact division (nonzero remainder)")
    quotient = _rehom(_trim(q), tf - tg, f.p)
    if quotient.is_zero or quotient.degree != f.degree - g.degree:
        raise ValueError("non-exact division (degree drop)")
    return quotient


@dataclass(frozen=True)
class ParamTriple:
    """Three coprime binary forms of equal degree d >= 1: a map P^1 -> P^2.

    The components must not have a common factor.  That also makes the image
    a curve: proportional components would share their common form, of
    degree d >= 1, as a factor.
    """

    phi0: BinForm
    phi1: BinForm
    phi2: BinForm

    def __post_init__(self):
        phis = self.phis
        degs = set()
        for f in phis:
            f._compat(phis[0])
            if not f.is_zero:
                degs.add(f.degree)
        if len(degs) != 1:
            raise ValueError("components must share one degree")
        d = degs.pop()
        if d < 1:
            raise ValueError("parameterization degree must be >= 1")
        g = gcd_many(phis)
        if g.degree != 0:
            raise ValueError(f"components share the factor {g.to_text()}")

    @property
    def phis(self) -> tuple[BinForm, BinForm, BinForm]:
        return (self.phi0, self.phi1, self.phi2)

    @property
    def degree(self) -> int:
        for f in self.phis:
            if not f.is_zero:
                return f.degree
        raise AssertionError("unreachable: all components zero")

    @property
    def p(self) -> int:
        return self.phi0.p

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "p": self.p,
            "components": [f.to_json() for f in self.phis],
        }
