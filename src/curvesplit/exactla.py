"""Dense exact linear algebra over a prime field F_p.

Matrices are stored as numpy ``int64`` arrays with entries reduced to
``[0, p)``.  All elimination is done with modular inverses, so results are
exact.  There is one 2-D elimination, ``MatFp.rref``: a forward pass to
row-echelon form that touches only the rows below each pivot that are
nonzero in its column, on the columns from the pivot on, then
back-substitution on the free columns of the pivot rows.  ``rank`` and
``kernel_basis`` are its only users.  ``all_nonsingular`` tests a whole
stack of small square matrices at once with a batched forward pass.

The modulus must satisfy ``(p - 1)**2 < 2**63``: every update, the batched
one included, reduces each product of two reduced entries before the next
subtraction, so no intermediate overflows ``int64``; the default modulus
``2**31 - 1`` leaves ample headroom.
"""

from __future__ import annotations

import bisect
from functools import lru_cache

import numpy as np

MODULUS = 2**31 - 1

# (p-1)^2 must fit in int64 together with one subtraction of slack.
_MAX_MODULUS = 3_037_000_499


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_modulus(p: int) -> int:
    """Validate a modulus for use with MatFp; return it unchanged."""
    if not isinstance(p, int) or p < 3:
        raise ValueError(f"modulus must be an odd prime >= 3, got {p!r}")
    if p > _MAX_MODULUS:
        raise ValueError(f"modulus {p} too large for int64 arithmetic")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


class MatFp:
    """A dense matrix over F_p supporting rank and kernel-basis extraction.

    Rank and kernel basis are both read off ``rref`` (forward elimination,
    then back-substitution on the free columns).  The entry array is owned
    by the instance and never mutated after construction; elimination always
    works on an internal copy, so instances can be shared freely between
    threads.
    """

    __slots__ = ("entries", "p")

    def __init__(self, entries, p: int = MODULUS):
        check_modulus(p)
        arr = np.asarray(entries, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {arr.shape}")
        arr = np.remainder(arr, p)
        arr.flags.writeable = False
        self.entries = arr
        self.p = p

    @classmethod
    def zeros(cls, rows: int, cols: int, p: int = MODULUS) -> "MatFp":
        return cls(np.zeros((rows, cols), dtype=np.int64), p)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def __repr__(self) -> str:
        return f"MatFp({self.rows}x{self.cols} mod {self.p})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatFp):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.entries, other.entries)

    def rref(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """Reduced row-echelon form and the tuple of pivot columns.

        Pivots are chosen as the first nonzero entry in each column (partial
        pivoting by first nonzero), so the result is the unique RREF over F_p.
        It is computed in two passes:

        * forward elimination to row-echelon form with unit pivots.  Each
          pivot row is normalized from its pivot column on, and only the rows
          below that are nonzero in the pivot column are updated, on the
          columns from the pivot column on (everything left of it is already
          zero);
        * back-substitution, from the last pivot upwards, on the free
          (non-pivot) columns of the pivot rows only; the pivot columns are
          then overwritten with the identity.  With no free columns, as in a
          full-column-rank rank check, this pass is skipped.

        Every update subtracts a product of two reduced entries from a reduced
        entry, so it stays within ``(p - 1)**2 < 2**63``.
        """
        p = self.p
        a = self.entries.copy()
        nrows, ncols = a.shape
        pivots: list[int] = []
        r = 0
        for c in range(ncols):
            if r == nrows:
                break
            nz = np.flatnonzero(a[r:, c])
            if nz.size == 0:
                continue
            if nz[0]:
                # both rows are zero left of c; the one swapped down is zero at c
                a[[r, r + nz[0]], c:] = a[[r + nz[0], r], c:]
            row = a[r, c:]
            row *= pow(int(row[0]), -1, p)
            row %= p
            if nz.size > 1:
                below = nz[1:] + r
                a[below, c:] = (a[below, c:] - np.outer(a[below, c], row)) % p
            pivots.append(c)
            r += 1
        pivot_set = set(pivots)
        free = [c for c in range(ncols) if c not in pivot_set]
        if free and r > 1:
            fb = a[:r, free]
            for i in range(r - 1, 0, -1):
                # row i is zero on the free columns left of its pivot
                s = bisect.bisect(free, pivots[i])
                if s < len(free):
                    blk = fb[:i, s:]
                    blk -= np.outer(a[:i, pivots[i]], fb[i, s:])
                    blk %= p
            a[:r, free] = fb
        a[:r, pivots] = np.eye(r, dtype=np.int64)
        return a, tuple(pivots)

    def rank(self) -> int:
        """Rank over F_p."""
        return len(self.rref()[1])

    def kernel_basis(self) -> list[np.ndarray]:
        """Basis of the right null-space, in reduced echelon normal form.

        One vector per free column ``f`` (in increasing column order), with a
        1 in coordinate ``f``, zeros in the other free coordinates, and the
        pivot coordinates filled from the RREF.  ``len(result) == cols - rank``
        and ``M v == 0`` for every returned vector.
        """
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for f in free:
            v = np.zeros(self.cols, dtype=np.int64)
            v[f] = 1
            v[list(pivots)] = (-red[: len(pivots), f]) % self.p
            v.flags.writeable = False
            basis.append(v)
        return basis

    def matvec(self, v) -> np.ndarray:
        """Matrix-vector product over F_p."""
        v = np.remainder(np.asarray(v, dtype=np.int64), self.p)
        if v.shape != (self.cols,):
            raise ValueError(f"vector of length {v.shape} incompatible with {self!r}")
        # Reduce each product before summing: column sums of values < p stay
        # far below the int64 limit for any realistic width.
        return (self.entries * v % self.p).sum(axis=1) % self.p


def all_nonsingular(stack, p: int = MODULUS) -> bool:
    """Whether every matrix of a ``(B, n, n)`` stack is nonsingular over F_p.

    One forward elimination runs over the whole stack: at each column every
    matrix pivots on its first nonzero entry on or below the diagonal, and
    the answer is False as soon as some matrix has none.  The rows below are
    cleared fraction-free (row * pivot - pivot row * entry, each product
    reduced before the subtraction), which keeps every intermediate within
    ``(p - 1)**2 < 2**63`` and needs no modular inverse.
    """
    check_modulus(p)
    a = np.remainder(np.asarray(stack, dtype=np.int64), p)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a (B, n, n) stack, got shape {a.shape}")
    which = np.arange(a.shape[0])
    for c in range(a.shape[1]):
        nz = a[:, c:, c] != 0
        if not nz.any(axis=1).all():
            return False
        pr = c + nz.argmax(axis=1)
        prow = a[which, pr, c:]
        # row c moves to the pivot's place; later columns never read row c
        a[which, pr, c:] = a[:, c, c:]
        blk = a[:, c + 1 :, c:]
        a[:, c + 1 :, c:] = (blk * prow[:, None, :1] % p - blk[:, :, :1] * prow[:, None, :] % p) % p
    return True
