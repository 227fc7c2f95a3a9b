"""Dense exact linear algebra over a prime field F_p.

``MatFp`` is the elimination type: a numpy ``int64`` array with entries
reduced to ``[0, p)``, with its RREF, rank and kernel basis and no public
products (the 3x3 frame products of ``param`` run on plain int64 arrays).
All elimination is done with modular inverses, so results are exact.  There
is one elimination, ``MatFp.rref``: a forward pass to row-echelon form, then
back-substitution on the free columns of the pivot rows.  ``rank`` reads its
pivots.  ``_kernel_rows`` reads the kernel basis and the free column of each
basis row off an RREF: ``kernel_basis`` is its basis, ``fatpoints`` reads
the ideals of every degree off one basis and its free columns, and
``splitting`` keeps one RREF of a syzygy matrix for saturation and the
minimal syzygy and takes the first kernel row.  The forward pass of a matrix
with at most 128 columns is the leaf, which updates in place, on the columns
from each pivot on, the block of rows from the first to the last one below
the pivot that is nonzero in its column.  A wider matrix goes by panels of
32 columns: the leaf, run on a copy of the first rows of the panel's
remaining rows (twice the panel's width, doubled until the panel has a pivot
in every column or every row is in), gives the panel's pivot columns and row
order, the panel's pivot rows are multiplied by the inverse of their pivot
block, and the rows below get the Schur update ``B2 - A21 U12``; the
back-substitution then goes one panel of pivot rows at a time.  Those
products, forward and back, are float64 matmuls (BLAS) over 16-bit limbs, in
chunks of 128 columns.

Two bounds keep every step exact:

* int64: the modulus must satisfy ``(p - 1)**2 < 2**63``.  Every int64
  update reduces each product of two reduced entries before the next
  subtraction; the default modulus ``2**31 - 1`` leaves ample headroom.
* float64: a matmul is exact while its sums stay below ``2**53``.  The
  left factor is split into 16-bit limbs, so every term is below
  ``2**16 * p`` and one float64 dot takes at most
  ``2**53 / (2 (2**16 - 1) (p - 1))`` limb columns: 32 inner columns at the
  default modulus, one panel's width, and every inner column at once for a
  small modulus such as 7 or 211.  Wider products add such chunks in int64
  (see ``_mul_mod``).
"""

from __future__ import annotations

import bisect
from functools import lru_cache

import numpy as np

__all__ = ["MODULUS", "is_prime", "check_modulus", "MatFp"]

MODULUS = 2**31 - 1

# (p-1)^2 must fit in int64 together with one subtraction of slack.
_MAX_MODULUS = 3_037_000_499

# MatFp.rref: matrices with at most _LEAF_COLS columns run the leaf alone;
# wider ones go by panels of _PANEL columns, and every product of the
# trailing updates and of the back-substitution runs in chunks of _CHUNK
# columns.
_LEAF_COLS = 128
_PANEL = 32
_CHUNK = 128


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
    """The elimination type: a dense matrix over F_p with its RREF, rank and
    kernel basis, and no matrix products.

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

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def __repr__(self) -> str:
        return f"MatFp({self.rows}x{self.cols} mod {self.p})"

    def rref(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """Reduced row-echelon form and the tuple of pivot columns.

        Pivots are chosen as the first nonzero entry in each column (partial
        pivoting by first nonzero), so the result is the unique RREF over F_p,
        whichever way it is computed.  It is computed in two passes:

        * forward elimination to row-echelon form with unit pivots.  With at
          most ``_LEAF_COLS`` columns this is the leaf, ``_echelon``: each
          pivot row is normalized from its pivot column on, and the block of
          rows from the first to the last one below it that is nonzero in the
          pivot column is updated in place, on the columns from the pivot
          column on (the rows in between are zero there and subtract 0).
          Wider matrices go by panels of ``_PANEL`` columns
          (``_blocked_echelon``): the leaf, run on a copy of a prefix of the
          panel's remaining rows (``_panel_pivots``), finds the pivots and
          the row order that it would find on all of them, the panel's pivot
          rows are multiplied by the inverse of their pivot block, and the
          rows below get the Schur update ``B2 - A21 U12``, every product a
          float64 matmul made exact by ``_mul_mod``;
        * back-substitution, from the last pivot upwards, on the free
          (non-pivot) columns of the pivot rows only, one row at a time after
          the leaf and one panel at a time after the panels; the pivot columns
          are then overwritten with the identity.  With no free columns, as in
          a full-column-rank rank check, this pass is skipped.

        Every int64 update subtracts a product of two reduced entries from a
        reduced entry, so it stays within ``(p - 1)**2 < 2**63``; the float64
        products stay below ``2**53`` (see ``_mul_mod``).
        """
        return _rref(self.entries.copy(), self.p)

    def rank(self) -> int:
        """Rank over F_p."""
        return len(self.rref()[1])

    def kernel_basis(self) -> np.ndarray:
        """Basis of the right null-space, in reduced echelon normal form, as
        one read-only ``(cols - rank) x cols`` int64 array.

        Row i belongs to the i-th free column ``f`` (in increasing column
        order): a 1 in coordinate ``f``, zeros in the other free coordinates,
        and the pivot coordinates filled from the RREF.  ``M v == 0`` for
        every row ``v``.
        """
        return _kernel_rows(*self.rref(), self.p)[0]


def _free_columns(pivots: tuple[int, ...], ncols: int) -> list[int]:
    """The columns of ``range(ncols)`` that are not pivots, in order."""
    pivot_set = set(pivots)
    return [c for c in range(ncols) if c not in pivot_set]


def _kernel_rows(red: np.ndarray, pivots: tuple[int, ...], p: int) -> tuple[np.ndarray, np.ndarray]:
    """The kernel basis of a matrix whose RREF is ``red`` with ``pivots``, as
    one read-only int64 array, and the free column of each of its rows as an
    int64 array ``free``: row i has a 1 in coordinate ``free[i]``, zeros in
    the other free coordinates, and minus that column of ``red`` in the pivot
    coordinates.  ``MatFp.kernel_basis`` is the first element."""
    free = _free_columns(pivots, red.shape[1])
    basis = np.zeros((len(free), red.shape[1]), dtype=np.int64)
    basis[range(len(free)), free] = 1
    basis[:, list(pivots)] = (-red[: len(pivots), free].T) % p
    basis.flags.writeable = False
    return basis, np.array(free, dtype=np.int64)


def _rref(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """``MatFp.rref`` on the int64 array ``a``, which it overwrites."""
    if a.shape[1] <= _LEAF_COLS:
        pivots = _echelon(a, p)[0]
        starts = range(len(pivots))
    else:
        pivots, starts = _blocked_echelon(a, p)
    r = len(pivots)
    free = _free_columns(pivots, a.shape[1])
    if free and r > 1:
        fb = a[:r, free]
        bounds = [*starts, r]
        # the first group (from row 0) has no rows above it
        for g in range(len(starts) - 1, 0, -1):
            i0, i1 = bounds[g], bounds[g + 1]
            if i1 - i0 == 1:
                # row i0 is zero on the free columns left of its pivot
                s = bisect.bisect(free, pivots[i0])
                if s < len(free):
                    blk = fb[:i0, s:]
                    blk -= np.outer(a[:i0, pivots[i0]], fb[i0, s:])
                    blk %= p
            else:
                # the rows of one panel are already reduced on its pivots,
                # and zero on the free columns left of its first pivot
                neg = (p - a[:i0, pivots[i0:i1]]) % p
                for j0 in range(bisect.bisect(free, pivots[i0]), len(free), _CHUNK):
                    j1 = j0 + _CHUNK
                    fb[:i0, j0:j1] = _mul_mod(neg, fb[i0:i1, j0:j1], p, fb[:i0, j0:j1])
        a[:r, free] = fb
    a[:r, pivots] = np.eye(r, dtype=np.int64)
    return a, tuple(pivots)


def _echelon(a: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """The leaf: forward elimination of ``a`` in place to row-echelon form
    with unit pivots.  Returns the pivot columns and the row permutation
    (``perm[i]`` is the input row now at row i).

    At each column the pivot row is the first remaining row nonzero there.
    Once it is normalized, the rows from the first to the last one below it
    that are nonzero in the column lose their entry there times the pivot
    row, as one in-place update of that contiguous block; a row in between
    is zero in the column, so it subtracts 0 and stays as it is."""
    nrows, ncols = a.shape
    perm = np.arange(nrows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            # both rows are zero left of c; the one swapped down is zero at c
            s = r + nz[0]
            a[[r, s], c:] = a[[s, r], c:]
            perm[[r, s]] = perm[[s, r]]
        row = a[r, c:]
        row *= pow(int(row[0]), -1, p)
        row %= p
        if nz.size > 1:
            # the rows between are zero at c: they subtract 0
            blk = a[r + nz[1] : r + nz[-1] + 1, c:]
            blk -= blk[:, :1] * row
            blk %= p
        pivots.append(c)
        r += 1
    return pivots, perm


def _panel_pivots(panel: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """The pivot columns and the row permutation of the leaf on ``panel``,
    which is not modified, read off the leaf on a copy of a prefix of its
    rows.

    The prefix is the first 2w rows of a panel of width w, and twice as many
    each time until the leaf on it finds w pivots or it holds every row; the
    rows past it follow in their order.  This is the leaf's result on all
    the rows: the leaf pivots on the first row nonzero in a column, and its
    update of a row reads only that row and the pivot row, so until it picks
    a row past the prefix, the leaf on all rows does to the prefix exactly
    what the leaf on the prefix does.  If the prefix has a pivot in every
    column, that pivot is also the first nonzero row of all the rows, so the
    rows past the prefix are never chosen and never moved.
    """
    nrows, w = panel.shape
    h = 2 * w
    while True:
        h = min(h, nrows)
        piv, perm = _echelon(panel[:h].copy(), p)
        if len(piv) == w or h == nrows:
            return piv, np.concatenate([perm, np.arange(h, nrows)])
        h *= 2


def _blocked_echelon(a: np.ndarray, p: int) -> tuple[list[int], list[int]]:
    """Forward elimination of ``a`` in place by panels of ``_PANEL`` columns.

    For each panel, ``_panel_pivots`` gives the pivot columns J of the leaf
    on the panel's remaining rows and the row order that puts its k pivot
    rows first.  With that order, A11 (the pivot rows on J) is invertible
    and A21 (the other rows on J) holds the multipliers: the pivot rows
    become A11^-1 times themselves, reduced on J, and every other row loses
    A21 times the new pivot rows.  On the panel's columns this is the leaf's
    result with the pivot rows reduced on each other; the pivots of the
    Schur complement that remains are the next pivots of the whole matrix,
    so the pivot columns are those of the leaf on the whole matrix.

    Returns the pivot columns and the first row of each panel's pivot rows.
    """
    nrows, ncols = a.shape
    pivots: list[int] = []
    starts: list[int] = []
    r = 0
    for c0 in range(0, ncols, _PANEL):
        if r == nrows:
            break
        piv, perm = _panel_pivots(a[r:, c0 : c0 + _PANEL], p)
        k = len(piv)
        if not k:
            continue
        cols = [c0 + j for j in piv]
        rows = r + perm
        pivot_block = np.hstack([a[np.ix_(rows[:k], cols)], np.eye(k, dtype=np.int64)])
        inverse = _rref(pivot_block, p)[0][:, k:]
        neg_below = (p - a[np.ix_(rows[k:], cols)]) % p
        # one column chunk at a time, so no full-width float64 temporaries
        for j0 in range(c0, ncols, _CHUNK):
            j1 = min(j0 + _CHUNK, ncols)
            top = _mul_mod(inverse, a[rows[:k], j0:j1], p)
            a[r + k :, j0:j1] = _mul_mod(neg_below, top, p, a[rows[k:], j0:j1])
            a[r : r + k, j0:j1] = top
        pivots.extend(cols)
        starts.append(r)
        r += k
    return pivots, starts


def _mul_mod(x: np.ndarray, y: np.ndarray, p: int, acc: np.ndarray | None = None) -> np.ndarray:
    """``(acc + x @ y) mod p`` for reduced int64 factors, exactly, through
    float64 matmuls; ``acc`` (reduced, default zero) is not modified.

    A float64 dot product is exact while its terms are integers whose sum
    stays below 2**53.  x = x1 2**16 + x0 is split into 16-bit limbs and
    x @ y = x1 @ (2**16 y mod p) + x0 @ y (mod p): one matmul of the
    stacked limbs against the stacked right factors, whose terms are below
    2**16 p, exact for up to 2**53 / (2 (2**16 - 1) (p - 1)) inner columns
    (32 at p = 2**31 - 1, 22 at the largest modulus, more than 3 * 10**8
    at p = 211).  Wider products add such column chunks in int64 (exact for
    fewer than 2**10 chunks), and the sum is reduced once.
    """
    k = x.shape[1]
    step = (2**53 - 1) // (2 * 0xFFFF * (p - 1))
    y_hi = y * 0x10000 % p
    s = np.zeros((x.shape[0], y.shape[1]), dtype=np.int64)
    for i in range(0, k, step):
        xs = x[:, i : i + step]
        limbs = np.hstack([xs >> 16, xs & 0xFFFF]).astype(np.float64)
        right = np.vstack([y_hi[i : i + step], y[i : i + step]]).astype(np.float64)
        s += (limbs @ right).astype(np.int64)
    if acc is not None:
        s += acc
    s %= p
    return s
