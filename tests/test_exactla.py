import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvesplit.exactla import (
    _LEAF_COLS,
    _MAX_MODULUS,
    _PANEL,
    MODULUS,
    MatFp,
    _echelon,
    _kernel_rows,
    _mul_mod,
    _panel_pivots,
    check_modulus,
    is_prime,
)
from curvesplit.param import DegenerateConfigurationError, PointSet, _inverse3, cremona_apply

P = MODULUS


def _mulvec(m: MatFp, v) -> np.ndarray:
    """m v over F_p, each product reduced before the sum."""
    return (m.entries * np.asarray(v, dtype=np.int64) % m.p).sum(axis=1) % m.p


def test_default_modulus_is_prime():
    assert is_prime(P)
    assert check_modulus(P) == P


def test_bad_moduli_rejected():
    with pytest.raises(ValueError):
        check_modulus(91)
    with pytest.raises(ValueError):
        check_modulus(2**40)


def test_no_prime_below_2():
    assert not is_prime(0) and not is_prime(1)


_REFUSALS = [
    (lambda: MatFp(np.zeros(3, dtype=np.int64)), "expected a 2-d array, got shape (3,)"),
    # 41 * 43 has no factor <= 37, so a Miller-Rabin witness rejects it
    (lambda: check_modulus(1763), "modulus 1763 is not prime"),
    # 829 * 1657 is a strong pseudoprime to bases 2 and 3; base 5 rejects it
    (lambda: check_modulus(1373653), "modulus 1373653 is not prime"),
]


@pytest.mark.parametrize("call, message", _REFUSALS, ids=[message for _, message in _REFUSALS])
def test_input_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is ValueError


def test_rank_identity():
    assert MatFp(np.eye(3, dtype=np.int64), P).rank() == 3


def test_rank_zero():
    assert MatFp(np.zeros((4, 7), dtype=np.int64), P).rank() == 0


def test_rank_proportional_rows():
    # hand row-reduce: second row is twice the first
    assert MatFp([[1, 2], [2, 4]], 65537).rank() == 1


def test_kernel_identity_empty():
    assert MatFp(np.eye(3, dtype=np.int64), P).kernel_basis().shape == (0, 3)


def test_kernel_zero_matrix():
    basis = MatFp(np.zeros((2, 3), dtype=np.int64), P).kernel_basis()
    assert len(basis) == 3


def test_kernel_vectors_annihilated():
    m = MatFp([[1, 1, 0]], P)
    basis = m.kernel_basis()
    assert len(basis) == 2
    for v in basis:
        assert not _mulvec(m, v).any()


def test_kernel_reduced_normal_form():
    m = MatFp([[1, 2, 3], [0, 0, 1]], P)
    basis = m.kernel_basis()
    assert len(basis) == 1
    v = basis[0]
    # free column is 1; pivot coordinates determined by the RREF
    assert v[1] == 1 and v[0] == P - 2 and v[2] == 0


@pytest.mark.parametrize(
    "entries",
    [np.eye(3, dtype=np.int64), [[1, 2, 3], [0, 0, 1]], np.zeros((2, 3), dtype=np.int64), np.zeros((3, 0), dtype=np.int64)],
)
def test_kernel_basis_is_one_read_only_array(entries):
    m = MatFp(entries, P)
    basis = m.kernel_basis()
    assert isinstance(basis, np.ndarray) and basis.dtype == np.int64
    assert basis.shape == (m.cols - m.rank(), m.cols)
    assert not basis.flags.writeable


def test_inverse_roundtrip():
    m = MatFp([[1, 2, 0], [0, 1, 5], [7, 0, 1]], P)
    inv = _inverse3(m.entries, P)
    prod = np.zeros((3, 3), dtype=np.int64)
    for i in range(3):
        prod[:, i] = _mulvec(m, inv[:, i])
    assert np.array_equal(prod, np.eye(3, dtype=np.int64))


def test_singular_inverse_raises():
    # the frame matrix N of a Cremona step has no inverse exactly when its
    # centers are collinear; cremona_apply refuses such centers, so
    # CremonaStep.pull_back never meets a singular N
    pts = PointSet([(1, 2, 3), (0, 1, 0), (1, 3, 3), (1, 1, 7), (2, 5, 1)], 0, P)
    with pytest.raises(DegenerateConfigurationError, match="collinear centers"):
        cremona_apply(pts, 1, 2, 3)
    step = cremona_apply(pts, 1, 4, 5)
    assert _inverse3(step.n_matrix, P) is not None


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    entries = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=P - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return MatFp(entries, P)


@settings(max_examples=60, deadline=None)
@given(m=small_matrices())
def test_rank_plus_nullity(m):
    assert m.rank() + len(m.kernel_basis()) == m.cols


@settings(max_examples=60, deadline=None)
@given(m=small_matrices(), data=st.data())
def test_rank_invariant_under_row_ops(m, data):
    perm = data.draw(st.permutations(range(m.rows)))
    scale = data.draw(st.integers(min_value=1, max_value=P - 1))
    row = data.draw(st.integers(min_value=0, max_value=m.rows - 1))
    arr = m.entries[list(perm)].copy()
    arr[row] = arr[row] * scale % P
    assert MatFp(arr, P).rank() == m.rank()


@settings(max_examples=40, deadline=None)
@given(m=small_matrices())
def test_kernel_vectors_all_annihilated(m):
    for v in m.kernel_basis():
        assert not _mulvec(m, v).any()


def reference_rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], tuple[int, ...]]:
    """Textbook Gauss-Jordan in Python integers: first nonzero pivot per column."""
    a = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(a[0]) if a else 0):
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a, tuple(pivots)


@st.composite
def small_entry_matrices(draw):
    # entries 0..3 mod 7 make zero columns, repeated rows and low rank common
    rows = draw(st.integers(min_value=1, max_value=8))
    cols = draw(st.integers(min_value=1, max_value=8))
    row = st.lists(st.integers(min_value=0, max_value=3), min_size=cols, max_size=cols)
    return MatFp(draw(st.lists(row, min_size=rows, max_size=rows)), 7)


@settings(max_examples=200, deadline=None)
@given(m=small_entry_matrices())
def test_rref_matches_reference_mod_7(m):
    red, pivots = m.rref()
    ref, ref_pivots = reference_rref(m.entries.tolist(), m.p)
    assert pivots == ref_pivots
    assert red.dtype == np.int64 and red.shape == m.entries.shape
    assert red.tolist() == ref


@settings(max_examples=60, deadline=None)
@given(m=small_matrices())
def test_rref_matches_reference_default_modulus(m):
    red, pivots = m.rref()
    ref, ref_pivots = reference_rref(m.entries.tolist(), m.p)
    assert pivots == ref_pivots
    assert red.tolist() == ref


@settings(max_examples=100, deadline=None)
@given(m=small_entry_matrices())
def test_kernel_basis_reduced_normal_form_mod_7(m):
    ref, pivots = reference_rref(m.entries.tolist(), m.p)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = m.kernel_basis()
    assert len(basis) == len(free)
    for f, v in zip(free, basis):
        expect = [0] * m.cols
        expect[f] = 1
        for i, c in enumerate(pivots):
            expect[c] = -ref[i][f] % m.p
        assert v.dtype == np.int64 and v.tolist() == expect
        assert not v.flags.writeable


# the largest modulus check_modulus accepts
P_MAX = next(q for q in range(_MAX_MODULUS, 0, -1) if is_prime(q))
PRIMES = [7, 211, P, P_MAX]


def _staircase(rows, cols, pivots, p, rng):
    """A rows x cols matrix whose RREF has the given pivot columns (when
    the random mixture has full rank): random mixtures of echelon rows that
    start at those columns."""
    ech = np.zeros((len(pivots), cols), dtype=np.int64)
    for i, c in enumerate(pivots):
        ech[i, c] = 1
        ech[i, c + 1 :] = rng.integers(0, p, size=cols - c - 1)
    mix = rng.integers(0, p, size=(rows, len(pivots)))
    return (mix.astype(object) @ ech.astype(object) % p).astype(np.int64)


KINDS = ["dense", "all_p_minus_1", "staircase", "tall_low_rank"]


def _multi_panel_case(kind: str, p: int) -> np.ndarray:
    rng = np.random.default_rng([KINDS.index(kind), p])
    if kind == "dense":
        # full rank 70: full panels of pivots, then 70 free columns
        return rng.integers(0, p, size=(70, 140))
    if kind == "all_p_minus_1":
        # every entry 0 or p - 1; row i starts at column 4 i, rows shuffled
        a = rng.integers(0, 2, size=(40, 180))
        for i in range(40):
            a[i, : 4 * i] = 0
            a[i, 4 * i] = 1
        return rng.permutation(a) * (p - 1)
    if kind == "staircase":
        # pivots spread over all panels except 96..127 (a panel with no
        # pivot) and ten zero columns 200..209
        cols = [c for c in range(300) if not 96 <= c < 128 and not 200 <= c < 210]
        piv = sorted(rng.choice(cols, size=48, replace=False).tolist())
        a = _staircase(48, 300, piv, p, rng)
        a[:, 200:210] = 0
        return a
    if kind == "tall_low_rank":
        piv = sorted(rng.choice(136, size=24, replace=False).tolist())
        return _staircase(150, 136, piv, p, rng)
    raise ValueError(kind)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("kind", KINDS)
def test_multi_panel_rref_matches_reference(kind, p):
    a = _multi_panel_case(kind, p)
    assert a.shape[1] > _LEAF_COLS
    red, pivots = MatFp(a, p).rref()
    ref, ref_pivots = reference_rref(a.tolist(), p)
    assert pivots == ref_pivots
    assert red.dtype == np.int64 and red.shape == a.shape
    assert red.tolist() == ref


def test_multi_panel_pivots_span_the_panels():
    # the cases reach the blocked path with pivots in several panels, a
    # panel without one, and full panels
    stair = MatFp(_multi_panel_case("staircase", P), P).rref()[1]
    panels = {c // _PANEL for c in stair}
    assert len(panels) >= 6 and 96 // _PANEL not in panels
    assert not set(range(200, 210)) & set(stair)
    assert MatFp(_multi_panel_case("dense", P), P).rref()[1] == tuple(range(70))
    assert MatFp(_multi_panel_case("all_p_minus_1", 7), 7).rref()[1] == tuple(range(0, 160, 4))


def _kernel_rows_cases(p: int):
    rng = np.random.default_rng(p)
    wide = _LEAF_COLS + 12
    return {
        "wide": rng.integers(0, p, size=(5, 9)),
        "no_free_column": np.vstack([np.eye(5, dtype=np.int64), rng.integers(0, p, size=(4, 5))]),
        "all_zero": np.zeros((4, 6), dtype=np.int64),
        "staircase": _staircase(12, 20, [0, 3, 4, 9, 15], p, rng),
        "panels": _staircase(30, wide, sorted(rng.choice(wide, size=20, replace=False).tolist()), p, rng),
    }


@pytest.mark.parametrize("p", [7, 211, P])
@pytest.mark.parametrize("kind", ["wide", "no_free_column", "all_zero", "staircase", "panels"])
def test_kernel_rows_gives_each_row_its_free_column(kind, p):
    m = MatFp(_kernel_rows_cases(p)[kind], p)
    basis, free = _kernel_rows(*m.rref(), p)
    assert free.dtype == np.int64 and len(free) == len(basis) == m.cols - m.rank()
    if kind == "no_free_column":
        assert len(free) == 0
    if kind == "all_zero":
        assert free.tolist() == list(range(m.cols))
    for v, f in zip(basis, free):
        assert not _mulvec(m, v).any()
        assert np.flatnonzero(v)[-1] == f and v[f] == 1
    assert np.array_equal(m.kernel_basis(), basis)


@pytest.mark.parametrize("shape", [(0, 200), (0, 0), (50, 0), (3, _LEAF_COLS + 1)])
def test_empty_and_zero_inputs(shape):
    red, pivots = MatFp(np.zeros(shape, dtype=np.int64), P).rref()
    assert pivots == () and red.shape == shape and not red.any()
    assert len(MatFp(np.zeros(shape, dtype=np.int64), P).kernel_basis()) == shape[1]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("k", [1, 31, 32, 33, 64, 200])
def test_mul_mod_exact_at_the_largest_entries(p, k):
    # all entries p - 1, then random entries from the top 256 of [0, p)
    # (then 2**16 y mod p is near p too, the largest limb terms), against
    # Python integers
    x = np.full((3, k), p - 1, dtype=np.int64)
    y = np.full((k, 5), p - 1, dtype=np.int64)
    acc = np.full((3, 5), p - 1, dtype=np.int64)
    assert (_mul_mod(x, y, p) == k * (p - 1) ** 2 % p).all()
    out = _mul_mod(x, y, p, acc)
    assert out.dtype == np.int64 and (out == (p - 1 + k * (p - 1) ** 2) % p).all()
    assert (acc == p - 1).all()
    rng = np.random.default_rng([k, p])
    x, y, acc = (p - 1 - rng.integers(0, min(p, 256), size=s) for s in ((6, k), (k, 9), (6, 9)))
    expect = (acc.astype(object) + x.astype(object) @ y.astype(object)) % p
    assert _mul_mod(x, y, p, acc).tolist() == expect.tolist()


def _reference_echelon(a: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """The leaf with a gather and a scatter: the rows below each pivot that
    are nonzero in its column are copied out, updated and written back."""
    nrows, ncols = a.shape
    perm = np.arange(nrows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        if nz[0]:
            s = r + nz[0]
            a[[r, s], c:] = a[[s, r], c:]
            perm[[r, s]] = perm[[s, r]]
        row = a[r, c:]
        row *= pow(int(row[0]), -1, p)
        row %= p
        if nz.size > 1:
            below = nz[1:] + r
            a[below, c:] = (a[below, c:] - np.outer(a[below, c], row)) % p
        pivots.append(c)
        r += 1
    return pivots, perm


def _banded_syzygy_matrices(p: int) -> list[np.ndarray]:
    """syzygy_matrix(phi, k) of a degree-61 scan type at k = 29 (the moving
    lines), 40 and 59, reduced mod p; phi is built at the default modulus,
    since no 9 points mod 7 are generic enough for it."""
    from curvesplit.lattice import NumType
    from curvesplit.param import parameterize, random_points
    from curvesplit.splitting import syzygy_matrix

    T = NumType(61, (26, 21, 20, 20, 19, 19, 19, 19, 19))
    phi = parameterize(T, random_points(T.r, 1, P), 1)
    return [syzygy_matrix(phi, k).entries % p for k in (29, 40, 59)]


@pytest.mark.parametrize("p", PRIMES)
def test_leaf_matches_gather_scatter_reference(p):
    rng = np.random.default_rng([p, 61])
    sparse = [(rng.random(shape) < 0.08) * (p - 1) for shape in ((120, 100), (60, 128), (200, 40))]
    # the nonzero rows below a pivot are not contiguous
    assert (np.diff(np.flatnonzero(sparse[0][1:, 0])) > 1).any()
    for a in _banded_syzygy_matrices(p) + sparse:
        got, ref = a.astype(np.int64), a.astype(np.int64)
        pivots, perm = _echelon(got, p)
        ref_pivots, ref_perm = _reference_echelon(ref, p)
        assert pivots == ref_pivots and len(pivots) > 0
        assert np.array_equal(perm, ref_perm)
        assert np.array_equal(got, ref)


PANEL_KINDS = ["dense", "zero_top_rows", "late_last_pivot", "rank_deficient", "short"]


def _panel_case(kind: str, p: int) -> np.ndarray:
    w = _PANEL
    rng = np.random.default_rng([PANEL_KINDS.index(kind), p, w])
    if kind == "dense":
        return rng.integers(0, p, size=(300, w))
    if kind == "zero_top_rows":
        # the first 100 rows are zero: prefixes of 2w and 4w rows hold fewer
        # than w pivots, 8w rows hold w of them and leave 44 rows past it
        a = rng.integers(0, p, size=(300, w))
        a[:100] = 0
        return a
    if kind == "late_last_pivot":
        # the first 100 rows are zero in the last column: a prefix of 2w rows
        # holds w - 1 pivots, one of 4w rows holds w
        a = rng.integers(0, p, size=(300, w))
        a[:100, -1] = 0
        return a
    if kind == "rank_deficient":
        # a zero column and a column equal to an earlier one: w - 2 pivots,
        # so the prefix grows to every row
        a = rng.integers(0, p, size=(150, w))
        a[:, 5] = 0
        a[:, 20] = a[:, 3]
        return a
    if kind == "short":
        return rng.integers(0, p, size=(w + 8, w))
    raise ValueError(kind)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("kind", PANEL_KINDS)
def test_panel_pivots_match_the_leaf_on_the_whole_panel(kind, p):
    a = _panel_case(kind, p)
    # a view into a wider matrix, as _blocked_echelon passes it
    wide = np.zeros((a.shape[0] + 3, _PANEL + 10), dtype=np.int64)
    wide[3:, 4 : 4 + _PANEL] = a
    panel = wide[3:, 4 : 4 + _PANEL]
    pivots, perm = _panel_pivots(panel, p)
    ref_pivots, ref_perm = _echelon(a.copy(), p)
    assert pivots == ref_pivots
    assert np.array_equal(perm, ref_perm)
    assert np.array_equal(panel, a)
    assert len(pivots) == (_PANEL - 2 if kind == "rank_deficient" else _PANEL)


# sha256 of red.tobytes() + repr(pivots) for the three d'=12 condition
# matrices of (24; 7, 9^5, 7^2, 5) at random_points(9, 101), computed with
# the unblocked elimination before the blocked one replaced it
D12_DIGESTS = {
    34: "777ad7b9e9830ea3ae952bd2d4c75f2d26557f35ad1d549bff38de251ea5a439",
    35: "c015016f8969474881773e4acdfe881ece5e4c778705758748329acef819fbef",
    36: "5888a2ab06185d38165a8f83594f1707d9aae335bb355bc3356c082a448945f0",
}


def test_d12_condition_matrices_pinned():
    from curvesplit.fatpoints import FatScheme, conditions_matrix
    from curvesplit.param import random_points

    Z = FatScheme(random_points(9, 101), (10, 13, 13, 13, 13, 13, 10, 10, 7))
    got = {}
    for k in D12_DIGESTS:
        red, pivots = conditions_matrix(Z, k).rref()
        got[k] = hashlib.sha256(red.tobytes() + repr(pivots).encode()).hexdigest()
    assert got == D12_DIGESTS


# sha256 of red.tobytes() + repr(pivots) for the saturation matrix
# syzygy_matrix(phi, d - 2) of a degree-61 scan type and of a semi-adjoint
# type of the dmax=61 list, phi at seed 1 and the default modulus: 121 x 180
# and 119 x 177, with rank-deficient panels past the second; computed before
# the panel pivots were read off a prefix of the rows
SYZYGY_DIGESTS = {
    (61, (26, 21, 20, 20, 19, 19, 19, 19, 19)): "8572a0312c3d5c596ae6f53b4c5200ff023e6f42d02ed10b5735ce044a7617e5",
    (60, (25, 21, 21, 19, 19, 19, 19, 19, 17)): "fe93fe08a2d36af3e511612c13488e5f900f97226b557386699e8a09ce4463c2",
}


def test_saturation_matrices_pinned():
    from curvesplit.lattice import NumType
    from curvesplit.param import parameterize, random_points
    from curvesplit.splitting import syzygy_matrix

    got = {}
    for d, m in SYZYGY_DIGESTS:
        T = NumType(d, m)
        phi = parameterize(T, random_points(T.r, 1, P), 1)
        mat = syzygy_matrix(phi, d - 2)
        assert mat.cols > _LEAF_COLS
        red, pivots = mat.rref()
        got[d, m] = hashlib.sha256(red.tobytes() + repr(pivots).encode()).hexdigest()
    assert got == SYZYGY_DIGESTS


def _product(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    return [[sum(a[i][k] * b[k][j] for k in range(3)) % p for j in range(3)] for i in range(3)]


# param._inverse3, the closed-form 3x3 inverse, against the reference
# elimination; about half the draws make the last row a combination of the
# other two, so singular matrices are common at both moduli
@pytest.mark.parametrize("p", [7, P])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_inverse_roundtrip_or_singular(p, data):
    entry = st.integers(min_value=0, max_value=3 if p == 7 else p - 1)
    m = data.draw(st.lists(st.lists(entry, min_size=3, max_size=3), min_size=3, max_size=3))
    if data.draw(st.booleans()):
        a, b = data.draw(entry), data.draw(entry)
        m[2] = [(a * x + b * y) % p for x, y in zip(m[0], m[1])]
    inv = _inverse3(np.array(m, dtype=np.int64), p)
    if len(reference_rref(m, p)[1]) < 3:
        assert inv is None
        return
    assert inv.dtype == np.int64 and not inv.flags.writeable
    identity = np.eye(3, dtype=np.int64).tolist()
    assert _product(m, inv.tolist(), p) == identity
    assert _product(inv.tolist(), m, p) == identity


@pytest.mark.parametrize("p", [7, P])
def test_singular_inverse_is_none_at_both_moduli(p):
    assert _inverse3(np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]]), p) is None
    assert _inverse3(np.zeros((3, 3), dtype=np.int64), p) is None


@pytest.mark.parametrize("p", [7, P])
def test_singular_inverse_raises_at_both_moduli(p):
    pts = PointSet([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 2, 3)], 0, p)
    rows = [[1, 0, 0], [0, 1, 0], [1, 1, 0]]
    assert _inverse3(np.array(rows), p) is None
    with pytest.raises(DegenerateConfigurationError, match="collinear centers"):
        cremona_apply(pts, 1, 2, 3)
