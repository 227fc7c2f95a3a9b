import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvesplit.exactla import MODULUS, MatFp, all_nonsingular, check_modulus, is_prime
from curvesplit.param import DegenerateConfigurationError, PlanePoint, _inverse3, cremona_apply

P = MODULUS


def test_default_modulus_is_prime():
    assert is_prime(P)
    assert check_modulus(P) == P


def test_bad_moduli_rejected():
    with pytest.raises(ValueError):
        check_modulus(91)
    with pytest.raises(ValueError):
        check_modulus(2**40)


def test_rank_identity():
    assert MatFp(np.eye(3, dtype=np.int64), P).rank() == 3


def test_rank_zero():
    assert MatFp.zeros(4, 7, P).rank() == 0


def test_rank_proportional_rows():
    # hand row-reduce: second row is twice the first
    assert MatFp([[1, 2], [2, 4]], 65537).rank() == 1


def test_kernel_identity_empty():
    assert MatFp(np.eye(3, dtype=np.int64), P).kernel_basis() == []


def test_kernel_zero_matrix():
    basis = MatFp.zeros(2, 3, P).kernel_basis()
    assert len(basis) == 3


def test_kernel_vectors_annihilated():
    m = MatFp([[1, 1, 0]], P)
    basis = m.kernel_basis()
    assert len(basis) == 2
    for v in basis:
        assert not m.matvec(v).any()


def test_kernel_reduced_normal_form():
    m = MatFp([[1, 2, 3], [0, 0, 1]], P)
    basis = m.kernel_basis()
    assert len(basis) == 1
    v = basis[0]
    # free column is 1; pivot coordinates determined by the RREF
    assert v[1] == 1 and v[0] == P - 2 and v[2] == 0


def test_inverse_roundtrip():
    m = MatFp([[1, 2, 0], [0, 1, 5], [7, 0, 1]], P)
    inv = _inverse3(m.entries, P)
    prod = np.zeros((3, 3), dtype=np.int64)
    for i in range(3):
        prod[:, i] = m.matvec(inv.entries[:, i])
    assert np.array_equal(prod, np.eye(3, dtype=np.int64))


def test_singular_inverse_raises():
    # the frame matrix N of a Cremona step has no inverse exactly when its
    # centers are collinear; cremona_apply refuses such centers, so
    # CremonaStep.pull_back never meets a singular N
    pts = tuple(PlanePoint(x, P) for x in [(1, 2, 3), (0, 1, 0), (1, 3, 3), (1, 1, 7), (2, 5, 1)])
    with pytest.raises(DegenerateConfigurationError, match="collinear centers"):
        cremona_apply(pts, 1, 2, 3, P)
    step = cremona_apply(pts, 1, 4, 5, P)
    assert _inverse3(step.n_matrix.entries, P) is not None


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
        assert not m.matvec(v).any()


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
    assert inv.p == p
    identity = np.eye(3, dtype=np.int64).tolist()
    assert _product(m, inv.entries.tolist(), p) == identity
    assert _product(inv.entries.tolist(), m, p) == identity


@pytest.mark.parametrize("p", [7, P])
def test_singular_inverse_is_none_at_both_moduli(p):
    assert _inverse3(np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]]), p) is None
    assert _inverse3(np.zeros((3, 3), dtype=np.int64), p) is None


@pytest.mark.parametrize("p", [7, P])
def test_singular_inverse_raises_at_both_moduli(p):
    pts = tuple(PlanePoint(x, p) for x in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 2, 3)])
    rows = [[1, 0, 0], [0, 1, 0], [1, 1, 0]]
    assert _inverse3(np.array(rows), p) is None
    with pytest.raises(DegenerateConfigurationError, match="collinear centers"):
        cremona_apply(pts, 1, 2, 3, p)


def test_all_nonsingular_matches_rank_on_random_stacks():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        stack = rng.integers(0, 7, size=(int(rng.integers(1, 12)), 6, 6))
        expect = all(MatFp(m, 7).rank() == 6 for m in stack)
        assert all_nonsingular(stack, 7) == expect


def test_all_nonsingular_finds_the_one_singular_matrix():
    rng = np.random.default_rng(7)
    found = 0
    while found < 40:
        stack = rng.integers(0, 7, size=(8, 6, 6))
        ranks = [MatFp(m, 7).rank() for m in stack]
        if ranks.count(6) != 7:
            continue
        found += 1
        assert not all_nonsingular(stack, 7)
        singular = ranks.index(min(ranks))
        assert all_nonsingular(np.delete(stack, singular, axis=0), 7)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_all_nonsingular_matches_rank_mod_7(data):
    b = data.draw(st.integers(min_value=1, max_value=5))
    n = data.draw(st.integers(min_value=1, max_value=6))
    row = st.lists(st.integers(min_value=0, max_value=6), min_size=n, max_size=n)
    matrix = st.lists(row, min_size=n, max_size=n)
    stack = np.array(data.draw(st.lists(matrix, min_size=b, max_size=b)))
    assert all_nonsingular(stack, 7) == all(MatFp(m, 7).rank() == n for m in stack)


def test_all_nonsingular_default_modulus_and_shapes():
    rng = np.random.default_rng(3)
    stack = rng.integers(0, P, size=(84, 6, 6))
    assert all_nonsingular(stack, P) == all(MatFp(m, P).rank() == 6 for m in stack)
    stack[41, 5] = 2 * stack[41, 0] + stack[41, 3]
    assert not all_nonsingular(stack, P)
    assert all_nonsingular(np.zeros((0, 6, 6), dtype=np.int64), P)
    with pytest.raises(ValueError):
        all_nonsingular(np.zeros((2, 3, 4), dtype=np.int64), P)

