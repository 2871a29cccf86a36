"""The word-level GF(2) kernels against the bit-at-a-time code they replaced.

The references below are the earlier implementations, kept verbatim in
behaviour: a transpose one set bit at a time, a product one row XOR per set
entry, PLU one column at a time, and remainder by bit-serial division.
Every kernel must give the same matrix, factors, error and rank.  The
column kernel for tall maps, ``plu_columns``, has ``plu_decompose`` as its
reference.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from binshor.gf2 import (
    STANDARD_POLYS,
    BinaryPoly,
    FieldSpec,
    GF2Error,
    _divmod_bytes,
    cldivmod,
    clmod,
)
from binshor.linalg import (
    BitMatrix,
    SingularMatrixError,
    _matmul_sparse,
    _matmul_tables,
    plu_columns,
    plu_decompose,
    reduction_matrix,
    squaring_matrix,
)


def from_columns_reference(cols, nrows):
    rows = [0] * nrows
    for j, col in enumerate(cols):
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= 1 << j
            col ^= low
    return rows


def matmul_reference(a_rows, b_rows):
    out = []
    for r in a_rows:
        acc = 0
        while r:
            low = r & -r
            acc ^= b_rows[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return out


def plu_reference(rows, d):
    """(perm, L rows, U rows), or ("singular", rank)."""
    n = len(rows)
    mask = (1 << d) - 1
    A = list(rows)
    perm = list(range(n))
    for c in range(d):
        bit = 1 << c
        piv = next((i for i in range(c, n) if A[i] & bit), None)
        if piv is None:
            return ("singular", BitMatrix([a & mask for a in A], d).rank())
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            perm[c], perm[piv] = perm[piv], perm[c]
        w = (A[c] & mask) | (1 << (d + c))
        A[c + 1:] = [a ^ w if a & bit else a for a in A[c + 1:]]
    L = [(a >> d) | (1 << i if i < d else 0) for i, a in enumerate(A)]
    U = [a & mask for a in A[:d]]
    inv = [0] * n
    for pos, orig in enumerate(perm):
        inv[orig] = pos
    return (tuple(inv), L, U)


def clmod_reference(a, m):
    dm = m.bit_length() - 1
    da = a.bit_length() - 1
    while da >= dm:
        a ^= m << (da - dm)
        da = a.bit_length() - 1
    return a


# sizes on both sides of each byte and word boundary
EDGES = (1, 7, 8, 9, 63, 64, 65)


def sized(size):
    return st.one_of(st.sampled_from(EDGES), st.integers(1, size))


@st.composite
def sparse_or_dense_rows(draw, nrows, ncols):
    density = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    return [sum(1 << j for j in range(ncols) if rng.random() < density)
            for _ in range(nrows)]


@settings(max_examples=200, deadline=None)
@given(sized(80), sized(80), st.data())
def test_from_columns_and_transpose_match_reference(nrows, ncols, data):
    cols = data.draw(sparse_or_dense_rows(ncols, nrows))
    M = BitMatrix.from_columns(cols, nrows)
    assert M.shape == (nrows, ncols)
    assert M.rows == from_columns_reference(cols, nrows)
    assert M.transpose().rows == cols


@settings(max_examples=200, deadline=None)
@given(sized(80), sized(80), sized(80), st.data())
def test_matmul_matches_reference(a, b, c, data):
    A = BitMatrix(data.draw(sparse_or_dense_rows(a, b)), b)
    B = BitMatrix(data.draw(sparse_or_dense_rows(b, c)), c)
    assert (A @ B).rows == matmul_reference(A.rows, B.rows)
    assert (A @ B).shape == (a, c)


def assert_plu_matches_reference(M):
    want = plu_reference(M.rows, M.ncols)
    if want[0] == "singular":
        with pytest.raises(SingularMatrixError) as e:
            plu_decompose(M)
        assert e.value.rank == want[1]
        assert str(e.value) == ("matrix has deficient column rank "
                                f"(rank {want[1]})")
        return
    plu = plu_decompose(M)
    assert (plu.perm, plu.L.rows, plu.U.rows) == want


@settings(max_examples=300, deadline=None)
@given(sized(70), st.integers(0, 40), st.data())
def test_plu_matches_reference(d, extra, data):
    rows = data.draw(sparse_or_dense_rows(d + extra, d))
    assert_plu_matches_reference(BitMatrix(rows, d))


@settings(max_examples=100, deadline=None)
@given(sized(70), st.integers(0, 30), st.integers(0, 2**32 - 1))
def test_plu_of_invertible_and_dependent_rows_matches_reference(d, n_extra,
                                                                seed):
    # random invertible top block, then rows that are sums of earlier ones,
    # so pivots sit below the block and some rows clear exactly
    rng = random.Random(seed)
    rows = []
    while True:
        rows = [rng.getrandbits(d) for _ in range(d)]
        if BitMatrix(rows, d).rank() == d:
            break
    for _ in range(n_extra):
        rows.append(rows[rng.randrange(len(rows))]
                    ^ rows[rng.randrange(len(rows))])
    rng.shuffle(rows)
    assert_plu_matches_reference(BitMatrix(rows, d))
    # copying column d-2 over column d-1 makes the same rows singular
    if d > 1:
        dup = [(r & ~(1 << (d - 1))) | (((r >> (d - 2)) & 1) << (d - 1))
               for r in rows]
        assert_plu_matches_reference(BitMatrix(dup, d))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**200), st.one_of(
    st.integers(1, 2**70),                                 # dense
    st.builds(lambda dm, low: (1 << dm) | low,             # sparse
              st.integers(1, 160), st.integers(0, 2**12)),
    st.sampled_from([p.bits for p in STANDARD_POLYS.values()] + [0x1002b]),
    st.just(1)))
def test_clmod_matches_bit_serial_remainder(a, m):
    assert clmod(a, m) == clmod_reference(a, m)


def test_kernels_at_571_match_reference():
    field = FieldSpec.standard(571)
    S = squaring_matrix(field, 1)
    cols = [clmod_reference(1 << (2 * j), field.p.bits) for j in range(571)]
    assert S.rows == from_columns_reference(cols, 571)
    S2 = S @ S
    assert S2.rows == matmul_reference(S.rows, S.rows)
    assert_plu_matches_reference(S2)
    rng = random.Random(571)
    M = BitMatrix([rng.getrandbits(571) for _ in range(571)], 571)
    assert (M @ S).rows == matmul_reference(M.rows, S.rows)
    assert_plu_matches_reference(M)


def test_from_columns_rejects_bits_outside_rows():
    with pytest.raises(GF2Error, match="outside the row range"):
        BitMatrix.from_columns([0b1, 0b1000], 3)
    with pytest.raises(GF2Error, match="outside the row range"):
        BitMatrix.from_columns([1 << 9], 8)  # beyond the last byte
    with pytest.raises(GF2Error, match="outside the row range"):
        BitMatrix.from_columns([0b1, -0b11], 3)
    with pytest.raises(GF2Error, match="empty"):
        BitMatrix.from_columns([], 3)
    assert BitMatrix.from_columns([0b100], 3).rows == [0, 0, 1]


def full_rank_columns(n, d, seed, zero_rows):
    """d columns of a random full-column-rank n x d matrix whose first
    ``zero_rows`` rows are zero, so that every pivot is swapped up."""
    rng = random.Random(seed)
    while True:
        cols = [rng.getrandbits(n - zero_rows) << zero_rows for _ in range(d)]
        if BitMatrix(cols, n).rank() == d:
            return cols


def assert_plu_columns_matches_plu(cols, n):
    M = BitMatrix.from_columns(cols, n)
    d = len(cols)
    try:
        plu = plu_decompose(M)
    except SingularMatrixError as want:
        with pytest.raises(SingularMatrixError) as e:
            plu_columns(cols, n)
        assert (e.value.rank, str(e.value)) == (want.rank, str(want))
        return None
    L, U, rest, swaps = plu_columns(cols, n)
    assert L.rows == plu.L.rows[:d]
    assert U == plu.U
    assert swaps == tuple(plu.transpositions())
    # rest: the rows of P^-1 M = L U below the top d, held by column
    assert rest == BitMatrix.from_columns((plu.L @ plu.U).rows[d:], d)
    return swaps


tall_shapes = st.integers(2, 80).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, min(n - 1, 12))))


@settings(max_examples=200, deadline=None)
@given(tall_shapes, st.integers(0, 2**32 - 1), st.integers(0, 80))
@example((163, 10), 1, 0)
@example((571, 10), 2, 0)
@example((9, 1), 3, 0)
@example((571, 1), 4, 570)
@example((20, 6), 5, 14)
@example((163, 10), 6, 100)
def test_plu_columns_matches_plu_decompose(shape, seed, zero_rows):
    n, d = shape
    zero_rows = min(zero_rows, n - d)
    swaps = assert_plu_columns_matches_plu(
        full_rank_columns(n, d, seed, zero_rows), n)
    assert swaps or not zero_rows


@settings(max_examples=200, deadline=None)
@given(tall_shapes, st.data())
def test_plu_columns_of_any_tall_map_matches_plu_decompose(shape, data):
    # sparse, dense and zero columns: the same factors, or the same error
    # with the same rank when the map is rank-deficient
    n, d = shape
    assert_plu_columns_matches_plu(data.draw(sparse_or_dense_rows(d, n)), n)


@pytest.mark.parametrize("cols, n, rank", [
    ([0], 5, 0),
    ([0b0110, 0b0110], 4, 1),
    ([0b1000, 0b0100, 0b1100], 4, 2),
])
def test_plu_columns_rank_deficient_reports_rank(cols, n, rank):
    with pytest.raises(SingularMatrixError) as e:
        plu_columns(cols, n)
    assert e.value.rank == rank


def test_plu_columns_needs_a_tall_matrix():
    for cols, n in (([0b01, 0b10], 2), ([], 3), ([0b1000], 3)):
        with pytest.raises(GF2Error):
            plu_columns(cols, n)


def divmod_reference(a, m):
    dm = m.bit_length() - 1
    q = 0
    while a.bit_length() - 1 >= dm:
        shift = a.bit_length() - 1 - dm
        q ^= 1 << shift
        a ^= m << shift
    return q, a


small_moduli = st.integers(1, 16).flatmap(
    lambda d: st.integers(1 << d, (2 << d) - 1))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(0, 2**1200), st.integers(0, 2**90)),
       small_moduli)
@example(1 << 80, 0b11)          # one past the byte path's length
@example((1 << 80) - 1, 0b11)    # at it
@example(0, 0b1011)
@example((1 << 1200) - 1, (1 << 16) | 0b101101)
def test_byte_division_matches_bit_serial_division(a, m):
    want = divmod_reference(a, m)
    assert _divmod_bytes(a, m) == want
    assert _divmod_bytes(a, m, quotient=False) == (0, want[1])
    assert cldivmod(a, m) == want
    assert clmod(a, m) == want[1]


@settings(max_examples=200, deadline=None)
@given(sized(80), sized(80), sized(80), st.data())
def test_sparse_and_table_products_agree(a, b, c, data):
    # both kernels of A @ B, whichever one the operator would pick
    A = data.draw(sparse_or_dense_rows(a, b))
    B = data.draw(sparse_or_dense_rows(b, c))
    want = matmul_reference(A, B)
    assert _matmul_sparse(A, B) == want
    assert _matmul_tables(A, B, b) == want


def strict_entries(plu):
    """The entries of L left of its diagonal and of U right of it."""
    return sum(r.bit_count() - 1 for r in plu.L.rows + plu.U.rows)


@settings(max_examples=200, deadline=None)
@given(sized(70), st.integers(0, 2**32 - 1))
@example(571, 7)
def test_plu_stops_exactly_past_its_budget(d, seed):
    # an invertible square matrix: no factors exactly when their strict
    # entries number more than the limit, else the factors without one
    rng = random.Random(seed)
    while True:
        M = BitMatrix([rng.getrandbits(d) for _ in range(d)], d)
        if M.rank() == d:
            break
    full = plu_decompose(M)
    spent = strict_entries(full)
    for limit in (spent - 1, spent, spent + 1, 0,
                  rng.randint(0, 2 * spent + 2)):
        got = plu_decompose(M, limit=limit)
        if spent > limit:
            assert got is None
        else:
            assert got == full


def reduction_columns_reference(m, n):
    """The columns x^(k+d) mod m, k < n - d, stepped one shift at a time."""
    d = m.bit_length() - 1
    cols, acc = [], clmod_reference(1 << d, m)
    for _ in range(n - d):
        cols.append(acc)
        acc <<= 1
        if acc >> d:
            acc ^= m
    return cols


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 20).flatmap(
    lambda d: st.tuples(st.integers(1 << d, (2 << d) - 1),
                        st.integers(d + 1, 600))))
@example((0b100, 3))             # x^2, one column
@example((0b1011, 571))          # x^3 + x + 1 at n = 571
def test_reduction_matrix_rows_match_its_columns(case):
    m, n = case
    M = reduction_matrix.__wrapped__(BinaryPoly(m), n)
    d = m.bit_length() - 1
    assert M.shape == (d, n - d)
    assert M.rows == from_columns_reference(
        reduction_columns_reference(m, n), d)
