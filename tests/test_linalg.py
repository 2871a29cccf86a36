import random

import pytest
from hypothesis import given, settings, strategies as st

from binshor.gf2 import (
    BinaryPoly,
    FieldSpec,
    GF2Error,
    ModulusSet,
    enumerate_irreducibles,
    poly_mul_mod,
    clmod,
)
from binshor.linalg import (
    BitMatrix,
    SingularMatrixError,
    correction_matrix,
    crt_recombination_matrix,
    plu_decompose,
    reduction_matrix,
    squaring_matrix,
)
from binshor.datafiles import load_modulus_set
from binshor.gf2 import crt_constants
from helpers import const_mul_matrix

P3 = BinaryPoly.from_terms(3, 1, 0)
F3 = FieldSpec(3, P3)
F163 = FieldSpec.standard(163)


def rand_poly(rng, n):
    return BinaryPoly(rng.getrandbits(n))


def test_const_mul_identity():
    assert const_mul_matrix(BinaryPoly(1), F3) == BitMatrix.identity(3)


def test_const_mul_gf8_by_x():
    M = const_mul_matrix(BinaryPoly.from_terms(1), F3)
    # columns are x, x^2, x+1
    assert M.transpose().rows == [0b010, 0b100, 0b011]


def test_const_mul_zero_rejected():
    with pytest.raises(SingularMatrixError):
        const_mul_matrix(BinaryPoly(0), F3)


def test_const_mul_oracle_gf163():
    rng = random.Random(163)
    for _ in range(50):
        h = rand_poly(rng, 163)
        if h.is_zero():
            continue
        M = const_mul_matrix(h, F163)
        for _ in range(20):
            f = rand_poly(rng, 163)
            assert M.mat_vec(f.bits) == poly_mul_mod(f, h, F163.p).bits


def test_reduction_matrix_x_squared():
    M = reduction_matrix(BinaryPoly.from_terms(2), 4)
    assert M.rows == [0, 0]


def test_reduction_matrix_quadratic():
    M = reduction_matrix(BinaryPoly.from_terms(2, 1, 0), 4)
    # columns x^2 = x+1 and x^3 = 1
    assert M.transpose().rows == [0b11, 0b01]


def test_reduction_oracle_table_set():
    rng = random.Random(9)
    ms = load_modulus_set(163)
    for mi in ms.moduli:
        d = mi.degree
        M = reduction_matrix(mi, 163)
        for _ in range(5):
            f = rng.getrandbits(163)
            low = f & ((1 << d) - 1)
            high = f >> d
            assert (low ^ M.mat_vec(high)) == clmod(f, mi.bits)


def test_reduction_degree_error():
    with pytest.raises(GF2Error):
        reduction_matrix(BinaryPoly.from_terms(4, 1, 0), 4)


def test_squaring_matrix_gf8():
    S = squaring_matrix(F3, 1)
    # columns 1 -> 1, x -> x^2, x^2 -> x^2+x
    assert S.transpose().rows == [0b001, 0b100, 0b110]


def test_squaring_frobenius_order():
    for n in (3, 4, 5):
        f = FieldSpec(n, enumerate_irreducibles(n)[0])
        assert squaring_matrix(f, n) == BitMatrix.identity(n)


def test_squaring_power_composition():
    for n in (3, 4, 6):
        f = FieldSpec(n, enumerate_irreducibles(n)[0])
        S1 = squaring_matrix(f, 1)
        acc = S1
        for k in range(2, 2 * n + 1):
            acc = S1 @ acc
            assert squaring_matrix(f, k) == acc


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(n, p) for n in range(2, 9)
                        for p in enumerate_irreducibles(n)[:2]]),
       st.integers(1, 40))
def test_squaring_matrix_composed_equals_power(field, k):
    # composed from whichever powers of the field are cached by now
    f = FieldSpec(*field)
    assert squaring_matrix(f, k) == squaring_matrix(f, 1) ** k


def rank_reference(M):
    # the earlier elimination: reduce each row by a sorted basis
    basis = []
    for r in M.rows:
        v = r
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def permutation(plu):
    """P of M = P L U, rebuilt from ``perm``: P[i, perm[i]] = 1."""
    n = len(plu.perm)
    return BitMatrix([1 << plu.perm[i] for i in range(n)], n)


def reconstruct(plu):
    return permutation(plu) @ plu.L @ plu.U


@st.composite
def bit_matrices(draw, max_rows=12, max_cols=12, min_rows=1):
    ncols = draw(st.integers(1, max_cols))
    nrows = draw(st.integers(max(min_rows, 1), max(max_rows, min_rows)))
    rows = draw(st.lists(st.integers(0, (1 << ncols) - 1), min_size=nrows,
                         max_size=nrows))
    return BitMatrix(rows, ncols)


@settings(max_examples=300, deadline=None)
@given(bit_matrices())
def test_rank_matches_reference(M):
    assert M.rank() == rank_reference(M)


@settings(max_examples=200, deadline=None)
@given(bit_matrices(max_rows=16, max_cols=8, min_rows=8))
def test_plu_tall_roundtrip_or_rank(M):
    n, d = M.shape
    rank = M.rank()
    if rank < d:
        with pytest.raises(SingularMatrixError) as e:
            plu_decompose(M)
        assert e.value.rank == rank
        return
    plu = plu_decompose(M)
    assert reconstruct(plu) == M
    assert plu.U.shape == (d, d) and plu.L.shape == (n, d)
    for i in range(n):
        assert plu.L.rows[i] >> (i + 1) == 0
        if i < d:
            assert plu.L.rows[i] >> i & 1
            assert plu.U.rows[i] & ((1 << i) - 1) == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.data())
def test_stepped_matrices_match_clmod_columns(dm, n, data):
    m = (1 << dm) | data.draw(st.integers(0, (1 << dm) - 1))
    p = (1 << n) | data.draw(st.integers(0, (1 << n) - 1))
    q = data.draw(st.integers(0, (1 << (2 * dm)) - 1))
    d_i = data.draw(st.integers(1, 12))
    M = BitMatrix.from_columns(crt_recombination_matrix(
        BinaryPoly(q), BinaryPoly(m), d_i, n, BinaryPoly(p)), n)
    cols = M.transpose().rows
    for k in range(d_i):
        assert cols[k] == clmod(clmod(q << k, m), p)
    if dm < n:
        cols = reduction_matrix(BinaryPoly(m), n).transpose().rows
        for k in range(n - dm):
            assert cols[k] == clmod(1 << (k + dm), m)


def test_plu_identity():
    plu = plu_decompose(BitMatrix.identity(4))
    assert permutation(plu) == BitMatrix.identity(4)
    assert plu.L == BitMatrix.identity(4)
    assert plu.U == BitMatrix.identity(4)


def test_plu_swap_matrix():
    M = BitMatrix([0b10, 0b01], 2)
    plu = plu_decompose(M)
    assert plu.L == BitMatrix.identity(2)
    assert plu.U == BitMatrix.identity(2)
    assert reconstruct(plu) == M


@pytest.mark.parametrize("size", [8, 64, 163])
@settings(deadline=None)
@given(seed=st.integers(0, 2**64 - 1))
def test_plu_roundtrip_random(size, seed):
    # a uniformly random invertible matrix: draw until one is invertible
    rng = random.Random(seed)
    M = BitMatrix([rng.getrandbits(size) for _ in range(size)], size)
    while M.rank() < size:
        M = BitMatrix([rng.getrandbits(size) for _ in range(size)], size)
    plu = plu_decompose(M)
    assert reconstruct(plu) == M
    # L unit-lower, U upper with unit diagonal over GF(2)
    for i in range(size):
        assert plu.L.rows[i] >> i & 1
        assert plu.L.rows[i] >> (i + 1) == 0
        assert plu.U.rows[i] & ((1 << i) - 1) == 0


def test_plu_const_mul_gf163():
    rng = random.Random(5)
    h = BinaryPoly(rng.getrandbits(163) | 1)
    M = const_mul_matrix(h, F163)
    assert reconstruct(plu_decompose(M)) == M


def test_plu_singular_reports_rank():
    M = BitMatrix([0b11, 0b11], 2)
    with pytest.raises(SingularMatrixError) as e:
        plu_decompose(M)
    assert e.value.rank == 1


def test_crt_recombination_identity_embedding():
    # q_i = 1 with m of degree > n: column k is x^k mod p for k < n
    m = BinaryPoly.from_terms(7, 0)
    M = BitMatrix.from_columns(
        crt_recombination_matrix(BinaryPoly(1), m, 3, 3, P3), 3)
    cols = M.transpose().rows
    for k in range(3):
        assert cols[k] == clmod(1 << k, P3.bits)


def test_crt_recombination_two_factor_toy():
    # n=2 field, m = x(x+1): deg m = 2n-2, so recombination plus the single
    # correction column reproduces the oracle product on all 16 pairs
    f2 = FieldSpec(2, enumerate_irreducibles(2)[0])
    ms = ModulusSet(((BinaryPoly(0b10), 1), (BinaryPoly(0b11), 1)))
    qs = crt_constants(ms)
    m = ms.m
    mats = [BitMatrix.from_columns(crt_recombination_matrix(q, m, 1, 2, f2.p),
                                   2) for q in qs]
    H = BitMatrix.from_columns(correction_matrix(ms, 2, f2.p), 2)
    for fv in range(4):
        for gv in range(4):
            want = poly_mul_mod(BinaryPoly(fv), BinaryPoly(gv), f2.p).bits
            acc = 0
            for (mi, M) in zip(ms.moduli, mats):
                ci = clmod(clmul_bits(fv, gv), mi.bits)
                acc ^= M.mat_vec(ci)
            c_high = (clmul_bits(fv, gv) >> 2) & 1  # coefficient of x^(2n-2)
            acc ^= H.mat_vec(c_high)
            assert acc == want


def clmul_bits(a, b):
    r = 0
    while b:
        low = b & -b
        r ^= a * low
        b ^= low
    return r


def test_crt_recombination_oracle_163():
    ms = load_modulus_set(163)
    qs = crt_constants(ms)
    m = ms.m
    mi = ms.moduli[0]
    M = BitMatrix.from_columns(
        crt_recombination_matrix(qs[0], m, mi.degree, 163, F163.p), 163)
    cols = M.transpose().rows
    for k in range(mi.degree):
        want = clmod(clmod(clmul_bits(1 << k, qs[0].bits), m.bits), F163.p.bits)
        assert cols[k] == want


def test_correction_matrix_single_column():
    # toy3 set {x, x+1, x^2+x+1}: deg m = 4 = 2n-2 at n = 3, omega = 1
    ms = ModulusSet(((BinaryPoly(0b10), 1), (BinaryPoly(0b11), 1),
                     (BinaryPoly(0b111), 1)))
    H = BitMatrix.from_columns(correction_matrix(ms, 3, P3), 3)
    assert H.shape == (3, 1)
    i = 2 * 3 - 2
    want = clmod((1 << i) ^ clmod(1 << i, ms.m.bits), P3.bits)
    assert H.transpose().rows[0] == want


def test_correction_matrix_283_columns():
    ms = load_modulus_set(283)
    f = FieldSpec.standard(283)
    H = BitMatrix.from_columns(correction_matrix(ms, 283, f.p), 283)
    assert H.shape == (283, 4)
    m, cols = ms.m, H.transpose().rows
    for j, i in enumerate(range(2 * 283 - 1 - 4, 2 * 283 - 1)):
        want = clmod((1 << i) ^ clmod(1 << i, m.bits), f.p.bits)
        assert cols[j] == want


def test_correction_matrix_omega_zero_errors():
    ms = load_modulus_set(163)
    with pytest.raises(GF2Error):
        correction_matrix(ms, 163, F163.p)
