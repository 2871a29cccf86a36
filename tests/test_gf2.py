import pytest
from hypothesis import given, settings, strategies as st

import binshor.gf2
from binshor.gf2 import (
    BinaryPoly,
    FieldSpec,
    ModulusSet,
    STANDARD_POLYS,
    GF2Error,
    ZeroDivisionGF2Error,
    ZeroModulusError,
    InvalidModulusSetError,
    cldivmod,
    clmod,
    clmul,
    clsquare,
    crt_constants,
    enumerate_irreducibles,
    field_inv,
    is_irreducible,
    parse_modulus_set,
    planes_mul_mod,
    poly_gcd,
    poly_inv_mod,
    poly_mul_mod,
    validate_modulus_set,
)
from binshor.datafiles import load_modulus_set
from binshor.linalg import BitMatrix
from binshor.pipeline import field_for


P3 = BinaryPoly.from_terms(3, 1, 0)  # x^3+x+1


def brute_mul_mod(a: int, b: int, m: int) -> int:
    # independent schoolbook multiply-then-reduce on raw bit-vectors
    acc = 0
    for i in range(a.bit_length()):
        if (a >> i) & 1:
            acc ^= b << i
    md = m.bit_length() - 1
    while acc.bit_length() - 1 >= md and acc:
        acc ^= m << (acc.bit_length() - 1 - md)
    return acc


def test_poly_mul_mod_zero_annihilates():
    assert poly_mul_mod(BinaryPoly(0), BinaryPoly(0b1011), P3) == BinaryPoly(0)


def test_poly_mul_mod_hand_example():
    # (x+1)(x^2+1) = x^3+x^2+x+1 = x^2 once x^3 = x+1 is substituted
    a = BinaryPoly.from_terms(1, 0)
    b = BinaryPoly.from_terms(2, 0)
    assert poly_mul_mod(a, b, P3) == BinaryPoly.from_terms(2)


def test_poly_mul_mod_single_reduction_step_n163():
    p = STANDARD_POLYS[163]
    a = BinaryPoly.from_terms(162)
    b = BinaryPoly.from_terms(1)
    assert poly_mul_mod(a, b, p) == BinaryPoly.from_terms(7, 6, 3, 0)


def test_poly_mul_mod_rejects_zero_modulus():
    with pytest.raises(ZeroModulusError):
        poly_mul_mod(BinaryPoly(1), BinaryPoly(1), BinaryPoly(0))


def test_clmul_matches_brute():
    import random
    rng = random.Random(7)
    for _ in range(500):
        a, b, m = rng.getrandbits(24), rng.getrandbits(24), rng.getrandbits(12) | (1 << 12)
        assert clmod(clmul(a, b), m) == brute_mul_mod(a, b, m)


poly_bits = st.integers(0, 2**300)


@settings(max_examples=300, deadline=None)
@given(poly_bits, poly_bits.filter(bool))
def test_cldivmod_identity(a, b):
    q, r = cldivmod(a, b)
    assert clmul(q, b) ^ r == a
    assert r.bit_length() < b.bit_length()  # deg r < deg b
    assert clmod(a, b) == r


@settings(max_examples=300, deadline=None)
@given(poly_bits, poly_bits, poly_bits)
def test_clmul_commutative_and_distributive(a, b, c):
    assert clmul(a, b) == clmul(b, a)
    assert clmul(a, b ^ c) == clmul(a, b) ^ clmul(a, c)
    assert clsquare(a) == clmul(a, a)


def test_cldivmod_rejects_zero_modulus():
    with pytest.raises(ZeroModulusError):
        cldivmod(5, 0)
    with pytest.raises(ZeroModulusError):
        clmod(5, 0)


def test_field_inv_identity():
    f = FieldSpec(3, P3)
    assert field_inv(BinaryPoly(1), f) == BinaryPoly(1)


def test_field_inv_gf8_example():
    f = FieldSpec(3, P3)
    inv = field_inv(BinaryPoly.from_terms(1), f)
    assert inv == BinaryPoly.from_terms(2, 0)  # x^2+1
    assert poly_mul_mod(BinaryPoly.from_terms(1), inv, P3) == BinaryPoly(1)


def test_field_inv_zero_raises():
    f = FieldSpec(3, P3)
    with pytest.raises(ZeroDivisionGF2Error):
        field_inv(BinaryPoly(0), f)


def test_field_inv_involution_gf256():
    f = FieldSpec(8, enumerate_irreducibles(8)[0])
    for v in range(1, 256):
        a = BinaryPoly(v)
        assert field_inv(field_inv(a, f), f) == a


@pytest.mark.parametrize("n", range(2, 11))
def test_field_inv_exhaustive_up_to_gf1024(n):
    f = FieldSpec(n, enumerate_irreducibles(n)[0])
    one = BinaryPoly(1)
    for v in range(1, 1 << n):
        a = BinaryPoly(v)
        assert poly_mul_mod(a, field_inv(a, f), f.p) == one


@pytest.mark.parametrize("d,count", [(1, 2), (2, 1), (3, 2), (4, 3), (5, 6),
                                     (6, 9), (7, 18), (8, 30), (9, 56), (10, 99)])
def test_irreducible_counts(d, count):
    assert len(enumerate_irreducibles(d)) == count


def test_irreducible_counts_match_necklace_formula():
    # Moebius-inverted necklace count, computed independently
    def moebius(n):
        if n == 1:
            return 1
        res, m, p = 1, n, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                res = -res
            p += 1
        if m > 1:
            res = -res
        return res

    for d in range(1, 11):
        expected = sum(moebius(d // e) * (1 << e) for e in range(1, d + 1)
                       if d % e == 0) // d
        assert len(enumerate_irreducibles(d)) == expected


def test_irreducibles_sorted_and_irreducible():
    for d in (2, 3, 4, 5):
        polys = enumerate_irreducibles(d)
        bits = [p.bits for p in polys]
        assert bits == sorted(bits)
        assert all(is_irreducible(p) for p in polys)


def test_degree2_unique():
    assert enumerate_irreducibles(2) == [BinaryPoly.from_terms(2, 1, 0)]


def test_standard_polys_irreducible():
    # FieldSpec skips its irreducibility test for these four, on this proof
    for n, p in STANDARD_POLYS.items():
        assert p.degree == n
        assert binshor.gf2._rabin(p)
        assert is_irreducible(p)


def test_field_spec_still_tests_other_polys_of_standard_degrees():
    for n in STANDARD_POLYS:
        with pytest.raises(GF2Error, match="not irreducible"):
            FieldSpec(n, BinaryPoly.from_terms(n, 1))  # x divides it
        with pytest.raises(GF2Error, match="not irreducible"):
            FieldSpec(n, BinaryPoly.from_terms(n, 0))  # x + 1 divides it


@st.composite
def irreducible_polys(draw, degrees):
    """An irreducible polynomial of a drawn degree: the first at or above a
    drawn one, wrapping round within the degree."""
    n = draw(degrees)
    start = draw(st.integers(1 << n, (2 << n) - 1))
    cands = [*range(start, 2 << n), *range(1 << n, start)]
    return next(BinaryPoly(b) for b in cands if is_irreducible(BinaryPoly(b)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(irreducible_polys(st.integers(2, 16)),
                 st.just(STANDARD_POLYS[163])), st.data())
def test_planes_mul_mod_is_poly_mul_mod_per_lane(p, data):
    n = p.degree
    element = st.integers(0, (1 << n) - 1)
    pairs = data.draw(st.lists(st.tuples(element, element), min_size=1,
                               max_size=130))
    fs, gs = zip(*pairs)
    prod = planes_mul_mod(BitMatrix.from_columns(list(fs), n).rows,
                          BitMatrix.from_columns(list(gs), n).rows, p.bits)
    got = BitMatrix.from_columns(prod, len(pairs)).rows
    assert got == [poly_mul_mod(BinaryPoly(f), BinaryPoly(g), p).bits
                   for f, g in pairs]


def _check_tables(field, pairs):
    mul, inv = field.ops
    for a, b in pairs:
        want = poly_mul_mod(BinaryPoly(a), BinaryPoly(b), field.p)
        assert mul(a, b) == want.bits
        assert field.mul(BinaryPoly(a), BinaryPoly(b)) == want
        if a:
            want = poly_inv_mod(BinaryPoly(a), field.p)
            assert inv(a) == want.bits
            assert field_inv(BinaryPoly(a), field) == want


@pytest.mark.parametrize("n", range(2, 9))
def test_log_tables_on_every_pair(n):
    field = field_for(n)
    _check_tables(field, [(a, b) for a in range(1 << n)
                          for b in range(1 << n)])


@settings(max_examples=30, deadline=None)
@given(irreducible_polys(st.integers(2, 16)), st.data())
def test_log_tables_on_samples(p, data):
    element = st.integers(0, (1 << p.degree) - 1)
    _check_tables(FieldSpec(p.degree, p), data.draw(
        st.lists(st.tuples(element, element), min_size=1, max_size=50)))


@pytest.mark.parametrize("n", range(9, 17))
def test_log_tables_on_samples_of_field_for(n):
    import random

    rng = random.Random(n)
    _check_tables(field_for(n), [(rng.getrandbits(n), rng.getrandbits(n))
                                 for _ in range(500)])


def test_log_tables_find_a_generator_when_x_is_not_one():
    # x has order 51 modulo the AES polynomial x^8+x^4+x^3+x+1 (field_for(8))
    p = field_for(8).p
    assert p.bits == 0x11B
    assert clmod(1 << 51, p.bits) == 1
    exp, log = binshor.gf2._log_tables(p.bits)
    assert exp[1] == 0b11  # x + 1 generates the group instead
    assert sorted(exp[:255]) == list(range(1, 256)) and exp[255] == 1
    assert all(log[exp[i]] == i for i in range(255))


def test_field_mul_reduces_operands_outside_the_field():
    f = field_for(4)
    a, b = BinaryPoly(0b110101), BinaryPoly(0b1011)
    assert f.mul(a, b) == poly_mul_mod(a, b, f.p)


def test_crt_constants_single_factor():
    ms = ModulusSet(((P3, 1),))
    (q1,) = crt_constants(ms)
    assert clmod(q1.bits, P3.bits) == 1


def test_crt_constants_two_factor_toy():
    ms = ModulusSet(((BinaryPoly(0b10), 1), (BinaryPoly(0b11), 1)))  # x, x+1
    q1, q2 = crt_constants(ms)
    assert q1 == BinaryPoly(0b11)  # x+1
    assert q2 == BinaryPoly(0b10)  # x


def test_crt_constants_table_set_residues():
    ms = load_modulus_set(163)
    qs = crt_constants(ms)
    mods = ms.moduli
    for i, qi in enumerate(qs):
        for j, mj in enumerate(mods):
            assert clmod(qi.bits, mj.bits) == (1 if i == j else 0)


# the 14 monic irreducibles of degree 1 to 5, bases of random modulus sets
SMALL_IRREDUCIBLES = [p for d in range(1, 6) for p in enumerate_irreducibles(d)]


@st.composite
def modulus_sets(draw):
    bases = draw(st.lists(st.sampled_from(SMALL_IRREDUCIBLES), min_size=1,
                          max_size=7, unique=True))
    exps = draw(st.lists(st.integers(1, 3), min_size=len(bases),
                         max_size=len(bases)))
    return ModulusSet(tuple(zip(bases, exps)))


@settings(max_examples=150, deadline=None)
@given(modulus_sets(), st.randoms(use_true_random=False))
def test_crt_constants_residue_matrix_and_reconstruction(ms, rng):
    qs = crt_constants(ms)
    mods = ms.moduli
    # the full k x k residue matrix: q_i = 1 mod m_i and 0 mod every m_j
    for i, qi in enumerate(qs):
        for j, mj in enumerate(mods):
            assert clmod(qi.bits, mj.bits) == (1 if i == j else 0)
    # sum_i r_i q_i mod m is the unique f of degree < deg m with f = r_i mod m_i
    rs = [rng.getrandbits(mi.degree) for mi in mods]
    f = 0
    for r, qi in zip(rs, qs):
        f ^= clmul(r, qi.bits)
    f = clmod(f, ms.m.bits)
    assert [clmod(f, mi.bits) for mi in mods] == rs
    # cached per distinct set; the cached products leave equality alone
    twin = ModulusSet(ms.factors)
    assert twin == ms and hash(twin) == hash(ms)
    assert crt_constants(twin) is qs
    assert twin.m == ms.m and twin.moduli == mods


def test_crt_constants_rejects_wrong_inverse(monkeypatch):
    # the O(k) check must catch a constant that is not 1 mod its own factor
    ms = ModulusSet(((P3, 1), (BinaryPoly(0b111), 2), (BinaryPoly(0b10), 1)))
    real = binshor.gf2.poly_inv_mod
    monkeypatch.setattr(binshor.gf2, "poly_inv_mod",
                        lambda a, m: real(a, m) + BinaryPoly(1))
    crt_constants.cache_clear()
    try:
        with pytest.raises(InvalidModulusSetError):
            crt_constants(ms)
    finally:
        crt_constants.cache_clear()


@pytest.mark.parametrize("n,omega", [(163, 0), (233, 0), (283, 4), (571, 6)])
def test_validate_modulus_set_omegas(n, omega):
    ms = load_modulus_set(n)
    assert validate_modulus_set(ms, n) == omega


def _unchecked_modulus_set(factors):
    # bypass ModulusSet's own checks to reach validate_modulus_set
    ms = object.__new__(ModulusSet)
    object.__setattr__(ms, "factors", factors)
    return ms


def test_validate_modulus_set_rejects_non_coprime_factor():
    ms = _unchecked_modulus_set(
        ((BinaryPoly(0b111), 1), (P3, 1), (P3, 2)))
    with pytest.raises(InvalidModulusSetError) as e:
        validate_modulus_set(ms, 4)
    assert str(e.value) == f"factor {P3} is not coprime to the other factors"


_SMALL_BASES = [BinaryPoly(b) for b in (0b10, 0b11, 0b111, 0b1011, 0b1101,
                                        0b101)]  # the last is (x+1)^2


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_SMALL_BASES), st.integers(1, 3)),
                min_size=1, max_size=5))
def test_validate_modulus_set_coprimality_matches_pairwise(factors):
    # the O(k) check against every pair, on sets that may repeat a base or
    # use a reducible one
    ms = _unchecked_modulus_set(tuple(factors))
    mods = ms.moduli
    coprime = all(poly_gcd(a, b).degree == 0
                  for i, a in enumerate(mods) for b in mods[i + 1:])
    try:
        validate_modulus_set(ms, 1)
    except InvalidModulusSetError:
        assert not coprime
    else:
        assert coprime


def test_modulus_set_rejects_repeated_base():
    with pytest.raises(InvalidModulusSetError):
        ModulusSet(((BinaryPoly(0b10), 1), (BinaryPoly(0b10), 2)))


def test_parse_modulus_set_roundtrip():
    ms = parse_modulus_set("1:1:8\n1:2:8\n2:1:4\n# comment\n3:1:2\n")
    degs = sorted(b.degree * e for b, e in ms.factors)
    assert degs == [6, 8, 8, 8]


def test_field_axioms_exhaustive_small():
    # commutativity/associativity/distributivity, exhaustive for n <= 4
    for n in (2, 3, 4):
        p = enumerate_irreducibles(n)[0]
        f = FieldSpec(n, p)
        mul = [[poly_mul_mod(BinaryPoly(a), BinaryPoly(b), p).bits
                for b in range(1 << n)] for a in range(1 << n)]
        size = 1 << n
        for a in range(size):
            for b in range(size):
                assert mul[a][b] == mul[b][a]
                for c in range(size):
                    assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                    assert mul[a][b ^ c] == mul[a][b] ^ mul[a][c]


def test_field_axioms_mult_table_gf256_exhaustive():
    # commutativity, associativity and distributivity over all of GF(2^8),
    # exhaustively (16.7M triples) via a vectorized multiplication table
    import numpy as np
    p = enumerate_irreducibles(8)[0]
    size = 256
    table = np.zeros((size, size), dtype=np.uint16)
    for a in range(size):
        for b in range(a, size):
            v = brute_mul_mod(a, b, p.bits)
            table[a, b] = v
            table[b, a] = v
    assert np.array_equal(table, table.T)  # commutativity
    a, b, c = np.meshgrid(np.arange(size), np.arange(size),
                          np.arange(size, dtype=np.uint16), sparse=True)
    assert np.array_equal(table[table[a, b], c], table[a, table[b, c]])
    assert np.array_equal(table[a, b ^ c], table[a, b] ^ table[a, c])


@pytest.mark.parametrize("d", range(1, 13))
def test_sieve_equals_the_rabin_enumeration(d):
    want = [b for b in range(1 << d, 2 << d)
            if binshor.gf2._rabin(BinaryPoly(b))]
    assert [p.bits for p in enumerate_irreducibles(d)] == want


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**14 - 1))
def test_is_irreducible_agrees_with_rabin_through_degree_13(bits):
    # degrees up to 12 are looked up in the sieve, 13 goes to Rabin
    p = BinaryPoly(bits)
    assert is_irreducible(p) == binshor.gf2._rabin(p)
