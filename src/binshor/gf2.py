"""Binary polynomial and GF(2^n) field arithmetic.

Polynomials over F2 are stored as Python integers: bit i is the coefficient
of x^i.  This little-endian convention matches the qubit-register order used
by the circuit synthesizers, so a field element and the bitstring fed to a
simulated register read the same way.

Everything here is classical and serves two roles: the ground-truth oracle
that synthesized circuits are checked against, and the source of the
precomputed constants (reduction matrices, CRT constants, ...) that the
synthesizers consume.

A long dividend is divided or reduced by a modulus of degree at most 16 a
byte at a time, from two 256-entry tables per modulus, so the CRT
constants of a degree-~2n product cost about n/4 steps per factor, not
2n.  The irreducibles of degree at most 12 come from a sieve that strikes
every product of lower-degree ones, and :func:`is_irreducible` looks those
degrees up there; Rabin's test answers larger degrees.

A field of degree at most 16 multiplies and inverts by log and antilog
tables (:func:`_log_tables`), built once per field polynomial from an
element checked to generate the multiplicative group.  The oracle sweeps
multiply on bit-planes (:func:`planes_mul_mod`): one AND and one XOR per
pair of coefficients for all the cases of a sweep at once.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from typing import Callable


class GF2Error(ValueError):
    pass


class ZeroModulusError(GF2Error):
    pass


class ZeroDivisionGF2Error(GF2Error):
    pass


class InvalidModulusSetError(GF2Error):
    pass


class BinaryPoly:
    """Immutable polynomial over F2, backed by an int bit-vector.

    Bit i of ``bits`` is the coefficient of x^i.  ``degree`` is -1 for the
    zero polynomial (stands in for the usual "-infinity").
    """

    __slots__ = ("bits",)

    def __init__(self, bits: int):
        if bits < 0:
            raise GF2Error("coefficient vector must be non-negative")
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, *a):
        raise AttributeError("BinaryPoly is immutable")

    @classmethod
    def from_coeffs(cls, coeffs) -> "BinaryPoly":
        """Build from an iterable of 0/1 coefficients, index = degree."""
        bits = 0
        for i, c in enumerate(coeffs):
            if c & 1:
                bits |= 1 << i
        return cls(bits)

    @classmethod
    def from_terms(cls, *degrees: int) -> "BinaryPoly":
        bits = 0
        for d in degrees:
            bits ^= 1 << d
        return cls(bits)

    @property
    def degree(self) -> int:
        return self.bits.bit_length() - 1

    def coeff(self, i: int) -> int:
        return (self.bits >> i) & 1

    def is_zero(self) -> bool:
        return self.bits == 0

    def __add__(self, other: "BinaryPoly") -> "BinaryPoly":
        return BinaryPoly(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other: "BinaryPoly") -> "BinaryPoly":
        return BinaryPoly(clmul(self.bits, other.bits))

    def __mod__(self, other: "BinaryPoly") -> "BinaryPoly":
        return BinaryPoly(clmod(self.bits, other.bits))

    def __pow__(self, e: int) -> "BinaryPoly":
        r = BinaryPoly(1)
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def __eq__(self, other) -> bool:
        return isinstance(other, BinaryPoly) and self.bits == other.bits

    def __hash__(self):
        return hash(("BinaryPoly", self.bits))

    def __repr__(self):
        return f"BinaryPoly({self.bits:#x})"

    def __str__(self):
        if self.bits == 0:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            if self.coeff(i):
                terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
        return "+".join(terms)


ONE = BinaryPoly(1)


def clmul(a: int, b: int) -> int:
    """Carry-less product of two coefficient vectors."""
    r = 0
    while b:
        low = b & -b
        r ^= a << (low.bit_length() - 1)
        b ^= low
    return r


# cldivmod and clmod go a byte at a time (_divmod_bytes) when the modulus
# has at most this degree and the dividend more than _BYTES_MIN_BITS bits
# beyond it
_BYTES_MAX_DEG = 16
_BYTES_MIN_BITS = 64


@cache
def _byte_tables(m: int) -> tuple[bytes, array]:
    """The quotient and the remainder of t x^d by m (of degree d <= 16),
    for every byte t: XORs of those of the 8 shifted powers x^(d+i)."""
    dm = m.bit_length() - 1
    q, r = [0], [0]
    for i in range(8):
        qi, ri = cldivmod(1 << (dm + i), m)
        q += [x ^ qi for x in q]
        r += [x ^ ri for x in r]
    return bytes(q), array("H", r)


def _divmod_bytes(a: int, m: int, quotient: bool = True
                  ) -> tuple[int, int]:
    """(a // m, a mod m) for m of degree d <= 16, a byte of a at a time:
    with the remainder so far r (degree < d), r x^8 + byte = hi x^d + lo
    has hi < 256, so its quotient is that of hi x^d and its remainder lo
    plus that of hi x^d (:func:`_byte_tables`).  With ``quotient`` false
    the quotient is not kept and returned as 0."""
    dm = m.bit_length() - 1
    qt, rt = _byte_tables(m)
    mask = (1 << dm) - 1
    data = a.to_bytes((a.bit_length() + 7) >> 3, "big")
    r = 0
    if not quotient:
        for byte in data:
            v = (r << 8) | byte
            r = (v & mask) ^ rt[v >> dm]
        return 0, r
    q = bytearray(len(data))
    for i, byte in enumerate(data):
        v = (r << 8) | byte
        hi = v >> dm
        r = (v & mask) ^ rt[hi]
        q[i] = qt[hi]
    return int.from_bytes(q, "big"), r


def cldivmod(a: int, m: int) -> tuple[int, int]:
    if m == 0:
        raise ZeroModulusError("division by the zero polynomial")
    dm = m.bit_length() - 1
    if dm <= _BYTES_MAX_DEG and a.bit_length() > dm + _BYTES_MIN_BITS:
        return _divmod_bytes(a, m)
    q = 0
    da = a.bit_length() - 1
    while da >= dm:
        shift = da - dm
        q ^= 1 << shift
        a ^= m << shift
        da = a.bit_length() - 1
    return q, a


def clsquare(a: int) -> int:
    """Carry-less square: coefficient i of a moves to 2i."""
    return int("0".join(format(a, "b")), 2)


def clmod(a: int, m: int) -> int:
    """a mod m.  A long a is reduced by a modulus of small degree a byte at
    a time (:func:`_divmod_bytes`).  Else when m = x^dm + low with
    deg(low) <= dm/2, as for sparse field polynomials, a = hi x^dm + lo
    folds to lo + hi low, which lowers the degree by at least dm/2 a step;
    other moduli divide bit by bit."""
    if m == 0:
        raise ZeroModulusError("division by the zero polynomial")
    dm = m.bit_length() - 1
    if dm <= _BYTES_MAX_DEG and a.bit_length() > dm + _BYTES_MIN_BITS:
        return _divmod_bytes(a, m, quotient=False)[1]
    low = m ^ (1 << dm)
    if 2 * low.bit_length() <= dm + 2:
        mask = (1 << dm) - 1
        while a >> dm:
            a = (a & mask) ^ clmul(a >> dm, low)
        return a
    da = a.bit_length() - 1
    while da >= dm:
        a ^= m << (da - dm)
        da = a.bit_length() - 1
    return a


def poly_mul_mod(a: BinaryPoly, b: BinaryPoly, m: BinaryPoly) -> BinaryPoly:
    """Carry-less product of a and b reduced modulo m (schoolbook oracle)."""
    if m.is_zero():
        raise ZeroModulusError("zero modulus")
    return BinaryPoly(clmod(clmul(a.bits, b.bits), m.bits))


def planes_mul_mod(f: list[int], g: list[int], p: int) -> list[int]:
    """f g mod p on bit-planes: plane i of an element holds its coefficient
    of x^i in every lane, for the n = deg p planes of f and of g.  A
    schoolbook product, n^2 ANDs and XORs of lane ints, folded from the top
    by the low terms of p: x^k = x^(k-n) (p - x^n)."""
    n = p.bit_length() - 1
    prod = [0] * (2 * n - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                prod[i + j] ^= fi & gj
    low = [t for t in range(n) if (p >> t) & 1]
    for k in range(2 * n - 2, n - 1, -1):
        if prod[k]:
            for t in low:
                prod[k - n + t] ^= prod[k]
    return prod[:n]


def poly_gcd(a: BinaryPoly, b: BinaryPoly) -> BinaryPoly:
    x, y = a.bits, b.bits
    while y:
        x, y = y, clmod(x, y)
    return BinaryPoly(x)


def poly_egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid on coefficient vectors: returns (g, s, t), sa+tb=g."""
    r0, r1 = a, b
    s0, s1 = 1, 0
    t0, t1 = 0, 1
    while r1:
        q, r = cldivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ clmul(q, s1)
        t0, t1 = t1, t0 ^ clmul(q, t1)
    return r0, s0, t0


def poly_inv_mod(a: BinaryPoly, m: BinaryPoly) -> BinaryPoly:
    """Inverse of a modulo m; requires gcd(a, m) = 1."""
    if a.bits == 0:
        raise ZeroDivisionGF2Error("inverse of zero")
    g, s, _ = poly_egcd(a.bits, m.bits)
    if g != 1:
        raise GF2Error(f"{a} is not invertible modulo {m}")
    return BinaryPoly(clmod(s, m.bits))


# irreducibles of at most this degree are found by a sieve (_irreducibles)
# and looked up there by is_irreducible
_SIEVE_MAX_DEG = 12


def is_irreducible(p: BinaryPoly) -> bool:
    """Irreducibility over F2: up to degree 12 looked up in the sieve of
    :func:`_irreducibles`, above by Rabin's test (:func:`_rabin`)."""
    if 1 <= p.degree <= _SIEVE_MAX_DEG:
        return p.bits in _irreducibles(p.degree)
    return _rabin(p)


def _rabin(p: BinaryPoly) -> bool:
    """Rabin irreducibility test over F2."""
    d = p.degree
    if d < 1:
        return False
    if d == 1:
        return True
    if not p.coeff(0):  # divisible by x
        return False
    # x^(2^d) == x mod p, and for every prime divisor r of d,
    # gcd(x^(2^(d/r)) - x, p) == 1.
    def xpow2k(k: int) -> int:
        v = 2  # the polynomial x
        for _ in range(k):
            v = clmod(clsquare(v), p.bits)
        return v

    if xpow2k(d) != 2:
        return False
    for r in _prime_divisors(d):
        if poly_gcd(BinaryPoly(xpow2k(d // r) ^ 2), p).degree > 0:
            return False
    return True


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def enumerate_irreducibles(d: int) -> list[BinaryPoly]:
    """All monic irreducible polynomials of degree d, ascending by integer
    encoding.  The ordering is fixed so that configs indexing "the i-th
    irreducible of degree d" are reproducible.
    """
    if d < 1:
        raise GF2Error("degree must be >= 1")
    return list(_irreducibles(d).values())


@cache
def _irreducibles(d: int) -> dict[int, BinaryPoly]:
    """The monic irreducibles of degree d by their bits, ascending.

    Up to degree 12 by a sieve: the product of each irreducible p of degree
    a <= d/2 with each monic q of degree d - a is struck out, and what is
    left is irreducible.  q runs over its low bits in Gray-code order, so
    each product is the last one plus a shift of p.  Above degree 12 every
    candidate with a constant term (else x divides it) is tested by Rabin.
    """
    if d > _SIEVE_MAX_DEG:
        cands = map(BinaryPoly, range((1 << d) + 1, 2 << d, 2))
        return {p.bits: p for p in cands if _rabin(p)}
    top = 1 << d
    struck = bytearray(top)  # at bits - x^d
    for a in range(1, d // 2 + 1):
        e = d - a
        for p in _irreducibles(a):
            shifts = [p << b for b in range(e)]
            v = p << e
            struck[v ^ top] = 1
            for i in range(1, 1 << e):
                v ^= shifts[(i & -i).bit_length() - 1]
                struck[v ^ top] = 1
    return {b: BinaryPoly(b) for b in range(top, 2 * top)
            if not struck[b ^ top]}


# Irreducible field polynomials for the standardized binary curves.
STANDARD_POLYS = {
    163: BinaryPoly.from_terms(163, 7, 6, 3, 0),
    233: BinaryPoly.from_terms(233, 74, 0),
    283: BinaryPoly.from_terms(283, 12, 7, 5, 0),
    571: BinaryPoly.from_terms(571, 10, 5, 2, 0),
}


# fields of at most this degree multiply and invert by _log_tables
_TABLES_MAX_DEG = 16


@cache
def _log_tables(p: int) -> tuple[array, array]:
    """(exp, log) of the field GF(2)[x]/(p), p irreducible of degree n <=
    16: exp[i] = g^i for 0 <= i < 2(2^n - 1), so that a sum of two logs
    needs no reduction, and log[g^i] = i.  g is the least element (as an
    int) of order 2^n - 1, x when p is primitive: g^((2^n - 1)/r) != 1 for
    every prime r dividing 2^n - 1."""
    n = p.bit_length() - 1
    order = (1 << n) - 1

    def power(a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = clmod(clmul(r, a), p)
            a, e = clmod(clmul(a, a), p), e >> 1
        return r

    primes = _prime_divisors(order)
    g = next(g for g in range(2, 1 << n)
             if all(power(g, order // r) != 1 for r in primes))
    exp, v = [], 1
    for _ in range(order):
        exp.append(v)
        v = clmod(clmul(v, g), p)
    log = array("H", bytes(2 << n))
    for i, v in enumerate(exp):
        log[v] = i
    return array("H", exp * 2), log


@dataclass(frozen=True)
class FieldSpec:
    """GF(2^n) described by its extension degree and irreducible modulus."""

    n: int
    p: BinaryPoly

    def __post_init__(self):
        if self.p.degree != self.n:
            raise GF2Error(f"modulus degree {self.p.degree} != n = {self.n}")
        if self.n < 2:
            raise GF2Error("extension degree must be >= 2")
        # the standard polynomials are proved irreducible by the test suite
        if self.p != STANDARD_POLYS.get(self.n) and not is_irreducible(self.p):
            raise GF2Error(f"{self.p} is not irreducible")

    # computed on first use; equality and hashing still use n and p
    @cached_property
    def ops(self) -> tuple[Callable[[int, int], int], Callable[[int], int]]:
        """(mul, inv) on the bits of field elements (below x^n; inv of a
        nonzero one): by the log tables of :func:`_log_tables` up to degree
        16, else by clmul and clmod and extended Euclid."""
        p = self.p.bits
        if self.n > _TABLES_MAX_DEG:
            return (lambda a, b: clmod(clmul(a, b), p),
                    lambda a: clmod(poly_egcd(a, p)[1], p))
        exp, log = _log_tables(p)
        order = (1 << self.n) - 1
        return (lambda a, b: exp[log[a] + log[b]] if a and b else 0,
                lambda a: exp[order - log[a]])

    @classmethod
    def standard(cls, n: int) -> "FieldSpec":
        if n not in STANDARD_POLYS:
            raise GF2Error(f"no standard field of size {n}")
        return cls(n, STANDARD_POLYS[n])

    def mul(self, a: BinaryPoly, b: BinaryPoly) -> BinaryPoly:
        """a b mod p; by :attr:`ops` when both are elements of the field."""
        if (a.bits | b.bits) >> self.n:
            return poly_mul_mod(a, b, self.p)
        return BinaryPoly(self.ops[0](a.bits, b.bits))

    def inv(self, a: BinaryPoly) -> BinaryPoly:
        return field_inv(a, self)


def field_inv(a: BinaryPoly, field: FieldSpec) -> BinaryPoly:
    """Multiplicative inverse in GF(2^n) by :attr:`FieldSpec.ops`: log
    tables up to degree 16, else extended Euclid.

    Deliberately independent of the exponentiation-based inversion circuits,
    so circuit validation checks against a genuinely different computation.
    """
    if a.is_zero():
        raise ZeroDivisionGF2Error("zero has no inverse")
    if a.degree >= field.n:
        raise GF2Error("element degree out of range")
    return BinaryPoly(field.ops[1](a.bits))


@dataclass(frozen=True)
class ModulusSet:
    """Pairwise-coprime factors m_i = base^exp steering CRT multiplication.

    ``factors`` is a tuple of (base, exponent) pairs; bases must be distinct
    irreducibles, which makes the m_i pairwise coprime.
    """

    factors: tuple[tuple[BinaryPoly, int], ...]

    def __post_init__(self):
        if not self.factors:
            raise InvalidModulusSetError("empty modulus set")
        seen = set()
        for base, exp in self.factors:
            if exp < 1:
                raise InvalidModulusSetError("factor exponent must be >= 1")
            if not is_irreducible(base):
                raise InvalidModulusSetError(f"base {base} is not irreducible")
            if base.bits in seen:
                raise InvalidModulusSetError(f"repeated base {base}")
            seen.add(base.bits)

    # computed on first access; equality and hashing still use ``factors``
    @cached_property
    def moduli(self) -> tuple[BinaryPoly, ...]:
        return tuple(base ** exp for base, exp in self.factors)

    @cached_property
    def m(self) -> BinaryPoly:
        return reduce(lambda a, b: a * b, self.moduli, ONE)

    def omega(self, n: int) -> int:
        return max(0, 2 * n - 1 - self.m.degree)


# the most high-degree correction coefficients a modulus set may leave
MAX_OMEGA = 8


@cache
def validate_modulus_set(modset: ModulusSet, n: int) -> int:
    """Check a modulus set against field size n; returns the correction
    count omega = max(0, 2n-1-deg(m)).  Checked once per (set, n).
    """
    # pairwise coprimality (distinct irreducible bases imply it; verify
    # anyway) in O(k): m_i is coprime to every other factor iff it is
    # coprime to their product m / m_i
    for mi, (_, residue) in zip(modset.moduli, crt_cofactors(modset)):
        if poly_gcd(mi, BinaryPoly(residue)).degree > 0:
            raise InvalidModulusSetError(
                f"factor {mi} is not coprime to the other factors")
    omega = modset.omega(n)
    if omega > MAX_OMEGA:
        raise InvalidModulusSetError(
            f"omega = {omega} exceeds the configured maximum {MAX_OMEGA}")
    return omega


@cache
def crt_cofactors(modset: ModulusSet) -> tuple[tuple[int, int], ...]:
    """(c_i, c_i mod m_i) with c_i = m / m_i (an exact division) for each
    factor, as bit vectors; computed once per distinct modulus set."""
    m = modset.m.bits
    out = []
    for mi in modset.moduli:
        cofactor, rem = cldivmod(m, mi.bits)
        if rem:
            raise InvalidModulusSetError(f"{mi} does not divide m")
        out.append((cofactor, clmod(cofactor, mi.bits)))
    return tuple(out)


@cache
def crt_constants(modset: ModulusSet) -> tuple[BinaryPoly, ...]:
    """CRT recombination constants q_i with q_i = 1 mod m_i, 0 mod m_j.

    Computed once per distinct modulus set.  q_i = c_i * (c_i^-1 mod m_i)
    with the cofactor c_i = m / m_i (:func:`crt_cofactors`), so q_i = 0 mod
    every other m_j; checking q_i = 1 mod m_i and sum(q_i) = 1 mod m
    verifies the whole residue matrix in O(k) reductions.
    """
    m = modset.m.bits
    out = []
    total = 0
    for mi, (cofactor, residue) in zip(modset.moduli, crt_cofactors(modset)):
        try:
            inv = poly_inv_mod(BinaryPoly(residue), mi)
        except GF2Error as e:
            raise InvalidModulusSetError(f"factors not coprime: {e}") from e
        qi = clmul(cofactor, inv.bits)
        if clmod(qi, mi.bits) != 1:
            raise InvalidModulusSetError("CRT residue check failed")
        total ^= qi
        out.append(BinaryPoly(qi))
    if clmod(total, m) != 1:
        raise InvalidModulusSetError("CRT constants do not sum to 1 mod m")
    return tuple(out)


def data_lines(text: str) -> list[str]:
    """The lines of a data file, each stripped of its ``#`` comment and of
    surrounding whitespace, with blank lines skipped."""
    return [ln for ln in (raw.split("#", 1)[0].strip()
                          for raw in text.splitlines()) if ln]


def parse_modulus_set(text: str) -> ModulusSet:
    """Parse a modulus-set config: one factor per line.

    Each line is either ``deg:index:exp`` (index is 1-based into the fixed
    ordering of irreducibles of that degree) or a literal 0/1 string whose
    i-th character is the coefficient of x^i, optionally followed by ``^exp``.
    ``#`` starts a comment.
    """
    factors = []
    for line in data_lines(text):
        if ":" in line:
            deg_s, idx_s, exp_s = line.split(":")
            deg, idx, exp = int(deg_s), int(idx_s), int(exp_s)
            polys = enumerate_irreducibles(deg)
            if not 1 <= idx <= len(polys):
                raise InvalidModulusSetError(
                    f"no irreducible #{idx} of degree {deg} (have {len(polys)})")
            factors.append((polys[idx - 1], exp))
        else:
            if "^" in line:
                bits_s, exp_s = line.split("^")
                exp = int(exp_s)
            else:
                bits_s, exp = line, 1
            base = BinaryPoly.from_coeffs(int(c) for c in bits_s.strip())
            factors.append((base, exp))
    return ModulusSet(tuple(factors))
