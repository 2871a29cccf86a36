"""Dense GF(2) matrices and the linear maps behind Toffoli-free circuits.

Rows are stored as Python ints (bit j of row i = entry (i, j)), which makes
mat-vec a popcount-parity; the largest matrices built are n x n at n = 571.
The kernels work a byte at a time: a transpose reads one byte plane of the
columns per 8 rows (or, for at most 8 columns, writes each row as one
byte), and products and the PLU of a square matrix use the method of Four
Russians (a 256-entry table of XORs per 8 rows).  A tall n x d matrix
(d < n: the CRT recombination and correction maps, d <= 10) is built and
factored on its d columns instead, as n-bit ints, by :func:`plu_columns`:
O(d^2) big-int operations and no row built.  All constructed matrices are
validated in the tests against the polynomial oracles in
:mod:`binshor.gf2`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .gf2 import BinaryPoly, FieldSpec, GF2Error, ModulusSet, clmod

# _BIT_CHARS[i] translates a byte to b"1" if its bit i is set, else b"0"
_BIT_CHARS = [bytes(b"01"[(v >> i) & 1] for v in range(256))
              for i in range(8)]
# translates the digits b"0"/b"1" to the bytes 0/1
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


class SingularMatrixError(GF2Error):
    def __init__(self, msg: str, rank: int):
        super().__init__(f"{msg} (rank {rank})")
        self.rank = rank


class BitMatrix:
    """GF(2) matrix with int-packed rows."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: list[int], ncols: int):
        rows = list(rows)
        if ncols < 1 or not rows:
            raise GF2Error("empty matrices are not allowed")
        if min(rows) < 0 or max(rows) >> ncols:
            raise GF2Error("row has bits outside the column range")
        self.rows = rows
        self.ncols = ncols

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.ncols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls([1 << i for i in range(n)], n)

    @classmethod
    def from_columns(cls, cols: list[int], nrows: int) -> "BitMatrix":
        if not cols or nrows < 1:
            raise GF2Error("empty matrices are not allowed")
        if min(cols) < 0 or max(cols).bit_length() > nrows:
            raise GF2Error("column has bits outside the row range")
        if len(cols) <= 8:
            # each row fits in one byte: spell column j out one byte per
            # bit (row i at byte i) and add it in at bit j of every byte
            acc = 0
            for j, c in enumerate(cols):
                digits = format(c, f"0{nrows}b").encode()
                acc |= int.from_bytes(digits.translate(_DIGIT_BYTES),
                                      "big") << j
            return cls(list(acc.to_bytes(nrows, "little")), len(cols))
        # byte k of every column, last column first, spelt as b"0"/b"1" by
        # its bit i, is row 8k + i written most significant bit first
        nb = (nrows + 7) >> 3
        data = b"".join(c.to_bytes(nb, "little") for c in reversed(cols))
        rows = []
        for k in range(nb):
            plane = data[k::nb]
            rows += [int(plane.translate(t), 2)
                     for t in _BIT_CHARS[:nrows - 8 * k]]
        return cls(rows, len(cols))

    def mat_vec(self, x: int) -> int:
        out = 0
        for i, r in enumerate(self.rows):
            out |= ((r & x).bit_count() & 1) << i
        return out

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.ncols != other.nrows:
            raise GF2Error("dimension mismatch")
        nb = (self.ncols + 7) >> 3
        data = b"".join(r.to_bytes(nb, "little") for r in self.rows)
        rows = [0] * self.nrows
        for k in range(nb):
            # XORs of every subset of rows 8k..8k+7 of other, looked up by
            # byte k of each row of self; one table alive at a time
            table = [0]
            for r in other.rows[8 * k:8 * k + 8]:
                table += [t ^ r for t in table]
            rows = [a ^ table[v] for a, v in zip(rows, data[k::nb])]
        return BitMatrix(rows, other.ncols)

    def __pow__(self, k: int) -> "BitMatrix":
        if self.nrows != self.ncols:
            raise GF2Error("matrix power needs a square matrix")
        r = BitMatrix.identity(self.nrows)
        b = self
        while k:
            if k & 1:
                r = r @ b
            b = b @ b
            k >>= 1
        return r

    def transpose(self) -> "BitMatrix":
        return BitMatrix.from_columns(list(self.rows), self.ncols)

    def rank(self) -> int:
        basis: dict[int, int] = {}  # leading bit -> basis row with that lead
        for v in self.rows:
            while v:
                lead = v.bit_length() - 1
                b = basis.get(lead)
                if b is None:
                    basis[lead] = v
                    break
                v ^= b
        return len(basis)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BitMatrix) and self.ncols == other.ncols
                and self.rows == other.rows)

    def __repr__(self):
        return f"BitMatrix({self.nrows}x{self.ncols})"


@dataclass(frozen=True)
class PLUFactors:
    """M = P @ L @ U with P a permutation, L unit-lower, U upper triangular.

    ``perm`` maps destination row -> source row of the permutation matrix
    (P[i, perm[i]] = 1), i.e. P applied to a vector v gives v[perm[i]] at i.
    """

    perm: tuple[int, ...]
    L: BitMatrix
    U: BitMatrix

    def transpositions(self) -> list[tuple[int, int]]:
        """Decompose the permutation into transpositions (one per swap gate)."""
        return _cycle_swaps({i: j for i, j in enumerate(self.perm) if i != j})


def _cycle_swaps(moved: dict[int, int]) -> list[tuple[int, int]]:
    """Transpositions (one per swap gate) of the permutation that takes
    each row of ``moved`` to its value and fixes every other row.

    Cycles are walked from their lowest row, in ascending order, and each
    cycle (c0, c1, ..., ck) gives the swaps (c0, ck), ..., (c0, c1).
    """
    out = []
    seen = set()
    for start in sorted(moved):
        if start in seen:
            continue
        cycle = []
        j = start
        while j not in seen:
            seen.add(j)
            cycle.append(j)
            j = moved[j]
        out += [(cycle[0], cycle[k]) for k in range(len(cycle) - 1, 0, -1)]
    return out


def plu_decompose(M: BitMatrix) -> PLUFactors:
    """PLU decomposition over GF(2) for a square or tall matrix.

    Pivoting is leftmost-nonzero with row swaps only, so gate counts derived
    from the factors are reproducible run to run.  For an n x d matrix with
    n >= d, L is n x d unit-lower-trapezoidal and U is d x d upper
    triangular; full column rank is required.

    Columns are eliminated 8 at a time (the method of Four Russians) with
    the same result as one at a time: a row below a block is cleared by
    the one combination of the block's pivot rows that matches its block
    bits, found in a 256-entry table.
    """
    n, d = M.shape
    if n < d:
        raise GF2Error("plu_decompose needs nrows >= ncols")
    mask = (1 << d) - 1
    # bits d and up of a working row collect its L entries (L[i, c] at d + c)
    A = list(M.rows)
    perm = list(range(n))  # tracks source row currently at each position
    for c0 in range(0, d, 8):
        B = min(8, d - c0)
        # the block bits of the rows at positions c0 and on, as they were
        # when the block started; swapped along with the rows
        bmask = (1 << B) - 1
        b = [(a >> c0) & bmask for a in A[c0:]]
        # cols[t] bit i: the row now at position c0 + i has bit c0 + t, with
        # the block's pivots so far applied (the pivot search reads these)
        plane = bytes(reversed(b))
        cols = [int(plane.translate(tr), 2) for tr in _BIT_CHARS[:B]]
        w = []  # each pivot's update: its U part and its L entry
        for t in range(B):
            cand = cols[t] >> t  # rows at positions c0 + t and on
            if not cand:
                raise SingularMatrixError("matrix has deficient column rank",
                                          rank=M.rank())
            p = t + (cand & -cand).bit_length() - 1
            if p != t:
                i, j = c0 + t, c0 + p
                A[i], A[j] = A[j], A[i]
                perm[i], perm[j] = perm[j], perm[i]
                b[t], b[p] = b[p], b[t]
                for k in range(t + 1, B):
                    if ((cols[k] >> t) ^ (cols[k] >> p)) & 1:
                        cols[k] ^= (1 << t) | (1 << p)
            # bring the pivot row up to date with the block's earlier pivots
            a = A[c0 + t]
            for k, wk in enumerate(w):
                if (a >> (c0 + k)) & 1:
                    a ^= wk
            A[c0 + t] = a
            w.append((a & mask) | (1 << (d + c0 + t)))
            v = a >> c0
            below = cols[t] & ~((2 << p) - 1)  # rows after the pivot
            for k in range(t + 1, B):
                if (v >> k) & 1:
                    cols[k] ^= below
        if c0 + B == n:
            break  # a square matrix has no rows below its last block
        # reduce the updates against each other so that red[t] has block
        # bits exactly 1 << t, then tabulate every combination of them
        red = [0] * B
        for t in range(B - 1, -1, -1):
            a = w[t]
            for k in range(t + 1, B):
                if (a >> (c0 + k)) & 1:
                    a ^= red[k]
            red[t] = a
        table = [0]
        for r in red:
            table += [x ^ r for x in table]
        A[c0 + B:] = [a ^ table[v] for a, v in zip(A[c0 + B:], b[B:])]
    L = [a >> d for a in A]
    for i in range(d):
        L[i] |= 1 << i
    U = BitMatrix([a & mask for a in A[:d]], d)
    # perm currently maps position -> original row index after forward swaps;
    # the permutation matrix P must undo that reordering: P[orig, pos] = 1.
    inv = sorted(range(n), key=perm.__getitem__)
    return PLUFactors(tuple(inv), BitMatrix(L, d), U)


def plu_columns(cols: list[int], n: int
                ) -> tuple[BitMatrix, BitMatrix, BitMatrix, tuple]:
    """PLU of the tall n x d matrix M (d < n) with these n-bit columns,
    worked on the columns: O(d^2) big-int operations, no row of M built.

    Returns (the top d rows of L, U, rest, the transpositions of P), each
    as :func:`plu_decompose` gives it.  ``rest`` is the block of
    P^-1 M = L U below its top d rows, held by column: a d x (n-d) matrix
    whose row j is column j of the block.

    Column c takes its pivot at the lowest row >= c that holds a one, swaps
    that row up in every column (those of L found so far and of M too), and
    clears its column below the pivot from every later column.
    """
    d = len(cols)
    if not 0 < d < n:
        raise GF2Error("plu_columns needs 0 < ncols < nrows")
    if min(cols) < 0 or max(cols).bit_length() > n:
        raise GF2Error("column has bits outside the row range")
    work, mcols, lcols = list(cols), list(cols), []
    pos: dict[int, int] = {}  # row position -> source row, where swapped
    for c in range(d):
        cand = work[c] >> c
        if not cand:
            raise SingularMatrixError("matrix has deficient column rank",
                                      rank=BitMatrix(cols, n).rank())
        p = c + (cand & -cand).bit_length() - 1
        if p != c:
            flip = (1 << c) | (1 << p)
            for group, k0 in ((work, c), (lcols, 0), (mcols, 0)):
                for k in range(k0, len(group)):
                    if ((group[k] >> c) ^ (group[k] >> p)) & 1:
                        group[k] ^= flip
            pos[c], pos[p] = pos.get(p, p), pos.get(c, c)
        below = work[c] & ~((2 << c) - 1)  # rows after the pivot
        lcols.append(below)
        for k in range(c, d):
            if (work[k] >> c) & 1:
                work[k] ^= below
    top = (1 << d) - 1
    L = BitMatrix.from_columns(
        [(l & top) | (1 << c) for c, l in enumerate(lcols)], d)
    rest = BitMatrix([m >> d for m in mcols], n - d)
    swaps = _cycle_swaps({s: q for q, s in pos.items() if s != q})
    return L, BitMatrix.from_columns(work, d), rest, tuple(swaps)


def const_mul_matrix(h: BinaryPoly, field: FieldSpec) -> BitMatrix:
    """n x n matrix of multiplication by the fixed nonzero element h.

    Column k holds the coefficients of x^k * h mod p.
    """
    if h.is_zero():
        raise SingularMatrixError("constant multiplication by zero", rank=0)
    if h.degree >= field.n:
        raise GF2Error("constant degree out of range")
    cols = []
    acc = h.bits
    for _ in range(field.n):
        cols.append(acc)
        acc = clmod(acc << 1, field.p.bits)
    return BitMatrix.from_columns(cols, field.n)


@cache
def reduction_matrix(m_i: BinaryPoly, n: int) -> BitMatrix:
    """d x (n-d) matrix reducing the high part of an (n-1)-degree polynomial.

    Column k holds the coefficients of x^(k+d) mod m_i, so that
    f mod m_i = f_low + M @ f_high.  Built once per (m_i, n): the matrix is
    shared by every caller and must not be modified.
    """
    d = m_i.degree
    if not 1 <= d < n:
        raise GF2Error("reduction modulus degree out of range")
    cols = []
    top = 1 << d
    acc = clmod(top, m_i.bits)
    for _ in range(n - d):
        cols.append(acc)
        acc <<= 1  # acc is reduced, so one conditional subtraction reduces
        if acc & top:
            acc ^= m_i.bits
    return BitMatrix.from_columns(cols, d)


@cache
def _squaring_powers(field: FieldSpec) -> dict[int, BitMatrix]:
    """The powers S^k of one field's squaring matrix built so far, by k."""
    cols = [clmod(1 << (2 * j), field.p.bits) for j in range(field.n)]
    return {1: BitMatrix.from_columns(cols, field.n)}


def squaring_matrix(field: FieldSpec, k: int = 1) -> BitMatrix:
    """n x n matrix of the k-fold Frobenius f -> f^(2^k) mod p.

    Powers of one field are kept and composed, S^(a+b) = S^a @ S^b, so a
    sequence of k (an addition chain's) costs a few products in all.  The
    returned matrix is shared: do not modify it.
    """
    if k < 1:
        raise GF2Error("k must be >= 1")
    powers = _squaring_powers(field)
    if k not in powers:
        top = max(powers)
        while 2 * top <= k:  # so that k splits into O(log k) stored powers
            powers[2 * top] = powers[top] @ powers[top]
            top *= 2
        acc, rest = None, k
        while rest:
            a = max(j for j in powers if j <= rest)
            rest -= a
            acc = powers[a] if acc is None else acc @ powers[a]
        powers[k] = acc
    return powers[k]


def crt_recombination_matrix(q_i: BinaryPoly, m: BinaryPoly,
                             d_i: int, n: int, p: BinaryPoly) -> list[int]:
    """The d_i columns, as n-bit ints, of the n x d_i matrix with column
    k = ((x^k * q_i mod m) mod p).

    x^k q_i is stepped modulo m and modulo p side by side: a shift, then a
    conditional subtraction of p, and of m (with m mod p on the p side).
    The columns are handed over as built (:func:`plu_columns` factors
    them); ``BitMatrix.from_columns(cols, n)`` is the matrix.
    """
    top_m, top_p = 1 << m.degree, 1 << p.degree
    m_mod_p = clmod(m.bits, p.bits)
    cols = []
    acc = clmod(q_i.bits, m.bits)
    acc_p = clmod(acc, p.bits)
    for _ in range(d_i):
        cols.append(acc_p)
        acc <<= 1
        acc_p <<= 1
        if acc_p & top_p:
            acc_p ^= p.bits
        if acc & top_m:
            acc ^= m.bits
            acc_p ^= m_mod_p
    return cols


def correction_matrix(modset: ModulusSet, n: int, p: BinaryPoly) -> list[int]:
    """The omega columns, as n-bit ints, of the n x omega matrix of the
    correction terms ((x^i)+(x^i mod m)) mod p, for i from 2n-1-omega up
    to 2n-2 (ascending column order).  p has degree n and need not be
    irreducible (inner CRT stages).  As for
    :func:`crt_recombination_matrix`, no row of the matrix is built."""
    omega = modset.omega(n)
    if omega < 1:
        raise GF2Error("modulus set needs no correction (omega = 0)")
    m = modset.m
    cols = []
    for i in range(2 * n - 1 - omega, 2 * n - 1):
        v = (1 << i) ^ clmod(1 << i, m.bits)
        cols.append(clmod(v, p.bits))
    return cols
