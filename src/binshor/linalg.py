"""Dense GF(2) matrices and the linear maps behind Toffoli-free circuits.

Rows are stored as Python ints (bit j of row i = entry (i, j)), which makes
mat-vec a popcount-parity; the largest matrices built are n x n at n = 571.
The kernels work a byte at a time: a transpose reads one byte plane of the
columns per 8 rows (or, for at most 8 columns, writes each row as one
byte), and products and the PLU of a square matrix use the method of Four
Russians (a 256-entry table of XORs per 8 rows).  A product whose left
operand has few ones (a low power of a squaring matrix) instead XORs one
row of the right operand per one.  The PLU can be given a limit on its
off-diagonal entries and stop without factors once they pass it; the
squaring choice uses that to drop a fused map that has already lost.  The
powers of a squaring matrix are composed on one another, and kept only
inside a :func:`squaring_powers` block.  A tall n x d matrix (d < n: the
CRT recombination and correction maps, d <= 10) is built and factored on
its d columns instead, as n-bit ints, by :func:`plu_columns`: O(d^2)
big-int operations and no row built.  All constructed matrices are
validated in the tests against the polynomial oracles in
:mod:`binshor.gf2`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache

from .gf2 import (BinaryPoly, FieldSpec, GF2Error, ModulusSet, cldivmod, clmod,
                  clmul)

# _BIT_CHARS[i] translates a byte to b"1" if its bit i is set, else b"0"
_BIT_CHARS = [bytes(b"01"[(v >> i) & 1] for v in range(256))
              for i in range(8)]
# translates the digits b"0"/b"1" to the bytes 0/1
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")
# one XOR of the row-sparse product costs about as much as this many
# per-entry steps of the table product (measured at n = 163 and 571)
_SPARSE_COST = 3


def _matmul_sparse(a_rows: list[int], b_rows: list[int]) -> list[int]:
    """Rows of A @ B: each row of A selects the rows of B it XORs."""
    out = []
    for r in a_rows:
        acc = 0
        while r:
            low = r & -r
            acc ^= b_rows[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return out


def _matmul_tables(a_rows: list[int], b_rows: list[int], ncols: int
                   ) -> list[int]:
    """Rows of A @ B (A with ``ncols`` columns) by the method of Four
    Russians: byte k of each row of A looks up the XOR of its subset of
    rows 8k..8k+7 of B in a 256-entry table, one table alive at a time."""
    nb = (ncols + 7) >> 3
    data = b"".join(r.to_bytes(nb, "little") for r in a_rows)
    rows = [0] * len(a_rows)
    for k in range(nb):
        table = [0]
        for r in b_rows[8 * k:8 * k + 8]:
            table += [t ^ r for t in table]
        rows = [a ^ table[v] for a, v in zip(rows, data[k::nb])]
    return rows


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
        # a row-sparse left operand (a low power of a squaring matrix has a
        # few ones per row) is cheaper one XOR per one than by tables
        ones = sum(map(int.bit_count, self.rows))
        if ones * _SPARSE_COST < ((self.ncols + 7) >> 3) * (256 + self.nrows):
            return BitMatrix(_matmul_sparse(self.rows, other.rows),
                             other.ncols)
        return BitMatrix(_matmul_tables(self.rows, other.rows, self.ncols),
                         other.ncols)

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


def plu_decompose(M: BitMatrix, limit: int | None = None
                  ) -> PLUFactors | None:
    """PLU decomposition over GF(2) for a square or tall matrix.

    Pivoting is leftmost-nonzero with row swaps only, so gate counts derived
    from the factors are reproducible run to run.  For an n x d matrix with
    n >= d, L is n x d unit-lower-trapezoidal and U is d x d upper
    triangular; full column rank is required.

    Columns are eliminated 8 at a time (the method of Four Russians) with
    the same result as one at a time: a row below a block is cleared by
    the one combination of the block's pivot rows that matches its block
    bits, found in a 256-entry table.

    With ``limit``, None is returned as soon as the strict entries of the
    d pivot rows (those of L left of the diagonal and of U right of it,
    final once a row is chosen) sum past it; the sum only grows, so the
    factors are returned exactly when their strict entries number at most
    ``limit``.  For a square matrix that is the fan-in CNOT count of
    :class:`~binshor.synth.LinearMap`.
    """
    n, d = M.shape
    if n < d:
        raise GF2Error("plu_decompose needs nrows >= ncols")
    mask = (1 << d) - 1
    # bits d and up of a working row collect its L entries (L[i, c] at d + c)
    A = list(M.rows)
    perm = list(range(n))  # tracks source row currently at each position
    spent = 0  # strict entries of the pivot rows so far
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
            if limit is not None:
                spent += a.bit_count() - 1  # all but the diagonal of U
                if spent > limit:
                    return None
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


@cache
def reduction_matrix(m_i: BinaryPoly, n: int) -> BitMatrix:
    """d x (n-d) matrix reducing the high part of an (n-1)-degree polynomial.

    Column k holds the coefficients of x^(k+d) mod m_i, so that
    f mod m_i = f_low + M @ f_high.  Built once per (m_i, n): the matrix is
    shared by every caller and must not be modified.

    The rows are built whole, as (n-d)-bit ints.  x^(j+1) mod m_i is
    x^j mod m_i shifted up, plus m_i where its top bit t_j is set.  So row
    i is row i-1, plus the row t of top bits where bit i of m_i is set,
    shifted up one column, with bit i of m_i in column 0 (x^d mod m_i).
    Row d-1 is t itself: as a power series in y, t = Q / m*, where
    m* = y^d m_i(1/y) and Q = (m* - 1) / y, and 1 / m* mod y^(n-d) is the
    quotient of x^(n-1) by m_i with its n-d bits reversed.
    """
    d = m_i.degree
    if not 1 <= d < n:
        raise GF2Error("reduction modulus degree out of range")
    m, width = m_i.bits, n - d
    mask = (1 << width) - 1
    inv = int(format(cldivmod(1 << (n - 1), m)[0], f"0{width}b")[::-1], 2)
    q = int(format(m ^ (1 << d), f"0{d}b")[::-1], 2)
    t = clmul(inv, q) & mask
    rows, row = [], 0
    for i in range(d):
        if (m >> i) & 1:
            row = (((row ^ t) << 1) | 1) & mask
        else:
            row = (row << 1) & mask
        rows.append(row)
    return BitMatrix(rows, width)


# the powers S^k of a field's squaring matrix made so far, by k, for each
# field inside a squaring_powers() block
_POWERS: dict[FieldSpec, dict[int, BitMatrix]] = {}


@contextmanager
def squaring_powers(field: FieldSpec):
    """Keep the powers of ``field``'s squaring matrix that
    :func:`squaring_matrix` makes inside the block, so that later ones are
    composed from them; they are dropped when the outermost such block for
    the field ends."""
    if field in _POWERS:
        yield
        return
    _POWERS[field] = {}
    try:
        yield
    finally:
        del _POWERS[field]


def squaring_matrix(field: FieldSpec, k: int = 1) -> BitMatrix:
    """n x n matrix of the k-fold Frobenius f -> f^(2^k) mod p.

    S^k is composed from the powers of S held.  With j the largest below
    k, S^(2j) = S^j @ S^j is made while 2j < k; then r = k - j <= j, and
    S^k = S^r @ S^j, S^r made the same way first.  Powers of one matrix
    commute, so the order does not change the result; the smaller power
    goes on the left, where its few ones per row make the row-sparse
    product cheap.  Inside a :func:`squaring_powers` block the powers are
    kept, so the k an inversion asks for (terms of its addition chain) cost
    one or two products each; outside one, S^k costs O(log k) products and
    the powers are dropped on return.  The returned matrix may be shared:
    do not modify it.
    """
    if k < 1:
        raise GF2Error("k must be >= 1")
    powers = _POWERS.get(field, {})
    if not powers:
        cols = [clmod(1 << (2 * j), field.p.bits) for j in range(field.n)]
        powers[1] = BitMatrix.from_columns(cols, field.n)

    def power(k):
        while k not in powers:
            j = max(i for i in powers if i < k)
            if 2 * j < k:
                powers[2 * j] = powers[j] @ powers[j]
            else:
                powers[k] = power(k - j) @ powers[j]
        return powers[k]

    return power(k)


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
