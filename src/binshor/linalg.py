"""Dense GF(2) matrices and the linear maps behind Toffoli-free circuits.

Rows are stored as Python ints (bit j of row i = entry (i, j)), which makes
mat-vec a popcount-parity and keeps the 1141x1141 worst case comfortably
fast.  All constructed matrices are validated in the tests against the
polynomial oracles in :mod:`binshor.gf2`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import BinaryPoly, FieldSpec, GF2Error, ModulusSet, clmod


class SingularMatrixError(GF2Error):
    def __init__(self, msg: str, rank: int):
        super().__init__(f"{msg} (rank {rank})")
        self.rank = rank


class BitMatrix:
    """GF(2) matrix with int-packed rows."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: list[int], ncols: int):
        if ncols < 1 or not rows:
            raise GF2Error("empty matrices are not allowed")
        mask = (1 << ncols) - 1
        for r in rows:
            if r & ~mask:
                raise GF2Error("row has bits outside the column range")
        self.rows = list(rows)
        self.ncols = ncols

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.ncols)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "BitMatrix":
        return cls([0] * nrows, ncols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls([1 << i for i in range(n)], n)

    @classmethod
    def from_columns(cls, cols: list[int], nrows: int) -> "BitMatrix":
        rows = [0] * nrows
        for j, col in enumerate(cols):
            while col:
                low = col & -col
                rows[low.bit_length() - 1] |= 1 << j
                col ^= low
        return cls(rows, len(cols))

    def get(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def column(self, j: int) -> int:
        out = 0
        for i, r in enumerate(self.rows):
            out |= ((r >> j) & 1) << i
        return out

    def copy(self) -> "BitMatrix":
        return BitMatrix(list(self.rows), self.ncols)

    def popcount(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def mat_vec(self, x: int) -> int:
        out = 0
        for i, r in enumerate(self.rows):
            out |= ((r & x).bit_count() & 1) << i
        return out

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.ncols != other.nrows:
            raise GF2Error("dimension mismatch")
        rows = []
        for r in self.rows:
            acc = 0
            rr = r
            while rr:
                low = rr & -rr
                acc ^= other.rows[low.bit_length() - 1]
                rr ^= low
            rows.append(acc)
        return BitMatrix(rows, other.ncols)

    def __xor__(self, other: "BitMatrix") -> "BitMatrix":
        if self.shape != other.shape:
            raise GF2Error("shape mismatch")
        return BitMatrix([a ^ b for a, b in zip(self.rows, other.rows)],
                         self.ncols)

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
        rows = sorted(self.rows, reverse=True)
        rank = 0
        basis: list[int] = []
        for r in self.rows:
            v = r
            for b in basis:
                v = min(v, v ^ b)
            if v:
                basis.append(v)
                basis.sort(reverse=True)
                rank += 1
        return rank

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def inverse(self) -> "BitMatrix":
        n = self.nrows
        if n != self.ncols:
            raise GF2Error("inverse needs a square matrix")
        aug = [self.rows[i] | (1 << (n + i)) for i in range(n)]
        r = 0
        for c in range(n):
            piv = next((i for i in range(r, n) if (aug[i] >> c) & 1), None)
            if piv is None:
                raise SingularMatrixError("matrix is singular", rank=r)
            aug[r], aug[piv] = aug[piv], aug[r]
            for i in range(n):
                if i != r and (aug[i] >> c) & 1:
                    aug[i] ^= aug[r]
            r += 1
        return BitMatrix([row >> n for row in aug], n)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BitMatrix) and self.ncols == other.ncols
                and self.rows == other.rows)

    def __repr__(self):
        return f"BitMatrix({self.nrows}x{self.ncols})"

    def to_text(self) -> str:
        lines = [f"{self.nrows} {self.ncols}"]
        for r in self.rows:
            lines.append("".join(str((r >> j) & 1) for j in range(self.ncols)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BitMatrix":
        lines = [ln for ln in (l.split("#")[0].strip() for l in text.splitlines())
                 if ln]
        nrows, ncols = map(int, lines[0].split())
        rows = []
        for ln in lines[1:1 + nrows]:
            if len(ln) != ncols:
                raise GF2Error("bad row width in matrix text")
            rows.append(sum((1 << j) for j, ch in enumerate(ln) if ch == "1"))
        if len(rows) != nrows:
            raise GF2Error("bad row count in matrix text")
        return cls(rows, ncols)


@dataclass(frozen=True)
class PLUFactors:
    """M = P @ L @ U with P a permutation, L unit-lower, U upper triangular.

    ``perm`` maps destination row -> source row of the permutation matrix
    (P[i, perm[i]] = 1), i.e. P applied to a vector v gives v[perm[i]] at i.
    """

    perm: tuple[int, ...]
    L: BitMatrix
    U: BitMatrix

    @property
    def P(self) -> BitMatrix:
        n = len(self.perm)
        return BitMatrix([1 << self.perm[i] for i in range(n)], n)

    def reconstruct(self) -> BitMatrix:
        return self.P @ self.L @ self.U

    def transpositions(self) -> list[tuple[int, int]]:
        """Decompose the permutation into transpositions (one per swap gate)."""
        perm = list(self.perm)
        # invert: pos[src] = dest
        n = len(perm)
        out = []
        # apply cycles: we want a gate sequence g s.t. applying swaps maps
        # identity wire order to P; use cycle decomposition of perm.
        seen = [False] * n
        for start in range(n):
            if seen[start] or perm[start] == start:
                seen[start] = True
                continue
            cycle = []
            j = start
            while not seen[j]:
                seen[j] = True
                cycle.append(j)
                j = perm[j]
            for k in range(len(cycle) - 1, 0, -1):
                out.append((cycle[0], cycle[k]))
        return out


def plu_decompose(M: BitMatrix) -> PLUFactors:
    """PLU decomposition over GF(2) for a square or tall matrix.

    Pivoting is leftmost-nonzero with row swaps only, so gate counts derived
    from the factors are reproducible run to run.  For an n x d matrix with
    n >= d, L is n x d unit-lower-trapezoidal and U is d x d upper
    triangular; full column rank is required.
    """
    n, d = M.shape
    if n < d:
        raise GF2Error("plu_decompose needs nrows >= ncols")
    A = list(M.rows)
    perm = list(range(n))  # tracks source row currently at each position
    l_rows = [0] * n
    for c in range(d):
        piv = next((i for i in range(c, n) if (A[i] >> c) & 1), None)
        if piv is None:
            rank = BitMatrix(A, d).rank() if n else 0
            raise SingularMatrixError("matrix has deficient column rank",
                                      rank=rank)
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            perm[c], perm[piv] = perm[piv], perm[c]
            l_rows[c], l_rows[piv] = l_rows[piv], l_rows[c]
        for i in range(c + 1, n):
            if (A[i] >> c) & 1:
                A[i] ^= A[c]
                l_rows[i] |= 1 << c
    for i in range(n):
        if i < d:
            l_rows[i] |= 1 << i
    L = BitMatrix(l_rows, d)
    U = BitMatrix(A[:d], d)
    # perm currently maps position -> original row index after forward swaps;
    # the permutation matrix P must undo that reordering: P[orig, pos] = 1.
    inv = [0] * n
    for pos, orig in enumerate(perm):
        inv[orig] = pos
    return PLUFactors(tuple(inv), L, U)


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


def reduction_matrix(m_i: BinaryPoly, n: int) -> BitMatrix:
    """d x (n-d) matrix reducing the high part of an (n-1)-degree polynomial.

    Column k holds the coefficients of x^(k+d) mod m_i, so that
    f mod m_i = f_low + M @ f_high.
    """
    d = m_i.degree
    if not 1 <= d < n:
        raise GF2Error("reduction modulus degree out of range")
    cols = []
    acc = clmod(1 << d, m_i.bits)
    for _ in range(n - d):
        cols.append(acc)
        acc = clmod(acc << 1, m_i.bits)
    return BitMatrix.from_columns(cols, d)


def squaring_matrix(field: FieldSpec, k: int = 1) -> BitMatrix:
    """n x n matrix of the k-fold Frobenius f -> f^(2^k) mod p."""
    if k < 1:
        raise GF2Error("k must be >= 1")
    cols = [clmod(1 << (2 * j), field.p.bits) for j in range(field.n)]
    S = BitMatrix.from_columns(cols, field.n)
    return S ** k if k > 1 else S


def crt_recombination_matrix(q_i: BinaryPoly, m: BinaryPoly,
                             d_i: int, n: int, p: BinaryPoly) -> BitMatrix:
    """n x d_i matrix with column k = ((x^k * q_i mod m) mod p)."""
    cols = []
    acc = clmod(q_i.bits, m.bits)
    for _ in range(d_i):
        cols.append(clmod(acc, p.bits))
        acc = clmod(acc << 1, m.bits)
    return BitMatrix.from_columns(cols, n)


def correction_matrix(modset: ModulusSet, n: int, p: BinaryPoly) -> BitMatrix:
    """n x omega matrix of the correction terms ((x^i)+(x^i mod m)) mod p,
    for i from 2n-1-omega up to 2n-2 (ascending column order).  p has
    degree n and need not be irreducible (inner CRT stages)."""
    omega = modset.omega(n)
    if omega < 1:
        raise GF2Error("modulus set needs no correction (omega = 0)")
    m = modset.m
    cols = []
    for i in range(2 * n - 1 - omega, 2 * n - 1):
        v = (1 << i) ^ clmod(1 << i, m.bits)
        cols.append(clmod(v, p.bits))
    return BitMatrix.from_columns(cols, n)
