"""Matrix builders and emitters that only the tests use.

``const_mul_matrix`` builds the matrix of a constant multiplication, which
no plan needs, and ``emit_cnot_matrix`` emits a matrix given by its rows,
which the plans do through a sink's ``fanin_columns`` instead.
"""

from binshor.gf2 import BinaryPoly, FieldSpec, GF2Error, clmod
from binshor.linalg import BitMatrix, SingularMatrixError


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


def emit_cnot_matrix(sink, M: BitMatrix, src, dst):
    """|s, d> -> |s, d + M s>: one CNOT per set entry (row = target)."""
    for i, row in enumerate(M.rows):
        sink.fanin(src, row, dst[i])
