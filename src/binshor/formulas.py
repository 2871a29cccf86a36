"""Split-multiplication formulas  c = R [(T f) o (T g)]  over F2.

A formula multiplies two d-term polynomials with v = rows(T) bilinear
products; v is exactly the Toffoli cost of the synthesized multiplier, so
the shipped formulas must hit the known best product counts
{2:3, 3:6, 4:9, 5:13, 6:17, 7:22, 8:26}.

The formulas are data files (``data/formulas/d*.txt``), read by
:meth:`KaratsubaFormula.from_text`.  It proves every formula equal to
carry-less multiplication when it is loaded, with
:meth:`KaratsubaFormula.verify`, which compares the two on the d^2 pairs
of basis monomials.  So a shipped formula that computes the wrong product
is rejected before any circuit uses it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import GF2Error, clmul, data_lines
from .linalg import BitMatrix

BEST_PRODUCT_COUNTS = {1: 1, 2: 3, 3: 6, 4: 9, 5: 13, 6: 17, 7: 22, 8: 26}


@dataclass(frozen=True, eq=False)  # by identity: a formula keys a block
class KaratsubaFormula:
    """Product masks T (v x d) and recombination R ((2d-1) x v)."""

    d: int
    T: BitMatrix
    R: BitMatrix
    source: str = "generated"

    def __post_init__(self):
        v = self.T.nrows
        if self.T.ncols != self.d or self.R.shape != (2 * self.d - 1, v):
            raise GF2Error("formula dimensions inconsistent")

    @property
    def v(self) -> int:
        return self.T.nrows

    def multiply(self, f: int, g: int) -> int:
        """Evaluate the formula classically (bit-vector in, bit-vector out)."""
        prods = 0
        for r, mask in enumerate(self.T.rows):
            if ((mask & f).bit_count() & 1) and ((mask & g).bit_count() & 1):
                prods |= 1 << r
        return self.R.mat_vec(prods)

    def verify(self) -> None:
        """Check the formula against carry-less multiplication on the d^2
        basis pairs (x^i, x^j).  ``multiply`` is bilinear (R is linear, and
        each product is the parity of T_r f times the parity of T_r g), as
        is clmul, so agreement on the basis proves agreement on every
        input."""
        pairs = ((1 << i, 1 << j) for i in range(self.d)
                 for j in range(self.d))
        for f, g in pairs:
            if self.multiply(f, g) != clmul(f, g):
                raise GF2Error(
                    f"formula d={self.d} ({self.source}) wrong on "
                    f"f={f:#x}, g={g:#x}")

    @classmethod
    def from_text(cls, text: str, source: str = "file") -> "KaratsubaFormula":
        lines = data_lines(text)
        if not lines:
            raise GF2Error(f"formula {source} is empty")
        try:
            d, v = map(int, lines[0].split())
        except ValueError:
            raise GF2Error(f"formula {source}: the header {lines[0]!r} is "
                           f"not the two integers d v") from None
        if len(lines) - 1 < v + 2 * d - 1:
            raise GF2Error(f"formula {source}: d = {d} and v = {v} need "
                           f"{v + 2 * d - 1} rows, found {len(lines) - 1}")
        def parse_rows(rows, width):
            out = []
            for ln in rows:
                if len(ln) != width:
                    raise GF2Error("bad formula row width")
                out.append(sum(1 << j for j, ch in enumerate(ln) if ch == "1"))
            return out
        T = BitMatrix(parse_rows(lines[1:1 + v], d), d)
        R = BitMatrix(parse_rows(lines[1 + v:1 + v + 2 * d - 1], v), v)
        f = cls(d, T, R, source=source)
        f.verify()
        return f
