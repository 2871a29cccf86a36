"""Builders, emitters and references that only the tests use.

``const_mul_matrix`` builds the matrix of a constant multiplication, which
no plan needs, and ``emit_cnot_matrix`` emits a matrix given by its rows,
which the plans do through a sink's ``fanin_columns`` instead.

The rest are the per-case forms the oracle sweeps replaced, kept as
references: ``unpack_planes`` and ``first_mismatch_by_case`` unpack every
lane and check it on its own, ``points_brute_force`` tests all 2^(2n)
pairs, ``ec_add_reference`` is the group law on ``BinaryPoly`` values with
``poly_mul_mod`` and ``poly_inv_mod``, and the three ``*_sweep_by_case``
check one case at a time against those.
"""

from binshor.circuit import (Circuit, pack_planes, plane_ints,
                             simulate_planes)
from binshor.ecc import INFINITY, CurveError, CurveSpec, ECPoint
from binshor.gf2 import (BinaryPoly, FieldSpec, GF2Error, clmod,
                         poly_inv_mod, poly_mul_mod)
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


def unpack_planes(planes: memoryview, count: int) -> list[int]:
    """Inverse of :func:`~binshor.circuit.pack_planes`: the first ``count``
    basis states."""
    if count > 64 * planes.shape[1]:
        raise GF2Error(f"{count} cases requested from "
                       f"{64 * planes.shape[1]} lanes")
    if not count:
        return []
    lanes = (1 << count) - 1  # an X gate sets the lanes past count
    return BitMatrix.from_columns([v & lanes for v in plane_ints(planes)],
                                  count).rows


def first_mismatch_by_case(circuit: Circuit, inputs: list[int], check
                           ) -> tuple[int, int] | None:
    """Simulate every input state (bit q = qubit q) in one batch; return
    ``(index, output)`` for the first case whose output ``check(index,
    output)`` rejects, or None."""
    outs = unpack_planes(simulate_planes(circuit,
                                         pack_planes(inputs, circuit.width)),
                         len(inputs))
    for i, out in enumerate(outs):
        if not check(i, out):
            return i, out
    return None


def _on_curve(curve: CurveSpec, pt: ECPoint) -> bool:
    if pt.is_infinity():
        return True
    p = curve.field.p
    x, y = pt.x, pt.y

    def mul(u, v):
        return poly_mul_mod(u, v, p)

    lhs = mul(y, y) + mul(x, y)
    rhs = mul(mul(x, x), x) + mul(curve.a, mul(x, x)) + curve.b
    return lhs == rhs


def points_brute_force(curve: CurveSpec) -> list[ECPoint]:
    """All affine points plus the point at infinity, every (x, y) tested."""
    p = curve.field.p
    pts = [INFINITY]
    for xv in range(1 << curve.field.n):
        x = BinaryPoly(xv)
        xx = poly_mul_mod(x, x, p)
        rhs = poly_mul_mod(xx, x, p) + poly_mul_mod(curve.a, xx, p) + curve.b
        for yv in range(1 << curve.field.n):
            y = BinaryPoly(yv)
            lhs = poly_mul_mod(y, y, p) + poly_mul_mod(x, y, p)
            if (xv or yv) and lhs == rhs:
                pts.append(ECPoint(x, y))
    return pts


def ec_add_reference(p1: ECPoint, p2: ECPoint, curve: CurveSpec) -> ECPoint:
    """Group law with all exceptional branches, on ``BinaryPoly`` values."""
    for p in (p1, p2):
        if not _on_curve(curve, p):
            raise CurveError(f"point ({p.x}, {p.y}) is not on the curve")
    if p2.is_infinity():
        return p1
    if p1.is_infinity():
        return p2
    m = curve.field.p

    def mul(u, v):
        return poly_mul_mod(u, v, m)

    if p1 == p2.neg():
        return INFINITY
    if p1 == p2:
        lam = p2.x + mul(p2.y, poly_inv_mod(p2.x, m))
        x3 = mul(lam, lam) + lam + curve.a
        y3 = mul(p2.x, p2.x) + mul(lam + BinaryPoly(1), x3)
        return ECPoint(x3, y3)
    lam = mul(p1.y + p2.y, poly_inv_mod(p1.x + p2.x, m))
    x3 = mul(lam, lam) + lam + p1.x + p2.x + curve.a
    y3 = mul(p2.x + x3, lam) + x3 + p2.y
    return ECPoint(x3, y3)


def modmult_sweep_by_case(circ, layout, p: BinaryPoly, cases):
    """``cli.modmult_sweep``, one product per case."""
    fo, go, ho = (layout.reg(name)[0] for name in "fgh")

    def state(f, g, h):
        return (f << fo) | (g << go) | (h << ho)

    def want(i):
        f, g, h = cases[i]
        return state(f, g, h ^ poly_mul_mod(BinaryPoly(f), BinaryPoly(g),
                                            p).bits)

    states = [state(*case) for case in cases]
    bad = first_mismatch_by_case(circ, states,
                                 lambda i, out: out == want(i))
    return bad and (bad[0], states[bad[0]], bad[1], want(bad[0]))


def inversion_sweep_by_case(plan, circ, vals):
    """``cli.inversion_sweep``, one inverse per case."""
    slots = plan.slots(*map(plan.layout().reg, ("f", "w")))
    fo, ro, to = (slots[i][0] for i in (0, plan.result_slot, plan.temp_slot))
    mask = (1 << plan.n) - 1

    def inverse(v):
        return poly_inv_mod(BinaryPoly(v), plan.field.p).bits

    bad = first_mismatch_by_case(circ, [v << fo for v in vals],
                                 lambda i, out: (
        (out >> fo) & mask == vals[i] and (out >> to) & mask == 0
        and (out >> ro) & mask == inverse(vals[i])))
    return bad and (bad[0], (bad[1] >> ro) & mask, inverse(vals[bad[0]]),
                    (bad[1] >> to) & mask)


def pointadd_sweep_by_case(plan, circ, pts, pairs):
    """``cli.pointadd_sweep``, one reference sum per case."""
    layout = plan.layout()
    x1, y1, x2, y2, lr = (layout.reg(r)[0] for r in "x1 y1 x2 y2 lr".split())
    m = plan.curve.field.p

    def slope(p):
        if p.x.is_zero():
            return 0
        return (p.x + poly_mul_mod(p.y, poly_inv_mod(p.x, m), m)).bits

    tails = [(p.x.bits << x2) | (p.y.bits << y2) | (slope(p) << lr)
             for p in pts]

    def point(p):
        return (p.x.bits << x1) | (p.y.bits << y1)

    def added(k, out):
        i, j = pairs[k]
        return out == point(ec_add_reference(pts[i], pts[j],
                                             plan.curve)) | tails[j]

    return first_mismatch_by_case(
        circ, [point(pts[i]) | tails[j] for i, j in pairs], added)
