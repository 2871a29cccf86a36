"""Binary elliptic curve group law (classical oracle) and the in-place,
exception-complete reversible point-addition circuit.

The classical side implements the curve group law with all exceptional
cases, the oracle of the point-addition sweeps, and the window tables
([q]R, slope) of one window step.  No circuit reads those tables yet: the
phase-estimation cost in :mod:`binshor.shor` prices the lookup by formula.
The circuit side synthesizes the six-stage point addition: flag logic,
slope computation, coordinate updates, slope uncomputation, and the
exceptional-case repairs, using the arithmetic plans from
:mod:`binshor.synth`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from .circuit import Circuit, Register, emit_mcx_lowered
from .gf2 import BinaryPoly, FieldSpec, GF2Error, field_inv
from .synth import (
    InversionPlan,
    ModmultPlan,
    emit_addition,
    emit_controlled_addition,
    emit_controlled_constants,
    emit_over_layout,
    emit_square,
)


class CurveError(GF2Error):
    pass


@dataclass(frozen=True)
class CurveSpec:
    """Ordinary binary curve y^2 + xy = x^3 + a x^2 + b over GF(2^n)."""

    field: FieldSpec
    a: BinaryPoly
    b: BinaryPoly

    def __post_init__(self):
        if self.b.is_zero():
            raise CurveError("b must be nonzero (ordinary curve)")
        for name, c in (("a", self.a), ("b", self.b)):
            if c.degree >= self.field.n:
                raise CurveError(f"curve coefficient {name} = {c.bits:#x} is "
                                 f"not an element of GF(2^{self.field.n})")

    def contains(self, pt: "ECPoint") -> bool:
        return pt.is_infinity() or self._has(pt.x.bits, pt.y.bits)

    def _has(self, x: int, y: int) -> bool:
        """(x, y), of field elements' bits, solves y (y + x) = x^2 (x + a)
        + b, the curve equation."""
        if (x | y) >> self.field.n:
            return False
        mul = self.field.ops[0]
        return mul(y, y ^ x) == mul(mul(x, x), x ^ self.a.bits) ^ self.b.bits

    def points(self) -> list["ECPoint"]:
        """All affine points plus the point at infinity, in ascending (x, y)
        order, in O(2^n): at x = 0 the curve reads y^2 = b, and elsewhere y
        = x z turns it into z^2 + z = x + a + b/x^2, whose roots z and z + 1
        a table of z^2 + z gives."""
        n = self.field.n
        mul, inv = self.field.ops
        a, b = self.a.bits, self.b.bits
        roots = [None] * (1 << n)  # z^2 + z -> its even root z
        for z in range(0, 1 << n, 2):
            roots[mul(z, z) ^ z] = z
        sqrt_b = b  # b^(2^(n-1)), whose square is b^(2^n) = b
        for _ in range(n - 1):
            sqrt_b = mul(sqrt_b, sqrt_b)
        pts = [INFINITY, ECPoint(BinaryPoly(0), BinaryPoly(sqrt_b))]
        for x in range(1, 1 << n):
            w = inv(x)
            z = roots[x ^ a ^ mul(b, mul(w, w))]
            if z is not None:
                y = mul(x, z)
                pts += [ECPoint(BinaryPoly(x), BinaryPoly(v))
                        for v in sorted((y, y ^ x))]
        return pts


@dataclass(frozen=True)
class ECPoint:
    """Affine point; (0, 0) represents the point at infinity."""

    x: BinaryPoly
    y: BinaryPoly

    def is_infinity(self) -> bool:
        return self.x.is_zero() and self.y.is_zero()

    def neg(self) -> "ECPoint":
        if self.is_infinity():
            return self
        return ECPoint(self.x, self.y + self.x)


INFINITY = ECPoint(BinaryPoly(0), BinaryPoly(0))


def ec_add_classical(p1: ECPoint, p2: ECPoint, curve: CurveSpec) -> ECPoint:
    """Group law with all exceptional branches, on the bits of the
    coordinates with the field's :attr:`~binshor.gf2.FieldSpec.ops` (log
    tables up to degree 16)."""
    mul, inv = curve.field.ops
    x1, y1, x2, y2 = p1.x.bits, p1.y.bits, p2.x.bits, p2.y.bits
    for p, x, y in ((p1, x1, y1), (p2, x2, y2)):
        if (x or y) and not curve._has(x, y):
            raise CurveError(f"point ({p.x}, {p.y}) is not on the curve")
    if not (x2 or y2):
        return p1
    if not (x1 or y1):
        return p2
    if x1 == x2 and y1 == y2 ^ x2:  # P1 = -P2
        return INFINITY
    if x1 == x2:
        # doubling: P and -P are the curve's only points at x; x2 != 0 here
        # since x2 = 0 would be the self-inverse case
        lam = x2 ^ mul(y2, inv(x2))
        x3 = mul(lam, lam) ^ lam ^ curve.a.bits
        y3 = mul(x2, x2) ^ mul(lam ^ 1, x3)
    else:
        lam = mul(y1 ^ y2, inv(x1 ^ x2))
        x3 = mul(lam, lam) ^ lam ^ x1 ^ x2 ^ curve.a.bits
        y3 = mul(x2 ^ x3, lam) ^ x3 ^ y2
    return ECPoint(BinaryPoly(x3), BinaryPoly(y3))


def ec_scalar_mul(k: int, p: ECPoint, curve: CurveSpec) -> ECPoint:
    """Double-and-add; [0]P is the point at infinity."""
    if k < 0:
        raise CurveError("scalar must be non-negative")
    acc = INFINITY
    base = p
    while k:
        if k & 1:
            acc = ec_add_classical(acc, base, curve)
        base = ec_add_classical(base, base, curve)
        k >>= 1
    return acc


def slope_for(pt: ECPoint, field: FieldSpec) -> BinaryPoly:
    """Doubling slope stored with a table entry: x + y/x, and 0 when x = 0
    (the flag logic makes the value irrelevant there)."""
    if pt.x.is_zero():
        return BinaryPoly(0)
    return pt.x + field.mul(pt.y, field_inv(pt.x, field))


@dataclass(frozen=True)
class WindowTable:
    s: int
    entries: tuple[tuple[ECPoint, BinaryPoly], ...]


def build_window_table(r: ECPoint, s: int, curve: CurveSpec) -> WindowTable:
    """Entries ([q]R, slope) for q in [0, 2^s)."""
    if s < 1:
        raise CurveError("window size must be >= 1")
    entries = []
    acc = INFINITY
    for q in range(1 << s):
        entries.append((acc, slope_for(acc, curve.field)))
        acc = ec_add_classical(acc, r, curve)
    return WindowTable(s, tuple(entries))


# -- equality-test circuit -----------------------------------------------------

def emit_equality_test(sink, aw, bw, target, anc, extra_controls=()):
    """Flip ``target`` iff registers a and b are equal (under any extra
    closed/open controls): bitwise-CNOT conjugated open-control MCX, lowered
    onto the clean ancillas ``anc``."""
    for a, b in zip(aw, bw):
        sink.cnot(a, b)
    controls = [(b, False) for b in bw] + list(extra_controls)
    emit_mcx_lowered(sink, controls, target, anc)
    for a, b in zip(aw, bw):
        sink.cnot(a, b)


# -- the point-addition circuit -------------------------------------------------

class PointAddPlan:
    """Precomputed data for one field's point-addition circuit."""

    def __init__(self, curve: CurveSpec, modmult: ModmultPlan,
                 inversion: InversionPlan):
        if not inversion.clearing:
            raise CurveError("point addition expects the clearing inverter")
        self.curve = curve
        self.n = curve.field.n
        self.modmult = modmult
        self.inversion = inversion

    def layout(self) -> Circuit:
        """Empty circuit over the point-addition registers, in wire order.

        x1, y1 (become x3, y3), x2, y2 and the table slope lr (restored),
        the flags [f1, f2, f3, f4, ctrl] (end at 0), the slope workspace
        lam, the inverter workspace w, one scratch bit s and the ladder, the
        clean ancillas of every multi-controlled NOT (all end at 0).  The
        widest of those, a zero test of x1, y1 under two flags, has 2n+2
        controls, so the ladder has 2n wires.
        """
        n = self.n
        return Circuit([
            Register("x1", n), Register("y1", n), Register("x2", n),
            Register("y2", n), Register("lr", n),
            Register("flags", 5, "flag"), Register("lam", n, "ancilla-clean"),
            Register("w", (self.inversion.num_registers - 1) * n,
                     "ancilla-clean"),
            Register("s", 1, "ancilla-clean"),
            Register("ladder", 2 * n, "ancilla-clean"),
        ])

    def emit(self, sink, x1, y1, x2, y2, lr, flags, lam, w, s, ladder):
        """Six-stage in-place point addition over the wires of the
        registers of :meth:`layout`, one argument each, as one keyed
        block."""
        sink.block(lambda sub: self._emit(
            sub, x1, y1, x2, y2, lr, flags, lam, w, s, ladder), key=(self,))

    def _emit(self, sink, A, B, C, D, L, flags, LAM, W, scratch, ladder):
        (S,) = scratch
        f1, f2, f3, f4, ctrl = flags
        inv = self.inversion
        slots = inv.slots(A, W)
        Wout, T = slots[inv.result_slot], slots[inv.temp_slot]

        @contextmanager
        def census(label, units=1):
            sink.begin_group(f"census:{label}", units)
            yield
            sink.end_group()

        def inversion(rev=False):
            with census("inversion"):
                sink.block(lambda s: inv.emit(s, A, W), rev=rev)

        def mult(fw, gw, hw):
            with census("multiplication"):
                self.modmult.emit(sink, fw, gw, hw)

        def mcx(controls, target):
            emit_mcx_lowered(sink, controls, target, ladder)

        def eq(aw, bw, target, extras, units=1):
            with census("equality-test", units):
                emit_equality_test(sink, aw, bw, target, ladder, extras)

        def zero_test(regs, target, extras, label="n-toffoli", units=None):
            with census(label, len(regs) if units is None else units):
                mcx([(q, False) for r in regs for q in r] + list(extras),
                    target)

        def add(src, dst):
            with census("addition"):
                emit_addition(sink, src, dst)

        def cadd(c, src, dst):
            with census("controlled-addition"):
                emit_controlled_addition(sink, c, src, dst)

        def gated_add(c, src, dst):
            with census("n-toffoli"):
                emit_controlled_addition(sink, c, src, dst)

        # ---- stage 1: exceptional-case flags ----------------------------
        sink.begin_group("stage1")
        eq(A, C, f1, [])                              # f1 = [x1 == x2]
        add(C, D)                                     # D = x2 + y2
        eq(B, D, f2, [(f1, True)], units=2)           # f2 = f1 & [y1 == x2+y2]
        add(C, D)                                     # restore D
        zero_test([A, B], f3, [])                     # f3 = [P1 == O]
        zero_test([C, D], f4, [])                     # f4 = [P2 == O]
        zero_test([(f2, f3, f4)], ctrl, [], units=2)  # ctrl = no exception
        sink.end_group()

        # ---- stage 2: compute the slope ---------------------------------
        sink.begin_group("stage2")
        add(C, A)                                     # A = x1 + x2
        cadd(ctrl, D, B)                              # B = y1 (+ y2 if ctrl)
        inversion()                                   # Wout = (x1+x2)^-1
        mult(B, Wout, T)
        with census("n-toffoli", 1):                  # gate bit ctrl & !f1
            mcx([(ctrl, True), (f1, False)], S)
        cadd(S, T, LAM)                               # LAM = lambda (generic)
        with census("n-toffoli", 0):
            mcx([(ctrl, True), (f1, False)], S)
        mult(B, Wout, T)                              # T back to 0
        with census("n-toffoli", 1):                  # lambda_r copy path
            mcx([(ctrl, True), (f1, True)], S)
        gated_add(S, L, LAM)                          # LAM = lambda_r (doubling)
        with census("n-toffoli", 0):
            mcx([(ctrl, True), (f1, True)], S)
        eq(LAM, L, S, [(ctrl, True)])                 # S = ctrl & [lam == lam_r]
        with census("n-toffoli"):                     # swap f1, S if ctrl
            sink.cnot(S, f1)
            sink.ccx(ctrl, f1, S)
            sink.cnot(S, f1)
        zero_test([A], S, [(ctrl, True)])             # clears S (= [x1==x2])
        inversion(rev=True)
        sink.end_group()

        # ---- stage 3: toward x2 + x3 ------------------------------------
        sink.begin_group("stage3")
        mult(LAM, A, T)
        add(T, B)                                     # B = 0 if ctrl else y1
        mult(LAM, A, T)
        cadd(ctrl, C, A)                              # A = x1 + a if ctrl
        with census("controlled-const-addition"):
            emit_controlled_constants(sink, ctrl, self.curve.a, A)
        sink.end_group()

        # ---- stage 4: A -> x2+x3, B -> y2+y3+x3 --------------------------
        sink.begin_group("stage4")
        add(LAM, A)
        with census("squaring"):
            emit_square(sink, self.curve.field, 1, LAM)
        add(LAM, A)                                   # A += lam + lam^2
        with census("squaring"):
            emit_square(sink, self.curve.field, 1, LAM, rev=True)
        mult(LAM, A, T)
        add(T, B)                                     # B = lam (x2+x3) + prior
        mult(LAM, A, T)
        sink.end_group()

        # ---- stage 5: uncompute the slope, produce x3, y3 -----------------
        sink.begin_group("stage5")
        eq(LAM, L, f1, [(ctrl, True)])                # clears the stage-2 flag
        inversion()                                   # Wout = (x2+x3)^-1
        mult(B, Wout, T)
        cadd(ctrl, T, LAM)                            # LAM -> 0 when x2+x3 != 0
        mult(B, Wout, T)
        zero_test([A], S, [(ctrl, True)])             # S = ctrl & [x2+x3 == 0]
        gated_add(S, L, LAM)                          # doubling with x3 = x2
        zero_test([A], S, [(ctrl, True)])
        inversion(rev=True)
        add(C, A)                                     # A = x3 / x1
        cadd(ctrl, D, B)
        cadd(ctrl, A, B)                              # B = y3 / y1
        sink.end_group()

        # ---- stage 6: reset ctrl, repair exceptional cases ----------------
        sink.begin_group("stage6")
        zero_test([(f2, f3, f4)], ctrl, [], units=2)  # reset ctrl
        zero_test([A], f1, [(f4, True), (f3, False)])  # spurious f1 from the
        zero_test([C], f1, [(f3, True), (f4, False)])  # O representation
        with census("n-toffoli", 2):                  # both points at O
            sink.ccx(f3, f4, f1)
            sink.ccx(f3, f4, f2)
        with census("n-toffoli", 1):                  # P1 = -P2: output O
            sink.ccx(f1, f2, S)
        gated_add(S, C, A)
        gated_add(S, C, B)
        gated_add(S, D, B)
        with census("n-toffoli", 0):
            sink.ccx(f1, f2, S)
        zero_test([A, B], f2, [(f1, True)],           # clear f2 (output == O)
                  label="equality-test")
        zero_test([A, B], f1, [(f3, False), (f4, False)])  # clear f1 likewise
        gated_add(f3, C, A)                           # P1 = O: copy P2
        gated_add(f3, D, B)
        eq(A + B, C + D, f3, [], units=2)             # reset f3
        zero_test([C, D], f4, [])                     # reset f4
        sink.end_group()


TABLE_CENSUS = {
    "equality-test": 9,
    "n-toffoli": 30,
    "addition": 8,
    "controlled-addition": 6,
    "inversion": 4,
    "multiplication": 8,
    "controlled-const-addition": 1,
    "squaring": 2,
}


def synth_ecpointadd(plan: PointAddPlan) -> Circuit:
    """The point addition emitted over its :meth:`PointAddPlan.layout`.

    Output (x3, y3) lands in the x1/y1 registers; x2, y2 and the slope input
    are restored; flags and all clean ancillas return to zero.
    """
    return emit_over_layout(plan.layout(), plan.emit)


def pointadd_census(census: dict[str, int]) -> dict[str, int]:
    """Subroutine census from a :class:`~binshor.synth.CountSink`'s
    ``census`` (label -> units): the ``census:`` labels, prefix removed."""
    return {label.split(":", 1)[1]: units for label, units in census.items()
            if label.startswith("census:")}
