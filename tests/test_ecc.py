import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from binshor.circuit import Circuit, Register, counts, simulate
from binshor.cli import pointadd_sweep
from binshor.ecc import (
    INFINITY,
    CurveError,
    CurveSpec,
    ECPoint,
    TABLE_CENSUS,
    build_window_table,
    ec_add_classical,
    ec_scalar_mul,
    emit_equality_test,
    pointadd_census,
    slope_for,
    synth_ecpointadd,
)
from binshor.gf2 import BinaryPoly, FieldSpec
from binshor.pipeline import field_for, pointadd_plan
from binshor.shor import stream_pointadd_counts
from binshor.synth import emit_over_layout
from helpers import ec_add_reference, points_brute_force
from test_synth import TallySink

F4 = field_for(4)
CURVE4 = CurveSpec(F4, BinaryPoly(0), BinaryPoly(1))
F5 = field_for(5)
CURVE5 = CurveSpec(F5, BinaryPoly(2), BinaryPoly(3))


def test_curve_requires_nonzero_b():
    with pytest.raises(CurveError):
        CurveSpec(F4, BinaryPoly(1), BinaryPoly(0))


@pytest.mark.parametrize("a, b", [(0b10000, 1), (0b11111, 1), (0, 0b10000),
                                  (1, 0b100001)])
def test_curve_coefficients_are_field_elements(a, b):
    # a coefficient of degree >= n is not an element of GF(2^n)
    with pytest.raises(CurveError, match="not an element of GF"):
        CurveSpec(F4, BinaryPoly(a), BinaryPoly(b))
    CurveSpec(F4, BinaryPoly(a & 0b1111), BinaryPoly((b & 0b1111) or 1))


def test_add_identity():
    for p in CURVE4.points():
        assert ec_add_classical(p, INFINITY, CURVE4) == p
        assert ec_add_classical(INFINITY, p, CURVE4) == p


def test_add_inverse_gives_infinity():
    for p in CURVE4.points():
        assert ec_add_classical(p, p.neg(), CURVE4) == INFINITY


CURVE3 = CurveSpec(field_for(3), BinaryPoly(1), BinaryPoly(1))


@pytest.mark.parametrize("curve", [CURVE3, CURVE4, CURVE5])
def test_add_commutative_exhaustive(curve):
    pts = curve.points()
    for p1 in pts:
        for p2 in pts:
            assert (ec_add_classical(p1, p2, curve)
                    == ec_add_classical(p2, p1, curve))


@pytest.mark.parametrize("curve", [CURVE3, CURVE4, CURVE5])
def test_identity_and_inverses_exhaustive(curve):
    for p in curve.points():
        assert ec_add_classical(p, INFINITY, curve) == p
        assert ec_add_classical(p, p.neg(), curve) == INFINITY


def test_add_closed_and_on_curve():
    pts = CURVE5.points()
    for p1 in pts:
        for p2 in pts:
            assert CURVE5.contains(ec_add_classical(p1, p2, CURVE5))


def test_add_associative_sampled():
    rng = random.Random(4)
    pts = CURVE5.points()
    for _ in range(10_000):
        a, b, c = (rng.choice(pts) for _ in range(3))
        left = ec_add_classical(ec_add_classical(a, b, CURVE5), c, CURVE5)
        right = ec_add_classical(a, ec_add_classical(b, c, CURVE5), CURVE5)
        assert left == right


def test_doubling_matches_group_table():
    # brute-force the cyclic structure: repeated addition equals doubling
    pts = CURVE4.points()
    for p in pts:
        assert ec_add_classical(p, p, CURVE4) == ec_scalar_mul(2, p, CURVE4)


def test_off_curve_rejected():
    bad = ECPoint(BinaryPoly(1), BinaryPoly(1))
    if not CURVE4.contains(bad):
        with pytest.raises(CurveError):
            ec_add_classical(bad, INFINITY, CURVE4)


@pytest.mark.parametrize("a", [0, 1])
@pytest.mark.parametrize("n", range(2, 9))
def test_points_are_the_brute_force_points_in_order(n, a):
    curve = CurveSpec(field_for(n), BinaryPoly(a), BinaryPoly(1))
    assert curve.points() == points_brute_force(curve)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, (1 << n) - 1), st.integers(1, (1 << n) - 1))))
def test_points_of_drawn_curves(case):
    n, a, b = case
    curve = CurveSpec(field_for(n), BinaryPoly(a), BinaryPoly(b))
    assert curve.points() == points_brute_force(curve)


@pytest.mark.parametrize("n", range(2, 7))
def test_group_law_is_the_reference_on_every_pair(n):
    for a, b in ((0, 1), (1, 1), ((1 << n) - 2, 3)):
        curve = CurveSpec(field_for(n), BinaryPoly(a), BinaryPoly(b))
        pts = curve.points()
        for p1 in pts:
            for p2 in pts:
                assert (ec_add_classical(p1, p2, curve)
                        == ec_add_reference(p1, p2, curve))


def _points_by_half_trace(curve, xs):
    """Points of a curve over a field of odd degree n: z^2 + z = c has the
    root z = sum of c^(4^i) for i <= (n-1)/2 (the half-trace) when it has
    any, and y = x z."""
    f = curve.field
    pts = []
    for xv in xs:
        x = BinaryPoly(xv)
        w = f.inv(x)
        c = x + curve.a + f.mul(curve.b, f.mul(w, w))
        z, t = BinaryPoly(0), c
        for _ in range((f.n + 1) // 2):
            z += t
            t = f.mul(f.mul(t, t), f.mul(t, t))
        if f.mul(z, z) + z == c:
            y = f.mul(x, z)
            pts += [ECPoint(x, y), ECPoint(x, y + x)]
    return pts


def test_group_law_is_the_reference_at_163():
    # above degree 16 the same law runs on clmul and extended Euclid
    rng = random.Random(163)
    curve = CurveSpec(FieldSpec.standard(163), BinaryPoly(1), BinaryPoly(
        rng.getrandbits(163) | 1))
    pts = _points_by_half_trace(curve, [rng.getrandbits(163) | 1
                                        for _ in range(8)])
    assert len(pts) >= 4 and all(curve.contains(p) for p in pts)
    pts += [INFINITY, pts[0].neg()]
    for p1 in pts:
        for p2 in pts:
            assert (ec_add_classical(p1, p2, curve)
                    == ec_add_reference(p1, p2, curve))


@pytest.mark.parametrize("n", [4, 163])
def test_off_curve_points_raise(n):
    curve = CurveSpec(field_for(n), BinaryPoly(1), BinaryPoly(1))
    pts = (curve.points() if n == 4 else
           _points_by_half_trace(curve, range(3, 99, 2)))
    on = next(p for p in pts if p.x.bits > 1)
    # y + 1 is neither y nor y + x; an x of degree n is no field element
    for bad in (ECPoint(on.x, on.y + BinaryPoly(1)),
                ECPoint(on.x + BinaryPoly(1 << n), on.y)):
        assert not curve.contains(bad)
        for p1, p2 in ((bad, INFINITY), (INFINITY, bad), (on, bad)):
            with pytest.raises(CurveError, match="is not on the curve"):
                ec_add_classical(p1, p2, curve)


def test_scalar_mul_edges():
    p = next(pt for pt in CURVE4.points() if not pt.is_infinity())
    assert ec_scalar_mul(0, p, CURVE4) == INFINITY
    assert ec_scalar_mul(1, p, CURVE4) == p
    order = 1
    acc = p
    while not acc.is_infinity():
        acc = ec_add_classical(acc, p, CURVE4)
        order += 1
    assert ec_scalar_mul(order, p, CURVE4) == INFINITY


def test_window_table():
    r = next(pt for pt in CURVE4.points() if not pt.is_infinity())
    table = build_window_table(r, 3, CURVE4)
    assert table.entries[0] == (INFINITY, BinaryPoly(0))
    p1, lam1 = table.entries[1]
    assert p1 == r
    if not r.x.is_zero():
        assert lam1 == r.x + F4.mul(r.y, F4.inv(r.x))
    for q1 in range(4):
        for q2 in range(4):
            got = table.entries[(q1 + q2) % 8][0]
            want = ec_add_classical(table.entries[q1][0],
                                    table.entries[q2][0], CURVE4)
            if q1 + q2 < 8:
                assert got == want


def test_equality_test_exhaustive():
    n = 3
    circ = emit_over_layout(
        Circuit([Register("a", n), Register("b", n),
                 Register("flag", 1, "flag"),
                 Register("anc", n - 2, "ancilla-clean")]),
        lambda s, a, b, t, anc: emit_equality_test(s, a, b, t[0], anc))
    for a in range(8):
        for b in range(8):
            for t in (0, 1):
                state = a | (b << n) | (t << (2 * n))
                out = simulate(circ, state)
                want_t = t ^ (1 if a == b else 0)
                assert out == a | (b << n) | (want_t << (2 * n))


def test_equality_test_counts():
    n = 6
    cc = counts(emit_over_layout(
        Circuit([Register("a", n), Register("b", n),
                 Register("flag", 1, "flag"),
                 Register("anc", n - 2, "ancilla-clean")]),
        lambda s, a, b, t, anc: emit_equality_test(s, a, b, t[0], anc)))
    assert cc.cnot == 2 * n
    assert cc.toffoli == n - 1
    assert cc.ancilla_clean == n - 2
    cc2 = counts(emit_over_layout(
        Circuit([Register("a", n), Register("b", n),
                 Register("c", 2, "flag"), Register("flag", 1, "flag"),
                 Register("anc", n, "ancilla-clean")]),
        lambda s, a, b, c, t, anc: emit_equality_test(
            s, a, b, t[0], anc, [(q, True) for q in c])))
    assert cc2.toffoli == n - 1 + 2
    assert cc2.ancilla_clean == n
    # two controls need no ancilla
    cc3 = counts(emit_over_layout(
        Circuit([Register("a", 2), Register("b", 2),
                 Register("flag", 1, "flag")]),
        lambda s, a, b, t: emit_equality_test(s, a, b, t[0], [])))
    assert cc3.ancilla_clean == 0


def sweep_curve(plan):
    """The plan's circuit, checked on every ordered pair of curve points."""
    circ = synth_ecpointadd(plan)
    pts = plan.curve.points()
    pairs = list(itertools.product(range(len(pts)), repeat=2))
    assert pointadd_sweep(plan, circ, pts, pairs) is None


def test_pointadd_exhaustive_a_zero_curve():
    plan = pointadd_plan(4, 0, 1)
    sweep_curve(plan)
    assert pointadd_census(stream_pointadd_counts(plan).census) == TABLE_CENSUS


def test_pointadd_exhaustive_gf8_with_correction_multiplier():
    # the n=3 modulus set needs one correction coefficient, so this sweep
    # drives the correction branch inside every multiplication call
    from binshor.pipeline import modulus_set_for

    assert modulus_set_for(3).omega(3) == 1
    plan = pointadd_plan(3, 1, 1)
    sweep_curve(plan)
    assert pointadd_census(stream_pointadd_counts(plan).census) == TABLE_CENSUS


def test_pointadd_exhaustive_a_nonzero_curve():
    plan = pointadd_plan(5, 2, 3)
    sweep_curve(plan)
    assert pointadd_census(stream_pointadd_counts(plan).census) == TABLE_CENSUS


class GroupEnds(Circuit):
    """A circuit that records its gate count where each group ends."""

    def __init__(self, registers):
        super().__init__(registers)
        self.open, self.ends = [], {}

    def begin_group(self, label, units=1):
        self.open.append(label)

    def end_group(self):
        self.ends[self.open.pop()] = len(self.gates)


def test_pointadd_stage2_postconditions():
    # after stage 2 the coordinate registers hold x1+x2 and y1 (+ y2 when the
    # generic branch is active) and the slope register holds 0 / lambda
    plan = pointadd_plan(4, 0, 1)
    circ = emit_over_layout(GroupEnds(plan.layout().registers), plan.emit)
    prefix = Circuit(list(circ.registers))
    prefix.gates = circ.gates[:circ.ends["stage2"]]
    n = 4
    pts = [p for p in plan.curve.points() if not p.is_infinity()]
    rng = random.Random(0)
    fld = plan.curve.field
    for _ in range(40):
        p1, p2 = rng.choice(pts), rng.choice(pts)
        lam_r = slope_for(p2, fld)
        state = (p1.x.bits | (p1.y.bits << n) | (p2.x.bits << 2 * n)
                 | (p2.y.bits << 3 * n) | (lam_r.bits << 4 * n))
        out = simulate(prefix, state)
        mask = 15
        a = out & mask
        b = (out >> n) & mask
        lam = (out >> (5 * n + 5)) & mask
        assert a == p1.x.bits ^ p2.x.bits
        generic = not (p1 == p2.neg())
        if generic:
            assert b == p1.y.bits ^ p2.y.bits
            if p1 == p2:
                want_lam = lam_r.bits
            else:
                s = fld.mul(p1.y + p2.y, fld.inv(p1.x + p2.x))
                want_lam = s.bits
            assert lam == want_lam
        else:
            assert b == p1.y.bits
            assert lam == 0


def test_pointadd_census_at_n8():
    streamed = stream_pointadd_counts(pointadd_plan(8, 1, 1))
    assert pointadd_census(streamed.census) == TABLE_CENSUS


def test_pointadd_synthesized_vs_decomposition_toffoli():
    # the synthesized circuit undercuts the subroutine-decomposition total by
    # a fixed 11n - 50 (narrow flag gates where the decomposition charges
    # n-scale constructs); pin the relationship so silent drift is caught
    from binshor.pipeline import inversion_plan, modmult_plan

    for n, a, b in ((4, 0, 1), (5, 2, 3), (8, 1, 1)):
        plan = pointadd_plan(n, a, b)
        streamed = stream_pointadd_counts(plan).counts
        formula = (4 * inversion_plan(n).counts().toffoli
                   + 8 * modmult_plan(n).counts().toffoli
                   + 39 * (n - 1) + 6 * n)
        assert streamed.toffoli == formula - 11 * n + 50


@pytest.mark.parametrize("n, a, b", [(2, 0, 1), (3, 1, 1), (4, 0, 1),
                                     (5, 2, 3), (8, 1, 1)])
def test_streamed_pointadd_counts_equal_lowered_circuit(n, a, b):
    # the circuit's MCX are lowered as they are emitted, onto its ladder
    # register, so the counter and the circuit read one gate stream
    plan = pointadd_plan(n, a, b)
    sink = stream_pointadd_counts(plan)
    circ = synth_ecpointadd(plan)
    # the full census, the arithmetic blocks' inner groups included; the
    # reversed inversions add none, whether the sink reverses them
    # (TallySink) or not (CountSink)
    tally = TallySink()
    emit_over_layout(plan.layout(), plan.emit, tally)
    assert sink.census == tally.census
    # every field, the qubit and ancilla widths included
    assert sink.counts == counts(circ)
    kinds = ("cnot", "toffoli", "swap", "not_", "ccx_uncompute")
    if n == 8:
        assert [getattr(sink.counts, k) for k in kinds] == [
            7883, 931, 410, 360, 153]


def test_streamed_pointadd_reports_the_layout_width():
    plan = pointadd_plan(4, 0, 1)
    width = stream_pointadd_counts(plan).counts.qubits_total
    assert width == synth_ecpointadd(plan).width == 50
    # the 11n+6 registers of the arithmetic plus the 2n ladder ancillas
    n = 163
    counts163 = stream_pointadd_counts(pointadd_plan(n)).counts
    assert counts163.qubits_total == 13 * n + 6 == 2125
    assert counts163.ancilla_clean == 1305


def test_pointadd_sampled_n8():
    plan = pointadd_plan(8, 1, 1)
    rng = random.Random(8)
    pts = plan.curve.points()
    pairs = [(rng.randrange(len(pts)), rng.randrange(len(pts)))
             for _ in range(300)]
    assert pointadd_sweep(plan, synth_ecpointadd(plan), pts, pairs) is None
