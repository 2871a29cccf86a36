"""Value semantics of the package's record classes.

Field, modulus-set, curve, point, register and addition-chain objects are
compared and hashed by their constructor arguments (fields and modulus sets
key the package's caches and blocks); a Karatsuba formula keys a block by
identity.  Every constructor check raises its own exception class and text.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from binshor.circuit import REG_KINDS, GateCounts, Register
from binshor.ecc import CurveError, CurveSpec, ECPoint, WindowTable
from binshor.formulas import KaratsubaFormula
from binshor.gf2 import (BinaryPoly, FieldSpec, GF2Error,
                         InvalidModulusSetError, ModulusSet,
                         enumerate_irreducibles)
from binshor.linalg import BitMatrix
from binshor.physical import AVParams, BaselineParams, PhysicalEstimate
from binshor.shor import LogicalCost
from binshor.synth import AdditionChain


def _same(a, b):
    assert a == b and not a != b
    assert hash(a) == hash(b)


def _differ(a, b):
    assert a != b and not a == b


@st.composite
def fields(draw, max_n=6):
    n = draw(st.integers(2, max_n))
    return FieldSpec(n, draw(st.sampled_from(enumerate_irreducibles(n))))


@st.composite
def chains(draw):
    """Valid addition chains, some with clearing steps."""
    terms, live = [1], {1}
    for _ in range(draw(st.integers(0, 8))):
        clearable = sorted(live - {1, max(live)})
        if clearable and draw(st.booleans()):
            v = draw(st.sampled_from([c for c in clearable
                                      if c < terms[-1]] or [None]))
            if v is not None:
                terms.append(v)
                live.discard(v)
                continue
        a, b = draw(st.sampled_from(sorted(live))), draw(
            st.sampled_from(sorted(live)))
        if a + b > terms[-1] and a + b not in live:
            terms.append(a + b)
            live.add(a + b)
    return tuple(terms)


@settings(max_examples=100, deadline=None)
@given(fields(), st.data())
def test_field_and_curve_compare_by_value(field, data):
    n = field.n
    _same(field, FieldSpec(n, BinaryPoly(field.p.bits)))
    others = [p for p in enumerate_irreducibles(n) if p != field.p]
    if others:
        _differ(field, FieldSpec(n, data.draw(st.sampled_from(others))))
    _differ(field, data.draw(fields().filter(lambda f: f.n != n)))

    a = data.draw(st.integers(0, (1 << n) - 1))
    b = data.draw(st.integers(1, (1 << n) - 1))
    curve = CurveSpec(field, BinaryPoly(a), BinaryPoly(b))
    _same(curve, CurveSpec(FieldSpec(n, field.p), BinaryPoly(a),
                           BinaryPoly(b)))
    _differ(curve, CurveSpec(field, BinaryPoly(a ^ 1), BinaryPoly(b)))
    if b > 1:
        _differ(curve, CurveSpec(field, BinaryPoly(a), BinaryPoly(b ^ 1)))


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 7),
       st.booleans())
def test_points_compare_by_value(x, y, bit, which):
    p = ECPoint(BinaryPoly(x), BinaryPoly(y))
    _same(p, ECPoint(BinaryPoly(x), BinaryPoly(y)))
    x2, y2 = (x ^ (1 << bit), y) if which else (x, y ^ (1 << bit))
    _differ(p, ECPoint(BinaryPoly(x2), BinaryPoly(y2)))
    assert len({p, ECPoint(BinaryPoly(x), BinaryPoly(y))}) == 1


@given(st.text(min_size=1, max_size=4), st.integers(1, 9),
       st.sampled_from(REG_KINDS), st.integers(0, 2))
def test_registers_compare_by_value(name, width, kind, change):
    r = Register(name, width, kind)
    _same(r, Register(name=name, width=width, kind=kind))
    args = [name, width, kind]
    args[change] = {0: name + "'", 1: width + 1,
                    2: REG_KINDS[(REG_KINDS.index(kind) + 1) % 5]}[change]
    _differ(r, Register(*args))
    if kind == "input":
        _same(r, Register(name, width))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_modulus_sets_compare_by_value(data):
    bases = data.draw(st.lists(
        st.sampled_from([p for d in (1, 2, 3, 4) for p in
                         enumerate_irreducibles(d)]),
        min_size=1, max_size=4, unique_by=lambda p: p.bits))
    exps = data.draw(st.lists(st.integers(1, 3), min_size=len(bases),
                              max_size=len(bases)))
    factors = tuple(zip(bases, exps))
    ms = ModulusSet(factors)
    _same(ms, ModulusSet(tuple((BinaryPoly(b.bits), e) for b, e in factors)))
    i = data.draw(st.integers(0, len(factors) - 1))
    bumped = list(factors)
    bumped[i] = (bases[i], exps[i] + 1)
    _differ(ms, ModulusSet(tuple(bumped)))
    if len(factors) > 1:
        _differ(ms, ModulusSet(factors[:-1]))


@given(chains(), chains())
def test_addition_chains_compare_by_value(terms, other):
    chain = AdditionChain(terms)
    _same(chain, AdditionChain(tuple(terms)))
    if other != terms:
        _differ(chain, AdditionChain(other))


def test_formulas_compare_by_identity():
    T, R = BitMatrix([1], 1), BitMatrix([1], 1)
    f, g = KaratsubaFormula(1, T, R), KaratsubaFormula(1, T, R)
    assert f == f and f != g and not f == g
    assert len({f, g}) == 2


def test_records_without_value_semantics_compare_by_identity():
    # these are neither compared nor used as keys
    for make in (lambda: WindowTable(1, ()), BaselineParams, AVParams,
                 lambda: PhysicalEstimate(3, 1.0, 1.0), LogicalCost):
        a, b = make(), make()
        assert a == a and a != b


def test_keyword_construction():
    c = GateCounts(cnot=10, swap=2, toffoli=3)
    assert (c.not_, c.cnot, c.swap, c.toffoli, c.ccx_uncompute,
            c.qubits_total, c.ancilla_clean, c.ancilla_garbage) == (
        0, 10, 2, 3, 0, 0, 0, 0)
    assert c == GateCounts(0, 10, 2, 3) and c != GateCounts(cnot=10)
    cost = LogicalCost(toffoli=1.5, qubits=7)
    assert (cost.toffoli, cost.cnot, cost.swap, cost.qubits,
            cost.active_volume) == (1.5, 0.0, 0.0, 7, 0.0)
    base = BaselineParams(code_cycle_time=1e-3)
    assert (base.code_cycle_time, base.failure_budget,
            base.t_per_toffoli) == (1e-3, 0.05, 4)
    av = AVParams(delay=1e-5)
    assert (av.r_im, av.delay, av.failure_budget) == (1e9, 1e-5, 0.05)
    est = PhysicalEstimate(distance=3, device_size=2.0, runtime_avg=90.0)
    assert (est.distance, est.device_size, est.runtime_display) == (
        3, 2.0, "1.5 min")
    p5 = BinaryPoly(0b100101)
    assert FieldSpec(p=p5, n=5) == FieldSpec(5, p5)
    formula = KaratsubaFormula(1, BitMatrix([1], 1), BitMatrix([1], 1))
    assert formula.source == "generated"
    with pytest.raises(TypeError):
        GateCounts(cnots=1)
    with pytest.raises(TypeError):
        LogicalCost(1.0, 0.0, 0.0, 0, 0.0, 0)


P5 = BinaryPoly(0b100101)          # x^5 + x^2 + 1
F5 = FieldSpec(5, P5)
X2, X3 = BinaryPoly(0b111), BinaryPoly(0b1011)  # x^2+x+1, x^3+x+1

CHECKS = [
    (lambda: Register("r", 0), GF2Error, "register r must have width >= 1"),
    (lambda: Register("r", 2, "scratch"), GF2Error,
     "unknown register kind 'scratch'"),
    (lambda: FieldSpec(5, BinaryPoly(0b111)), GF2Error,
     "modulus degree 2 != n = 5"),
    (lambda: FieldSpec(1, BinaryPoly(0b11)), GF2Error,
     "extension degree must be >= 2"),
    (lambda: FieldSpec(4, BinaryPoly(0b10001)), GF2Error,
     "x^4+1 is not irreducible"),
    (lambda: ModulusSet(()), InvalidModulusSetError, "empty modulus set"),
    (lambda: ModulusSet(((X2, 0),)), InvalidModulusSetError,
     "factor exponent must be >= 1"),
    (lambda: ModulusSet(((BinaryPoly(0b101), 1),)), InvalidModulusSetError,
     "base x^2+1 is not irreducible"),
    (lambda: ModulusSet(((X3, 1), (X2, 2), (X3, 2))),
     InvalidModulusSetError, "repeated base x^3+x+1"),
    (lambda: CurveSpec(F5, BinaryPoly(1), BinaryPoly(0)), CurveError,
     "b must be nonzero (ordinary curve)"),
    (lambda: CurveSpec(F5, BinaryPoly(0x20), BinaryPoly(1)), CurveError,
     "curve coefficient a = 0x20 is not an element of GF(2^5)"),
    (lambda: CurveSpec(F5, BinaryPoly(1), BinaryPoly(0x21)), CurveError,
     "curve coefficient b = 0x21 is not an element of GF(2^5)"),
    (lambda: KaratsubaFormula(2, BitMatrix([1], 1), BitMatrix([1], 1)),
     GF2Error, "formula dimensions inconsistent"),
    (lambda: KaratsubaFormula(1, BitMatrix([1], 1), BitMatrix([1, 1], 1)),
     GF2Error, "formula dimensions inconsistent"),
    (lambda: AdditionChain(()), GF2Error, "chain must start at 1"),
    (lambda: AdditionChain((2, 3)), GF2Error, "chain must start at 1"),
    (lambda: AdditionChain((1, 2, 4, 2, 4)), GF2Error,
     "term 4 recomputed while live"),
    (lambda: AdditionChain((1, 3)), GF2Error,
     "term 3 is not a sum of live terms"),
    (lambda: AdditionChain((1, 2, 4, 3)), GF2Error,
     "clearing step 3 references a dead term"),
    (lambda: AdditionChain((1, 2, 3, 1)), GF2Error,
     "cannot clear input term 1"),
    (lambda: AdditionChain((1, 2, 2)), GF2Error, "chain target 2 is cleared"),
    (lambda: BaselineParams(failure_budget=1.0), ValueError,
     "failure budget must be in (0, 1)"),
    (lambda: BaselineParams(code_cycle_time=math.inf), ValueError,
     "cycle time must be finite and positive, got inf"),
    (lambda: BaselineParams(code_cycle_time=0.0), ValueError,
     "cycle time must be finite and positive, got 0.0"),
    (lambda: AVParams(r_im=0), ValueError,
     "AV parameter r_im must be finite and positive, got 0"),
    (lambda: AVParams(delay=math.nan), ValueError,
     "AV parameter delay must be finite and positive, got nan"),
    (lambda: PhysicalEstimate(3, 0, 1.0), ValueError,
     "device size is 0: the physical parameters are out of range"),
    (lambda: PhysicalEstimate(3, 1.0, math.inf), ValueError,
     "runtime is inf: the physical parameters are out of range"),
]


@pytest.mark.parametrize("make, error, text", CHECKS,
                         ids=[text for _, _, text in CHECKS])
def test_constructor_checks_keep_their_errors(make, error, text):
    with pytest.raises(error) as exc:
        make()
    assert type(exc.value) is error and str(exc.value) == text
