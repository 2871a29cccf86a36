import itertools
import random
import re

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import binshor.synth
from binshor.cli import inversion_sweep, modmult_sweep
from binshor.circuit import Circuit, Register, counts, simulate
from binshor.datafiles import load_chain, load_formula
from binshor.gf2 import (
    BinaryPoly,
    FieldSpec,
    GF2Error,
    clmod,
    clsquare,
    enumerate_irreducibles,
    field_inv,
    poly_mul_mod,
)
from binshor.linalg import BitMatrix, plu_decompose, squaring_matrix
from binshor.pipeline import (
    field_for,
    inversion_plan,
    modmult_plan,
    modulus_set_for,
)
from binshor.synth import (
    AdditionChain,
    CountSink,
    InversionPlan,
    LinearMap,
    ModmultPlan,
    emit_addition,
    emit_controlled_addition,
    emit_controlled_constants,
    emit_correction,
    emit_kmult,
    emit_over_layout,
    emit_reduction_step,
    emit_square,
    multiplier_layout,
    squaring_method,
    synth_crt_modmult,
    synth_flt_inversion,
)
from helpers import (const_mul_matrix, emit_cnot_matrix,
                     first_mismatch_by_case)

FORMULAS = {d: load_formula(d) for d in range(1, 9)}


# -- addition family -----------------------------------------------------------

def test_plain_addition():
    c = emit_over_layout(Circuit([Register("f", 3), Register("g", 3)]),
                         emit_addition)
    # f = 101, g = 011 -> g' = 110 (bit i of the int is coefficient i)
    out = simulate(c, 0b101 | (0b011 << 3))
    assert out == 0b101 | (0b110 << 3)
    assert counts(c).cnot == 3


def test_controlled_addition_inactive():
    c = emit_over_layout(
        Circuit([Register("ctrl", 1, "flag"), Register("f", 4),
                 Register("g", 4)]),
        lambda s, ctrl, f, g: emit_controlled_addition(s, ctrl[0], f, g))
    f, g = 0b1010, 0b0110
    state = 0 | (f << 1) | (g << 5)
    assert simulate(c, state) == state           # control 0: unchanged
    on = 1 | (f << 1) | (g << 5)
    assert simulate(c, on) == 1 | (f << 1) | ((g ^ f) << 5)
    assert counts(c).toffoli == 4


def test_controlled_constant_addition():
    c = emit_over_layout(
        Circuit([Register("ctrl", 1, "flag"), Register("g", 4)]),
        lambda s, ctrl, g: emit_controlled_constants(
            s, ctrl[0], BinaryPoly.from_terms(2, 0), g))
    assert counts(c).cnot == 2
    assert simulate(c, 1) == 1 | (0b0101 << 1)


# -- linear-map circuits ---------------------------------------------------------

def test_out_of_place_identity_is_plain_addition():
    c = emit_over_layout(
        Circuit([Register("g", 4), Register("f", 4)]),
        lambda s, g, f: emit_cnot_matrix(s, BitMatrix.identity(4), g, f))
    assert counts(c).cnot == 4
    out = simulate(c, 0b0011 | (0b0101 << 4))
    assert out == 0b0011 | (0b0110 << 4)


def test_out_of_place_const_mul_exhaustive():
    f3 = FieldSpec(3, BinaryPoly.from_terms(3, 1, 0))
    M = const_mul_matrix(BinaryPoly.from_terms(1), f3)
    c = emit_over_layout(Circuit([Register("g", 3), Register("f", 3)]),
                         lambda s, g, f: emit_cnot_matrix(s, M, g, f))
    assert counts(c).cnot == sum(r.bit_count() for r in M.rows) == 4
    for g in range(8):
        for f in range(8):
            out = simulate(c, g | (f << 3))
            want = f ^ poly_mul_mod(BinaryPoly(g), BinaryPoly.from_terms(1),
                                    f3.p).bits
            assert out == g | (want << 3)


def test_out_of_place_zero_matrix_empty():
    c = emit_over_layout(
        Circuit([Register("g", 3), Register("f", 3)]),
        lambda s, g, f: emit_cnot_matrix(s, BitMatrix([0] * 3, 3), g, f))
    assert len(c.gates) == 0


def test_in_place_identity_empty():
    c = emit_over_layout(Circuit([Register("f", 5)]),
                         LinearMap.of(BitMatrix.identity(5)).emit)
    assert len(c.gates) == 0


def test_in_place_squaring_exhaustive():
    f3 = FieldSpec(3, BinaryPoly.from_terms(3, 1, 0))
    S = squaring_matrix(f3, 1)
    c = emit_over_layout(Circuit([Register("f", 3)]), LinearMap.of(S).emit)
    for f in range(8):
        want = poly_mul_mod(BinaryPoly(f), BinaryPoly(f), f3.p).bits
        assert simulate(c, f) == want


def test_in_place_const_mul_oracle_gf163():
    rng = random.Random(7)
    f163 = FieldSpec.standard(163)
    h = BinaryPoly(rng.getrandbits(163) | 1)
    M = const_mul_matrix(h, f163)
    c = emit_over_layout(Circuit([Register("f", 163)]), LinearMap.of(M).emit)
    assert counts(c).cnot <= 163 * 163 - 163
    inputs = [rng.getrandbits(163) for _ in range(1000)]
    assert first_mismatch_by_case(c, inputs, lambda i, o: o == poly_mul_mod(
        BinaryPoly(inputs[i]), h, f163.p).bits) is None


def test_in_place_singular_rejected():
    from binshor.linalg import SingularMatrixError

    with pytest.raises(SingularMatrixError):
        LinearMap.of(BitMatrix([0b11, 0b11], 2))


def full_rank(n, d, seed):
    rng = random.Random(seed)
    while True:
        M = BitMatrix([rng.getrandbits(d) for _ in range(n)], d)
        if M.rank() == d:
            return M


# (n, d): square half the time, else tall (or square) with d <= n
map_shapes = st.integers(1, 24).flatmap(
    lambda n: st.tuples(st.just(n), st.just(n) | st.integers(1, n)))
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=150, deadline=None)
@given(map_shapes, seeds)
@example((163, 163), 1)
@example((163, 40), 2)
def test_linear_map_circuit_applies_M(shape, seed):
    # |f, 0> -> |M f> with f on the first d wires; reversed, back again
    M = full_rank(*shape, seed)
    n, d = M.shape
    lm = LinearMap.of(M)
    fwd, rev = Circuit(), Circuit()
    lm.emit(fwd, fwd.add_register(Register("f", n)))
    lm.emit(rev, rev.add_register(Register("f", n)), rev=True)
    rng = random.Random(seed)
    for f in [0, (1 << d) - 1] + [rng.getrandbits(d) for _ in range(20)]:
        assert simulate(fwd, f) == M.mat_vec(f)
        assert simulate(rev, M.mat_vec(f)) == f


@settings(max_examples=150, deadline=None)
@given(map_shapes, seeds)
@example((163, 163), 1)
def test_linear_map_cnot_equiv_is_its_tally(shape, seed):
    lm = LinearMap.of(full_rank(*shape, seed))
    sink = CountSink()
    lm.emit(sink, list(range(shape[0])))
    assert lm.cnot_equiv() == sink.counts.cnot + 3 * sink.counts.swap
    assert sink.counts.swap == len(lm.swaps)
    # the materialized map, gate by gate, independent of the tally
    circ = Circuit()
    lm.emit(circ, circ.add_register(Register("f", shape[0])))
    c = counts(circ)
    assert lm.cnot_equiv() == c.cnot + 3 * c.swap


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**600 - 1), st.randoms(use_true_random=False))
@example(0, random.Random(0))
def test_emit_fanin_is_the_per_bit_loop(mask, rng):
    # and the sinks' fanout, the same loop with control and targets swapped
    qubits = list(range(mask.bit_length() + 1 + rng.randrange(8)))
    rng.shuffle(qubits)
    t, wires = qubits[0], qubits[1:]
    for emit, args, pair in (("fanin", (wires, mask, t), lambda w: (w, t)),
                             ("fanout", (t, wires, mask), lambda w: (t, w))):
        circ, ref = (Circuit([Register("q", len(qubits))]) for _ in range(2))
        getattr(circ, emit)(*args)
        for j in range(mask.bit_length()):
            if (mask >> j) & 1:
                ref.cnot(*pair(wires[j]))
        assert circ.gates == ref.gates
        sink = CountSink()
        sink.x(0)
        sink.cnot(0, 1)
        sink.begin_group("g")
        before = _fields(sink.counts)
        getattr(sink, emit)(*args)
        before[COUNT_FIELDS.index("cnot")] += mask.bit_count()
        assert _fields(sink.counts) == before
        assert sink.census == {"g": 1}


@settings(max_examples=150, deadline=None)
@given(map_shapes, seeds)
@example((163, 40), 2)
def test_linear_map_top_block_needs_no_second_plu(shape, seed):
    # the top d x d block of L U factorises as (identity, top of L, U), so
    # one PLU of M gives the whole circuit
    M = full_rank(*shape, seed)
    n, d = M.shape
    lm = LinearMap.of(M)
    plu = plu_decompose(M)
    lu = plu.L @ plu.U
    top = plu_decompose(BitMatrix(lu.rows[:d], d))
    assert top.perm == tuple(range(d))
    assert (top.L.rows, top.U.rows) == (lm.L.rows, lm.U.rows)
    assert lm.L.rows == plu.L.rows[:d] and lm.U == plu.U
    assert (lm.rest is None) == (n == d)
    # rest is held by column: its transpose is the rows of L U below the top
    assert (lm.rest.transpose().rows if lm.rest else []) == lu.rows[d:]


# -- squaring -------------------------------------------------------------------

def test_square_k1_exhaustive_gf16():
    f4 = FieldSpec(4, enumerate_irreducibles(4)[0])
    c = emit_over_layout(Circuit([Register("f", 4)]),
                         lambda s, f: emit_square(s, f4, 1, f))
    for f in range(16):
        assert simulate(c, f) == poly_mul_mod(BinaryPoly(f), BinaryPoly(f),
                                              f4.p).bits


def test_square_k_equal_n_identity():
    f4 = FieldSpec(4, enumerate_irreducibles(4)[0])
    c = emit_over_layout(Circuit([Register("f", 4)]),
                         lambda s, f: emit_square(s, f4, 4, f))
    assert len(c.gates) == 0
    assert squaring_method(f4, 4)[0] == "fused"


def test_square_tie_prefers_fused():
    f4 = FieldSpec(4, enumerate_irreducibles(4)[0])
    # k = 1: fused and sequential coincide
    assert squaring_method(f4, 1)[0] == "fused"


# the squaring choice (F: fused, S: sequential) for each k the inversion of
# each standard field squares by
SQUARING_CHOICES = {
    163: "1F 3F 9S 27F 54F",
    233: "1F 2F 3F 7S 14S 29S 58F 116F",
    283: "1F 2S 3S 6S 15S 47F 141F",
    571: "1F 2F 3S 7S 14S 28S 57F 114F 285F",
}


@pytest.mark.parametrize("n", sorted(SQUARING_CHOICES))
def test_squaring_choices_are_pinned(n):
    plan = inversion_plan(n)
    asked = {abs(op[2]) % n for op in plan._schedule if op[0] == "sq"}
    asked |= {op[4] for op in plan._schedule if op[0] == "mult" and op[4]}
    want = dict((int(c[:-1]), c[-1]) for c in SQUARING_CHOICES[n].split())
    assert asked == set(want)
    got = {k: squaring_method(plan.field, k)[0][0].upper() for k in want}
    assert got == want


def test_square_k2_matches_double_square():
    f5 = FieldSpec(5, enumerate_irreducibles(5)[0])
    c = emit_over_layout(Circuit([Register("f", 5)]),
                         lambda s, f: emit_square(s, f5, 2, f))
    for f in range(32):
        w = poly_mul_mod(BinaryPoly(f), BinaryPoly(f), f5.p)
        w = poly_mul_mod(w, w, f5.p).bits
        assert simulate(c, f) == w


# -- split multipliers -----------------------------------------------------------

def test_kmult_classic_karatsuba_three_toffolis():
    m = enumerate_irreducibles(2)[0]
    c = emit_over_layout(multiplier_layout(2),
                         lambda s, *w: emit_kmult(s, FORMULAS[2], m, *w))
    assert counts(c).toffoli == 3


def test_kmult_five_term_thirteen_toffolis():
    m = enumerate_irreducibles(5)[0]
    c = emit_over_layout(multiplier_layout(5),
                         lambda s, *w: emit_kmult(s, FORMULAS[5], m, *w))
    assert counts(c).toffoli == 13


def test_kmult_zero_input_leaves_target():
    m = enumerate_irreducibles(3)[0]
    c = emit_over_layout(multiplier_layout(3),
                         lambda s, *w: emit_kmult(s, FORMULAS[3], m, *w))
    for g in range(8):
        for h in range(8):
            state = 0 | (g << 3) | (h << 6)
            assert simulate(c, state) == state


@pytest.mark.parametrize("d", (1, 2, 3))
def test_kmult_exhaustive(d):
    for m in enumerate_irreducibles(d):
        c = emit_over_layout(multiplier_layout(d),
                             lambda s, *w: emit_kmult(s, FORMULAS[d], m, *w))
        for f in range(1 << d):
            for g in range(1 << d):
                for h in (0, (1 << d) - 1):
                    state = f | (g << d) | (h << (2 * d))
                    want = h ^ poly_mul_mod(BinaryPoly(f), BinaryPoly(g),
                                            m).bits
                    assert simulate(c, state) == f | (g << d) | (want << (2 * d))


def test_kmult_degree_mismatch():
    m = enumerate_irreducibles(4)[0]
    with pytest.raises(GF2Error):
        emit_over_layout(multiplier_layout(3),
                         lambda s, *w: emit_kmult(s, FORMULAS[3], m, *w))


# -- correction circuit ----------------------------------------------------------

def correction_layout(omega, n):
    return Circuit([Register("f", n), Register("g", n),
                    Register("t", omega, "output")])


def test_correction_omega1_single_toffoli():
    c = emit_over_layout(correction_layout(1, 5),
                         lambda s, *w: emit_correction(s, 1, 5, *w))
    cc = counts(c)
    assert cc.toffoli == 1 and cc.cnot == 0
    # computes c_{2n-2} = f_{n-1} g_{n-1}
    n = 5
    state = (1 << (n - 1)) | (1 << (2 * n - 1))
    assert simulate(c, state) == state | (1 << (2 * n))


def test_correction_omega7_counts():
    c = counts(emit_over_layout(correction_layout(7, 9),
                                lambda s, *w: emit_correction(s, 7, 9, *w)))
    assert c.toffoli == 19
    assert c.cnot == 48


@pytest.mark.parametrize("omega", (1, 2, 3, 4))
def test_correction_counts_formulas(omega):
    c = counts(emit_over_layout(
        correction_layout(omega, 6),
        lambda s, *w: emit_correction(s, omega, 6, *w)))
    assert c.toffoli == omega + omega * omega // 4
    want_cnot = 4 * (omega - 1) + omega * omega // 2 if omega > 1 else 0
    assert c.cnot == want_cnot


def test_correction_preserves_target_exhaustive():
    n, omega = 6, 3
    circ = emit_over_layout(correction_layout(omega, n),
                            lambda s, *w: emit_correction(s, omega, n, *w))

    def brute(f, g):
        out = 0
        for k in range(omega):
            acc = 0
            for i in range(n - 1 - k, n):
                acc ^= ((f >> i) & (g >> i)) & 1
            for i in range(n):
                j = 2 * n - 2 - k - i
                if 0 <= j < i < n:
                    acc ^= ((((f >> i) ^ (f >> j)) & ((g >> i) ^ (g >> j)))
                            & 1)
            out |= acc << (omega - 1 - k)
        return out

    for f in range(64):
        for g in range(64):
            for t in (0, 5, 7):
                state = f | (g << n) | (t << (2 * n))
                want = f | (g << n) | ((t ^ brute(f, g)) << (2 * n))
                assert simulate(circ, state) == want


def test_correction_rejects_omega_zero():
    with pytest.raises(GF2Error):
        emit_correction(CountSink(), 0, 4, range(4), range(4, 8), [])


# -- CRT modular multiplication ---------------------------------------------------

def random_triples(rng, n, count):
    """``count`` random (f, g, h) multiplier inputs."""
    return [(rng.getrandbits(n), rng.getrandbits(n), rng.getrandbits(n))
            for _ in range(count)]


def exhaustive_modmult(n):
    """Every (f, g, h) for 3n <= 12, else 4000 random ones."""
    plan = modmult_plan(n)
    cases = (list(itertools.product(range(1 << n), repeat=3)) if 3 * n <= 12
             else random_triples(random.Random(n), n, 4000))
    assert modmult_sweep(synth_crt_modmult(plan), plan.layout(),
                         field_for(n).p, cases) is None


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_modmult_exhaustive_small(n):
    exhaustive_modmult(n)


def test_modmult_sampled_n8_with_correction():
    # the toy n=8 modulus set exercises the omega = 1 correction branch
    assert modulus_set_for(8).omega(8) == 1
    exhaustive_modmult(8)


def test_modmult_sampled_n9_with_recursion():
    # a degree-9 factor forces one recursive multiplier call
    field = field_for(9)
    from binshor.datafiles import load_inner_modulus_set
    from binshor.gf2 import ModulusSet

    # the degree-9 factor must be a different irreducible than the field's
    base = [(enumerate_irreducibles(9)[1], 1), (BinaryPoly(0b10), 1),
            (BinaryPoly(0b11), 1), (enumerate_irreducibles(2)[0], 1),
            (enumerate_irreducibles(3)[0], 1), (enumerate_irreducibles(3)[1], 1)]
    ms = ModulusSet(tuple(base))
    plan = ModmultPlan(9, field.p, ms, FORMULAS,
                       inner_sets=load_inner_modulus_set)
    cases = random_triples(random.Random(99), 9, 2000)
    assert modmult_sweep(synth_crt_modmult(plan), plan.layout(), field.p,
                         cases) is None


def test_modmult_sampled_n10_with_squared_quintic_factor():
    # a (quintic)^2 factor of degree 10 drives the recursive multiplier with
    # a non-irreducible inner modulus, as the largest field's set does
    field = field_for(10)
    from binshor.datafiles import load_inner_modulus_set
    from binshor.gf2 import ModulusSet

    base = [(enumerate_irreducibles(5)[0], 2), (BinaryPoly(0b10), 1),
            (BinaryPoly(0b11), 1), (enumerate_irreducibles(2)[0], 1),
            (enumerate_irreducibles(3)[0], 1), (enumerate_irreducibles(3)[1], 1)]
    ms = ModulusSet(tuple(base))
    assert ms.omega(10) == 0
    plan = ModmultPlan(10, field.p, ms, FORMULAS,
                       inner_sets=load_inner_modulus_set)
    # the inner stage for the degree-10 factor costs 39 residue products
    deg10 = next(f for f in plan.factors if f.d == 10)
    assert deg10.inner is not None
    assert deg10.inner.counts().toffoli == 39
    cases = random_triples(random.Random(10), 10, 1500)
    assert modmult_sweep(synth_crt_modmult(plan), plan.layout(), field.p,
                         cases) is None


def test_modmult_missing_formula_errors():
    field = field_for(4)
    partial = {d: FORMULAS[d] for d in (1, 2)}  # no cubic formula
    with pytest.raises(KeyError):
        ModmultPlan(4, field.p, modulus_set_for(4), partial)


def test_modmult_table_counts_exact_163():
    c = modmult_plan(163).counts()
    assert c.toffoli == 999
    assert c.swap == 300


COUNT_FIELDS = ("not_", "cnot", "swap", "toffoli", "ccx_uncompute")


def _fields(c):
    return [getattr(c, k) for k in COUNT_FIELDS]


def test_modmult_stream_equals_circuit_counts():
    plan = modmult_plan(5)
    circ = synth_crt_modmult(plan)
    assert _fields(counts(circ)) == _fields(plan.counts())


class TallySink:
    """Records every emitted gate kind and group one by one: the reference
    census.  Not a CountSink, so keyed blocks are emitted in full, and a
    reversed block is reversed in place, as in a Circuit, and its groups
    are dropped."""

    def __init__(self):
        self.gates = []   # count field of each gate
        self.groups = []  # (label, units), appended when a group opens

    @property
    def counts(self):
        return {k: self.gates.count(k) for k in COUNT_FIELDS}

    @property
    def census(self):
        census = {}
        for label, units in self.groups:
            census[label] = census.get(label, 0) + units
        return census

    def x(self, t):
        self.gates.append("not_")

    def cnot(self, c, t):
        self.gates.append("cnot")

    def swap(self, a, b):
        self.gates.append("swap")

    def ccx(self, a, b, t):
        self.gates.append("toffoli")

    def ccxu(self, a, b, t):
        self.gates.append("ccx_uncompute")

    def fanin(self, wires, mask, t):
        self.gates += ["cnot"] * mask.bit_count()

    def fanout(self, c, wires, mask):
        self.gates += ["cnot"] * mask.bit_count()

    def fanin_columns(self, src, cols, dst):
        self.gates += ["cnot"] * sum(c.bit_count() for c in cols)

    def begin_group(self, label, units=1):
        self.groups.append((label, units))

    def end_group(self):
        pass

    def block(self, build, rev=False, key=None):
        start, first_group = len(self.gates), len(self.groups)
        build(self)
        if rev:
            self.gates[start:] = self.gates[start:][::-1]
            del self.groups[first_group:]


def _wires(n, k):
    return [list(range(i * n, (i + 1) * n)) for i in range(k)]


@pytest.mark.parametrize("n", [5, 163, 571])
def test_keyed_modmult_counts_equal_full_stream(n):
    # n = 163 and 571 have inner CRT plans sharing the outer sink
    plan = modmult_plan(n)
    tally, cs = TallySink(), CountSink()
    plan.emit(tally, *_wires(n, 3))
    plan.emit(cs, *_wires(n, 3))
    assert [tally.counts[k] for k in COUNT_FIELDS] == _fields(plan.counts())
    assert _fields(cs.counts) == _fields(plan.counts())
    assert tally.census == cs.census


def test_keyed_inversion_counts_equal_full_stream():
    plan = inversion_plan(163)
    assert any(squaring_method(plan.field, op[2] % 163)[2] > 1
               for op in plan._schedule if op[0] == "sq")
    n, regs = plan.n, plan.num_registers
    tally, cs = TallySink(), CountSink()
    for sink in (tally, cs):
        plan.emit(sink, list(range(n)), list(range(n, regs * n)))
    assert [tally.counts[k] for k in COUNT_FIELDS] == _fields(plan.counts())
    assert _fields(cs.counts) == _fields(plan.counts())
    assert tally.census == cs.census


@pytest.mark.parametrize("n, a, b", [(2, 0, 1), (3, 1, 1), (4, 0, 1),
                                     (5, 2, 3), (8, 1, 1)])
def test_reversed_blocks_drop_groups_in_every_sink(n, a, b):
    # the reversed inversions of a point addition add no census groups,
    # whether the sink reverses them (TallySink) or not (CountSink)
    from binshor.ecc import synth_ecpointadd
    from binshor.pipeline import pointadd_plan

    plan = pointadd_plan(n, a, b)
    tally, cs = TallySink(), CountSink()
    for sink in (tally, cs):
        emit_over_layout(plan.layout(), plan.emit, sink)
    circ = synth_ecpointadd(plan)
    assert cs.census == tally.census
    assert _fields(cs.counts) == [tally.counts[k] for k in COUNT_FIELDS]
    assert _fields(cs.counts) == _fields(counts(circ))


def test_numpy_stays_out_of_the_package(tmp_path):
    # counting, emission, both oracle sweeps and the estimates, in one process
    import subprocess
    import sys

    emitted = str(tmp_path / "modmult163.txt")
    commands = [["validate", "--field", "5"],
                ["synth", "--field", "163", "--emit", emitted,
                 "--emit-cap", "1000"],
                ["validate", "--field", "163", "--circuit", emitted,
                 "--samples", "20"],
                ["estimate", "--field", "163"]]
    code = ("import contextlib, io, sys\n"
            "from binshor.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main(argv) for argv in {commands!r}]\n"
            "print(codes, 'numpy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[0, 0, 0, 0] False\n"


def reduction_pairs_reference(Ma, da, Mb, db):
    """(control, target) CNOT pairs of a reduction step by the pair-list
    algorithm: both pair lists, with the pairs they share removed."""

    def pairs(M, d):
        out = []
        if M is None:
            return out
        for i, row in enumerate(M.rows):
            for j in range(M.ncols):
                if (row >> j) & 1:
                    out.append((d + j, i))
        return out

    a, b = pairs(Ma, da), pairs(Mb, db)
    common = set(a) & set(b)
    return ([p for p in a if p not in common]
            + [p for p in b if p not in common])


@st.composite
def reduction_sides(draw, n):
    d = draw(st.integers(1, n - 1))
    if draw(st.booleans()):
        return None, 0
    rows = draw(st.lists(st.integers(0, (1 << (n - d)) - 1), min_size=d,
                         max_size=d))
    return BitMatrix(rows, n - d), d


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 24).flatmap(
    lambda n: st.tuples(st.just(n), reduction_sides(n), reduction_sides(n))))
def test_reduction_step_masks_match_pair_lists(case):
    n, (Ma, da), (Mb, db) = case
    wires = [100 + w for w in range(n)]
    circ = Circuit([Register("q", 100 + n)])
    emit_reduction_step(circ, Ma, da, Mb, db, wires)
    pairs = reduction_pairs_reference(Ma, da, Mb, db)
    assert circ.gates == [("CNOT", wires[c], wires[t]) for c, t in pairs]


# -- addition chains and inversion -------------------------------------------------

def test_chain_properties_shipped():
    expect = {163: (14, 9), 233: (16, 10), 283: (18, 11), 571: (20, 12)}
    for n, (lt, l) in expect.items():
        ch = load_chain(n)
        assert ch.l_tilde == lt
        assert ch.l == l
        assert ch.r_factor == 5


def test_chain_validation_rejects_bad_chains():
    with pytest.raises(GF2Error):
        AdditionChain((1, 2, 5))       # 5 is not a sum of live terms
    with pytest.raises(GF2Error):
        AdditionChain((1, 2, 3, 5, 4)) # clearing a dead term
    with pytest.raises(GF2Error):
        AdditionChain((2, 3))          # must start at 1
    # clearing steps that no clearing schedule can run
    for terms, message in (
            ((1, 2, 3, 1, 5), "cannot clear input term 1"),
            ((1, 2, 2), "chain target 2 is cleared")):
        with pytest.raises(GF2Error, match=message):
            AdditionChain(terms)


def test_every_shipped_chain_loads():
    from binshor.datafiles import _read

    for raw in _read("chains.txt").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            n = int(line.split()[0])
            assert load_chain(n).target == n - 1


@st.composite
def clearing_chains(draw, max_target=40):
    """Chain terms from 1 with compute and clearing steps.  A clearing step
    mostly takes a term that is neither 1 nor the largest so far; one in
    eight may take any live term, so some chains are rejected."""
    terms, live = [1], {1}
    for _ in range(draw(st.integers(1, 14))):
        prev = terms[-1]
        clears = sorted(v for v in live if v <= prev)
        if draw(st.integers(0, 7)):
            clears = [v for v in clears if 1 < v < max(terms)]
        if clears and draw(st.booleans()):
            v = draw(st.sampled_from(clears))
            live.discard(v)
        else:
            sums = sorted({a + b for a in live for b in live
                           if prev < a + b <= max_target} - live)
            if not sums:
                break
            v = draw(st.sampled_from(sums))
            live.add(v)
        terms.append(v)
    return tuple(terms)


def clears_away_from_offset_0(plan) -> bool:
    """Whether a clearing product of ``plan._schedule`` targets a register
    squared away from offset 0 since its term was made: the known defect
    (SCHEDULE_DEFECT), after which the cleared register is left dirty."""
    offset = [0] * plan.num_registers
    for op in plan._schedule:
        if op[0] == "sq":
            offset[op[1]] += op[2]
        elif op[0] == "mult" and op[5]:
            if offset[op[3]] % plan.n:
                return True
            offset[op[3]] = 0
    return False


def test_known_defect_is_the_offset_of_a_cleared_register():
    # the predicate flags exactly the shipped plans of the strict xfails
    for n in (3, 4, 5, 8, 16, 163, 233, 283, 571):
        for clearing in (True, False):
            assert (clears_away_from_offset_0(inversion_plan(n, clearing))
                    == (clearing and n in (283, 571)))


@settings(max_examples=300, deadline=None)
@given(clearing_chains(), st.integers(1, (1 << 41) - 1))
# 4 = 2 + 2 and 2 is cleared before 4 is: the clearing product of 4 fails
@example((1, 2, 3, 4, 2, 7, 4), 1)
# 3 = 1 + 2 is cleared at offset 0 and checked by value
@example((1, 2, 3, 6, 3, 12, 13), 0x1a2b)
# 3 = 1 + 2 is squared to offset 2 to make 5, then cleared: the known defect
@example((1, 2, 3, 5, 10, 3, 20, 25), 0x2b5a93c)
def test_every_accepted_clearing_chain_plans_or_names_a_cleared_factor(
        terms, bits):
    try:
        chain = AdditionChain(terms)
    except GF2Error:
        assume(False)
    assume(chain.l_tilde > chain.l)
    n = chain.target + 1
    field = field_for(n)
    try:
        plan = InversionPlan(field, chain, modmult=None, clearing=True)
    except GF2Error as e:
        # a clearing product multiplies the factors its term was made from,
        # so a chain that cleared one of them first cannot be scheduled
        m = re.fullmatch(r"term (\d+) not live", str(e))
        assert m, e
        assert int(m[1]) in [v for u, v in zip(terms, terms[1:]) if v <= u]
        return
    assert plan.mult_calls == chain.l_tilde
    f = BinaryPoly(bits % ((1 << n) - 1) + 1)
    regs = run_schedule(plan, f)
    assert regs[0] == f
    if not clears_away_from_offset_0(plan):
        assert regs[plan.result_slot] == field_inv(f, field)
        assert regs[plan.temp_slot] == BinaryPoly(0)


def test_inversion_exhaustive_n5_both_variants():
    for clearing in (True, False):
        plan = inversion_plan(5, clearing)
        assert inversion_sweep(plan, synth_flt_inversion(plan),
                               list(range(1, 32))) is None


def run_schedule(plan, f: BinaryPoly) -> list:
    """The registers after ``plan._schedule`` on input f, by field
    arithmetic alone: each op as the value it XORs in or the power it
    raises a register to."""
    p, n = plan.field.p, plan.n
    regs = [BinaryPoly(0)] * plan.num_registers
    regs[0] = f

    def sq(v, k):
        bits = v.bits
        for _ in range(k % n):
            bits = clmod(clsquare(bits), p.bits)
        return BinaryPoly(bits)

    for op in plan._schedule:
        if op[0] == "copy":
            regs[op[2]] = regs[op[2]] + regs[op[1]]
        elif op[0] == "sq":
            regs[op[1]] = sq(regs[op[1]], op[2])
        else:  # a product; with k > 0, b is borrowed to hold a^(2^k)
            _, a, b, dst, k, _ = op
            if k:
                regs[b] = sq(regs[b] + regs[a], k)
            regs[dst] = regs[dst] + poly_mul_mod(regs[a], regs[b], p)
            if k:
                regs[b] = sq(regs[b], -k) + regs[a]
    return regs


# the clearing products at n = 283 (terms 9 and 45) and n = 571 (terms 29
# and 171) multiply an added term's factors at their offsets, but the
# cleared register was squared away from offset 0 after it was made, so the
# product does not cancel it and the slot is reused dirty
SCHEDULE_DEFECT = pytest.mark.xfail(
    strict=True, reason="mult() in InversionPlan._plan_schedule squares only "
    "a doubled term back to offset 0 before its clearing product")


@pytest.mark.parametrize("n, clearing", [
    pytest.param(n, c, marks=SCHEDULE_DEFECT if c and n in (283, 571) else ())
    for n in (3, 4, 5, 8, 16, 163, 233, 283, 571) for c in (True, False)])
def test_inversion_schedule_computes_inverse(n, clearing):
    plan = inversion_plan(n, clearing)
    field = field_for(n)
    rng = random.Random(n)
    for f in (BinaryPoly(rng.getrandbits(n) | 1) for _ in range(2)):
        regs = run_schedule(plan, f)
        assert regs[0] == f
        assert regs[plan.result_slot] == field_inv(f, field)
        assert regs[plan.temp_slot] == BinaryPoly(0)
        if n <= 8:  # the interpreter agrees with the gates, register by register
            out = simulate(synth_flt_inversion(plan), f.bits)
            assert out == sum(r.bits << (i * n) for i, r in enumerate(regs))


@st.composite
def increasing_chains(draw, max_target=80):
    """Strictly increasing addition chains from 1 to a target <= max_target."""
    terms = [1]
    for _ in range(draw(st.integers(1, 12))):
        a = draw(st.sampled_from(terms))
        bs = [b for b in terms if terms[-1] < a + b <= max_target]
        if not bs:
            break
        terms.append(a + draw(st.sampled_from(bs)))
    return AdditionChain(tuple(terms))


@settings(max_examples=300, deadline=None)
@given(chain=increasing_chains(), data=st.data())
def test_inversion_schedule_inverts_along_random_chains(chain, data):
    # the scheduler beyond the shipped chains: every term it multiplies is
    # live at the right offset, and the final squaring lands on f^-1
    n = chain.target + 1
    field = field_for(n)
    plan = InversionPlan(field, chain, modmult=None, clearing=False)
    f = BinaryPoly(data.draw(st.integers(1, (1 << n) - 1)))
    regs = run_schedule(plan, f)
    assert regs[0] == f
    assert regs[plan.result_slot] == field_inv(f, field)
    assert regs[plan.temp_slot] == BinaryPoly(0)
    assert plan.mult_calls == chain.l


def test_inversion_mult_counts_and_identity():
    # Toffoli(inversion) = (number of modmults) x Toffoli(modmult), exactly
    for n in (163, 233, 283, 571):
        mm = modmult_plan(n).counts()
        for clearing, mults in ((True, {163: 14, 233: 16, 283: 18, 571: 20}),
                                (False, {163: 9, 233: 10, 283: 11, 571: 12})):
            plan = inversion_plan(n, clearing)
            assert plan.mult_calls == mults[n]
            assert plan.counts().toffoli == plan.mult_calls * mm.toffoli


def test_inversion_counts_emitted_once(monkeypatch):
    plan = InversionPlan(field_for(8), load_chain(8), modmult_plan(8))
    first = plan.counts()

    def no_emission(*args, **kwargs):
        raise AssertionError("counts() emitted again")

    monkeypatch.setattr(binshor.synth.LinearMap, "emit", no_emission)
    monkeypatch.setattr(plan.modmult, "emit", no_emission)
    assert plan.counts() == first


def test_edited_counts_change_no_later_count(monkeypatch):
    # each count is a fresh record: editing one changes neither the plan's
    # next count nor the count of a plan whose block contains it
    from binshor.pipeline import pointadd_plan
    from binshor.shor import stream_pointadd_counts

    mm, inv, pa = modmult_plan(8), inversion_plan(8), pointadd_plan(8)
    counters = (mm.counts, inv.counts,
                lambda: stream_pointadd_counts(pa).counts)
    monkeypatch.setattr(binshor.synth, "TALLIES", {})
    want = [count().as_dict() for count in counters]
    monkeypatch.setattr(binshor.synth, "TALLIES", {})
    for count in counters:   # each edit lands before the enclosing emission
        edited = count()
        edited.toffoli += 1000
        edited.qubits_total += 1
    assert [count().as_dict() for count in counters] == want


def test_kmult_block_built_once_per_formula_and_factor(monkeypatch):
    # n = 571: 511 residue products over 73 distinct (formula, factor) pairs
    block, emit_kmult = CountSink.block, binshor.synth.emit_kmult
    products, builds = [], []

    def count_products(sink, *args):
        products.append(args[:2])
        emit_kmult(sink, *args)

    def count_builds(sink, build, rev=False, key=None):
        if isinstance(key, tuple) and key[0] == "kmult":
            block(sink, lambda s: (builds.append(key), build(s)),
                  rev=rev, key=key)
        else:
            block(sink, build, rev=rev, key=key)

    monkeypatch.setattr(binshor.synth, "TALLIES", {})
    monkeypatch.setattr(binshor.synth, "emit_kmult", count_products)
    monkeypatch.setattr(CountSink, "block", count_builds)
    modmult_plan(571).counts()
    assert len(products) == 511
    assert len(builds) == len(set(builds)) == 73


def test_inversion_clearing_uses_5n_ancilla():
    for n in (163, 233, 283, 571):
        assert inversion_plan(n, True).num_registers == 6  # input + 5n


def test_inversion_stream_counts_match_circuit():
    plan = inversion_plan(5)
    circ = synth_flt_inversion(plan)
    cc = counts(circ)
    sc = plan.counts()
    assert (cc.cnot, cc.toffoli, cc.swap) == (sc.cnot, sc.toffoli, sc.swap)


def test_modmult_reverse_restores_target():
    plan = modmult_plan(4)
    circ = synth_crt_modmult(plan)
    rev = circ.reversed()
    rng = random.Random(12)
    for _ in range(50):
        v = rng.getrandbits(12)
        assert simulate(rev, simulate(circ, v)) == v


EMITTED_SHA256 = {
    "modmult-163":
        "d5e81f2ef0fd654643801e4a7699857e00e513a59068ef166abad5381db7f2f6",
    "inversion-8":
        "894a82d60d3ac2b6d162a25b08ef83ddd885575b195a8b2d4c8bc848a3030e47",
    # the point additions with every MCX lowered onto their ladder register
    "ecpointadd-4":
        "4aa8f8706715f23c308412b7149469c6ca41324bc560edc933ef7716f365cb95",
    "ecpointadd-5":
        "547bc10627f382c2ce324c31e3fc95a4deff8d651f51bf5c0e89372fa02165cb",
}


@pytest.mark.parametrize("name", EMITTED_SHA256)
def test_emitted_bytes_are_pinned(name):
    # pins gate order, which a count and the register/gate-count checks of
    # an emitted file do not see
    import hashlib

    from binshor.circuit import serialize
    from binshor.ecc import synth_ecpointadd
    from binshor.pipeline import pointadd_plan

    build = {
        "modmult-163": lambda: synth_crt_modmult(modmult_plan(163)),
        "inversion-8": lambda: synth_flt_inversion(inversion_plan(8)),
        "ecpointadd-4": lambda: synth_ecpointadd(pointadd_plan(4)),
        "ecpointadd-5": lambda: synth_ecpointadd(pointadd_plan(5)),
    }[name]
    text = serialize(build())
    assert hashlib.sha256(text.encode()).hexdigest() == EMITTED_SHA256[name]


@pytest.mark.parametrize("n", [4, 5, 163])
def test_counts_and_circuits_read_the_plan_layout(n, monkeypatch):
    # every plan's registers are named once, in its layout(): its counts
    # report the layout's qubits and ancillas, and its synth_* circuit has
    # its registers.  At n = 163 the circuits are built with emission
    # switched off, so only their registers are compared.
    from binshor.ecc import PointAddPlan, synth_ecpointadd
    from binshor.pipeline import pointadd_plan
    from binshor.shor import stream_pointadd_counts

    mm, pa = modmult_plan(n), pointadd_plan(n)
    cases = [(mm, mm.counts(), synth_crt_modmult),
             (pa, stream_pointadd_counts(pa).counts, synth_ecpointadd)]
    for clearing in (True, False):
        inv = inversion_plan(n, clearing)
        cases.append((inv, inv.counts(), synth_flt_inversion))
    if n == 163:
        for owner in (ModmultPlan, InversionPlan, PointAddPlan):
            monkeypatch.setattr(owner, "emit", lambda *args: None)
    for plan, tally, synth in cases:
        layout = plan.layout()
        widths = counts(layout)
        assert tally.qubits_total == widths.qubits_total == layout.width
        assert tally.ancilla_clean == widths.ancilla_clean
        assert tally.ancilla_garbage == widths.ancilla_garbage
        assert synth(plan).registers == layout.registers


def test_writer_holds_at_most_its_largest_reversed_block():
    # while the n = 163 multiplier (112,903 gates) is written, the writer
    # holds at most the flush count plus the largest reversed block: the
    # gates it holds only grow between writes, so a write sees the peak
    import io

    from binshor import circuit
    from binshor.circuit import CircuitWriter

    class Held(CircuitWriter):
        peak = 0

        def flush(self):
            self.peak = max(self.peak, len(self.gates))
            super().flush()

    class Reversed(Circuit):
        largest = 0

        def block(self, build, rev=False, key=None):
            start = len(self.gates)
            super().block(build, rev, key)
            if rev:
                self.largest = max(self.largest, len(self.gates) - start)

    plan = modmult_plan(163)
    writer = Held(plan.layout().registers, io.StringIO())
    emit_over_layout(plan.layout(), plan.emit, writer)
    writer.flush()
    whole = emit_over_layout(Reversed(plan.layout().registers), plan.emit)
    assert writer.written == len(whole.gates) == 112_903
    assert writer.peak <= circuit._FLUSH_GATES + whole.largest
    assert writer.peak < len(whole.gates) // 20
