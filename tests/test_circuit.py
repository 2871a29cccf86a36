import io
import os
import random
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import binshor.circuit as circuit_mod
from binshor.circuit import (
    REG_KINDS,
    Circuit,
    CircuitWriter,
    ParseError,
    Register,
    counts,
    emit_mcx_lowered,
    pack_planes,
    parse,
    serialize,
    simulate,
    simulate_planes,
)
from binshor.gf2 import GF2Error
from binshor.linalg import BitMatrix
from binshor.synth import CountSink, emit_addition, emit_over_layout
from helpers import emit_cnot_matrix, unpack_planes
from test_synth import TallySink


def two_qubit():
    c = Circuit([Register("q", 2)])
    return c


def test_simulate_empty_identity():
    c = Circuit([Register("q", 3)])
    assert simulate(c, "101") == "101"


def test_simulate_cnot():
    c = two_qubit()
    c.cnot(0, 1)
    assert simulate(c, "10") == "11"
    assert simulate(c, "01") == "01"


def test_simulate_open_control_ccx():
    # open-control Toffoli flips the target when both controls are 0
    c = Circuit([Register("q", 3)])
    emit_mcx_lowered(c, [(0, False), (1, False)], 2, [])
    assert simulate(c, "001") == "000"
    assert simulate(c, "000") == "001"
    assert simulate(c, "100") == "100"


def test_simulate_length_mismatch():
    c = two_qubit()
    with pytest.raises(GF2Error):
        simulate(c, "1")


def test_reverse_empty():
    c = Circuit([Register("q", 1)])
    assert c.reversed().gates == []


def test_reverse_cnot_chain():
    c = Circuit([Register("q", 3)])
    c.cnot(0, 1)
    c.cnot(1, 2)
    r = c.reversed()
    assert r.gates == [("CNOT", 1, 2), ("CNOT", 0, 1)]


def test_reverse_roundtrip_random():
    rng = random.Random(0)
    c = Circuit([Register("q", 6)])
    for _ in range(60):
        kind = rng.choice(["x", "cnot", "swap", "ccx", "mcx"])
        qs = rng.sample(range(6), 3)
        if kind == "x":
            c.x(qs[0])
        elif kind == "cnot":
            c.cnot(qs[0], qs[1])
        elif kind == "swap":
            c.swap(qs[0], qs[1])
        elif kind == "ccx":
            c.ccx(*qs)
        else:
            emit_mcx_lowered(c, [(qs[0], rng.random() < 0.5), (qs[1], True)],
                             qs[2], [])
    r = c.reversed()
    for v in range(0, 64, 7):
        assert simulate(r, simulate(c, v)) == v


def test_lower_mcx_two_controls():
    c = Circuit([Register("q", 3)])
    emit_mcx_lowered(c, [(0, True), (1, True)], 2, [])
    cc = counts(c)
    assert cc.toffoli == 1 and cc.ccx_uncompute == 0
    assert c.gates == [("CCX", 0, 1, 2)]  # no ancillas needed


def test_lower_mcx_five_controls():
    c = Circuit([Register("q", 6), Register("anc", 3, "ancilla-clean")])
    emit_mcx_lowered(c, [(i, True) for i in range(5)], 5, c.reg("anc"))
    cc = counts(c)
    assert cc.toffoli == 4          # k-1 Toffolis counted
    assert cc.ancilla_clean == 3    # k-2: the ladder's ANDs of c0..c3
    # exhaustive truth-table equivalence on the original qubits
    for v in range(64):
        got = simulate(c, v)
        anc = got >> 6
        assert anc == 0             # ancillas restored
        want = v ^ (1 << 5) if (v & 0b11111) == 0b11111 else v
        assert got & 63 == want


def test_lower_mcx_needs_k_minus_2_ancillas():
    c = Circuit([Register("q", 8)])
    with pytest.raises(GF2Error, match="5 controls need 3 ancillas, got 2"):
        emit_mcx_lowered(c, [(i, True) for i in range(5)], 5, [6, 7])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8).flatmap(lambda k: st.tuples(
    st.lists(st.booleans(), min_size=k, max_size=k),
    st.permutations(range(k + 1 + max(k - 2, 0))))))
def test_emit_mcx_lowered_matches_its_truth_table(case):
    # k controls of drawn polarities, the target and k-2 ancillas on drawn
    # wires; every control assignment with the target at 0 and at 1
    closed, wires = case
    k = len(closed)
    ctrl, t, anc = wires[:k], wires[k], wires[k + 1:]
    circ = Circuit([Register("q", len(wires))])
    emit_mcx_lowered(circ, list(zip(ctrl, closed)), t, anc)
    inputs = [sum(((a >> i) & 1) << q for i, q in enumerate(ctrl)) | (b << t)
              for a in range(1 << k) for b in (0, 1)]
    outs = unpack_planes(simulate_planes(circ, pack_planes(inputs, len(wires))),
                         len(inputs))
    assert outs == [simulate(circ, v) for v in inputs]
    for v, out in zip(inputs, outs):
        fire = all((v >> q) & 1 == c for q, c in zip(ctrl, closed))
        assert out == v ^ (fire << t)  # controls and ancillas unchanged
    sink = CountSink()
    emit_mcx_lowered(sink, list(zip(ctrl, closed)), t, anc)
    opens = closed.count(False)
    want = {0: (0, 0, 0, 1), 1: (0, 0, 1, 2 * opens)}.get(
        k, (k - 1, k - 2, 0, 2 * opens))
    c = sink.counts
    assert (c.toffoli, c.ccx_uncompute, c.cnot, c.not_) == want
    assert c.swap == 0


def test_lower_mcx_163_controls():
    c = Circuit([Register("q", 164), Register("anc", 161, "ancilla-clean")])
    emit_mcx_lowered(c, [(i, True) for i in range(163)], 163, c.reg("anc"))
    cc = counts(c)
    assert (cc.toffoli, cc.ccx_uncompute) == (162, 161)


def test_counts_addition_circuit():
    c = emit_over_layout(Circuit([Register("f", 7), Register("g", 7)]),
                         emit_addition)
    assert counts(c).cnot == 7


def test_counts_equality_test_lowered():
    from binshor.ecc import emit_equality_test

    n = 9
    cc = counts(emit_over_layout(
        Circuit([Register("a", n), Register("b", n),
                 Register("flag", 1, "flag"),
                 Register("anc", n - 2, "ancilla-clean")]),
        lambda s, a, b, t, anc: emit_equality_test(s, a, b, t[0], anc)))
    assert cc.cnot == 2 * n
    assert cc.toffoli == n - 1
    assert cc.ancilla_clean == n - 2  # the ladder of its n-control NOT


def test_counts_empty():
    c = Circuit([Register("q", 2)])
    cc = counts(c)
    assert (cc.cnot, cc.toffoli, cc.swap, cc.not_) == (0, 0, 0, 0)


def test_mcx_is_not_a_gate_kind():
    # a multi-controlled NOT exists only lowered: a circuit cannot store one
    # and the text format has no line for one
    assert not hasattr(Circuit, "mcx")
    with pytest.raises(ParseError) as e:
        parse("reg q 4 input\nMCX +q[0] -q[1] +q[2] q[3]\n")
    assert str(e.value) == "line 2: unknown gate 'MCX'"
    c = Circuit([Register("q", 4)])
    c.gates.append(("MCX", (1, 2, 3), 3))
    with pytest.raises(GF2Error, match="unknown gate kind MCX"):
        simulate(c, 0)


def test_counts_additivity():
    a = Circuit([Register("q", 3)])
    a.cnot(0, 1)
    a.ccx(0, 1, 2)
    b = Circuit([Register("q", 3)])
    b.swap(0, 2)
    b.x(1)
    merged = Circuit([Register("q", 3)])
    merged.extend(a)
    merged.extend(b)
    ca, cb, cm = counts(a), counts(b), counts(merged)
    assert (cm.cnot, cm.toffoli, cm.swap, cm.not_) == (
        ca.cnot + cb.cnot, ca.toffoli + cb.toffoli, ca.swap + cb.swap,
        ca.not_ + cb.not_)


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_chk_fast_path_raises_like_the_general_check(arity):
    # one to three qubits take the fast path; every tuple over -1..3 at
    # width 3 must pass or raise exactly as the general check says
    from itertools import product

    for qs in product(range(-1, 4), repeat=arity):
        if len(set(qs)) != len(qs):
            want = f"duplicate qubit in gate: {qs}"
        else:
            want = next((f"qubit {q} out of range (width 3)"
                         for q in qs if not 0 <= q < 3), None)
        try:
            Circuit([Register("q", 3)])._chk(*qs)
            got = None
        except GF2Error as e:
            got = str(e)
        assert got == want, qs


def test_serialize_format():
    c = Circuit([Register("q", 8)])
    c.cnot(3, 7)
    assert "CNOT q[3] q[7]" in serialize(c)


def test_serialize_roundtrip_pointadd():
    from binshor.pipeline import pointadd_plan
    from binshor.ecc import synth_ecpointadd

    circ = synth_ecpointadd(pointadd_plan(4, 0, 1))
    text = serialize(circ)
    assert parse(text) == circ


def test_parse_checks_gates_against_registers_so_far():
    # the width a gate is checked against is that of the registers above it
    assert parse("reg a 2 input\nreg b 3 output\nCNOT q[0] q[4]\n").width == 5
    for text, message in (
            ("reg a 2 input\nCNOT q[0] q[2]\nreg b 3 output\n",
             "qubit 2 out of range (width 2)"),
            ("reg a 2 input\nreg b 3 output\nCCX q[1] q[4] q[5]\n",
             "qubit 5 out of range (width 5)"),
            ("reg a 2 input\nCNOT q[1] q[1]\n", "duplicate qubit"),
            ("reg a 2 input\nreg a 1 output\n", "duplicate register")):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert message in str(e.value.__cause__)


def test_parse_error_line_number():
    with pytest.raises(ParseError) as e:
        parse("reg q 2 input\nCNOT q[0] nonsense\n")
    assert "line 2" in str(e.value)


def test_plane_simulation_matches_single():
    rng = random.Random(1)
    c = Circuit([Register("q", 8)])
    for _ in range(40):
        qs = rng.sample(range(8), 3)
        c.ccx(*qs)
        c.cnot(qs[0], qs[1])
    inputs = [rng.getrandbits(8) for _ in range(130)]
    planes = pack_planes(inputs, 8)
    outs = unpack_planes(simulate_planes(c, planes), len(inputs))
    for v, o in zip(inputs, outs):
        assert simulate(c, v) == o
    empty = simulate_planes(c, pack_planes([], 8))  # one all-zero word
    assert empty.shape == (8, 1) and unpack_planes(empty, 0) == []


def _pack_planes_reference(inputs, width):
    """The bit-by-bit loop that ``pack_planes`` vectorises."""
    pl = np.zeros((width, (len(inputs) + 63) // 64), dtype=np.uint64)
    for b, v in enumerate(inputs):
        w, bit = divmod(b, 64)
        for q in range(width):
            if (v >> q) & 1:
                pl[q, w] |= np.uint64(1 << bit)
    return pl


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 130).flatmap(lambda w: st.tuples(
    st.just(w), st.lists(st.integers(0, (1 << w) - 1), min_size=1,
                         max_size=200))))
def test_pack_unpack_roundtrip(case):
    # widths cross the byte and 64-bit word boundaries, counts the lane words
    width, xs = case
    planes = pack_planes(xs, width)
    assert planes.format == "Q"
    assert planes.shape == (width, (len(xs) + 63) // 64)
    assert np.array_equal(np.asarray(planes), _pack_planes_reference(xs, width))
    assert unpack_planes(planes, len(xs)) == xs


@pytest.mark.parametrize("inputs", [[3, -1], [0, 1 << 8]],
                         ids=["negative", "too-wide"])
def test_pack_planes_rejects_out_of_range_inputs(inputs):
    with pytest.raises(GF2Error):
        pack_planes(inputs, 8)


def test_simulate_planes_rejects_bad_batches():
    c = Circuit([Register("q", 8)])
    c.cnot(0, 1)
    with pytest.raises(GF2Error):
        simulate_planes(c, pack_planes([1, 2, 3], 7))
    with pytest.raises(GF2Error):
        signed = pack_planes([1, 2, 3], 8).cast("B").cast("q", (8, 1))
        simulate_planes(c, signed)
    with pytest.raises(GF2Error):
        unpack_planes(pack_planes([1, 2, 3], 8), 65)


WIDTH = 8
_ARITY = {"x": 1, "cnot": 2, "swap": 2, "ccx": 3, "ccxu": 3}


@st.composite
def _gate_ops(draw):
    """A gate call, or a lowered MCX of up to 4 controls with the wires
    left over as its ancillas."""
    kind = draw(st.sampled_from(["x", "cnot", "swap", "ccx", "ccxu", "mcx"]))
    qs = draw(st.permutations(range(WIDTH)))
    if kind != "mcx":
        return kind, tuple(qs[:_ARITY[kind]])
    k = draw(st.integers(0, 4))
    closed = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    return kind, (list(zip(qs[:k], closed)), qs[k], qs[k + 1:])


def _apply(sink, kind, args):
    if kind == "mcx":
        emit_mcx_lowered(sink, *args)
    else:
        getattr(sink, kind)(*args)


@settings(max_examples=200, deadline=None)
@given(st.lists(_gate_ops(), max_size=40))
def test_count_sink_matches_lowered_counts(ops):
    circ = Circuit([Register("q", WIDTH)])
    sink = CountSink()
    for kind, args in ops:
        _apply(circ, kind, args)
        _apply(sink, kind, args)
    low = counts(circ)
    kinds = ("not_", "cnot", "swap", "toffoli", "ccx_uncompute")
    assert ([getattr(sink.counts, k) for k in kinds]
            == [getattr(low, k) for k in kinds])


@st.composite
def _registers(draw):
    """Named registers of random widths and kinds over WIDTH wires."""
    cuts = sorted(draw(st.sets(st.integers(1, WIDTH - 1), max_size=3)))
    bounds = [0, *cuts, WIDTH]
    return [Register(f"r{i}", hi - lo, draw(st.sampled_from(REG_KINDS)))
            for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]


@settings(max_examples=200, deadline=None)
@given(_registers(), st.lists(_gate_ops(), max_size=40))
def test_parse_inverts_serialize(registers, ops):
    circ = Circuit(registers)
    for kind, args in ops:
        _apply(circ, kind, args)
    assert parse(serialize(circ)) == circ


@settings(max_examples=200, deadline=None)
@given(st.lists(_gate_ops(), max_size=40),
       st.lists(st.integers(0, (1 << WIDTH) - 1), min_size=1,
                max_size=150))
def test_simulate_planes_matches_simulate(ops, inputs):
    # every gate kind, lowered MCX with open and closed controls, per-case
    # reference
    circ = Circuit([Register("q", WIDTH)])
    for kind, args in ops:
        _apply(circ, kind, args)
    outs = unpack_planes(simulate_planes(circ, pack_planes(inputs, WIDTH)),
                         len(inputs))
    assert outs == [simulate(circ, v) for v in inputs]


# -- the text format against the line-at-a-time code it replaced ----------------
#
# ``parse`` and ``serialize`` work once per distinct line.  The references
# below are the earlier implementations, kept verbatim in behaviour but
# for the error text: every line split, tokenised and checked, every gate
# formatted.  A line's own ParseError passes through, and the GF2Error of
# a register or gate the circuit rejects becomes ``line N: <reason>``.
# The reference parser accepts extra tokens and ``q[1_0]``, and fails with
# a TypeError on a three-qubit gate given two operands; the current parser
# rejects all of these, so the pools below leave wrong arities and
# non-decimal indices out: they have their own CLI rows.

def _serialize_reference(circuit):
    lines = []
    for r in circuit.registers:
        lines.append(f"reg {r.name} {r.width} {r.kind}")
    for g in circuit.gates:
        kind = g[0]
        if kind == "X":
            lines.append(f"X q[{g[1]}]")
        elif kind == "CNOT":
            lines.append(f"CNOT q[{g[1]}] q[{g[2]}]")
        elif kind == "SWAP":
            lines.append(f"SWAP q[{g[1]}] q[{g[2]}]")
        elif kind == "CCX":
            lines.append(f"CCX q[{g[1]}] q[{g[2]}] q[{g[3]}]")
        elif kind == "CCXU":
            lines.append(f"CCXU q[{g[1]}] q[{g[2]}] q[{g[3]}]")
        else:
            raise GF2Error(f"unknown gate kind {kind}")
    return "\n".join(lines) + "\n"


def _parse_q_reference(tok, lineno):
    if not (tok.startswith("q[") and tok.endswith("]")):
        raise ParseError(f"line {lineno}: bad qubit token {tok!r}")
    return int(tok[2:-1])


def _parse_width_reference(tok, lineno):
    if not (tok.isdigit() and tok.isascii()):
        raise ParseError(f"line {lineno}: bad register width {tok!r}")
    return int(tok)


def _parse_reference(text):
    circuit = Circuit()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kind = toks[0]
        q = _parse_q_reference
        try:
            if kind == "reg":
                circuit.add_register(Register(
                    toks[1], _parse_width_reference(toks[2], lineno), toks[3]))
            elif kind == "X":
                circuit.x(q(toks[1], lineno))
            elif kind == "CNOT":
                circuit.cnot(q(toks[1], lineno), q(toks[2], lineno))
            elif kind == "SWAP":
                circuit.swap(q(toks[1], lineno), q(toks[2], lineno))
            elif kind == "CCX":
                circuit.ccx(*(q(t, lineno) for t in toks[1:4]))
            elif kind == "CCXU":
                circuit.ccxu(*(q(t, lineno) for t in toks[1:4]))
            else:
                raise ParseError(f"line {lineno}: unknown gate {kind!r}")
        except ParseError:
            raise
        except GF2Error as e:
            raise ParseError(f"line {lineno}: {e}") from e
    return circuit


def _parse_outcome(parser, text):
    try:
        c = parser(text)
    except ParseError as e:
        return ("error", str(e), type(e.__cause__), str(e.__cause__))
    return ("ok", c.registers, c.gates, c.width)


# qubits mostly below 5, at most 13, against registers of width <= 4: most
# gates are in range, some are not, and a quarter may repeat a qubit
_POOL_QUBIT = st.one_of(st.integers(0, 4), st.integers(0, 13))


@st.composite
def _pool_lines(draw):
    shape = draw(st.sampled_from(
        ["X", "CNOT", "SWAP", "CCX", "CCXU", "comment", "blank", "other"]))
    if shape == "comment":
        return draw(st.sampled_from(["# a note", "   # indented", "#"]))
    if shape == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    if shape == "other":
        # rejected alike by both parsers (a wrong arity is not: the
        # reference raised IndexError or TypeError for too few operands)
        return draw(st.sampled_from(
            ["FOO q[1]", "CNOT q[0] nonsense", "MCX q[1] q[2]",
             "MCX +q[0] -q[1] q[2]", "X q[1",
             "reg z 0 input", "reg y 1 bogus", "reg x w input",
             "reg x 1_0 input", "reg a 1 input"]))
    k = {"X": 1, "CNOT": 2, "SWAP": 2, "CCX": 3, "CCXU": 3}[shape]
    qs = draw(st.lists(_POOL_QUBIT, min_size=k, max_size=k,
                       unique=draw(st.integers(0, 3)) > 0))
    toks = [f"q[{q}]" for q in qs]
    sep = draw(st.sampled_from([" ", "  ", "\t"]))
    line = sep.join([shape, *toks])
    tail = draw(st.sampled_from(["", "  ", " # tail", "# x"]))
    return draw(st.sampled_from(["", " "])) + line + tail


@st.composite
def _repeated_texts(draw):
    """A few pool lines drawn many times, after up to three ``reg`` headers
    and with up to two more interleaved."""
    pool = draw(st.lists(_pool_lines(), min_size=1, max_size=8))
    lines = draw(st.lists(st.sampled_from(pool), min_size=10, max_size=60))
    names = iter("abcde")

    def reg():
        return (f"reg {next(names)} {draw(st.integers(1, 4))} "
                f"{draw(st.sampled_from(REG_KINDS))}")

    header = [reg() for _ in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), reg())
    return "\n".join(header + lines)


@settings(max_examples=300, deadline=None)
@given(_repeated_texts())
def test_parse_matches_reference_on_repeated_lines(text):
    assert (_parse_outcome(parse, text)
            == _parse_outcome(_parse_reference, text))


# every line break str.splitlines() knows; "\r\n" is drawn as "\r" + "\n"
_LINE_BREAKS = ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                "\u2028", "\u2029"]


@settings(max_examples=1000, deadline=None)
@given(st.text(st.sampled_from(["a", " ", *_LINE_BREAKS]), max_size=80),
       st.integers(1, 64))
def test_read_lines_splits_like_splitlines(text, chunk):
    # chunks of 1 to 64 bytes also cut the UTF-8 of "\x85", "\u2028", ...
    with mock.patch.object(circuit_mod, "_READ_BYTES", chunk):
        got = list(circuit_mod._read_lines(io.BytesIO(text.encode())))
    assert got == text.splitlines()


@settings(max_examples=1000, deadline=None)
@given(st.text(st.sampled_from(["a", " ", *_LINE_BREAKS]), max_size=80)
       .flatmap(lambda text: st.tuples(st.just(text),
                                       st.integers(0, len(text)))),
       st.integers(1, 64))
def test_read_lines_names_the_line_of_a_byte_that_is_not_utf8(case, chunk):
    # 0xff inserted before character i: the lines above its line are
    # yielded, then the error names its line, at any chunk size
    text, i = case
    lines = (text[:i] + "\ufffd" + text[i:]).splitlines()
    bad = next(j for j, line in enumerate(lines) if "\ufffd" in line)
    data = text[:i].encode() + b"\xff" + text[i:].encode()
    got = []
    with mock.patch.object(circuit_mod, "_READ_BYTES", chunk), \
            pytest.raises(ParseError) as e:
        for line in circuit_mod._read_lines(io.BytesIO(data)):
            got.append(line)
    assert got == lines[:bad]
    assert str(e.value) == f"line {bad + 1}: byte 0xff is not UTF-8"


@st.composite
def _separated_texts(draw):
    """Repeated-line texts with each line ended by a run of one to three
    line breaks, or by none at the end."""
    lines = draw(_repeated_texts()).split("\n")
    ends = draw(st.lists(
        st.lists(st.sampled_from(_LINE_BREAKS), min_size=1,
                 max_size=3).map("".join),
        min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends))


@settings(max_examples=300, deadline=None)
@given(_separated_texts(), st.integers(1, 64))
def test_parse_reads_a_file_in_chunks_as_its_text(text, chunk):
    # the same circuit, or the same error at the same line, at any chunk
    # size, from a file opened as validate --circuit opens it (in binary
    # mode, its line breaks as written)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "circuit.txt")
        with open(path, "wb") as f:
            f.write(text.encode())
        with mock.patch.object(circuit_mod, "_READ_BYTES", chunk), \
                open(path, "rb") as f:
            got = _parse_outcome(parse, f)
    assert got == _parse_outcome(parse, text)


def test_parse_shares_the_tuple_of_a_repeated_line():
    c = parse("reg a 3 input\nCNOT q[0] q[1]\nCNOT q[2] q[1]\n"
              "CNOT q[0] q[1]\n")
    assert c.gates == [("CNOT", 0, 1), ("CNOT", 2, 1), ("CNOT", 0, 1)]
    assert c.gates[0] is c.gates[2]


@settings(max_examples=200, deadline=None)
@given(_registers(), st.lists(_gate_ops(), max_size=60))
def test_serialize_matches_reference(registers, ops):
    circ = Circuit(registers)
    for kind, args in ops:
        _apply(circ, kind, args)
    # repeat the stream so every distinct gate is formatted once, used twice
    circ.gates += circ.gates
    assert serialize(circ) == _serialize_reference(circ)


@st.composite
def _column_fan_ops(draw):
    """A CNOT block given by its columns: column j holds the targets, among
    the ``dst`` wires, of a CNOT from ``src[j]``."""
    qs = draw(st.permutations(range(WIDTH)))
    k = draw(st.integers(1, WIDTH - 1))
    cols = draw(st.lists(st.integers(0, (1 << (WIDTH - k)) - 1),
                         min_size=k, max_size=k))
    return "fanin_columns", (qs[:k], cols, qs[k:])


@st.composite
def _fan_ops(draw):
    """A CNOT fan-in or fan-out row over WIDTH wires, or a CNOT block given
    by its columns (:func:`_column_fan_ops`)."""
    kind = draw(st.sampled_from(["fanin", "fanout", "fanin_columns"]))
    if kind == "fanin_columns":
        return draw(_column_fan_ops())
    qs = draw(st.permutations(range(WIDTH)))
    mask = draw(st.integers(0, (1 << (WIDTH - 1)) - 1))
    return kind, ((qs[1:], mask, qs[0]) if kind == "fanin"
                  else (qs[0], qs[1:], mask))


def _block(rev, body, keyed):
    """A block op; a keyed block is keyed on its body, so equal bodies
    have equal keys."""
    return ("block", rev, body, ("drawn", repr(body)) if keyed else None)


# gate calls, fan rows, column blocks, groups and nested blocks (forwards
# or reversed, keyed or not)
_BLOCK_BODIES = st.recursive(
    st.lists(st.one_of(_gate_ops(), _fan_ops()), max_size=6),
    lambda body: st.lists(st.one_of(
        _gate_ops(), _fan_ops(),
        st.tuples(st.just("group"), st.sampled_from("ab"), body),
        st.builds(_block, st.booleans(), body, st.booleans())), max_size=6),
    max_leaves=30)


def _play(sink, ops, replay=None):
    """Apply drawn ops to ``sink``.  Blocks go through ``sink.block``, except
    that with ``replay`` a reversed block goes through ``replay(sink, body)``."""
    for op in ops:
        if op[0] == "group":
            sink.begin_group(op[1])
            _play(sink, op[2], replay)
            sink.end_group()
        elif op[0] == "block" and op[1] and replay:
            replay(sink, op[2])
        elif op[0] == "block":
            sink.block(lambda s, body=op[2]: _play(s, body, replay),
                       rev=op[1], key=op[3])
        else:
            _apply(sink, *op)


class BufferSink:
    """Records raw gate calls so a block can be replayed forwards or
    reversed (every emitted kind is self-inverse on basis states); groups
    are dropped."""

    def __init__(self):
        self.ops: list[tuple] = []

    def x(self, t):
        self.ops.append(("x", t))

    def cnot(self, c, t):
        self.ops.append(("cnot", c, t))

    def swap(self, a, b):
        self.ops.append(("swap", a, b))

    def ccx(self, a, b, t):
        self.ops.append(("ccx", a, b, t))

    def ccxu(self, a, b, t):
        self.ops.append(("ccxu", a, b, t))

    def fanin(self, wires, mask, t):
        for j in range(mask.bit_length()):
            if (mask >> j) & 1:
                self.cnot(wires[j], t)

    def fanout(self, c, wires, mask):
        for j in range(mask.bit_length()):
            if (mask >> j) & 1:
                self.cnot(c, wires[j])

    def fanin_columns(self, src, cols, dst):
        for i, t in enumerate(dst):
            for j, col in enumerate(cols):
                if (col >> i) & 1:
                    self.cnot(src[j], t)

    def begin_group(self, label, units=1):
        pass

    def end_group(self):
        pass

    def block(self, build, rev: bool = False, key=None):
        assert not rev  # _play hands reversed blocks to _buffer_replay
        build(self)

    def play(self, sink, rev: bool = False):
        ops = reversed(self.ops) if rev else self.ops
        for op in ops:
            getattr(sink, op[0])(*op[1:])


def _buffer_replay(sink, body):
    """Reference reversal: record the block in a BufferSink, which drops its
    groups, and play the record backwards."""
    buf = BufferSink()
    _play(buf, body, _buffer_replay)
    buf.play(sink, rev=True)


@settings(max_examples=200, deadline=None)
@given(_BLOCK_BODIES, _BLOCK_BODIES)
def test_circuit_reverses_a_block_like_a_buffer_replay(before, body):
    # a Circuit reverses a block in place; the gates must be those of a
    # BufferSink replay
    def emit(play):
        circ = Circuit([Register("q", WIDTH)])
        play(circ, before)
        play(circ, [_block(True, body, False)])
        circ.x(0)
        return circ

    got = emit(_play)
    want = emit(lambda circ, ops: _play(circ, ops, _buffer_replay))
    assert got.gates == want.gates


@settings(max_examples=200, deadline=None)
@given(_BLOCK_BODIES, st.booleans(), st.booleans())
def test_count_sink_and_circuit_read_the_same_stream(body, rev1, rev2):
    # keyed, reversed and nested blocks with fan rows and column blocks: a
    # CountSink tallies what a Circuit materializes, and keeps the census of
    # a TallySink.  The body is played once in place and twice more as a
    # keyed block, so the second copy reads the stored tally.
    import binshor.synth as synth

    ops = [*body, _block(rev1, body, True), _block(rev2, body, True)]
    circ = Circuit([Register("q", WIDTH)])
    _play(circ, ops)
    saved, synth.TALLIES = synth.TALLIES, {}
    try:
        sink = synth.CountSink()
        _play(sink, ops)
    finally:
        synth.TALLIES = saved
    low = counts(circ)
    kinds = ("not_", "cnot", "swap", "toffoli", "ccx_uncompute")
    assert ([getattr(sink.counts, k) for k in kinds]
            == [getattr(low, k) for k in kinds])
    tally = TallySink()
    _play(tally, ops)
    assert sink.census == tally.census


@settings(max_examples=200, deadline=None)
@given(_BLOCK_BODIES, st.integers(0, 8))
def test_writer_writes_what_a_circuit_serializes(body, flush_gates):
    # nested, reversed and keyed blocks with groups, written a few gates at
    # a time: the text and the gate count of the materialized circuit
    ops = [*body, _block(True, body, False), *body]
    circ = Circuit([Register("q", WIDTH)])
    _play(circ, ops)
    out = io.StringIO()
    with mock.patch.object(circuit_mod, "_FLUSH_GATES", flush_gates):
        writer = CircuitWriter(circ.registers, out)
        _play(writer, ops)
        writer.flush()
    assert out.getvalue() == serialize(circ)
    assert writer.written == len(circ.gates)
    assert writer.gates == []


@settings(max_examples=200, deadline=None)
@given(st.lists(_column_fan_ops(), min_size=1, max_size=4))
def test_column_fan_in_is_the_row_emission(ops):
    # a Circuit (and so a CircuitWriter) emits a column-held block as the
    # fan-in rows of its transpose, gate for gate; a CountSink and a
    # TallySink count its CNOTs; reversed, it is a BufferSink's replay
    rows = Circuit([Register("q", WIDTH)])
    for _, (src, cols, dst) in ops:
        emit_cnot_matrix(rows, BitMatrix.from_columns(cols, len(dst)), src,
                         dst)
    circ = Circuit([Register("q", WIDTH)])
    _play(circ, ops)
    assert circ.gates == rows.gates
    out = io.StringIO()
    writer = CircuitWriter([Register("q", WIDTH)], out)
    _play(writer, ops)
    writer.flush()
    assert out.getvalue() == serialize(rows)
    count, tally = CountSink(), TallySink()
    _play(count, ops)
    _play(tally, ops)
    assert count.counts.cnot == tally.counts["cnot"] == len(rows.gates)
    reversed_ops = [_block(True, ops, False)]
    got, want = Circuit([Register("q", WIDTH)]), Circuit([Register("q", WIDTH)])
    _play(got, reversed_ops)
    _play(want, reversed_ops, _buffer_replay)
    assert got.gates == want.gates == rows.gates[::-1]
