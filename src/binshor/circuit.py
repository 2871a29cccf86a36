"""Reversible-circuit intermediate representation.

Gates are compact tuples; the only kinds are X, CNOT, SWAP, CCX and CCXU.
CCXU is a Toffoli applied as a *measurement-based uncomputation* (the
standard clean-ancilla trick): it acts like a CCX on basis states but is
Toffoli-free at the fault-tolerant level, so gate counts tally it
separately.  A multi-controlled NOT is not a gate kind: it is emitted as
these gates by :func:`emit_mcx_lowered`, over clean ancillas its emitter
names.

Every gate kind permutes computational basis states, so the simulator works
on bitstrings (single inputs) or on bit-planes (batched inputs): a 2-d
memoryview of 64-bit words, one row per qubit, packed and unpacked by the
byte-plane transpose of :meth:`~binshor.linalg.BitMatrix.from_columns`.

The text format has one gate per line (see :func:`serialize`); ``parse``
checks and ``serialize`` formats each distinct line once, and a repeated
line costs one dict lookup.  A file streams both ways: a
:class:`CircuitWriter` is a circuit that writes its gates out as they are
emitted, holding only the gates of its outermost open reversed block (or a
few thousand), and ``parse`` reads an open file in chunks, so neither side
holds the whole text.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import GF2Error
from .linalg import BitMatrix


REG_KINDS = ("input", "output", "ancilla-clean", "ancilla-garbage", "flag")


@dataclass(frozen=True)
class Register:
    name: str
    width: int
    kind: str = "input"

    def __post_init__(self):
        if self.width < 1:
            raise GF2Error(f"register {self.name} must have width >= 1")
        if self.kind not in REG_KINDS:
            raise GF2Error(f"unknown register kind {self.kind!r}")


@dataclass
class GateCounts:
    """Exact per-kind gate tallies plus qubit bookkeeping.

    ``ccx_uncompute`` counts measurement-based Toffoli uncomputations, which
    cost no Toffolis in the fault-tolerant accounting.
    """

    not_: int = 0
    cnot: int = 0
    swap: int = 0
    toffoli: int = 0
    ccx_uncompute: int = 0
    qubits_total: int = 0
    ancilla_clean: int = 0
    ancilla_garbage: int = 0

    def as_dict(self) -> dict:
        return {
            "cnot": self.cnot,
            "toffoli": self.toffoli,
            "swap": self.swap,
            "not": self.not_,
            "ccx_uncompute": self.ccx_uncompute,
            "qubits": self.qubits_total,
            "ancilla_clean": self.ancilla_clean,
            "ancilla_garbage": self.ancilla_garbage,
        }


class Circuit:
    """Ordered gate list over named registers.

    A circuit keeps no groups: :meth:`begin_group` and :meth:`end_group`
    accept an emitter's group bounds and drop them.  Censuses are kept by
    :class:`~binshor.synth.CountSink`, from the same gate stream.
    """

    def __init__(self, registers: list[Register] | None = None):
        self.registers: list[Register] = []
        self._offsets: dict[str, int] = {}
        self.width = 0  # qubit count: the register widths, summed as added
        self.gates: list[tuple] = []
        if registers:
            for r in registers:
                self.add_register(r)

    # -- registers ---------------------------------------------------------

    def add_register(self, reg: Register) -> list[int]:
        if reg.name in self._offsets:
            raise GF2Error(f"duplicate register name {reg.name!r}")
        self._offsets[reg.name] = self.width
        self.registers.append(reg)
        self.width += reg.width
        return self.reg(reg.name)

    def reg(self, name: str) -> list[int]:
        off = self._offsets[name]
        w = next(r.width for r in self.registers if r.name == name)
        return list(range(off, off + w))

    # -- gate emission -----------------------------------------------------

    def _chk(self, *qs):
        w = self.width
        # fast path for the fixed-arity gates: in range, pairwise distinct
        k = len(qs)
        if k == 2:
            a, b = qs
            if 0 <= a < w and 0 <= b < w and a != b:
                return
        elif k == 3:
            a, b, c = qs
            if (0 <= a < w and 0 <= b < w and 0 <= c < w
                    and a != b and a != c and b != c):
                return
        elif k == 1 and 0 <= qs[0] < w:
            return
        if len(set(qs)) != len(qs):
            raise GF2Error(f"duplicate qubit in gate: {qs}")
        for q in qs:
            if not 0 <= q < w:
                raise GF2Error(f"qubit {q} out of range (width {w})")

    def x(self, t: int):
        self._chk(t)
        self.gates.append(("X", t))

    def cnot(self, c: int, t: int):
        self._chk(c, t)
        self.gates.append(("CNOT", c, t))

    def swap(self, a: int, b: int):
        self._chk(a, b)
        self.gates.append(("SWAP", a, b))

    def ccx(self, c1: int, c2: int, t: int):
        self._chk(c1, c2, t)
        self.gates.append(("CCX", c1, c2, t))

    def ccxu(self, c1: int, c2: int, t: int):
        self._chk(c1, c2, t)
        self.gates.append(("CCXU", c1, c2, t))

    def fanin(self, wires, mask: int, t: int):
        """One CNOT from ``wires[j]`` onto ``t`` per set bit j of ``mask``,
        in ascending j."""
        while mask:
            low = mask & -mask
            self.cnot(wires[low.bit_length() - 1], t)
            mask ^= low

    def fanout(self, c: int, wires, mask: int):
        """One CNOT from ``c`` onto ``wires[j]`` per set bit j of ``mask``,
        in ascending j."""
        while mask:
            low = mask & -mask
            self.cnot(c, wires[low.bit_length() - 1])
            mask ^= low

    def fanin_columns(self, src, cols, dst):
        """|s, d> -> |s, d + M s> for the matrix M whose column j is
        ``cols[j]`` (bit i: a CNOT from ``src[j]`` onto ``dst[i]``): a
        :meth:`fanin` per row of M, in ascending rows."""
        for t, row in zip(dst, BitMatrix.from_columns(cols, len(dst)).rows):
            self.fanin(src, row, t)

    def block(self, build, rev: bool = False, key=None):
        """Emit ``build(self)``, its gates reversed in place if ``rev``.  A
        circuit keeps every gate, so ``key`` is ignored."""
        start = len(self.gates)
        build(self)
        if rev:
            self.gates[start:] = self.gates[start:][::-1]

    def begin_group(self, label: str, units: int = 1):
        pass

    def end_group(self):
        pass

    # -- structure ---------------------------------------------------------

    def extend(self, other: "Circuit"):
        """Append another circuit over the same register layout."""
        if other.registers != self.registers:
            raise GF2Error("register layouts differ")
        self.gates.extend(other.gates)

    def reversed(self) -> "Circuit":
        """Inverse circuit: reversed gate order.  Every kind is an involution
        on basis states, and a reversed Toffoli still costs a Toffoli, so
        gate kinds are preserved."""
        out = Circuit(list(self.registers))
        out.gates = list(reversed(self.gates))
        return out

    def __eq__(self, other):
        return (isinstance(other, Circuit)
                and self.registers == other.registers
                and self.gates == other.gates)

    def __repr__(self):
        return f"Circuit({self.width} qubits, {len(self.gates)} gates)"


def simulate(circuit: Circuit, state) -> str | int:
    """Apply the circuit to a basis state.

    ``state`` may be an int bit-vector (bit i = qubit i) or a 0/1 string
    whose i-th character is qubit i; the return type matches the input.
    """
    as_str = isinstance(state, str)
    if as_str:
        if len(state) != circuit.width:
            raise GF2Error(
                f"input length {len(state)} != qubit count {circuit.width}")
        s = 0
        for i, ch in enumerate(state):
            if ch == "1":
                s |= 1 << i
            elif ch != "0":
                raise GF2Error("input must be a 0/1 string")
    else:
        s = int(state)
        if s < 0 or s >> circuit.width:
            raise GF2Error("input out of range for qubit count")
    for g in circuit.gates:
        kind = g[0]
        if kind == "CNOT":
            if (s >> g[1]) & 1:
                s ^= 1 << g[2]
        elif kind in ("CCX", "CCXU"):
            if (s >> g[1]) & 1 and (s >> g[2]) & 1:
                s ^= 1 << g[3]
        elif kind == "X":
            s ^= 1 << g[1]
        elif kind == "SWAP":
            a, b = (s >> g[1]) & 1, (s >> g[2]) & 1
            if a != b:
                s ^= (1 << g[1]) | (1 << g[2])
        else:
            raise GF2Error(f"unknown gate kind {kind}")
    if as_str:
        return "".join("1" if (s >> i) & 1 else "0" for i in range(circuit.width))
    return s


def _planes(ints: list[int], words: int) -> memoryview:
    """Plane ints as a (len(ints), words) buffer of little-endian words."""
    raw = b"".join(v.to_bytes(8 * words, "little") for v in ints)
    return memoryview(raw).cast("Q", (len(ints), words))


def plane_ints(planes: memoryview) -> list[int]:
    """Each plane as one int: bit 64*w + b is bit b of word w."""
    nbytes, raw = 8 * planes.shape[1], planes.tobytes()
    return [int.from_bytes(raw[i:i + nbytes], "little")
            for i in range(0, len(raw), nbytes)]


def simulate_planes(circuit: Circuit, planes: memoryview) -> memoryview:
    """Batched simulation on bit-planes.

    ``planes`` is a 2-d memoryview of format "Q" and shape (width, words);
    bit b of ``planes[q, w]`` is qubit q of batch element 64*w + b.  Returns
    a new buffer; the input is not modified.
    """
    if (not isinstance(planes, memoryview) or planes.format != "Q"
            or planes.ndim != 2):
        raise GF2Error("planes must be a 2-d memoryview of format 'Q'")
    if planes.shape[0] != circuit.width:
        raise GF2Error(f"plane count {planes.shape[0]} != qubit count "
                       f"{circuit.width}")
    # a gate is one or two big-int operations on whole planes
    pl = plane_ints(planes)
    words = planes.shape[1]
    full = (1 << (64 * words)) - 1
    for g in circuit.gates:
        kind = g[0]
        if kind == "CNOT":
            pl[g[2]] ^= pl[g[1]]
        elif kind in ("CCX", "CCXU"):
            pl[g[3]] ^= pl[g[1]] & pl[g[2]]
        elif kind == "X":
            pl[g[1]] ^= full
        elif kind == "SWAP":
            pl[g[1]], pl[g[2]] = pl[g[2]], pl[g[1]]
        else:
            raise GF2Error(f"unknown gate kind {kind}")
    return _planes(pl, words)


def pack_planes(inputs: list[int], width: int) -> memoryview:
    """Bit-planes of basis states: bit q of ``inputs[b]`` becomes bit b % 64
    of ``planes[q, b // 64]``; lanes past ``len(inputs)`` are zero, and an
    empty batch has one word."""
    count = len(inputs)
    if count and (min(inputs) < 0 or max(inputs) >> width):
        raise GF2Error("input out of range for qubit count")
    rows = BitMatrix.from_columns(inputs, width).rows if count else [0] * width
    return _planes(rows, max(1, -(-count // 64)))  # cast refuses 0 words


def emit_mcx_lowered(sink, controls, t: int, anc):
    """Emit a multi-controlled X as NOT/CNOT/CCX/CCXU into ``sink``: the one
    way a multi-controlled NOT is emitted.

    ``controls`` are (qubit, closed) pairs.  A k-control MCX costs k-1 CCX:
    an AND ladder into the clean ancillas ``anc`` (at least k-2 of them),
    with the final CCX targeting ``t`` directly; the ladder is then undone
    with measurement-based uncomputations (CCXU), so ``anc`` ends at 0 as it
    began.  Open controls are realized by X conjugation.
    """
    if len(anc) < len(controls) - 2:
        raise GF2Error(f"{len(controls)} controls need {len(controls) - 2} "
                       f"ancillas, got {len(anc)}")
    opens = [q for q, closed in controls if not closed]
    for q in opens:
        sink.x(q)
    cq = [q for q, _ in controls]
    k = len(cq)
    if k == 0:
        sink.x(t)
    elif k == 1:
        sink.cnot(cq[0], t)
    elif k == 2:
        sink.ccx(cq[0], cq[1], t)
    else:
        # ladder: anc[0] = c0&c1, anc[i] = anc[i-1]&c(i+1), last CCX -> t
        sink.ccx(cq[0], cq[1], anc[0])
        for i in range(k - 3):
            sink.ccx(anc[i], cq[i + 2], anc[i + 1])
        sink.ccx(anc[k - 3], cq[k - 1], t)
        for i in range(k - 4, -1, -1):
            sink.ccxu(anc[i], cq[i + 2], anc[i + 1])
        sink.ccxu(cq[0], cq[1], anc[0])
    for q in opens:
        sink.x(q)


def counts(circuit: Circuit) -> GateCounts:
    """Exact tallies by gate kind, and the qubit and ancilla widths of the
    circuit's registers."""
    c = GateCounts()
    for g in circuit.gates:
        kind = g[0]
        if kind == "CNOT":
            c.cnot += 1
        elif kind == "CCX":
            c.toffoli += 1
        elif kind == "CCXU":
            c.ccx_uncompute += 1
        elif kind == "X":
            c.not_ += 1
        elif kind == "SWAP":
            c.swap += 1
    c.qubits_total = circuit.width
    c.ancilla_clean = sum(r.width for r in circuit.registers
                          if r.kind == "ancilla-clean")
    c.ancilla_garbage = sum(r.width for r in circuit.registers
                            if r.kind == "ancilla-garbage")
    return c


# -- text format -----------------------------------------------------------

# qubit operands of each fixed-arity gate kind
_ARITY = {"X": 1, "CNOT": 2, "SWAP": 2, "CCX": 3, "CCXU": 3}


def _gate_line(g: tuple) -> str:
    kind = g[0]
    if kind == "CNOT":
        return f"CNOT q[{g[1]}] q[{g[2]}]"
    if kind == "CCX":
        return f"CCX q[{g[1]}] q[{g[2]}] q[{g[3]}]"
    if kind == "X":
        return f"X q[{g[1]}]"
    if kind == "SWAP":
        return f"SWAP q[{g[1]}] q[{g[2]}]"
    if kind == "CCXU":
        return f"CCXU q[{g[1]}] q[{g[2]}] q[{g[3]}]"
    raise GF2Error(f"unknown gate kind {kind}")


class _GateLines(dict):
    """Gate tuple -> its text line, formatted on first lookup."""

    def __missing__(self, g):
        line = self[g] = _gate_line(g)
        return line


def _reg_line(r: Register) -> str:
    return f"reg {r.name} {r.width} {r.kind}"


def serialize(circuit: Circuit) -> str:
    lines = list(map(_reg_line, circuit.registers))
    lines.extend(map(_GateLines().__getitem__, circuit.gates))
    return "\n".join(lines) + "\n"


# gates a CircuitWriter holds before it writes them, outside reversed blocks
_FLUSH_GATES = 4096


class CircuitWriter(Circuit):
    """A circuit that writes itself to the text file ``out`` as it is
    emitted, in the format of :func:`serialize`.

    The ``reg`` lines are written at once.  Gates are held until a block
    ends with no reversed block open and more than a few thousand held;
    they are then written and dropped, so a reversed block is still
    reversed in place (:meth:`Circuit.block`) and the writer holds at most
    its outermost open reversed block on top of that.  Call :meth:`flush`
    once emission ends; the text is then ``serialize`` of the same circuit
    (for at least one register).
    """

    def __init__(self, registers: list[Register], out):
        super().__init__(registers)
        self.out = out
        self.written = 0  # gates written so far
        self._lines = _GateLines()
        self._reversing = 0  # reversed blocks open
        out.write("".join(_reg_line(r) + "\n" for r in self.registers))

    def block(self, build, rev: bool = False, key=None):
        self._reversing += rev
        super().block(build, rev)
        self._reversing -= rev
        if len(self.gates) > _FLUSH_GATES and not self._reversing:
            self.flush()

    def flush(self):
        """Write the gates held and drop them."""
        if self.gates:
            self.out.write("\n".join(map(self._lines.__getitem__,
                                         self.gates)) + "\n")
            self.written += len(self.gates)
            self.gates.clear()


class ParseError(GF2Error):
    pass


def _parse_q(tok: str, lineno: int) -> int:
    digits = tok[2:-1]
    if (tok[:2] == "q[" and tok[-1:] == "]" and digits.isdigit()
            and digits.isascii()):
        return int(digits)
    raise ParseError(f"line {lineno}: bad qubit token {tok!r}")


def _parse_line(circuit: Circuit, toks: list[str], lineno: int):
    """Apply one tokenised line to ``circuit`` through its checked emitters."""
    kind = toks[0]
    if kind == "reg":
        if len(toks) != 4:
            raise ParseError(f"line {lineno}: reg takes a name, a width and "
                             f"a kind")
        width = toks[2]  # ASCII decimal digits only, as for a qubit index
        if not (width.isdigit() and width.isascii()):
            raise ParseError(f"line {lineno}: bad register width {width!r}")
        circuit.add_register(Register(toks[1], int(width), toks[3]))
    elif kind in _ARITY:
        arity = _ARITY[kind]
        if len(toks) != arity + 1:
            raise ParseError(f"line {lineno}: {kind} takes {arity} qubit"
                             f"{'' if arity == 1 else 's'}, "
                             f"got {len(toks) - 1}")
        getattr(circuit, kind.lower())(*[_parse_q(t, lineno)
                                         for t in toks[1:]])
    else:
        raise ParseError(f"line {lineno}: unknown gate {kind!r}")


# bytes parse reads from a file at a time
_READ_BYTES = 1 << 16


def _pieces(f):
    """The bytes of ``f``, read ``_READ_BYTES`` at a time, in pieces that
    each end after a ``\\n``, but the last."""
    tail = b""
    while chunk := f.read(_READ_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield tail + chunk[:cut]
            tail = chunk[cut:]
        else:
            tail += chunk
    yield tail


def _read_lines(f):
    """The lines of ``f.read().decode().splitlines()`` for a file opened in
    binary mode, read in :func:`_pieces`.  A ``\\n`` ends a line, starts no
    line break and is no part of a longer UTF-8 sequence, so each piece
    decodes and splits as it does in the whole text.  A byte that is not
    UTF-8 raises a ParseError naming its line, once the lines above it are
    yielded."""
    done = 0  # lines yielded
    for piece in _pieces(f):
        try:
            lines = piece.decode().splitlines()
        except UnicodeDecodeError as e:
            # the text before the byte, closed by a stand-in for the rest of
            # its line
            *above, _ = (piece[:e.start].decode() + "x").splitlines()
            yield from above
            raise ParseError(f"line {done + len(above) + 1}: byte "
                             f"{piece[e.start]:#04x} is not UTF-8") from None
        yield from lines
        done += len(lines)


def parse(source) -> Circuit:
    """Parse the circuit text format from a string or a file opened in
    binary mode; raises ParseError with line numbers.  A file is read in
    chunks and decoded as UTF-8, so its text is never held whole.

    Each distinct gate line is checked once: a repeat appends the gate tuple
    of its first copy.  Widths only grow, so a line that passed its range
    and duplicate-qubit checks passes them again wherever it recurs.
    """
    lines = (source.splitlines() if isinstance(source, str)
             else _read_lines(source))
    circuit = Circuit()
    gates = circuit.gates
    seen: dict[str, tuple] = {}  # checked gate line -> its gate tuple
    for lineno, raw in enumerate(lines, start=1):
        g = seen.get(raw)
        if g is not None:
            gates.append(g)
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        try:
            _parse_line(circuit, toks, lineno)
        except ParseError:
            raise
        except GF2Error as e:  # a register or a gate the circuit rejects
            raise ParseError(f"line {lineno}: {e}") from e
        if toks[0] != "reg":
            seen[raw] = gates[-1]
    return circuit
