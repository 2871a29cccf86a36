"""Reversible-circuit synthesis for the binary-field arithmetic primitives.

Everything is emitted through a sink object so the same code path can
either materialize a :class:`~binshor.circuit.Circuit` (for simulation at
small field sizes) or stream into counters (for exact resource counts at
cryptographic sizes).  Gate totals always come from the emitted gate
stream, never from closed-form shortcuts.  Every Toffoli-free linear step
(a CRT recombination map Q_i, the correction map H, a squaring) is a
:class:`LinearMap`, compiled to CNOTs and swaps from one PLU
factorisation of its matrix (of its columns, for a tall map).  Each plan
(a multiplier, an inversion, a point addition) emits as one keyed block,
and so does each distinct piece inside it (a CRT recombination factor,
the correction map, a reduction step, a squaring, a residue product per
formula and factor).
Emitters call only sink methods (one per gate kind, the group bounds,
``fanin``/``fanout`` for a CNOT row into or out of one wire,
``fanin_columns`` for a CNOT block held by its columns, such as a tall
map's lower block, and ``block``), so each sink keeps blocks its own way:
a :class:`~binshor.circuit.Circuit` stores every gate (a column-held block
as the rows of its transpose), reverses a reversed block in place and
drops the group bounds, and a :class:`CountSink` adds a CNOT row's or a
column-held block's count at once and adds, for every copy of a keyed
block, the tally it stored in :data:`TALLIES` the first time.  A
:class:`CountSink` is the one sink that keeps groups: its census sums their
units by label and leaves out a reversed block's.  A k-fold squaring is
one fused map only when its CNOTs do not pass those of k single
squarings, and its factorisation stops once they do
(:func:`squaring_method`).
Each plan's ``layout()`` is the one place its registers are named.
:func:`emit_over_layout` emits a plan, or any emitter, over the wires of
a layout's registers: into the layout itself, which builds the circuit,
or into another sink.  :func:`count_plan` emits a plan's block that way
into a fresh :class:`CountSink` that starts from the layout's register
widths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .circuit import Circuit, GateCounts, Register, counts as circuit_counts
from .gf2 import (
    BinaryPoly,
    FieldSpec,
    GF2Error,
    ModulusSet,
    clmod,
    crt_constants,
    validate_modulus_set,
)
from .linalg import (
    BitMatrix,
    plu_columns,
    plu_decompose,
    reduction_matrix,
    crt_recombination_matrix,
    correction_matrix,
    squaring_matrix,
    squaring_powers,
)
from .formulas import KaratsubaFormula


# -- sinks -------------------------------------------------------------------

# block key -> (counts, census) of one emission of that block, for every
# CountSink of the process (see CountSink.block); pipeline.clear_caches()
# empties it
TALLIES: dict = {}


class CountSink:
    """Gate-stream consumer that tallies counts and census groups (label ->
    units, in the order the groups begin; a reversed block adds none).
    Keyed blocks are read from and stored in :data:`TALLIES`."""

    def __init__(self):
        self.counts = GateCounts()
        self.census: dict[str, int] = {}

    def x(self, t):
        self.counts.not_ += 1

    def cnot(self, c, t):
        self.counts.cnot += 1

    def swap(self, a, b):
        self.counts.swap += 1

    def ccx(self, a, b, t):
        self.counts.toffoli += 1

    def ccxu(self, a, b, t):
        self.counts.ccx_uncompute += 1

    def fanin(self, wires, mask: int, t):
        self.counts.cnot += mask.bit_count()

    def fanout(self, c, wires, mask: int):
        self.counts.cnot += mask.bit_count()

    def fanin_columns(self, src, cols, dst):
        self.counts.cnot += sum(map(int.bit_count, cols))

    def begin_group(self, label, units=1):
        self.census[label] = self.census.get(label, 0) + units

    def end_group(self):
        pass

    def block(self, build, rev: bool = False, key=None):
        """Add the tally of ``build``'s block, without its groups if ``rev``
        (a tally does not depend on gate order).  A keyed block is emitted
        into a fresh sink when its ``key`` is first seen, and its stored
        (counts, census) is added for every copy.  Equal keys mean equal
        blocks while :data:`TALLIES` holds them, so key on the objects that
        fix the block (a plan, or a formula and its factor)."""
        if key is None and not rev:
            build(self)
            return
        tally = TALLIES.get(key) if key is not None else None
        if tally is None:
            sub = CountSink()
            build(sub)
            tally = (sub.counts, sub.census)
            if key is not None:
                TALLIES[key] = tally
        counts, census = tally
        c = self.counts
        c.not_ += counts.not_
        c.cnot += counts.cnot
        c.swap += counts.swap
        c.toffoli += counts.toffoli
        c.ccx_uncompute += counts.ccx_uncompute
        if not rev:
            for label, units in census.items():
                self.begin_group(label, units)


# -- leaf emitters -----------------------------------------------------------

def emit_addition(sink, src, dst):
    for s, d in zip(src, dst):
        sink.cnot(s, d)


def emit_controlled_addition(sink, ctrl, src, dst):
    for s, d in zip(src, dst):
        sink.ccx(ctrl, s, d)


def emit_controlled_constants(sink, ctrl, c: BinaryPoly, dst):
    sink.fanout(ctrl, dst, c.bits)


@dataclass(frozen=True)
class LinearMap:
    """An n x d full-column-rank map M as CNOTs and swaps on n wires,
    |f, 0> -> |M f> with f on the first d (in place when n = d).

    From one PLU factorisation M = P L U: ``rest``, the rows of L U below
    its d x d top block, is added out of place; the top block, whose own
    factors are (identity, ``L``, ``U``), is applied in place by a U stage
    then an L stage; ``swaps`` apply P.  A square M is factored by
    :func:`~binshor.linalg.plu_decompose`, a tall one on its d columns by
    :func:`~binshor.linalg.plu_columns`, and ``rest`` is held by column
    (d x (n-d)) and handed whole to the sink's ``fanin_columns``.
    """

    L: BitMatrix               # top d rows of L
    U: BitMatrix
    rest: BitMatrix | None     # d x (n-d), by column; None for a square map
    swaps: tuple

    @classmethod
    def of(cls, M: BitMatrix, limit: int | None = None
           ) -> "LinearMap | None":
        """The map of M.  For a square M with ``limit``, None once its
        fan-in CNOTs number more (:func:`~binshor.linalg.plu_decompose`
        stops there); a tall M ignores ``limit``."""
        n, d = M.shape
        if d < n:
            return cls.of_columns(M.transpose().rows, n)
        plu = plu_decompose(M, limit=limit)
        if plu is None:
            return None
        return cls(plu.L, plu.U, None, tuple(plu.transpositions()))

    @classmethod
    def of_columns(cls, cols: list[int], n: int) -> "LinearMap":
        """The map of the n-row matrix with these columns; a tall one is
        factored without building its rows."""
        if len(cols) < n:
            return cls(*plu_columns(cols, n))
        return cls.of(BitMatrix.from_columns(cols, n))

    def emit(self, sink, wires, rev: bool = False, key=None):
        d = self.U.ncols

        def build(s):
            if self.rest is not None:
                s.fanin_columns(wires[:d], self.rest.rows, wires[d:])
            # the U stage in ascending rows, f_i += sum_{j>i} U_ij f_j, then
            # the L stage in descending rows, f_i += sum_{j<i} L_ij f_j
            for i, row in enumerate(self.U.rows):
                s.fanin(wires, row & ~((2 << i) - 1), wires[i])
            for i in range(d - 1, -1, -1):
                s.fanin(wires, self.L.rows[i] & ((1 << i) - 1), wires[i])
            for a, b in self.swaps:
                s.swap(wires[a], wires[b])

        sink.block(build, rev=rev, key=key)

    def cnot_equiv(self) -> int:
        """CNOT count of the map emitted into a :class:`CountSink`, with
        each swap at its three-CNOT equivalent."""
        sink = CountSink()
        n = self.U.ncols + (self.rest.ncols if self.rest is not None else 0)
        self.emit(sink, range(n))
        return sink.counts.cnot + 3 * sink.counts.swap


def emit_reduction_step(sink, Ma, da, Mb, db, wires):
    """Un-apply reduction A then apply reduction B on one register, with the
    CNOTs the padded matrices share cancelled.

    Bit j of row i of a reduction matrix at offset d is a CNOT from wire
    d + j onto wire i, so each target's controls are one mask.  A's gates
    come first, so reads of the overlap region stay correct.  ``None``
    stands for no reduction.
    """
    a_rows = Ma.rows if Ma is not None else []
    b_rows = Mb.rows if Mb is not None else []
    for rows, d, other, d_other in ((a_rows, da, b_rows, db),
                                    (b_rows, db, a_rows, da)):
        for i, row in enumerate(rows):
            r = row << d
            if i < len(other):
                r &= ~(other[i] << d_other)
            sink.fanin(wires, r, wires[i])


def emit_kmult(sink, formula: KaratsubaFormula, m_i: BinaryPoly,
               fw, gw, hw):
    """Out-of-place residue product |f,g,h> -> |f,g,h + f g mod m_i>.

    Per product: CNOT fan-in of the mask onto a pivot in each input
    register, output fan-out around a single Toffoli, then uncompute.
    Products whose recombination column vanishes after reduction mod m_i
    are emitted without the Toffoli (nothing to target).  One keyed block
    per (formula, factor).
    """
    if m_i.degree != formula.d:
        raise GF2Error("formula degree does not match the factor")

    def build(s):
        # reduce R modulo m_i: column r becomes coeffs of (col poly mod m_i)
        rcols = []
        for r in range(formula.v):
            poly = 0
            for l, row in enumerate(formula.R.rows):
                if (row >> r) & 1:
                    poly ^= 1 << l
            rcols.append(clmod(poly, m_i.bits))
        for r in range(formula.v):
            mask = formula.T.rows[r]
            out = rcols[r]
            if not out:
                continue  # product vanishes after reduction mod m_i
            piv = (mask & -mask).bit_length() - 1
            rest = mask ^ (1 << piv)
            hpiv = (out & -out).bit_length() - 1
            hrest = out ^ (1 << hpiv)
            s.fanin(fw, rest, fw[piv])
            s.fanin(gw, rest, gw[piv])
            s.fanout(hw[hpiv], hw, hrest)
            s.ccx(fw[piv], gw[piv], hw[hpiv])
            s.fanout(hw[hpiv], hw, hrest)
            s.fanin(gw, rest, gw[piv])
            s.fanin(fw, rest, fw[piv])

    sink.block(build, key=("kmult", formula, m_i))


def emit_correction(sink, omega: int, n: int, fw, gw, tw):
    """Add the high-degree correction coefficients into the omega-bit target,
    preserving prior target contents.

    Phase 1 (diagonal products s_i) nests the running sums with one CNOT
    cascade on each side of the Toffolis; phase 2 (pair products s_{i,j})
    keeps running partial sums in the input registers, deferring slot
    restoration to a single cleanup pass.  Gate totals: omega + floor(w^2/4)
    Toffolis and 4(omega-1) + floor(w^2/2) CNOTs.
    """
    if not 1 <= omega <= n:
        raise GF2Error("omega out of range")
    # phase 1: t[w-1-k] += sum_{m<=k} s_{n-1-m}
    for j in range(omega - 1):
        sink.cnot(tw[j + 1], tw[j])
    for m in range(omega):
        sink.ccx(fw[n - 1 - m], gw[n - 1 - m], tw[omega - 1 - m])
    for j in range(omega - 2, -1, -1):
        sink.cnot(tw[j + 1], tw[j])
    if omega < 2:
        return
    # phase 2: pairs (u, v), u < v, u+v <= omega-1, target t[omega-1-u-v];
    # slot(v) = wires[n-1-v] accumulates f'_v + f'_u across runs
    def fslot(m):
        return fw[n - 1 - m]

    def gslot(m):
        return gw[n - 1 - m]

    u = 0
    while True:
        J = list(range(u + 1, omega - u))
        if not J:
            break
        for v in J:
            sink.cnot(fslot(u), fslot(v))
            sink.cnot(gslot(u), gslot(v))
        for v in J:
            sink.ccx(fslot(v), gslot(v), tw[omega - 1 - u - v])
        u += 1
    # cleanup: slot v is dirty by f'_src with src = min(v-1, omega-1-v)
    for v in range(1, omega):
        src = min(v - 1, omega - 1 - v)
        if src < 0:
            continue
        sink.cnot(fslot(src), fslot(v))
        sink.cnot(gslot(src), gslot(v))


# -- modular multiplication plan ---------------------------------------------

@dataclass
class _Factor:
    m: BinaryPoly
    d: int
    reduction: BitMatrix | None
    q: LinearMap               # the CRT recombination map Q_i, n x d
    formula: KaratsubaFormula | None
    inner: "ModmultPlan | None"


class ModmultPlan:
    """Precomputed CRT modular-multiplication circuit for one modulus.

    Maps |f, g, h> to |f, g, h + f g mod p>; p need not be irreducible when
    the plan is an inner stage of a recursive multiplier.
    """

    def __init__(self, n: int, p: BinaryPoly, modset: ModulusSet,
                 formulas: dict[int, KaratsubaFormula],
                 inner_sets=None, _depth: int = 0):
        if p.degree != n:
            raise GF2Error("modulus degree mismatch")
        if _depth > 2:
            raise GF2Error("recursive multiplication nested too deeply")
        self.n = n
        self.p = p
        self.modset = modset
        self.omega = validate_modulus_set(modset, n)
        qs = crt_constants(modset)
        m = modset.m
        self.factors: list[_Factor] = []
        for (mi, qi) in zip(modset.moduli, qs):
            d = mi.degree
            red = reduction_matrix(mi, n) if d < n else None
            q = LinearMap.of_columns(
                crt_recombination_matrix(qi, m, d, n, p), n)
            inner = None
            formula = None
            if d <= 8:
                formula = formulas[d]
            else:
                if inner_sets is None:
                    raise GF2Error(
                        f"degree-{d} factor needs an inner modulus set")
                inner = ModmultPlan(d, mi, inner_sets(d), formulas,
                                    inner_sets=inner_sets, _depth=_depth + 1)
            self.factors.append(_Factor(
                m=mi, d=d, reduction=red, q=q, formula=formula, inner=inner))
        if self.omega:
            self.h = LinearMap.of_columns(correction_matrix(modset, n, p), n)

    def _emit_modred(self, sink, i, fw, gw):
        """Reduction step i on f, then on g (one block key for both);
        ``i = len(factors)`` is the final step back to no reduction."""
        facs = self.factors
        a = facs[i - 1] if i else None
        b = facs[i] if i < len(facs) else None
        step = (a.reduction if a else None, a.d if a else 0,
                b.reduction if b else None, b.d if b else 0)
        for wires in (fw, gw):
            sink.block(lambda s: emit_reduction_step(s, *step, wires),
                       key=(self, "modred", i))

    def layout(self) -> Circuit:
        """Empty circuit over f, g and h: :func:`multiplier_layout`."""
        return multiplier_layout(self.n)

    def emit(self, sink, fw, gw, hw):
        if not (len(fw) == len(gw) == len(hw) == self.n):
            raise GF2Error("register widths must equal n")
        sink.block(lambda s: self._emit(s, fw, gw, hw), key=(self,))

    def _emit(self, sink, fw, gw, hw):
        n = self.n
        facs = self.factors
        # Q_i sandwich: the inverse is applied before the residue product so
        # the product is added under the recombination map rather than mixed
        # with prior target contents.  Block keys name this plan and a
        # position, so inner plans sharing the sink keep their own.
        for i, fac in enumerate(facs):
            sink.begin_group(f"modred[{i}]")
            self._emit_modred(sink, i, fw, gw)
            sink.end_group()
            sink.begin_group(f"recombine_inv[{i}]")
            fac.q.emit(sink, hw, rev=True, key=(self, "recombine", i))
            sink.end_group()
            if fac.inner is None:
                sink.begin_group(f"kmult[{i}] d={fac.d}")
                emit_kmult(sink, fac.formula, fac.m,
                           fw[:fac.d], gw[:fac.d], hw[:fac.d])
                sink.end_group()
            else:
                sink.begin_group(f"inner_crt[{i}] d={fac.d}")
                fac.inner.emit(sink, fw[:fac.d], gw[:fac.d], hw[:fac.d])
                sink.end_group()
            sink.begin_group(f"recombine[{i}]")
            fac.q.emit(sink, hw, key=(self, "recombine", i))
            sink.end_group()
        sink.begin_group("modred[final]")
        self._emit_modred(sink, len(facs), fw, gw)
        sink.end_group()
        if self.omega:
            sink.begin_group("correction_inv")
            self.h.emit(sink, hw, rev=True, key=(self, "correction"))
            sink.end_group()
            sink.begin_group("correction_coeffs")
            emit_correction(sink, self.omega, n, fw, gw, hw[:self.omega])
            sink.end_group()
            sink.begin_group("correction")
            self.h.emit(sink, hw, key=(self, "correction"))
            sink.end_group()

    def counts(self) -> GateCounts:
        return count_plan(self).counts


def multiplier_layout(n: int) -> Circuit:
    """Empty circuit over the registers of an n-bit multiplier |f, g, h> ->
    |f, g, h + f g>, in wire order; it depends on n alone."""
    return Circuit([Register("f", n), Register("g", n),
                    Register("h", n, "output")])


def emit_over_layout(layout: Circuit, emit, sink=None) -> Circuit:
    """Call ``emit(sink, *wires)`` with the wires of each register of
    ``layout``, in order, and with ``sink`` or else the layout itself as
    the sink; returns the layout.  ``emit`` is a plan's ``emit`` or any
    emitter over registers, such as :func:`emit_addition`."""
    emit(layout if sink is None else sink,
         *(layout.reg(r.name) for r in layout.registers))
    return layout


def count_plan(plan) -> CountSink:
    """``plan`` emitted over its layout into a fresh :class:`CountSink`.

    The sink's counts start as :func:`~binshor.circuit.counts` of the empty
    layout, so the qubit and ancilla fields are the layout's register
    widths; the gate tallies and census are those of the plan's keyed
    block, emitted once per plan into :data:`TALLIES`.
    """
    sink = CountSink()
    layout = plan.layout()
    sink.counts = circuit_counts(layout)
    emit_over_layout(layout, plan.emit, sink)
    return sink


# -- addition chains and inversion -------------------------------------------

@dataclass(frozen=True)
class AdditionChain:
    """Chain from 1 to n-1; decreasing entries mark register-clearing steps.

    ``l`` counts compute (strictly increasing) steps, ``l_tilde`` all steps
    after the leading 1; the workspace multiplier is R = 2l - l_tilde + 1.
    """

    terms: tuple[int, ...]

    def __post_init__(self):
        t = self.terms
        if not t or t[0] != 1:
            raise GF2Error("chain must start at 1")
        live = {1}
        prev = 1
        for v in t[1:]:
            if v > prev:
                if v in live:
                    raise GF2Error(f"term {v} recomputed while live")
                if not any(v - a in live for a in live):
                    raise GF2Error(f"term {v} is not a sum of live terms")
                live.add(v)
            else:
                if v not in live:
                    raise GF2Error(f"clearing step {v} references a dead term")
                if v == 1:
                    raise GF2Error("cannot clear input term 1")
                live.discard(v)
            prev = v
        if self.target not in live:
            raise GF2Error(f"chain target {self.target} is cleared")

    @property
    def target(self) -> int:
        return max(self.terms)

    @property
    def l_tilde(self) -> int:
        return len(self.terms) - 1

    @property
    def l(self) -> int:
        return sum(1 for a, b in zip(self.terms, self.terms[1:]) if b > a)

    @property
    def r_factor(self) -> int:
        return 2 * self.l - self.l_tilde + 1


class InversionPlan:
    """Exponentiation-based modular inversion scheduled by an addition chain.

    With clearing, the interface is |f>|0>^(R n) -> |f>|f^-1>|garbage>|0>^n
    and the multiplication count is l_tilde; without clearing it is l at the
    price of more workspace.

    The schedule is a list of ops on register slots (slot 0 holds f):
    ``("sq", i, k)`` squares slot i k times (k < 0 undoes squarings);
    ``("copy", i, j)`` adds slot i into slot j; ``("mult", a, b, dst, k,
    clear)`` adds the product of slots a and b into dst, which makes a term
    or, with ``clear``, cancels one.  With k > 0, b is a free slot borrowed to
    hold a^(2^k) for the product and returned to 0 after it.
    """

    def __init__(self, field: FieldSpec, chain: AdditionChain,
                 modmult: ModmultPlan, clearing: bool = True):
        if chain.target != field.n - 1:
            raise GF2Error(
                f"chain reaches {chain.target}, need n-1 = {field.n - 1}")
        self.field = field
        self.chain = chain
        self.modmult = modmult
        self.clearing = clearing
        self.n = field.n
        self._plan_schedule()

    # scheduling -------------------------------------------------------------

    def _plan_schedule(self):
        """Dry-run the chain to fix register assignments and op order."""
        schedule: list[tuple] = []
        value: list[int | None] = [1]  # chain term in each slot, None = free
        offset = [0]                   # slot holds <2^value - 1>^(2^offset)
        made = {}  # term -> its factors (a, b); a == b for a doubled term

        def free():
            if None not in value:
                value.append(None)
                offset.append(0)
            return value.index(None)

        def find(v):
            if v not in value:
                raise GF2Error(f"term {v} not live")
            return value.index(v)

        def adjust(i, off):
            if offset[i] != off:
                schedule.append(("sq", i, off - offset[i]))
                offset[i] = off

        def mult(v, dst, clear):
            a, b = made[v]
            ia = find(a)
            adjust(ia, 0)
            if a == b:
                # only a doubled term is squared back before its clearing
                # product: test_synth.py SCHEDULE_DEFECT
                adjust(dst, 0)
                schedule.append(("mult", ia, free(), dst, a, clear))
            else:
                ib = find(b)
                adjust(ib, a)
                schedule.append(("mult", ia, ib, dst, 0, clear))

        prev = 1
        for v in self.chain.terms[1:]:
            if v > prev:
                if v % 2 == 0 and v // 2 in value:
                    made[v] = (v // 2, v // 2)
                else:
                    # added term: prefer the largest live a with v-a live
                    lives = sorted((u for u in value if u is not None),
                                   reverse=True)
                    a = next((a for a in lives
                              if a < v and v - a in lives and a != v - a),
                             None)
                    if a is None:
                        raise GF2Error(f"cannot form {v} from live terms")
                    made[v] = (min(a, v - a), max(a, v - a))
                dst = free()
                value[dst] = v
                mult(v, dst, False)
            elif self.clearing:
                # the clearing product multiplies the factors v was made
                # from; if one was cleared since, mult() raises "not live"
                i = find(v)
                mult(v, i, True)
                value[i], offset[i] = None, 0
            prev = v
        # final squaring turns <2^(n-1) - 1> into <2^n - 2> = the inverse
        res = find(self.chain.target)
        if res == 0:
            # degenerate chain (n = 2): the target power is the input itself;
            # copy it out before the final squaring
            dst = free()
            value[dst] = self.chain.target
            schedule.append(("copy", res, dst))
            res = dst
        adjust(res, 0)
        schedule.append(("sq", res, 1))
        self.result_slot = res
        # the zero-out register of the advertised interface
        self.temp_slot = free()
        self.num_registers = len(value)
        self.mult_calls = sum(op[0] == "mult" for op in schedule)
        self._schedule = schedule

    # emission ----------------------------------------------------------------

    def layout(self) -> Circuit:
        """Empty circuit over the registers f (input, restored) and w (the
        workspace slots, see :meth:`slots`), in wire order."""
        n = self.n
        return Circuit([Register("f", n), Register(
            "w", (self.num_registers - 1) * n, "ancilla-garbage")])

    def slots(self, fw, work) -> list:
        """The wires of each register slot: slot 0 is the input ``fw`` and
        slot i >= 1 the i-th run of n wires of the workspace ``work``."""
        n = self.n
        return [fw] + [work[i * n:(i + 1) * n]
                       for i in range(self.num_registers - 1)]

    def emit(self, sink, fw, work):
        """fw: the n input wires; work: (num_registers - 1) * n workspace
        wires."""
        if len(work) < (self.num_registers - 1) * self.n:
            raise GF2Error("workspace too small for the schedule")
        # the schedule squares by chain terms: their powers of the squaring
        # matrix are composed on one another while the square maps are
        # chosen, and dropped after
        with squaring_powers(self.field):
            sink.block(lambda s: self._emit(s, fw, work), key=(self,))

    def _emit(self, sink, fw, work):
        w = self.slots(fw, work)
        for op in self._schedule:
            if op[0] == "copy":
                emit_addition(sink, w[op[1]], w[op[2]])
            elif op[0] == "sq":
                _, i, k = op
                emit_square(sink, self.field, abs(k), w[i], rev=k < 0)
            else:
                _, a, b, dst, k, clear = op
                if k:
                    sink.begin_group(f"clear double {2 * k}" if clear
                                     else f"double->{2 * k}")
                    emit_addition(sink, w[a], w[b])
                    emit_square(sink, self.field, k, w[b])
                sink.begin_group("modmult (clear)" if clear else "modmult")
                self.modmult.emit(sink, w[a], w[b], w[dst])
                sink.end_group()
                if k:
                    emit_square(sink, self.field, k, w[b], rev=True)
                    emit_addition(sink, w[a], w[b])
                    sink.end_group()

    def counts(self) -> GateCounts:
        return count_plan(self).counts


@cache
def squaring_method(field: FieldSpec, k: int
                    ) -> tuple[str, LinearMap | None, int]:
    """Circuit for k consecutive squarings f -> f^(2^k): one fused circuit
    or k single squarings, whichever is cheaper.

    Returns (method, map, reps): the circuit applies ``map`` in place
    ``reps`` times.  Squaring has order n on GF(2^n), so k counts modulo n
    and a multiple of n is the empty fused circuit.  Comparison is by
    :meth:`LinearMap.cnot_equiv`; ties go to the fused circuit.  The fused
    map's factorisation stops as soon as its fan-in CNOTs alone pass the k
    single squarings' count, since it has lost by then.  Memoised per
    (field, k): the single squaring is factorised once per field.
    """
    k %= field.n
    if k == 0:
        return ("fused", None, 0)
    if k == 1:
        return ("fused", LinearMap.of(squaring_matrix(field, 1)), 1)
    single = squaring_method(field, 1)[1]
    limit = k * single.cnot_equiv()
    fused = LinearMap.of(squaring_matrix(field, k), limit)
    if fused is not None and fused.cnot_equiv() <= limit:
        return ("fused", fused, 1)
    return ("sequential", single, k)


def emit_square(sink, field: FieldSpec, k: int, wires, rev: bool = False):
    """In place |f> -> |f^(2^k)> on ``wires`` (reversed, its inverse) by
    the :func:`squaring_method` choice, in the group ``square^k (method)``;
    each squaring map is the keyed block ``("square", field, k)``."""
    k %= field.n
    if k == 0:
        return
    method, sq, reps = squaring_method(field, k)
    sink.begin_group(f"square^{k} ({method})")
    for _ in range(reps):
        sq.emit(sink, wires, rev=rev, key=("square", field, k))
    sink.end_group()


# -- the plans emitted over their layouts ------------------------------------
# One function per plan, not aliases: perfbench/tracer.py times each by name.

def synth_crt_modmult(plan: ModmultPlan) -> Circuit:
    """The multiplier emitted over its :meth:`ModmultPlan.layout`."""
    return emit_over_layout(plan.layout(), plan.emit)


def synth_flt_inversion(plan: InversionPlan) -> Circuit:
    """The inversion emitted over its :meth:`InversionPlan.layout`; the
    inverse lands in slot ``plan.result_slot``, and slot ``plan.temp_slot``
    is the zero register of the interface (see :meth:`InversionPlan.slots`)."""
    return emit_over_layout(plan.layout(), plan.emit)
