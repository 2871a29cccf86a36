"""Acceptance suite: every criterion asserted at its stated tolerance and
reported as one pass/fail line (run with ``pytest -s`` to see the lines)."""

import itertools
import random
import time

from binshor.circuit import Circuit, Register, counts, simulate
from binshor.cli import inversion_sweep, modmult_sweep, pointadd_sweep
from binshor.datafiles import load_chain, load_formula
from binshor.ecc import (
    TABLE_CENSUS,
    pointadd_census,
    synth_ecpointadd,
)
from binshor.gf2 import BinaryPoly, enumerate_irreducibles, poly_mul_mod
from binshor.pipeline import (
    field_for,
    inversion_plan,
    modmult_plan,
    pointadd_plan,
)
from binshor.physical import AVParams, BaselineParams, av_estimate, baseline_estimate
from binshor.shor import (
    AVWeights,
    optimize_window,
    pointadd_cost,
    round_sig,
    stream_pointadd_counts,
)
from binshor.synth import (
    LinearMap,
    emit_addition,
    emit_correction,
    emit_kmult,
    emit_over_layout,
    emit_square,
    multiplier_layout,
    synth_crt_modmult,
    synth_flt_inversion,
)
from binshor.linalg import reduction_matrix
from helpers import (const_mul_matrix, emit_cnot_matrix,
                     first_mismatch_by_case)

FIELDS = (163, 233, 283, 571)

TABLE_MODMULT = {163: (110956, 300, 999), 233: (225402, 448, 1448),
                 283: (325206, 618, 1776), 571: (1287610, 2208, 3860)}
TABLE_INV = {163: (14, 13986), 233: (16, 23168), 283: (18, 31968),
             571: (20, 77200)}
TABLE_INV_NOCLEAR = {163: (9, 8991), 233: (10, 14480), 283: (11, 19536),
                     571: (12, 46320)}
TABLE_PA_TOFFOLI = {163: 7.13e4, 233: 1.15e5, 283: 1.55e5, 571: 3.65e5}
TABLE_PA_QUBITS = {163: 1963, 233: 2803, 283: 3403, 571: 6859}
TABLE_PE = {163: (13, 2.05e6), 571: (16, 3.09e7)}
TABLE_PE_PRE = {163: (13, 1.42e6), 571: (15, 2.78e7)}
S_TOFFOLI = {163: 13, 233: 13, 283: 15, 571: 16}
S_PRECOMP = {163: 13, 233: 14, 283: 14, 571: 15}
TABLE_AV_MM = {163: 4.91e5, 233: 9.70e5, 283: 1.38e6, 571: 5.33e6}
TABLE_AV_INV = {163: 7.26e6, 233: 1.61e7, 283: 2.65e7, 571: 1.14e8}
TABLE_AV_PA = {163: 3.33e7, 233: 7.29e7, 283: 1.18e8, 571: 5.01e8}


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_modmult_counts(field_plans):
    t0 = time.time()
    details = []
    ok = True
    for n in FIELDS:
        c = field_plans[n]["modmult"].counts()
        cn, sw, tf = TABLE_MODMULT[n]
        if n == 163:
            ok &= c.toffoli == tf
        else:
            ok &= abs(c.toffoli - tf) / tf <= 0.01
        ok &= abs(c.cnot - cn) / cn <= 0.05
        ok &= abs(c.swap - sw) / sw <= 0.05
        details.append(f"n={n}: toffoli {c.toffoli}/{tf}, cnot {c.cnot}/{cn}, "
                       f"swap {c.swap}/{sw}")
    report(1, ok, "; ".join(details) + f" ({time.time() - t0:.1f}s)")


def test_criterion_2_inversion_identity(field_plans):
    ok = True
    details = []
    for n in FIELDS:
        mm_t = field_plans[n]["modmult"].counts().toffoli
        for key, table in (("inversion", TABLE_INV),
                           ("inversion_noclear", TABLE_INV_NOCLEAR)):
            plan = field_plans[n][key]
            mults, tof = table[n]
            got = plan.counts().toffoli
            ok &= plan.mult_calls == mults
            ok &= got == plan.mult_calls * mm_t
            if n == 163:
                ok &= got == tof
            else:
                ok &= abs(got - tof) / tof <= 0.01
        details.append(f"n={n}: {TABLE_INV[n][0]}x{mm_t}="
                       f"{TABLE_INV[n][0] * mm_t}")
    report(2, ok, "; ".join(details))


def test_criterion_3_pointadd(field_plans):
    ok = True
    details = []
    for n in FIELDS:
        plan = field_plans[n]["pointadd"]
        cost = pointadd_cost(plan)
        inv_t = field_plans[n]["inversion"].counts().toffoli
        mm_t = field_plans[n]["modmult"].counts().toffoli
        formula = 4 * inv_t + 8 * mm_t + 39 * (n - 1) + 6 * n
        ok &= cost.toffoli == formula
        tab = TABLE_PA_TOFFOLI[n]
        # three significant figures up to display rounding of the table value
        ok &= (round_sig(cost.toffoli) == tab
               or abs(cost.toffoli - tab) / tab <= 0.002)
        ok &= cost.qubits == 12 * n + 7 == TABLE_PA_QUBITS[n]
        census = pointadd_census(stream_pointadd_counts(plan).census)
        ok &= census == TABLE_CENSUS
        details.append(f"n={n}: toffoli {cost.toffoli:.0f} vs {tab:.3g}, "
                       f"qubits {cost.qubits}")
    report(3, ok, "; ".join(details) + "; census == table for all fields")


def test_criterion_4_phase_estimation(field_plans):
    ok = True
    details = []
    for n in FIELDS:
        pa = pointadd_cost(field_plans[n]["pointadd"])
        s_t, cost_t, _ = optimize_window(n, pa, "toffoli")
        s_p, cost_p, _ = optimize_window(n, pa, "toffoli", precomputed_bits=48)
        ok &= s_t == S_TOFFOLI[n]
        ok &= s_p == S_PRECOMP[n]
        ok &= cost_t.qubits == 13 * n + 7
        if n in TABLE_PE:
            ok &= round_sig(cost_t.toffoli) == TABLE_PE[n][1]
            ok &= round_sig(cost_p.toffoli) == TABLE_PE_PRE[n][1]
        details.append(f"n={n}: s={s_t}/{s_p}, toffoli "
                       f"{round_sig(cost_t.toffoli):.3g}, qubits {cost_t.qubits}")
    report(4, ok, "; ".join(details))


def test_criterion_5_baseline_physical():
    table = {163: (2126, 2.05e6, 24, 2.45e6, 3.6),
             233: (3036, 4.42e6, 25, 3.79e6, 8.2),
             283: (3686, 7.09e6, 26, 4.98e6, 13.7),
             571: (7430, 3.09e7, 28, 1.16e7, 64.1)}
    ok = True
    details = []
    for n, (n_q, tof, d, size, minutes) in table.items():
        est = baseline_estimate(n_q, tof)
        ok &= est.distance == d
        # 3 sig figs up to half a display ULP (two rows sit exactly on the
        # x.xx5 rounding boundary)
        ok &= abs(est.device_size - size) / size <= 0.005
        ok &= abs(est.runtime_avg / 60 - minutes) <= 0.1
        slow = baseline_estimate(n_q, tof, BaselineParams(code_cycle_time=1e-3))
        ok &= abs(slow.runtime_avg / 86400 - minutes * 1000 / 1440) <= 0.1
        details.append(f"n={n}: d={est.distance}, {est.device_size:.3g} qubits, "
                       f"{est.runtime_display}")
    report(5, ok, "; ".join(details))


def test_criterion_6_av_physical():
    table = {163: (9.50e8, 2126, 22, 2058, 206, 10.9 / 60),
             233: (2.78e9, 3036, 23, 3213, 322, 23.4 / 60),
             283: (5.30e9, 3686, 23, 3900, 390, 36.7 / 60),
             571: (4.22e10, 7430, 25, 9288, 929, 2.6)}
    starred = {163: (6.43e8, 21, 1876, 188, 7.0 / 60),
               233: (2.24e9, 22, 2939, 294, 18.0 / 60),
               283: (4.31e9, 23, 3900, 390, 29.9 / 60),
               571: (3.78e10, 25, 9288, 929, 2.4)}
    ok = True
    details = []
    for n, (b_av, n_q, d, m1, m10, minutes) in table.items():
        est = av_estimate(b_av, n_q)
        ok &= est.distance == d
        ok &= abs(est.device_size - m1) <= 1
        ok &= abs(est.runtime_avg / 60 - minutes) <= 0.1
        est10 = av_estimate(b_av, n_q, AVParams(delay=1e-5))
        ok &= abs(est10.device_size - m10) <= 1
        b_av_s, d_s, m1_s, m10_s, min_s = starred[n]
        est_s = av_estimate(b_av_s, n_q)
        ok &= est_s.distance == d_s
        ok &= abs(est_s.device_size - m1_s) <= 1
        ok &= abs(est_s.runtime_avg / 60 - min_s) <= 0.1
        est_s10 = av_estimate(b_av_s, n_q, AVParams(delay=1e-5))
        ok &= abs(est_s10.device_size - m10_s) <= 1
        details.append(f"n={n}: d={est.distance}/{est_s.distance}, "
                       f"modules {est.device_size}/{est_s.device_size}")
    report(6, ok, "; ".join(details))


def _sweep(circ, cases, oracle):
    inputs = list(cases)
    bad = first_mismatch_by_case(circ, inputs,
                                 lambda i, o: o == oracle(inputs[i]))
    if bad is None:
        return None
    v, o = inputs[bad[0]], bad[1]
    return f"input {v:#x}: got {o:#x}, want {oracle(v):#x}"


def test_criterion_7_oracle_suite():
    t0 = time.time()
    rng = random.Random(7)
    failures = []

    # exhaustive arithmetic for n <= 5
    for n in (2, 3, 4, 5):
        field = field_for(n)
        p = field.p
        mask = (1 << n) - 1

        c = emit_over_layout(Circuit([Register("f", n), Register("g", n)]),
                             emit_addition)
        bad = _sweep(c, range(1 << (2 * n)),
                     lambda v: (v & mask) | ((((v >> n) ^ v) & mask) << n))
        if bad:
            failures.append(f"addition n={n}: {bad}")

        h = BinaryPoly((rng.getrandbits(n) | 1) & mask)
        M = const_mul_matrix(h, field)
        c = emit_over_layout(Circuit([Register("g", n), Register("f", n)]),
                             lambda s, g, f: emit_cnot_matrix(s, M, g, f))
        bad = _sweep(c, range(1 << (2 * n)), lambda v: (v & mask) | (
            (((v >> n) ^ poly_mul_mod(BinaryPoly(v & mask), h, p).bits) & mask)
            << n))
        if bad:
            failures.append(f"out-of-place mul n={n}: {bad}")

        c = emit_over_layout(Circuit([Register("f", n)]),
                             LinearMap.of(M).emit)
        bad = _sweep(c, range(1 << n),
                     lambda v: poly_mul_mod(BinaryPoly(v), h, p).bits)
        if bad:
            failures.append(f"in-place mul n={n}: {bad}")

        mi = enumerate_irreducibles(min(n - 1, 3))[0]
        red = reduction_matrix(mi, n)
        d = mi.degree
        c = emit_over_layout(
            Circuit([Register("g", n - d), Register("f", d)]),
            lambda s, g, f: emit_cnot_matrix(s, red, g, f))
        # register layout: the (n-d)-wide high part first, then the d-wide
        # low part that the reduction folds into
        hi_mask = (1 << (n - d)) - 1
        bad = _sweep(c, range(1 << n), lambda v: (
            (v & hi_mask) | ((((v >> (n - d)))
                              ^ red.mat_vec(v & hi_mask)) << (n - d))))
        if bad:
            failures.append(f"reduction n={n}: {bad}")

        for k in (1, 2, n):
            c = emit_over_layout(
                Circuit([Register("f", n)]),
                lambda s, f: emit_square(s, field, k, f))
            def oracle_sq(v, k=k):
                b = BinaryPoly(v)
                for _ in range(k):
                    b = poly_mul_mod(b, b, p)
                return b.bits
            bad = _sweep(c, range(1 << n), oracle_sq)
            if bad:
                failures.append(f"squaring n={n} k={k}: {bad}")

        plan = modmult_plan(n)
        cases = (list(itertools.product(range(1 << n), repeat=3))
                 if 3 * n <= 12 else
                 [(rng.getrandbits(n), rng.getrandbits(n), rng.getrandbits(n))
                  for _ in range(4096)])
        bad = modmult_sweep(synth_crt_modmult(plan), plan.layout(), p, cases)
        if bad:
            failures.append(f"modmult n={n}: {bad}")

        for clearing in (True, False):
            plan = inversion_plan(n, clearing)
            bad = inversion_sweep(plan, synth_flt_inversion(plan),
                                  list(range(1, 1 << n)))
            if bad:
                failures.append(f"inversion n={n} clearing={clearing}: {bad}")

    # split multipliers d <= 5, exhaustive per degree
    for d in (2, 3, 4, 5):
        f = load_formula(d)
        mi = enumerate_irreducibles(d)[0]
        c = emit_over_layout(multiplier_layout(d),
                             lambda s, *w: emit_kmult(s, f, mi, *w))
        bad = _sweep(c, range(1 << min(3 * d, 14)), lambda v: (
            (v & ((1 << d) - 1)) | (v >> d & ((1 << d) - 1)) << d | (
                ((v >> 2 * d) ^ poly_mul_mod(
                    BinaryPoly(v & ((1 << d) - 1)),
                    BinaryPoly((v >> d) & ((1 << d) - 1)), mi).bits)
                << 2 * d)))
        if bad:
            failures.append(f"kmult d={d}: {bad}")

    # correction circuit omega <= 4, exhaustive at n = 6
    for omega in (1, 2, 3, 4):
        circ = emit_over_layout(
            Circuit([Register("f", 6), Register("g", 6),
                     Register("t", omega, "output")]),
            lambda s, *w: emit_correction(s, omega, 6, *w))
        def oracle_corr(v, omega=omega):
            f, g, t = v & 63, (v >> 6) & 63, v >> 12
            out = 0
            for k in range(omega):
                acc = 0
                for i in range(6 - 1 - k, 6):
                    acc ^= ((f >> i) & (g >> i)) & 1
                for i in range(6):
                    j = 2 * 6 - 2 - k - i
                    if 0 <= j < i < 6:
                        acc ^= ((((f >> i) ^ (f >> j))
                                 & ((g >> i) ^ (g >> j))) & 1)
                out |= acc << (omega - 1 - k)
            return f | (g << 6) | ((t ^ out) << 12)
        cases = [f | (g << 6) | (rng.getrandbits(omega) << 12)
                 for f in range(64) for g in range(64)]
        bad = _sweep(circ, cases, oracle_corr)
        if bad:
            failures.append(f"correction omega={omega}: {bad}")

    # sampled checks at n = 8 and 16
    for n in (8, 16):
        plan = modmult_plan(n)
        cases = [(rng.getrandbits(n), rng.getrandbits(n), rng.getrandbits(n))
                 for _ in range(1000)]
        bad = modmult_sweep(synth_crt_modmult(plan), plan.layout(),
                            field_for(n).p, cases)
        if bad:
            failures.append(f"modmult n={n}: {bad}")
        draws = [rng.getrandbits(n) for _ in range(1000 if n == 8 else 300)]
        plan = inversion_plan(n, True)
        bad = inversion_sweep(plan, synth_flt_inversion(plan),
                              [v for v in draws if v])
        if bad:
            failures.append(f"inversion n={n}: {bad}")

    # point addition: exhaustive over both toy curves, all ancillas clean
    for n, a, b in ((4, 0, 1), (5, 2, 3)):
        plan = pointadd_plan(n, a, b)
        pts = plan.curve.points()
        pairs = list(itertools.product(range(len(pts)), repeat=2))
        if pointadd_sweep(plan, synth_ecpointadd(plan), pts, pairs):
            failures.append(f"point addition n={n}")

    elapsed = time.time() - t0
    report(7, not failures and elapsed < 600,
           f"oracle suite clean in {elapsed:.0f}s"
           + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_8_structural(field_plans):
    rng = random.Random(8)
    ok = True
    # reversal identity on shipped circuits (sampled)
    for n in (3, 4, 5):
        for circ in (synth_crt_modmult(modmult_plan(n)),
                     synth_flt_inversion(inversion_plan(n, True)),
                     synth_ecpointadd(pointadd_plan(n, 0 if n == 4 else 1, 1))):
            rev = circ.reversed()
            for _ in range(50):
                v = rng.getrandbits(circ.width)
                ok &= simulate(rev, simulate(circ, v)) == v
    # counts additivity
    a = emit_over_layout(Circuit([Register("f", 5), Register("g", 5)]),
                         emit_addition)
    b = emit_over_layout(Circuit([Register("f", 5), Register("g", 5)]),
                         emit_addition)
    merged = Circuit(list(a.registers))
    merged.extend(a)
    merged.extend(b)
    ok &= counts(merged).cnot == counts(a).cnot + counts(b).cnot
    # R = 2l - l~ + 1 = 5 for every shipped chain
    for n in FIELDS:
        ch = load_chain(n)
        ok &= ch.r_factor == 2 * ch.l - ch.l_tilde + 1 == 5
        ok &= field_plans[n]["inversion"].num_registers - 1 == 5
    report(8, ok, "reversal identity, counts additivity, R factors = 5")


def test_criterion_9_av_calibration(field_plans):
    weights = AVWeights.load_default()
    ok = True
    details = []
    for n in FIELDS:
        mm = field_plans[n]["modmult"].counts()
        inv = field_plans[n]["inversion"].counts()
        mm_av = (weights["cnot"] * mm.cnot + weights["swap"] * mm.swap
                 + weights["toffoli"] * mm.toffoli)
        inv_av = (weights["cnot"] * inv.cnot + weights["swap"] * inv.swap
                  + weights["toffoli"] * inv.toffoli)
        pa = pointadd_cost(field_plans[n]["pointadd"], weights)
        ok &= abs(mm_av - TABLE_AV_MM[n]) / TABLE_AV_MM[n] <= 0.05
        ok &= abs(inv_av - TABLE_AV_INV[n]) / TABLE_AV_INV[n] <= 0.20
        ok &= abs(pa.active_volume - TABLE_AV_PA[n]) / TABLE_AV_PA[n] <= 0.20
        details.append(
            f"n={n}: mm {100 * (mm_av / TABLE_AV_MM[n] - 1):+.1f}%, "
            f"inv {100 * (inv_av / TABLE_AV_INV[n] - 1):+.1f}%, "
            f"pa {100 * (pa.active_volume / TABLE_AV_PA[n] - 1):+.1f}%")
    report(9, ok, "; ".join(details))


def test_av_weights_are_the_multiplier_fit(field_plans):
    # cnot, swap and toffoli in av_weights.txt are, to 6 decimals, the
    # relative least-squares fit of the four multipliers' counts to
    # TABLE_AV_MM: each row is counts_n / total_n, fitted to 1
    import numpy as np

    rows = []
    for n in FIELDS:
        c = field_plans[n]["modmult"].counts()
        rows.append([c.cnot / TABLE_AV_MM[n], c.swap / TABLE_AV_MM[n],
                     c.toffoli / TABLE_AV_MM[n]])
    fit, *_ = np.linalg.lstsq(np.array(rows), np.ones(len(FIELDS)),
                              rcond=None)
    shipped = AVWeights.load_default()
    assert ([round(float(w), 6) for w in fit]
            == [shipped[k] for k in ("cnot", "swap", "toffoli")])
