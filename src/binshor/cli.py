"""Command-line entry point: synth, validate, estimate, landscape."""

from __future__ import annotations

import argparse
import random
import sys
from contextlib import contextmanager
from functools import reduce
from operator import or_, xor
from pathlib import Path

from . import pipeline
from .circuit import CircuitWriter, pack_planes, parse, plane_ints
from .gf2 import (BinaryPoly, GF2Error, field_inv, planes_mul_mod,
                  poly_mul_mod)
from .oracle import differ, first_mismatch
from .physical import AVParams, BaselineParams, av_estimate, baseline_estimate
from .shor import (AVWeights, optimize_window, pointadd_cost, round_sig,
                   stream_pointadd_counts)
from .synth import (emit_over_layout, multiplier_layout, synth_crt_modmult,
                    synth_flt_inversion)
from .ecc import (TABLE_CENSUS, ec_add_classical, pointadd_census,
                  slope_for, synth_ecpointadd)

FIELDS = (163, 233, 283, 571)


@contextmanager
def _write_atomic(path: str):
    """An open text file that replaces ``path`` when the block ends.  It is
    a temporary file beside ``path``, removed if the block raises, so a
    failed write leaves neither file."""
    p = Path(path)
    tmp = p.with_suffix(p.suffix + ".tmp")
    try:
        try:
            with open(tmp, "w") as f:
                yield f
            tmp.replace(p)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as e:
        # report the destination the user named, not the temporary file
        raise type(e)(e.errno, e.strerror, path) from None


def _field_arg(args) -> int:
    return BinaryPoly(int(args.poly, 16)).degree if args.poly else args.field


def cmd_synth(args) -> int:
    n = _field_arg(args)
    poly_bits = int(args.poly, 16) if args.poly else None
    if args.counts_only:
        args.emit = None
    report: dict = {"field": n, "target": args.target}
    if args.target == "modmult":
        plan = pipeline.modmult_plan(n, poly_bits)
        report["counts"] = plan.counts().as_dict()
    elif args.target in ("inversion", "inversion-noclear"):
        plan = pipeline.inversion_plan(n, args.target == "inversion", poly_bits)
        report["counts"] = plan.counts().as_dict()
        report["modmult_calls"] = plan.mult_calls
    else:  # ecpointadd
        plan = pipeline.pointadd_plan(n, args.curve_a, args.curve_b, poly_bits)
        streamed = stream_pointadd_counts(plan)
        cost = pointadd_cost(plan)
        report["counts"] = streamed.counts.as_dict()
        report["toffoli_decomposition"] = cost.toffoli
        report["qubits_model"] = cost.qubits
        report["census"] = pointadd_census(streamed.census)
    if args.emit:
        layout = plan.layout()
        if layout.width > args.emit_cap:
            print(f"refusing to emit {layout.width}-qubit circuit "
                  f"(cap {args.emit_cap}); use --counts-only or raise "
                  f"--emit-cap", file=sys.stderr)
            return 2
        with _write_atomic(args.emit) as f:
            writer = CircuitWriter(layout.registers, f)
            emit_over_layout(layout, plan.emit, writer)
            writer.flush()
        report["emitted"] = args.emit
        report["gates"] = writer.written
    import json  # only the commands that print JSON load it

    out = json.dumps(report, indent=2)
    if args.out:
        with _write_atomic(args.out) as f:
            f.write(out)
    else:
        print(out)
    return 0


def _check(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  {detail}" if detail else ""))
    return ok


def _modmult_cases(n: int, exhaustive: bool, rng, samples: int) -> list:
    """(f, g, h) cases: every f, g with h = 0 and then every f, g again with
    a random prior target h, or ``samples`` random triples."""
    if exhaustive:
        pairs = [(f, g) for f in range(1 << n) for g in range(1 << n)]
        return ([(f, g, 0) for f, g in pairs]
                + [(f, g, rng.getrandbits(n)) for f, g in pairs])
    return [(rng.getrandbits(n), rng.getrandbits(n), rng.getrandbits(n))
            for _ in range(samples)]


def modmult_sweep(circ, layout, p: BinaryPoly, cases):
    """The multiplier contract on each (f, g, h) of ``cases``: (f, g, h ^ f*g
    mod p) on the registers of ``layout``, every other wire at 0. Returns
    None or the first failing (index, input, got, want), as whole states."""
    fo, go, ho = (layout.reg(name)[0] for name in "fgh")  # bit offsets
    n = p.degree

    def state(f, g, h):
        return (f << fo) | (g << go) | (h << ho)

    states = [state(*case) for case in cases]
    planes = pack_planes(states, circ.width)
    want = plane_ints(planes)
    prod = planes_mul_mod(want[fo:fo + n], want[go:go + n], p.bits)
    want[ho:ho + n] = map(xor, want[ho:ho + n], prod)
    bad = first_mismatch(circ, planes, len(states),
                         lambda out: differ(out, want))
    if bad is None:
        return None
    i, got = bad
    f, g, h = cases[i]
    prod = poly_mul_mod(BinaryPoly(f), BinaryPoly(g), p).bits
    return i, states[i], got, state(f, g, h ^ prod)


def inversion_sweep(plan, circ, vals):
    """The inversion contract on each nonzero f of ``vals``: f restored, f^-1
    in ``plan.result_slot`` and 0 in ``plan.temp_slot``. Returns None or the
    first failing (index, result slot, f^-1, temp slot)."""
    slots = plan.slots(*map(plan.layout().reg, ("f", "w")))
    fo, ro, to = (slots[i][0] for i in (0, plan.result_slot, plan.temp_slot))
    n, mask = plan.n, (1 << plan.n) - 1
    planes = pack_planes([v << fo for v in vals], circ.width)
    f = plane_ints(planes)[fo:fo + n]
    one = [(1 << len(vals)) - 1] + [0] * (n - 1)  # the planes of 1

    def failing(out):
        # result * f = 1 checks the one inverse without computing it
        return (differ(out[fo:fo + n], f) | reduce(or_, out[to:to + n], 0)
                | differ(planes_mul_mod(out[ro:ro + n], f,
                                        plan.field.p.bits), one))

    bad = first_mismatch(circ, planes, len(vals), failing)
    if bad is None:
        return None
    i, out = bad
    return (i, (out >> ro) & mask,
            field_inv(BinaryPoly(vals[i]), plan.field).bits,
            (out >> to) & mask)


def pointadd_sweep(plan, circ, pts, pairs):
    """The point-addition contract on each (i, j) of ``pairs``: P1 = pts[i]
    becomes P1 + P2 for P2 = pts[j], P2 and its slope in lr are restored and
    the flags, lam, w, s and the MCX ladder end at 0. Returns None or the
    first failing (index, output state)."""
    layout = plan.layout()
    x1, y1, x2, y2, lr = (layout.reg(r)[0] for r in "x1 y1 x2 y2 lr".split())
    tails = [(p.x.bits << x2) | (p.y.bits << y2)
             | (slope_for(p, plan.curve.field).bits << lr) for p in pts]

    def point(p):
        return (p.x.bits << x1) | (p.y.bits << y1)

    sums = [point(ec_add_classical(pts[i], pts[j], plan.curve)) | tails[j]
            for i, j in pairs]
    want = plane_ints(pack_planes(sums, circ.width))
    return first_mismatch(
        circ, pack_planes([point(pts[i]) | tails[j] for i, j in pairs],
                          circ.width),
        len(pairs), lambda out: differ(out, want))


def _validate_circuit_file(args, exhaustive: bool) -> int:
    """Check a serialized circuit against the modular-multiplication oracle."""
    n = args.field
    field = pipeline.field_for(n)
    layout = multiplier_layout(n)
    with open(args.circuit, "rb") as f:
        circ = parse(f)
    if circ.width < layout.width:
        raise GF2Error(f"{args.circuit} has {circ.width} qubits; a field-{n} "
                       f"multiplier needs at least {layout.width}")
    rng = random.Random(args.seed)
    cases = _modmult_cases(n, exhaustive, rng, args.samples)
    bad = modmult_sweep(circ, layout, field.p, cases)
    ok = _check("circuit file vs modmult oracle", bad is None,
                "" if bad is None else "counterexample input={} got={} "
                "want={}".format(*(bin(s)[2:].zfill(circ.width)[::-1]
                                   for s in bad[1:])))
    return 0 if ok else 1


def cmd_validate(args) -> int:
    if args.samples < 1:
        raise GF2Error(f"--samples must be at least 1, got {args.samples}")
    n = args.field
    exhaustive = args.mode == "exhaustive" and 3 * n <= args.exhaustive_cap
    if args.circuit:
        return _validate_circuit_file(args, exhaustive)
    rng = random.Random(args.seed)
    # builds the curve, so bad coefficients exit before any sweep at every n
    pa = pipeline.pointadd_plan(n, args.curve_a, args.curve_b)
    plan = pipeline.modmult_plan(n)
    all_ok = True
    if args.mode == "exhaustive" and not exhaustive:
        print(f"refusing exhaustive mode: 3n = {3 * n} qubits exceeds the cap "
              f"{args.exhaustive_cap}; running sampled mode instead")
    cases = _modmult_cases(n, exhaustive, rng, args.samples)
    label = ("modmult exhaustive" if exhaustive
             else f"modmult sampled ({args.samples})")
    bad = modmult_sweep(synth_crt_modmult(plan), plan.layout(), plan.p, cases)
    all_ok &= _check(label, bad is None,
                     "" if bad is None else "counterexample f={:#x} g={:#x} "
                     "h={:#x} -> {:#x}".format(*cases[bad[0]], bad[2]))
    inv_plan = pipeline.inversion_plan(n)
    if exhaustive:
        vals = list(range(1, 1 << n))
        label = "inversion exhaustive"
    else:
        vals = [rng.randrange(1, 1 << n) for _ in range(args.samples // 10 + 1)]
        label = f"inversion sampled ({len(vals)})"
    bad = inversion_sweep(inv_plan, synth_flt_inversion(inv_plan), vals)
    all_ok &= _check(label, bad is None, "" if bad is None else
                     "f={:#x} got {:#x} want {:#x}".format(vals[bad[0]],
                                                          *bad[1:3])
                     + (f" temp {bad[3]:#x}" if bad[3] else ""))
    # point addition on the toy curve (only for small fields)
    if n <= 8:
        pcirc = synth_ecpointadd(pa)
        pts = pa.curve.points()
        if exhaustive:
            pairs = [(i, j) for i in range(len(pts)) for j in range(len(pts))]
            label = f"point addition exhaustive ({len(pts)}^2 pairs)"
        else:
            pairs = [(rng.randrange(len(pts)), rng.randrange(len(pts)))
                     for _ in range(args.samples)]
            label = f"point addition sampled ({args.samples} pairs)"
        bad = pointadd_sweep(pa, pcirc, pts, pairs)
        all_ok &= _check(label, bad is None, "" if bad is None else
                         "P1=({0.x},{0.y}) P2=({1.x},{1.y}) out={2:#x}".format(
                             *(pts[i] for i in pairs[bad[0]]), bad[1]))
        census = pointadd_census(stream_pointadd_counts(pa).census)
        all_ok &= _check("point addition census", census == TABLE_CENSUS,
                         str(census))
    return 0 if all_ok else 1


def _scenarios(args):
    if args.field == "all":
        fields = FIELDS
    else:
        fields = tuple(int(f) for f in str(args.field).split(",") if f.strip())
    precomps = tuple(int(p) for p in args.precomp.split(",") if p.strip())
    return fields, precomps


def cmd_estimate(args) -> int:
    weights = AVWeights.load_default()
    fields, precomps = _scenarios(args)
    rows = []
    for n in fields:
        plan = pipeline.pointadd_plan(n)
        pa = pointadd_cost(plan, weights)
        for pre in precomps:
            s_t, cost_t, _ = optimize_window(n, pa, "toffoli", pre)
            s_a, cost_a, _ = optimize_window(n, pa, "active_volume", pre,
                                             weights=weights)
            if args.arch in ("baseline", "both"):
                for cycle in (float(c) for c in args.cycle.split(",")):
                    est = baseline_estimate(cost_t.qubits, cost_t.toffoli,
                                            BaselineParams(code_cycle_time=cycle))
                    rows.append({
                        "field": n, "precomp": pre, "architecture": "baseline",
                        "cycle": cycle, "window": s_t,
                        "toffoli": round_sig(cost_t.toffoli),
                        "logical_qubits": cost_t.qubits,
                        "d": est.distance,
                        "device_size": round_sig(est.device_size),
                        "runtime_seconds": est.runtime_avg,
                        "runtime_display": est.runtime_display,
                    })
            if args.arch in ("av", "both"):
                for delay in (float(d) for d in args.delay.split(",")):
                    est = av_estimate(cost_a.active_volume, cost_a.qubits,
                                      AVParams(delay=delay))
                    rows.append({
                        "field": n, "precomp": pre, "architecture": "active-volume",
                        "delay": delay, "window": s_a,
                        "active_volume": round_sig(cost_a.active_volume),
                        "logical_qubits": cost_a.qubits,
                        "d": est.distance,
                        "device_size": est.device_size,
                        "runtime_seconds": est.runtime_avg,
                        "runtime_display": est.runtime_display,
                    })
    if not rows:
        print("warning: empty scenario list; nothing to do", file=sys.stderr)
        return 0
    import json

    report = json.dumps(rows, indent=2)
    if args.out:
        with _write_atomic(args.out) as f:
            f.write(report)
    else:
        print(report)
    if args.csv:
        lines = ["field,precomp,architecture,param,d,device_size,runtime_display"]
        for r in rows:
            param = r.get("cycle", r.get("delay"))
            lines.append(f"{r['field']},{r['precomp']},{r['architecture']},"
                         f"{param},{r['d']},{r['device_size']},"
                         f"{r['runtime_display']}")
        with _write_atomic(args.csv) as f:
            f.write("\n".join(lines) + "\n")
    return 0


def cmd_landscape(args) -> int:
    weights = AVWeights.load_default()
    n = args.field
    plan = pipeline.pointadd_plan(n)
    pa = pointadd_cost(plan, weights)
    pre = int(args.precomp)
    _, _, landscape = optimize_window(n, pa, "toffoli", pre, weights=weights)
    lines = ["s,toffoli,active_volume"]
    for s, tof, av in landscape:
        lines.append(f"{s},{tof},{av}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with _write_atomic(args.out) as f:
            f.write(text)
    else:
        print(text, end="")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="binshor",
        description="Reversible-circuit compiler and resource estimator for "
                    "binary-curve discrete logarithms")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a circuit / report counts")
    p.add_argument("--field", type=int, default=163)
    p.add_argument("--poly", help="custom field polynomial, hex bit-vector")
    p.add_argument("--target", default="modmult",
                   choices=["modmult", "inversion", "inversion-noclear",
                            "ecpointadd"])
    p.add_argument("--curve-a", type=lambda s: int(s, 16), default=1)
    p.add_argument("--curve-b", type=lambda s: int(s, 16), default=1)
    p.add_argument("--emit", help="write the serialized circuit here")
    p.add_argument("--emit-cap", type=int, default=400,
                   help="refuse to serialize circuits wider than this")
    p.add_argument("--counts-only", action="store_true")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("validate", help="run oracle sweeps")
    p.add_argument("--field", type=int, default=4)
    p.add_argument("--mode", choices=["exhaustive", "sampled"],
                   default="exhaustive")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--exhaustive-cap", type=int, default=24,
                   help="max total qubits for exhaustive mode")
    p.add_argument("--curve-a", type=lambda s: int(s, 16), default=0)
    p.add_argument("--curve-b", type=lambda s: int(s, 16), default=1)
    p.add_argument("--circuit",
                   help="check this serialized circuit against the oracle "
                        "instead of running the module sweeps")
    p.add_argument("--seed", type=int, default=20240808)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("estimate", help="logical -> physical estimates")
    p.add_argument("--field", default="all")
    p.add_argument("--arch", choices=["baseline", "av", "both"], default="both")
    p.add_argument("--precomp", default="0,48")
    p.add_argument("--cycle", default="1e-6,1e-3")
    p.add_argument("--delay", default="1e-6,1e-5")
    p.add_argument("--out", help="JSON report path")
    p.add_argument("--csv", help="CSV matrix path")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("landscape", help="cost-vs-window-size CSV")
    p.add_argument("--field", type=int, required=True)
    p.add_argument("--precomp", default="0")
    p.add_argument("--out")
    p.set_defaults(func=cmd_landscape)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (GF2Error, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
