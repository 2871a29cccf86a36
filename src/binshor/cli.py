"""Command-line entry point: synth, validate, estimate, landscape."""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import pipeline
from .circuit import serialize
from .gf2 import BinaryPoly, GF2Error, field_inv, poly_mul_mod
from .oracle import first_mismatch
from .physical import AVParams, BaselineParams, av_estimate, baseline_estimate
from .shor import (AVWeights, optimize_window, pointadd_cost, round_sig,
                   stream_pointadd_counts)
from .synth import multiplier_layout, synth_crt_modmult, synth_flt_inversion
from .ecc import (TABLE_CENSUS, ec_add_classical, pointadd_census,
                  slope_for, synth_ecpointadd)

FIELDS = (163, 233, 283, 571)


def _write_atomic(path: str, text: str):
    p = Path(path)
    tmp = p.with_suffix(p.suffix + ".tmp")
    try:
        tmp.write_text(text)
        tmp.replace(p)
    except OSError as e:
        # report the destination the user named, not the temporary file
        raise type(e)(e.errno, e.strerror, path) from None


def _field_arg(args) -> int:
    if args.poly:
        bits = int(args.poly, 16)
        return BinaryPoly(bits).degree
    return args.field


def cmd_synth(args) -> int:
    n = _field_arg(args)
    poly_bits = int(args.poly, 16) if args.poly else None
    if args.counts_only:
        args.emit = None
    report: dict = {"field": n, "target": args.target}
    if args.target == "modmult":
        plan = pipeline.modmult_plan(n, poly_bits)
        report["counts"] = plan.counts().as_dict()
        circ = synth_crt_modmult(plan) if args.emit else None
    elif args.target in ("inversion", "inversion-noclear"):
        plan = pipeline.inversion_plan(n, args.target == "inversion", poly_bits)
        report["counts"] = plan.counts().as_dict()
        report["modmult_calls"] = plan.mult_calls
        circ = synth_flt_inversion(plan) if args.emit else None
    elif args.target == "ecpointadd":
        plan = pipeline.pointadd_plan(n, args.curve_a, args.curve_b, poly_bits)
        streamed = stream_pointadd_counts(plan)
        cost = pointadd_cost(plan)
        report["counts"] = streamed.counts.as_dict()
        report["toffoli_decomposition"] = cost.toffoli
        report["qubits_model"] = cost.qubits
        report["census"] = pointadd_census(streamed.census)
        circ = synth_ecpointadd(plan) if args.emit else None
    else:
        print(f"unknown target {args.target!r}", file=sys.stderr)
        return 2
    if args.emit:
        if circ.width > args.emit_cap:
            print(f"refusing to emit {circ.width}-qubit circuit "
                  f"(cap {args.emit_cap}); use --counts-only or raise "
                  f"--emit-cap", file=sys.stderr)
            return 2
        _write_atomic(args.emit, serialize(circ))
        report["emitted"] = args.emit
        report["gates"] = len(circ.gates)
    out = json.dumps(report, indent=2)
    if args.out:
        _write_atomic(args.out, out)
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


def _modmult_sweep(circ, layout, cases, p: BinaryPoly):
    """First (index, input, got, want) where ``circ`` is not h ^= f*g mod p
    on the registers f, g and h of the multiplier ``layout``, or None."""
    fo, go, ho = (layout.reg(name)[0] for name in "fgh")  # bit offsets

    def state(f, g, h):
        return (f << fo) | (g << go) | (h << ho)

    def want(i):
        f, g, h = cases[i]
        prod = poly_mul_mod(BinaryPoly(f), BinaryPoly(g), p).bits
        return state(f, g, h ^ prod)

    states = [state(*case) for case in cases]
    bad = first_mismatch(circ, states, lambda i, out: out == want(i))
    return None if bad is None else (bad[0], states[bad[0]], bad[1],
                                     want(bad[0]))


def _validate_circuit_file(args, exhaustive: bool) -> int:
    """Check a serialized circuit against the modular-multiplication oracle."""
    from .circuit import parse

    n = args.field
    field = pipeline.field_for(n)
    layout = multiplier_layout(n)
    text = Path(args.circuit).read_text()
    circ = parse(text)
    if circ.width < layout.width:
        raise GF2Error(f"{args.circuit} has {circ.width} qubits; a field-{n} "
                       f"multiplier needs at least {layout.width}")
    rng = random.Random(args.seed)
    cases = _modmult_cases(n, exhaustive, rng, args.samples)
    bad = _modmult_sweep(circ, layout, cases, field.p)
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
    field = pipeline.field_for(n)
    plan = pipeline.modmult_plan(n)
    all_ok = True
    if args.mode == "exhaustive" and not exhaustive:
        print(f"refusing exhaustive mode: 3n = {3 * n} qubits exceeds the cap "
              f"{args.exhaustive_cap}; running sampled mode instead")
    circ = synth_crt_modmult(plan)
    cases = _modmult_cases(n, exhaustive, rng, args.samples)
    label = ("modmult exhaustive" if exhaustive
             else f"modmult sampled ({args.samples})")
    bad = _modmult_sweep(circ, circ, cases, field.p)
    all_ok &= _check(label, bad is None,
                     "" if bad is None else "counterexample f={:#x} g={:#x} "
                     "h={:#x} -> {:#x}".format(*cases[bad[0]], bad[2]))
    # inversion sweep: f restored, its inverse in the result slot and the
    # temp slot back at 0
    inv_plan = pipeline.inversion_plan(n)
    icirc = synth_flt_inversion(inv_plan)
    slots = inv_plan.slots(icirc.reg("f"), icirc.reg("w"))
    fo, ro, to = (slots[i][0] for i in (0, inv_plan.result_slot,
                                         inv_plan.temp_slot))
    mask = (1 << n) - 1
    if exhaustive:
        vals = list(range(1, 1 << n))
        label = "inversion exhaustive"
    else:
        vals = [rng.randrange(1, 1 << n) for _ in range(args.samples // 10 + 1)]
        label = f"inversion sampled ({len(vals)})"

    def inverted(i, out):
        return ((out >> fo) & mask == vals[i] and (out >> to) & mask == 0
                and (out >> ro) & mask
                == field_inv(BinaryPoly(vals[i]), field).bits)

    bad = first_mismatch(icirc, [v << fo for v in vals], inverted)
    detail = ""
    if bad is not None:
        v, out = vals[bad[0]], bad[1]
        temp = (out >> to) & mask
        detail = (f"f={v:#x} got {(out >> ro) & mask:#x} want "
                  f"{field_inv(BinaryPoly(v), field).bits:#x}"
                  + (f" temp {temp:#x}" if temp else ""))
    all_ok &= _check(label, bad is None, detail)
    # point addition on the toy curve (only for small fields)
    if n <= 8:
        pa = pipeline.pointadd_plan(n, args.curve_a, args.curve_b)
        pcirc = synth_ecpointadd(pa)
        pts = pa.curve.points()
        if exhaustive:
            pairs = [(i, j) for i in range(len(pts)) for j in range(len(pts))]
            label = f"point addition exhaustive ({len(pts)}^2 pairs)"
        else:
            pairs = [(rng.randrange(len(pts)), rng.randrange(len(pts)))
                     for _ in range(args.samples)]
            label = f"point addition sampled ({args.samples} pairs)"
        # P2 and its slope ride through unchanged; P1 becomes P1 + P2
        x1, y1, x2, y2, lr = (pcirc.reg(name)[0] for name in (
            "x1", "y1", "x2", "y2", "lr"))
        tails = [(p2.x.bits << x2) | (p2.y.bits << y2)
                 | (slope_for(p2, field).bits << lr) for p2 in pts]

        def point(p):
            return (p.x.bits << x1) | (p.y.bits << y1)

        states = [point(pts[i]) | tails[j] for i, j in pairs]

        def added(k, out):
            i, j = pairs[k]
            return out == point(ec_add_classical(pts[i], pts[j],
                                                 pa.curve)) | tails[j]

        bad = first_mismatch(pcirc, states, added)
        if bad is not None:
            p1, p2 = (pts[i] for i in pairs[bad[0]])
        all_ok &= _check(label, bad is None,
                         "" if bad is None else f"P1=({p1.x},{p1.y}) "
                         f"P2=({p2.x},{p2.y}) out={bad[1]:#x}")
        census = pointadd_census(pcirc.census())
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
    report = json.dumps(rows, indent=2)
    if args.out:
        _write_atomic(args.out, report)
    else:
        print(report)
    if args.csv:
        lines = ["field,precomp,architecture,param,d,device_size,runtime_display"]
        for r in rows:
            param = r.get("cycle", r.get("delay"))
            lines.append(f"{r['field']},{r['precomp']},{r['architecture']},"
                         f"{param},{r['d']},{r['device_size']},"
                         f"{r['runtime_display']}")
        _write_atomic(args.csv, "\n".join(lines) + "\n")
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
        _write_atomic(args.out, text)
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
    p.add_argument("--field", type=int, default=163, choices=None)
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
