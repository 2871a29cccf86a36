#!/usr/bin/env python3
"""The CRT-based modular multiplier: exact counts and an oracle sweep.

The multiplier splits |f,g,h> -> |f,g,h + f*g mod p> into residue products
modulo small coprime factors, recombines them through PLU-decomposed linear
maps, and (when the factor degrees do not cover the product) restores the
top coefficients with a small correction circuit.
"""

import itertools

from binshor.cli import modmult_sweep
from binshor.pipeline import field_for, modmult_plan
from binshor.synth import synth_crt_modmult

print("== exact gate counts for the standardized fields ==")
print(f"{'n':>4} {'Toffoli':>9} {'CNOT':>9} {'swap':>6}")
for n in (163, 233, 283, 571):
    c = modmult_plan(n).counts()
    print(f"{n:>4} {c.toffoli:>9} {c.cnot:>9} {c.swap:>6}")

print("\n== exhaustive oracle check on GF(2^4) ==")
n = 4
plan = modmult_plan(n)
circ = synth_crt_modmult(plan)
cases = list(itertools.product(range(1 << n), repeat=3))
bad = modmult_sweep(circ, plan.layout(), field_for(n).p, cases)
if bad is not None:
    raise SystemExit("FAILURE at (f, g, h) = {}".format(cases[bad[0]]))
print(f"all {len(cases)} input triples (f, g, h) reproduce the oracle")
print(f"circuit: {circ}")
