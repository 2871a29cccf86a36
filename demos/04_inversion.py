#!/usr/bin/env python3
"""Exponentiation-based modular inversion scheduled by addition chains.

The inverse f^(2^n - 2) is reached by squarings and multiplications along an
addition chain for n-1.  Decreasing chain entries mark register-clearing
steps that trade extra multiplications for roughly half the workspace.
"""

from binshor.cli import inversion_sweep
from binshor.datafiles import load_chain
from binshor.pipeline import inversion_plan, modmult_plan
from binshor.synth import synth_flt_inversion

print("== shipped addition chains ==")
for n in (163, 233, 283, 571):
    ch = load_chain(n)
    print(f"n={n}: length {ch.l_tilde} ({ch.l} compute steps), "
          f"workspace multiplier R = {ch.r_factor}")

print("\n== multiplication counts and the Toffoli identity ==")
for n in (163, 233, 283, 571):
    mm = modmult_plan(n).counts().toffoli
    for clearing in (True, False):
        plan = inversion_plan(n, clearing)
        total = plan.counts().toffoli
        tag = "with clearing" if clearing else "no clearing  "
        print(f"n={n} {tag}: {plan.mult_calls:>2} multiplications x {mm} "
              f"= {total} Toffolis, workspace {(plan.num_registers - 1)}n")

print("\n== exhaustive check on GF(2^5) ==")
n = 5
plan = inversion_plan(n)
vals = list(range(1, 1 << n))
# f restored, f^-1 in the result slot and the temp slot back at 0
bad = inversion_sweep(plan, synth_flt_inversion(plan), vals)
if bad is not None:
    raise SystemExit(f"FAILURE at f = {vals[bad[0]]:#x}")
print(f"all {len(vals)} nonzero elements invert correctly "
      f"({plan.mult_calls} multiplications each)")
