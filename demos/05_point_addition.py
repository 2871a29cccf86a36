#!/usr/bin/env python3
"""The exception-complete point addition circuit.

Adds (x1,y1) and (x2,y2) in place, covering every exceptional branch: the
point at infinity on either side, inverse pairs, point doubling, and the
two-torsion self-inverse case.  The sweep below drives every ordered pair of
group elements through the circuit and checks the group-law oracle, the
restored inputs, and that every flag and ancilla returns to zero.
"""

import itertools

from binshor.cli import pointadd_sweep
from binshor.ecc import TABLE_CENSUS, pointadd_census, synth_ecpointadd
from binshor.pipeline import pointadd_plan
from binshor.shor import pointadd_cost, stream_pointadd_counts

print("== toy-curve exhaustive sweep ==")
for n, a, b in ((4, 0x0, 0x1), (5, 0x2, 0x3)):
    plan = pointadd_plan(n, a, b)
    circ = synth_ecpointadd(plan)
    pts = plan.curve.points()
    pairs = list(itertools.product(range(len(pts)), repeat=2))
    bad = pointadd_sweep(plan, circ, pts, pairs)
    if bad is not None:
        p1, p2 = (pts[i] for i in pairs[bad[0]])
        raise SystemExit(f"FAILURE at P1=({p1.x},{p1.y}) P2=({p2.x},{p2.y})")
    print(f"GF(2^{n}), a={a}, b={b}: {len(pts)} group elements, "
          f"all {len(pairs)} ordered pairs correct")
    census = pointadd_census(stream_pointadd_counts(plan).census)
    print(f"  subroutine census matches the reference table: "
          f"{census == TABLE_CENSUS}")

print("\n== logical cost for the standardized fields ==")
print(f"{'n':>4} {'Toffoli':>9} {'qubits':>7}")
for n in (163, 233, 283, 571):
    cost = pointadd_cost(pointadd_plan(n))
    print(f"{n:>4} {cost.toffoli:>9.0f} {cost.qubits:>7}")
