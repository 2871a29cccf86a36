#!/usr/bin/env python3
"""The exception-complete point addition circuit.

Adds (x1,y1) and (x2,y2) in place, covering every exceptional branch: the
point at infinity on either side, inverse pairs, point doubling, and the
two-torsion self-inverse case.  The sweep below drives every ordered pair of
group elements through the circuit and checks the group-law oracle, the
restored inputs, and that every flag and ancilla returns to zero.
"""

from binshor.circuit import pack_planes, simulate_planes, unpack_planes
from binshor.ecc import (
    TABLE_CENSUS,
    ec_add_classical,
    pointadd_census,
    slope_for,
    synth_ecpointadd,
)
from binshor.pipeline import pointadd_plan
from binshor.shor import pointadd_cost

print("== toy-curve exhaustive sweep ==")
for n, a, b in ((4, 0x0, 0x1), (5, 0x2, 0x3)):
    plan = pointadd_plan(n, a, b)
    curve = plan.curve
    circ = synth_ecpointadd(plan)
    pts = curve.points()
    inputs, wants = [], []
    for p1 in pts:
        for p2 in pts:
            lam = slope_for(p2, curve.field)
            inputs.append(p1.x.bits | (p1.y.bits << n) | (p2.x.bits << 2 * n)
                          | (p2.y.bits << 3 * n) | (lam.bits << 4 * n))
            p3 = ec_add_classical(p1, p2, curve)
            wants.append(p3.x.bits | (p3.y.bits << n) | (p2.x.bits << 2 * n)
                         | (p2.y.bits << 3 * n) | (lam.bits << 4 * n))
    outs = unpack_planes(simulate_planes(circ, pack_planes(inputs, circ.width)),
                         len(inputs))
    good = sum(1 for o, w in zip(outs, wants) if o == w)
    print(f"GF(2^{n}), a={a}, b={b}: {len(pts)} group elements, "
          f"{good}/{len(inputs)} ordered pairs correct")
    census = pointadd_census(circ.census())
    print(f"  subroutine census matches the reference table: "
          f"{census == TABLE_CENSUS}")

print("\n== logical cost for the standardized fields ==")
print(f"{'n':>4} {'Toffoli':>9} {'qubits':>7}")
for n in (163, 233, 283, 571):
    cost = pointadd_cost(pointadd_plan(n))
    print(f"{n:>4} {cost.toffoli:>9.0f} {cost.qubits:>7}")
