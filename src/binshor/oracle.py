"""The oracle sweep: check a circuit against a classical oracle on bit-planes.

Every gate permutes basis states, so a sweep packs all of its input states
into bit-planes (:func:`~binshor.circuit.pack_planes`, the byte-plane
transpose of :meth:`~binshor.linalg.BitMatrix.from_columns`) and runs them
through the circuit together (:func:`~binshor.circuit.simulate_planes`, one
big-int operation per gate for all cases).  The classical side reads the
same planes: a contract maps the output planes to the lanes it rejects.  A
multiplier's products are n^2 ANDs of lane ints
(:func:`~binshor.gf2.planes_mul_mod`), an inverse is checked by multiplying
it back, and only the first failing lane is unpacked, so a sweep needs
nothing outside the standard library.  The point addition still computes
its sums case by case, on the field's log tables.
Each plan's contract is one sweep in :mod:`binshor.cli` (``modmult_sweep``,
``inversion_sweep``, ``pointadd_sweep``), where perfbench times the oracles.
"""

from __future__ import annotations

from functools import reduce
from operator import or_, xor
from typing import Callable

from .circuit import Circuit, plane_ints, simulate_planes


def first_mismatch(circuit: Circuit, planes: memoryview, lanes: int,
                   failing: Callable[[list[int]], int]
                   ) -> tuple[int, int] | None:
    """Simulate the first ``lanes`` cases of the input ``planes`` at once.

    ``failing`` maps the output planes, one int per qubit whose bit b is
    that qubit in lane b, to an int whose bit b is set when lane b breaks
    the contract; lanes past ``lanes`` are ignored.  Returns the lowest
    failing lane and its whole output state (bit q = qubit q), or None.
    """
    out = plane_ints(simulate_planes(circuit, planes))
    bad = failing(out) & ((1 << lanes) - 1)
    if not bad:
        return None
    lane = (bad & -bad).bit_length() - 1
    return lane, sum(((plane >> lane) & 1) << q
                     for q, plane in enumerate(out))


def differ(got: list[int], want: list[int]) -> int:
    """The lanes in which two equally long lists of planes differ."""
    return reduce(or_, map(xor, got, want), 0)
