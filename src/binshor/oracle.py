"""The oracle sweep: check a circuit against a classical oracle, case by case.

Every gate permutes basis states, so a sweep packs all of its input states
into bit-planes and runs them through the circuit together
(:func:`~binshor.circuit.simulate_planes`, one 64-bit word per qubit for
every 64 cases, in a 2-d memoryview); only the classical check runs once
per case.  Packing and unpacking are one bit transpose each, the byte-plane
kernel of :meth:`~binshor.linalg.BitMatrix.from_columns`, so a sweep needs
nothing outside the standard library.
Each plan's contract is one sweep in :mod:`binshor.cli` (``modmult_sweep``,
``inversion_sweep``, ``pointadd_sweep``), where perfbench times the oracles.
"""

from __future__ import annotations

from typing import Callable

from .circuit import Circuit, pack_planes, simulate_planes, unpack_planes


def first_mismatch(circuit: Circuit, inputs: list[int],
                   check: Callable[[int, int], bool]) -> tuple[int, int] | None:
    """Simulate every input state (bit q = qubit q) in one batch.

    Returns ``(index, output)`` for the first case, in input order, whose
    output ``check(index, output)`` rejects, or None when all pass.
    """
    outs = unpack_planes(simulate_planes(circuit,
                                         pack_planes(inputs, circuit.width)),
                         len(inputs))
    for i, out in enumerate(outs):
        if not check(i, out):
            return i, out
    return None
