#!/usr/bin/env python3
"""The circuit intermediate representation and its bitstring simulator.

Every gate in scope permutes computational basis states, so correctness is
checked by exact simulation rather than amplitude tracking.
"""

from binshor.circuit import (
    Circuit,
    Register,
    counts,
    emit_mcx_lowered,
    parse,
    serialize,
    simulate,
)

print("== build, simulate, reverse ==")
c = Circuit([Register("a", 2), Register("b", 1, "flag")])
c.cnot(0, 1)
emit_mcx_lowered(c, [(0, True), (1, False)], 2, [])  # closed and open controls
print(serialize(c))
print("simulate '100' ->", simulate(c, "100"))
print("round trip:", simulate(c.reversed(), simulate(c, "100")))

print("== multi-controlled NOT, lowered as it is emitted ==")
big = Circuit([Register("q", 6), Register("anc", 3, "ancilla-clean")])
emit_mcx_lowered(big, [(i, True) for i in range(5)], 5, big.reg("anc"))
cc = counts(big)
print(f"5-control NOT lowers to {cc.toffoli} Toffolis, "
      f"{cc.ccx_uncompute} measurement-based uncomputations, "
      f"{cc.ancilla_clean} clean ancillas")
print("all controls set ->", simulate(big, "111110000"))

print("\n== text format round trip ==")
text = serialize(big)
again = parse(text)
print("parsed equals emitted:", again == big)
print("\nfirst lines:")
print("\n".join(text.splitlines()[:6]))
