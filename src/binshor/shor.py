"""Logical cost model for the windowed phase-estimation circuit.

Covers table-lookup costs, phase-estimation totals, window optimization,
and the active-volume accounting.  Quantum dynamics are out of scope: this
is bookkeeping over exact classical gate counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gf2 import GF2Error
from .synth import CountSink, count_plan
from .ecc import PointAddPlan


@dataclass
class LogicalCost:
    """Gate totals for one algorithm block; Toffoli terms may be non-integer
    because odd window remainders contribute 2^(r/2+1) uncomputation terms."""

    toffoli: float = 0.0
    cnot: float = 0.0
    swap: float = 0.0
    qubits: int = 0
    active_volume: float = 0.0


# QROM uncomputation active volume; fixed by the measurement-based
# binary-to-unary uncomputation, independent of the calibrated weights.
def qrom_costs(k: int) -> tuple[int, float, float]:
    """(lookup Toffoli, uncompute Toffoli, uncompute active volume) for a
    k-item table lookup."""
    if k < 2:
        raise GF2Error("lookup needs at least 2 items")
    return k - 2, 2.0 * math.sqrt(k), 0.75 * k + 120.0 * math.sqrt(k)


class AVWeights:
    """Per-primitive active-volume weights.

    The cnot, swap and toffoli weights are the relative least-squares fit
    of the CNOT, swap and Toffoli counts of the synthesized multipliers at
    n = 163, 233, 283 and 571 to the reference modular-multiplication AV
    totals: they minimise the sum of (w . counts_n / total_n - 1)^2, and
    the shipped values are that fit to 6 decimals (a Tier-1 test redoes
    it).  The lookup weights are said to be calibrated against the
    phase-estimation AV totals; where they come from has not been checked.
    All weights must be finite and non-negative.
    """

    KEYS = ("cnot", "swap", "toffoli", "lookup_per_item_bit", "lookup_per_item")

    def __init__(self, values: dict[str, float]):
        for key in self.KEYS:
            if key not in values:
                raise GF2Error(f"missing active-volume weight {key!r}")
            if not math.isfinite(values[key]):
                raise GF2Error(f"active-volume weight {key!r} is "
                               f"{values[key]}, not a finite number")
            if values[key] < 0:
                raise GF2Error(f"negative active-volume weight {key!r}")
        self.values = dict(values)

    @classmethod
    def load_default(cls) -> "AVWeights":
        from .datafiles import load_av_weights

        return cls(load_av_weights())

    def __getitem__(self, key: str) -> float:
        return self.values[key]


def active_volume(counts, weights: AVWeights) -> float:
    """Weighted sum of primitive counts (linear in every count); accepts
    anything exposing cnot/swap/toffoli fields."""
    return (weights["cnot"] * counts.cnot + weights["swap"] * counts.swap
            + weights["toffoli"] * counts.toffoli)


def lookup_av(k: int, output_bits: int, weights: AVWeights) -> float:
    return (weights["lookup_per_item_bit"] * k * output_bits
            + weights["lookup_per_item"] * k)


# -- point addition cost -------------------------------------------------------

def pointadd_cost(plan: PointAddPlan,
                  weights: AVWeights | None = None) -> LogicalCost:
    """Logical cost of one point addition.

    The Toffoli total follows the subroutine decomposition
    4*inversion + 8*multiplication + 39(n-1) + 6n (the equality tests and
    n-qubit Toffoli constructs of the census at n-1 Toffolis each, the six
    controlled additions at n); CNOT/swap totals come from the streamed
    synthesis.  Qubits follow the 12n+7 footprint.  With ``weights``, the
    active volume is :func:`active_volume` of these totals.
    """
    n = plan.n
    inv = plan.inversion.counts()
    mm = plan.modmult.counts()
    toffoli = 4 * inv.toffoli + 8 * mm.toffoli + 39 * (n - 1) + 6 * n
    streamed = stream_pointadd_counts(plan).counts
    cost = LogicalCost(toffoli=float(toffoli), cnot=float(streamed.cnot),
                       swap=float(streamed.swap), qubits=12 * n + 7)
    if weights is not None:
        cost.active_volume = active_volume(cost, weights)
    return cost


def stream_pointadd_counts(plan: PointAddPlan) -> CountSink:
    """Exact synthesized gate totals (``.counts``) and census groups
    (``.census``) of one point addition: :func:`~binshor.synth.count_plan`.

    The first call for a plan emits its keyed block, with its inversion and
    multiplier blocks, and later calls add the stored tally.  The qubit and
    ancilla fields are the register widths of
    :meth:`~binshor.ecc.PointAddPlan.layout`.
    """
    return count_plan(plan)


# -- phase estimation -----------------------------------------------------------

def pe_cost(n: int, s: int, point_add: LogicalCost, precomputed_bits: int = 0,
            weights: AVWeights | None = None) -> LogicalCost:
    """Cost of the full phase-estimation circuit (two rounds).

    Each window of s controlled additions becomes a 2^s-item lookup, one
    uncontrolled point addition and a lookup uncomputation; the remainder
    group is dropped entirely when s divides the effective bit count.
    """
    if precomputed_bits not in (0, 48):
        raise GF2Error("precomputed_bits must be 0 or 48")
    n_eff = n - precomputed_bits
    if not 1 <= s <= n_eff:
        raise GF2Error("window size out of range")
    c_pa = point_add.toffoli
    out_bits = 3 * n  # looked-up x2, y2 and slope

    def group(bits: int) -> tuple[float, float]:
        k = 1 << bits
        look_t, unlook_t, unlook_av = qrom_costs(k)
        tof = look_t + c_pa + unlook_t
        av = 0.0
        if weights is not None:
            av = (lookup_av(k, out_bits, weights) + point_add.active_volume
                  + unlook_av)
        return tof, av

    full, rem = divmod(n_eff, s)
    tof, av = group(s)
    total_t, total_av = full * tof, full * av
    if rem:
        tof_r, av_r = group(rem)
        total_t += tof_r
        total_av += av_r
    groups = full + (1 if rem else 0)
    return LogicalCost(
        toffoli=2 * total_t,
        cnot=2 * groups * point_add.cnot,
        swap=2 * groups * point_add.swap,
        qubits=13 * n + 7,
        active_volume=2 * total_av,
    )


def optimize_window(n: int, point_add: LogicalCost, metric: str = "toffoli",
                    precomputed_bits: int = 0,
                    weights: AVWeights | None = None,
                    s_range: tuple[int, int] = (1, 24)):
    """Exhaustive scan of window sizes; ties break toward smaller s.

    Returns (s_opt, cost at s_opt, landscape) where the landscape rows are
    (s, toffoli, active_volume).
    """
    if metric not in ("toffoli", "active_volume"):
        raise GF2Error(f"unknown metric {metric!r}")
    lo, hi = s_range
    hi = min(hi, n - precomputed_bits)
    landscape = []
    best = None
    for s in range(lo, hi + 1):
        cost = pe_cost(n, s, point_add, precomputed_bits, weights)
        landscape.append((s, cost.toffoli, cost.active_volume))
        key = cost.toffoli if metric == "toffoli" else cost.active_volume
        if best is None or key < best[0]:
            best = (key, s, cost)
    if best is None:
        raise GF2Error(f"no window size in {lo}..{s_range[1]} fits n = {n} "
                       f"with {precomputed_bits} precomputed bits")
    return best[1], best[2], landscape


def round_sig(x: float, sig: int = 3) -> float:
    if x == 0:
        return 0.0
    from math import floor, log10

    exp = floor(log10(abs(x)))
    return round(x, -exp + sig - 1)
