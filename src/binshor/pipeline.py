"""Convenience builders wiring configs into synthesis plans.

Used by the CLI, the demos and the test suite so everything resolves the
same data files the same way.
"""

from __future__ import annotations

import inspect
from functools import lru_cache, wraps

from .datafiles import (
    load_chain,
    load_formula,
    load_inner_modulus_set,
    load_modulus_set as modulus_set_for,
)
from .ecc import CurveSpec, PointAddPlan
from . import gf2, linalg, synth
from .gf2 import BinaryPoly, FieldSpec, GF2Error, is_irreducible
from .synth import TALLIES, InversionPlan, ModmultPlan


def load_formulas() -> dict:
    return {d: load_formula(d) for d in range(1, 9)}


def _plan_cache(fn):
    """``lru_cache`` keyed on the arguments with defaults filled in, so
    ``f(5)`` and ``f(5, None)`` share one entry (and one plan build)."""
    sig = inspect.signature(fn)
    cached = lru_cache(maxsize=None)(fn)

    @wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return cached(*bound.args)

    wrapper.cache_clear = cached.cache_clear
    return wrapper


def clear_caches():
    """Drop the cached plans, the keyed-block tally store and the memoised
    field data (irreducibles, byte-division tables, log tables, modulus-set
    checks, CRT constants, reduction matrices, squaring maps)."""
    for fn in (_cached_formulas, _cached_inner_set, modmult_plan, field_for,
               inversion_plan, pointadd_plan, gf2._irreducibles,
               gf2._byte_tables, gf2._log_tables, gf2.validate_modulus_set,
               gf2.crt_cofactors, gf2.crt_constants, linalg.reduction_matrix,
               synth.squaring_method):
        fn.cache_clear()
    TALLIES.clear()


@lru_cache(maxsize=None)
def _cached_formulas():
    return load_formulas()


# one parse per inner set: the 78 inner plans at n = 571 share two sets
_cached_inner_set = lru_cache(maxsize=None)(load_inner_modulus_set)


@_plan_cache
def modmult_plan(n: int, poly_bits: int | None = None) -> ModmultPlan:
    field = field_for(n, poly_bits)
    return ModmultPlan(n, field.p, modulus_set_for(n), _cached_formulas(),
                       inner_sets=_cached_inner_set)


@_plan_cache
def field_for(n: int, poly_bits: int | None = None) -> FieldSpec:
    if poly_bits is not None:
        return FieldSpec(n, BinaryPoly(poly_bits))
    try:
        return FieldSpec.standard(n)
    except GF2Error:
        if n < 2:
            raise GF2Error("extension degree must be >= 2") from None
        # enumerate_irreducibles(n)[0], without a Rabin test of the rest of
        # degree n when n is above the sieve's degrees
        bits = next(b for b in range((1 << n) + 1, 2 << n, 2)
                    if is_irreducible(BinaryPoly(b)))
        return FieldSpec(n, BinaryPoly(bits))


@_plan_cache
def inversion_plan(n: int, clearing: bool = True,
                   poly_bits: int | None = None) -> InversionPlan:
    return InversionPlan(field_for(n, poly_bits), load_chain(n),
                         modmult_plan(n, poly_bits), clearing=clearing)


@_plan_cache
def pointadd_plan(n: int, a_bits: int = 1, b_bits: int = 1,
                  poly_bits: int | None = None) -> PointAddPlan:
    field = field_for(n, poly_bits)
    curve = CurveSpec(field, BinaryPoly(a_bits), BinaryPoly(b_bits))
    return PointAddPlan(curve, modmult_plan(n, poly_bits),
                        inversion_plan(n, True, poly_bits))
