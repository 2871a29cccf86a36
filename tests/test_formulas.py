import random

import pytest

from binshor.datafiles import load_formula
from binshor.formulas import BEST_PRODUCT_COUNTS
from binshor.gf2 import GF2Error, clmul


@pytest.mark.parametrize("d", range(1, 9))
def test_shipped_formula_counts(d):
    f = load_formula(d)
    assert f.d == d
    assert f.v == BEST_PRODUCT_COUNTS[d]


def all_pairs(d):
    return [(f, g) for f in range(1 << d) for g in range(1 << d)]


def sampled_pairs(d, seed, samples=10_000):
    rng = random.Random(seed)
    return [(rng.getrandbits(d), rng.getrandbits(d)) for _ in range(samples)]


def agrees(formula, pairs):
    """``formula.multiply`` equals carry-less multiplication on ``pairs``."""
    return all(formula.multiply(f, g) == clmul(f, g) for f, g in pairs)


@pytest.mark.parametrize("d", range(1, 7))
def test_shipped_formula_exhaustive(d):
    assert agrees(load_formula(d), all_pairs(d))


@pytest.mark.parametrize("d", (7, 8))
def test_shipped_formula_sampled(d):
    assert agrees(load_formula(d), sampled_pairs(d, seed=1))


def _mutants(f):
    """Every formula that differs from ``f`` in one bit of T or of R."""
    from binshor.formulas import KaratsubaFormula
    from binshor.linalg import BitMatrix

    for name in ("T", "R"):
        M = getattr(f, name)
        for i in range(M.nrows):
            for j in range(M.ncols):
                rows = list(M.rows)
                rows[i] ^= 1 << j
                parts = {"T": f.T, "R": f.R, name: BitMatrix(rows, M.ncols)}
                yield KaratsubaFormula(f.d, parts["T"], parts["R"])


def _rejects(formula):
    try:
        formula.verify()
    except GF2Error:
        return True
    return False


@pytest.mark.parametrize("d", range(1, 9))
def test_basis_check_rejects_bit_flip_mutants(d):
    # the load-time check on the d^2 basis pairs against comparisons on
    # more pairs: the same verdicts as on every pair, and every mutant that
    # 10,000 sampled pairs reject
    f = load_formula(d)
    assert not _rejects(f)
    pairs = all_pairs(d) if d <= 6 else sampled_pairs(d, seed=0)
    rejected = 0
    for mutant in _mutants(f):
        basis = _rejects(mutant)
        if d <= 6:
            assert basis == (not agrees(mutant, pairs))
        elif not agrees(mutant, pairs):
            assert basis
        rejected += basis
    assert rejected > 0
