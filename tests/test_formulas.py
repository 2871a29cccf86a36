import pytest

from binshor.datafiles import load_formula
from binshor.formulas import BEST_PRODUCT_COUNTS
from binshor.gf2 import GF2Error, clmul


@pytest.mark.parametrize("d", range(1, 9))
def test_shipped_formula_counts(d):
    f = load_formula(d)
    assert f.d == d
    assert f.v == BEST_PRODUCT_COUNTS[d]


@pytest.mark.parametrize("d", range(1, 7))
def test_shipped_formula_exhaustive(d):
    f = load_formula(d)
    for fv in range(1 << d):
        for gv in range(1 << d):
            assert f.multiply(fv, gv) == clmul(fv, gv)


@pytest.mark.parametrize("d", (7, 8))
def test_shipped_formula_sampled(d):
    load_formula(d).verify(exhaustive=False, samples=10_000, seed=1)


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


def _rejects(formula, **kwargs):
    try:
        formula.verify(**kwargs)
    except GF2Error:
        return True
    return False


@pytest.mark.parametrize("d", range(1, 9))
def test_basis_check_rejects_bit_flip_mutants(d):
    # the load-time check on the d^2 basis pairs against the old checks:
    # the same verdicts as the exhaustive one, and every mutant that the
    # 10,000-sample one rejects
    f = load_formula(d)
    assert not _rejects(f)
    rejected = 0
    for mutant in _mutants(f):
        basis = _rejects(mutant)
        if d <= 6:
            assert basis == _rejects(mutant, exhaustive=True)
        elif _rejects(mutant, exhaustive=False, samples=10_000, seed=0):
            assert basis
        rejected += basis
    assert rejected > 0
