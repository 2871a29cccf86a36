import pytest

from binshor.datafiles import load_formula
from binshor.formulas import BEST_PRODUCT_COUNTS
from binshor.gf2 import clmul


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


def test_text_roundtrip():
    f = load_formula(5)
    from binshor.formulas import KaratsubaFormula

    g = KaratsubaFormula.from_text(f.to_text())
    assert g.T == f.T and g.R == f.R
