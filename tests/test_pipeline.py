import pytest

from binshor import gf2, linalg, synth
from binshor.gf2 import enumerate_irreducibles
from binshor.pipeline import (clear_caches, field_for, inversion_plan,
                              modmult_plan, pointadd_plan)
from binshor.synth import TALLIES


def test_plan_cache_ignores_spelled_out_defaults():
    # one cache entry per plan, however the defaults are passed
    assert modmult_plan(5) is modmult_plan(5, None)
    assert inversion_plan(5).modmult is modmult_plan(5)
    assert pointadd_plan(5) is pointadd_plan(5, 1, 1, None)
    # positional, keyword and left-out defaults: the same object
    spellings = {
        modmult_plan: [((5,), {}), ((5, None), {}), ((), {"n": 5}),
                       ((5,), {"poly_bits": None}),
                       ((), {"poly_bits": None, "n": 5})],
        field_for: [((5,), {}), ((5, None), {}), ((), {"n": 5}),
                    ((), {"poly_bits": None, "n": 5})],
        inversion_plan: [((5,), {}), ((5, True), {}), ((5, True, None), {}),
                         ((5,), {"poly_bits": None}),
                         ((), {"clearing": True, "n": 5}),
                         ((5,), {"poly_bits": None, "clearing": True})],
        pointadd_plan: [((5,), {}), ((5, 1), {}), ((5, 1, 1, None), {}),
                        ((5,), {"b_bits": 1}),
                        ((5, 1), {"poly_bits": None, "b_bits": 1}),
                        ((), {"n": 5, "a_bits": 1, "b_bits": 1,
                              "poly_bits": None})],
    }
    for fn, calls in spellings.items():
        first = fn(*calls[0][0], **calls[0][1])
        for args, kwargs in calls[1:]:
            assert fn(*args, **kwargs) is first, (fn.__name__, args, kwargs)
        nparams = len(calls[-1][1]) + len(calls[-1][0])
        for args, kwargs, text in (
                ((5,), {"unknown": 1}, "unexpected keyword argument 'unk"),
                ((5,), {"n": 5}, "multiple values for argument 'n'"),
                ((5,) + (None,) * nparams, {}, "positional argument"),
                ((), {}, "missing .*argument: 'n'")):
            with pytest.raises(TypeError, match=text):
                fn(*args, **kwargs)
    # a changed argument is another entry
    assert inversion_plan(5, False) is not inversion_plan(5)
    assert field_for(5, 0b101001) is not field_for(5)
    assert pointadd_plan(5, 0) is not pointadd_plan(5)


@pytest.mark.parametrize("n", range(2, 13))
def test_field_for_takes_the_first_irreducible(n):
    assert field_for(n).p == enumerate_irreducibles(n)[0]


def test_field_for_16():
    assert field_for(16).p.bits == 0x1002B   # x^16 + x^5 + x^3 + x + 1


def test_clear_caches_empties_the_tally_store():
    # and the memoised field data that plans are built from
    memos = (gf2._irreducibles, gf2._log_tables, gf2.validate_modulus_set,
             gf2.crt_cofactors, gf2.crt_constants, linalg.reduction_matrix,
             synth.squaring_method)
    before = modmult_plan(5).counts()
    inversion_plan(5).counts()
    enumerate_irreducibles(5)
    field_for(5).ops
    assert TALLIES
    assert all(memo.cache_info().currsize for memo in memos)
    clear_caches()
    assert not TALLIES
    assert [memo.cache_info().currsize for memo in memos] == [0] * len(memos)
    after = modmult_plan(5).counts()   # a new plan, emitted again
    assert after is not before
    assert after == before


def test_estimate_builds_each_reduction_matrix_and_set_check_once(capsys):
    # estimate --field all asks for 810 reduction matrices, of 340 distinct
    # (factor, n) pairs, and checks 6 distinct (modulus set, n) pairs 82
    # times: the 4 standard sets and the 2 inner sets of the 78 inner plans
    from binshor.cli import main

    clear_caches()
    assert main(["estimate", "--field", "all"]) == 0
    capsys.readouterr()
    red = linalg.reduction_matrix.cache_info()
    check = gf2.validate_modulus_set.cache_info()
    assert (red.misses, red.hits + red.misses) == (340, 810)
    assert (check.misses, check.hits + check.misses) == (6, 82)


def test_estimate_factors_only_the_square_maps_by_rows(capsys, monkeypatch):
    # estimate --field all factors 904 maps: the 875 tall ones (every Q_i and
    # H, d <= 10) on their columns, and only the 29 square squaring maps
    # through the row kernel plu_decompose
    from binshor.cli import main

    shapes, tall = [], []
    plu, plu_columns = linalg.plu_decompose, linalg.plu_columns
    monkeypatch.setattr(synth, "plu_decompose",
                        lambda M, **kw: shapes.append(M.shape) or plu(M, **kw))
    monkeypatch.setattr(synth, "plu_columns",
                        lambda cols, n: tall.append(n) or plu_columns(cols, n))
    clear_caches()
    assert main(["estimate", "--field", "all"]) == 0
    capsys.readouterr()
    assert (len(shapes), len(tall)) == (29, 875)
    assert all(n == d for n, d in shapes)
