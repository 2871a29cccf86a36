from binshor.pipeline import inversion_plan, modmult_plan, pointadd_plan


def test_plan_cache_ignores_spelled_out_defaults():
    # one cache entry per plan, however the defaults are passed
    assert modmult_plan(5) is modmult_plan(5, None)
    assert inversion_plan(5).modmult is modmult_plan(5)
    assert pointadd_plan(5) is pointadd_plan(5, 1, 1, None)
