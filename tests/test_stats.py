import math

import pytest
from scipy import stats as sps

from cdam.errors import ContractError
from cdam.stats import betainc_regularized, f_sf, one_way_anova, r_squared
from oracles import naive_anova_f


class TestAnova:
    def test_identical_groups(self):
        res = one_way_anova([[1.0, 2.0, 3.0]] * 4)
        assert res["f"] == 0.0 and res["p"] == 1.0

    def test_hand_computed_f(self):
        # groups (1,2,3), (2,3,4), (3,4,5): SS_b = 6, SS_w = 6, df = (2, 6)
        res = one_way_anova([[1, 2, 3], [2, 3, 4], [3, 4, 5]])
        assert res["f"] == pytest.approx(3.0)
        assert res["df"] == [2, 6]

    def test_p_against_published_table_value(self):
        # F upper tail at F = 3.0 with df (2, 6); the 0.05 critical value is
        # 5.14, so p(3.0) must sit above 0.05 -- tabulated p = 0.125
        res = one_way_anova([[1, 2, 3], [2, 3, 4], [3, 4, 5]])
        assert res["p"] == pytest.approx(0.125, abs=1e-3)
        assert f_sf(5.14, 2, 6) == pytest.approx(0.05, abs=5e-4)

    def test_zero_within_variance(self):
        res = one_way_anova([[1.0, 1.0], [2.0, 2.0]])
        assert math.isinf(res["f"]) and res["p"] == 0.0

    def test_matches_naive_f(self):
        groups = [[0.3, 1.2, 0.7, 0.9], [1.4, 1.8, 1.1], [0.2, 0.4, 0.3, 0.6, 0.1]]
        res = one_way_anova(groups)
        f, dfb, dfw = naive_anova_f(groups)
        assert res["f"] == pytest.approx(f)
        assert res["df"] == [dfb, dfw]

    def test_matches_scipy(self):
        groups = [[0.3, 1.2, 0.7, 0.9], [1.4, 1.8, 1.1], [0.2, 0.4, 0.3, 0.6, 0.1]]
        res = one_way_anova(groups)
        want = sps.f_oneway(*groups)
        assert res["f"] == pytest.approx(want.statistic, rel=1e-12)
        assert res["p"] == pytest.approx(want.pvalue, rel=1e-9)

    def test_group_validation(self):
        with pytest.raises(ContractError):
            one_way_anova([[1.0, 2.0]])
        with pytest.raises(ContractError):
            one_way_anova([[1.0, 2.0], [3.0]])


class TestIncompleteBeta:
    @pytest.mark.parametrize("a,b,x", [
        (0.5, 0.5, 0.3), (2.0, 3.0, 0.5), (10.0, 2.0, 0.9),
        (1.0, 1.0, 0.25), (7.5, 7.5, 0.5), (30.0, 5.0, 0.8),
    ])
    def test_against_scipy(self, a, b, x):
        from scipy.special import betainc
        assert betainc_regularized(a, b, x) == pytest.approx(betainc(a, b, x), rel=1e-12)

    def test_bounds(self):
        assert betainc_regularized(2.0, 3.0, 0.0) == 0.0
        assert betainc_regularized(2.0, 3.0, 1.0) == 1.0

    def test_f_sf_edges(self):
        assert f_sf(0.0, 3, 10) == 1.0
        assert f_sf(math.inf, 3, 10) == 0.0

    def test_f_sf_against_scipy(self):
        for f, d1, d2 in [(3.0, 2, 6), (5.41, 3, 116), (1.0, 5, 7), (12.3, 4, 30)]:
            assert f_sf(f, d1, d2) == pytest.approx(sps.f.sf(f, d1, d2), rel=1e-9)


class TestRSquared:
    def test_perfect_fit(self):
        assert r_squared([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_sign_invariance(self):
        assert r_squared([1, 2, 3], [-1, -2, -3]) == pytest.approx(1.0)

    def test_constant_input_raises(self):
        with pytest.raises(ContractError):
            r_squared([1, 1, 1], [1, 2, 3])
