import math

import numpy as np
import pytest
from scipy import stats as sps

from cdam.errors import CdamError
from cdam.stats import _betainc_regularized, _f_sf, one_way_anova, r_squared
from oracles import naive_anova_f, naive_r_squared


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
        assert _f_sf(5.14, 2, 6) == pytest.approx(0.05, abs=5e-4)

    def test_zero_within_variance(self):
        res = one_way_anova([[1.0, 1.0], [2.0, 2.0]])
        assert math.isinf(res["f"]) and res["p"] == 0.0

    def test_constant_groups_are_decided_exactly(self):
        # the group means of 0.1 and 0.2 round, so sums of squares around
        # them leave noise: constant groups must still read F = inf or F = 0
        res = one_way_anova([[0.1] * 3, [0.2] * 3])
        assert math.isinf(res["f"]) and res["p"] == 0.0
        res = one_way_anova([[0.1] * 3, [0.1] * 3])
        assert res["f"] == 0.0 and res["p"] == 1.0
        # squared group deviations of 1e400 overflow, but the groups are constant
        res = one_way_anova([[1e200] * 2, [-1e200] * 2])
        assert math.isinf(res["f"]) and res["p"] == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_raises(self, bad):
        # once a continued fraction that failed to converge at x = nan
        with pytest.raises(CdamError, match="ANOVA samples must be finite"):
            one_way_anova([[bad, 1], [2, 3]])

    def test_underflowing_within_spread_raises(self):
        # squared deviations of 5e-201 underflow to 0 in groups that are not constant
        with pytest.raises(CdamError, match="underflows to 0"):
            one_way_anova([[0.0, 1e-200], [0.0, 1e-200]])

    @pytest.mark.parametrize("groups", [[[1e200, 1e200], [0.0, 1.0]],
                                        [[1e300, -1e300], [0.0, 1.0]],
                                        [[1e308, 1e308], [0.0, 1.0]]])
    def test_sums_beyond_the_float_range_raise(self, groups):
        # a squared deviation of 1e400 or 1e600 overflows the Python float, and a
        # group sum of 2e308 overflows to inf and makes the F tail NaN
        with pytest.raises(CdamError, match="ANOVA sums overflow"):
            one_way_anova(groups)

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
        with pytest.raises(CdamError, match="ANOVA needs >= 2 groups, got 1"):
            one_way_anova([[1.0, 2.0]])
        with pytest.raises(CdamError, match="every ANOVA group needs >= 2 samples"):
            one_way_anova([[1.0, 2.0], [3.0]])


# x one step below, at and one step above (a+1)/(a+b+2), where
# _betainc_regularized switches to the symmetric continued fraction
_SWITCHES = [(a, b, x) for a, b in ((2.0, 3.0), (58.0, 1.5))
             for s in [(a + 1.0) / (a + b + 2.0)]
             for x in (math.nextafter(s, 0.0), s, math.nextafter(s, 1.0))]


class TestIncompleteBeta:
    @pytest.mark.parametrize("a,b,x", [
        (0.5, 0.5, 0.3), (2.0, 3.0, 0.5), (10.0, 2.0, 0.9),
        (1.0, 1.0, 0.25), (7.5, 7.5, 0.5), (30.0, 5.0, 0.8),
        *_SWITCHES,
        # the hop-range ANOVA's tail at its stock F(3, 116) = 154.675...
        (58.0, 1.5, 116.0 / (116.0 + 3.0 * 154.67509812472747)),
    ])
    def test_against_scipy(self, a, b, x):
        from scipy.special import betainc
        assert _betainc_regularized(a, b, x) == pytest.approx(betainc(a, b, x), rel=1e-12)

    def test_bounds(self):
        assert _betainc_regularized(2.0, 3.0, 0.0) == 0.0
        assert _betainc_regularized(2.0, 3.0, 1.0) == 1.0

    def test_f_sf_edges(self):
        assert _f_sf(0.0, 3, 10) == 1.0
        assert _f_sf(math.inf, 3, 10) == 0.0

    def test_f_sf_against_scipy(self):
        for f, d1, d2 in [(3.0, 2, 6), (5.41, 3, 116), (1.0, 5, 7), (12.3, 4, 30)]:
            assert _f_sf(f, d1, d2) == pytest.approx(sps.f.sf(f, d1, d2), rel=1e-9)


class TestRSquared:
    def test_perfect_fit(self):
        assert r_squared([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_sign_invariance(self):
        assert r_squared([1, 2, 3], [-1, -2, -3]) == pytest.approx(1.0)

    def test_constant_input_raises(self):
        with pytest.raises(CdamError, match="pearson undefined: zero-variance pattern"):
            r_squared([1, 1, 1], [1, 2, 3])

    @pytest.mark.parametrize("xs, ys, what", [
        ([0.1] * 3, [1, 2, 3], "pattern"),  # a mean that rounds: the old formula read noise
        ([1, 2, 3], [0.1] * 3, "state"),
        ([1, 2, 3], [7, 7, 7], "state"),
    ])
    def test_constant_sequence_raises_either_side(self, xs, ys, what):
        with pytest.raises(CdamError, match=f"pearson undefined: zero-variance {what}"):
            r_squared(xs, ys)

    @pytest.mark.parametrize("xs, ys", [
        ([1.0, math.nan, 3.0], [1, 2, 3]), ([1, 2, 3], [1.0, math.nan, 3.0]),
        ([1, 2, 3], [1.0, math.inf, 3.0]), ([1, 2, 3], [1e200, -1e200, 3.0]),
        (np.arange(5) * 1e200, np.arange(5.0)),  # a pattern too large to read once gave 0.0
    ])
    def test_non_finite_or_too_large_input_raises(self, xs, ys):
        with pytest.raises(CdamError):
            r_squared(xs, ys)

    @pytest.mark.parametrize("xs, ys", [([1, 2, 3], [1, 2]), ([1], [2]), ([[1, 2]], [[1, 2]])])
    def test_shape_validation(self, xs, ys):
        with pytest.raises(CdamError):
            r_squared(xs, ys)

    def test_matches_the_hand_summed_formula(self):
        rng = np.random.default_rng(37)
        for n in (2, 3, 7, 50, 1000):
            for _ in range(20):
                xs, ys = rng.normal(0, 1, n), rng.uniform(-3, 5, n)
                want = naive_r_squared(list(xs), list(ys))
                assert abs(r_squared(xs, ys) - want) <= 1e-14
                assert isinstance(r_squared(xs, ys), float)
