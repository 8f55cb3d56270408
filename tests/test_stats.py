import itertools
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from tuneseer.errors import ContractError
from tuneseer.stats import rankdata, wilcoxon


def oracle_ranks(abs_d):
    """Average ranks computed from scratch (independent of scipy)."""
    n = len(abs_d)
    order = sorted(range(n), key=lambda i: abs_d[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs_d[order[j + 1]] == abs_d[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        i = j + 1
    return ranks


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6).map(lambda v: v / 4.0), min_size=1, max_size=40))
def test_rankdata_matches_oracle_and_scipy(values):
    ranks = rankdata(np.array(values))
    assert ranks.tolist() == oracle_ranks(values)
    assert np.array_equal(ranks, scipy.stats.rankdata(values))


def oracle_exact(diffs):
    """Enumerate all sign assignments; W = sum sign * rank, two-sided
    p = P(|W| >= |w_obs|)."""
    d = list(diffs)
    n = len(d)
    ranks = oracle_ranks([abs(x) for x in d])
    w_obs = sum(r if x > 0 else -r for x, r in zip(d, ranks))
    count = 0
    for signs in itertools.product((1.0, -1.0), repeat=n):
        w = sum(s * r for s, r in zip(signs, ranks))
        if abs(w) >= abs(w_obs) - 1e-12:
            count += 1
    return w_obs, count / 2.0**n


def test_spec_example_123():
    res = wilcoxon([1.0, 2.0, 3.0])
    assert res.r_plus == 6.0
    assert res.r_minus == 0.0
    assert res.w == 6.0
    assert res.p == 0.25
    assert res.method == "exact"


def test_negated_example():
    res = wilcoxon([-1.0, -2.0, -3.0])
    assert res.w == -6.0
    assert res.p == 0.25


def test_all_zero_degenerate():
    res = wilcoxon(np.zeros(10))
    assert res.w == 0.0
    assert res.p == 1.0


def test_exact_matches_enumeration_all_n_up_to_10():
    rng = np.random.default_rng(99)
    for n in range(1, 11):
        for _ in range(5):
            # distinct magnitudes, no zeros
            mags = rng.permutation(np.arange(1, n + 1)).astype(float)
            signs = rng.choice([-1.0, 1.0], size=n)
            d = mags * signs
            res = wilcoxon(d)
            w_oracle, p_oracle = oracle_exact(d)
            assert res.w == w_oracle
            assert res.p == pytest.approx(p_oracle, abs=1e-12)
            assert res.method == "exact"


def test_exact_with_tied_magnitudes_matches_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        mags = rng.integers(1, 4, size=n).astype(float)  # forced ties
        signs = rng.choice([-1.0, 1.0], size=n)
        d = mags * signs
        res = wilcoxon(d)
        w_oracle, p_oracle = oracle_exact(d)
        assert res.w == pytest.approx(w_oracle, abs=1e-12)
        assert res.p == pytest.approx(p_oracle, abs=1e-12)


def test_zero_splitting_rank_mass():
    # |d| = (0, 1, 1): zero holds rank 1, split 0.5 to each side
    res = wilcoxon([0.0, 1.0, -1.0])
    assert res.r_plus == pytest.approx(3.0)
    assert res.r_minus == pytest.approx(3.0)
    assert res.w == 0.0
    assert res.method == "normal"  # zeros force the approximation


def test_single_zero_with_positive():
    res = wilcoxon([0.0, 2.0])
    assert res.r_plus == pytest.approx(2.5)
    assert res.r_minus == pytest.approx(0.5)
    assert res.w == pytest.approx(2.0)


def test_rank_sum_identity_always():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        d = np.round(rng.normal(size=n), 1)
        res = wilcoxon(d)
        assert res.r_plus + res.r_minus == pytest.approx(n * (n + 1) / 2.0)


def test_normal_approximation_close_to_exact():
    # just past EXACT_MAX_N the input takes the normal route; scipy's
    # enumeration of the same sample gives the exact side
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(21, 31))
        d = rng.normal(size=n) + 0.3  # shift so results are not always p ~ 1
        approx = wilcoxon(d)
        exact = scipy.stats.wilcoxon(d, method="exact")
        assert approx.method == "normal"
        # scipy reports min(R+, R-); R+ + R- = n (n + 1) / 2 fixes |W|
        assert abs(approx.w) == n * (n + 1) / 2 - 2 * exact.statistic
        assert abs(exact.pvalue - approx.p) < 0.02


def test_empty_input_rejected():
    with pytest.raises(ContractError):
        wilcoxon([])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_difference_rejected(value):
    # a non-finite difference has no rank; it must not be counted in n
    with pytest.raises(ContractError, match="finite"):
        wilcoxon([1.0, -2.0, 3.0, 4.0, 5.0, 6.0, value])


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=30)
)
def test_antisymmetry_property(diffs):
    d = np.asarray(diffs)
    a = wilcoxon(d)
    b = wilcoxon(-d)
    assert a.w == pytest.approx(-b.w, abs=1e-9)
    assert a.p == pytest.approx(b.p, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=25),
    st.floats(1e-3, 1e3),
)
def test_scale_invariance_property(diffs, c):
    # quantize so scaling cannot merge distinct magnitudes into float ties
    d = np.round(np.asarray(diffs), 3)
    a = wilcoxon(d)
    b = wilcoxon(c * d)
    assert a.w == pytest.approx(b.w, abs=1e-9)
    assert a.p == pytest.approx(b.p, abs=1e-12)
