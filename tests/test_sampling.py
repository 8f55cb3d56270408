import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuneseer.errors import ContractError
from tuneseer.sampling import (
    DEFAULT_PARAM_RANGES,
    ControlParams,
    derive_seed,
    latin_hypercube,
    lhs_params,
    make_rng,
    substream,
)


class Box:
    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)


def stratum_counts(points, lower, upper, n):
    """Number of points per 1/n stratum, per dimension."""
    unit = (points - lower) / (upper - lower)
    strata = np.floor(unit * n).astype(int)
    strata = np.clip(strata, 0, n - 1)
    counts = np.stack([np.bincount(strata[:, j], minlength=n) for j in range(points.shape[1])])
    return counts


def test_single_point_lies_in_box():
    points = latin_hypercube(1, [-2.0, 0.0], [4.0, 1.0], make_rng(0))
    assert points.shape == (1, 2)
    assert np.all(points >= [-2.0, 0.0])
    assert np.all(points <= [4.0, 1.0])


def test_quartile_stratification_n4_d1():
    points = latin_hypercube(4, [0.0], [1.0], make_rng(3))
    counts = stratum_counts(points, 0.0, 1.0, 4)
    assert np.all(counts == 1)


@pytest.mark.parametrize("n,d", [(4, 1), (100, 3), (1000, 50)])
def test_stratification_exact(n, d):
    box = Box(np.full(d, -5.0), np.full(d, 5.0))
    points = latin_hypercube(n, box.lower, box.upper, make_rng(17))
    counts = stratum_counts(points, box.lower, box.upper, n)
    assert np.all(counts == 1)


def test_deterministic_repeat():
    box = Box(np.zeros(3), np.ones(3))
    a = latin_hypercube(100, box.lower, box.upper, make_rng(5))
    b = latin_hypercube(100, box.lower, box.upper, make_rng(5))
    assert np.array_equal(a, b)


def test_zero_samples_rejected():
    with pytest.raises(ContractError):
        latin_hypercube(0, [0.0], [1.0], make_rng(0))


def test_marginal_uniformity():
    # empirical mean of a size-1e4 design within 3 sigma of the box midpoint
    n = 10_000
    box = Box([-5.0, 0.0], [5.0, 2.0])
    points = latin_hypercube(n, box.lower, box.upper, make_rng(11))
    widths = box.upper - box.lower
    sigma = widths / np.sqrt(12.0 * n)
    mid = 0.5 * (box.lower + box.upper)
    assert np.all(np.abs(points.mean(axis=0) - mid) < 3.0 * sigma)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 200), d=st.integers(1, 6), seed=st.integers(0, 2**31))
def test_stratification_property(n, d, seed):
    box = Box(np.full(d, -1.0), np.full(d, 3.0))
    points = latin_hypercube(n, box.lower, box.upper, make_rng(seed))
    counts = stratum_counts(points, box.lower, box.upper, n)
    assert np.all(counts == 1)


def test_lhs_params_ranges_and_count():
    params = lhs_params(30, make_rng(2))
    lower, upper = zip(*DEFAULT_PARAM_RANGES)
    design = latin_hypercube(30, lower, upper, make_rng(2))
    assert len(params) == 30
    assert len(set(params)) == 30
    for p, row in zip(params, design):
        assert (p.p1, p.p2) == (row[0], row[1])
        assert DEFAULT_PARAM_RANGES[1][0] <= p.p2 <= DEFAULT_PARAM_RANGES[1][1]
        assert isinstance(p.p3, int)
        assert p.p3 == math.floor(row[2] + 0.5)
        assert 10 <= p.p3 <= 500


def test_lhs_params_single_draw_inside_ranges():
    (p,) = lhs_params(1, make_rng(9))
    assert 0.0 <= p.p1 <= 1.0
    assert 0.1 <= p.p2 <= 1.0
    assert 10 <= p.p3 <= 500


def test_lhs_params_deterministic():
    assert lhs_params(12, make_rng(4)) == lhs_params(12, make_rng(4))


def test_control_params_validation():
    ControlParams(0.5, 0.5, 10).validate()
    ControlParams(0.0, 0.0, 5).validate()  # degenerate but accepted
    with pytest.raises(ContractError):
        ControlParams(1.5, 0.5, 10).validate()
    with pytest.raises(ContractError):
        ControlParams(0.5, -0.1, 10).validate()
    with pytest.raises(ContractError):
        ControlParams(0.5, 0.5, 4).validate()


def test_substreams_differ_and_repeat():
    a1 = substream(7, "x").random(4)
    a2 = substream(7, "x").random(4)
    b = substream(7, "y").random(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_derive_seed_stable():
    s = derive_seed(0, "train", "sphere", 10, 1, 3, 0)
    assert s == derive_seed(0, "train", "sphere", 10, 1, 3, 0)
    assert s != derive_seed(0, "train", "sphere", 10, 1, 3, 1)
    assert 0 <= s < 2**63
