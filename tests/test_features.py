import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from tuneseer.bench import ObjectiveInstance, ObjectiveSpec, make_instance
from tuneseer.errors import ContractError
from tuneseer.features import extract_features, iqr, skew


def test_iqr_linear_interpolation_oracle():
    # hand check: q1 = 1 + 0.75*(2-1) = 1.75, q3 = 3 + 0.25*(4-3) = 3.25
    assert abs(iqr([1.0, 2.0, 3.0, 4.0]) - 1.5) < 1e-12


def test_iqr_constant_is_zero():
    assert iqr([5.0, 5.0, 5.0, 5.0]) == 0.0


def test_iqr_translation_invariance():
    rng = np.random.default_rng(0)
    v = rng.normal(size=50)
    assert abs(iqr(v) - iqr(v + 17.25)) < 1e-12


def test_iqr_needs_two_values():
    with pytest.raises(ContractError):
        iqr([1.0])


def test_skew_symmetric_is_zero():
    assert abs(skew([-3.0, 0.0, 3.0])) < 1e-12


def test_skew_two_zeros_one_one_oracle():
    # moment oracle: m2 = 2/9, m3 = 2/27 -> g1 = 1/sqrt(2)
    expected = 1.0 / math.sqrt(2.0)
    assert abs(skew([0.0, 0.0, 1.0]) - expected) < 1e-12
    # independent route: scipy's biased estimator
    assert abs(skew([0.0, 0.0, 1.0]) - scipy.stats.skew([0.0, 0.0, 1.0], bias=True)) < 1e-12


def test_skew_scale_invariance():
    rng = np.random.default_rng(1)
    v = rng.exponential(size=40)
    assert abs(skew(v) - skew(2.0 * v)) < 1e-12


def test_skew_constant_is_zero():
    assert skew([4.0, 4.0, 4.0]) == 0.0


class _AffineWrap:
    """Objective wrapper applying a*f + b without touching the counter
    semantics."""

    def __init__(self, inner, a, b):
        self.inner = inner
        self.a = a
        self.b = b

    @property
    def dimension(self):
        return self.inner.dimension

    @property
    def domain(self):
        return self.inner.domain

    def evaluate_batch(self, points):
        return self.a * self.inner.evaluate_batch(points) + self.b


def test_affine_invariance_of_features():
    inst = make_instance(ObjectiveSpec("rastrigin", 3), 2)
    base = extract_features(inst, 200, 9)
    wrapped = _AffineWrap(make_instance(ObjectiveSpec("rastrigin", 3), 2), 3.7, -11.0)
    other = extract_features(wrapped, 200, 9)
    assert abs(base.beta2 - other.beta2) < 1e-12
    assert abs(base.beta3 - other.beta3) < 1e-12


def test_negation_flips_skew_sign():
    inst = make_instance(ObjectiveSpec("sphere", 2), 3)
    base = extract_features(inst, 300, 4)
    neg = _AffineWrap(make_instance(ObjectiveSpec("sphere", 2), 3), -1.0, 0.0)
    flipped = extract_features(neg, 300, 4)
    assert abs(base.beta2 - flipped.beta2) < 1e-12
    assert abs(base.beta3 + flipped.beta3) < 1e-12


class _ConstantObjective:
    def __init__(self, d, value=2.5):
        self.spec = ObjectiveSpec("sphere", d)
        self.dimension = d
        self.domain = self.spec.domain
        self.value = value
        self.eval_counter = 0

    def evaluate_batch(self, points):
        self.eval_counter += points.shape[0]
        return np.full(points.shape[0], self.value)


def test_constant_function_features():
    obj = _ConstantObjective(4)
    beta = extract_features(obj, 50, 0)
    assert (beta.beta1, beta.beta2, beta.beta3) == (4.0, 0.0, 0.0)


def test_budget_exactness():
    inst = make_instance(ObjectiveSpec("ackley", 3), 1)
    before = inst.eval_counter
    extract_features(inst, 123, 0)
    assert inst.eval_counter - before == 123


def test_deterministic_given_seed():
    a = extract_features(make_instance(ObjectiveSpec("griewank", 2), 1), 100, 5)
    b = extract_features(make_instance(ObjectiveSpec("griewank", 2), 1), 100, 5)
    assert a == b


def test_beta1_is_dimension():
    inst = make_instance(ObjectiveSpec("sphere", 7), 1)
    beta = extract_features(inst, 20, 0)
    assert beta.beta1 == 7.0


def test_sigma_lower_bound():
    inst = make_instance(ObjectiveSpec("sphere", 2), 1)
    with pytest.raises(ContractError, match="sigma must be >= 2, got 1"):
        extract_features(inst, 1, 0)
    assert inst.eval_counter == 0


def test_sphere_iqr_against_monte_carlo_oracle():
    """beta2 of sphere D=2 on [-5,5]^2 vs a 1e6-sample plain Monte-Carlo
    oracle of the induced value distribution (frozen value 1.51023 from the
    oracle below)."""
    rng = np.random.default_rng(123456)
    pts = rng.uniform(-5.0, 5.0, size=(1_000_000, 2))
    vals = (pts**2).sum(axis=1)
    z = (vals - vals.mean()) / vals.std(ddof=1)
    q1, q3 = np.percentile(z, [25.0, 75.0])
    oracle = q3 - q1
    assert abs(oracle - 1.51023) < 5e-3  # oracle itself is stable

    inst = make_instance(ObjectiveSpec("sphere", 2), 0)
    beta = extract_features(inst, 10_000, 7)
    assert abs(beta.beta2 - oracle) < 0.05


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=60
    ),
    scale=st.floats(0.01, 100.0),
    offset=st.floats(-1e3, 1e3),
)
def test_affine_invariance_property(values, scale, offset):
    v = np.asarray(values)
    if np.std(v) < 1e-6:
        return  # degenerate samples are covered by the constant test
    w = scale * v + offset
    assert abs(iqr(v / np.std(v, ddof=1)) - iqr(w / np.std(w, ddof=1))) < 1e-6
    assert abs(skew(v) - skew(w)) < 1e-6
