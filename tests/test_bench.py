import json
import tracemalloc

import numpy as np
import pytest

from tuneseer import bench
from tuneseer.bench import (
    HOLDOUT_FUNCTIONS,
    HOLDOUT_VALUE_OFFSET,
    REGISTRY,
    TRAINING_FUNCTIONS,
    ObjectiveSpec,
    holdout_suite,
    make_instance,
    suite_listing,
    training_suite,
)
from tuneseer.errors import ContractError


def test_identity_instance_has_no_transform():
    inst = make_instance(ObjectiveSpec("sphere", 3), 0)
    assert np.array_equal(inst.shift, np.zeros(3))
    assert np.array_equal(inst.rotation, np.eye(3))


def test_known_values_identity():
    sphere = make_instance(ObjectiveSpec("sphere", 3), 0)
    assert sphere.evaluate_batch([[1.0, 1.0, 1.0]])[0] == 3.0
    rastrigin = make_instance(ObjectiveSpec("rastrigin", 4), 0)
    assert rastrigin.evaluate_batch(np.zeros((1, 4)))[0] == 0.0
    rosenbrock = make_instance(ObjectiveSpec("rosenbrock", 2), 0)
    assert rosenbrock.evaluate_batch([[1.0, 1.0]])[0] == 0.0


def test_shifted_instance_attains_optimum_at_shift():
    inst = make_instance(ObjectiveSpec("sphere", 3), 7)
    assert inst.evaluate_batch(inst.shift[None])[0] == 0.0


def test_instances_are_deterministic():
    a = make_instance(ObjectiveSpec("rastrigin", 2), 5)
    b = make_instance(ObjectiveSpec("rastrigin", 2), 5)
    assert np.array_equal(a.shift, b.shift)
    assert np.array_equal(a.rotation, b.rotation)


def test_different_seeds_differ():
    a = make_instance(ObjectiveSpec("rastrigin", 2), 5)
    b = make_instance(ObjectiveSpec("rastrigin", 2), 6)
    assert not np.array_equal(a.shift, b.shift)


def test_unknown_function_rejected():
    with pytest.raises(ContractError, match="^unknown function id 'not_a_function'$"):
        ObjectiveSpec("not_a_function", 3)


def test_negative_instance_seed_rejected():
    with pytest.raises(ContractError):
        make_instance(ObjectiveSpec("sphere", 2), -1)


def test_dimension_mismatch_rejected():
    inst = make_instance(ObjectiveSpec("sphere", 3), 0)
    for points in (np.zeros((1, 2)), np.zeros(3), np.zeros((1, 3, 1))):
        with pytest.raises(ContractError):
            inst.evaluate_batch(points)
    assert inst.eval_counter == 0


def test_rotation_is_orthogonal():
    for fid in ("sphere", "ackley"):
        inst = make_instance(ObjectiveSpec(fid, 12), 3)
        err = np.abs(inst.rotation.T @ inst.rotation - np.eye(12)).max()
        assert err < 1e-9


def test_shift_strictly_inside_domain():
    for seed in range(1, 8):
        inst = make_instance(ObjectiveSpec("ackley", 10), seed)
        assert np.all(inst.shift > inst.domain.lower)
        assert np.all(inst.shift < inst.domain.upper)


@pytest.mark.parametrize("fid", sorted(REGISTRY))
def test_instancing_invariance(fid):
    # f(shift + R^T y) must equal base(y) for random y
    d = 6
    inst = make_instance(ObjectiveSpec(fid, d), 11)
    base = REGISTRY[fid]
    rng = np.random.default_rng(0)
    y = rng.uniform(-5.0, 5.0, size=(100, d))
    expected = base(y)
    got = inst.evaluate_batch(y @ inst.rotation + inst.shift)
    rel = np.abs(got - expected) / np.maximum(1.0, np.abs(expected))
    assert rel.max() < 1e-9


def _base_optimum(fid, d):
    """Where the base function of ``fid`` attains its optimum value 0."""
    if fid == "rosenbrock":
        return np.ones(d)
    if fid == "rosenbrock_rotated":
        return bench._intrinsic_rotation("rosenbrock_rotated", d).T @ np.ones(d)
    return np.zeros(d)


@pytest.mark.parametrize("fid", sorted(REGISTRY))
def test_optimum_value_attained(fid):
    # base optimum value 0 is attained at the instance's optimum location
    # (which may fall outside the box for rotated instances of functions
    # whose base optimum is not at the origin)
    for seed in (0, 3):
        inst = make_instance(ObjectiveSpec(fid, 5), seed)
        location = inst.shift + inst.rotation.T @ _base_optimum(fid, 5)
        assert abs(inst.evaluate_batch(location[None])[0]) < 1e-9


@pytest.mark.parametrize("fid", sorted(REGISTRY))
def test_nonnegative_inside_domain(fid):
    # rotated instances evaluate the base far outside the box itself, so the
    # in-box values must stay nonnegative through the transform too
    rng = np.random.default_rng(1)
    for seed in (0, 1, 2):
        inst = make_instance(ObjectiveSpec(fid, 4), seed)
        vals = inst.evaluate_batch(rng.uniform(-5, 5, size=(500, 4)))
        assert np.all(vals >= -1e-9)
        assert np.all(np.isfinite(vals))


@pytest.mark.parametrize("fid", sorted(REGISTRY))
def test_base_nonnegative_on_rotation_reach(fid):
    # any rotation of the box at D=20 keeps coordinates within +-(9 sqrt(20));
    # base values over that reach must not undercut the optimum value
    rng = np.random.default_rng(2)
    z = rng.uniform(-40.0, 40.0, size=(2000, 20))
    vals = REGISTRY[fid](z)
    assert np.all(vals >= -1e-9)


def test_eval_counter_exactness():
    inst = make_instance(ObjectiveSpec("sphere", 2), 1)
    for _ in range(7):
        inst.evaluate_batch(np.zeros((1, 2)))
    inst.evaluate_batch(np.zeros((5, 2)))
    assert inst.eval_counter == 12


def test_suites_disjoint_and_sized():
    train = {s.function_id for s in training_suite(dims=(2,))}
    hold = {s.function_id for s in holdout_suite(dims=(2,))}
    assert train == set(TRAINING_FUNCTIONS)
    assert hold == set(HOLDOUT_FUNCTIONS)
    assert not train & hold
    # a function no preset reaches has no caller; keep it out of the registry
    assert set(REGISTRY) == train | hold
    assert len(train) >= 10
    assert len(hold) >= 5


@pytest.mark.parametrize("d", [2, 50])
def test_every_spec_evaluates_at_midpoint(d):
    for spec in training_suite(dims=(d,)) + holdout_suite(dims=(d,)):
        inst = make_instance(spec, 1)
        midpoint = 0.5 * (inst.domain.lower + inst.domain.upper)
        value = inst.evaluate_batch(midpoint[None])[0]
        assert np.isfinite(value)


def test_suite_listing_is_json_ready():
    listing = suite_listing(training_suite(dims=(2,)))
    text = json.dumps(listing)
    parsed = json.loads(text)
    assert parsed[0]["function_id"] == "sphere"
    assert parsed[0]["dimension"] == 2
    assert parsed[0]["lower"] == [-5.0, -5.0]


def test_domain_shared_across_functions():
    d1 = ObjectiveSpec("sphere", 10).domain
    d2 = ObjectiveSpec("schwefel", 10).domain
    assert np.array_equal(d1.lower, d2.lower)
    assert np.array_equal(d1.upper, d2.upper)


def test_rotated_ellipsoid_differs_from_separable():
    # the intrinsic rotation must make the two ellipsoids distinct even on
    # identity instances
    z = np.array([[1.0, 2.0, 3.0, -1.0]])
    sep = REGISTRY["ellipsoid"](z)
    rot = REGISTRY["rotated_ellipsoid"](z)
    assert abs(sep[0] - rot[0]) > 1.0


def test_step_function_plateau():
    inst = make_instance(ObjectiveSpec("step", 3), 0)
    # inside the central plateau only the weak |z_1| slope remains
    assert inst.evaluate_batch([[0.2, -0.3, 0.49]])[0] == pytest.approx(0.2e-5)
    assert inst.evaluate_batch([[0.2001, -0.3, 0.49]])[0] == pytest.approx(0.2001e-5)
    # off the plateau the rounded quadratic dominates
    assert inst.evaluate_batch([[0.9, 0.0, 0.0]])[0] == pytest.approx(0.1, abs=1e-5)
    assert inst.evaluate_batch([[0.0, 0.0, 0.0]])[0] == 0.0


def unblocked_weierstrass(z):
    """The whole-batch evaluation: one (n, D, 21) term table."""
    a, b = bench._WEIERSTRASS_A, bench._WEIERSTRASS_B
    terms = a * np.cos(b * (z[..., None] + 0.5))
    f0 = float(np.sum(a * np.cos(b * 0.5)))
    return np.sum(terms, axis=(1, 2)) - z.shape[1] * f0


def block_rows(d):
    return max(1, bench._WEIERSTRASS_BLOCK // (d * bench._WEIERSTRASS_K.size))


def boundary_sizes(d):
    rows = block_rows(d)
    return sorted({1, 2, rows - 1, rows, rows + 1, 2 * rows, 3 * rows + 1, 1000})


@pytest.mark.parametrize("d", [2, 3, 10, 20, 50])
def test_weierstrass_blocks_match_unblocked_reference(d):
    rng = np.random.default_rng(d)
    sizes = boundary_sizes(d) + rng.integers(1, 3000, size=4).tolist()
    for n in sizes:
        z = rng.uniform(-40.0, 40.0, size=(n, d))
        assert np.array_equal(bench._weierstrass(z), unblocked_weierstrass(z)), n


@pytest.mark.parametrize("d", [2, 3, 10, 20, 50])
def test_rotated_weierstrass_batches_match_unblocked_reference(d):
    rng = np.random.default_rng(100 + d)
    for seed in (1, 2):
        inst = make_instance(ObjectiveSpec("weierstrass", d), seed)
        for n in (1, block_rows(d), block_rows(d) + 1, 1000):
            points = rng.uniform(-5.0, 5.0, size=(n, d))
            z = (points - inst.shift) @ inst.rotation.T
            want = unblocked_weierstrass(z) + HOLDOUT_VALUE_OFFSET
            assert np.array_equal(inst.evaluate_batch(points), want)


def test_weierstrass_memory_is_bounded():
    # the whole-batch table of a (4000, 50) batch is 34 MB per temporary
    z = np.random.default_rng(0).uniform(-5.0, 5.0, size=(4000, 50))
    tracemalloc.start()
    try:
        out = bench._weierstrass(z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 2 * 2**20
