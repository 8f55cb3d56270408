import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from tuneseer import bench
from tuneseer.bench import (
    HOLDOUT_PRESET,
    REGISTRY,
    SUITES,
    TRAINING_PRESET,
    VALUE_FLOOR,
    ObjectiveSpec,
    make_instance,
    suite,
    suite_listing,
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
    assert rastrigin.evaluate_batch(np.zeros((1, 4)))[0] == VALUE_FLOOR
    rosenbrock = make_instance(ObjectiveSpec("rosenbrock", 2), 0)
    assert rosenbrock.evaluate_batch([[1.0, 1.0]])[0] == VALUE_FLOOR


def test_shifted_instance_attains_optimum_at_shift():
    inst = make_instance(ObjectiveSpec("sphere", 3), 7)
    assert inst.evaluate_batch(inst.shift[None])[0] == VALUE_FLOOR


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


def _near_optimum(inst, fid, rng):
    """The instance's optimum location, then 20,000 points within 1e-9 of
    it: where a cancellation can leave a base value below 0."""
    d = inst.dim
    location = inst.shift + inst.rotation.T @ _base_optimum(fid, d)
    return np.vstack([location, location + rng.uniform(-1e-9, 1e-9, (20_000, d))])


@pytest.mark.parametrize("fid", sorted(REGISTRY))
def test_no_value_below_the_floor(fid):
    # without the clamp, Schwefel reads down to about -1.2e-12 near its
    # optimum at D = 20; without the floor, most training functions read
    # exactly 0 at their optimum
    rng = np.random.default_rng(4)
    for d in (2, 10, 20):
        for seed in (0, 1):
            inst = make_instance(ObjectiveSpec(fid, d), seed)
            vals = inst.evaluate_batch(_near_optimum(inst, fid, rng))
            assert vals.min() >= VALUE_FLOOR, (d, seed, vals.min())


@pytest.mark.parametrize("fid", sorted(HOLDOUT_PRESET))
def test_holdout_values_keep_their_bits(fid):
    # no held-out base value is below 0, so the clamp changes none of them:
    # each is its base value plus the floor, bit for bit
    rng = np.random.default_rng(5)
    for d in (2, 10, 20):
        for seed in (101, 102):
            inst = make_instance(ObjectiveSpec(fid, d), seed)
            in_box = rng.uniform(-5.0, 5.0, size=(500, d))
            for points in (in_box, _near_optimum(inst, fid, rng)):
                z = (points - inst.shift) @ inst.rotation.T
                want = REGISTRY[fid](z) + VALUE_FLOOR
                assert np.array_equal(inst.evaluate_batch(points), want), (d, seed)


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
    assert SUITES == {"training": TRAINING_PRESET, "holdout": HOLDOUT_PRESET}
    train = {s.function_id for s in suite("training", dims=(2,))}
    hold = {s.function_id for s in suite("holdout", dims=(2,))}
    assert train == set(TRAINING_PRESET)
    assert hold == set(HOLDOUT_PRESET)
    assert not train & hold
    # a function no preset reaches has no caller; keep it out of the registry
    assert set(REGISTRY) == train | hold
    assert len(train) >= 10
    assert len(hold) >= 5


@pytest.mark.parametrize("d", [2, 50])
def test_every_spec_evaluates_at_midpoint(d):
    for spec in suite("training", dims=(d,)) + suite("holdout", dims=(d,)):
        inst = make_instance(spec, 1)
        midpoint = 0.5 * (inst.domain.lower + inst.domain.upper)
        value = inst.evaluate_batch(midpoint[None])[0]
        assert np.isfinite(value)


def test_suite_listing_is_json_ready():
    listing = suite_listing(suite("training", dims=(2,)))
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


@pytest.mark.parametrize(
    "name,base",
    [
        ("rotated_ellipsoid", "ellipsoid"),
        ("ridge_rotated", "sharp_ridge"),
        ("rosenbrock_rotated", "rosenbrock"),
    ],
)
def test_rotated_instance_is_its_base_under_the_composed_rotation(name, base):
    # base(Q R (x - shift)): the training function's instance with rotation
    # Q R.  R is Haar-distributed, so Q R is too, and from instance seed 1 on
    # a rotated entry is a draw from its base function's instances
    assert base in TRAINING_PRESET
    rng = np.random.default_rng(0)
    for d in (2, 10, 20):
        q = bench._intrinsic_rotation(name, d)
        for seed in (1, 101):
            inst = make_instance(ObjectiveSpec(name, d), seed)
            composed = bench.ObjectiveInstance(
                ObjectiveSpec(base, d), inst.shift, q @ inst.rotation
            )
            points = rng.uniform(-5.0, 5.0, size=(50, d))
            np.testing.assert_allclose(
                inst.evaluate_batch(points), composed.evaluate_batch(points), rtol=1e-12
            )


def test_step_function_plateau():
    inst = make_instance(ObjectiveSpec("step", 3), 0)
    # inside the central plateau only the weak |z_1| slope remains
    assert inst.evaluate_batch([[0.2, -0.3, 0.49]])[0] == pytest.approx(0.2e-5)
    assert inst.evaluate_batch([[0.2001, -0.3, 0.49]])[0] == pytest.approx(0.2001e-5)
    # off the plateau the rounded quadratic dominates
    assert inst.evaluate_batch([[0.9, 0.0, 0.0]])[0] == pytest.approx(0.1, abs=1e-5)
    assert inst.evaluate_batch([[0.0, 0.0, 0.0]])[0] == VALUE_FLOOR


def exact_weierstrass_term(x):
    """sum_k a^k cos(2 pi 3^k (x + 0.5)) + (2 - 2^-20) for one coordinate.
    r = 3^k (x + 0.5) mod 1 is reduced exactly; since 3^k is odd, each term
    plus a^k is a^k (1 + cos(2 pi r)) = a^k 2 sin^2(pi |r - 1/2|), which
    keeps its relative precision near an optimum, where r is near 1/2.  Each
    term is rounded once and the terms are summed exactly."""
    terms = []
    for k in range(21):
        r = (3**k * (Fraction(x) + Fraction(1, 2))) % 1
        terms.append(math.ldexp(math.sin(math.pi * float(abs(r - Fraction(1, 2)))) ** 2, 1 - k))
    return math.fsum(terms)


def exact_weierstrass(z):
    return np.array([math.fsum(exact_weierstrass_term(x) for x in row) for row in z])


def block_rows(d):
    return max(1, bench._WEIERSTRASS_BLOCK // d)


def unblocked_weierstrass(z):
    """``bench._weierstrass`` on pieces of 97 rows, each of which fits in one
    block, so no evaluation meets a block boundary."""
    return np.concatenate([bench._weierstrass(z[s : s + 97]) for s in range(0, len(z), 97)])


def boundary_sizes(d):
    rows = block_rows(d)
    return sorted({1, 2, rows - 1, rows, rows + 1, 2 * rows, 3 * rows + 1, 1000})


@pytest.mark.parametrize("d", [2, 3, 10, 20, 50])
def test_weierstrass_blocks_match_unblocked_reference(d):
    # every row equals that row evaluated alone, checked at the block edges
    # and at 40 random rows, and the whole batch equals its 97-row pieces
    rng = np.random.default_rng(d)
    rows = block_rows(d)
    for n in boundary_sizes(d):
        z = rng.uniform(-40.0, 40.0, size=(n, d))
        out = bench._weierstrass(z)
        edges = {0, rows - 1, rows, 2 * rows - 1, 2 * rows, n - 1} & set(range(n))
        for i in edges | set(rng.choice(n, size=min(n, 40), replace=False).tolist()):
            assert out[i] == bench._weierstrass(z[i : i + 1])[0], (n, i)
        assert np.array_equal(out, unblocked_weierstrass(z)), n


@pytest.mark.parametrize("d", [2, 3, 10, 20, 50])
def test_rotated_weierstrass_batches_match_unblocked_reference(d):
    # the rotation's matmul is not row-independent, so the reference starts
    # from the z the instance computes
    rng = np.random.default_rng(100 + d)
    for seed in (1, 2):
        inst = make_instance(ObjectiveSpec("weierstrass", d), seed)
        for n in (1, block_rows(d), block_rows(d) + 1, 1000):
            points = rng.uniform(-5.0, 5.0, size=(n, d))
            z = (points - inst.shift) @ inst.rotation.T
            want = unblocked_weierstrass(z) + VALUE_FLOOR
            assert np.array_equal(inst.evaluate_batch(points), want)


# (offset, half-width, relative bound): uniform |z| <= 40; within 1e-4 of an
# integer, where every optimum is; within 1e-4 of a half-integer, where a
# term has its maximum and the tripling loses the most.  The bounds are about
# three times the largest relative errors measured over 100,000 coordinates
# and over 3,000 per scale from 1e-14 to 1e-4: 3.2e-8, 3.6e-11 and 7.3e-6.
WEIERSTRASS_REGIONS = {
    "uniform": (None, 40.0, 1e-7),
    "near-integer": (0.0, 1e-4, 1e-10),
    "near-half-integer": (0.5, 1e-4, 2e-5),
}


@pytest.mark.parametrize("region", WEIERSTRASS_REGIONS)
@pytest.mark.parametrize("d", [2, 10, 20, 50])
def test_weierstrass_matches_an_exact_reference(d, region):
    offset, width, bound = WEIERSTRASS_REGIONS[region]
    rng = np.random.default_rng(200 + d)
    shape = (max(10, 2000 // d), d)
    if offset is None:
        z = rng.uniform(-width, width, size=shape)
    else:
        # half-widths from 1e-14 up to ``width``, one per column
        scales = width * 10.0 ** -rng.uniform(0.0, 10.0, size=d)
        z = rng.integers(-5, 5, size=shape) + offset + scales * rng.uniform(-1.0, 1.0, size=shape)
    want = exact_weierstrass(z)
    assert np.all(np.abs(bench._weierstrass(z) - want) <= bound * want)


def test_weierstrass_reads_exact_zero_on_integer_points():
    z = np.random.default_rng(0).integers(-5, 6, size=(100, 7)).astype(float)
    assert np.all(bench._weierstrass(z) == 0.0)


@pytest.mark.parametrize("d", [2, 10, 20, 50])
@pytest.mark.parametrize("seed", [0, 1])
def test_weierstrass_optimum_reads_the_floor(d, seed):
    inst = make_instance(ObjectiveSpec("weierstrass", d), seed)
    assert inst.evaluate_batch(inst.shift[None])[0] == VALUE_FLOOR


@pytest.mark.parametrize("n,d", [(1, 2), (20, 2), (200, 20), (5000, 50)])
def test_weierstrass_takes_one_sine_per_coordinate(monkeypatch, n, d):
    calls = {"sin": 0, "cos": 0}

    def counted(name):
        original = getattr(np, name)

        def fn(x, *args, **kwargs):
            calls[name] += np.size(x)
            return original(x, *args, **kwargs)

        return fn

    for name in calls:
        monkeypatch.setattr(np, name, counted(name))
    bench._weierstrass(np.random.default_rng(n).uniform(-5.0, 5.0, size=(n, d)))
    assert calls == {"sin": n * d, "cos": 0}


def test_weierstrass_memory_is_bounded():
    # unblocked, each (4000, 50) temporary would take 1.6 MB, and three live at once
    z = np.random.default_rng(0).uniform(-5.0, 5.0, size=(4000, 50))
    tracemalloc.start()
    try:
        out = bench._weierstrass(z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 2 * 2**20
