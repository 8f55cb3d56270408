import numpy as np
import pytest

from tuneseer import de, shade
from tuneseer.bench import ObjectiveSpec, make_instance
from tuneseer.de import optimize
from tuneseer.errors import ContractError
from tuneseer.sampling import ControlParams, substream


def run(fid="sphere", d=5, inst_seed=1, params=(0.9, 0.5, 20), budget=600, seed=0):
    instance = make_instance(ObjectiveSpec(fid, d), inst_seed)
    trace = optimize(instance, ControlParams(*params), budget, seed)
    return instance, trace


def test_stationary_when_weight_and_crossover_are_zero():
    # with p2 = 0 the donor equals its target, and the forced coordinate
    # copies an identical value, so the population never moves
    instance, trace = run(params=(0.0, 0.0, 10), budget=200, seed=3)
    first = trace.generations[0][2]
    assert all(f == first for _, _, f in trace.generations)
    assert len(trace.generations) == 20


def test_deterministic_trace():
    _, a = run(seed=11)
    _, b = run(seed=11)
    assert a.generations == b.generations
    assert np.array_equal(a.final_population, b.final_population)
    _, c = run(seed=12)
    assert a.generations != c.generations


def test_elitism_and_budget_over_randomized_runs():
    rng = np.random.default_rng(2024)
    fids = ["sphere", "rastrigin", "rosenbrock", "ackley", "step"]
    for _ in range(100):
        fid = fids[rng.integers(0, len(fids))]
        d = int(rng.integers(2, 8))
        p3 = int(rng.integers(5, 40))
        budget = int(rng.integers(p3, 8 * p3))
        params = ControlParams(
            p1=float(rng.random()), p2=float(rng.uniform(0.1, 1.0)), p3=p3
        )
        instance = make_instance(ObjectiveSpec(fid, d), int(rng.integers(0, 5)))
        trace = optimize(instance, params, budget, int(rng.integers(0, 1e6)))
        best = [f for _, _, f in trace.generations]
        evals = [n for _, n, _ in trace.generations]
        assert all(b >= a for a, b in zip(best[1:], best))  # non-increasing
        assert all(b > a for a, b in zip(evals, evals[1:]))  # strictly increasing
        assert instance.eval_counter <= budget
        assert instance.eval_counter >= budget - p3 + 1
        assert evals[-1] == instance.eval_counter


def test_budget_below_population_rejected():
    instance = make_instance(ObjectiveSpec("sphere", 3), 0)
    with pytest.raises(ContractError):
        optimize(instance, ControlParams(0.9, 0.5, 50), 49, 0)


def test_evolve_rejects_a_population_below_the_minimum():
    instance = make_instance(ObjectiveSpec("sphere", 3), 0)
    fixed = (np.full(4, 0.9), np.full(4, 0.5))
    with pytest.raises(ContractError, match="population size must be >= 5, got 4"):
        de.evolve(instance, 4, 40, substream(0, "de"), lambda rng: fixed)
    assert instance.eval_counter == 0


def test_init_population_counts_and_bounds():
    instance = make_instance(ObjectiveSpec("sphere", 4), 1)
    rng = substream(5, "de")
    points, values = de.init_population(instance, 5, rng)
    assert points.shape == (5, 4)
    assert np.all(points >= instance.domain.lower)
    assert np.all(points <= instance.domain.upper)
    assert instance.eval_counter == 5
    again, _ = de.init_population(
        make_instance(ObjectiveSpec("sphere", 4), 1), 5, substream(5, "de")
    )
    assert np.array_equal(points, again)


def test_sphere_literature_params_converges():
    instance, trace = run(d=10, params=(0.9, 0.5, 100), budget=10_000, seed=0)
    assert trace.best_value <= 1e-2


def test_trials_respect_domain():
    instance, trace = run(params=(1.0, 1.0, 8), budget=400, seed=9)
    assert np.all(trace.final_population >= instance.domain.lower)
    assert np.all(trace.final_population <= instance.domain.upper)


def _reference_one_generation(instance, pop, fvals, cr, f, rng):
    """Straight-line recomputation of one kernel generation, consuming the
    same draws in the same order but applying the rules per individual."""
    pop_size, dim = pop.shape
    lower = instance.domain.lower
    upper = instance.domain.upper
    order = np.argsort(fvals, kind="stable")
    q_lo = 2.0 / pop_size
    q_hi = max(q_lo, 0.2)
    q = rng.uniform(q_lo, q_hi, size=pop_size)
    pool = np.maximum(2, np.ceil(q * pop_size).astype(int))
    pbest = order[rng.integers(0, pool)]
    r1_draw = rng.integers(0, pop_size - 1, size=pop_size)
    r1 = r1_draw + (r1_draw >= np.arange(pop_size))
    combined = pop  # no archive in the first generation
    r2_draw = rng.integers(0, combined.shape[0] - 2, size=pop_size)
    r2 = np.empty(pop_size, dtype=int)
    for i in range(pop_size):
        lo, hi = sorted((i, int(r1[i])))
        v = int(r2_draw[i])
        if v >= lo:
            v += 1
        if v >= hi:
            v += 1
        r2[i] = v
    jrand_all = rng.integers(0, dim, size=pop_size)
    mask_draws = rng.random((pop_size, dim))

    trials = np.empty_like(pop)
    for i in range(pop_size):
        assert r1[i] != i
        assert r2[i] not in (i, r1[i])
        donor = (
            pop[i]
            + f[i] * (pop[pbest[i]] - pop[i])
            + f[i] * (pop[r1[i]] - combined[r2[i]])
        )
        trial = pop[i].copy()
        for j in range(dim):
            if mask_draws[i, j] < cr[i] or j == jrand_all[i]:
                trial[j] = donor[j]
        for j in range(dim):
            if trial[j] < lower[j]:
                trial[j] = 0.5 * (lower[j] + pop[i, j])
            elif trial[j] > upper[j]:
                trial[j] = 0.5 * (upper[j] + pop[i, j])
        trials[i] = trial

    tvals = instance.evaluate_batch(trials)
    new_pop = pop.copy()
    new_vals = fvals.copy()
    for i in range(pop_size):
        if tvals[i] <= fvals[i]:
            new_pop[i] = trials[i]
            new_vals[i] = tvals[i]
    return new_pop, new_vals


def test_selection_matches_bruteforce_recomputation():
    # one generation, engine vs naive per-individual reference on a shared
    # random stream
    spec = ObjectiveSpec("rastrigin", 3)
    p3, budget, seed = 8, 16, 77
    engine_instance = make_instance(spec, 2)
    trace = optimize(engine_instance, ControlParams(0.4, 0.7, p3), budget, seed)

    ref_instance = make_instance(spec, 2)
    rng = substream(seed, "de")
    pop, fvals = de.init_population(ref_instance, p3, rng)
    cr = np.full(p3, 0.4)
    f = np.full(p3, 0.7)
    ref_pop, ref_vals = _reference_one_generation(ref_instance, pop, fvals, cr, f, rng)

    assert np.allclose(trace.final_population, ref_pop, atol=0, rtol=0)
    assert np.allclose(trace.final_values, ref_vals, atol=0, rtol=0)
    assert trace.generations[-1][2] == ref_vals.min()


def _pick_r1(rng, pop_size, own):
    draws = rng.integers(0, pop_size - 1, size=pop_size)
    return draws + (draws >= own)


def _pick_r2(rng, total, own, r1):
    draws = rng.integers(0, total - 2, size=own.size)
    lo = np.minimum(own, r1)
    hi = np.maximum(own, r1)
    r2 = draws + (draws >= lo)
    r2 += r2 >= hi
    return r2


def _reference_evolve(
    instance, pop_size, budget, rng, sample_cr_f, update=None, evictions=None
):
    """The kernel as it stood with the archive held as a Python list of rows,
    joined to the population by ``np.vstack`` each generation, four separate
    integer draws (pbest, r1, r2, forced coordinate) per generation, and one
    scalar eviction draw per archive overflow.  ``evictions`` (a list)
    collects the evicted indices."""
    dom = instance.domain
    lower, upper = dom.lower, dom.upper
    dim = instance.dim

    pop, fvals = de.init_population(instance, pop_size, rng)
    used = pop_size
    archive = []
    trace = de.RunTrace()
    gen = 1
    trace.generations.append((gen, instance.eval_counter, float(fvals.min())))

    q_lo = 2.0 / pop_size
    q_hi = max(q_lo, de.Q_GREEDY_MAX)
    idx = np.arange(pop_size)

    while used + pop_size <= budget:
        gen += 1
        cr, f = sample_cr_f(rng)

        order = np.argsort(fvals, kind="stable")
        q = rng.uniform(q_lo, q_hi, size=pop_size)
        pool = np.maximum(2, np.ceil(q * pop_size).astype(int))
        pbest = order[rng.integers(0, pool)]
        r1 = _pick_r1(rng, pop_size, idx)
        combined = np.vstack([pop] + archive) if archive else pop
        r2 = _pick_r2(rng, combined.shape[0], idx, r1)

        fw = f[:, None]
        donors = pop + fw * (pop[pbest] - pop) + fw * (pop[r1] - combined[r2])

        jrand = rng.integers(0, dim, size=pop_size)
        mask = rng.random((pop_size, dim)) < cr[:, None]
        mask[idx, jrand] = True
        trials = np.where(mask, donors, pop)
        trials = np.where(trials < lower, 0.5 * (lower + pop), trials)
        trials = np.where(trials > upper, 0.5 * (upper + pop), trials)

        tvals = instance.evaluate_batch(trials)
        used += pop_size

        improved = tvals <= fvals
        won = tvals < fvals
        deltas = fvals - tvals

        for i in np.nonzero(improved)[0]:
            archive.append(pop[i].copy())
            if len(archive) > pop_size:
                k = int(rng.integers(0, len(archive)))
                archive.pop(k)
                if evictions is not None:
                    evictions.append(k)

        pop[improved] = trials[improved]
        fvals[improved] = tvals[improved]
        trace.generations.append((gen, instance.eval_counter, float(fvals.min())))

        if update is not None:
            update(cr[won], f[won], deltas[won])

    trace.final_population = pop
    trace.final_values = fvals
    return trace


def _assert_same_trace(got, want):
    assert got.generations == want.generations
    assert np.array_equal(got.final_population, want.final_population)
    assert np.array_equal(got.final_values, want.final_values)


MULTI_GEN_GRID = [
    (pop_size, dim) for pop_size in (5, 8, 19, 100, 500) for dim in (2, 10)
]


def _reference_run(monkeypatch, module, call):
    """Run ``call`` with ``module.evolve`` swapped for the list-archive
    reference; returns (trace, evicted indices)."""
    evictions = []

    def reference(*args, **kwargs):
        return _reference_evolve(*args, evictions=evictions, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(module, "evolve", reference)
        trace = call()
    return trace, evictions


@pytest.mark.parametrize("pop_size,dim", MULTI_GEN_GRID)
def test_fixed_kernel_matches_list_archive_reference(monkeypatch, pop_size, dim):
    # long enough for the archive to fill and evict over many generations
    spec = ObjectiveSpec("rastrigin", dim)
    params = ControlParams(0.9, 0.5, pop_size)
    budget, seed = pop_size * 30, 1000 + pop_size + dim

    got = optimize(make_instance(spec, 3), params, budget, seed)
    want, evictions = _reference_run(
        monkeypatch, de, lambda: optimize(make_instance(spec, 3), params, budget, seed)
    )
    assert len(evictions) > pop_size
    assert got.final_population.base is None  # owned, not a buffer view
    _assert_same_trace(got, want)


@pytest.mark.parametrize("pop_size,dim", MULTI_GEN_GRID)
def test_shade_kernel_matches_list_archive_reference(monkeypatch, pop_size, dim):
    spec = ObjectiveSpec("ackley", dim)
    budget, seed = pop_size * 30, 2000 + pop_size + dim

    monkeypatch.setattr(shade, "POP_SIZE", pop_size)

    def run_shade():
        return shade.optimize_shade(make_instance(spec, 4), budget, seed)

    got = run_shade()
    want, evictions = _reference_run(monkeypatch, shade, run_shade)
    assert len(evictions) > pop_size
    _assert_same_trace(got, want)


@pytest.mark.parametrize("k", [0, 1, 2, 7, 64, 501])
def test_vector_integer_draw_equals_scalar_draws(k):
    # The kernel draws all of a generation's archive evictions with one
    # vector call.  This relies on it matching k scalar calls, including the
    # generator state it leaves behind: PCG64 keeps the unused 32-bit half
    # of a 64-bit output in the bit generator.  An odd seed starts the draws
    # on that buffered half.  k = 0 is a generation without overflow, whose
    # draw must consume nothing.
    for seed in range(30):
        for n in (6, 9, 20, 101, 501):
            vec_rng = substream(seed, "de")
            scalar_rng = substream(seed, "de")
            if seed % 2:
                vec_rng.integers(0, n)
                scalar_rng.integers(0, n)
            vector = vec_rng.integers(0, n, size=k).tolist()
            scalar = [int(scalar_rng.integers(0, n)) for _ in range(k)]
            assert vector == scalar
            assert vec_rng.integers(0, n) == scalar_rng.integers(0, n)
            assert vec_rng.random() == scalar_rng.random()


@pytest.mark.parametrize("pop_size,dim", [(5, 1), (5, 2), (8, 3), (19, 10), (100, 30)])
def test_bound_array_draw_equals_four_scalar_bound_draws(pop_size, dim):
    # The kernel draws a generation's pbest ranks, r1, r2 and forced
    # coordinates with one array-bound call.  It must match the four calls it
    # replaced (array-bound pbest, then scalar-bound r1, r2 and jrand), in
    # values and in the generator state left behind, from either half of
    # PCG64's buffered 64-bit output.
    for seed in range(20):
        draw_rng = np.random.default_rng(seed)
        for n_arch in (0, 1, pop_size // 2, pop_size):
            pool = draw_rng.integers(2, pop_size + 1, size=pop_size)
            highs = np.concatenate(
                [
                    pool,
                    np.full(pop_size, pop_size - 1),
                    np.full(pop_size, pop_size + n_arch - 2),
                    np.full(pop_size, dim),
                ]
            )
            for odd in (False, True):
                merged_rng = substream(seed, "de")
                split_rng = substream(seed, "de")
                if odd:
                    merged_rng.integers(0, 3)
                    split_rng.integers(0, 3)
                merged = merged_rng.integers(0, highs)
                split = np.concatenate(
                    [
                        split_rng.integers(0, pool),
                        split_rng.integers(0, pop_size - 1, size=pop_size),
                        split_rng.integers(0, pop_size + n_arch - 2, size=pop_size),
                        split_rng.integers(0, dim, size=pop_size),
                    ]
                )
                assert np.array_equal(merged, split)
                assert merged_rng.bit_generator.state == split_rng.bit_generator.state

