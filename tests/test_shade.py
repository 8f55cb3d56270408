import copy

import numpy as np
import pytest

from tuneseer import de, shade
from tuneseer.bench import ObjectiveSpec, make_instance
from tuneseer.errors import ContractError
from tuneseer.sampling import substream
from tuneseer.shade import ShadeMemory, optimize_shade, sample_memory_params


def test_single_success_update_is_exact():
    memory = ShadeMemory(m_cr=np.full(4, 0.5), m_f=np.full(4, 0.5))
    memory.update(np.array([0.4]), np.array([0.6]), np.array([1.0]))
    assert memory.m_cr[0] == 0.4
    assert memory.m_f[0] == 0.6
    assert memory.write_index == 1


def test_two_success_lehmer_oracle():
    # hand evaluation: w = (1/2, 1/2); (0.25 + 1.0) / (0.5 + 1.0) = 5/6
    memory = ShadeMemory(m_cr=np.full(2, 0.5), m_f=np.full(2, 0.5))
    memory.update(
        np.array([0.2, 0.8]), np.array([0.5, 1.0]), np.array([1.0, 1.0])
    )
    assert abs(memory.m_f[0] - 5.0 / 6.0) <= 1e-12
    assert abs(memory.m_cr[0] - 0.5) <= 1e-12


def test_no_success_leaves_memory_untouched():
    memory = ShadeMemory(m_cr=np.full(3, 0.4), m_f=np.full(3, 0.7))
    memory.update(np.array([]), np.array([]), np.array([]))
    assert np.all(memory.m_cr == 0.4)
    assert np.all(memory.m_f == 0.7)
    assert memory.write_index == 0


def test_write_index_cycles():
    memory = ShadeMemory(m_cr=np.full(2, 0.5), m_f=np.full(2, 0.5))
    for _ in range(3):
        memory.update(np.array([0.3]), np.array([0.3]), np.array([2.0]))
    assert memory.write_index == 1


class _PlateauObjective:
    """Coarsely quantized bowl: once the population reaches the central
    plateau no strict improvement is possible."""

    def __init__(self, d=2):
        self.dim = d
        self.domain = ObjectiveSpec("sphere", d).domain
        self.eval_counter = 0

    def evaluate_batch(self, points):
        self.eval_counter += points.shape[0]
        steps = np.floor(np.abs(points) / 2.0)
        return np.sum(steps * steps, axis=1)


def _log_memory_updates(monkeypatch):
    """Wrap ``ShadeMemory.update`` so that each call, after running, logs
    (whether any trial succeeded, a copy of the memory)."""
    log = []
    original = ShadeMemory.update

    def update(self, s_cr, s_f, deltas):
        original(self, s_cr, s_f, deltas)
        log.append((s_cr.size > 0, copy.deepcopy(self)))

    monkeypatch.setattr(ShadeMemory, "update", update)
    return log


def test_zero_success_generations_freeze_memory_in_full_run(monkeypatch):
    # the plateau stalls the search, giving generations without strict
    # improvement; memory and index must not move on those
    log = _log_memory_updates(monkeypatch)
    optimize_shade(_PlateauObjective(), 3000, 4)
    assert any(not ok for ok, _ in log), "expected at least one stalled generation"
    prev = None
    for ok, snap in log:
        if prev is not None and not ok:
            assert np.array_equal(prev.m_cr, snap.m_cr)
            assert np.array_equal(prev.m_f, snap.m_f)
            assert prev.write_index == snap.write_index
        prev = snap


def test_memory_bounds_after_run(monkeypatch):
    instance = make_instance(ObjectiveSpec("rastrigin", 5), 2)
    log = _log_memory_updates(monkeypatch)
    optimize_shade(instance, 3000, 8)
    _, memory = log[-1]
    assert np.all(memory.m_cr >= 0.0) and np.all(memory.m_cr <= 1.0)
    assert np.all(memory.m_f > 0.0) and np.all(memory.m_f <= 1.0)


def test_elitism_and_budget_inherited():
    instance = make_instance(ObjectiveSpec("ackley", 4), 3)
    trace = optimize_shade(instance, 2500, 1)
    best = [f for _, _, f in trace.generations]
    assert all(b >= a for a, b in zip(best[1:], best))
    assert instance.eval_counter <= 2500
    assert instance.eval_counter >= 2500 - 100 + 1


def test_budget_below_population_rejected():
    instance = make_instance(ObjectiveSpec("sphere", 3), 0)
    with pytest.raises(ContractError):
        optimize_shade(instance, 99, 0)


class _FlatObjective(_PlateauObjective):
    """Constant objective: no trial is ever a strict improvement."""

    def evaluate_batch(self, points):
        self.eval_counter += points.shape[0]
        return np.zeros(points.shape[0])


def test_frozen_memory_equals_shared_kernel_with_sampled_params(monkeypatch):
    # on a flat objective nothing succeeds, so the memory stays at 0.5 and
    # a run must equal the plain kernel driven by the same per-generation
    # (CR, F) sampling from a memory that nothing updates
    seed, budget = 21, 700
    log = _log_memory_updates(monkeypatch)
    a = optimize_shade(_FlatObjective(4), budget, seed)
    snaps = [snap for _, snap in log]

    memory = ShadeMemory()
    rng = substream(seed, "de")

    def sampler(r):
        return sample_memory_params(memory, r)

    b = de.evolve(_FlatObjective(4), shade.POP_SIZE, budget, rng, sampler)
    assert a.generations == b.generations
    assert np.array_equal(a.final_population, b.final_population)
    assert snaps and all(
        np.all(s.m_cr == 0.5) and np.all(s.m_f == 0.5) and s.write_index == 0
        for s in snaps
    )


def test_shade_equals_shared_kernel_with_memory_update(monkeypatch):
    # a run must equal the plain kernel driven by memory sampling and by
    # the memory's own update, which folds each generation's successes in
    spec = ObjectiveSpec("rosenbrock", 4)
    seed, budget = 21, 700
    log = _log_memory_updates(monkeypatch)
    a = optimize_shade(make_instance(spec, 5), budget, seed)
    _, final = log[-1]

    memory = ShadeMemory()
    rng = substream(seed, "de")

    def sampler(r):
        return sample_memory_params(memory, r)

    b = de.evolve(
        make_instance(spec, 5), shade.POP_SIZE, budget, rng, sampler, memory.update
    )
    assert a.generations == b.generations
    assert np.array_equal(a.final_population, b.final_population)
    assert memory.write_index > 0  # the memory moved
    assert np.array_equal(final.m_cr, memory.m_cr)
    assert np.array_equal(final.m_f, memory.m_f)
    assert final.write_index == memory.write_index


def test_deterministic_runs():
    a = optimize_shade(make_instance(ObjectiveSpec("sphere", 6), 2), 1200, 5)
    b = optimize_shade(make_instance(ObjectiveSpec("sphere", 6), 2), 1200, 5)
    assert a.generations == b.generations
