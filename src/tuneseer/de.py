"""Differential evolution engine: current-to-pbest/1/bin with an external
archive and randomised greediness.

The donor for target x_i is

    v_i = x_i + F (x_pbest - x_i) + F (x_r1 - x_r2)

with x_pbest drawn uniformly from the top max(2, ceil(q_i * pop)) members by
fitness (q_i ~ U[2/pop, 0.2] per target), r1 from the population (r1 != i),
and r2 from population plus archive (r2 not in {i, r1}).  Binomial crossover
with one forced donor coordinate builds the trial; a trial at most as bad as
its target replaces it, and replaced parents enter the archive (random
eviction beyond capacity = population size).  Out-of-bounds trial coordinates
are reset to the midpoint between the violated bound and the parent
coordinate.

The fixed-parameter optimizer and the adaptive baseline share the generation
kernel ``evolve``; they differ only in how per-individual (CR, F) pairs are
sampled each generation and in the optional ``update`` callback.  It gets
the (CR, F) pairs and improvements of each generation's strictly improving
trials once they are evaluated, before selection, and draws nothing from
the run's generator.  Per generation, draws are consumed in a fixed order:
(CR, F) sampler, greediness q, one bounded-integer draw (pbest rank, r1, r2,
forced coordinate), crossover mask, archive evictions.

Archive layout.  Population and archive share one preallocated (2 pop, D)
buffer: rows [0, pop) are the population and the next n_arch rows the
archive, oldest entry first, so r2 indexes the buffer directly.  The archive
order is part of the output contract: r2 picks rows by position.

Integer draws.  The pbest ranks, r1, r2 and forced coordinates come from one
``rng.integers(0, highs)`` call whose (4 pop,) bound array holds, in that
order, the pbest pool sizes, pop - 1, pop + n_arch - 2 and D.  For PCG64 an
array-bound draw returns the same values, and leaves the same generator
state, as consecutive scalar-bound draws of those bounds.

Eviction draws.  Replaced parents enter the archive in ascending individual
order; each entry that finds the archive full evicts the entry at a uniform
index in [0, pop], counted after the new entry is appended.  With m winners
that is n_evict = max(0, n_arch + m - pop) evictions, drawn as one
``rng.integers(0, pop + 1, size=n_evict)`` call.  For PCG64 that vector draw
returns the same values, and leaves the same generator state, as n_evict
scalar draws, and a draw of size 0 leaves the state unchanged
(tests/test_de.py guards both integer-draw contracts).  Appending all m
entries and then deleting the drawn indices in order gives the same archive
as alternating append and delete, because every index is <= pop and so never
reaches the entries still waiting beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ContractError
from .metric import unscorable
from .sampling import MIN_POP_SIZE, ControlParams, substream

Q_GREEDY_MAX = 0.2


@dataclass
class RunTrace:
    """Per-generation progress of one run.

    ``generations`` holds (gen_index, cumulative_evals, best_value) rows;
    cumulative counts come from the instance's evaluation counter, so charges
    made before the run (e.g. feature sampling) are included.
    """

    generations: list[tuple[int, int, float]] = field(default_factory=list)
    final_population: Optional[np.ndarray] = None
    final_values: Optional[np.ndarray] = None

    @property
    def best_value(self) -> float:
        return self.generations[-1][2]

    @property
    def evals_used(self) -> int:
        return self.generations[-1][1]


def init_population(instance, pop_size: int, rng: np.random.Generator):
    """Uniform population over the instance domain; evaluates all members
    (charges pop_size evaluations).  Returns (points, values)."""
    if pop_size < MIN_POP_SIZE:
        raise ContractError(f"population size must be >= {MIN_POP_SIZE}, got {pop_size}")
    dom = instance.domain
    points = rng.uniform(dom.lower, dom.upper, size=(pop_size, instance.dim))
    return points, instance.evaluate_batch(points)


def evolve(
    instance,
    pop_size: int,
    budget: int,
    rng: np.random.Generator,
    sample_cr_f: Callable[[np.random.Generator], tuple[np.ndarray, np.ndarray]],
    update: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], None]] = None,
) -> RunTrace:
    """Run the generation kernel until the next generation would exceed
    ``budget`` optimizer-owned evaluations.  A run whose first generation
    has no score (``metric.unscorable``) stops after that generation.

    ``sample_cr_f(rng)`` returns this generation's per-individual crossover
    probabilities and weights.  ``update(cr, f, deltas)`` (if given) is
    called once per generation, after its trials are evaluated and before
    selection, with the CR and F of the strictly improving trials and their
    improvements (target value - trial value); a generation without one
    passes empty arrays.
    """
    if budget < pop_size:
        raise ContractError(
            f"budget {budget} cannot fit one generation of size {pop_size}"
        )
    dom = instance.domain
    lower, upper = dom.lower, dom.upper
    dim = instance.dim

    points, fvals = init_population(instance, pop_size, rng)
    used = pop_size
    buf = np.empty((2 * pop_size, dim))
    pop = buf[:pop_size]
    pop[:] = points
    n_arch = 0
    trace = RunTrace()
    gen = 1
    trace.generations.append((gen, instance.eval_counter, float(fvals.min())))

    q_lo = 2.0 / pop_size
    q_hi = max(q_lo, Q_GREEDY_MAX)
    idx = np.arange(pop_size)
    # exclusive bounds of the pbest rank, r1, r2 and forced-coordinate draws
    highs = np.empty(4 * pop_size, dtype=np.int64)
    highs[pop_size : 2 * pop_size] = pop_size - 1
    highs[3 * pop_size :] = dim

    stop = unscorable(trace.best_value)  # no later generation can mend the start
    while not stop and used + pop_size <= budget:
        gen += 1
        cr, f = sample_cr_f(rng)

        order = np.argsort(fvals, kind="stable")
        q = rng.uniform(q_lo, q_hi, size=pop_size)
        highs[:pop_size] = np.maximum(2, np.ceil(q * pop_size))
        highs[2 * pop_size : 3 * pop_size] = pop_size + n_arch - 2
        rank, r1, r2, jrand = rng.integers(0, highs).reshape(4, pop_size)
        pbest = order[rank]
        r1 += r1 >= idx  # skip i
        r2 += r2 >= np.minimum(idx, r1)  # skip i and r1, lower first
        r2 += r2 >= np.maximum(idx, r1)

        fw = f[:, None]
        donors = pop + fw * (pop[pbest] - pop) + fw * (pop[r1] - buf[r2])

        mask = rng.random((pop_size, dim)) < cr[:, None]
        mask[idx, jrand] = True
        trials = np.where(mask, donors, pop)
        trials = np.where(trials < lower, 0.5 * (lower + pop), trials)
        trials = np.where(trials > upper, 0.5 * (upper + pop), trials)

        tvals = instance.evaluate_batch(trials)
        used += pop_size

        if update is not None:  # before selection overwrites fvals
            won = tvals < fvals
            update(cr[won], f[won], (fvals - tvals)[won])
        improved = tvals <= fvals

        # buffer rows of the archive after appending every winner's parent
        rows = list(range(pop_size, pop_size + n_arch))
        rows += np.flatnonzero(improved).tolist()
        n_evict = max(0, len(rows) - pop_size)
        for k in rng.integers(0, pop_size + 1, size=n_evict).tolist():
            del rows[k]
        n_arch = len(rows)
        buf[pop_size : pop_size + n_arch] = buf[rows]

        pop[improved] = trials[improved]
        fvals[improved] = tvals[improved]
        trace.generations.append((gen, instance.eval_counter, float(fvals.min())))

    trace.final_population = pop.copy()
    trace.final_values = fvals
    return trace


def optimize(instance, params: ControlParams, budget: int, seed: int) -> RunTrace:
    """Fixed-parameter DE run of at most ``budget`` evaluations of its own,
    drawing all of its randomness from stream ``seed``; deterministic given
    (instance, params, budget, seed)."""
    params.validate()
    rng = substream(seed, "de")
    cr = np.full(params.p3, params.p1)
    f = np.full(params.p3, params.p2)

    def fixed_params(_rng):
        return cr, f

    return evolve(instance, params.p3, budget, rng, fixed_params)
