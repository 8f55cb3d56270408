"""Success-history adaptive baseline over the shared DE kernel.

Each generation, individual i draws a memory slot r uniformly from an H-slot
circular history and samples

    CR_i ~ Normal(m_cr[r], 0.1)  clipped to [0, 1]
    F_i  ~ Cauchy(m_f[r], 0.1)   resampled while <= 0, truncated to 1

After selection, the (CR, F) pairs of strictly improving trials update one
memory slot, weighted by their objective improvements Delta_k:

    with w_k = Delta_k / sum Delta,
    m_cr[w_idx] <- sum w_k CR_k            (weighted arithmetic mean)
    m_f[w_idx]  <- sum w_k F_k^2 / sum w_k F_k   (weighted Lehmer mean)

and the write index advances cyclically.  Generations without a strict
improvement leave the memory and index untouched.  Memory slots start at 0.5;
population size and history length (``POP_SIZE``, ``MEMORY_SIZE``) are both
100, and the sampler and the run read ``POP_SIZE`` when called.  The
terminal-CR rule of some later history-based variants is intentionally not
applied; CR is always plain-clipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .de import GenerationStats, RunTrace, evolve
from .sampling import substream

POP_SIZE = 100
MEMORY_SIZE = 100
SAMPLE_SCALE = 0.1


@dataclass
class ShadeMemory:
    """Circular success history of crossover and weight values."""

    m_cr: np.ndarray = field(
        default_factory=lambda: np.full(MEMORY_SIZE, 0.5)
    )
    m_f: np.ndarray = field(default_factory=lambda: np.full(MEMORY_SIZE, 0.5))
    write_index: int = 0

    @property
    def size(self) -> int:
        return self.m_cr.size

    def update(self, s_cr: np.ndarray, s_f: np.ndarray, deltas: np.ndarray) -> None:
        """Fold one generation's successful pairs into the current slot."""
        if s_cr.size == 0:
            return
        w = deltas / deltas.sum()
        self.m_cr[self.write_index] = float(np.sum(w * s_cr))
        self.m_f[self.write_index] = float(
            np.sum(w * s_f * s_f) / np.sum(w * s_f)
        )
        self.write_index = (self.write_index + 1) % self.size


def sample_memory_params(
    memory: ShadeMemory, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-individual (CR, F) draws from randomly chosen memory slots."""
    slots = rng.integers(0, memory.size, size=POP_SIZE)
    cr = np.clip(rng.normal(memory.m_cr[slots], SAMPLE_SCALE), 0.0, 1.0)
    f = memory.m_f[slots] + SAMPLE_SCALE * rng.standard_cauchy(POP_SIZE)
    bad = f <= 0.0
    while bad.any():
        f[bad] = memory.m_f[slots[bad]] + SAMPLE_SCALE * rng.standard_cauchy(
            int(bad.sum())
        )
        bad = f <= 0.0
    return cr, np.minimum(f, 1.0)


def optimize_shade(
    instance,
    budget: int,
    seed: int,
    observer: Optional[Callable[[GenerationStats, ShadeMemory], None]] = None,
) -> RunTrace:
    """Adaptive run of ``POP_SIZE`` individuals and at most ``budget``
    evaluations from stream ``seed``; trace contract as the fixed engine's.

    ``observer`` sees each generation's selection stats and the memory
    state after any update.
    """
    rng = substream(seed, "de")
    memory = ShadeMemory()

    def on_generation(stats: GenerationStats) -> None:
        sel = stats.successes
        if sel.any():
            memory.update(stats.cr[sel], stats.f[sel], stats.deltas[sel])
        if observer is not None:
            observer(stats, memory)

    sampler = partial(sample_memory_params, memory)
    return evolve(instance, POP_SIZE, budget, rng, sampler, on_generation)
