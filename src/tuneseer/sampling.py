"""Seeded randomness, Latin hypercube designs, and the DE parameter triple.

All randomness in the package flows through numpy's PCG64 generator.  Streams
are derived from an integer seed plus string labels, so independent parts of
a campaign (feature sampling, optimizer, instancing) never share a stream.
Stream derivation is stable across processes and interpreter restarts: labels
are hashed with SHA-256, never with Python's randomized ``hash``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

#: Default search ranges for (p1 crossover, p2 weight, p3 population size).
#: p1 is a probability; p2 spans the common literature range; p3 covers tiny
#: greedy populations up to several hundred parents.
DEFAULT_PARAM_RANGES = ((0.0, 1.0), (0.1, 1.0), (10.0, 500.0))

MIN_POP_SIZE = 5


@dataclass(frozen=True)
class ControlParams:
    """DE control parameter triple: crossover constant, weighting factor,
    population size."""

    p1: float
    p2: float
    p3: int

    def validate(self) -> "ControlParams":
        if not 0.0 <= self.p1 <= 1.0:
            raise ContractError(f"p1 must be in [0, 1], got {self.p1}")
        # p2 = 0 is degenerate (stationary search) but accepted so the
        # donor-collapse behaviour stays testable
        if not self.p2 >= 0.0:
            raise ContractError(f"p2 must be >= 0, got {self.p2}")
        if int(self.p3) != self.p3 or self.p3 < MIN_POP_SIZE:
            raise ContractError(
                f"p3 must be an integer >= {MIN_POP_SIZE}, got {self.p3}"
            )
        return self


def label_entropy(*labels) -> list[int]:
    """Map labels (strings/ints) to a stable list of 64-bit entropy words."""
    words = []
    for lab in labels:
        if isinstance(lab, (int, np.integer)):
            words.append(int(lab) & 0xFFFFFFFFFFFFFFFF)
        else:
            digest = hashlib.sha256(str(lab).encode("utf-8")).digest()
            words.append(int.from_bytes(digest[:8], "little"))
    return words


def derive_seed(*labels) -> int:
    """Stable 63-bit integer seed from a tuple of labels."""
    text = "\x1f".join(str(lab) for lab in labels)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def make_rng(seed: int) -> np.random.Generator:
    """Fresh PCG64 generator for the given seed."""
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


def substream(seed: int, *labels) -> np.random.Generator:
    """Generator on an independent sub-stream identified by (seed, labels)."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + label_entropy(*labels)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def latin_hypercube(n: int, lower, upper, rng: np.random.Generator) -> np.ndarray:
    """Jittered Latin hypercube design over the box [lower, upper]: an
    (n, d) array, row i is sample i, with exactly one point per 1/n stratum
    in every dimension.

    Per dimension, the n strata are permuted independently and one point is
    placed uniformly at random inside each stratum.
    """
    if n < 1:
        raise ContractError(f"sample count must be >= 1, got {n}")
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    d = lower.size
    # argsort of iid uniforms gives an independent permutation per column
    strata = np.argsort(rng.random((n, d)), axis=0)
    jitter = rng.random((n, d))
    unit = (strata + jitter) / n
    return lower + unit * (upper - lower)


def lhs_params(n: int, rng: np.random.Generator) -> list[ControlParams]:
    """Latin hypercube design of n control-parameter triples.

    The design is stratified in the continuous ``DEFAULT_PARAM_RANGES`` box;
    p3 is then rounded half up to an integer, which the range's lower end of
    10 keeps above ``MIN_POP_SIZE``.
    """
    lower, upper = zip(*DEFAULT_PARAM_RANGES)
    out = []
    for row in latin_hypercube(n, lower, upper, rng):
        p3 = int(math.floor(row[2] + 0.5))
        out.append(ControlParams(p1=float(row[0]), p2=float(row[1]), p3=p3))
    return out
