"""Efficiency score of an optimization run.

The score rewards large early reduction of the objective per evaluation
spent.  With F_1 the best value of the first generation, F_G the best of the
last, and N_g the cumulative evaluation count at generation g:

    alpha = 100 (F_1 - F_G) / (F_1 * N_{g*})

where g* is the first generation whose best value is within 1% of the final
value, i.e. the earliest g with F_G / F_g > 0.99.  That is the one rule, and
it needs positive values: every objective value of the benchmark suites is
at least 1e-300 (``bench.VALUE_FLOOR``), and a trace whose best value reaches
0 or below is rejected, as is a run whose first best value is NaN or +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContractError

CONVERGED_FRACTION = 0.99


@dataclass(frozen=True)
class PerformanceScore:
    alpha: float
    g_star: int
    n_g: int


def unscorable(first_best: float) -> bool:
    """A first best value of NaN or +inf, from which alpha would be NaN.  NaN
    enters only through the initial population: a NaN trial never wins."""
    return math.isnan(first_best) or first_best == math.inf


def compute_alpha(trace) -> PerformanceScore:
    """Score a run trace (any object with ``generations`` rows of
    (gen_index, cumulative_evals, best_value))."""
    gens = list(trace.generations)
    if not gens:
        raise ContractError("trace must contain at least one generation")
    f1 = gens[0][2]
    f_final = gens[-1][2]

    if unscorable(f1):
        raise ContractError(f"cannot score a run whose first best value is {f1}")
    if f_final <= 0.0:
        raise ContractError(
            f"cannot score a run whose best value reaches {f_final}: "
            "the ratio rule needs positive values"
        )

    # the final generation is within 1% of itself, so the loop always breaks
    for g, n, f_g in gens:
        if f_final / f_g > CONVERGED_FRACTION:
            break
    return PerformanceScore(alpha=100.0 * (f1 - f_final) / (f1 * n), g_star=g, n_g=n)
