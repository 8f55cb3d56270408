"""Efficiency score of an optimization run.

The score rewards large early reduction of the objective per evaluation
spent.  With F_1 the best value of the first generation, F_G the best of the
last, and N_g the cumulative evaluation count at generation g:

    alpha = 100 (F_1 - F_G) / (F_1 * N_{g*})

where g* is the first generation whose best value is within 1% of the final
value, i.e. the earliest g with F_G / F_g > 0.99.  That ratio rule assumes
positive values; when F_G <= 0 < F_1 the equivalent reduction form is used
instead: the earliest g with (F_1 - F_g) >= 0.99 (F_1 - F_G).  Runs starting
at F_1 <= 0 score 0 and are flagged as degenerate; a run starting at NaN or
+inf has no score and is rejected.
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
    degenerate: bool = False


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
    g1, n1, f1 = gens[0]
    f_final = gens[-1][2]

    if unscorable(f1):
        raise ContractError(f"cannot score a run whose first best value is {f1}")
    if f1 <= 0.0:
        return PerformanceScore(alpha=0.0, g_star=g1, n_g=n1, degenerate=True)

    if f_final > 0.0:
        # ratio form: first generation within 1% of the final value
        def converged(f_g: float) -> bool:
            return f_final / f_g > CONVERGED_FRACTION

    else:
        # reduction form: first generation with 99% of the total reduction
        total = f1 - f_final

        def converged(f_g: float) -> bool:
            return (f1 - f_g) >= CONVERGED_FRACTION * total

    # the final generation satisfies either rule, so the loop always breaks
    for g, n, f_g in gens:
        if converged(f_g):
            break
    return PerformanceScore(alpha=100.0 * (f1 - f_final) / (f1 * n), g_star=g, n_g=n)
