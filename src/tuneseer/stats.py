"""Wilcoxon signed-ranks test for paired performance comparisons.

Absolute differences are ranked with average ranks for ties, zeros included;
the rank mass of zero differences is split evenly between the positive and
negative sums.  The reported statistic is the signed difference

    W = R+ - R-

so W > 0 means method A scored higher than method B across the pairing.  The
two-sided p-value is exact (full enumeration over sign assignments) for
n <= 20 without zeros, and otherwise uses the normal approximation of
min(R+, R-) with tie/zero variance correction and a continuity correction of
0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

EXACT_MAX_N = 20


def rankdata(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array; tied values share their average rank."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    # a tie group holding sorted positions [start, end) shares (start+1+end)/2
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks


@dataclass(frozen=True)
class WilcoxonResult:
    w: float
    p: float
    r_plus: float
    r_minus: float
    n: int
    method: str  # "exact" | "normal" | "degenerate"


def _exact_p(ranks2: np.ndarray, hi2: int, lo2: int, n: int) -> float:
    """P(|W| >= |w_obs|) by dynamic programming over doubled ranks.

    ranks2 are integers (average ranks are multiples of 1/2), so the subset
    sums of R+ live on an integer lattice; counts[s] is the number of sign
    assignments with 2 R+ = s.
    """
    total2 = int(ranks2.sum())
    counts = np.zeros(total2 + 1, dtype=np.int64)
    counts[0] = 1
    for r in ranks2:
        r = int(r)
        counts[r:] += counts[: total2 + 1 - r].copy()
    tail = counts[hi2:].sum() + counts[: lo2 + 1].sum()
    return min(1.0, float(tail) / float(2**n))


def wilcoxon(diffs) -> WilcoxonResult:
    """Signed-rank test of paired differences; the input picks the p-value
    route (see module docstring), and ``method`` of the result names it."""
    d = np.asarray(diffs, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise ContractError("wilcoxon needs a non-empty 1-D difference vector")
    if not np.all(np.isfinite(d)):
        raise ContractError("wilcoxon needs finite differences")
    n = d.size
    ranks = rankdata(np.abs(d))
    r_zero = float(ranks[d == 0.0].sum())
    r_plus = float(ranks[d > 0.0].sum()) + 0.5 * r_zero
    r_minus = float(ranks[d < 0.0].sum()) + 0.5 * r_zero
    w = r_plus - r_minus

    if np.all(d == 0.0):
        return WilcoxonResult(0.0, 1.0, r_plus, r_minus, n, "degenerate")

    if n <= EXACT_MAX_N and not np.any(d == 0.0):
        ranks2 = np.rint(2.0 * ranks).astype(np.int64)
        hi2 = int(round(2.0 * max(r_plus, r_minus)))
        lo2 = int(round(2.0 * min(r_plus, r_minus)))
        p = _exact_p(ranks2, hi2, lo2, n)
        return WilcoxonResult(w, p, r_plus, r_minus, n, "exact")

    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    var -= float(np.sum(tie_counts**3 - tie_counts)) / 48.0
    t = min(r_plus, r_minus)
    # continuity correction of 0.5 toward the mean
    correction = 0.5 * math.copysign(1.0, t - mean) if t != mean else 0.0
    z = (t - mean - correction) / math.sqrt(var)
    p = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
    return WilcoxonResult(w, p, r_plus, r_minus, n, "normal")
