import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuneseer.de import RunTrace
from tuneseer.errors import ContractError
from tuneseer.metric import compute_alpha


def trace_of(rows):
    return RunTrace(generations=[tuple(r) for r in rows])


def test_hand_trace_oracle():
    # ratios to the final value: 0.01, 0.1, 0.667, 1.0 -> g* = 4, N = 80
    trace = trace_of([(1, 20, 100.0), (2, 40, 10.0), (3, 60, 1.5), (4, 80, 1.0)])
    score = compute_alpha(trace)
    assert score.g_star == 4
    assert score.n_g == 80
    assert abs(score.alpha - 1.2375) <= 1e-12


def test_flat_trace_scores_zero():
    score = compute_alpha(trace_of([(1, 10, 10.0), (2, 20, 10.0)]))
    assert score.alpha == 0.0
    assert not score.degenerate


def test_alpha_inverse_in_evals():
    rows = [(1, 20, 100.0), (2, 40, 10.0), (3, 60, 1.5), (4, 80, 1.0)]
    doubled = [(g, 2 * n, f) for g, n, f in rows]
    assert compute_alpha(trace_of(doubled)).alpha == compute_alpha(trace_of(rows)).alpha / 2.0


def test_early_stall_scores_higher():
    # same endpoints, earlier convergence -> larger alpha
    late = trace_of([(1, 10, 100.0), (2, 20, 50.0), (3, 30, 1.0)])
    early = trace_of([(1, 10, 100.0), (2, 20, 1.0), (3, 30, 1.0)])
    assert compute_alpha(early).alpha > compute_alpha(late).alpha


def test_single_generation_trace():
    score = compute_alpha(trace_of([(1, 30, 5.0)]))
    assert score.alpha == 0.0
    assert score.g_star == 1
    assert score.n_g == 30


def test_nonpositive_final_uses_reduction_rule():
    # F_G = 0 makes the ratio rule ill-defined; 99% of the total reduction
    # is first reached at generation 3 (F_g = 0.5 <= 100 - 0.99*100)
    trace = trace_of([(1, 10, 100.0), (2, 20, 30.0), (3, 30, 0.5), (4, 40, 0.0)])
    score = compute_alpha(trace)
    assert score.g_star == 3
    assert score.n_g == 30
    assert abs(score.alpha - 100.0 * 100.0 / (100.0 * 30.0)) < 1e-12


def test_nonpositive_start_is_degenerate():
    score = compute_alpha(trace_of([(1, 10, -1.0), (2, 20, -5.0)]))
    assert score.alpha == 0.0
    assert score.degenerate


def test_empty_trace_rejected():
    with pytest.raises(ContractError):
        compute_alpha(trace_of([]))


@pytest.mark.parametrize("start", [float("nan"), float("inf")])
def test_unscorable_start_rejected(start):
    # a NaN member of the initial population keeps every best value NaN,
    # since a NaN trial never wins selection; either start scores alpha = NaN
    with pytest.raises(ContractError, match="first best value"):
        compute_alpha(trace_of([(1, 10, start), (2, 20, start)]))


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.floats(0.01, 1e6), min_size=1, max_size=30),
    scale=st.integers(1, 1000),
)
def test_cost_scaling_property(values, scale):
    # alpha scales by 1/c when all cumulative eval counts scale by c
    best = np.minimum.accumulate(np.asarray(values))
    rows = [(g + 1, 10 * (g + 1), float(f)) for g, f in enumerate(best)]
    scaled = [(g, n * scale, f) for g, n, f in rows]
    a = compute_alpha(trace_of(rows)).alpha
    b = compute_alpha(trace_of(scaled)).alpha
    assert abs(b - a / scale) <= 1e-15 + 1e-9 * abs(a)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(0.01, 1e6), min_size=2, max_size=30))
def test_alpha_positive_iff_reduction(values):
    best = np.minimum.accumulate(np.asarray(values))
    rows = [(g + 1, 5 * (g + 1), float(f)) for g, f in enumerate(best)]
    score = compute_alpha(trace_of(rows))
    if best[-1] < best[0]:
        assert score.alpha > 0.0
    else:
        assert score.alpha == 0.0
