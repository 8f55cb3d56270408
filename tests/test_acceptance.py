"""Acceptance suite: one test per release criterion.

Each test prints a PASS line on success (run with ``pytest -v -s`` to see
them); the end-to-end campaign criteria run the real CLI-level pipeline into
temporary directories.
"""

import copy
import itertools
import math
import os

import numpy as np
import pytest

from tuneseer import cluster, stats
from tuneseer.bench import ObjectiveSpec, make_instance
from tuneseer.de import RunTrace, optimize
from tuneseer.features import FeatureVector, extract_features, iqr, skew
from tuneseer.harness import CampaignConfig, cmd_compare, cmd_train
from tuneseer.metric import compute_alpha
from tuneseer.predictor import (
    RunKey,
    TrainingRecord,
    TrainingStore,
    recommend,
    recommendation_table,
    run_predictive,
    top_set_size,
)
from tuneseer.sampling import ControlParams, latin_hypercube, substream
from tuneseer.shade import ShadeMemory, optimize_shade


def ok(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


# -- 1 ----------------------------------------------------------------------


def test_criterion_1_metric_oracle():
    trace = RunTrace(
        generations=[(1, 20, 100.0), (2, 40, 10.0), (3, 60, 1.5), (4, 80, 1.0)]
    )
    score = compute_alpha(trace)
    assert abs(score.alpha - 1.2375) <= 1e-12
    flat = RunTrace(generations=[(1, 10, 7.5), (2, 20, 7.5)])
    assert compute_alpha(flat).alpha == 0.0
    ok(1, "hand-trace alpha = 1.2375 exactly; flat trace scores 0")


# -- 2 ----------------------------------------------------------------------


class _AffineObjective:
    def __init__(self, inner, a, b):
        self.inner, self.a, self.b = inner, a, b
        self.dim = inner.dim
        self.domain = inner.domain

    def evaluate_batch(self, points):
        return self.a * self.inner.evaluate_batch(points) + self.b


def test_criterion_2_feature_oracles():
    assert abs(iqr([1.0, 2.0, 3.0, 4.0]) - 1.5) <= 1e-12
    for a in (0.5, 2.0, 11.0):
        assert abs(skew([-a, 0.0, a])) <= 1e-12
    rng = np.random.default_rng(0)
    for _ in range(100):
        scale = float(rng.uniform(0.1, 10.0))
        offset = float(rng.uniform(-100.0, 100.0))
        inst_seed = int(rng.integers(0, 10))
        base = extract_features(
            make_instance(ObjectiveSpec("rastrigin", 3), inst_seed), 64, 5
        )
        wrapped = extract_features(
            _AffineObjective(
                make_instance(ObjectiveSpec("rastrigin", 3), inst_seed),
                scale,
                offset,
            ),
            64,
            5,
        )
        assert abs(base.beta2 - wrapped.beta2) < 1e-10
        assert abs(base.beta3 - wrapped.beta3) < 1e-10
    ok(2, "iqr/skew oracles exact; affine invariance on 100 random samples")


# -- 3 ----------------------------------------------------------------------


def test_criterion_3_lhs_stratification():
    class Box:
        def __init__(self, d):
            self.lower = np.full(d, -5.0)
            self.upper = np.full(d, 5.0)

    for n, d in [(4, 1), (100, 3), (1000, 50)]:
        box = Box(d)
        points = latin_hypercube(n, box.lower, box.upper, substream(n + d))
        unit = (points + 5.0) / 10.0
        strata = np.clip(np.floor(unit * n).astype(int), 0, n - 1)
        for j in range(d):
            assert np.all(np.bincount(strata[:, j], minlength=n) == 1)
    ok(3, "exact one-point-per-stratum for (4,1), (100,3), (1000,50)")


# -- 4 ----------------------------------------------------------------------


def test_criterion_4_de_kernel():
    # exact stationarity at p1 = p2 = 0
    inst = make_instance(ObjectiveSpec("sphere", 5), 1)
    trace = optimize(inst, ControlParams(0.0, 0.0, 10), 300, 3)
    first = trace.generations[0][2]
    assert all(f == first for _, _, f in trace.generations)

    # elitism and budget compliance on randomized runs
    rng = np.random.default_rng(99)
    fids = ["sphere", "rastrigin", "rosenbrock", "ackley", "schwefel"]
    for _ in range(100):
        fid = fids[rng.integers(0, len(fids))]
        p3 = int(rng.integers(5, 40))
        budget = int(rng.integers(p3, 6 * p3))
        instance = make_instance(
            ObjectiveSpec(fid, int(rng.integers(2, 8))), int(rng.integers(0, 4))
        )
        tr = optimize(
            instance,
            ControlParams(float(rng.random()), float(rng.uniform(0.1, 1.0)), p3),
            budget,
            int(rng.integers(0, 1e6)),
        )
        best = [f for _, _, f in tr.generations]
        assert all(b >= a for a, b in zip(best[1:], best))
        assert instance.eval_counter <= budget
        assert instance.eval_counter >= budget - p3 + 1

    # empirical regression bound, frozen from these 30 seeds: sphere D = 10,
    # instance 1, the literature triple, 10,000 evaluations
    finals = []
    for seed in range(30):
        instance = make_instance(ObjectiveSpec("sphere", 10), 1)
        tr = optimize(instance, ControlParams(0.9, 0.5, 100), 10_000, seed)
        finals.append(tr.best_value)
    counts = ", ".join(f"<= {b:g}: {sum(f <= b for f in finals)}/30" for b in (1e-2, 1e-4, 1e-6))
    bound = f"median {np.median(finals):.3e}, worst {max(finals):.3e}; {counts}"
    assert sum(f <= 1e-2 for f in finals) >= 28, bound
    ok(4, f"stationarity, invariants, sphere final best {bound}")


# -- 5 ----------------------------------------------------------------------


def test_criterion_5_shade_memory(monkeypatch):
    memory = ShadeMemory(m_cr=np.full(3, 0.5), m_f=np.full(3, 0.5))
    memory.update(np.array([0.4]), np.array([0.6]), np.array([2.0]))
    assert memory.m_cr[0] == 0.4 and memory.m_f[0] == 0.6

    memory = ShadeMemory(m_cr=np.full(3, 0.5), m_f=np.full(3, 0.5))
    memory.update(np.array([0.3, 0.7]), np.array([0.5, 1.0]), np.array([1.0, 1.0]))
    assert abs(memory.m_f[0] - 0.8333333333333334) <= 1e-12

    class Plateau:
        dim = 2
        domain = ObjectiveSpec("sphere", 2).domain
        eval_counter = 0

        def evaluate_batch(self, pts):
            self.eval_counter += pts.shape[0]
            s = np.floor(np.abs(pts) / 2.0)
            return np.sum(s * s, axis=1)

    log = []
    update = ShadeMemory.update

    def logged_update(self, s_cr, s_f, deltas):
        update(self, s_cr, s_f, deltas)
        log.append((s_cr.size > 0, copy.deepcopy(self)))

    monkeypatch.setattr(ShadeMemory, "update", logged_update)
    optimize_shade(Plateau(), 3000, 4)
    stalled = sum(1 for ok_, _ in log if not ok_)
    assert stalled >= 1
    prev = None
    for ok_, snap in log:
        if prev is not None and not ok_:
            assert np.array_equal(prev.m_cr, snap.m_cr)
            assert np.array_equal(prev.m_f, snap.m_f)
            assert prev.write_index == snap.write_index
        prev = snap
    ok(5, f"exact memory updates; {stalled} stalled generations left memory frozen")


# -- 6 ----------------------------------------------------------------------


def _partitions_up_to(n, max_parts):
    def rec(i, parts):
        if i == n:
            yield [tuple(p) for p in parts]
            return
        for p in parts:
            p.append(i)
            yield from rec(i + 1, parts)
            p.pop()
        if len(parts) < max_parts:
            parts.append([i])
            yield from rec(i + 1, parts)
            parts.pop()

    yield from rec(0, [])


def test_criterion_6_kmeans_oracle(monkeypatch):
    monkeypatch.setattr(cluster, "RESTARTS", 25)
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        k = min(int(rng.integers(1, 4)), n)
        pts = rng.normal(scale=rng.uniform(0.5, 3.0), size=(n, 2))
        model = cluster.fit(pts, k, seed=int(rng.integers(1e6)), scale=False)
        best = math.inf
        for parts in _partitions_up_to(n, k):
            ss = sum(
                float(((pts[list(p)] - pts[list(p)].mean(axis=0)) ** 2).sum())
                for p in parts
            )
            best = min(best, ss)
        assert model.inertia <= best * (1 + 1e-9) + 1e-12
        init = cluster.kmeanspp_seed(pts, k, substream(int(rng.integers(1e6))))
        _, _, _, history = cluster.lloyd(pts, init)
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
    ok(6, "best-of-25 restarts matches exhaustive optimum on 50 trials; Lloyd monotone")


# -- 7 ----------------------------------------------------------------------


def _enumerated_wilcoxon(d):
    n = len(d)
    order = sorted(range(n), key=lambda i: abs(d[i]))
    ranks = [0.0] * n
    for pos, idx in enumerate(order):
        ranks[idx] = pos + 1.0
    w_obs = sum(r if x > 0 else -r for x, r in zip(d, ranks))
    count = sum(
        1
        for signs in itertools.product((1.0, -1.0), repeat=n)
        if abs(sum(s * r for s, r in zip(signs, ranks))) >= abs(w_obs) - 1e-12
    )
    return w_obs, count / 2.0**n


def test_criterion_7_wilcoxon_oracle():
    rng = np.random.default_rng(13)
    for n in range(1, 11):
        for _ in range(6):
            mags = rng.permutation(np.arange(1, n + 1)).astype(float)
            diffs = mags * rng.choice([-1.0, 1.0], size=n)
            res = stats.wilcoxon(diffs)
            w_oracle, p_oracle = _enumerated_wilcoxon(list(diffs))
            assert res.w == w_oracle
            assert res.p == pytest.approx(p_oracle, abs=1e-12)

    for _ in range(1000):
        n = int(rng.integers(1, 35))
        d = np.round(rng.normal(size=n), 2)
        a = stats.wilcoxon(d)
        b = stats.wilcoxon(-d)
        assert a.w == pytest.approx(-b.w, abs=1e-9)
        assert a.p == pytest.approx(b.p, abs=1e-12)
        assert a.r_plus + a.r_minus == pytest.approx(n * (n + 1) / 2.0)
    ok(7, "exact enumeration matches for all n <= 10; antisymmetry on 1000 inputs")


# -- 8 ----------------------------------------------------------------------


def test_criterion_8_predictor_arithmetic():
    def rec(p1, p2, p3, beta, alpha, seed):
        return TrainingRecord(
            params=ControlParams(p1, p2, p3),
            features=FeatureVector(*beta),
            alpha=alpha,
            key=RunKey("sphere", int(beta[0]), 1, seed),
            sigma=100,
            timestamp="2026-01-01T00:00:00+00:00",
        )

    low = [
        rec(0.05 * i, 0.5, 20 + i, (2.0, 1.0 + 0.01 * i, 0.5), float(i), i)
        for i in range(14)
    ]
    high = [
        rec(0.9 - 0.05 * i, 0.8, 200 + i, (20.0, 2.0 + 0.01 * i, -0.5), float(i), i)
        for i in range(17)
    ]
    model, table = recommendation_table(TrainingStore(low + high), kappa=2)
    for beta, group in [
        (FeatureVector(2.0, 1.05, 0.5), low),
        (FeatureVector(20.0, 2.05, -0.5), high),
    ]:
        ranked = sorted(group, key=lambda r: -r.alpha)
        top = ranked[: max(1, math.ceil(0.1 * len(group)))]
        want = (
            float(np.mean([t.params.p1 for t in top])),
            float(np.mean([t.params.p2 for t in top])),
            max(5, int(math.floor(np.mean([t.params.p3 for t in top]) + 0.5))),
        )
        params, _ = recommend(model, table, beta)
        assert (params.p1, params.p2, params.p3) == want

    for m in range(1, 51):
        assert top_set_size(m) == max(1, math.ceil(0.1 * m))
    ok(8, "planted-store recommendations match brute force; top-set rule verified")


# -- 9 ----------------------------------------------------------------------


def test_criterion_9_budget_accounting(monkeypatch):
    records = [
        TrainingRecord(
            params=ControlParams(0.5 + 0.01 * i, 0.5, 50 + i),
            features=FeatureVector(10.0, 1.0 + 0.01 * i, 0.3),
            alpha=float(i),
            key=RunKey("sphere", 10, 1, i),
            sigma=1000,
            timestamp="2026-01-01T00:00:00+00:00",
        )
        for i in range(20)
    ]
    store = TrainingStore(records)
    budget, sigma = 10_000, 1000
    model, table = recommendation_table(store, kappa=2)
    for seed in range(30):
        instance = make_instance(ObjectiveSpec("ackley", 10), 5)
        monkeypatch.setattr(RunKey, "instance", lambda key: instance)
        key = RunKey("ackley", 10, 5, seed)
        trace, score, _ = run_predictive(
            key, model, table, sigma=sigma, budget=budget, seed=seed
        )
        assert instance.eval_counter <= budget
        assert instance.eval_counter - sigma <= budget - sigma
        assert trace.evals_used == instance.eval_counter
    ok(9, "30 predictive runs stayed within 9,000 optimizer / 10,000 total evals")


# -- 10 / 11 ----------------------------------------------------------------


def _campaign_configs(out_dir):
    train = CampaignConfig(
        suite="training",
        dims=(2, 10, 20),
        instances=1,
        train_seeds=(0,),
        seeds=tuple(range(30)),
        budget=10_000,
        sigma=1000,
        kappa=10,
        n_param_sets=30,
        out=str(out_dir),
        workers=2,
    )
    compare = CampaignConfig(
        suite="holdout",
        dims=(2, 10, 20),
        instances=1,
        seeds=tuple(range(30)),
        budget=10_000,
        sigma=1000,
        kappa=10,
        methods=("predictive", "best-of-training", "literature"),
        out=str(out_dir),
        store_path=os.path.join(str(out_dir), "store.jsonl"),
        workers=2,
        retrain="per-run",
    )
    return train, compare


@pytest.fixture(scope="module")
def desk_campaign(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk")
    train_cfg, compare_cfg = _campaign_configs(out)
    cmd_train(train_cfg)
    report = cmd_compare(compare_cfg)
    return out, report


@pytest.mark.slow
def test_criterion_10_end_to_end_direction(desk_campaign):
    out, report = desk_campaign
    assert sum(row["status"] != "ok" for row in report.alpha_rows) == 0
    assert os.path.exists(out / "alpha.csv")
    assert os.path.exists(out / "wilcoxon.csv")
    pairs = {(row["method_a"], row["method_b"]): row for row in report.wilcoxon_rows}
    versus_best = pairs["predictive", "best-of-training"]
    print(
        f"ACCEPTANCE 10 (reported, not gated): predictive vs best-of-training "
        f"W={versus_best['W']!r} p={versus_best['p']!r}"
    )
    row = pairs["predictive", "literature"]
    assert row["n"] == 540
    assert row["p"] is not None
    significant = row["p"] < 0.05
    print(
        f"ACCEPTANCE 10 RESULT: predictive vs literature W={row['W']!r} "
        f"p={row['p']!r} n={row['n']} significant={significant} "
        f"(p recorded, not gated)"
    )
    assert row["W"] > 0, (
        f"directional check: W={row['W']} is not > 0 (p={row['p']}); "
        "see the ledger analysis of this criterion at desk scale"
    )
    ok(10, f"campaign reported W={row['W']} > 0 with p={row['p']:.3g}")


@pytest.mark.slow
def test_criterion_11_campaign_determinism(desk_campaign, tmp_path_factory):
    out, _ = desk_campaign
    out2 = tmp_path_factory.mktemp("desk-repeat")
    train_cfg, compare_cfg = _campaign_configs(out2)
    cmd_train(train_cfg)
    cmd_compare(compare_cfg)
    a = open(out / "alpha.csv", "rb").read()
    b = open(out2 / "alpha.csv", "rb").read()
    assert a == b
    ok(11, "repeated campaign reproduced alpha.csv byte-identically")
