import json
import logging
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuneseer import predictor
from tuneseer.bench import REGISTRY, ObjectiveSpec, make_instance, training_suite
from tuneseer.cluster import ClusterModel, FeatureScaler
from tuneseer.errors import ContractError
from tuneseer.features import FeatureVector, extract_features
from tuneseer.predictor import (
    RunKey,
    TrainingRecord,
    TrainingStore,
    recommend,
    recommendation_table,
    run_predictive,
    top_set_size,
)
from tuneseer.sampling import MIN_POP_SIZE, ControlParams


def rec(p1, p2, p3, beta, alpha, fid="sphere", dim=2, seed=0):
    return TrainingRecord(
        params=ControlParams(p1, p2, p3),
        features=FeatureVector(*beta),
        alpha=alpha,
        key=RunKey(fid, dim, 1, seed),
        sigma=100,
        timestamp="2026-01-01T00:00:00+00:00",
    )


def synthetic_store():
    """Two well-separated feature groups with planted parameter optima."""
    low = [(0.05 * i, 0.5, 20 + i, (2.0, 1.0 + 0.01 * i, 0.5), float(i)) for i in range(12)]
    high = [
        (0.9 - 0.05 * i, 0.8, 200 + i, (20.0, 2.0 + 0.01 * i, -0.5), float(i))
        for i in range(15)
    ]
    records = [rec(*args) for args in low] + [rec(*args) for args in high]
    return TrainingStore(records), low, high


def bruteforce_recommendation(group):
    ranked = sorted(group, key=lambda a: -a[4])
    top = ranked[: max(1, math.ceil(0.1 * len(group)))]
    p1 = float(np.mean([t[0] for t in top]))
    p2 = float(np.mean([t[1] for t in top]))
    p3 = max(5, int(math.floor(np.mean([t[2] for t in top]) + 0.5)))
    return p1, p2, p3


def test_top_set_size_rule():
    for m in range(1, 51):
        assert top_set_size(m) == max(1, math.ceil(0.1 * m))
    assert top_set_size(1) == 1
    assert top_set_size(10) == 1
    assert top_set_size(11) == 2


def test_recommend_matches_bruteforce_per_cluster():
    store, low, high = synthetic_store()
    model, table = recommendation_table(store, kappa=2)
    for beta, group in [
        (FeatureVector(2.0, 1.05, 0.5), low),
        (FeatureVector(20.0, 2.05, -0.5), high),
    ]:
        params, cluster_idx = recommend(model, table, beta)
        want = bruteforce_recommendation(group)
        assert (params.p1, params.p2, params.p3) == want


def test_recommendation_containment():
    store, low, high = synthetic_store()
    model, table = recommendation_table(store, kappa=2)
    for beta, group in [
        (FeatureVector(2.0, 1.0, 0.5), low),
        (FeatureVector(20.0, 2.0, -0.5), high),
    ]:
        params, _ = recommend(model, table, beta)
        ranked = sorted(group, key=lambda a: -a[4])
        top = ranked[: max(1, math.ceil(0.1 * len(group)))]
        for coord, values in [
            (params.p1, [t[0] for t in top]),
            (params.p2, [t[1] for t in top]),
            (params.p3, [t[2] for t in top]),
        ]:
            assert min(values) - 1e-12 <= coord <= max(values) + 1e-12


def test_single_dominant_record_wins_small_cluster():
    # top-10% of m <= 10 is exactly one record
    records = [rec(0.1 * i, 0.5, 10 + i, (2.0, 1.0, 0.0), float(i)) for i in range(8)]
    fitted = recommendation_table(TrainingStore(records), kappa=1)
    params, _ = recommend(*fitted, FeatureVector(2.0, 1.0, 0.0))
    assert (params.p1, params.p2, params.p3) == (0.1 * 7, 0.5, 17)


def test_alpha_tie_breaks_by_insertion_order():
    records = [
        rec(0.2, 0.5, 10, (2.0, 1.0, 0.0), 5.0, seed=0),
        rec(0.8, 0.5, 40, (2.0, 1.0, 0.0), 5.0, seed=1),
    ] + [rec(0.5, 0.5, 20, (2.0, 1.0, 0.0), 1.0, seed=s) for s in range(2, 11)]
    fitted = recommendation_table(TrainingStore(records), kappa=1)
    params, _ = recommend(*fitted, FeatureVector(2.0, 1.0, 0.0))
    # 11 records -> top set of 2: both alpha-5 records, in insertion order
    assert params.p1 == pytest.approx(0.5)
    assert params.p3 == 25


def test_recommend_empty_store_rejected():
    # the fit owns the empty-store check, so no pair exists to recommend from
    with pytest.raises(ContractError, match="^cannot recommend from an empty training store$"):
        recommendation_table(TrainingStore(), 1)


def test_recommendation_table_rejects_kappa_below_one():
    store = TrainingStore([rec(0.3, 0.6, 30, (2.0, 1.0, 0.0), 1.0)])
    with pytest.raises(ContractError, match="k must be >= 1, got 0"):
        recommendation_table(store, kappa=0)


def test_kappa_clamped_to_record_count(caplog):
    store = TrainingStore([rec(0.3, 0.6, 30, (2.0, 1.0, 0.0), 1.0)])
    with caplog.at_level(logging.WARNING):
        fitted = recommendation_table(store, kappa=10)
    params, cluster_idx = recommend(*fitted, FeatureVector(2.0, 1.0, 0.0))
    # the clamp has one owner, cluster.fit, and warns once
    assert [r.name for r in caplog.records] == ["tuneseer.cluster"]
    assert cluster_idx == 0
    assert params.p3 == 30


def test_store_append():
    store = TrainingStore()
    first = rec(0.1, 0.5, 10, (2.0, 1.0, 0.0), 1.0)
    store.append([first])
    store.append([rec(0.2, 0.5, 10, (2.0, 1.0, 0.0), 2.0), rec(0.3, 0.5, 10, (2.0, 1.0, 0.0), 3.0)])
    assert len(store) == 3
    store.append([])
    assert len(store) == 3
    # duplicate append: no dedup
    store.append([first])
    assert len(store) == 4
    assert store.records[0] is store.records[3]


def test_jsonl_round_trip_and_field_order(tmp_path):
    store, _, _ = synthetic_store()
    path = tmp_path / "store.jsonl"
    store.save(path)
    loaded = TrainingStore.load(path)
    assert loaded.records == store.records
    first = json.loads(path.read_text().splitlines()[0])
    assert list(first) == [
        "p1",
        "p2",
        "p3",
        "beta1",
        "beta2",
        "beta3",
        "alpha",
        "function_id",
        "dim",
        "instance_seed",
        "run_seed",
        "sigma",
        "timestamp",
    ]


def test_serialized_store_is_byte_prefix_of_grown_store(tmp_path):
    store, _, _ = synthetic_store()
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    store.save(a)
    store.append([rec(0.5, 0.5, 50, (7.0, 1.0, 0.0), 9.0)])
    store.save(b)
    assert b.read_bytes().startswith(a.read_bytes())


# a store holds finite numbers, valid triples and keys a command runs only;
# anything else is a load error (below)
_floats = st.floats(allow_nan=False, allow_infinity=False)
_ints = st.integers(-(2**63), 2**63 - 1)
_records = st.builds(
    TrainingRecord,
    params=st.builds(
        ControlParams,
        p1=st.floats(0, 1),
        p2=st.floats(min_value=0, allow_infinity=False),
        p3=st.integers(MIN_POP_SIZE, 2**63 - 1),
    ),
    features=st.builds(FeatureVector, beta1=_floats, beta2=_floats, beta3=_floats),
    alpha=_floats,
    key=st.builds(
        RunKey,
        function_id=st.sampled_from(sorted(REGISTRY)),
        dim=st.integers(2, 2**63 - 1),
        instance_seed=st.integers(1, 2**63 - 1),
        run_seed=_ints,
    ),
    sigma=_ints,
    timestamp=st.text(),
)


class _Unwritable:
    def to_json_line(self):
        raise OSError("interrupted")


@settings(max_examples=60, deadline=None)
@given(
    old=st.lists(_records, max_size=6),
    new=st.lists(_records, max_size=6),
    cut=st.integers(0, 6),
)
def test_records_round_trip_and_survive_an_interrupted_save(old, new, cut):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "store.jsonl")
        TrainingStore(old).save(path)
        assert TrainingStore.load(path).records == old  # every field, exact
        before = open(path, "rb").read()
        broken = new[:cut] + [_Unwritable()] + new[cut:]
        with pytest.raises(OSError, match="interrupted"):
            TrainingStore(broken).save(path)
        assert open(path, "rb").read() == before
        assert os.listdir(tmp) == ["store.jsonl"]
        TrainingStore(new).save(path)
        assert TrainingStore.load(path).records == new


def test_failed_save_leaves_previous_file_intact(tmp_path, monkeypatch):
    store, _, _ = synthetic_store()
    path = tmp_path / "store.jsonl"
    store.save(path)
    before = path.read_bytes()

    written = []
    original = TrainingRecord.to_json_line

    def failing(self):
        if len(written) == 5:
            raise OSError("disk full")
        written.append(self)
        return original(self)

    monkeypatch.setattr(TrainingRecord, "to_json_line", failing)
    store.append([rec(0.5, 0.5, 50, (7.0, 1.0, 0.0), 9.0)])
    with pytest.raises(OSError, match="disk full"):
        store.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["store.jsonl"]


@pytest.mark.parametrize(
    "bad_line,reason",
    [
        ('{"p1": 0.5, "p2"', "bad record"),
        ('{"p1": 0.5, "p2": 0.5}', "no field 'p3'"),
        ("[1, 2]", "bad record"),
    ],
)
def test_load_names_path_and_line_of_bad_record(tmp_path, bad_line, reason):
    store, _, _ = synthetic_store()
    path = tmp_path / "store.jsonl"
    store.save(path)
    lines = path.read_text().splitlines()
    lines[2] = bad_line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ContractError) as info:
        TrainingStore.load(path)
    message = str(info.value)
    assert message.startswith(f"{path}:3: ")
    assert reason in message


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["p1", "p2", "beta1", "beta2", "beta3", "alpha"])
def test_load_rejects_non_finite_numbers(tmp_path, key, value):
    # json.loads reads NaN, Infinity and -Infinity; the store must not
    store, _, _ = synthetic_store()
    path = tmp_path / "store.jsonl"
    store.save(path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[4])
    record[key] = value
    lines[4] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ContractError) as info:
        TrainingStore.load(path)
    assert str(info.value) == f"{path}:5: bad record: {key} must be finite, got {value!r}"


@pytest.mark.parametrize(
    "key,value,reason",
    [
        ("p1", 1.5, "p1 must be in [0, 1], got 1.5"),
        ("p1", -0.25, "p1 must be in [0, 1], got -0.25"),
        ("p2", -0.5, "p2 must be >= 0, got -0.5"),
        ("p3", 7.9, f"p3 must be an integer >= {MIN_POP_SIZE}, got 7.9"),  # not truncated
        ("p3", 3, f"p3 must be an integer >= {MIN_POP_SIZE}, got 3"),
    ],
)
def test_load_rejects_an_invalid_parameter_triple(tmp_path, key, value, reason):
    store, _, _ = synthetic_store()
    path = tmp_path / "store.jsonl"
    store.save(path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    record[key] = value
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ContractError) as info:
        TrainingStore.load(path)
    assert str(info.value) == f"{path}:2: bad record: {reason}"


@pytest.mark.parametrize(
    "change,reason",
    [
        ({"dim": 10.7}, "dim must be an integer, got 10.7"),
        ({"dim": True}, "dim must be an integer, got True"),
        ({"run_seed": "3"}, "run_seed must be an integer, got '3'"),
        ({"sigma": 99.9}, "sigma must be an integer, got 99.9"),
        ({"p3": 20.0}, "p3 must be an integer, got 20.0"),
        ({"p3": math.inf}, "p3 must be an integer, got inf"),
        ({"p3": None}, "p3 must be an integer, got None"),
        ({"p3": "7"}, "p3 must be an integer, got '7'"),
        ({"p1": True}, "p1 must be a number, got True"),
        ({"alpha": "1.5"}, "alpha must be a number, got '1.5'"),
        ({"alpha": 10**400}, "int too large to convert to float"),
        ({"function_id": 5}, "function_id must be a string, got 5"),
        ({"timestamp": 7}, "timestamp must be a string, got 7"),
        ({"extra": 1, "dimm": 10}, "unknown fields ['dimm', 'extra']"),
        ("[1, 2]", "expected a JSON object, got [1, 2]"),
        # a key a command runs: a registry function, D >= 2, instance seed >= 1
        ({"function_id": "nope"}, "unknown function id 'nope'"),
        ({"function_id": ""}, "unknown function id ''"),
        ({"dim": 1}, "dimension must be >= 2, got 1"),
        ({"instance_seed": 0}, "instance_seed must be >= 1, got 0"),
        ({"instance_seed": -4}, "instance_seed must be >= 1, got -4"),
    ],
)
def test_load_reads_a_record_only_in_the_form_it_is_written(tmp_path, change, reason):
    store, _, _ = synthetic_store()
    path = tmp_path / "store.jsonl"
    store.save(path)
    lines = path.read_text().splitlines()
    if isinstance(change, str):
        lines[3] = change
    else:
        lines[3] = json.dumps({**json.loads(lines[3]), **change})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ContractError) as info:
        TrainingStore.load(path)
    assert str(info.value) == f"{path}:4: bad record: {reason}"


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_load_skips_blank_lines(tmp_path, newline):
    store, _, _ = synthetic_store()
    path = tmp_path / "store.jsonl"
    store.save(path)
    lines = path.read_text().splitlines()
    spaced = ["", *lines[:2], "", "  \t", *lines[2:], "", ""]
    path.write_bytes(newline.join(spaced).encode())
    assert TrainingStore.load(path).records == store.records


def test_load_reads_integers_in_float_fields_as_floats(tmp_path):
    store = TrainingStore([rec(1, 0, 20, (2, 1, 0), 3)])
    path = tmp_path / "store.jsonl"
    store.save(path)
    (loaded,) = TrainingStore.load(path).records
    assert loaded == store.records[0]
    assert [type(v) for v in (loaded.params.p1, loaded.features.beta1, loaded.alpha)] == [float] * 3


def test_run_predictive_budget_accounting():
    store, _, _ = synthetic_store()
    instance = make_instance(ObjectiveSpec("ackley", 2), 9)
    budget, sigma = 2000, 400
    model, table = recommendation_table(store, kappa=2)
    trace, score, record = run_predictive(
        instance, model, table, sigma=sigma, budget=budget, seed=3
    )
    assert instance.eval_counter <= budget
    optimizer_evals = instance.eval_counter - sigma
    assert optimizer_evals <= budget - sigma
    assert trace.evals_used == instance.eval_counter  # trace includes sigma
    assert record.sigma == sigma
    assert score.n_g <= trace.evals_used


def test_run_predictive_uses_fresh_features():
    store, _, _ = synthetic_store()
    instance = make_instance(ObjectiveSpec("ackley", 2), 9)
    model, table = recommendation_table(store, kappa=2)
    _, _, record = run_predictive(
        instance, model, table, sigma=300, budget=1500, seed=5
    )
    fresh = extract_features(make_instance(ObjectiveSpec("ackley", 2), 9), 300, 5)
    assert record.features == fresh
    assert record.params == recommend(model, table, fresh)[0]


def test_run_predictive_validates_budget():
    store, _, _ = synthetic_store()
    instance = make_instance(ObjectiveSpec("sphere", 2), 1)
    model, table = recommendation_table(store, kappa=1)
    with pytest.raises(ContractError):
        run_predictive(instance, model, table, sigma=500, budget=500, seed=0)


def test_recommendation_table_covers_all_clusters():
    store, _, _ = synthetic_store()
    model, table = recommendation_table(store, kappa=2)
    assert set(table) == {0, 1}
    for params in table.values():
        params.validate()


def scanned_table(store, model):
    """Per-cluster tables by one scan of the whole store per cluster."""
    labels = model.classify_all(store.features_array())
    table = {}
    for c in range(model.k):
        members = [r for r, lab in zip(store.records, labels) if lab == c]
        if not members:
            members = list(store.records)
        ranked = sorted(members, key=lambda r: -r.alpha)
        table[c] = predictor._mean_params(ranked[: top_set_size(len(members))])
    return table


def random_store(rng, n):
    # few distinct alphas, so the top sets hinge on the stable tie order
    return TrainingStore(
        [
            rec(
                float(rng.random()),
                float(rng.uniform(0.1, 1.0)),
                int(rng.integers(5, 500)),
                tuple(rng.normal(size=3)),
                float(rng.integers(0, 4)),
                seed=i,
            )
            for i in range(n)
        ]
    )


@pytest.mark.parametrize("n,kappa", [(1, 1), (7, 3), (40, 5), (300, 10)])
def test_recommendation_table_matches_store_scan(n, kappa):
    rng = np.random.default_rng(n)
    for seed in range(3):
        store = random_store(rng, n)
        model, table = recommendation_table(store, kappa, seed=seed)
        assert table == scanned_table(store, model)


def test_recommendation_table_empty_cluster_falls_back_to_store(monkeypatch):
    store, low, high = synthetic_store()
    far = np.array([[2.0, 1.0, 0.5], [20.0, 2.0, -0.5], [1e6, 1e6, 1e6]])
    model = ClusterModel(
        k=3, centroids=far, scaler=FeatureScaler.identity(3), inertia=0.0
    )
    monkeypatch.setattr(predictor, "fit_model", lambda *a, **kw: model)
    _, table = recommendation_table(store, kappa=3)
    assert table == scanned_table(store, model)
    everyone = [a for group in (low, high) for a in group]
    assert (table[2].p1, table[2].p2, table[2].p3) == bruteforce_recommendation(
        everyone
    )
    assert (table[0].p1, table[0].p2, table[0].p3) == bruteforce_recommendation(low)
