import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tuneseer
from tuneseer import cli, cluster, harness
from tuneseer.bench import ObjectiveInstance, make_instance
from tuneseer.errors import ContractError
from tuneseer.features import FeatureConfig, extract_features
from tuneseer.harness import (
    CampaignConfig,
    ComparisonReport,
    cmd_compare,
    cmd_features,
    cmd_recommend,
    cmd_report,
    cmd_train,
    compute_wilcoxon_rows,
)
from tuneseer.predictor import TrainingStore, recommend
from tuneseer.sampling import derive_seed
from tuneseer.stats import wilcoxon

# budget must cover sigma plus the largest admissible population (500)
TINY = dict(
    dims=(2,),
    instances=1,
    seeds=(0, 1),
    train_seeds=(0,),
    budget=1600,
    sigma=50,
    kappa=3,
    n_param_sets=2,
    workers=1,
)


def train_config(tmp_path, **kw):
    merged = {**TINY, "out": str(tmp_path), **kw}
    return CampaignConfig(**merged)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("campaign")
    config = train_config(out)
    path = cmd_train(config)
    return out, config, path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_train_outputs(trained):
    out, config, path = trained
    assert os.path.exists(path)
    lines = [l for l in open(path) if l.strip()]
    # 10 training functions x 1 dim x 1 instance x 2 param sets x 1 seed
    assert len(lines) == 20
    listing = json.load(open(out / "suite.json"))
    assert len(listing) == 10
    assert {row["dimension"] for row in listing} == {2}


def test_compare_outputs_and_pairing(trained):
    out, config, _ = trained
    compare_out = str(out / "cmp")
    report = cmd_compare(
        train_config(
            out,
            suite="holdout",
            out=compare_out,
            store_path=str(out / "store.jsonl"),
            methods=("predictive", "literature"),
        )
    )
    rows = read_rows(os.path.join(compare_out, "alpha.csv"))
    # 6 holdout functions x 1 dim x 1 instance x 2 seeds x 2 methods
    assert len(rows) == 24
    assert all(r["status"] == "ok" for r in rows)
    keys_by_method = {}
    for r in rows:
        key = (r["function_id"], r["dim"], r["instance_seed"], r["run_seed"])
        keys_by_method.setdefault(r["method"], set()).add(key)
    assert keys_by_method["predictive"] == keys_by_method["literature"]
    # budget audit: evals recorded and within budget
    for r in rows:
        assert int(r["evals"]) <= TINY["budget"]

    wrows = read_rows(os.path.join(compare_out, "wilcoxon.csv"))
    assert len(wrows) == 1
    assert wrows[0]["method_a"] == "predictive"
    assert wrows[0]["method_b"] == "literature"
    assert int(wrows[0]["n"]) == 12

    curves = os.listdir(os.path.join(compare_out, "curves"))
    assert len(curves) == 12  # 6 functions x 1 dim x 2 seeds
    sample = read_rows(os.path.join(compare_out, "curves", sorted(curves)[0]))
    best = [float(r["best"]) for r in sample if r["method"] == "literature"]
    assert best == sorted(best, reverse=True)  # improvement-only rows

    # per-run retrain grows the store and persists it
    grown = out / "cmp" / "store_after_compare.jsonl"
    assert grown.exists() if hasattr(grown, "exists") else os.path.exists(grown)
    assert len(open(grown).readlines()) == 20 + 12


def test_compare_determinism(trained):
    out, config, _ = trained
    kw = dict(
        suite="holdout",
        store_path=str(out / "store.jsonl"),
        methods=("predictive", "literature"),
        seeds=(0,),
    )
    cmd_compare(train_config(out, out=str(out / "d1"), **kw))
    cmd_compare(train_config(out, out=str(out / "d2"), **kw))
    a = open(out / "d1" / "alpha.csv", "rb").read()
    b = open(out / "d2" / "alpha.csv", "rb").read()
    assert a == b


def test_compare_requires_store(tmp_path):
    with pytest.raises(ContractError):
        cmd_compare(
            train_config(tmp_path, suite="holdout", methods=("predictive",))
        )


def test_failed_runs_are_explicit_rows(trained, monkeypatch):
    out, _, _ = trained

    def raising_objective(self, points):
        raise FloatingPointError(f"{self.spec.function_id} cannot be evaluated")

    monkeypatch.setattr(ObjectiveInstance, "evaluate_batch", raising_objective)
    config = train_config(
        out,
        suite="holdout",
        out=str(out / "fail"),
        store_path=str(out / "store.jsonl"),
        methods=("predictive",),
        seeds=(0,),
    )
    report = cmd_compare(config)
    rows = read_rows(os.path.join(str(out / "fail"), "alpha.csv"))
    assert len(rows) == 6
    assert all(r["status"].startswith("failed") for r in rows)
    assert all(r["alpha"] == "" for r in rows)
    assert report.n_failed == 6


def test_nan_objective_runs_are_failed_rows(trained, monkeypatch):
    out, _, _ = trained
    monkeypatch.setattr(
        ObjectiveInstance, "evaluate_batch", lambda self, points: np.full(len(points), np.nan)
    )
    config = train_config(
        out,
        suite="holdout",
        out=str(out / "nan"),
        store_path=str(out / "store.jsonl"),
        methods=("literature",),
        seeds=(0,),
    )
    report = cmd_compare(config)
    rows = read_rows(os.path.join(str(out / "nan"), "alpha.csv"))
    assert len(rows) == 6
    assert all(r["status"].startswith("failed: cannot score") for r in rows)
    assert all(r["alpha"] == "" for r in rows)
    assert report.n_failed == 6


def test_self_comparison_is_null():
    rows = []
    for method in ("predictive", "literature"):
        for seed in range(10):
            rows.append(
                {
                    "function_id": "sphere",
                    "dim": 2,
                    "instance_seed": 1,
                    "run_seed": seed,
                    "method": method,
                    "alpha": 0.5 + seed,
                    "status": "ok",
                }
            )
    out = compute_wilcoxon_rows(rows)
    assert len(out) == 1
    assert out[0]["W"] == 0.0
    assert out[0]["p"] == 1.0


def test_wilcoxon_rows_pair_only_keys_ok_for_both_methods():
    # keys in shuffled order, with string fields as read back from alpha.csv,
    # so pairing must parse the key and sort it (dim 10 after dim 2)
    keys = [
        ("sphere", "10", "1", "0"),
        ("ackley", "2", "1", "1"),
        ("sphere", "2", "1", "1"),
        ("ackley", "2", "1", "0"),
        ("sphere", "2", "1", "0"),
        ("sphere", "10", "1", "1"),
    ]
    failed = {
        "predictive": {0, 1},
        "literature": {2},
        "shade": {2, 3, 4, 5},  # ok only where predictive failed
    }
    alpha = {}
    rows = []
    for m, method in enumerate(("predictive", "literature", "shade")):
        for k, (fid, dim, inst, seed) in enumerate(keys):
            ok = k not in failed[method]
            alpha[method, k] = 0.1 * (k + 1) + 0.37 * m * (-1) ** k
            rows.append(
                {
                    "function_id": fid,
                    "dim": dim,
                    "instance_seed": inst,
                    "run_seed": seed,
                    "method": method,
                    "alpha": repr(alpha[method, k]) if ok else "",
                    "status": "ok" if ok else "failed: boom",
                }
            )

    def expected(a, b):
        shared = [k for k in range(len(keys)) if k not in failed[a] | failed[b]]
        shared.sort(key=lambda k: (keys[k][0], *map(int, keys[k][1:])))
        return wilcoxon(np.array([alpha[a, k] - alpha[b, k] for k in shared]))

    out = {(r["method_a"], r["method_b"]): r for r in compute_wilcoxon_rows(rows)}
    assert list(out) == [
        ("predictive", "shade"),
        ("predictive", "literature"),
        ("shade", "literature"),
    ]
    for pair, n in ((("predictive", "literature"), 3), (("shade", "literature"), 2)):
        want = expected(*pair)
        assert (out[pair]["n"], out[pair]["W"], out[pair]["p"]) == (n, want.w, want.p)
    assert out["predictive", "shade"] == {
        "method_a": "predictive",
        "method_b": "shade",
        "n": 0,
        "W": None,
        "p": None,
    }


def test_cmd_features(trained):
    out, _, _ = trained
    config = train_config(
        out, out=str(out / "feat"), seeds=(0,), sigmas=(20, 50), kappa=3
    )
    path = cmd_features(config)
    rows = read_rows(path)
    # 2 sigmas x 10 functions x 1 instance x 1 seed
    assert len(rows) == 20
    assert {r["sigma"] for r in rows} == {"20", "50"}
    for r in rows:
        assert 0 <= int(r["cluster"]) < 3
        assert float(r["beta1"]) == 2.0
    # every row recomputed from its own seed, clustered per sigma, in order
    want = []
    for sigma in config.sigmas:
        group = []
        for spec in config.suite_specs():
            for inst in config.compare_instance_seeds():
                for seed in config.seeds:
                    item_seed = derive_seed(
                        config.campaign_seed,
                        "features-cmd",
                        spec.function_id,
                        spec.dimension,
                        inst,
                        seed,
                        sigma,
                    )
                    instance = make_instance(spec, inst)
                    beta = extract_features(
                        instance, FeatureConfig(sigma=sigma, seed=item_seed)
                    )
                    head = (sigma, spec.function_id, spec.dimension, inst, seed)
                    group.append((head, beta))
        points = np.array([beta.as_array() for _, beta in group])
        model = cluster.fit(
            points, config.kappa, seed=config.campaign_seed, scale=config.feature_scaling
        )
        for (head, beta), label in zip(group, model.classify_all(points)):
            betas = (repr(beta.beta1), repr(beta.beta2), repr(beta.beta3))
            want.append([*map(str, head), *betas, str(label)])
    assert [list(r.values()) for r in rows] == want


def test_cmd_recommend_with_explicit_beta(trained, capsys):
    out, _, _ = trained
    result = cmd_recommend(
        store_path=str(out / "store.jsonl"), kappa=3, beta=(2.0, 1.2, 0.3)
    )
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload == result
    assert 0.0 <= result["p1"] <= 1.0
    assert result["p3"] >= 5
    assert isinstance(result["cluster"], int)


def test_cmd_report_rederives_wilcoxon(trained):
    out, _, _ = trained
    cmp_dir = str(out / "cmp")
    before = read_rows(os.path.join(cmp_dir, "wilcoxon.csv"))
    rows = cmd_report(cmp_dir)
    after = read_rows(os.path.join(cmp_dir, "wilcoxon.csv"))
    assert before == after
    assert len(rows) == len(before)


def _write_alpha_csv(path, columns, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


# function_id, dim, instance_seed, run_seed, method, p1, p2, p3, alpha, evals,
# g_star, status; the report reads back lines 2-7
_GOOD_ALPHA_ROWS = [
    ["sphere", "2", "101", str(seed), method, "", "", "", repr(0.1 * seed + m)]
    + ["900", "3", "ok"]
    for seed in range(3)
    for m, method in enumerate(("predictive", "literature"))
]


@pytest.mark.parametrize(
    "line,column,value,message",
    [
        (2, "dim", "two", "dim must be an integer, got 'two'"),
        (3, "instance_seed", "1.5", "instance_seed must be an integer"),
        (7, "run_seed", "", "run_seed must be an integer, got ''"),
        (4, "alpha", "fast", "alpha must be a number, got 'fast'"),
        (5, "run_seed", None, "run_seed must be an integer, got None"),  # a short row
        (3, "method", "literatur", "unknown method 'literatur'"),
        (
            6,
            "run_seed",
            "0",  # line 2's test key and method again
            "repeated test key and method ('sphere', 2, 101, 0, 'predictive')",
        ),
    ],
)
def test_report_names_line_of_malformed_alpha_csv(
    tmp_path, capsys, line, column, value, message
):
    rows = [list(r) for r in _GOOD_ALPHA_ROWS]
    index = harness.ALPHA_COLUMNS.index(column)
    if value is None:
        del rows[line - 2][index:]
    else:
        rows[line - 2][index] = value
    path = tmp_path / "alpha.csv"
    _write_alpha_csv(path, harness.ALPHA_COLUMNS, rows)
    assert cli.main(["report", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{line}: {message}")
    assert err.count("\n") == 1
    assert not (tmp_path / "wilcoxon.csv").exists()


def test_report_rejects_alpha_csv_without_a_column(tmp_path, capsys):
    index = harness.ALPHA_COLUMNS.index("run_seed")
    columns = [c for c in harness.ALPHA_COLUMNS if c != "run_seed"]
    rows = [r[:index] + r[index + 1 :] for r in _GOOD_ALPHA_ROWS]
    _write_alpha_csv(tmp_path / "alpha.csv", columns, rows)
    assert cli.main(["report", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'alpha.csv'}:1: missing columns ['run_seed']\n"
    assert not (tmp_path / "wilcoxon.csv").exists()


def test_report_accepts_failed_rows_without_alpha(tmp_path):
    rows = [list(r) for r in _GOOD_ALPHA_ROWS]
    rows[0][8:] = ["", "", "", "failed: boom"]
    _write_alpha_csv(tmp_path / "alpha.csv", harness.ALPHA_COLUMNS, rows)
    (pair,) = cmd_report(str(tmp_path))
    assert pair["n"] == 2


def test_cli_exit_codes(trained, tmp_path):
    out, _, _ = trained
    assert cli.main(["report", "--out", str(out / "cmp")]) == 0
    assert cli.main(["report", "--out", str(tmp_path / "nowhere")]) == 2
    assert (
        cli.main(
            ["compare", "--methods", "nonsense", "--out", str(tmp_path)]
        )
        == 1
    )


def test_cli_config_file_with_flag_override(tmp_path):
    config_path = tmp_path / "config.json"
    json.dump(
        {
            "dims": [2],
            "instances": 1,
            "train_seeds": [0],
            "budget": 1600,
            "sigma": 50,
            "n_param_sets": 2,
            "out": str(tmp_path / "a"),
        },
        open(config_path, "w"),
    )
    # flag overrides the config's out dir
    code = cli.main(
        ["train", "--config", str(config_path), "--out", str(tmp_path / "b")]
    )
    assert code == 0
    assert os.path.exists(tmp_path / "b" / "store.jsonl")
    assert not os.path.exists(tmp_path / "a" / "store.jsonl")


@pytest.mark.parametrize(
    "command,key,value",
    [
        ("compare", "seeds", 3),  # a count is a CLI spelling, not a config value
        ("train", "dims", 2),
        ("train", "budget", "900"),
        ("train", "budget", True),
        ("compare", "methods", "literature"),
        ("features", "sigmas", [10, 1.5]),
        ("train", "feature_scaling", "no"),
        ("compare", "retrain", 1),
    ],
)
def test_cli_config_file_type_errors(tmp_path, capsys, command, key, value):
    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({key: value, "out": str(out)}))
    assert cli.main([command, "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1
    assert not out.exists()


def test_every_config_key_has_a_checked_type():
    typed = [k for _, keys in harness._CONFIG_TYPES.values() for k in keys.split()]
    assert sorted(typed) == sorted(f.name for f in dataclasses.fields(CampaignConfig))


def test_cli_import_loads_neither_scipy_nor_multiprocessing():
    src = os.path.dirname(os.path.dirname(tuneseer.__file__))
    probes = {
        "tuneseer.cli": ("scipy", "multiprocessing"),
        # the package re-exports nothing, so a leaf module loads only its deps
        "tuneseer.bench": ("tuneseer.harness", "tuneseer.cluster"),
    }
    for module, absent in probes.items():
        probe = (
            f"import sys, {module}; "
            f"print(sorted(m for m in {absent!r} if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            check=True,
        )
        assert proc.stdout.strip() == "[]", module


def test_cli_module_entrypoint(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "tuneseer.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "train" in proc.stdout and "compare" in proc.stdout


def test_unknown_config_key_rejected():
    with pytest.raises(ContractError):
        CampaignConfig().merged({"nonsense": 1})


def test_env_var_sets_default_out(monkeypatch):
    monkeypatch.setenv("TUNESEER_DATA", "/tmp/tuneseer-out")
    assert harness.default_out_dir() == "/tmp/tuneseer-out"
    assert CampaignConfig().out == "/tmp/tuneseer-out"


def test_compare_instance_seeds_disjoint_by_default():
    config = CampaignConfig(instances=2)
    assert set(config.train_instance_seeds()).isdisjoint(
        config.compare_instance_seeds()
    )
    mirrored = CampaignConfig(instances=2, paper_instances=True)
    assert mirrored.compare_instance_seeds() == mirrored.train_instance_seeds()


def test_all_four_methods_compare(trained):
    out, _, _ = trained
    report = cmd_compare(
        train_config(
            out,
            suite="holdout",
            out=str(out / "all4"),
            store_path=str(out / "store.jsonl"),
            methods=("predictive", "best-of-training", "shade", "literature"),
            seeds=(0,),
            dims=(2,),
        )
    )
    rows = read_rows(os.path.join(str(out / "all4"), "alpha.csv"))
    assert {r["method"] for r in rows} == {
        "predictive",
        "best-of-training",
        "shade",
        "literature",
    }
    assert len(report.wilcoxon_rows) == 6  # all unordered method pairs
    first = report.wilcoxon_rows[0]
    assert first["method_a"] == "predictive"  # canonical sign convention


def test_workers_match_sequential(trained):
    out, _, _ = trained
    kw = dict(
        suite="holdout",
        store_path=str(out / "store.jsonl"),
        methods=("literature",),
        seeds=(0,),
    )
    cmd_compare(train_config(out, out=str(out / "w1"), workers=1, **kw))
    cmd_compare(train_config(out, out=str(out / "w2"), workers=2, **kw))
    a = open(out / "w1" / "alpha.csv", "rb").read()
    b = open(out / "w2" / "alpha.csv", "rb").read()
    assert a == b


@pytest.mark.parametrize("retrain", ["per-batch", "per-run"])
def test_predictive_rows_replay_the_store(trained, retrain):
    # per-batch recommends every key from the starting store; per-run from
    # the starting store plus the records of the keys before it
    out, _, store_path = trained
    compare_out = out / f"replay-{retrain}"
    config = train_config(
        out,
        suite="holdout",
        out=str(compare_out),
        store_path=store_path,
        methods=("predictive", "literature"),
        retrain=retrain,
    )
    cmd_compare(config)
    start = TrainingStore.load(store_path).records
    grown = TrainingStore.load(compare_out / "store_after_compare.jsonl").records
    assert grown[: len(start)] == start
    rows = {
        (r["function_id"], int(r["dim"]), int(r["instance_seed"]), int(r["run_seed"])): r
        for r in read_rows(compare_out / "alpha.csv")
        if r["method"] == "predictive"
    }
    new = grown[len(start) :]
    assert len(new) == len(rows) == 12
    memory = TrainingStore(start)
    for record in new:
        row = rows[(record.function_id, record.dim, record.instance_seed, record.run_seed)]
        params, _ = recommend(
            memory,
            config.kappa,
            record.features,
            seed=config.campaign_seed,
            scale=config.feature_scaling,
        )
        assert record.params == params
        want = (repr(params.p1), repr(params.p2), str(params.p3))
        assert (row["p1"], row["p2"], row["p3"]) == want
        assert row["alpha"] == repr(record.alpha)
        if retrain == "per-run":
            memory.append([record])


@pytest.mark.parametrize("retrain", ["per-batch", "per-run"])
def test_predictive_workers_match_sequential(trained, retrain):
    out, _, store_path = trained
    kw = dict(
        suite="holdout",
        store_path=store_path,
        methods=("predictive", "literature"),
        retrain=retrain,
    )
    for workers in (1, 2):
        compare_out = str(out / f"pw{workers}-{retrain}")
        cmd_compare(train_config(out, out=compare_out, workers=workers, **kw))
    a = open(out / f"pw1-{retrain}" / "alpha.csv", "rb").read()
    b = open(out / f"pw2-{retrain}" / "alpha.csv", "rb").read()
    assert a == b


@pytest.mark.parametrize(
    "override",
    [
        dict(kappa=0),
        dict(workers=0),
        dict(sigma=1),
        dict(sigmas=(50, 1)),
        dict(dims=(1,)),
        dict(dims=(2, 0, 10)),
        dict(dims=()),
    ],
)
def test_validate_rejects_bad_config(override):
    CampaignConfig().validate()
    with pytest.raises(ContractError):
        CampaignConfig(**override).validate()


def test_compare_rejects_budget_within_sigma_before_any_run(trained, tmp_path):
    _, _, store_path = trained
    argv = compare_argv(store_path, tmp_path, "predictive", 40)
    assert cli.main(argv) == 1
    assert not os.path.exists(tmp_path / "alpha.csv")


def compare_argv(store_path, out, methods, budget, dims="2", sigma="50"):
    return [
        "compare", "--suite", "holdout", "--dims", dims, "--instances", "1",
        "--seeds", "1", "--methods", methods, "--store", store_path,
        "--budget", str(budget), "--sigma", sigma, "--out", str(out),
    ]


@pytest.mark.parametrize(
    "methods,dims,floor",
    [
        ("literature", "20", 200),  # 10 D at the largest D
        ("literature", "2,20", 200),
        ("shade", "2", 100),
        ("predictive", "2", 50 + 500),  # sigma + the largest design population
        ("literature,predictive", "2", 50 + 500),
    ],
)
def test_compare_rejects_budget_below_one_generation(
    trained, tmp_path, methods, dims, floor
):
    _, _, store_path = trained
    for budget, code in ((floor - 1, 1), (floor, 0)):
        out = tmp_path / str(budget)
        argv = compare_argv(store_path, out, methods, budget, dims=dims)
        assert cli.main(argv) == code
        assert os.path.exists(out / "alpha.csv") == (code == 0)
    rows = read_rows(out / "alpha.csv")
    assert rows and all(r["status"] == "ok" for r in rows)


def test_compare_rejects_budget_below_best_record_population(trained, tmp_path):
    _, _, store_path = trained
    p3 = TrainingStore.load(store_path).best_record().params.p3
    out = tmp_path / "best"
    argv = compare_argv(store_path, out, "best-of-training", p3 - 1)
    assert cli.main(argv) == 1
    assert not os.path.exists(out / "alpha.csv")
    assert cli.main(compare_argv(store_path, out, "best-of-training", p3)) == 0


@pytest.mark.parametrize(
    "command,message",
    [
        ("predictive", "cannot recommend from an empty training store {}"),
        ("best-of-training", "training store {} is empty"),
        ("recommend", "cannot recommend from an empty training store {}"),
    ],
)
def test_empty_store_rejected_naming_the_file(tmp_path, capsys, command, message):
    store = tmp_path / "empty.jsonl"
    store.write_text("")
    if command == "recommend":
        argv = ["recommend", "--store", str(store), "--beta", "10,1.3,0.2"]
    else:
        argv = compare_argv(str(store), tmp_path / "out", command, 1600)
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {message.format(store)}\n"
    assert os.listdir(tmp_path) == ["empty.jsonl"]


def test_train_rejects_budget_below_sigma_plus_design_population(tmp_path):
    with pytest.raises(ContractError, match="550"):
        cmd_train(train_config(tmp_path, budget=549, sigma=50))
    assert not os.path.exists(tmp_path / "store.jsonl")


def test_train_rejects_empty_train_seeds_keeping_the_store(trained, tmp_path):
    _, _, store_path = trained
    out = tmp_path / "keep"
    out.mkdir()
    shutil.copyfile(store_path, out / "store.jsonl")
    before = (out / "store.jsonl").read_bytes()
    argv = [
        "train", "--dims", "2", "--instances", "1", "--train-seeds", "0",
        "--n-param-sets", "2", "--budget", "1600", "--sigma", "50", "--out", str(out),
    ]
    assert cli.main(argv) == 1
    assert (out / "store.jsonl").read_bytes() == before
    assert os.listdir(out) == ["store.jsonl"]


@pytest.mark.parametrize("command", ["compare", "features"])
def test_empty_seeds_rejected_before_any_write(trained, tmp_path, command):
    _, _, store_path = trained
    out = tmp_path / "out"
    argv = compare_argv(store_path, out, "literature", 1600)
    argv[0] = command
    argv[argv.index("--seeds") + 1] = "0"
    assert cli.main(argv) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("compare", "--dims", "2,x"),
        ("compare", "--dims", ","),
        ("compare", "--seeds", "abc"),
        ("compare", "--seeds", "1,y"),
        ("train", "--train-seeds", "2.5"),
        ("features", "--sigma", "50,z"),
        ("train", "--sigma", ","),
        ("recommend", "--beta", "a,b,c"),
        ("recommend", "--beta", "1,2"),
    ],
)
def test_cli_reports_malformed_flag_values(trained, tmp_path, capsys, command, flag, value):
    _, _, store_path = trained
    out = tmp_path / "out"
    rest = ["--store", store_path] if command == "recommend" else ["--out", str(out)]
    assert cli.main([command, flag, value, *rest]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "command,flag,value,message",
    [
        ("train", "--train-seeds", "0,0", "train_seeds must hold distinct values"),
        ("compare", "--seeds", "0,0", "seeds must hold distinct values"),
        ("compare", "--dims", "2,2", "dims must hold distinct values"),
        ("compare", "--methods", "shade,shade,literature", "methods must hold distinct"),
        ("features", "--sigma", "50,50", "sigmas must hold distinct values"),
        ("train", "--campaign-seed", "-1", "campaign_seed must be >= 0, got -1"),
        ("compare", "--campaign-seed", "-1", "campaign_seed must be >= 0, got -1"),
        ("features", "--campaign-seed", "-1", "campaign_seed must be >= 0, got -1"),
    ],
)
def test_config_rejected_before_any_write_keeping_the_store(
    trained, tmp_path, capsys, command, flag, value, message
):
    out = tmp_path / "out"
    out.mkdir()
    store = out / "store.jsonl"
    shutil.copyfile(trained[2], store)
    before = store.read_bytes()
    argv = compare_argv(str(store), out, "literature", 1600)
    argv[0] = command
    # argparse keeps the last value of a repeated flag
    argv += ["--train-seeds", "1", "--n-param-sets", "2", flag, value]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert store.read_bytes() == before
    assert os.listdir(out) == ["store.jsonl"]


_small_configs = st.builds(
    dict,
    dims=st.sampled_from([(2,), (3,), (2, 3), ()]),
    seeds=st.sampled_from([(0,), (5,), ()]),
    methods=st.lists(
        st.sampled_from(harness.METHOD_ORDER), min_size=1, max_size=4, unique=True
    ).map(tuple),
    budget=st.integers(400, 700),
    sigma=st.integers(0, 100),
    kappa=st.integers(1, 25),
    retrain=st.sampled_from(["per-run", "per-batch"]),
)


@settings(max_examples=100, deadline=None)
@given(overrides=_small_configs)
def test_small_configs_run_or_fail_up_front(trained, overrides):
    # any small config either runs with every row ok, or is rejected before
    # any run with nothing written
    _, _, store_path = trained
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        config = CampaignConfig(
            suite="holdout", instances=1, out=out, store_path=store_path, **overrides
        )
        try:
            report = cmd_compare(config)
        except ContractError:
            assert not os.path.exists(out)
            return
        assert report.n_failed == 0
        assert report.alpha_rows
        assert all(r["status"] == "ok" for r in read_rows(os.path.join(out, "alpha.csv")))
