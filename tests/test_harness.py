import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuneseer import cli, harness
from tuneseer.bench import ObjectiveInstance
from tuneseer.errors import ContractError
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
