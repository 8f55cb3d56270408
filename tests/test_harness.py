import csv
import dataclasses
import json
import os
import re
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
from tuneseer.features import FeatureVector, extract_features
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
from tuneseer.predictor import (
    RunKey,
    TrainingRecord,
    TrainingStore,
    recommend,
    recommendation_table,
)
from tuneseer.sampling import ControlParams, derive_seed, lhs_params, substream
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


@pytest.fixture(scope="module")
def compared(trained):
    """The held-out comparison of the trained store, run once: its outputs
    under ``<trained>/cmp``."""
    out, _, _ = trained
    compare_out = out / "cmp"
    cmd_compare(
        train_config(
            out,
            suite="holdout",
            out=str(compare_out),
            store_path=str(out / "store.jsonl"),
            methods=("predictive", "literature"),
        )
    )
    return compare_out


def test_compare_outputs_and_pairing(compared):
    compare_out = str(compared)
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
    grown = compared / "store_after_compare.jsonl"
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


def test_report_reads_back_the_rows_compare_wrote(trained, monkeypatch):
    out, _, _ = trained
    evaluate = ObjectiveInstance.evaluate_batch
    raised = []

    # one worker runs the items in order, so only the first run on tablet fails
    def first_tablet_run_fails(self, points):
        if not raised and self.spec.function_id == "tablet":
            raised.append(self.spec.function_id)
            raise FloatingPointError("tablet cannot be evaluated")
        return evaluate(self, points)

    monkeypatch.setattr(ObjectiveInstance, "evaluate_batch", first_tablet_run_fails)
    config = train_config(
        out,
        suite="holdout",
        out=str(out / "round-trip"),
        store_path=str(out / "store.jsonl"),
        methods=harness.METHOD_ORDER,
    )
    report = cmd_compare(config)
    assert report.n_failed == 1
    path = out / "round-trip" / "alpha.csv"
    rows = harness.read_alpha_csv(str(path))
    assert rows == report.alpha_rows
    harness._write_csv(out / "round-trip" / "again.csv", harness.ALPHA_COLUMNS, rows)
    assert (out / "round-trip" / "again.csv").read_bytes() == path.read_bytes()


def test_nan_objective_runs_are_failed_rows(trained, monkeypatch):
    out, _, _ = trained
    charged = {}

    def nan_objective(self, points):
        fid = self.spec.function_id
        charged[fid] = charged.get(fid, 0) + len(points)
        return np.full(len(points), np.nan)

    monkeypatch.setattr(ObjectiveInstance, "evaluate_batch", nan_objective)
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
    # an unscorable start ends each run after its first generation: 10 D
    assert charged == {r["function_id"]: 10 * 2 for r in rows}


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


def test_wilcoxon_rows_pair_only_keys_ok_for_both_methods(tmp_path):
    # keys in shuffled order, written to an alpha.csv as strings and read
    # back, so the key is parsed and pairing must sort it (dim 10 after dim 2)
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
            row = {
                "function_id": fid,
                "dim": dim,
                "instance_seed": inst,
                "run_seed": seed,
                "method": method,
                "status": "failed: boom",
            }
            if ok:
                # an ok row as compare writes it; shade adapts its own triple
                triple = {} if method == "shade" else dict(p1=0.9, p2=0.5, p3=20)
                row.update(triple, alpha=repr(alpha[method, k]), evals=900, g_star=3, status="ok")
            rows.append(row)

    def expected(a, b):
        shared = [k for k in range(len(keys)) if k not in failed[a] | failed[b]]
        shared.sort(key=lambda k: (keys[k][0], *map(int, keys[k][1:])))
        return wilcoxon(np.array([alpha[a, k] - alpha[b, k] for k in shared]))

    path = tmp_path / "alpha.csv"
    harness._write_csv(path, harness.ALPHA_COLUMNS, rows)
    read_back = harness.read_alpha_csv(str(path))
    out = {(r["method_a"], r["method_b"]): r for r in compute_wilcoxon_rows(read_back)}
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
                    beta = extract_features(instance, sigma, item_seed)
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


def _write_small_store(path):
    """40 hand-made records over D = 2 and 10, saved as a training store."""
    records = [
        TrainingRecord(
            params=ControlParams(p1=(i % 7) / 7, p2=0.1 + (i % 5) / 5, p3=10 + 11 * i),
            features=FeatureVector(
                2.0 if i % 2 else 10.0, 0.2 + (i * 37 % 11) / 10, (i * 13 % 9) / 4 - 1
            ),
            alpha=float(i * 29 % 17),
            key=RunKey("sphere", 2 if i % 2 else 10, 1, i),
            sigma=50,
            timestamp="2026-01-01T00:00:00+00:00",
        )
        for i in range(40)
    ]
    TrainingStore(records).save(path)


@pytest.mark.parametrize(
    "args,printed",
    [
        (
            ["--beta", "2,1.1,0.3"],
            '{"p1": 0.21428571428571427, "p2": 0.4, "p3": 219, "cluster": 1, '
            '"beta1": 2.0, "beta2": 1.1, "beta3": 0.3}',
        ),
        (
            ["--function", "rastrigin", "--dim", "2", "--sigma", "200", "--seed", "3"],
            '{"p1": 0.21428571428571427, "p2": 0.4, "p3": 219, "cluster": 1, '
            '"beta1": 2.0, "beta2": 1.415389939526374, "beta3": 0.1261047848500997}',
        ),
        (
            ["--function", "sphere", "--dim", "10", "--sigma", "100", "--seed", "1"],
            '{"p1": 0.5, "p2": 0.9, "p3": 164, "cluster": 2, '
            '"beta1": 10.0, "beta2": 1.275584902303781, "beta3": 0.3174355501862964}',
        ),
    ],
)
def test_cli_recommend_prints_pinned_json(tmp_path, capsys, args, printed):
    # each line was printed by the earlier recommend, which refitted on every
    # call; instance 0 is the identity, so the features are BLAS-independent
    store = tmp_path / "store.jsonl"
    _write_small_store(store)
    assert cli.main(["recommend", "--store", str(store), "--kappa", "3", *args]) == 0
    assert capsys.readouterr().out == printed + "\n"


def test_recommend_fits_the_store_before_sampling_features(tmp_path, capsys, monkeypatch):
    store = tmp_path / "empty.jsonl"
    store.write_text("")
    calls = []

    def spy(*args):
        calls.append(args)
        return extract_features(*args)

    monkeypatch.setattr(harness, "extract_features", spy)
    with pytest.raises(ContractError, match="cannot recommend from an empty training store"):
        cmd_recommend(str(store), 10, function_id="rastrigin", dim=20, sigma=1000)
    argv = ["recommend", "--store", str(store), "--function", "rastrigin", "--dim", "20"]
    assert cli.main([*argv, "--sigma", "1000"]) == 1
    message = f"error: cannot recommend from an empty training store {store}\n"
    assert capsys.readouterr().err == message
    assert calls == []


@pytest.mark.parametrize("command", ["train", "compare"])
def test_sigma_list_rejected_outside_features(trained, tmp_path, capsys, monkeypatch, command):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "pool_map", no_run)
    message = "sigmas: only features takes a list"
    # the same check meets a flag, a config file and a Python caller
    for source in ("flag", "config", "python"):
        work = tmp_path / source
        work.mkdir()
        # compare reads the trained store; train would write a fresh one
        store = trained[2] if command == "compare" else str(work / "store.jsonl")
        out = work / "out"
        written = []
        if source == "python":
            run = cmd_train if command == "train" else cmd_compare
            config = train_config(
                out, suite="holdout", store_path=store, methods=("literature",), sigmas=(50, 60)
            )
            with pytest.raises(ContractError, match=message):
                run(config)
        else:
            argv = compare_argv(store, out, "literature", 1600, sigma="50,60")
            argv[0] = command
            if source == "config":
                written = ["config.json"]
                (work / "config.json").write_text(json.dumps({"sigma": 50, "sigmas": [50, 60]}))
                del argv[argv.index("--sigma") : argv.index("--sigma") + 2]
                argv += ["--config", str(work / "config.json")]
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert os.listdir(work) == written


def test_features_keeps_its_sigma_list(trained, tmp_path):
    out = tmp_path / "out"
    argv = compare_argv(trained[2], out, "literature", 1600, sigma="20,50")
    argv[0] = "features"
    assert cli.main(argv) == 0
    assert {r["sigma"] for r in read_rows(out / "features.csv")} == {"20", "50"}


def test_cmd_report_rederives_wilcoxon(compared):
    cmp_dir = str(compared)
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
    ["sphere", "2", "101", str(seed), method, "0.9", "0.5", "20", repr(0.1 * seed + m)]
    + ["900", "3", "ok"]
    for seed in range(3)
    for m, method in enumerate(("predictive", "literature"))
]
# a cell past the last column; on line 1, a column past the last
_PAST_LAST = "past the last column"


@pytest.mark.parametrize(
    "line,column,value,message",
    [
        (2, "dim", "two", "dim must be an integer, got 'two'"),
        (3, "instance_seed", "1.5", "instance_seed must be an integer"),
        (7, "run_seed", "", "run_seed must be an integer, got ''"),
        (4, "alpha", "fast", "alpha must be a number, got 'fast'"),
        (4, "alpha", "nan", "alpha must be finite, got 'nan'"),
        (5, "alpha", "inf", "alpha must be finite, got 'inf'"),
        (6, "alpha", "-Infinity", "alpha must be finite, got '-Infinity'"),
        (5, "run_seed", None, "run_seed must be an integer, got None"),  # a short row
        (3, "method", "literatur", "unknown method 'literatur'"),
        (3, "status", "maybe", "unknown status 'maybe'"),
        (6, "status", "failed", "unknown status 'failed'"),
        (4, "p1", "x", "p1 must be a number, got 'x'"),
        (5, "evals", "abc", "evals must be an integer, got 'abc'"),
        (
            6,
            "run_seed",
            "0",  # line 2's test key and method again
            "repeated test key and method ('sphere', 2, 101, 0, 'predictive')",
        ),
        # only what compare writes: each cell as _fmt writes its value
        (2, "dim", "1_0", "dim must read '10', got '1_0'"),
        (3, "dim", " 10 ", "dim must read '10', got ' 10 '"),
        (4, "dim", "+2", "dim must read '2', got '+2'"),
        (5, "alpha", "0.10", "alpha must read '0.1', got '0.10'"),
        (6, "p3", "020", "p3 must read '20', got '020'"),
        (1, _PAST_LAST, "note", "columns must be ["),
        (3, _PAST_LAST, "note", "cells past the last column: ['note']"),
        # an ok row is scored, and its triple is one a run can use
        (2, "evals", "", "evals must be filled in an ok predictive row"),
        (3, "g_star", "", "g_star must be filled in an ok literature row"),
        (4, "p2", "", "p2 must be filled in an ok predictive row"),
        (5, "p3", "3", "p3 must be an integer >= 5, got 3"),
        (6, "p1", "1.5", "p1 must be in [0, 1], got 1.5"),
        (3, "method", "shade", "p1 must be empty in an ok shade row"),
        # a failed row is its key, method and status alone
        (4, "status", "failed: boom", "p1 must be empty in a failed predictive row"),
        # a key compare can run: a registry function, D >= 2, instance seed >= 1
        (3, "function_id", "", "unknown function id ''"),
        (5, "function_id", "nope", "unknown function id 'nope'"),
        (3, "dim", "0", "dimension must be >= 2, got 0"),
        (5, "instance_seed", "-4", "instance_seed must be >= 1, got -4"),
    ],
)
def test_report_names_line_of_malformed_alpha_csv(
    tmp_path, capsys, line, column, value, message
):
    lines = [list(harness.ALPHA_COLUMNS)] + [list(r) for r in _GOOD_ALPHA_ROWS]
    cells = lines[line - 1]
    if column == _PAST_LAST:
        cells.append(value)
    elif value is None:
        del cells[harness.ALPHA_COLUMNS.index(column) :]
    else:
        cells[harness.ALPHA_COLUMNS.index(column)] = value
    path = tmp_path / "alpha.csv"
    _write_alpha_csv(path, lines[0], lines[1:])
    assert cli.main(["report", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{line}: {message}")
    assert err.count("\n") == 1
    assert not (tmp_path / "wilcoxon.csv").exists()


def test_report_names_the_line_of_a_non_utf8_byte(tmp_path, capsys):
    path = tmp_path / "alpha.csv"
    _write_alpha_csv(path, harness.ALPHA_COLUMNS, _GOOD_ALPHA_ROWS)
    lines = path.read_bytes().split(b"\r\n")
    lines[2] = lines[2].replace(b"literature", b"liter\xffture")
    path.write_bytes(b"\r\n".join(lines))
    assert cli.main(["report", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: {path}:3: 'utf-8' codec can't decode byte 0xff in position "
        f"{lines[2].index(0xFF)}: invalid start byte\n"
    )
    assert not (tmp_path / "wilcoxon.csv").exists()


def test_recommend_names_the_store_line_of_a_non_utf8_byte(trained, tmp_path, capsys):
    _, _, store_path = trained
    lines = open(store_path, "rb").read().splitlines()
    bad = tmp_path / "store.jsonl"
    bad.write_bytes(b"\n".join([lines[0], b"\xff" + lines[1], *lines[2:]]) + b"\n")
    argv = ["recommend", "--store", str(bad), "--beta", "10,1.3,0.2"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: {bad}:2: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"
    )


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
    rows[0][5:] = ["", "", "", "", "", "", "failed: boom"]
    _write_alpha_csv(tmp_path / "alpha.csv", harness.ALPHA_COLUMNS, rows)
    (pair,) = cmd_report(str(tmp_path))
    assert pair["n"] == 2


def test_report_keeps_the_pair_of_a_method_whose_every_run_failed(tmp_path, capsys):
    rows = [list(r) for r in _GOOD_ALPHA_ROWS]
    for row in rows:
        if row[4] == "literature":
            row[5:] = ["", "", "", "", "", "", "failed: boom"]
    _write_alpha_csv(tmp_path / "alpha.csv", harness.ALPHA_COLUMNS, rows)
    (pair,) = cmd_report(str(tmp_path))
    assert pair == {"method_a": "predictive", "method_b": "literature", "n": 0, "W": None, "p": None}
    assert read_rows(tmp_path / "wilcoxon.csv") == [
        {"method_a": "predictive", "method_b": "literature", "n": "0", "W": "", "p": ""}
    ]
    assert "wilcoxon predictive vs literature: n=0 W=None p=None" in capsys.readouterr().out


def test_cli_exit_codes(compared, tmp_path):
    assert cli.main(["report", "--out", str(compared)]) == 0
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
        ("train", "budget", None),  # null is a value, not the default
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


@pytest.mark.parametrize("text", ["[]", "5", "null", '"sigma"'])
def test_cli_config_file_must_hold_an_object(tmp_path, capsys, text):
    config_path = tmp_path / "config.json"
    config_path.write_text(text)
    assert cli.main(["train", "--config", str(config_path), "--out", str(tmp_path)]) == 1
    expected = f"error: {config_path}: expected a JSON object, got {json.loads(text)!r}\n"
    assert capsys.readouterr().err == expected
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize(
    "data,reason",
    [
        (b'{"dims": [2,}', "Expecting value: line 1 column 13 (char 12)"),
        (b'{"dims": [2]}\xff', "'utf-8' codec can't decode byte 0xff in position 13"),
    ],
)
def test_cli_config_file_errors_name_the_file(tmp_path, capsys, data, reason):
    config_path = tmp_path / "bad.json"
    config_path.write_bytes(data)
    assert cli.main(["train", "--config", str(config_path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config_path}: {reason}") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["bad.json"]


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


# what `train|compare|features --help` listed before the flag table
CAMPAIGN_HELP_FLAGS = (
    "--config --suite --dims --instances --seeds --train-seeds --budget --sigma "
    "--kappa --n-param-sets --methods --out --store --workers --no-feature-scaling "
    "--retrain --campaign-seed --paper-instances"
).split()


@pytest.mark.parametrize("command", ["train", "compare", "features"])
def test_campaign_help_lists_every_flag(capsys, command):
    with pytest.raises(SystemExit) as done:
        cli.build_parser().parse_args([command, "--help"])
    assert done.value.code == 0
    listed = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.MULTILINE)
    assert listed == CAMPAIGN_HELP_FLAGS and len(listed) == 18


@pytest.mark.parametrize(
    "flags,expected",
    [
        (["--dims", "2,,10"], dict(dims=(2, 10))),
        (["--seeds", "30"], dict(seeds=tuple(range(30)))),
        (["--seeds", "0,"], dict(seeds=(0,))),
        (["--train-seeds", "3,1"], dict(train_seeds=(3, 1))),
        (["--sigma", "50"], dict(sigma=50, sigmas=None)),
        (["--sigma", "20,50"], dict(sigma=20, sigmas=(20, 50))),
        # a flag overrides its config key, a single --sigma the sigmas list too
        (["--config", "CONFIG", "--sigma", "30"], dict(sigma=30, sigmas=None)),
        (["--config", "CONFIG", "--budget", "900"], dict(budget=900, sigmas=(20, 50))),
        (["--methods", "shade,literature"], dict(methods=("shade", "literature"))),
        (["--budget", "900", "--store", "s.jsonl"], dict(budget=900, store_path="s.jsonl")),
        (["--no-feature-scaling"], dict(feature_scaling=False)),
        (["--paper-instances"], dict(paper_instances=True)),
    ],
)
def test_campaign_flags_set_config_keys(tmp_path, flags, expected):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"sigmas": [20, 50]}))
    flags = [str(config_path) if f == "CONFIG" else f for f in flags]
    args = cli.build_parser().parse_args(["features", *flags])
    assert cli._campaign_config(args) == dataclasses.replace(CampaignConfig(), **expected)


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
        row = rows[record.key]
        fitted = recommendation_table(
            memory,
            config.kappa,
            seed=config.campaign_seed,
            scale=config.feature_scaling,
        )
        params, _ = recommend(*fitted, record.features)
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


def test_train_counts_and_determinism(tmp_path):
    # the budget covers sigma plus the design's largest population (500)
    kw = dict(sigma=50, train_seeds=(0,), budget=550, n_param_sets=3, instances=1)
    first = TrainingStore.load(cmd_train(train_config(tmp_path / "a", **kw)))
    # 10 training functions x 1 dim x 1 instance x 3 param sets x 1 seed
    assert len(first) == 30
    again = TrainingStore.load(cmd_train(train_config(tmp_path / "b", **kw)))
    strip = lambda r: (r.params, r.features, r.alpha, r.key.function_id, r.key.dim)
    assert [strip(r) for r in first.records] == [strip(r) for r in again.records]


def test_train_records_features_drawn_from_the_train_seed(trained):
    # pins the label a training run's seed is derived from, and its order
    _, config, path = trained
    designs = {}
    for record in TrainingStore.load(path).records:
        key = record.key
        if key[:2] not in designs:
            rng = substream(config.campaign_seed, "param-design", *key[:2])
            designs[key[:2]] = lhs_params(config.n_param_sets, rng)
        param_idx = designs[key[:2]].index(record.params)
        seed = derive_seed(config.campaign_seed, "train", *key[:3], param_idx, key.run_seed)
        assert record.features == extract_features(key.instance(), config.sigma, seed)


def test_compare_records_features_drawn_from_the_compare_seed(trained, tmp_path):
    # pins the label a per-run predictive run's seed is derived from
    out, _, store_path = trained
    config = train_config(
        out, suite="holdout", out=str(tmp_path), store_path=store_path, methods=("predictive",)
    )
    cmd_compare(config)
    start = len(TrainingStore.load(store_path))
    new = TrainingStore.load(tmp_path / "store_after_compare.jsonl").records[start:]
    assert len(new) == 12
    for record in new:
        seed = derive_seed(config.campaign_seed, "compare", *record.key)
        assert record.features == extract_features(record.key.instance(), config.sigma, seed)


def test_train_validates_budget(tmp_path):
    with pytest.raises(ContractError):
        cmd_train(train_config(tmp_path, sigma=500, budget=500))


def _untimed_records(path):
    return [dataclasses.replace(r, timestamp="") for r in TrainingStore.load(path).records]


def test_train_store_does_not_depend_on_workers(tmp_path):
    kw = dict(instances=2, train_seeds=(0, 1))
    stores = [
        cmd_train(train_config(tmp_path / f"w{workers}", workers=workers, **kw))
        for workers in (1, 2)
    ]
    records = _untimed_records(stores[0])
    assert records == _untimed_records(stores[1])
    # for each function and D, for each instance, for each parameter set of
    # the (function, D) design, for each seed
    config = train_config(tmp_path, **kw)
    expected = []
    for spec in config.suite_specs():
        key = (spec.function_id, spec.dimension)
        design = lhs_params(config.n_param_sets, substream(0, "param-design", *key))
        for inst in (1, 2):
            for params in design:
                for seed in (0, 1):
                    expected.append((*key, inst, params, seed))
    order = [(*r.key[:3], r.params, r.key.run_seed) for r in records]
    assert order == expected


def _train_argv(out, store):
    return [
        "train", "--dims", "2", "--instances", "1", "--train-seeds", "0,",
        "--n-param-sets", "2", "--budget", "1600", "--sigma", "50",
        "--out", str(out), "--store", str(store),
    ]


def test_train_makes_the_store_directory_before_any_run(tmp_path, monkeypatch):
    store = tmp_path / "out" / "sub" / "store.jsonl"
    made = []
    real = harness.pool_map

    def spy(*args, **kwargs):
        made.append(store.parent.is_dir())
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "pool_map", spy)
    assert cli.main(_train_argv(tmp_path / "out", store)) == 0
    assert made == [True]
    assert len(TrainingStore.load(store)) == 20


def test_train_store_directory_that_cannot_be_made_fails_before_any_run(
    tmp_path, capsys, monkeypatch
):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "pool_map", no_run)
    blocked = tmp_path / "file"
    blocked.write_text("")
    store = blocked / "sub" / "store.jsonl"
    assert cli.main(_train_argv(tmp_path / "out", store)) == 2
    err = capsys.readouterr().err
    # the error names the directory, not a half-written store file
    assert err.startswith("i/o error: ") and err.endswith(f"'{blocked / 'sub'}'\n")
    assert blocked.read_text() == ""


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
        ("recommend", "--beta", "nan,1,2"),
        ("recommend", "--beta", "1,-inf,2"),
        ("compare", "--budget", "abc"),
        ("train", "--workers", "1.5"),
        ("features", "--kappa", "x"),
        ("compare", "--campaign-seed", ""),
        ("recommend", "--dim", "x"),
        ("recommend", "--kappa", "q"),
        ("recommend", "--sigma", "50,60"),
        # a value that is given is parsed, so an empty one is malformed
        ("compare", "--seeds", ""),
        ("compare", "--dims", ""),
        ("compare", "--sigma", ""),
        ("compare", "--methods", ""),
        ("train", "--out", ""),
        ("compare", "--store", ""),
        ("recommend", "--store", ""),
    ],
)
def test_cli_reports_malformed_flag_values(trained, tmp_path, capsys, command, flag, value):
    _, _, store_path = trained
    out = tmp_path / "out"
    rest = ["--store", store_path] if command == "recommend" else ["--out", str(out)]
    # argparse keeps the last value of a repeated flag
    assert cli.main([command, *rest, flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["compare", "--out", "OUT", "--bogus"], "unrecognized arguments: --bogus"),
        (["train", "--out", "OUT", "--budget"], "argument --budget: expected one argument"),
        (["recommend", "--kappa", "3"], "the following arguments are required: --store"),
    ],
)
def test_cli_usage_errors_are_config_errors(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert cli.main([str(out) if a == "OUT" else a for a in argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
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
        ("train", "--suite", "nope", "suite must be training|holdout, got 'nope'"),
        ("compare", "--retrain", "nope", "retrain must be per-run|per-batch, got 'nope'"),
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


@pytest.mark.parametrize(
    "command,key,value,message",
    [
        ("train", "out", "  ", "out must be a non-blank path, got '  '"),
        ("features", "out", "", "out must be a non-blank path, got ''"),
        ("train", "store_path", " ", "store_path must be a non-blank path, got ' '"),
        ("compare", "store_path", "", "store_path must be a non-blank path, got ''"),
        ("train", "n_param_sets", 0, "n_param_sets must be >= 1, got 0"),
    ],
)
def test_cli_config_file_blank_path_or_no_param_sets(
    tmp_path, capsys, monkeypatch, command, key, value, message
):
    # relative paths land in tmp_path, so a blank one would show up there
    monkeypatch.chdir(tmp_path)
    raw = dict(
        dims=[2], instances=1, seeds=[0], train_seeds=[0], budget=1600, sigma=50,
        kappa=3, n_param_sets=2, suite="holdout", methods=["literature"], out="out",
    )
    raw[key] = value
    (tmp_path / "config.json").write_text(json.dumps(raw))
    assert cli.main([command, "--config", "config.json"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize(
    "args",
    [
        ["--beta", "2,0.5,0.1", "--function", "sphere", "--dim", "2"],
        ["--beta", "2,0.5,0.1", "--function", "sphere"],
        ["--beta", "2,0.5,0.1", "--dim", "2"],
        ["--function", "sphere"],
        ["--dim", "2"],
        [],
    ],
)
def test_cli_recommend_takes_beta_or_function_not_both(tmp_path, capsys, args):
    # the store does not exist: loading it first would be an i/o error, exit 2
    store = tmp_path / "missing.jsonl"
    assert cli.main(["recommend", "--store", str(store), *args]) == 1
    message = "error: recommend needs --beta or --function/--dim, not both\n"
    assert capsys.readouterr().err == message
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "args",
    [
        ["--instance", "7"],
        ["--sigma", "5"],
        ["--seed", "9"],
        ["--sigma", "0"],
        ["--instance", "7", "--sigma", "5", "--seed", "9"],
    ],
)
def test_cli_recommend_beta_rejects_the_sampling_flags(tmp_path, capsys, args):
    # the store does not exist: loading it first would be an i/o error, exit 2
    store = tmp_path / "missing.jsonl"
    argv = ["recommend", "--store", str(store), "--beta", "10,1.3,0.2", *args]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    given = ", ".join(a for a in args if a.startswith("--"))
    assert err == f"error: recommend --beta samples nothing, so it takes no {given}\n"
    assert os.listdir(tmp_path) == []


def test_recommend_sampling_defaults(tmp_path):
    store = tmp_path / "store.jsonl"
    _write_small_store(store)
    sample = dict(function_id="sphere", dim=10)
    implicit = cmd_recommend(str(store), 3, **sample)
    explicit = cmd_recommend(
        str(store), 3, **sample, instance_seed=0, sigma=CampaignConfig.sigma, seed=0
    )
    assert implicit == explicit


@pytest.mark.parametrize("kappa", ["0", "-3"])
def test_cli_recommend_names_the_kappa_key(tmp_path, capsys, kappa):
    # the store does not exist: loading it first would be an i/o error, exit 2
    store = tmp_path / "missing.jsonl"
    argv = ["recommend", "--store", str(store), "--kappa", kappa, "--beta", "10,1.3,0.2"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: kappa must be >= 1, got {kappa}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("retrain", ["per-run", "per-batch"])
def test_fixed_method_rows_do_not_depend_on_the_other_methods(trained, tmp_path, retrain):
    # a run's stream comes from the campaign seed, its test key and its
    # method alone: literature and shade write the same rows and curves
    # whether or not predictive and best-of-training run beside them
    _, _, store_path = trained
    alone = ("literature", "shade")

    def fixed_rows(methods, workers):
        out = tmp_path / f"{len(methods)}-{workers}"
        config = train_config(
            out, suite="holdout", store_path=store_path, methods=methods,
            retrain=retrain, workers=workers,
        )
        cmd_compare(config)
        rows = [r for r in read_rows(out / "alpha.csv") if r["method"] in alone]
        curves = {
            name: [r for r in read_rows(out / "curves" / name) if r["method"] in alone]
            for name in sorted(os.listdir(out / "curves"))
        }
        return rows, curves

    expected = fixed_rows(alone, 1)
    assert len(expected[0]) == 24 and all(r["status"] == "ok" for r in expected[0])
    assert all(expected[1].values())
    for workers in (1, 2):
        if workers > 1:
            assert fixed_rows(alone, workers) == expected
        assert fixed_rows(harness.METHOD_ORDER, workers) == expected
