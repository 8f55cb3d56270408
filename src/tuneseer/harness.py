"""Campaign orchestration: training runs, method comparisons, feature
tables, and report emission.

Outputs under the campaign directory:

    store.jsonl                    training records (one JSON object per line)
    store_after_compare.jsonl      store grown by the comparison's predictive runs
    suite.json                     function/domain listing of the campaign suite
    alpha.csv                      one score row per (test key, method)
    wilcoxon.csv                   one row per compared method pair
    features.csv                   feature table with cluster assignments
    curves/<function>_<dim>_<seed>.csv   improvement-only convergence rows

Every run is seeded from the campaign seed and its test key, so repeated
campaigns with the same configuration reproduce alpha.csv byte-identically.
Failed runs are kept as explicit rows, never dropped silently.
"""

from __future__ import annotations

import csv
import json
import numbers
import os
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import cluster, de, predictor, shade
from .bench import (
    ObjectiveSpec,
    holdout_suite,
    make_instance,
    suite_listing,
    training_suite,
)
from .cluster import ClusterModel
from .errors import ContractError
from .features import FeatureConfig, FeatureVector, extract_features
from .metric import compute_alpha
from .predictor import (
    TrainingStore,
    build_training_set,
    pool_map,
    run_predictive,
)
from .sampling import DEFAULT_PARAM_RANGES, ControlParams, derive_seed
from .stats import wilcoxon

METHOD_LITERATURE = "literature"
METHOD_BEST = "best-of-training"
METHOD_SHADE = "shade"
METHOD_PREDICTIVE = "predictive"
METHOD_ORDER = (METHOD_PREDICTIVE, METHOD_BEST, METHOD_SHADE, METHOD_LITERATURE)

# Largest population of the training design, and so of any predictive mean.
DESIGN_MAX_POP = int(DEFAULT_PARAM_RANGES[2][1])

# Instance seeds used by comparisons are offset from the training ones unless
# the campaign explicitly mirrors the same-suite protocol.
COMPARE_INSTANCE_OFFSET = 100

ALPHA_COLUMNS = (
    "function_id",
    "dim",
    "instance_seed",
    "run_seed",
    "method",
    "p1",
    "p2",
    "p3",
    "alpha",
    "evals",
    "g_star",
    "status",
)

WILCOXON_COLUMNS = ("method_a", "method_b", "n", "W", "p")

CURVE_COLUMNS = ("method", "instance_seed", "gen", "evals", "best")

FEATURE_COLUMNS = (
    "sigma",
    "function_id",
    "dim",
    "instance_seed",
    "seed",
    "beta1",
    "beta2",
    "beta3",
    "cluster",
)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# What each CampaignConfig key must hold; sigmas and store_path may be None.
_CONFIG_TYPES = {
    "an int": (_is_int, "instances budget sigma kappa n_param_sets workers campaign_seed"),
    "a tuple of ints": (
        lambda v: isinstance(v, (tuple, list)) and all(map(_is_int, v)),
        "dims seeds train_seeds sigmas",
    ),
    "a tuple of method names": (lambda v: isinstance(v, (tuple, list)), "methods"),
    "a bool": (lambda v: isinstance(v, bool), "feature_scaling paper_instances"),
    "a str": (lambda v: isinstance(v, (str, os.PathLike)), "suite retrain out store_path"),
}


def default_out_dir() -> str:
    return os.environ.get("TUNESEER_DATA", "runs")


@dataclass(frozen=True)
class CampaignConfig:
    """Dataclass mirror of the JSON config file; CLI flags override keys."""

    suite: str = "training"
    dims: tuple = (2, 10, 20)
    instances: int = 3
    seeds: tuple = tuple(range(30))
    train_seeds: tuple = tuple(range(5))
    budget: int = 10_000
    sigma: int = 1000
    sigmas: Optional[tuple] = None  # features command only
    kappa: int = 10
    n_param_sets: int = 30
    methods: tuple = METHOD_ORDER
    out: str = field(default_factory=default_out_dir)
    store_path: Optional[str] = None
    workers: int = 1
    feature_scaling: bool = True
    retrain: str = "per-run"
    campaign_seed: int = 0
    paper_instances: bool = False

    def validate(self) -> "CampaignConfig":
        # a config file can hold any JSON value: name the key of a wrongly
        # typed one before a check below trips over it
        for what, (ok, keys) in _CONFIG_TYPES.items():
            for key in keys.split():
                value = getattr(self, key)
                optional = value is None and key in ("sigmas", "store_path")
                if not (ok(value) or optional):
                    raise ContractError(f"{key} must be {what}, got {value!r}")
        if self.suite not in ("training", "holdout"):
            raise ContractError(f"suite must be training|holdout, got {self.suite!r}")
        if not self.methods:
            raise ContractError("methods must not be empty")
        for m in self.methods:
            if m not in METHOD_ORDER:
                raise ContractError(f"unknown method {m!r}")
        # a repeat would run a key twice, or count its runs twice
        for key in ("dims", "seeds", "train_seeds", "sigmas", "methods"):
            values = getattr(self, key) or ()
            if len(set(values)) != len(values):
                raise ContractError(f"{key} must hold distinct values, got {values!r}")
        if self.retrain not in ("per-run", "per-batch"):
            raise ContractError(f"retrain must be per-run|per-batch, got {self.retrain!r}")
        if not self.dims or min(self.dims) < 2:
            raise ContractError(f"every dimension must be >= 2, got dims={self.dims}")
        if self.instances < 1:
            raise ContractError("instances must be >= 1")
        if self.kappa < 1:
            raise ContractError(f"kappa must be >= 1, got {self.kappa}")
        if self.workers < 1:
            raise ContractError(f"workers must be >= 1, got {self.workers}")
        if self.campaign_seed < 0:
            raise ContractError(f"campaign_seed must be >= 0, got {self.campaign_seed}")
        for sigma in (self.sigma, *(self.sigmas or ())):
            if sigma < 2:
                raise ContractError(f"sigma must be >= 2, got {sigma}")
        return self

    @classmethod
    def from_file(cls, path: str) -> "CampaignConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        return cls().merged(raw)

    def merged(self, overrides: dict) -> "CampaignConfig":
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise ContractError(f"unknown config keys: {sorted(unknown)}")
        clean = {}
        for key, value in overrides.items():
            if value is None:
                continue
            if isinstance(value, list):
                value = tuple(value)
            clean[key] = value
        return replace(self, **clean)

    def suite_specs(self) -> list[ObjectiveSpec]:
        maker = training_suite if self.suite == "training" else holdout_suite
        return maker(self.dims)

    def train_instance_seeds(self) -> tuple:
        return tuple(range(1, self.instances + 1))

    def compare_instance_seeds(self) -> tuple:
        if self.paper_instances:
            return self.train_instance_seeds()
        first = COMPARE_INSTANCE_OFFSET + 1
        return tuple(range(first, first + self.instances))

    def resolved_store_path(self) -> str:
        return self.store_path or os.path.join(self.out, "store.jsonl")


def _literature_params(dim: int) -> ControlParams:
    """The rule-of-thumb triple (0.9, 0.5, 10 D)."""
    return ControlParams(0.9, 0.5, 10 * dim)


def _require_budget(config: CampaignConfig, methods, store=None) -> None:
    """Reject, before any run, a budget below one generation of the largest
    population a requested method can use; "training" names the training
    design.  Runs that spend sigma evaluations on features need it on top."""
    for method in methods:
        if method in ("training", METHOD_PREDICTIVE):
            floor = config.sigma + DESIGN_MAX_POP
            why = f"sigma {config.sigma} + population up to {DESIGN_MAX_POP}"
        elif method == METHOD_LITERATURE:
            floor = _literature_params(max(config.dims)).p3
            why = f"population 10 D at D = {max(config.dims)}"
        elif method == METHOD_SHADE:
            floor = shade.POP_SIZE
            why = "the adaptive baseline's population"
        else:
            floor = store.best_record().params.p3
            why = "the best training record's population"
        if config.budget < floor:
            raise ContractError(
                f"budget {config.budget} is below one {method} generation: "
                f"{floor} ({why})"
            )


def _require_seeds(seeds, name: str) -> None:
    """Reject an empty seed list before any run or file write."""
    if not seeds:
        raise ContractError(f"{name} must name at least one seed")


def _test_keys(config: CampaignConfig, specs: list[ObjectiveSpec]) -> list:
    """Every (spec, instance seed, seed) the comparison and feature commands
    run, in output order."""
    return [
        (spec, inst, seed)
        for spec in specs
        for inst in config.compare_instance_seeds()
        for seed in config.seeds
    ]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, columns, rows) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])


def _write_suite_json(out_dir: str, specs: list[ObjectiveSpec]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "suite.json"), "w", encoding="utf-8") as fh:
        json.dump(suite_listing(specs), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(config: CampaignConfig) -> str:
    """Run the off-line training campaign and persist the store."""
    config.validate()
    _require_seeds(config.train_seeds, "train_seeds")
    _require_budget(config, ("training",))
    specs = config.suite_specs()
    store = build_training_set(
        specs,
        sigma=config.sigma,
        seeds=config.train_seeds,
        budget=config.budget,
        n_param_sets=config.n_param_sets,
        instance_seeds=config.train_instance_seeds(),
        campaign_seed=config.campaign_seed,
        workers=config.workers,
    )
    os.makedirs(config.out, exist_ok=True)
    path = config.resolved_store_path()
    store.save(path)
    _write_suite_json(config.out, specs)
    best = store.best_record()
    print(
        f"trained {len(store)} records -> {path}\n"
        f"best alpha {best.alpha!r} at p=({best.params.p1:.3f}, "
        f"{best.params.p2:.3f}, {best.params.p3}) "
        f"on {best.function_id} D={best.dim}"
    )
    return path


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CompareItem:
    method: str
    spec: ObjectiveSpec
    instance_seed: int
    run_seed: int
    budget: int
    sigma: int
    item_seed: int
    params: Optional[ControlParams] = None  # fixed-parameter methods
    model: Optional[ClusterModel] = None  # predictive: the frozen model
    table: Optional[dict] = None  # and its recommendation table


def _improvement_rows(trace: de.RunTrace) -> tuple:
    rows = []
    best = None
    for gen, evals, value in trace.generations:
        if best is None or value < best:
            best = value
            rows.append((gen, evals, value))
    return tuple(rows)


def _run_compare_item(item: _CompareItem) -> tuple:
    """One run as ``(row, record, curve)``: its alpha.csv row, its store
    record (predictive runs only) and its improvement-only curve.  A failed
    run keeps its row, with every field but the test key, method and status
    left empty."""
    row = dict.fromkeys(ALPHA_COLUMNS)
    row.update(
        function_id=item.spec.function_id,
        dim=item.spec.dimension,
        instance_seed=item.instance_seed,
        run_seed=item.run_seed,
        method=item.method,
    )
    try:
        instance = make_instance(item.spec, item.instance_seed)
        params, record = item.params, None
        if item.method == METHOD_PREDICTIVE:
            trace, score, record = run_predictive(
                instance, item.model, item.table, item.sigma, item.budget, item.item_seed
            )
            # the store keys records by the test key's seed, as training does
            record = replace(record, run_seed=item.run_seed)
            params = record.params
        else:
            if item.method == METHOD_SHADE:
                trace = shade.optimize_shade(instance, item.budget, item.item_seed)
            else:
                trace = de.optimize(instance, params, item.budget, item.item_seed)
            score = compute_alpha(trace)
        curve = _improvement_rows(trace)
    except Exception as exc:  # failures become explicit report rows
        row["status"] = f"failed: {exc}"
        return row, None, ()
    if params is not None:
        row.update(p1=params.p1, p2=params.p2, p3=params.p3)
    row.update(
        alpha=score.alpha, evals=trace.evals_used, g_star=score.g_star, status="ok"
    )
    return row, record, curve


def _row_order(row: dict) -> tuple:
    return (
        row["function_id"],
        row["dim"],
        row["instance_seed"],
        row["run_seed"],
        METHOD_ORDER.index(row["method"]),
    )


@dataclass
class ComparisonReport:
    alpha_rows: list
    wilcoxon_rows: list
    n_failed: int = 0

    def wilcoxon_for(self, method_a: str, method_b: str):
        for row in self.wilcoxon_rows:
            if row["method_a"] == method_a and row["method_b"] == method_b:
                return row
        raise KeyError((method_a, method_b))


def compute_wilcoxon_rows(alpha_rows: list) -> list:
    """Pairwise signed-rank tests over rows sharing identical test keys."""
    by_method: dict[str, dict] = {}
    for row in alpha_rows:
        if row["status"] != "ok":
            continue
        key = (
            row["function_id"],
            int(row["dim"]),
            int(row["instance_seed"]),
            int(row["run_seed"]),
        )
        by_method.setdefault(row["method"], {})[key] = float(row["alpha"])
    present = [m for m in METHOD_ORDER if m in by_method]
    out = []
    for i, method_a in enumerate(present):
        for method_b in present[i + 1 :]:
            a, b = by_method[method_a], by_method[method_b]
            keys = sorted(set(a) & set(b))
            row = dict(zip(WILCOXON_COLUMNS, (method_a, method_b, len(keys), None, None)))
            if keys:
                result = wilcoxon(np.array([a[k] - b[k] for k in keys]))
                row.update(W=result.w, p=result.p)
            out.append(row)
    return out


def _emit_wilcoxon(out_dir: str, wilcoxon_rows: list) -> None:
    """Write wilcoxon.csv and print one line per method pair."""
    _write_csv(os.path.join(out_dir, "wilcoxon.csv"), WILCOXON_COLUMNS, wilcoxon_rows)
    for row in wilcoxon_rows:
        print(
            f"wilcoxon {row['method_a']} vs {row['method_b']}: "
            f"n={row['n']} W={row['W']!r} p={row['p']!r}"
        )


def _write_curves(out_dir: str, results: list) -> None:
    """One file per (function, dim, seed); ``results`` come in row order."""
    groups: dict[tuple, list] = {}
    for row, _, curve in results:
        if curve:
            key = (row["function_id"], row["dim"], row["run_seed"])
            groups.setdefault(key, []).append((row, curve))
    curve_dir = os.path.join(out_dir, "curves")
    os.makedirs(curve_dir, exist_ok=True)
    for (fid, dim, seed), members in sorted(groups.items()):
        path = os.path.join(curve_dir, f"{fid}_{dim}_{seed}.csv")
        # method by method; the stable sort keeps each method's instances
        # in row order
        members.sort(key=lambda m: METHOD_ORDER.index(m[0]["method"]))
        rows = [
            dict(zip(CURVE_COLUMNS, (row["method"], row["instance_seed"], *point)))
            for row, curve in members
            for point in curve
        ]
        _write_csv(path, CURVE_COLUMNS, rows)


def cmd_compare(config: CampaignConfig) -> ComparisonReport:
    """Run every requested method on every test key with matched seeds and
    emit the score table, signed-rank table, and convergence curves.

    Predictive runs use a frozen (model, table) pair in batches: all keys in
    one batch (``retrain="per-batch"``) or one key per batch (``"per-run"``).
    Each batch's records are appended to the store; per-run mode refits the
    pair after every batch that appended one.  The fixed-method runs share
    the first batch, so they share its process pool too.
    """
    config.validate()
    _require_seeds(config.seeds, "seeds")
    predictive = METHOD_PREDICTIVE in config.methods
    specs = config.suite_specs()
    store = None
    if predictive or METHOD_BEST in config.methods:
        path = config.resolved_store_path()
        if not os.path.exists(path):
            raise ContractError(
                f"methods {config.methods} need a training store; {path} not found"
            )
        store = TrainingStore.load(path)
    _require_budget(config, config.methods, store)

    keys = _test_keys(config, specs)

    def make_item(method, spec, inst, seed, **kw) -> _CompareItem:
        return _CompareItem(
            method=method,
            spec=spec,
            instance_seed=inst,
            run_seed=seed,
            budget=config.budget,
            sigma=config.sigma,
            item_seed=derive_seed(
                config.campaign_seed,
                "compare",
                spec.function_id,
                spec.dimension,
                inst,
                seed,
            ),
            **kw,
        )

    def refit():
        return predictor.recommendation_table(
            store, config.kappa, seed=config.campaign_seed, scale=config.feature_scaling
        )

    items: list[_CompareItem] = []
    for method in config.methods:
        if method == METHOD_PREDICTIVE:
            continue
        for spec, inst, seed in keys:
            params = None
            if method == METHOD_LITERATURE:
                params = _literature_params(spec.dimension)
            elif method == METHOD_BEST:
                params = store.best_record().params
            items.append(make_item(method, spec, inst, seed, params=params))

    batches = [[]]
    model = table = None
    if predictive:
        model, table = refit()
        batches = [keys] if config.retrain == "per-batch" else [[k] for k in keys]
    results = []
    for batch in batches:
        items += [
            make_item(METHOD_PREDICTIVE, *key, model=model, table=table) for key in batch
        ]
        done = pool_map(_run_compare_item, items, config.workers, chunksize=4)
        items = []
        results.extend(done)
        records = [record for _, record, _ in done if record is not None]
        if records:
            store.append(records)
            if config.retrain == "per-run":
                model, table = refit()

    results.sort(key=lambda res: _row_order(res[0]))
    alpha_rows = [row for row, _, _ in results]
    wilcoxon_rows = compute_wilcoxon_rows(alpha_rows)

    _write_suite_json(config.out, specs)
    _write_csv(os.path.join(config.out, "alpha.csv"), ALPHA_COLUMNS, alpha_rows)
    _write_curves(config.out, results)
    if any(record is not None for _, record, _ in results):
        store.save(os.path.join(config.out, "store_after_compare.jsonl"))
    _emit_wilcoxon(config.out, wilcoxon_rows)

    n_failed = sum(1 for row in alpha_rows if row["status"] != "ok")
    if n_failed:
        print(f"WARNING: {n_failed} runs failed; see status column in alpha.csv")
    return ComparisonReport(
        alpha_rows=alpha_rows,
        wilcoxon_rows=wilcoxon_rows,
        n_failed=n_failed,
    )


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------


def cmd_features(config: CampaignConfig) -> str:
    """Emit the feature table with cluster assignments (the data behind the
    feature-space scatter)."""
    config.validate()
    _require_seeds(config.seeds, "seeds")
    sigmas = config.sigmas or (config.sigma,)
    keys = _test_keys(config, config.suite_specs())
    rows = []
    for sigma in sigmas:
        group = []
        for spec, inst, seed in keys:
            item_seed = derive_seed(
                config.campaign_seed,
                "features-cmd",
                spec.function_id,
                spec.dimension,
                inst,
                seed,
                sigma,
            )
            beta = extract_features(
                make_instance(spec, inst), FeatureConfig(sigma=sigma, seed=item_seed)
            )
            group.append((sigma, spec.function_id, spec.dimension, inst, seed, beta))
        points = np.array([beta.as_array() for *_, beta in group])
        model = cluster.fit(
            points, config.kappa, seed=config.campaign_seed, scale=config.feature_scaling
        )
        for (*head, beta), label in zip(group, model.classify_all(points)):
            values = (*head, beta.beta1, beta.beta2, beta.beta3, int(label))
            rows.append(dict(zip(FEATURE_COLUMNS, values)))
    path = os.path.join(config.out, "features.csv")
    _write_csv(path, FEATURE_COLUMNS, rows)
    print(f"wrote {len(rows)} feature rows -> {path}")
    return path


# ---------------------------------------------------------------------------
# recommend / report
# ---------------------------------------------------------------------------


def cmd_recommend(
    store_path: str,
    kappa: int,
    beta: Optional[tuple] = None,
    function_id: Optional[str] = None,
    dim: Optional[int] = None,
    instance_seed: int = 0,
    sigma: int = 1000,
    seed: int = 0,
    scale: bool = True,
) -> dict:
    """One-shot recommendation from a stored training set.

    Give either an explicit feature triple or a (function, dim, instance) to
    sample features from.
    """
    store = TrainingStore.load(store_path)
    if beta is not None:
        beta_vec = FeatureVector(*[float(b) for b in beta])
    else:
        if function_id is None or dim is None:
            raise ContractError("recommend needs either --beta or --function/--dim")
        instance = make_instance(ObjectiveSpec(function_id, dim), instance_seed)
        beta_vec = extract_features(instance, FeatureConfig(sigma=sigma, seed=seed))
    params, cluster_idx = predictor.recommend(store, kappa, beta_vec, scale=scale)
    result = {
        "p1": params.p1,
        "p2": params.p2,
        "p3": params.p3,
        "cluster": cluster_idx,
        "beta1": beta_vec.beta1,
        "beta2": beta_vec.beta2,
        "beta3": beta_vec.beta3,
    }
    print(json.dumps(result))
    return result


def read_alpha_csv(path: str) -> list:
    """The rows of an alpha.csv as string dicts.  A missing column, a
    non-integer dim or seed, a non-numeric alpha on an ok row, an unknown
    method, or a second row for the same test key and method raises
    ``ContractError`` naming the file and its 1-based line."""
    rows = []
    seen = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in ALPHA_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ContractError(f"{path}:1: missing columns {missing}")
        for raw in reader:
            where = f"{path}:{reader.line_num}"
            numeric = {"dim": int, "instance_seed": int, "run_seed": int}
            if raw["status"] == "ok":
                numeric["alpha"] = float
            for column, kind in numeric.items():
                try:
                    kind(raw[column])
                except (ValueError, TypeError) as exc:
                    what = "an integer" if kind is int else "a number"
                    raise ContractError(
                        f"{where}: {column} must be {what}, got {raw[column]!r}"
                    ) from exc
            if raw["method"] not in METHOD_ORDER:
                raise ContractError(f"{where}: unknown method {raw['method']!r}")
            key = (
                raw["function_id"],
                *(int(raw[c]) for c in ("dim", "instance_seed", "run_seed")),
                raw["method"],
            )
            if key in seen:
                raise ContractError(f"{where}: repeated test key and method {key}")
            seen.add(key)
            rows.append(raw)
    return rows


def cmd_report(out_dir: str) -> list:
    """Re-derive the method comparison table from a stored alpha.csv."""
    rows = read_alpha_csv(os.path.join(out_dir, "alpha.csv"))
    wilcoxon_rows = compute_wilcoxon_rows(rows)
    by_method: dict[str, list] = {}
    for row in rows:
        if row["status"] == "ok":
            by_method.setdefault(row["method"], []).append(float(row["alpha"]))
    for method in METHOD_ORDER:
        if method in by_method:
            vals = by_method[method]
            print(
                f"{method}: n={len(vals)} mean_alpha={np.mean(vals):.6g} "
                f"median_alpha={np.median(vals):.6g}"
            )
    _emit_wilcoxon(out_dir, wilcoxon_rows)
    return wilcoxon_rows
