"""Campaign orchestration: training runs, method comparisons, feature
tables, and report emission.  Every command's runs are listed and seeded
here; ``train`` and ``compare`` send theirs through one process pool,
``pool_map``, one run per task and no more workers than tasks, and
``features`` extracts its features through ``pool_map``.

Outputs under the campaign directory:

    store.jsonl                    training records (one JSON object per line)
    store_after_compare.jsonl      store grown by the comparison's predictive runs
    suite.json                     function/domain listing of the campaign suite
    alpha.csv                      one score row per (test key, method)
    wilcoxon.csv                   one row per compared method pair
    features.csv                   feature table with cluster assignments
    curves/<function>_<dim>_<seed>.csv   improvement-only convergence rows

A run is made from its one key, ``predictor.RunKey``, which its store
record keeps and its alpha.csv row starts with.  Every run is seeded from the
campaign seed and its key, so repeated campaigns reproduce alpha.csv
byte-identically.  Failed runs are kept as explicit rows, and ``report``
reads back only rows ``compare`` can write, as the typed rows it wrote.
"""

from __future__ import annotations

import concurrent.futures
import csv
import itertools
import json
import numbers
import os
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Optional, get_type_hints

import numpy as np

from . import cluster, de, predictor, shade
from .bench import SUITES, ObjectiveSpec, make_instance, suite, suite_listing
from .errors import ContractError
from .features import FeatureVector, extract_features
from .metric import compute_alpha
from .predictor import RunKey, TrainingRecord, TrainingStore, run_predictive, utf8_lines
from .sampling import DEFAULT_PARAM_RANGES, ControlParams, derive_seed, lhs_params, substream
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


def _key(row: dict) -> RunKey:
    return RunKey(*(row[name] for name in RunKey._fields))


# alpha.csv's columns and the type each cell is read back as
ALPHA_TYPES = {
    **get_type_hints(RunKey),
    "method": str,
    **get_type_hints(ControlParams),
    "alpha": float,
    "evals": int,
    "g_star": int,
    "status": str,
}
ALPHA_COLUMNS = tuple(ALPHA_TYPES)

WILCOXON_COLUMNS = ("method_a", "method_b", "n", "W", "p")

CURVE_COLUMNS = ("method", "instance_seed", "gen", "evals", "best")

# sigma, the test key with its run seed named "seed", the features, the cluster
FEATURE_COLUMNS = (
    "sigma", *RunKey._fields[:3], "seed", *get_type_hints(FeatureVector), "cluster"
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
    "a non-empty tuple from " + "|".join(METHOD_ORDER): (
        lambda v: isinstance(v, (tuple, list)) and v and all(m in METHOD_ORDER for m in v),
        "methods",
    ),
    "a bool": (lambda v: isinstance(v, bool), "feature_scaling paper_instances"),
    # a JSON object is unhashable: test it against a tuple of the names, not the dict
    "|".join(SUITES): (lambda v: v in tuple(SUITES), "suite"),
    "per-run|per-batch": (lambda v: v in ("per-run", "per-batch"), "retrain"),
    "a non-blank path": (
        lambda v: isinstance(v, (str, os.PathLike)) and os.fspath(v).strip(),
        "out store_path",
    ),
}


def default_out_dir() -> str:
    return os.environ.get("TUNESEER_DATA", "runs")


def _require_at_least(key: str, value: int, floor: int) -> None:
    if value < floor:
        raise ContractError(f"{key} must be >= {floor}, got {value}")


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
    sigmas: Optional[tuple] = None  # features only; train and compare reject it
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
        # a repeat would run a key twice, or count its runs twice
        for key in ("dims", "seeds", "train_seeds", "sigmas", "methods"):
            values = getattr(self, key) or ()
            if len(set(values)) != len(values):
                raise ContractError(f"{key} must hold distinct values, got {values!r}")
        if not self.dims or min(self.dims) < 2:
            raise ContractError(f"every dimension must be >= 2, got dims={self.dims}")
        floors = dict(instances=1, kappa=1, n_param_sets=1, workers=1, campaign_seed=0)
        for key, floor in floors.items():
            _require_at_least(key, getattr(self, key), floor)
        for sigma in (self.sigma, *(self.sigmas or ())):
            _require_at_least("sigma", sigma, 2)
        return self

    @classmethod
    def from_file(cls, path: str) -> "CampaignConfig":
        """The defaults merged with a JSON object file, each JSON list read as
        a tuple; a file that is not UTF-8 JSON, or a key that is not a
        field, raises ``ContractError``."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, deep nesting
            raise ContractError(f"{path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ContractError(f"{path}: expected a JSON object, got {raw!r}")
        unknown = raw.keys() - {f.name for f in fields(cls)}
        if unknown:
            raise ContractError(f"{path}: unknown config keys: {sorted(unknown)}")
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})

    def train_instance_seeds(self) -> tuple:
        return tuple(range(1, self.instances + 1))

    def compare_instance_seeds(self) -> tuple:
        if self.paper_instances:
            return self.train_instance_seeds()
        if self.instances > COMPARE_INSTANCE_OFFSET:
            raise ContractError(
                f"instances must be <= {COMPARE_INSTANCE_OFFSET} unless paper_instances "
                f"is set, or held-out instance seeds repeat training ones; got {self.instances}"
            )
        first = COMPARE_INSTANCE_OFFSET + 1
        return tuple(range(first, first + self.instances))

    def resolved_store_path(self) -> str:
        return self.store_path or os.path.join(self.out, "store.jsonl")


def _fixed_params(method: str, dim: int, store) -> Optional[ControlParams]:
    """The triple a fixed-parameter method runs with at dimension ``dim``:
    the rule of thumb (0.9, 0.5, 10 D) or the best training record's.  SHADE
    adapts its own, so it gets None."""
    if method == METHOD_LITERATURE:
        return ControlParams(0.9, 0.5, 10 * dim)
    if method == METHOD_BEST:
        return store.best_record().params
    return None


def _require_budget(config: CampaignConfig, methods, store=None) -> None:
    """Reject, before any run, a budget below one generation of the largest
    population a requested method can use; "training" names the training
    design.  Runs that spend sigma evaluations on features need it on top."""
    dim = max(config.dims)
    for method in methods:
        if method in ("training", METHOD_PREDICTIVE):
            floor = config.sigma + DESIGN_MAX_POP
            why = f"sigma {config.sigma} + population up to {DESIGN_MAX_POP}"
        else:
            params = _fixed_params(method, dim, store)
            floor = shade.POP_SIZE if params is None else params.p3
            why = f"the {method} population at D = {dim}"
        if config.budget < floor:
            raise ContractError(
                f"budget {config.budget} is below one {method} generation: "
                f"{floor} ({why})"
            )


def _require_one_sigma(config: CampaignConfig) -> None:
    """Reject, before any run, a sigma list given to train or compare."""
    if config.sigmas is not None:
        raise ContractError(f"sigmas: only features takes a list, got {config.sigmas}")


def _require_seeds(seeds, name: str) -> None:
    """Reject an empty seed list before any run or file write."""
    if not seeds:
        raise ContractError(f"{name} must name at least one seed")


def _test_keys(config: CampaignConfig, specs: list[ObjectiveSpec]) -> list:
    """Every test key the comparison and feature commands run, in output
    order."""
    return [
        RunKey(spec.function_id, spec.dim, inst, seed)
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])


def _write_suite_json(out_dir: str, specs: list[ObjectiveSpec]) -> None:
    with open(os.path.join(out_dir, "suite.json"), "w", encoding="utf-8") as fh:
        json.dump(suite_listing(specs), fh, indent=2)
        fh.write("\n")


def pool_map(fn, items: list, workers: int) -> list:
    """``fn`` over ``items`` in item order, one item per pool task; the pool
    has no more workers than items and opens only with two or more."""
    workers = min(workers, len(items))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _TrainingItem:
    """One run: its key, and its parameter set's index in the design."""

    key: RunKey
    param_idx: int
    params: ControlParams


def _run_training_item(config: CampaignConfig, item: _TrainingItem) -> TrainingRecord:
    """One training run's store record, its features sampled first, seeded
    by the campaign seed, the key and the parameter set."""
    key = item.key
    seed = derive_seed(config.campaign_seed, "train", *key[:3], item.param_idx, key.run_seed)
    return predictor.featured_run(key, lambda _: item.params, config.sigma, config.budget, seed)[2]


def cmd_train(config: CampaignConfig) -> str:
    """Run the off-line training campaign and persist the store: a fresh LHS
    of ``n_param_sets`` triples per (function, dimension), each run on every
    training instance and seed, its sigma feature evaluations charged."""
    config.validate()
    _require_one_sigma(config)
    _require_seeds(config.train_seeds, "train_seeds")
    _require_budget(config, ("training",))
    path = config.resolved_store_path()
    # the store's directory first: a save that fails would lose every run
    for directory in (config.out, os.path.dirname(path)):
        os.makedirs(directory or ".", exist_ok=True)
    specs = suite(config.suite, config.dims)
    items = []
    for spec in specs:
        design = (spec.function_id, spec.dim)
        design_rng = substream(config.campaign_seed, "param-design", *design)
        param_sets = lhs_params(config.n_param_sets, design_rng)
        for inst in config.train_instance_seeds():
            for param_idx, params in enumerate(param_sets):
                for run_seed in config.train_seeds:
                    items.append(_TrainingItem(RunKey(*design, inst, run_seed), param_idx, params))
    run = partial(_run_training_item, config)
    store = TrainingStore(pool_map(run, items, config.workers))
    store.save(path)
    _write_suite_json(config.out, specs)
    best = store.best_record()
    print(
        f"trained {len(store)} records -> {path}\n"
        f"best alpha {best.alpha!r} at p=({best.params.p1:.3f}, "
        f"{best.params.p2:.3f}, {best.params.p3}) "
        f"on {best.key.function_id} D={best.key.dim}"
    )
    return path


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CompareItem:
    """One run: its method and test key.  What every run of a pool call
    shares (the config and the frozen model and table) is bound to
    ``_run_compare_item`` instead."""

    method: str
    key: RunKey
    params: Optional[ControlParams] = None  # fixed-parameter methods


def _improvement_rows(trace: de.RunTrace) -> tuple:
    rows = []
    best = None
    for gen, evals, value in trace.generations:
        if best is None or value < best:
            best = value
            rows.append((gen, evals, value))
    return tuple(rows)


def _run_compare_item(config: CampaignConfig, model, table, item: _CompareItem) -> tuple:
    """One run as ``(row, record, curve)``: its alpha.csv row, its store
    record (predictive runs only) and its improvement-only curve.  A failed
    run keeps its row, with every field but the test key, method and status
    left empty.  Every method of a test key draws from the same stream,
    seeded by the campaign seed and the key alone."""
    key = item.key
    row = {**dict.fromkeys(ALPHA_COLUMNS), **key._asdict(), "method": item.method}
    seed = derive_seed(config.campaign_seed, "compare", *key)
    try:
        params, record = item.params, None
        if item.method == METHOD_PREDICTIVE:
            trace, score, record = run_predictive(
                key, model, table, config.sigma, config.budget, seed
            )
            params = record.params
        else:
            if item.method == METHOD_SHADE:
                trace = shade.optimize_shade(key.instance(), config.budget, seed)
            else:
                trace = de.optimize(key.instance(), params, config.budget, seed)
            score = compute_alpha(trace)
        curve = _improvement_rows(trace)
    except Exception as exc:  # failures become explicit report rows
        row["status"] = f"failed: {exc}"
        return row, None, ()
    if params is not None:
        row.update(vars(params))
    row.update(
        alpha=score.alpha, evals=trace.evals_used, g_star=score.g_star, status="ok"
    )
    return row, record, curve


def _row_order(row: dict) -> tuple:
    return (*_key(row), METHOD_ORDER.index(row["method"]))


@dataclass
class ComparisonReport:
    """The rows ``cmd_compare`` wrote to alpha.csv and wilcoxon.csv."""

    alpha_rows: list
    wilcoxon_rows: list


def compute_wilcoxon_rows(alpha_rows: list) -> list:
    """Pairwise signed-rank tests for every pair of methods in ``alpha_rows``,
    each over the test keys ok for both."""
    by_method: dict[str, dict] = {}
    for row in alpha_rows:
        ok_alpha = by_method.setdefault(row["method"], {})
        if row["status"] == "ok":
            ok_alpha[_key(row)] = row["alpha"]
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
    """One file per (function, dim, seed), method by method; ``results`` come
    in row order, and the stable sort by file and method keeps that order
    among each method's instances."""
    curve_dir = os.path.join(out_dir, "curves")
    runs = sorted(
        (
            (f"{row['function_id']}_{row['dim']}_{row['run_seed']}.csv", row, curve)
            for row, _, curve in results
            if curve
        ),
        key=lambda run: (run[0], METHOD_ORDER.index(run[1]["method"])),
    )
    # a file's rows are made as it is written, so one file's rows exist at a time
    for name, file_runs in itertools.groupby(runs, key=lambda run: run[0]):
        rows = (
            dict(zip(CURVE_COLUMNS, (row["method"], row["instance_seed"], *point)))
            for _, row, curve in file_runs
            for point in curve
        )
        _write_csv(os.path.join(curve_dir, name), CURVE_COLUMNS, rows)


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
    _require_one_sigma(config)
    _require_seeds(config.seeds, "seeds")
    predictive = METHOD_PREDICTIVE in config.methods
    specs = suite(config.suite, config.dims)
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

    def refit():
        return predictor.recommendation_table(
            store, config.kappa, seed=config.campaign_seed, scale=config.feature_scaling
        )

    items = [
        _CompareItem(method, key, _fixed_params(method, key.dim, store))
        for method in config.methods
        if method != METHOD_PREDICTIVE
        for key in keys
    ]

    batches = [[]]
    model = table = None
    if predictive:
        model, table = refit()
        batches = [keys] if config.retrain == "per-batch" else [[k] for k in keys]
    # <out>/curves before the first run: a write that fails would lose every run
    os.makedirs(os.path.join(config.out, "curves"), exist_ok=True)
    results = []
    for batch in batches:
        items += [_CompareItem(METHOD_PREDICTIVE, key) for key in batch]
        run = partial(_run_compare_item, config, model, table)
        done = pool_map(run, items, config.workers)
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
    return ComparisonReport(alpha_rows, wilcoxon_rows)


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------


def _sample_features(config: CampaignConfig, item: tuple) -> FeatureVector:
    """One (sigma, test key) pair's features from ``sigma`` samples, seeded
    by the campaign seed, the key and sigma."""
    sigma, key = item
    seed = derive_seed(config.campaign_seed, "features-cmd", *key, sigma)
    return extract_features(key.instance(), sigma, seed)


def cmd_features(config: CampaignConfig) -> str:
    """Emit the feature table with cluster assignments (the data behind the
    feature-space scatter)."""
    config.validate()
    _require_seeds(config.seeds, "seeds")
    keys = _test_keys(config, suite(config.suite, config.dims))
    os.makedirs(config.out, exist_ok=True)
    sigmas = config.sigmas or (config.sigma,)
    # one pool over every (sigma, key) pair, then one fit per sigma
    items = [(sigma, key) for sigma in sigmas for key in keys]
    all_betas = pool_map(partial(_sample_features, config), items, config.workers)
    rows = []
    for i, sigma in enumerate(sigmas):
        betas = all_betas[i * len(keys) : (i + 1) * len(keys)]
        points = np.array([beta.as_array() for beta in betas])
        model = cluster.fit(
            points, config.kappa, seed=config.campaign_seed, scale=config.feature_scaling
        )
        for key, beta, label in zip(keys, betas, model.classify_all(points)):
            values = (sigma, *key, *vars(beta).values(), int(label))
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
    kappa: int = CampaignConfig.kappa,
    beta: Optional[tuple] = None,
    function_id: Optional[str] = None,
    dim: Optional[int] = None,
    instance_seed: Optional[int] = None,
    sigma: Optional[int] = None,
    seed: Optional[int] = None,
    scale: bool = True,
) -> dict:
    """One-shot recommendation from a stored training set.

    Give either an explicit feature triple or a (function, dim) to sample
    features from, not both.  Only sampling takes ``instance_seed`` (default
    0), ``sigma`` (default ``CampaignConfig.sigma``) and the sample's
    ``seed`` (default 0).  The arguments are checked, and the store is
    fitted (fit seed 0), before any feature is sampled, so an empty store
    fails without evaluating the objective.
    """
    _require_at_least("kappa", kappa, 1)
    sampling = {"--instance": instance_seed, "--sigma": sigma, "--seed": seed}
    given = [flag for flag, value in sampling.items() if value is not None]
    instance = None
    if beta is None and None not in (function_id, dim):
        instance = make_instance(ObjectiveSpec(function_id, dim), instance_seed or 0)
        sigma = CampaignConfig.sigma if sigma is None else sigma
        _require_at_least("sigma", sigma, 2)
    elif beta is None or (function_id, dim) != (None, None):
        raise ContractError("recommend needs --beta or --function/--dim, not both")
    elif given:
        raise ContractError(f"recommend --beta samples nothing, so it takes no {', '.join(given)}")
    model, table = predictor.recommendation_table(
        TrainingStore.load(store_path), kappa, scale=scale
    )
    if instance is None:
        beta_vec = FeatureVector(*[float(b) for b in beta])
    else:
        beta_vec = extract_features(instance, sigma, seed or 0)
    params, cluster_idx = predictor.recommend(model, table, beta_vec)
    result = {**vars(params), "cluster": cluster_idx, **vars(beta_vec)}
    print(json.dumps(result))
    return result


def read_alpha_csv(path: str) -> list:
    """The rows of an alpha.csv as ``compare`` made them, each cell of its
    ``ALPHA_TYPES`` type or None if empty.  A row ``compare`` cannot write
    raises ``ContractError`` naming the file and its 1-based line: a line
    that is not UTF-8 or that csv cannot parse, a header other than
    ``ALPHA_COLUMNS`` or a cell past it, a cell not as ``_fmt`` writes its
    value or not finite, an unknown method or status, an ok row with an empty
    cell (but shade's triple) or an invalid triple, a failed row with more
    than its key, method and status, a key ``RunKey.validate`` rejects, or a
    repeated key."""
    rows = []
    seen = set()
    reader = csv.DictReader(utf8_lines(path))
    try:
        header = list(reader.fieldnames or ())
        numbered = [(reader.line_num, raw) for raw in reader]
    except csv.Error as exc:  # such as a cell past csv's field size limit
        # DictReader's own line_num stops at the last row it returned
        raise ContractError(f"{path}:{reader.reader.line_num}: {exc}") from None
    if header != list(ALPHA_COLUMNS):
        missing = [c for c in ALPHA_COLUMNS if c not in header]
        if missing:
            raise ContractError(f"{path}:1: missing columns {missing}")
        raise ContractError(f"{path}:1: columns must be {list(ALPHA_COLUMNS)}, got {header}")
    for line, raw in numbered:
        where = f"{path}:{line}"
        if None in raw:
            raise ContractError(f"{where}: cells past the last column: {raw[None]}")
        row = {}
        for column, kind in ALPHA_TYPES.items():
            text = raw[column]
            if text in ("", None) and column not in RunKey._fields:
                row[column] = None
                continue
            try:
                value = kind(text)
            except (ValueError, TypeError) as exc:
                what = "an integer" if kind is int else "a number"
                raise ContractError(f"{where}: {column} must be {what}, got {text!r}") from exc
            if kind is float and not np.isfinite(value):
                raise ContractError(f"{where}: {column} must be finite, got {text!r}")
            written = _fmt(value)
            if written != text:
                raise ContractError(f"{where}: {column} must read {written!r}, got {text!r}")
            row[column] = value
        method, ok = row["method"], row["status"] == "ok"
        if method not in METHOD_ORDER:
            raise ContractError(f"{where}: unknown method {method!r}")
        if not (ok or (row["status"] or "").startswith("failed: ")):
            raise ContractError(f"{where}: unknown status {row['status']!r}")
        # the cells compare leaves empty: shade's triple, and every cell
        # of a failed row between its method and its status
        empty = ("p1", "p2", "p3") if method == METHOD_SHADE else ()
        if not ok:
            empty = ALPHA_COLUMNS[len(RunKey._fields) + 1 : -1]
        which = f"{'an ok' if ok else 'a failed'} {method} row"
        for column in ALPHA_COLUMNS:
            if (row[column] is None) != (column in empty):
                state = "empty" if column in empty else "filled"
                raise ContractError(f"{where}: {column} must be {state} in {which}")
        try:
            _key(row).validate()
            if not empty:  # an ok row with a fixed or chosen triple
                ControlParams(row["p1"], row["p2"], row["p3"]).validate()
        except ContractError as exc:
            raise ContractError(f"{where}: {exc}") from exc
        key = (*_key(row), method)
        if key in seen:
            raise ContractError(f"{where}: repeated test key and method {key}")
        seen.add(key)
        rows.append(row)
    return rows


def cmd_report(out_dir: str) -> list:
    """Re-derive the method comparison table from a stored alpha.csv."""
    rows = read_alpha_csv(os.path.join(out_dir, "alpha.csv"))
    wilcoxon_rows = compute_wilcoxon_rows(rows)
    by_method: dict[str, list] = {}
    for row in rows:
        if row["status"] == "ok":
            by_method.setdefault(row["method"], []).append(row["alpha"])
    for method in METHOD_ORDER:
        if method in by_method:
            vals = by_method[method]
            print(
                f"{method}: n={len(vals)} mean_alpha={np.mean(vals):.6g} "
                f"median_alpha={np.median(vals):.6g}"
            )
    _emit_wilcoxon(out_dir, wilcoxon_rows)
    return wilcoxon_rows
