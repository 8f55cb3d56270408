"""Global memory of (params, features, score) records and the
recommendation engine mined from it.

A training campaign (``harness.cmd_train``) makes one record per
optimization run, each through ``featured_run`` with a fixed parameter
triple, the same runner a predictive run uses.  A record names its run by
the ``RunKey`` it is made from; ``STORE_FIELDS`` declares a store line once,
and a line is read back only as ``to_json_line`` writes it.  To recommend
parameters for a new function, the stored feature vectors are clustered,
the new function's features are classified, and the mean parameter triple of
the top 10% of that cluster's records (ranked by score) is returned.

``recommendation_table`` fits the clustering and builds that per-cluster
table once; ``recommend(model, table, beta)`` is the one step from a feature
vector to a cluster and its triple, and fits nothing.  ``run_predictive``
makes a key's on-line run with the frozen (model, table) pair and returns the
run's record.  A comparison appends those records to the store and, in
per-run mode, refits the pair after every run, so the memory extends across
the whole history of using the tool.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import NamedTuple, get_type_hints

import numpy as np

from . import cluster, de
from .bench import ObjectiveSpec, make_instance
from .errors import ContractError
from .features import FeatureVector, extract_features
from .metric import PerformanceScore, compute_alpha
from .sampling import MIN_POP_SIZE, ControlParams

TOP_FRACTION = 0.1


class RunKey(NamedTuple):
    """A run's identity, and alpha.csv's first four columns in order: every
    method of a test key runs on the same instance and draws from the same
    stream, and a store record names the run it came from."""

    function_id: str
    dim: int
    instance_seed: int
    run_seed: int

    def validate(self) -> "RunKey":
        """Reject a key no command runs: a function outside the registry or a
        D below 2 (both through ``ObjectiveSpec``), or an instance seed below
        1.  Any run seed is valid."""
        ObjectiveSpec(self.function_id, self.dim)
        if self.instance_seed < 1:
            raise ContractError(f"instance_seed must be >= 1, got {self.instance_seed}")
        return self

    def instance(self):
        return make_instance(ObjectiveSpec(self.function_id, self.dim), self.instance_seed)


# A store line: ``TrainingRecord``'s fields in order, the triple, the features
# and the key spread into theirs, each with the type its JSON value reads as.
STORE_FIELDS = {
    **get_type_hints(ControlParams),
    **get_type_hints(FeatureVector),
    "alpha": float,
    **get_type_hints(RunKey),
    "sigma": int,
    "timestamp": str,
}
_JSON_TYPES = {float: "a number", int: "an integer", str: "a string"}


@dataclass(frozen=True)
class TrainingRecord:
    params: ControlParams
    features: FeatureVector
    alpha: float
    key: RunKey
    sigma: int
    timestamp: str

    def to_json_line(self) -> str:
        params, features = vars(self.params).values(), vars(self.features).values()
        values = (*params, *features, self.alpha, *self.key, self.sigma, self.timestamp)
        return json.dumps(dict(zip(STORE_FIELDS, values, strict=True)))

    @classmethod
    def from_json_line(cls, line: str) -> "TrainingRecord":
        """The record of a line in the form ``to_json_line`` writes: a JSON
        object of exactly the ``STORE_FIELDS`` fields, each value of its
        JSON type (a float field also takes a JSON integer), a finite number
        in each float field, a triple that ``ControlParams.validate`` accepts
        and a key that ``RunKey.validate`` accepts.  A missing field raises
        ``KeyError``, anything else ``ValueError``; a float in an integer
        field is named after the triple is validated, so a population of 7.9
        is named as one.  A repeated field keeps its last value, as
        ``json.loads`` reads it."""
        raw = json.loads(line)
        if type(raw) is not dict:
            raise ValueError(f"expected a JSON object, got {raw!r}")
        values, inexact = [], []
        for name, kind in STORE_FIELDS.items():
            value = raw[name]
            if type(value) is not kind:
                if kind is float and type(value) is int:
                    value = float(value)
                elif kind is int and type(value) is float and math.isfinite(value):
                    inexact.append((name, value))
                else:
                    raise ValueError(f"{name} must be {_JSON_TYPES[kind]}, got {value!r}")
            elif kind is float and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            values.append(value)
        if len(raw) > len(values):
            raise ValueError(f"unknown fields {sorted(raw.keys() - STORE_FIELDS.keys())}")
        params = ControlParams(*values[:3]).validate()
        if inexact:
            raise ValueError("{} must be an integer, got {!r}".format(*inexact[0]))
        features, key = FeatureVector(*values[3:6]), RunKey(*values[7:11]).validate()
        return cls(params, features, values[6], key, *values[11:])


class TrainingStore:
    """Append-only record list; ``path`` names the file it was loaded from,
    so an empty store's error can say which file it was."""

    def __init__(self, records=None, path=None):
        self.records: list[TrainingRecord] = list(records or [])
        self.path = path

    def __str__(self) -> str:
        return "training store" if self.path is None else f"training store {self.path}"

    def __len__(self) -> int:
        return len(self.records)

    def append(self, batch) -> None:
        self.records.extend(batch)

    def features_array(self) -> np.ndarray:
        """The (n, 3) matrix of the records' features, in record order."""
        return np.array(
            [(r.features.beta1, r.features.beta2, r.features.beta3) for r in self.records]
        )

    def best_record(self) -> TrainingRecord:
        if not self.records:
            raise ContractError(f"{self} is empty")
        return max(self.records, key=lambda r: r.alpha)

    def save(self, path) -> None:
        """Write one JSON line per record.  The lines go to a temporary file
        beside ``path`` that then replaces it, so a save that fails part way
        leaves any previous file at ``path`` intact."""
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                for rec in self.records:
                    fh.write(rec.to_json_line())
                    fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path) -> "TrainingStore":
        """Read a saved store, skipping blank lines; a line that is not UTF-8
        or a bad record raises ``ContractError`` naming the file and its
        1-based line."""
        records = []
        for lineno, line in enumerate(utf8_lines(path), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(TrainingRecord.from_json_line(line))
            except KeyError as exc:
                raise ContractError(f"{path}:{lineno}: record has no field {exc}") from exc
            # an int past float range overflows; deep nesting recurses too far
            except (ValueError, TypeError, OverflowError, RecursionError) as exc:
                raise ContractError(f"{path}:{lineno}: bad record: {exc}") from exc
        return cls(records, path=path)


def utf8_lines(path) -> list:
    """The file's lines, line ends kept and split where text mode splits them
    (at \\n, \\r\\n and \\r); a line that is not UTF-8 raises ``ContractError``
    naming the file and its 1-based line."""
    with open(path, "rb") as fh:
        raw = fh.read().splitlines(keepends=True)
    lines = []
    for lineno, data in enumerate(raw, start=1):
        try:
            lines.append(data.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ContractError(f"{path}:{lineno}: {exc}") from None
    return lines


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def top_set_size(m: int) -> int:
    """Size of the top-10% set for a cluster of m records (ceiling, min 1)."""
    return max(1, math.ceil(TOP_FRACTION * m))


def fit_model(
    features: np.ndarray, kappa: int, seed: int = 0, scale: bool = True
) -> cluster.ClusterModel:
    """Cluster the (n, 3) stored feature rows; ``cluster.fit`` owns the
    checks on kappa and clamps a kappa above the record count."""
    return cluster.fit(features, kappa, seed=seed, scale=scale)


def _mean_params(records: list[TrainingRecord]) -> ControlParams:
    p1 = float(np.mean([r.params.p1 for r in records]))
    p2 = float(np.mean([r.params.p2 for r in records]))
    p3_mean = float(np.mean([r.params.p3 for r in records]))
    # round half away from zero, keep population integral and at the floor
    p3 = max(MIN_POP_SIZE, int(math.floor(p3_mean + 0.5)))
    return ControlParams(p1=p1, p2=p2, p3=p3)


def recommendation_table(
    store: TrainingStore,
    kappa: int,
    seed: int = 0,
    scale: bool = True,
) -> tuple[cluster.ClusterModel, dict[int, ControlParams]]:
    """Fitted model plus, per cluster, the mean parameters of its top 10%
    records by score."""
    if not store.records:
        raise ContractError(f"cannot recommend from an empty {store}")
    features = store.features_array()
    model = fit_model(features, kappa, seed=seed, scale=scale)
    labels = model.classify_all(features)
    table = {}
    for c in range(model.k):
        members = [store.records[i] for i in np.flatnonzero(labels == c)]
        if not members:
            # a centroid can end up without members after a refit; fall
            # back to the whole store rather than failing the run
            members = list(store.records)
        ranked = sorted(members, key=lambda r: -r.alpha)
        table[c] = _mean_params(ranked[: top_set_size(len(members))])
    return model, table


def recommend(
    model: cluster.ClusterModel,
    table: dict[int, ControlParams],
    beta: FeatureVector,
) -> tuple[ControlParams, int]:
    """Classify ``beta`` with the fitted pair that ``recommendation_table``
    returns: the matching cluster's top-10% mean parameters, and the
    cluster."""
    assigned = int(model.classify(beta.as_array()))
    return table[assigned], assigned


def featured_run(
    key: RunKey, choose, sigma: int, budget: int, seed: int
) -> tuple[de.RunTrace, PerformanceScore, TrainingRecord]:
    """Extract features from sigma evaluations of ``key``'s instance, optimize
    with ``choose(features)`` on the remaining budget, and score the combined
    cost; both draw from stream ``seed``, and the record keeps ``key``."""
    if budget <= sigma:
        raise ContractError(f"budget {budget} must exceed sigma {sigma}")
    instance = key.instance()
    beta = extract_features(instance, sigma, seed)
    params = choose(beta)
    trace = de.optimize(instance, params, budget - sigma, seed)
    score = compute_alpha(trace)
    return trace, score, TrainingRecord(params, beta, score.alpha, key, sigma, _utc_now())


def run_predictive(
    key: RunKey,
    model: cluster.ClusterModel,
    table: dict[int, ControlParams],
    sigma: int,
    budget: int,
    seed: int,
) -> tuple[de.RunTrace, PerformanceScore, TrainingRecord]:
    """One on-line use of the methodology on ``key``'s instance.

    Features are extracted from a fresh sample (sigma evaluations charged to
    the instance) and ``recommend`` maps them to their cluster's ``table``
    entry; the optimizer runs with it on the remaining budget, and the score
    covers the combined cost.  ``(model, table)`` is what
    ``recommendation_table`` returns.
    """
    return featured_run(
        key, lambda beta: recommend(model, table, beta)[0], sigma, budget, seed
    )
