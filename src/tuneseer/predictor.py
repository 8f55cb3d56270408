"""Global memory of (params, features, score) records and the
recommendation engine mined from it.

A training campaign (``harness.cmd_train``) makes one record per
optimization run, each through ``_featured_run`` with a fixed parameter
triple, the same runner a predictive run uses.  To recommend
parameters for a new function, the stored feature vectors are clustered,
the new function's features are classified, and the mean parameter triple of
the top 10% of that cluster's records (ranked by score) is returned.

``recommendation_table`` fits the clustering and builds that per-cluster
table once; ``recommend(model, table, beta)`` is the one step from a feature
vector to a cluster and its triple, and fits nothing.  ``run_predictive``
makes one on-line run with the frozen (model, table) pair and returns the
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

import numpy as np

from . import cluster, de
from .errors import ContractError, NoDataError
from .features import FeatureVector, extract_features
from .metric import PerformanceScore, compute_alpha
from .sampling import MIN_POP_SIZE, ControlParams

TOP_FRACTION = 0.1


@dataclass(frozen=True)
class TrainingRecord:
    params: ControlParams
    features: FeatureVector
    alpha: float
    function_id: str
    dim: int
    instance_seed: int
    run_seed: int
    sigma: int
    timestamp: str

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "p1": self.params.p1,
                "p2": self.params.p2,
                "p3": self.params.p3,
                "beta1": self.features.beta1,
                "beta2": self.features.beta2,
                "beta3": self.features.beta3,
                "alpha": self.alpha,
                "function_id": self.function_id,
                "dim": self.dim,
                "instance_seed": self.instance_seed,
                "run_seed": self.run_seed,
                "sigma": self.sigma,
                "timestamp": self.timestamp,
            }
        )

    @classmethod
    def from_json_line(cls, line: str) -> "TrainingRecord":
        """A non-finite p1, p2, beta or alpha, or a triple that
        ``ControlParams.validate`` rejects, raises ``ValueError``."""
        raw = json.loads(line)

        def finite(key: str) -> float:
            value = float(raw[key])
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {raw[key]!r}")
            return value

        p1, p2, p3 = finite("p1"), finite("p2"), raw["p3"]
        ControlParams(p1, p2, p3).validate()  # before int() could truncate p3
        return cls(
            params=ControlParams(p1, p2, int(p3)),
            features=FeatureVector(
                beta1=finite("beta1"), beta2=finite("beta2"), beta3=finite("beta3")
            ),
            alpha=finite("alpha"),
            function_id=str(raw["function_id"]),
            dim=int(raw["dim"]),
            instance_seed=int(raw["instance_seed"]),
            run_seed=int(raw["run_seed"]),
            sigma=int(raw["sigma"]),
            timestamp=str(raw["timestamp"]),
        )


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
        return np.array([r.features.as_array() for r in self.records])

    def best_record(self) -> TrainingRecord:
        if not self.records:
            raise NoDataError(f"{self} is empty")
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
        """Read a saved store; a bad record raises ``ContractError`` naming
        the file and its 1-based line."""
        records = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(TrainingRecord.from_json_line(line))
                except KeyError as exc:
                    raise ContractError(
                        f"{path}:{lineno}: record has no field {exc}"
                    ) from exc
                except (ValueError, TypeError) as exc:
                    raise ContractError(f"{path}:{lineno}: bad record: {exc}") from exc
        return cls(records, path=path)


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
        raise NoDataError(f"cannot recommend from an empty {store}")
    features = store.features_array()
    model = fit_model(features, kappa, seed=seed, scale=scale)
    labels = model.classify_all(features)
    # one stable sort groups the records by cluster, each in store order
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.cumsum(np.bincount(labels, minlength=model.k))[:-1])
    table = {}
    for c, group in enumerate(groups):
        members = [store.records[i] for i in group]
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


def _featured_run(
    instance, choose, sigma: int, budget: int, seed: int, run_seed: int
) -> tuple[de.RunTrace, PerformanceScore, TrainingRecord]:
    """Extract features from sigma evaluations, optimize with
    ``choose(features)`` on the remaining budget, and score the combined
    cost; the record stores ``run_seed``."""
    if budget <= sigma:
        raise ContractError(f"budget {budget} must exceed sigma {sigma}")
    beta = extract_features(instance, sigma, seed)
    params = choose(beta)
    trace = de.optimize(instance, params, budget - sigma, seed)
    score = compute_alpha(trace)
    record = TrainingRecord(
        params=params,
        features=beta,
        alpha=score.alpha,
        function_id=instance.spec.function_id,
        dim=instance.dimension,
        instance_seed=instance.instance_seed,
        run_seed=run_seed,
        sigma=sigma,
        timestamp=_utc_now(),
    )
    return trace, score, record


def run_predictive(
    instance,
    model: cluster.ClusterModel,
    table: dict[int, ControlParams],
    sigma: int,
    budget: int,
    seed: int,
) -> tuple[de.RunTrace, PerformanceScore, TrainingRecord]:
    """One on-line use of the methodology on a new instance.

    Features are extracted from a fresh sample (sigma evaluations charged to
    the instance) and ``recommend`` maps them to their cluster's ``table``
    entry; the optimizer runs with it on the remaining budget, and the score
    covers the combined cost.  ``(model, table)`` is what
    ``recommendation_table`` returns; the record stores ``seed`` as its run
    seed.
    """
    return _featured_run(
        instance, lambda beta: recommend(model, table, beta)[0], sigma, budget,
        seed=seed, run_seed=seed,
    )
