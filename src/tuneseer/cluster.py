"""k-means++ classification of feature vectors.

Features are standardized (per-feature z-score over the training set) before
clustering by default, since raw dimension counts span 2-50 while skew spans
roughly +-2; without scaling, Euclidean distance degenerates to dimension
binning.  Scaling can be disabled to test the unscaled reading.

Fitting runs several k-means++ seedings and keeps the first lowest-inertia
model.  Lloyd stops once no centroid moves by ``TOL`` or after ``MAX_ITER``
updates.  An empty cluster is re-seeded to the point farthest from its
assigned centroid among the points whose cluster has another member, so a
re-seed never empties a cluster in turn and the inertia sequence stays
finite and non-increasing, also when there are fewer distinct points than
clusters.

Every nearest-centroid answer -- each Lloyd pass and classification -- comes
from ``_assign``, ties to the lowest centroid index, and all squared
distances, the k-means++ seeding update too, from one kernel,
``_pairwise_sq``.  It accumulates the (n, k) distance matrix column by
column, ``d2 += diff * diff`` for feature 0, 1, ..., d - 1, so no (n, k, d)
temporary is built.  For fewer than 8 features numpy's sum over the last
axis of the broadcast form
``((p[:, None] - c[None]) ** 2).sum(axis=2)`` is a plain left-to-right sum,
so the two give the same floats bit for bit.  The centroid update sums each
column with ``np.bincount`` in row order and divides by the member counts;
for 2 or more features that is the order and the division of the masked
``points[labels == c].mean(axis=0)``.  (With a single feature the masked
mean sums pairwise and can differ in the last bit.)  Feature vectors have 3
features, so fits and classifications equal those of the broadcast form.
A GEMM form, ``|x|^2 - 2 x.c + |c|^2``, rounds differently: it would change
assignments at near-ties and so the fitted models, which makes it a
behaviour change of its own.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .sampling import substream

log = logging.getLogger(__name__)

DEFAULT_RESTARTS = 10
MAX_ITER = 300
TOL = 1e-9


@dataclass(frozen=True)
class FeatureScaler:
    """Per-feature affine map to zero mean, unit spread."""

    means: np.ndarray
    stds: np.ndarray

    @classmethod
    def fit(cls, points: np.ndarray) -> "FeatureScaler":
        means = points.mean(axis=0)
        stds = points.std(axis=0)
        stds = np.where(stds == 0.0, 1.0, stds)
        return cls(means=means, stds=stds)

    @classmethod
    def identity(cls, d: int) -> "FeatureScaler":
        return cls(means=np.zeros(d), stds=np.ones(d))

    def transform(self, points: np.ndarray) -> np.ndarray:
        return (points - self.means) / self.stds


@dataclass(frozen=True)
class ClusterModel:
    """Fitted model: centroids live in scaled space."""

    k: int
    centroids: np.ndarray
    scaler: FeatureScaler
    inertia: float

    def classify(self, point) -> int:
        """Index of the nearest centroid in scaled space; ties break to the
        lowest index."""
        z = self.scaler.transform(np.atleast_2d(np.asarray(point, dtype=float)))
        return int(_assign(z, self.centroids)[0][0])

    def classify_all(self, points: np.ndarray) -> np.ndarray:
        z = self.scaler.transform(np.asarray(points, dtype=float))
        return _assign(z, self.centroids)[0]

    def to_json(self) -> str:
        return json.dumps(
            {
                "k": self.k,
                "centroids": self.centroids.tolist(),
                "scaler": {
                    "means": self.scaler.means.tolist(),
                    "stds": self.scaler.stds.tolist(),
                },
                "inertia": self.inertia,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ClusterModel":
        raw = json.loads(text)
        return cls(
            k=int(raw["k"]),
            centroids=np.asarray(raw["centroids"], dtype=float),
            scaler=FeatureScaler(
                means=np.asarray(raw["scaler"]["means"], dtype=float),
                stds=np.asarray(raw["scaler"]["stds"], dtype=float),
            ),
            inertia=float(raw["inertia"]),
        )


def _pairwise_sq(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances, summed over the features in
    column order (see the module docstring)."""
    diff = points[:, None, 0] - centroids[None, :, 0]
    d2 = diff * diff
    for j in range(1, points.shape[1]):
        diff = points[:, None, j] - centroids[None, :, j]
        d2 += diff * diff
    return d2


def _assign(points: np.ndarray, centroids: np.ndarray):
    """(labels, squared distance to the label's centroid) per point; a tie
    goes to the lowest centroid index."""
    d2 = _pairwise_sq(points, centroids)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(len(labels)), labels]


def kmeanspp_seed(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """D^2-weighted seeding: first centroid uniform, each next one chosen
    with probability proportional to squared distance from the chosen set.
    Needs 1 <= k <= n."""
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ContractError(f"need 1 to {n} centroids, got k={k}")
    chosen = [int(rng.integers(0, n))]
    d2 = _pairwise_sq(points, points[chosen])[:, 0]
    while len(chosen) < k:
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(0, n))  # all remaining mass on duplicates
        else:
            idx = int(np.searchsorted(np.cumsum(d2), rng.random() * total))
            idx = min(idx, n - 1)
        chosen.append(idx)
        d2 = np.minimum(d2, _pairwise_sq(points, points[idx : idx + 1])[:, 0])
    return points[chosen].copy()


def lloyd(points: np.ndarray, centroids: np.ndarray):
    """Alternate assignment and centroid updates.

    Returns (centroids, labels, inertia, inertia_history); the history has
    one entry per assignment and is non-increasing.  Needs 1 <= k <= n
    initial centroids.
    """
    n, d = points.shape
    k = centroids.shape[0]
    if not 1 <= k <= n:
        raise ContractError(f"need 1 to {n} initial centroids, got {k}")
    centroids = centroids.copy()
    history = []
    shift = np.inf
    for updates_left in range(MAX_ITER, -1, -1):
        labels, point_d2 = _assign(points, centroids)
        if shift < TOL or updates_left == 0:
            break
        counts = np.bincount(labels, minlength=k)
        for c in np.flatnonzero(counts == 0):
            # the farthest point that does not leave its cluster empty
            far = int(np.argmax(np.where(counts[labels] > 1, point_d2, -1.0)))
            counts[labels[far]] -= 1
            counts[c] = 1
            centroids[c] = points[far]
            labels[far] = c
            point_d2[far] = 0.0
        history.append(float(point_d2.sum()))
        sums = np.empty((k, d))
        for j in range(d):
            sums[:, j] = np.bincount(labels, weights=points[:, j], minlength=k)
        new_centroids = sums / counts[:, None]
        shift = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
    inertia = float(point_d2.sum())
    history.append(inertia)
    return centroids, labels, inertia, history


def fit(
    points,
    k: int,
    seed: int = 0,
    scale: bool = True,
    restarts: int = DEFAULT_RESTARTS,
) -> ClusterModel:
    """Best-of-restarts k-means++ fit on (n, d) feature rows.

    This is where k <= n is enforced: a k above the row count is clamped to
    it with a warning."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ContractError("fit needs a non-empty (n, d) array")
    n = points.shape[0]
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    if k > n:
        log.warning("k=%d exceeds point count %d; clamping", k, n)
        k = n
    scaler = FeatureScaler.fit(points) if scale else FeatureScaler.identity(
        points.shape[1]
    )
    z = scaler.transform(points)
    rng = substream(seed)
    # min keeps the first restart of least inertia
    restarts_run = (lloyd(z, kmeanspp_seed(z, k, rng)) for _ in range(restarts))
    centroids, _, inertia, _ = min(restarts_run, key=lambda run: run[2])
    return ClusterModel(k=k, centroids=centroids, scaler=scaler, inertia=inertia)
