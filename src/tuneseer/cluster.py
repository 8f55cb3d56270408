"""k-means++ classification of feature vectors.

Features are standardized (per-feature z-score over the training set) before
clustering by default, since raw dimension counts span 2-50 while skew spans
roughly +-2; without scaling, Euclidean distance degenerates to dimension
binning.  Scaling can be disabled to test the unscaled reading.

Fitting runs several k-means++ seedings and keeps the lowest-inertia model.
Lloyd iterations stop when the largest centroid displacement drops below a
tolerance.  An empty cluster is re-seeded to the point farthest from its
assigned centroid among the points whose cluster has another member, so a
re-seed never empties a cluster in turn and the inertia sequence stays
finite and non-increasing, also when there are fewer distinct points than
clusters.

All squared distances -- Lloyd assignments, the k-means++ seeding update and
classification -- come from one kernel, ``_pairwise_sq``.  It accumulates the
(n, k) distance matrix column by column, ``d2 += diff * diff`` for feature 0,
1, ..., d - 1, so no (n, k, d) temporary is built.  For fewer than 8 features
numpy's sum over the last axis of the broadcast form
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
from .sampling import make_rng

log = logging.getLogger(__name__)

DEFAULT_RESTARTS = 10
DEFAULT_MAX_ITER = 300
DEFAULT_TOL = 1e-9


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

    def inverse(self, points: np.ndarray) -> np.ndarray:
        return points * self.stds + self.means


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
        return int(np.argmin(_pairwise_sq(z, self.centroids)[0]))

    def classify_all(self, points: np.ndarray) -> np.ndarray:
        z = self.scaler.transform(np.asarray(points, dtype=float))
        return np.argmin(_pairwise_sq(z, self.centroids), axis=1)

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


def kmeanspp_seed(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """D^2-weighted seeding: first centroid uniform, each next one chosen
    with probability proportional to squared distance from the chosen set.

    k larger than the point count is clamped down with a warning."""
    n = points.shape[0]
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    if k > n:
        log.warning("k=%d exceeds point count %d; clamping", k, n)
        k = n
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


def lloyd(
    points: np.ndarray,
    centroids: np.ndarray,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
):
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
    rows = np.arange(n)
    history = []
    for _ in range(max_iter):
        d2 = _pairwise_sq(points, centroids)
        labels = np.argmin(d2, axis=1)
        point_d2 = d2[rows, labels]
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
        if shift < tol:
            break
    d2 = _pairwise_sq(points, centroids)
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[rows, labels].sum())
    history.append(inertia)
    return centroids, labels, inertia, history


def fit(
    points,
    k: int,
    seed: int = 0,
    scale: bool = True,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> ClusterModel:
    """Best-of-restarts k-means++ fit on (n, d) feature rows."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ContractError("fit needs a non-empty (n, d) array")
    n = points.shape[0]
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    k = min(k, n)
    scaler = FeatureScaler.fit(points) if scale else FeatureScaler.identity(
        points.shape[1]
    )
    z = scaler.transform(points)
    rng = make_rng(seed)
    best = None
    for _ in range(restarts):
        init = kmeanspp_seed(z, k, rng)
        centroids, _, inertia, _ = lloyd(z, init, max_iter=max_iter, tol=tol)
        if best is None or inertia < best[1]:
            best = (centroids, inertia)
    return ClusterModel(k=k, centroids=best[0], scaler=scaler, inertia=best[1])
