"""k-means++ classification of feature vectors.

Features are standardized (per-feature z-score over the training set) before
clustering by default, since raw dimension counts span 2-50 while skew spans
roughly +-2; without scaling, Euclidean distance degenerates to dimension
binning.  Scaling can be disabled to test the unscaled reading.

Fitting runs ``RESTARTS`` k-means++ seedings, keeping the first least-inertia
model.  Lloyd stops once no centroid moves by ``TOL`` or after ``MAX_ITER``
updates.  An empty cluster is re-seeded to the point farthest from its
assigned centroid among the points whose cluster has another member, so a
re-seed never empties a cluster in turn and the inertia sequence stays
finite and non-increasing, also when there are fewer distinct points than
clusters.

Every nearest-centroid answer -- each Lloyd pass and classification -- comes
from ``_nearest``, ties to the lowest centroid index, and all squared
distances, the k-means++ seeding update and the Lloyd bounds too, from one
kernel, ``_sq_dist``.  It works on points stored feature-major, one
contiguous (d, n) copy, and gives the (k, n) distance matrix as
``((p[:, None, :] - c[:, :, None]) ** 2).sum(axis=0)``: a sum over the
outer axis adds feature 0, 1, ..., d - 1 in order, one contiguous (k, n)
block at a time, from one (d, k, n) temporary.  For fewer than 8 features
numpy's sum over the last axis of the broadcast form
``((p[:, None] - c[None]) ** 2).sum(axis=2)`` is a plain left-to-right sum
too, so the two give the same floats bit for bit.  The centroid update sums
each (feature, centroid) bin with ``np.bincount`` in row order and divides
by the member counts; for 2 or more features that is the order and the
division of the masked ``points[labels == c].mean(axis=0)``.  (With a
single feature the masked mean sums pairwise and can differ in the last
bit.)  Feature vectors have 3 features, so fits and classifications equal
those of the broadcast form.  A GEMM form, ``|x|^2 - 2 x.c + |c|^2``,
rounds differently: it would change assignments at near-ties and so the
fitted models, which makes it a behaviour change of its own.

After the first pass a Lloyd pass gives a point a full distance row only
when two bounds (Hamerly's) cannot prove its label.  The upper bound is the
point's squared distance to its own centroid, recomputed every pass with the
kernel, so it is also the distance the inertia sums.  The lower bound is the
root of the runner-up in its last full row, deflated by a relative ``SLACK``
of 1e-9 and an absolute ``FLOOR`` of 1e-150, and lowered after each update
by the largest centroid move.  A point whose own distance is below its lower
bound keeps its label, and every label stays the one a full row would give:
a squared distance of a few terms is within a few units in the last place
(about 1e-15 relative) of the exact one, and the bound's own rounding over
``MAX_ITER`` updates stays below 1e-13 of it, so a proved label has a gap far
above anything rounding could close, while a tie or near-tie (a runner-up
within 1e-9 of the nearest) always gets a full row.  The floor keeps the
proof out of subnormal numbers.  A re-seed moves a centroid out of the
bounds' reach, so the pass after it gives every point a full row.  A run
stops as soon as a pass repeats the labels its centroids were computed from:
the update would give the same centroids bit for bit and the next pass the
same labels, so the history gains the two entries those two steps would add.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .sampling import substream

log = logging.getLogger(__name__)

RESTARTS = 10
MAX_ITER = 300
TOL = 1e-9
SLACK = 1e-9
FLOOR = 1e-150


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
        return int(_nearest(z.T, self.centroids.T)[0][0])

    def classify_all(self, points: np.ndarray) -> np.ndarray:
        z = self.scaler.transform(np.asarray(points, dtype=float))
        return _nearest(z.T, self.centroids.T)[0]

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


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between (d, ...) arrays broadcast over
    their trailing axes, summed over the features in order (see the module
    docstring)."""
    diff = a - b
    diff *= diff
    return diff.sum(axis=0)


def _nearest(pt: np.ndarray, ct: np.ndarray):
    """(labels, squared distance to the label's centroid, runner-up lower
    bound) for the columns of a (d, m) point block and (d, k) centroids; a
    tie goes to the lowest centroid index and leaves the bound below the
    nearest distance."""
    d2 = _sq_dist(pt[:, None, :], ct[:, :, None])
    labels = np.argmin(d2, axis=0)
    cols = np.arange(pt.shape[1])
    point_d2 = d2[labels, cols]
    d2[labels, cols] = np.inf
    lower = np.sqrt(d2.min(axis=0))
    lower *= 1.0 - SLACK
    lower -= FLOOR
    return labels, point_d2, lower


def kmeanspp_seed(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """D^2-weighted seeding: first centroid uniform, each next one chosen
    with probability proportional to squared distance from the chosen set.
    Needs 1 <= k <= n."""
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ContractError(f"need 1 to {n} centroids, got k={k}")
    pt = np.ascontiguousarray(points.T)
    chosen = [int(rng.integers(0, n))]
    d2 = _sq_dist(pt, pt[:, chosen[0], None])
    while len(chosen) < k:
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(0, n))  # all remaining mass on duplicates
        else:
            idx = int(np.searchsorted(np.cumsum(d2), rng.random() * total))
            idx = min(idx, n - 1)
        chosen.append(idx)
        d2 = np.minimum(d2, _sq_dist(pt, pt[:, idx, None]))
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
    pt = np.ascontiguousarray(points.T)
    ct = centroids.T.copy()
    bins = k * np.arange(d)[:, None]  # one bincount bin per (feature, centroid)
    history = []
    shift = np.inf
    labels = None  # the labels the centroids were computed from
    full = True
    for updates_left in range(MAX_ITER, -1, -1):
        if full:
            assigned, point_d2, lower = _nearest(pt, ct)
        else:
            point_d2 = _sq_dist(pt, ct.take(labels, axis=1))
            recheck = np.flatnonzero(~(np.sqrt(point_d2) < lower))
            assigned = labels.copy()
            if recheck.size:
                assigned[recheck], point_d2[recheck], lower[recheck] = _nearest(
                    pt[:, recheck], ct
                )
        if shift < TOL or updates_left == 0:
            labels = assigned
            break
        if np.array_equal(assigned, labels):
            # the update would give these centroids again, bit for bit, and
            # the next assignment these labels and distances
            history.append(float(point_d2.sum()))
            break
        labels = assigned
        counts = np.bincount(labels, minlength=k)
        empty = np.flatnonzero(counts == 0)
        for c in empty:
            # the farthest point that does not leave its cluster empty
            far = int(np.argmax(np.where(counts[labels] > 1, point_d2, -1.0)))
            counts[labels[far]] -= 1
            counts[c] = 1
            ct[:, c] = pt[:, far]
            labels[far] = c
            point_d2[far] = 0.0
        full = empty.size > 0
        history.append(float(point_d2.sum()))
        sums = np.bincount((labels + bins).ravel(), weights=pt.ravel(), minlength=k * d)
        new_ct = sums.reshape(d, k) / counts
        shift = float(np.abs(new_ct - ct).max())
        if not full:
            # each bound falls by the largest move of any centroid
            lower -= np.sqrt(_sq_dist(new_ct, ct).max())
        ct = new_ct
    inertia = float(point_d2.sum())
    history.append(inertia)
    return ct.T.copy(), labels, inertia, history


def fit(points, k: int, seed: int = 0, scale: bool = True) -> ClusterModel:
    """Best-of-``RESTARTS`` k-means++ fit on (n, d) feature rows.

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
    restarts_run = (lloyd(z, kmeanspp_seed(z, k, rng)) for _ in range(RESTARTS))
    centroids, _, inertia, _ = min(restarts_run, key=lambda run: run[2])
    return ClusterModel(k=k, centroids=centroids, scaler=scaler, inertia=inertia)
