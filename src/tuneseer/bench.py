"""Deterministic, instanced suite of continuous black-box benchmark functions.

Two presets map function ids to base functions: a training suite of
ten functions spanning separable unimodal, high-conditioning, strongly and
weakly structured multimodal, plateau, and asymmetric-valley landscapes, and a
held-out suite of six further functions for out-of-sample testing.  Every
function shares the box [-5, 5]^D and is defined for any dimension D >= 2.

The presets share no function id, but they are not disjoint in
distribution.  A rotated entry at an instance is its base function under the
orthogonal map Q R, Q its fixed intrinsic rotation and R the instance's.  R
is Haar-distributed, so Q R is too: at every instance seed >= 1, held-out
ridge_rotated and rosenbrock_rotated are draws from the training suite's
sharp_ridge and rosenbrock, and rotated_ellipsoid one from ellipsoid.  Only
instance seed 0 tells them apart.

An instance fixes (function id, dim, instance seed) and applies an
optimum shift plus an orthogonal rotation:

    f_instance(x) = f_base(R (x - shift))

Instance seed 0 is the identity transform.  Identical (function id, D, seed)
triples reproduce bit-identical transforms.  Base formulas are documented on
each function below; all have known optimum value 0.  An instance returns
``max(f_base, 0) + VALUE_FLOOR`` for every function of either preset, so every
objective value is at least 1e-300 (see ``VALUE_FLOOR``).  ``SUITES`` names
the two presets, ``suite(name, dims)`` lists one at the given dimensions, and
``REGISTRY`` is the two presets together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ContractError
from .sampling import substream

DOMAIN_BOUND = 5.0

# Fraction of the box from which instance shifts are drawn, keeping shifted
# optima away from the boundary.
SHIFT_FRACTION = 0.8

# argmax of w*sin(sqrt(|w|)); the classic Schwefel optimum location.
_SCHWEFEL_OPT = 420.968746359982025

# Every objective value is max(f_base, 0) + VALUE_FLOOR, so the optimum value
# of every function is 1e-300.  Runs on 2-D problems can drive values to exact
# float zero within the budget, and the efficiency score's ratio rule needs
# strictly positive values.  1e-300 is a normal double, so ratios against it
# keep full precision, and it vanishes in the sum with any value above about
# 1e-284, so a value a run can reach away from the optimum keeps its bits.
# The clamp is there because Schwefel's optimum is a cancellation: at 20,000
# points within 1e-9 of it (instance seeds 0 and 1), Schwefel reads as low as
# -2.27e-13 at D = 2, -9.09e-13 at D = 10 and -1.25e-12 at D = 20.  No
# held-out base function reads below 0 there, so the clamp leaves every
# held-out value as it is.
VALUE_FLOOR = 1e-300


@dataclass(frozen=True)
class SearchDomain:
    """Axis-aligned box; all suite functions share [-5, 5] per coordinate."""

    lower: np.ndarray
    upper: np.ndarray


# ---------------------------------------------------------------------------
# Base functions.  Each takes an (n, D) array and returns (n,) values.
# ---------------------------------------------------------------------------


def _sphere(z: np.ndarray) -> np.ndarray:
    """f(z) = sum z_i^2"""
    return np.sum(z * z, axis=1)


def _ellipsoid_weights(d: int) -> np.ndarray:
    return 10.0 ** (6.0 * np.arange(d) / (d - 1))


def _ellipsoid(z: np.ndarray) -> np.ndarray:
    """Separable ellipsoid, condition 1e6: f(z) = sum 10^(6(i-1)/(D-1)) z_i^2"""
    return (z * z) @ _ellipsoid_weights(z.shape[1])


@lru_cache(maxsize=None)
def _intrinsic_rotation(name: str, d: int) -> np.ndarray:
    """Fixed per-(function, D) rotation, independent of instancing."""
    return random_rotation(substream(0, "intrinsic-rotation", name, d), d)


def _rotated(name: str, base: Callable[[np.ndarray], np.ndarray]):
    """``base`` composed with the fixed rotation Q of ``name``: f(z) = base(Q z)"""

    def fn(z: np.ndarray) -> np.ndarray:
        return base(z @ _intrinsic_rotation(name, z.shape[1]).T)

    return fn


def _sharp_ridge(z: np.ndarray) -> np.ndarray:
    """f(z) = z_1^2 + 100 sqrt(sum_{i>=2} z_i^2)"""
    return z[:, 0] ** 2 + 100.0 * np.sqrt(np.sum(z[:, 1:] ** 2, axis=1))


def _rastrigin(z: np.ndarray) -> np.ndarray:
    """f(z) = 10 D + sum (z_i^2 - 10 cos(2 pi z_i))"""
    d = z.shape[1]
    return 10.0 * d + np.sum(z * z - 10.0 * np.cos(2.0 * np.pi * z), axis=1)


def _griewank(z: np.ndarray) -> np.ndarray:
    """Griewank on w = 120 z (maps the box onto the classic [-600, 600]^D):
    f = 1 + sum w_i^2 / 4000 - prod cos(w_i / sqrt(i))"""
    w = 120.0 * z
    i = np.arange(1, z.shape[1] + 1)
    return (
        1.0
        + np.sum(w * w, axis=1) / 4000.0
        - np.prod(np.cos(w / np.sqrt(i)), axis=1)
    )


def _ackley(z: np.ndarray) -> np.ndarray:
    """f(z) = -20 exp(-0.2 sqrt(mean z_i^2)) - exp(mean cos(2 pi z_i)) + 20 + e"""
    quad = np.sqrt(np.mean(z * z, axis=1))
    osc = np.mean(np.cos(2.0 * np.pi * z), axis=1)
    return -20.0 * np.exp(-0.2 * quad) - np.exp(osc) + 20.0 + math.e


def _schwefel(z: np.ndarray) -> np.ndarray:
    """Schwefel sine landscape rescaled into the box with its optimum moved
    to the origin.  With w = 100 z + 420.9687... and g(w) = w sin(sqrt|w|):

        f = sum (g(420.9687...) - g(w_i)) + sum max(0, |w_i| - 500)^2 / 10

    The quadratic term penalises the region beyond the classic +-500 domain;
    the /10 weight keeps the per-coordinate term nonnegative over the whole
    range reachable through instance rotations (the larger sine peaks just
    past +-500 would otherwise dip below the origin value).
    """
    w = 100.0 * z + _SCHWEFEL_OPT
    g = w * np.sin(np.sqrt(np.abs(w)))
    g_opt = _SCHWEFEL_OPT * math.sin(math.sqrt(_SCHWEFEL_OPT))
    over = np.maximum(0.0, np.abs(w) - 500.0)
    return np.sum(g_opt - g, axis=1) + np.sum(over * over, axis=1) / 10.0


def _step(z: np.ndarray) -> np.ndarray:
    """Plateaued quadratic with a weak escape slope:

        f(z) = 0.1 * max(|z_1| / 1e4, sum 10^((i-1)/(D-1)) floor(z_i + 0.5)^2)

    The rounded quadratic produces flat plateaus; the tiny |z_1| term keeps
    the surface from being exactly level at the bottom, so runs always have
    a residual gradient (the convention of plateaued benchmark suites).
    """
    d = z.shape[1]
    s = np.floor(z + 0.5)
    weights = 10.0 ** (np.arange(d) / (d - 1))
    plateau = (s * s) @ weights
    return 0.1 * np.maximum(np.abs(z[:, 0]) / 1e4, plateau)


def _rosenbrock(z: np.ndarray) -> np.ndarray:
    """Classic Rosenbrock valley, optimum at (1, ..., 1):
    f(z) = sum_{i<D} 100 (z_{i+1} - z_i^2)^2 + (1 - z_i)^2"""
    a = z[:, :-1]
    b = z[:, 1:]
    return np.sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2, axis=1)


def _discus_steep(z: np.ndarray) -> np.ndarray:
    """f(z) = 1e8 z_1^2 + sum_{i>=2} z_i^2"""
    return 1.0e8 * z[:, 0] ** 2 + np.sum(z[:, 1:] ** 2, axis=1)


def _tablet(z: np.ndarray) -> np.ndarray:
    """f(z) = 1e6 sum_{i<=2} z_i^2 + sum_{i>2} z_i^2"""
    return 1.0e6 * np.sum(z[:, :2] ** 2, axis=1) + np.sum(z[:, 2:] ** 2, axis=1)


def _different_powers(z: np.ndarray) -> np.ndarray:
    """f(z) = sum |z_i|^(2 + 4(i-1)/(D-1))"""
    d = z.shape[1]
    exponents = 2.0 + 4.0 * np.arange(d) / (d - 1)
    return np.sum(np.abs(z) ** exponents, axis=1)


# The weights a^k of the terms k = 1..20 (a = 0.5); the k = 0 weight is 1.
_WEIERSTRASS_A = tuple(0.5**k for k in range(1, 21))

# Elements of each (rows, D) temporary built at once: 256 KiB, whatever the
# batch size.
_WEIERSTRASS_BLOCK = 2**15


def _weierstrass(z: np.ndarray) -> np.ndarray:
    """Weierstrass (a=0.5, b=3, kmax=20):
    f = sum_i sum_k a^k cos(2 pi b^k (z_i + 0.5)) - D sum_k a^k cos(pi b^k)

    b^k is odd, so cos(2 pi b^k (z + 0.5)) = -cos(2 pi b^k z) and
    cos(pi b^k) = -1: f = sum_i sum_k a^k s_k(z_i) / 2, where
    s_k(z) = 2 (1 - cos(2 pi 3^k z)) = 4 sin^2(pi 3^k z).

    One sine per coordinate gives s_0 = 4 sin^2(pi r), with r = z - rint(z)
    exact.  The other twenty terms come from cos 3t = 4 cos^3 t - 3 cos t,
    which in s reads s_{k+1} = s_k (3 - s_k)^2.  The terms are added in
    k order and each row is then summed over D.  Every integer point is an
    optimum: there s_0 = 0, so f is exactly 0 with no constant subtracted.
    Since s is 1 - cos scaled rather than cos, a coordinate near an integer
    keeps its relative precision.  Measured against an exact rational
    reference, the relative error is at most 3.2e-8 for |z| <= 40 (100,000
    coordinates) and 3.6e-11 within 1e-4 of an integer.  It is largest
    within 1e-4 of a half-integer, where a term peaks and the tripling
    repeats its rounding error: 7.3e-6 there.

    The arrays are built for blocks of rows at a time, so evaluation memory
    stays bounded for any batch.  Each row is worked out on its own, so its
    value does not depend on the block size or on the other rows.  The
    blocks are there for large batches, not for the values: without them
    the same recurrence gave bit-identical values at all 90 shapes tried
    (D in {2, 3, 10, 20, 50}, 1 to 20,000 rows), in the same time up to
    1,000 x 20, the largest campaign batch (sigma 1000 at D = 20) and one
    block anyway.  At 10,000 x 50 it took 38.8 ms against 18.7 ms, with a
    tracemalloc peak of 12.2 MB against 1.4 MB (2 shared cores)."""
    n, d = z.shape
    out = np.empty(n)
    rows = max(1, _WEIERSTRASS_BLOCK // d)
    for start in range(0, n, rows):
        block = z[start : start + rows]
        s = np.sin(np.pi * (block - np.rint(block)))
        s *= s
        s *= 4.0
        total = s.copy()
        w = np.empty_like(s)
        for a_k in _WEIERSTRASS_A:
            np.subtract(3.0, s, out=w)
            w *= w
            s *= w
            np.multiply(s, a_k, out=w)
            total += w
        out[start : start + rows] = np.sum(total, axis=1)
    out *= 0.5
    return out


# Training preset: ten functions spanning the landscape groups.
TRAINING_PRESET: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sphere": _sphere,
    "ellipsoid": _ellipsoid,
    "rotated_ellipsoid": _rotated("rotated_ellipsoid", _ellipsoid),
    "sharp_ridge": _sharp_ridge,
    "rastrigin": _rastrigin,
    "griewank": _griewank,
    "ackley": _ackley,
    "schwefel": _schwefel,
    "step": _step,
    "rosenbrock": _rosenbrock,
}

# Held-out preset: conditioning and rotation variants of the training
# families plus a multimodal entry, in the spirit of testing on a second
# suite built from the same function classes.
HOLDOUT_PRESET: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "discus_steep": _discus_steep,
    "tablet": _tablet,
    "ridge_rotated": _rotated("ridge_rotated", _sharp_ridge),
    "rosenbrock_rotated": _rotated("rosenbrock_rotated", _rosenbrock),
    "different_powers": _different_powers,
    "weierstrass": _weierstrass,
}

# The suites by name; a campaign's ``suite`` key is one of these names.
SUITES = {"training": TRAINING_PRESET, "holdout": HOLDOUT_PRESET}
REGISTRY = {**TRAINING_PRESET, **HOLDOUT_PRESET}


@dataclass(frozen=True)
class ObjectiveSpec:
    """A benchmark function at a fixed dimension."""

    function_id: str
    dim: int

    def __post_init__(self):
        if self.function_id not in REGISTRY:
            raise ContractError(f"unknown function id {self.function_id!r}")
        if self.dim < 2:
            raise ContractError(f"dim must be >= 2, got {self.dim}")

    @property
    def domain(self) -> SearchDomain:
        bound = np.full(self.dim, DOMAIN_BOUND)
        return SearchDomain(lower=-bound, upper=bound)


def random_rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    """Orthogonal matrix from QR of a Gaussian matrix with sign-fixed
    diagonal; deterministic per rng state and uniform over the orthogonal
    group."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


@dataclass
class ObjectiveInstance:
    """One evaluable instance of a spec.

    Mutable only through ``eval_counter``; a single run owns one instance.
    """

    spec: ObjectiveSpec
    shift: np.ndarray
    rotation: np.ndarray
    eval_counter: int = 0

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def domain(self) -> SearchDomain:
        return self.spec.domain

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate an (n, D) batch; charges n evaluations to the counter.
        Each value is the base value clamped at 0, plus ``VALUE_FLOOR``."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ContractError(
                f"expected (n, {self.dim}) batch, got shape {points.shape}"
            )
        self.eval_counter += points.shape[0]
        z = (points - self.shift) @ self.rotation.T
        return np.maximum(REGISTRY[self.spec.function_id](z), 0.0) + VALUE_FLOOR


def make_instance(spec: ObjectiveSpec, instance_seed: int) -> ObjectiveInstance:
    """Deterministic instance; seed 0 is the identity transform."""
    if instance_seed < 0:
        raise ContractError(f"instance_seed must be >= 0, got {instance_seed}")
    d = spec.dim
    if instance_seed == 0:
        shift = np.zeros(d)
        rotation = np.eye(d)
    else:
        rng = substream(instance_seed, "bench-instance", spec.function_id, d)
        half_width = SHIFT_FRACTION * DOMAIN_BOUND
        shift = rng.uniform(-half_width, half_width, size=d)
        rotation = random_rotation(rng, d)
    return ObjectiveInstance(spec=spec, shift=shift, rotation=rotation)


def suite(name: str, dims) -> list[ObjectiveSpec]:
    """Every function of suite ``name``, in preset order, at every dimension
    of ``dims``."""
    return [ObjectiveSpec(f, d) for f in SUITES[name] for d in dims]


def suite_listing(suite: list[ObjectiveSpec]) -> list[dict]:
    """JSON-ready listing of (function_id, D, domain): the record of which
    functions a campaign ran, written as suite.json beside its outputs."""
    out = []
    for spec in suite:
        dom = spec.domain
        out.append(
            {
                "function_id": spec.function_id,
                "dimension": spec.dim,
                "lower": dom.lower.tolist(),
                "upper": dom.upper.tolist(),
            }
        )
    return out
