"""Deterministic, instanced suite of continuous black-box benchmark functions.

Two disjoint presets map function ids to base functions: a training suite of
ten functions spanning separable unimodal, high-conditioning, strongly and
weakly structured multimodal, plateau, and asymmetric-valley landscapes, and a
held-out suite of six further functions for out-of-sample testing.  Every
function shares the box [-5, 5]^D and is defined for any dimension D >= 2.

An instance fixes (function id, dimension, instance seed) and applies an
optimum shift plus an orthogonal rotation:

    f_instance(x) = f_base(R (x - shift))

Instance seed 0 is the identity transform.  Identical (function id, D, seed)
triples reproduce bit-identical transforms.  Base formulas are documented on
each function below; all have known optimum value 0.  ``REGISTRY`` is the
two presets together.
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

# Positivity floor added to the held-out functions (their optimum value).
# Runs on 2-D problems can otherwise drive values to exact float zero within
# the budget, and the relative-convergence rule of the efficiency score is
# only scale-free on strictly positive values.  The floor is far below any
# numerically meaningful level, mirroring the nonzero-optimum convention of
# the established benchmark suites.
HOLDOUT_VALUE_OFFSET = 1e-300


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


_WEIERSTRASS_K = np.arange(21)
_WEIERSTRASS_A = 0.5**_WEIERSTRASS_K
_WEIERSTRASS_B = 2.0 * np.pi * 3.0**_WEIERSTRASS_K
_WEIERSTRASS_F0 = float(np.sum(_WEIERSTRASS_A * np.cos(_WEIERSTRASS_B * 0.5)))

# Elements of the (rows, D, 21) term table built at once: 256 KiB per
# temporary, whatever the batch size.
_WEIERSTRASS_BLOCK = 2**15


def _weierstrass(z: np.ndarray) -> np.ndarray:
    """Weierstrass (a=0.5, b=3, kmax=20):
    f = sum_i sum_k a^k cos(2 pi b^k (z_i + 0.5)) - D sum_k a^k cos(pi b^k)

    The term table is built for blocks of rows at a time, so evaluation
    memory stays bounded for any batch.  Each row is still summed over its
    own (D, 21) slab, so the values do not depend on the block size."""
    n, d = z.shape
    out = np.empty(n)
    rows = max(1, _WEIERSTRASS_BLOCK // (d * _WEIERSTRASS_K.size))
    for start in range(0, n, rows):
        block = z[start : start + rows, :, None]
        terms = _WEIERSTRASS_A * np.cos(_WEIERSTRASS_B * (block + 0.5))
        out[start : start + rows] = np.sum(terms, axis=(1, 2))
    out -= d * _WEIERSTRASS_F0
    return out


def _with_floor(fn: Callable[[np.ndarray], np.ndarray]):
    def floored(z: np.ndarray) -> np.ndarray:
        return fn(z) + HOLDOUT_VALUE_OFFSET

    return floored


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
# suite built from the same function classes.  Every entry carries the
# positivity floor.
HOLDOUT_PRESET: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    name: _with_floor(fn)
    for name, fn in {
        "discus_steep": _discus_steep,
        "tablet": _tablet,
        "ridge_rotated": _rotated("ridge_rotated", _sharp_ridge),
        "rosenbrock_rotated": _rotated("rosenbrock_rotated", _rosenbrock),
        "different_powers": _different_powers,
        "weierstrass": _weierstrass,
    }.items()
}

REGISTRY = {**TRAINING_PRESET, **HOLDOUT_PRESET}
TRAINING_FUNCTIONS = tuple(TRAINING_PRESET)
HOLDOUT_FUNCTIONS = tuple(HOLDOUT_PRESET)


@dataclass(frozen=True)
class ObjectiveSpec:
    """A benchmark function at a fixed dimension."""

    function_id: str
    dimension: int

    def __post_init__(self):
        if self.function_id not in REGISTRY:
            raise ContractError(f"unknown function id {self.function_id!r}")
        if self.dimension < 2:
            raise ContractError(f"dimension must be >= 2, got {self.dimension}")

    @property
    def domain(self) -> SearchDomain:
        bound = np.full(self.dimension, DOMAIN_BOUND)
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
    instance_seed: int
    shift: np.ndarray
    rotation: np.ndarray
    eval_counter: int = 0

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    @property
    def domain(self) -> SearchDomain:
        return self.spec.domain

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate an (n, D) batch; charges n evaluations to the counter."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dimension:
            raise ContractError(
                f"expected (n, {self.dimension}) batch, got shape {points.shape}"
            )
        self.eval_counter += points.shape[0]
        z = (points - self.shift) @ self.rotation.T
        return REGISTRY[self.spec.function_id](z)


def make_instance(spec: ObjectiveSpec, instance_seed: int) -> ObjectiveInstance:
    """Deterministic instance; seed 0 is the identity transform."""
    if instance_seed < 0:
        raise ContractError(f"instance_seed must be >= 0, got {instance_seed}")
    d = spec.dimension
    if instance_seed == 0:
        shift = np.zeros(d)
        rotation = np.eye(d)
    else:
        rng = substream(
            instance_seed, "bench-instance", spec.function_id, spec.dimension
        )
        half_width = SHIFT_FRACTION * DOMAIN_BOUND
        shift = rng.uniform(-half_width, half_width, size=d)
        rotation = random_rotation(rng, d)
    return ObjectiveInstance(
        spec=spec, instance_seed=instance_seed, shift=shift, rotation=rotation
    )


def training_suite(dims) -> list[ObjectiveSpec]:
    """Every training function at every dimension of ``dims``."""
    return [ObjectiveSpec(f, d) for f in TRAINING_FUNCTIONS for d in dims]


def holdout_suite(dims) -> list[ObjectiveSpec]:
    """Every held-out function at every dimension of ``dims``."""
    return [ObjectiveSpec(f, d) for f in HOLDOUT_FUNCTIONS for d in dims]


def suite_listing(suite: list[ObjectiveSpec]) -> list[dict]:
    """JSON-ready listing of (function_id, D, domain): the record of which
    functions a campaign ran, written as suite.json beside its outputs."""
    out = []
    for spec in suite:
        dom = spec.domain
        out.append(
            {
                "function_id": spec.function_id,
                "dimension": spec.dimension,
                "lower": dom.lower.tolist(),
                "upper": dom.upper.tolist(),
            }
        )
    return out
