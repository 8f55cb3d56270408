"""Objective-function features from a Latin hypercube sample of the domain.

A function is characterised by three numbers: its dimension, and the
interquartile range and skewness of its z-scored sample values.  The IQR
flags near-flat topology; the skew captures value asymmetry (sharp optima,
heavy tails).  ``extract_features(instance, sigma, seed)`` draws the sample
and alone checks that sigma >= 2.  Sampling cost is charged to the
instance's evaluation counter, so downstream performance accounting sees it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .sampling import latin_hypercube, substream


@dataclass(frozen=True)
class FeatureVector:
    """(dimension, IQR of z-scored values, skew of z-scored values)."""

    beta1: float
    beta2: float
    beta3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.beta1, self.beta2, self.beta3])


def iqr(values) -> float:
    """Q3 - Q1 with linearly interpolated quantiles.

    Quantile q of sorted x_0..x_{n-1} is x_j + g (x_{j+1} - x_j) where
    j + g = q (n - 1); the common 'type 7' rule.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ContractError("iqr needs at least 2 values")
    q1, q3 = np.percentile(values, [25.0, 75.0])
    return float(q3 - q1)


def skew(values) -> float:
    """Biased sample skewness g1 = m3 / m2^(3/2) from central moments m_k.

    Returns 0 for zero-variance samples.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ContractError("skew needs at least 2 values")
    centered = values - values.mean()
    m2 = np.mean(centered**2)
    if m2 == 0.0:
        return 0.0
    m3 = np.mean(centered**3)
    return float(m3 / m2**1.5)


def extract_features(instance, sigma: int, seed: int) -> FeatureVector:
    """Sample the instance sigma times over its domain and summarise.

    ``seed`` picks the stream of the sample design.  Values are z-scored
    (sample standard deviation, ddof=1) before the IQR and skew are taken; a
    zero-variance sample yields (D, 0, 0) so flat functions land together.
    Consumes exactly sigma evaluations; a sigma below 2 is rejected before
    any.
    """
    if sigma < 2:
        raise ContractError(f"sigma must be >= 2, got {sigma}")
    rng = substream(seed, "features")
    domain = instance.domain
    values = instance.evaluate_batch(
        latin_hypercube(sigma, domain.lower, domain.upper, rng)
    )
    sd = float(np.std(values, ddof=1))
    d = float(instance.dimension)
    if sd == 0.0 or not np.isfinite(sd):
        return FeatureVector(beta1=d, beta2=0.0, beta3=0.0)
    z = (values - values.mean()) / sd
    return FeatureVector(beta1=d, beta2=iqr(z), beta3=skew(z))
