"""Reference association measures for comparison with the compositional scan.

Pearson, Spearman (Pearson over average ranks), and the distance
correlation of Szekely, Rizzo and Bakirov with the biased double-centered
estimator.  All take equal-length 1-D arrays or TimeSeries values and
return plain floats; Pearson and Spearman return None when undefined
(a constant input), distance correlation returns 0.0 when either distance
variance vanishes, matching its usual convention.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .segments import TimeSeries


def _as_values(x) -> np.ndarray:
    if isinstance(x, TimeSeries):
        return x.values
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("expected a 1-D value vector")
    if v.size < 2:
        raise ValueError("need at least 2 observations")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    return v


def _check_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    a = _as_values(x)
    b = _as_values(y)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    return a, b


def pearson(x, y) -> float | None:
    """Plain product-moment correlation; None if either input is constant."""
    a, b = _check_pair(x, y)
    da = a - a.mean()
    db = b - b.mean()
    va = float(da @ da)
    vb = float(db @ db)
    floor_a = 1e-12 * float(np.max(a * a)) * a.size
    floor_b = 1e-12 * float(np.max(b * b)) * b.size
    if va <= floor_a or vb <= floor_b:
        return None
    r = float(da @ db) / float(np.sqrt(va * vb))
    return max(-1.0, min(1.0, r))


def spearman(x, y) -> float | None:
    """Rank correlation: Pearson of average ranks; None on all-tied input."""
    # imported here: scipy.stats costs most of the package's import time,
    # and nothing else needs it
    from scipy.stats import rankdata

    a, b = _check_pair(x, y)
    return pearson(rankdata(a, method="average"), rankdata(b, method="average"))


def distance_correlation(x, y) -> float:
    """Distance correlation, biased estimator, in [0, 1].

    Double-centers the pairwise absolute-difference matrices and pools
    the entrywise products.  Quadratic in n, which is fine at the series
    lengths this package targets.
    """
    a, b = _check_pair(x, y)
    A = _centered_distances(a)
    B = _centered_distances(b)
    dcov2 = max(float((A * B).mean()), 0.0)
    dvar_x = float((A * A).mean())
    dvar_y = float((B * B).mean())
    denom = float(np.sqrt(dvar_x * dvar_y))
    if denom <= 0.0:
        return 0.0
    return float(np.sqrt(dcov2 / denom))


def _centered_distances(v: np.ndarray) -> np.ndarray:
    d = np.abs(v[:, None] - v[None, :])
    return d - d.mean(axis=0, keepdims=True) - d.mean(axis=1, keepdims=True) + d.mean()


@dataclass(frozen=True)
class BaselineReport:
    """The three reference measures for one pair."""

    pearson: float | None
    spearman: float | None
    distance_correlation: float

    @classmethod
    def for_pair(cls, x, y) -> "BaselineReport":
        return cls(
            pearson=pearson(x, y),
            spearman=spearman(x, y),
            distance_correlation=distance_correlation(x, y),
        )
