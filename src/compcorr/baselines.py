"""Reference association measures for comparison with the compositional scan.

Pearson, Spearman (Pearson over average ranks), and the distance
correlation of Szekely, Rizzo and Bakirov with the biased double-centered
estimator.  All take equal-length 1-D arrays or TimeSeries values and
return plain floats.  Pearson is the one-part composition's r_c, so it
is None (Undefined) under the kernel's zero floor and clamps as the
kernel does, and so does Spearman.  Distance correlation returns 0.0
when either distance variance vanishes, its usual convention.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corr import comp_correlation
from .segments import TimeSeries


def _check_pair(x, y) -> tuple[TimeSeries, TimeSeries]:
    """Both inputs as series (TimeSeries validates raw values) of one length."""
    a, b = (v if isinstance(v, TimeSeries) else TimeSeries(name, v)
            for name, v in (("x", x), ("y", y)))
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} vs {b.n}")
    return a, b


def pearson(x, y) -> float | None:
    """Plain product-moment correlation; None if either input is constant."""
    a, b = _check_pair(x, y)
    return comp_correlation(a, b, (a.n,))


def spearman(x, y) -> float | None:
    """Rank correlation: Pearson of average ranks; None on all-tied input."""
    # imported here: scipy.stats costs most of the package's import time,
    # and nothing else needs it
    from scipy.stats import rankdata

    a, b = _check_pair(x, y)
    return pearson(rankdata(a.values, method="average"), rankdata(b.values, method="average"))


def distance_correlation(x, y) -> float:
    """Distance correlation, biased estimator, in [0, 1].

    Double-centers the pairwise absolute-difference matrices and pools
    the entrywise products.  Quadratic in n, which is fine at the series
    lengths this package targets.
    """
    a, b = _check_pair(x, y)
    A = _centered_distances(a.values)
    B = _centered_distances(b.values)
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
