"""Compositional correlation of a series pair.

Given a composition of the common length into parts, each part is centered
by its own mean and the deviation products are pooled:

    var_c(a)    = (1/n) sum_parts sum_i (a_i - part_mean_a)^2
    cov_c(a, b) = (1/n) sum_parts sum_i (a_i - part_mean_a)(b_i - part_mean_b)
    r_c         = cov_c / sqrt(var_c(a) var_c(b))

The single-part composition recovers the plain Pearson correlation.  When
either pooled variance is zero the correlation is Undefined, a value in
its own right (rendered as None here, NA in files), never an error.

The functions below are the direct two-pass form of the definitions, one
composition at a time; they are the reference the tests hold the scan
kernel to, and no package output comes from them (``baselines.pearson``
is the kernel's one-part composition, which sums in another order and
may differ from ``comp_correlation(a, b, (n,))`` in the last bits).
``engine.scan`` evaluates r_c over every composition for a
given minimum part length, tracking the extremes (HCC and LCC, with the
earliest attaining composition in canonical order as BCC and WCC) and
optionally the whole distribution, and returns the :class:`ScanResult`
defined here.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .compositions import (
    CompositionSpec,
    composition_at,
    count_compositions,
    enumerate_compositions,
    validate_composition,
)
from .segments import ConsistencyError, TimeSeries, ZERO_FLOOR_REL

# |r_c| may stick out past 1 by accumulated rounding only; anything past
# this is an internal inconsistency, anything under it is clamped.
UNIT_EXCESS_TOL = 1e-12


def _part_moments(a: np.ndarray, b: np.ndarray, parts: tuple[int, ...]) -> tuple[float, float, float]:
    """Pooled centered sums over the parts, with flat parts flushed to 0.

    A part whose centered sum of squares sits at or below the rounding
    floor (relative to the part's own magnitude) contributes exactly zero,
    and its cross term goes with it.  The pooled variance is therefore
    exactly 0.0 iff every part is constant to within representation.
    """
    var_a = 0.0
    var_b = 0.0
    cov = 0.0
    start = 0
    for length in parts:
        sa = a[start:start + length]
        sb = b[start:start + length]
        da = sa - sa.mean()
        db = sb - sb.mean()
        pa = float(da @ da)
        pb = float(db @ db)
        pab = float(da @ db)
        flat_a = pa <= ZERO_FLOOR_REL * float(np.max(sa * sa)) * length
        flat_b = pb <= ZERO_FLOOR_REL * float(np.max(sb * sb)) * length
        if flat_a:
            pa = 0.0
        if flat_b:
            pb = 0.0
        if flat_a or flat_b:
            pab = 0.0
        var_a += pa
        var_b += pb
        cov += pab
        start += length
    return var_a, var_b, cov


def comp_variance(a: TimeSeries, parts) -> float:
    """Compositional variance of ``a`` under the given composition.

    Zero exactly when every part is constant (to within representation).
    """
    parts = validate_composition(a.n, 2, parts)
    var, _, _ = _part_moments(a.values, a.values, parts)
    return var / a.n


def comp_std(a: TimeSeries, parts) -> float:
    """Compositional standard deviation, sqrt of :func:`comp_variance`."""
    return float(np.sqrt(comp_variance(a, parts)))


def comp_covariance(a: TimeSeries, b: TimeSeries, parts) -> float:
    """Compositional covariance of the pair under the given composition."""
    if a.n != b.n:
        raise ValueError(
            f"series length mismatch: {a.id!r} has {a.n} observations, {b.id!r} has {b.n}"
        )
    parts = validate_composition(a.n, 2, parts)
    _, _, cov = _part_moments(a.values, b.values, parts)
    return cov / a.n


def comp_correlation(a: TimeSeries, b: TimeSeries, parts) -> float | None:
    """Compositional correlation r_c, or None when Undefined.

    Undefined iff either series has zero compositional variance under the
    composition (for example a part-wise constant series).
    """
    if a.n != b.n:
        raise ValueError(
            f"series length mismatch: {a.id!r} has {a.n} observations, {b.id!r} has {b.n}"
        )
    parts = validate_composition(a.n, 2, parts)
    var_a, var_b, cov = _part_moments(a.values, b.values, parts)
    if var_a == 0.0 or var_b == 0.0:
        return None
    r = cov / float(np.sqrt(var_a * var_b))
    if abs(r) > 1.0:
        if abs(r) > 1.0 + UNIT_EXCESS_TOL:
            raise ConsistencyError(f"correlation {r!r} exceeds unit magnitude beyond rounding")
        r = 1.0 if r > 0 else -1.0
    return r


@dataclass(frozen=True)
class ScanOptions:
    """What a scan should keep beyond the extremes.

    distribution: keep the full per-composition value vector (canonical
    order, NaN where Undefined).  clouds: keep per-composition
    (var_a, var_b, cov) alongside, for variance/covariance point clouds.
    Given a sink, ``engine.scan`` streams the same rows to it batch by
    batch instead of keeping them.
    """

    distribution: bool = False
    clouds: bool = False


@dataclass(frozen=True)
class ScanResult:
    """Outcome of scanning every composition of one pair."""

    id_a: str
    id_b: str
    spec: CompositionSpec
    hcc: float | None
    lcc: float | None
    pearson: float | None
    bcc: tuple[int, ...] | None
    wcc: tuple[int, ...] | None
    n_compositions: int
    n_evaluated: int
    n_undefined: int
    values: np.ndarray | None = None
    clouds: np.ndarray | None = None

    @classmethod
    def from_kernel(cls, a: TimeSeries, b: TimeSeries, spec: CompositionSpec,
                    hcc: float, lcc: float, pearson: float, best: int, worst: int,
                    n_undefined: int, values=None, clouds=None) -> "ScanResult":
        """The result of a scan kernel's answer for one pair: values NaN
        where Undefined, BCC and WCC as canonical indices (-1: none)."""
        def value(x: float) -> float | None:
            return None if np.isnan(x) else float(x)

        def parts(index: int) -> tuple[int, ...] | None:
            return None if index < 0 else composition_at(spec, index)

        total = count_compositions(spec)
        return cls(a.id, b.id, spec, value(hcc), value(lcc), value(pearson), parts(best),
                   parts(worst), total, total - n_undefined, n_undefined, values, clouds)

    def distribution(self) -> Iterator[tuple[tuple[int, ...], float | None]]:
        """(composition, value) pairs in canonical order; needs the values
        vector, so scan with ``ScanOptions(distribution=True)``."""
        if self.values is None:
            raise ValueError("scan was not asked to keep the distribution")
        for parts, v in zip(enumerate_compositions(self.spec), self.values):
            yield parts, (None if np.isnan(v) else float(v))
