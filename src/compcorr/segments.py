"""Centered sums over every contiguous segment: the numeric backbone of the scan kernel.

A segment is a run of at least ``m`` consecutive observations.  For a pair
of equal-length series the kernel needs, per segment, the centered sums

    css_a  = sum (a_i - mean_a)^2        over the segment
    css_b  = sum (b_i - mean_b)^2
    css_ab = sum (a_i - mean_a)(b_i - mean_b)

where the means are the segment's own.  Compositional variance and
covariance are sums of these contributions over the parts of a
composition, so one table answers every composition of the pair.

``series_segment_sums`` builds, once per process, one table per row of
running co-moment steps (West's updating, anchored at each window's
first value; n(n-1)/2 floats per row).  :func:`window_sums` turns the
steps of two rows into every window's cross sum: a product of the two
columns, then one in-place add per length.  ``series_segment_css`` takes
the self sums the same way, with the one zero-flush rule, and
:func:`flush_cross` makes a flushed segment's cross terms follow.  Every
step reads only its own window's values, and every reduction is per
element or per window, so a contribution depends only on its window
(perturbing an observation outside it leaves it bit-identical), not on
which other rows share the table; the product is commutative, so (a, b)
and (b, a) give the same bits and a self pair gives the self sums, which
are sums of squares and never negative.  The anchor keeps a large common
offset out of the steps.  Flat segment ids (:func:`segment_ids`) are
length-major, the order the sums come out in, so no table is ever
permuted.  :class:`SegmentTable` is the one-pair public view of the same
builder.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# A segment whose variance sum is at or below ZERO_FLOOR_REL x (segment max
# squared magnitude) x (segment length) is flushed to exactly 0.  At double
# precision a constant window leaves a rounding residue near 5e-32 relative
# (deviations of one ulp each), while genuine variation d relative to the
# magnitude contributes about d^2: the floor at 1e-24 cuts at d = 1e-12,
# eight orders above the residue and six below the offset-robustness
# requirement (variation of 1e-6 relative, an offset of 1e6 on unit data,
# must survive).  The flush is what makes "zero compositional variance" a
# decidable predicate.  Anchoring at the segment's own magnitude (not the
# whole series') keeps every segment's value a function of its own data.
ZERO_FLOOR_REL = 1e-24
# Self sums more negative than this (relative, per segment) indicate a bug
# rather than rounding; sums of squared steps cannot produce them at all.
NEGATIVE_GUARD_REL = 1e-9


class ConsistencyError(RuntimeError):
    """An internal numerical invariant failed; indicates a bug, not bad input."""


@dataclass(frozen=True)
class TimeSeries:
    """One named series of at least two finite observations."""

    id: str
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError(f"series {self.id!r}: expected a 1-D value vector")
        if values.size < 2:
            raise ValueError(f"series {self.id!r}: needs at least 2 observations, got {values.size}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"series {self.id!r}: values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return int(self.values.size)


def segment_count(n: int, m: int) -> int:
    k = n - m + 1
    return k * (k + 1) // 2


def segment_ids(n: int, m: int, starts, lengths):
    """Flat ids of segments (start, length), length-major.

    Every segment of length m in start order comes first, then every one
    of length m + 1, and so on: the order in which the tables are built.
    Takes and returns ints or integer arrays alike.
    """
    d = lengths - m
    return d * (n - m + 1) - d * (d - 1) // 2 + starts


def segment_index(n: int, m: int, start: int, length: int) -> int:
    """Flat id of segment (start, length); validates the bounds."""
    if length < m:
        raise ValueError(f"segment length {length} is shorter than the minimum part m={m}")
    if start < 0 or start + length > n:
        raise ValueError(f"segment ({start}, {length}) falls outside a series of length {n}")
    return int(segment_ids(n, m, start, length))


def segment_max_sq(anchor: np.ndarray, m: int) -> np.ndarray:
    """Per-segment maximum squared magnitude of ``anchor`` rows (k, n), (nseg, k).

    This is the scale that anchors the zero floor and the rounding guard.
    It is computed per segment so the thresholds, like the sums they
    police, depend only on the segment's own data.
    """
    sq = np.square(np.atleast_2d(anchor))
    return np.concatenate([sliding_window_view(sq, length, axis=1).max(axis=2).T
                           for length in range(m, sq.shape[1] + 1)])


def series_segment_sums(X: np.ndarray) -> np.ndarray:
    """The co-moment step table of every row of X (S, n): (n(n-1)/2, S).

    Rows are k-major: for k = 2..n, one row per start t = 0..n-k, with
    the dataset rows innermost.  With y_l = x[t+l] - x[t], the window's
    values anchored at its first one, and s = y_0 + ... + y_{k-2} summed
    left to right, the entry is

        U[k, t] = sqrt((k-1)/k) * (y_{k-1} - s/(k-1)),

    West's update of the centered sums (Welford 1962; Chan, Golub and
    LeVeque 1983): the centered cross sum of rows a and b over the window
    (t, L) is U_a[2,t] U_b[2,t] + ... + U_a[L,t] U_b[L,t], added in
    increasing k (:func:`window_sums`).  Each entry reads x[t..t+k) alone.
    """
    XT = np.ascontiguousarray(np.atleast_2d(X).T)
    n = XT.shape[0]
    steps = np.empty((n * (n - 1) // 2, XT.shape[1]))
    s = np.zeros_like(XT[:-1])
    at = 0
    for k in range(2, n + 1):
        width = n - k + 1
        y = XT[k - 1:] - XT[:width]
        s = s[:width]
        np.multiply(y - s / (k - 1), math.sqrt((k - 1) / k), out=steps[at:at + width])
        s += y
        at += width
    return steps


def window_sums(steps: np.ndarray, m: int, a, b, out=None) -> np.ndarray:
    """Centered cross sums of columns a and b of a step table over every segment.

    ``a`` and ``b`` index columns of ``steps`` (:func:`series_segment_sums`)
    and broadcast against each other.  Each window's sum adds its steps'
    products in increasing k, in place: slice k of the product table
    gains the head of slice k - 1.  Returns the (nseg, ...) segments of
    length m and up, in segment-id order, as a view of ``out`` (or of a
    new array).  With a == b these are the self sums.
    """
    table = np.multiply(steps[:, a], steps[:, b], out=out)
    n = (1 + math.isqrt(1 + 8 * len(steps))) // 2
    at = 0
    for k in range(3, n + 1):
        width = n - k + 1
        table[at + width + 1:at + 2 * width + 1] += table[at:at + width]
        at += width + 1
    return table[len(steps) - segment_count(n, m):]


def series_segment_css(X: np.ndarray, m: int, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row self css over every segment, with the zero floor applied.

    ``steps`` is ``series_segment_sums`` of X (S, n); returns (css,
    zero_mask), both (nseg, S).  A segment at or below the floor is
    flushed to exactly 0 and marked, and the cross sums of every pair it
    takes part in follow.
    """
    rows = slice(None)
    css = window_sums(steps, m, rows, rows)
    lengths = np.repeat(np.arange(m, X.shape[1] + 1), np.arange(X.shape[1] - m + 1, 0, -1))
    scale = segment_max_sq(X, m) * lengths[:, None]
    if np.any(css < -NEGATIVE_GUARD_REL * scale):
        raise ConsistencyError("segment variance sum fell below the rounding guard")
    zero = css <= ZERO_FLOOR_REL * scale
    css[zero] = 0.0
    return css, zero


def flush_cross(cross: np.ndarray, zero_a: np.ndarray, zero_b: np.ndarray) -> np.ndarray:
    """Zero, in place, the cross sums whose segment was flushed on either
    side, so per-segment Cauchy-Schwarz survives the flush."""
    cross[zero_a | zero_b] = 0.0
    return cross


class SegmentTable:
    """All per-segment centered sums for one pair of series.

    Build once with :meth:`build` (the scan kernel's own builder, on the
    two rows), then query any segment in O(1) or take the flat arrays.
    """

    __slots__ = ("id_a", "id_b", "n", "m", "css_a", "css_b", "css_ab", "zero_a", "zero_b")

    def __init__(self, id_a, id_b, n, m, css_a, css_b, css_ab, zero_a, zero_b):
        self.id_a = id_a
        self.id_b = id_b
        self.n = n
        self.m = m
        self.css_a = css_a
        self.css_b = css_b
        self.css_ab = css_ab
        self.zero_a = zero_a
        self.zero_b = zero_b

    @classmethod
    def build(cls, a: TimeSeries, b: TimeSeries, m: int) -> "SegmentTable":
        if a.n != b.n:
            raise ValueError(
                f"series length mismatch: {a.id!r} has {a.n} observations, {b.id!r} has {b.n}"
            )
        n = a.n
        if m < 2:
            raise ValueError(f"minimum part length must be at least 2, got m={m}")
        if n < m:
            raise ValueError(f"series of length {n} cannot hold a part of length m={m}")
        X = np.vstack([a.values, b.values])
        steps = series_segment_sums(X)
        css, zero = series_segment_css(X, m, steps)
        css_ab = flush_cross(window_sums(steps, m, 0, 1), zero[:, 0], zero[:, 1])
        return cls(a.id, b.id, n, m, css[:, 0], css[:, 1], css_ab, zero[:, 0], zero[:, 1])

    def segment_contrib(self, start: int, length: int) -> tuple[float, float, float]:
        """(css_a, css_b, css_ab) for the segment at ``start`` of ``length``."""
        i = segment_index(self.n, self.m, start, length)
        return float(self.css_a[i]), float(self.css_b[i]), float(self.css_ab[i])

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three flat per-segment vectors, in segment-id (length-major) order."""
        return self.css_a, self.css_b, self.css_ab
