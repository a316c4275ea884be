"""Centered sums over every contiguous segment: the numeric backbone of the scan kernel.

A segment is a run of at least ``m`` consecutive observations.  For a pair
of equal-length series the kernel needs, per segment, the centered sums

    css_a  = sum (a_i - mean_a)^2        over the segment
    css_b  = sum (b_i - mean_b)^2
    css_ab = sum (a_i - mean_a)(b_i - mean_b)

where the means are the segment's own.  Compositional variance and
covariance are sums of these contributions over the parts of a
composition, so one table answers every composition of the pair.

``series_segment_sums`` and ``window_deviations`` build the deviations of
every window of every row from the window's own mean, once per process;
``series_segment_css`` (self sums, with the one zero-flush rule) and
``segment_cross_css`` (cross sums) both reduce that table.  Each sum is
two-pass within its own window, on the raw values, and each reduction is
per element or per window.  So a contribution depends only on its window
(perturbing an observation outside it leaves it bit-identical), not on
which other rows share the table, and the self sums are nonnegative.
Flat segment ids (:func:`segment_ids`) are length-major, the order the
tables are built in, so no table is ever permuted.  :class:`SegmentTable`
is the one-pair public view of the same builder.
"""
from __future__ import annotations

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
# rather than rounding; the two-pass build cannot produce them at all.
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
    """Per-segment maximum squared magnitude of ``anchor`` rows (k, n).

    This is the scale that anchors the zero floor and the rounding guard.
    It is computed per segment so the thresholds, like the sums they
    police, depend only on the segment's own data.
    """
    sq = np.square(np.atleast_2d(anchor))
    return np.concatenate([sliding_window_view(sq, length, axis=1).max(axis=2)
                           for length in range(m, sq.shape[1] + 1)], axis=1)


def series_segment_sums(X: np.ndarray, m: int) -> tuple[np.ndarray, ...]:
    """Plain sums of every window of each row of X (k, n), one (k, n-L+1) array per length L = m..n.

    Each window's sum accumulates left to right (sum(s, L) = sum(s, L-1) +
    x[s+L-1]), elementwise across windows and rows, so it is a function of
    its window's values alone.
    """
    sums = []
    total = X
    for length in range(2, X.shape[1] + 1):
        total = total[:, :-1] + X[:, length - 1:]
        if length >= m:
            sums.append(total)
    return tuple(sums)


def window_deviations(X: np.ndarray, sums: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Deviations of every window from its own mean, one (k, n-L+1, L) array per length.

    ``sums`` is ``series_segment_sums`` of X: this is the second pass.
    """
    m = X.shape[1] - len(sums) + 1
    return tuple(sliding_window_view(X, length, axis=1) - (total / length)[:, :, None]
                 for length, total in enumerate(sums, start=m))


def _window_dot(dev: tuple[np.ndarray, ...], rows, i) -> np.ndarray:
    # (rows, nseg) dot products of the deviations of rows and row(s) i over
    # each window; each is one contiguous length-L reduction, the same
    # whichever rows are reduced alongside it.  Stored segment-major, so
    # the transpose the block products take is contiguous without a copy.
    spec = "jsl,jsl->js" if isinstance(i, slice) else "jsl,sl->js"
    return np.concatenate([np.einsum(spec, d[rows], d[i]).T for d in dev]).T


def series_segment_css(X: np.ndarray, dev: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Per-row self css over every segment, with the zero floor applied.

    ``dev`` is ``window_deviations`` of X (k, n); returns (css, zero_mask),
    both (k, nseg).  A segment at or below the floor is flushed to exactly
    0 and marked, and the cross sums of every pair it takes part in follow.
    """
    m = dev[0].shape[2]
    rows = slice(None)
    css = _window_dot(dev, rows, rows)
    lengths = np.repeat(np.arange(m, X.shape[1] + 1), [d.shape[1] for d in dev])
    scale = segment_max_sq(X, m) * lengths
    if np.any(css < -NEGATIVE_GUARD_REL * scale):
        raise ConsistencyError("segment variance sum fell below the rounding guard")
    zero = css <= ZERO_FLOOR_REL * scale
    css[zero] = 0.0
    return css, zero


def segment_cross_css(dev: tuple[np.ndarray, ...], zero: np.ndarray, i: int, j0: int, j1: int) -> np.ndarray:
    """Cross css of row i with each of rows j0..j1-1, (j1 - j0, nseg).

    A segment flushed on either side contributes no cross term, so
    per-segment Cauchy-Schwarz survives the flush.
    """
    cross = _window_dot(dev, slice(j0, j1), i)
    cross[zero[i][None, :] | zero[j0:j1]] = 0.0
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
        dev = window_deviations(X, series_segment_sums(X, m))
        css, zero = series_segment_css(X, dev)
        css_ab = segment_cross_css(dev, zero, 0, 1, 2)[0]
        return cls(a.id, b.id, n, m, css[0], css[1], css_ab, zero[0], zero[1])

    def segment_contrib(self, start: int, length: int) -> tuple[float, float, float]:
        """(css_a, css_b, css_ab) for the segment at ``start`` of ``length``."""
        i = segment_index(self.n, self.m, start, length)
        return float(self.css_a[i]), float(self.css_b[i]), float(self.css_ab[i])

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three flat per-segment vectors, in segment-id (length-major) order."""
        return self.css_a, self.css_b, self.css_ab
