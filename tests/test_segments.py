import numpy as np
import pytest

from compcorr.segments import (
    SegmentTable,
    TimeSeries,
    segment_count,
    segment_ids,
    segment_index,
)


def naive_css(x, y, start, length):
    """Centered cross sum of one segment, the textbook way."""
    xs = x[start : start + length]
    ys = y[start : start + length]
    return float(np.sum((xs - xs.mean()) * (ys - ys.mean())))


def all_segments(n, m):
    for start in range(0, n - m + 1):
        for length in range(m, n - start + 1):
            yield start, length


# ------------------------------------------------------------ time series

def test_time_series_basics():
    s = TimeSeries("a", [1, 2, 3])
    assert s.n == 3
    assert s.values.dtype == np.float64


def test_time_series_rejects_bad_values():
    with pytest.raises(ValueError):
        TimeSeries("a", [1.0])  # too short
    with pytest.raises(ValueError):
        TimeSeries("a", [1.0, float("nan")])
    with pytest.raises(ValueError):
        TimeSeries("a", [1.0, float("inf")])
    with pytest.raises(ValueError):
        TimeSeries("a", [[1.0, 2.0], [3.0, 4.0]])


# ---------------------------------------------------------- segment index

def test_segment_count_formula():
    for n in range(4, 40):
        for m in range(2, 5):
            if n < m:
                continue
            k = n - m + 1
            assert segment_count(n, m) == k * (k + 1) // 2


def test_segment_index_is_a_bijection():
    n, m = 23, 4
    seen = set()
    for start, length in all_segments(n, m):
        sid = segment_index(n, m, start, length)
        assert 0 <= sid < segment_count(n, m)
        seen.add(sid)
    assert len(seen) == segment_count(n, m)


def test_segment_ids_are_length_major():
    """Ids run through every length-m segment in start order, then length m + 1, ..."""
    for n, m in [(6, 2), (13, 2), (23, 4)]:
        lengths = np.concatenate([np.full(n - length + 1, length) for length in range(m, n + 1)])
        starts = np.concatenate([np.arange(n - length + 1) for length in range(m, n + 1)])
        ids = segment_ids(n, m, starts, lengths)
        assert np.array_equal(ids, np.arange(segment_count(n, m)))
        for start, length in all_segments(n, m):
            assert segment_index(n, m, start, length) == ids[(starts == start) & (lengths == length)]


def test_table_arrays_are_per_length_window_sums():
    rng = np.random.default_rng(5)
    n, m = 17, 3
    a = TimeSeries("a", rng.normal(size=n))
    b = TimeSeries("b", rng.normal(size=n) * 4.0)
    table = SegmentTable.build(a, b, m)
    for got, (x, y) in zip(table.arrays(), [(a, a), (b, b), (a, b)]):
        want = [naive_css(x.values, y.values, start, length)
                for length in range(m, n + 1) for start in range(n - length + 1)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_segment_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        segment_index(10, 2, 0, 1)  # too short
    with pytest.raises(ValueError):
        segment_index(10, 2, 9, 2)  # runs past the end
    with pytest.raises(ValueError):
        segment_index(10, 2, -1, 3)


# ------------------------------------------------------------ table values

def test_table_matches_naive_two_pass():
    rng = np.random.default_rng(101)
    for _ in range(50):
        n = int(rng.integers(6, 30))
        m = int(rng.integers(2, 5))
        if n < m:
            continue
        a = TimeSeries("a", rng.normal(size=n) * rng.uniform(0.1, 50))
        b = TimeSeries("b", rng.normal(size=n))
        table = SegmentTable.build(a, b, m)
        for start, length in all_segments(n, m):
            va, vb, vab = table.segment_contrib(start, length)
            assert va == pytest.approx(naive_css(a.values, a.values, start, length), abs=1e-9)
            assert vb == pytest.approx(naive_css(b.values, b.values, start, length), abs=1e-9)
            assert vab == pytest.approx(naive_css(a.values, b.values, start, length), abs=1e-9)


def test_self_sums_never_negative():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(4, 40))
        a = TimeSeries("a", rng.normal(size=n) * 10.0 ** rng.integers(-6, 7))
        table = SegmentTable.build(a, a, 2)
        css_a, css_b, _ = table.arrays()
        assert (css_a >= 0).all()
        assert (css_b >= 0).all()


def test_cauchy_schwarz_per_segment():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(5, 25))
        a = TimeSeries("a", rng.normal(size=n))
        b = TimeSeries("b", rng.normal(size=n))
        table = SegmentTable.build(a, b, 2)
        css_a, css_b, css_ab = table.arrays()
        assert (css_ab**2 <= css_a * css_b * (1 + 1e-9) + 1e-18).all()


def test_segment_stats_are_local():
    """Values outside a segment must not affect its sums, bit for bit."""
    rng = np.random.default_rng(31)
    n, m = 20, 2
    base = rng.normal(size=n)
    b = rng.normal(size=n)
    start, length = 7, 5
    tab1 = SegmentTable.build(TimeSeries("a", base), TimeSeries("b", b), m)
    ref = tab1.segment_contrib(start, length)
    for _ in range(20):
        other = base.copy()
        # perturb everything outside [start, start+length)
        mask = np.ones(n, bool)
        mask[start : start + length] = False
        other[mask] = rng.normal(size=mask.sum()) * 1e6
        tab2 = SegmentTable.build(TimeSeries("a", other), TimeSeries("b", b), m)
        got = tab2.segment_contrib(start, length)
        assert got == ref  # exact equality, not approx


def test_large_offset_conditioning():
    """A huge common offset must not poison the centered sums."""
    rng = np.random.default_rng(47)
    n, m = 23, 4
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    t0 = SegmentTable.build(TimeSeries("a", x), TimeSeries("b", y), m)
    t1 = SegmentTable.build(TimeSeries("a", x + 1e6), TimeSeries("b", y + 1e6), m)
    for arr0, arr1 in zip(t0.arrays(), t1.arrays()):
        scale = np.maximum(np.abs(arr0), 1.0)
        assert (np.abs(arr0 - arr1) / scale < 1e-7).all()


def test_constant_segments_flush_to_exact_zero():
    x = np.ones(12) * 3.7
    x[8:] = np.arange(4)
    a = TimeSeries("a", x)
    b = TimeSeries("b", np.arange(12, dtype=float))
    table = SegmentTable.build(a, b, 2)
    css_a, _, css_ab = table.arrays()
    for start, length in [(0, 2), (0, 8), (3, 4)]:
        sid = segment_index(12, 2, start, length)
        assert css_a[sid] == 0.0
        assert css_ab[sid] == 0.0  # cross zeroed when one side is flat


def test_flush_respects_scale():
    """Tiny genuine variation on a tiny scale is not flushed away."""
    x = np.array([1e-9, 2e-9, 3e-9, -1e-9, 0.0, 4e-9])
    table = SegmentTable.build(TimeSeries("a", x), TimeSeries("b", x), 2)
    css_a, _, _ = table.arrays()
    sid = segment_index(6, 2, 0, 6)
    assert css_a[sid] > 0.0


def test_segment_contrib_rejects_bad_segment():
    a = TimeSeries("a", np.arange(10.0))
    table = SegmentTable.build(a, a, 3)
    with pytest.raises(ValueError):
        table.segment_contrib(0, 2)
    with pytest.raises(ValueError):
        table.segment_contrib(8, 3)
