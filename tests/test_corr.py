import numpy as np
import pytest

from compcorr.compositions import CompositionSpec, enumerate_compositions
from compcorr.corr import (
    ScanOptions,
    comp_correlation,
    comp_covariance,
    comp_std,
    comp_variance,
)
from compcorr.engine import scan
from compcorr.segments import TimeSeries


def reference_correlation(a, b, parts):
    """Definition-level oracle: center each part by its own mean, pool.

    Written against the raw formulas with plain Python sums so it shares
    nothing with the library's evaluation paths.
    """
    n = len(a)
    var_a = var_b = cov = 0.0
    start = 0
    for length in parts:
        xs = a[start : start + length]
        ys = b[start : start + length]
        mx = sum(xs) / length
        my = sum(ys) / length
        var_a += sum((x - mx) ** 2 for x in xs)
        var_b += sum((y - my) ** 2 for y in ys)
        cov += sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        start += length
    if var_a <= 0 or var_b <= 0:
        return None
    return (cov / n) / ((var_a / n) ** 0.5 * (var_b / n) ** 0.5)


# --------------------------------------------------------- frozen examples

def test_hand_computed_moments():
    a = TimeSeries("a", [1, 2, 3, 4])
    b = TimeSeries("b", [4, 3, 2, 1])
    assert comp_variance(a, [2, 2]) == 0.25
    assert comp_variance(a, [4]) == 1.25
    assert comp_covariance(a, b, [4]) == -1.25
    assert comp_correlation(a, b, [4]) == -1.0
    assert comp_std(a, [4]) == pytest.approx(1.25**0.5, rel=1e-15)


def test_opposed_halves():
    # per-part correlations are -1 and -1 but the parts line up positively
    a = TimeSeries("a", [1, 2, 3, 1, 2, 3])
    b = TimeSeries("b", [3, 2, 1, 3, 2, 1])
    assert comp_correlation(a, b, [3, 3]) == -1.0
    assert comp_correlation(a, b, [6]) == -1.0


def test_undefined_when_one_side_is_flat():
    a = TimeSeries("a", [1, 2])
    b = TimeSeries("b", [7, 7])
    assert comp_correlation(a, b, [2]) is None
    assert comp_variance(b, [2]) == 0.0


def test_undefined_when_parts_are_flat_piecewise():
    a = TimeSeries("a", [3, 3, 3, 9, 9, 9])
    b = TimeSeries("b", [1, 2, 3, 4, 5, 6])
    # each part of a is constant, so var_c(a) = 0 under [3,3]
    assert comp_correlation(a, b, [3, 3]) is None
    # but the single-part composition sees the jump
    assert comp_correlation(a, b, [6]) is not None


def test_single_part_equals_pearson():
    rng = np.random.default_rng(202)
    for _ in range(1000):
        n = int(rng.integers(2, 32))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            continue
        r = comp_correlation(TimeSeries("x", x), TimeSeries("y", y), [n])
        ref = np.corrcoef(x, y)[0, 1]
        assert r == pytest.approx(ref, abs=1e-12)


def test_matches_reference_oracle():
    rng = np.random.default_rng(17)
    draws = 0
    while draws < 500:
        n = int(rng.integers(4, 15))
        m = int(rng.integers(2, 4))
        if n < m:
            continue
        comps = list(enumerate_compositions(CompositionSpec(n, m)))
        parts = comps[int(rng.integers(len(comps)))]
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        got = comp_correlation(TimeSeries("x", x), TimeSeries("y", y), parts)
        want = reference_correlation(list(x), list(y), parts)
        assert (got is None) == (want is None)
        if want is not None:
            assert got == pytest.approx(want, abs=1e-9)
        draws += 1


# ------------------------------------------------------------- identities

def test_self_covariance_is_variance():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(4, 20))
        a = TimeSeries("a", rng.normal(size=n))
        comps = list(enumerate_compositions(CompositionSpec(n, 2)))
        parts = comps[int(rng.integers(len(comps)))]
        assert comp_covariance(a, a, parts) == comp_variance(a, parts)
        assert comp_correlation(a, a, parts) == 1.0


def test_sign_flip():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(4, 20))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        comps = list(enumerate_compositions(CompositionSpec(n, 2)))
        parts = comps[int(rng.integers(len(comps)))]
        r = comp_correlation(TimeSeries("x", x), TimeSeries("y", y), parts)
        r_neg = comp_correlation(TimeSeries("x", x), TimeSeries("y", -y), parts)
        if r is None:
            assert r_neg is None
        else:
            assert r_neg == pytest.approx(-r, abs=1e-15)


def test_positive_affine_invariance():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(4, 20))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        comps = list(enumerate_compositions(CompositionSpec(n, 2)))
        parts = comps[int(rng.integers(len(comps)))]
        r = comp_correlation(TimeSeries("x", x), TimeSeries("y", y), parts)
        rt = comp_correlation(
            TimeSeries("x", 3.5 * x - 11.0), TimeSeries("y", 0.02 * y + 400.0), parts
        )
        if r is None:
            assert rt is None
        else:
            assert rt == pytest.approx(r, abs=1e-9)


def test_values_stay_in_unit_interval():
    rng = np.random.default_rng(6)
    for _ in range(10_000):
        n = int(rng.integers(4, 14))
        x = rng.normal(size=n) * 10.0 ** rng.integers(-6, 7)
        y = rng.normal(size=n)
        comps = list(enumerate_compositions(CompositionSpec(n, 2)))
        parts = comps[int(rng.integers(len(comps)))]
        r = comp_correlation(TimeSeries("x", x), TimeSeries("y", y), parts)
        if r is not None:
            assert -1.0 <= r <= 1.0


def test_variance_is_maximal_for_single_part():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(4, 12))
        a = TimeSeries("a", rng.normal(size=n))
        whole = comp_variance(a, [n])
        for parts in enumerate_compositions(CompositionSpec(n, 2)):
            assert comp_variance(a, parts) <= whole + 1e-12


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        comp_correlation(TimeSeries("a", [1, 2, 3]), TimeSeries("b", [1, 2]), [3])
    with pytest.raises(ValueError):
        comp_covariance(TimeSeries("a", [1, 2, 3]), TimeSeries("b", [1, 2]), [3])


# ------------------------------------------------------------------ scan

def test_scan_agrees_with_direct_evaluation():
    rng = np.random.default_rng(33)
    for _ in range(10):
        n = int(rng.integers(6, 14))
        m = int(rng.integers(2, 4))
        spec = CompositionSpec(n, m)
        x = TimeSeries("x", rng.normal(size=n))
        y = TimeSeries("y", rng.normal(size=n))
        res = scan(x, y, spec, ScanOptions(distribution=True))
        assert res.n_compositions == len(list(enumerate_compositions(spec)))
        for parts, v in res.distribution():
            ref = comp_correlation(x, y, parts)
            assert (ref is None) == (v is None)
            if ref is not None:
                assert v == pytest.approx(ref, abs=1e-9)


def test_scan_extremes_bracket_pearson():
    rng = np.random.default_rng(34)
    for _ in range(25):
        n = int(rng.integers(6, 20))
        x = TimeSeries("x", rng.normal(size=n))
        y = TimeSeries("y", rng.normal(size=n))
        res = scan(x, y, CompositionSpec(n, 2))
        assert res.lcc <= res.pearson <= res.hcc
        assert res.lcc <= res.hcc


def test_scan_extremes_take_earliest_composition():
    # identical series give r_c = 1 for every composition; the reported
    # extreme compositions must then both be the canonical first one
    a = TimeSeries("a", np.arange(8.0))
    res = scan(a, TimeSeries("b", np.arange(8.0)), CompositionSpec(8, 2))
    assert res.hcc == 1.0 and res.lcc == 1.0
    first = next(iter(enumerate_compositions(CompositionSpec(8, 2))))
    assert res.bcc == first
    assert res.wcc == first


def test_scan_of_constant_series_is_all_undefined():
    res = scan(
        TimeSeries("c", np.full(10, 2.5)),
        TimeSeries("b", np.arange(10.0)),
        CompositionSpec(10, 2),
    )
    assert res.hcc is None and res.lcc is None and res.pearson is None
    assert res.bcc is None and res.wcc is None
    assert res.n_undefined == res.n_compositions
    assert res.n_evaluated == 0


def test_scan_distribution_is_canonical_order():
    x = TimeSeries("x", np.arange(9.0))
    y = TimeSeries("y", np.arange(9.0) ** 2)
    res = scan(x, y, CompositionSpec(9, 3), ScanOptions(distribution=True))
    comps = [p for p, _ in res.distribution()]
    assert comps == list(enumerate_compositions(CompositionSpec(9, 3)))


def test_scan_clouds_columns():
    x = TimeSeries("x", np.arange(9.0))
    y = TimeSeries("y", np.arange(9.0) ** 2)
    res = scan(x, y, CompositionSpec(9, 3), ScanOptions(distribution=True, clouds=True))
    assert res.clouds is not None
    assert res.clouds.shape == (res.n_compositions, 4)
    for (parts, v), row in zip(res.distribution(), res.clouds):
        r_c, var_a, var_b, cov = row
        assert var_a == pytest.approx(comp_variance(x, parts), abs=1e-12)
        assert var_b == pytest.approx(comp_variance(y, parts), abs=1e-9)
        assert cov == pytest.approx(comp_covariance(x, y, parts), abs=1e-9)
        if v is not None:
            assert r_c == pytest.approx(v, abs=1e-15)


def test_scan_counts_undefined_compositions():
    # a two-level step: any composition cutting exactly at the step and
    # nowhere across it has zero variance (every part constant), the rest
    # see the jump.  4 of the 13 compositions of 8 qualify.
    a = TimeSeries("a", [5, 5, 5, 5, 8, 8, 8, 8])
    b = TimeSeries("b", np.arange(8.0))
    res = scan(a, b, CompositionSpec(8, 2), ScanOptions(distribution=True))
    undef = {p for p, v in res.distribution() if v is None}
    assert undef == {(2, 2, 2, 2), (2, 2, 4), (4, 2, 2), (4, 4)}
    assert res.n_undefined == 4
    assert res.n_evaluated == res.n_compositions - 4
    assert res.hcc is not None  # plenty of defined compositions remain
