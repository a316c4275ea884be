"""Property tests of the scan kernel; skipped where Hypothesis is not installed."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from compcorr.compositions import CompositionSpec  # noqa: E402
from compcorr.engine import scan  # noqa: E402
from compcorr.segments import TimeSeries  # noqa: E402


@st.composite
def grid_pairs(draw):
    """(n, m, a, b): values on a 0.001 grid up to 1000, so repeats, constant
    stretches and constant series (Undefined) are common."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(max(m, 3), 14))
    value = st.integers(-10**6, 10**6).map(lambda k: k / 1000)
    small = st.integers(-3, 3).map(float)
    a = draw(st.lists(st.one_of(value, small), min_size=n, max_size=n))
    b = draw(st.lists(st.one_of(value, small), min_size=n, max_size=n))
    return n, m, np.array(a), np.array(b)


@st.composite
def normal_pairs(draw):
    """(n, m, a, b): seeded unit-scale normal series."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(max(m, 3), 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return n, m, rng.normal(size=n), rng.normal(size=n)


def run(n, m, a, b):
    r = scan(TimeSeries("a", a), TimeSeries("b", b), CompositionSpec(n, m))
    return r.hcc, r.lcc, r.pearson, r.bcc, r.wcc, r.n_undefined


@settings(deadline=None)
@given(grid_pairs())
def test_scan_is_symmetric_in_its_pair(case):
    n, m, a, b = case
    assert run(n, m, a, b) == run(n, m, b, a)


@settings(deadline=None)
@given(grid_pairs())
def test_sign_flip_swaps_the_extremes_exactly(case):
    n, m, a, b = case
    hcc, lcc, pe, bcc, wcc, undefined = run(n, m, a, b)
    f_hcc, f_lcc, f_pe, f_bcc, f_wcc, f_undefined = run(n, m, a, -b)
    assert f_hcc == (None if lcc is None else -lcc)
    assert f_lcc == (None if hcc is None else -hcc)
    assert f_pe == (None if pe is None else -pe)
    assert (f_bcc, f_wcc, f_undefined) == (wcc, bcc, undefined)


@settings(deadline=None)
@given(normal_pairs(), st.integers(-6, 6), st.floats(-1e3, 1e3))
def test_pearson_is_the_textbook_r(case, exponent, offset):
    n, m, a, b = case
    a = a * 10.0 ** exponent + offset
    pe = run(n, m, a, b)[2]
    assert pe == pytest.approx(np.corrcoef(a, b)[0, 1], rel=0, abs=1e-12)


@settings(deadline=None)
@given(normal_pairs())
def test_a_large_offset_barely_moves_the_extremes(case):
    n, m, a, b = case
    base = run(n, m, a, b)
    moved = run(n, m, a + 1e6, b + 1e6)
    for x, y in zip(base[:3], moved[:3]):
        assert abs(x - y) <= 1e-9


@settings(deadline=None)
@given(grid_pairs(), st.integers(-200, 200), st.booleans())
def test_a_power_of_two_changes_no_bit(case, exponent, first):
    # each row enters the kernel scaled to max |x| in [0.5, 1) by a power of two
    n, m, a, b = case
    scale = 2.0 ** exponent
    moved = run(n, m, a * scale, b) if first else run(n, m, a, b * scale)
    assert repr(moved) == repr(run(n, m, a, b))


@settings(deadline=None)
@given(normal_pairs(), st.floats(1e-2, 1e2), st.floats(-1e3, 1e3), st.booleans())
def test_a_positive_affine_map_barely_moves_the_extremes(case, scale, offset, first):
    n, m, a, b = case
    base = run(n, m, a, b)
    moved = run(n, m, a * scale + offset, b) if first else run(n, m, a, b * scale + offset)
    for x, y in zip(base[:3], moved[:3]):
        assert abs(x - y) <= 1e-9
