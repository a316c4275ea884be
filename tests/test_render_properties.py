"""Property tests of the bulk renderer; skipped where Hypothesis is not installed."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from compcorr.engine import format_number, render_fixed  # noqa: E402


@given(st.lists(st.floats(), min_size=1, max_size=40), st.integers(0, 15))
def test_render_fixed_matches_format_number_for_any_float(values, precision):
    mat = render_fixed(np.array(values, dtype=np.float64), precision)
    got = [bytes(row[row != 0]).decode() for row in mat]
    assert got == [format_number(None if x != x else x, precision) for x in values]
