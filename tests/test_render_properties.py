"""Property tests of the bulk renderer; skipped where Hypothesis is not installed."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from compcorr.engine import fixed_width, format_number, render_fixed  # noqa: E402


@given(st.lists(st.floats(), min_size=1, max_size=40), st.integers(0, 15))
def test_render_fixed_matches_format_number_for_any_float(values, precision):
    mat = render_fixed(np.array(values, dtype=np.float64), precision)
    got = [bytes(row[row != 0]).decode() for row in mat]
    assert got == [format_number(None if x != x else x, precision) for x in values]


@given(st.lists(st.floats(), min_size=1, max_size=40), st.integers(0, 17),
       st.integers(0, 9), st.integers(0, 9), st.integers(0, 2), st.integers(1, 254))
def test_render_fixed_fills_its_field_of_a_used_line_matrix(values, precision, left, right, spare, fill):
    # the field sits among other bytes of a line matrix already filled with
    # non-NUL bytes, two different ones: every byte of the field is written,
    # the same whatever it held, and no byte outside it
    want = [format_number(None if x != x else x, precision).encode() for x in values]
    width = max(fixed_width(precision), *map(len, want)) + spare
    fields = []
    for byte in (fill, fill + 1):
        lines = np.full((len(values), left + width + right), byte, np.uint8)
        field = lines[:, left:left + width]
        assert render_fixed(np.array(values, dtype=np.float64), precision, field) is field
        assert (lines[:, :left] == byte).all() and (lines[:, left + width:] == byte).all()
        fields.append(field)
    assert (fields[0] == fields[1]).all()
    assert [bytes(row).replace(b"\0", b"") for row in fields[0]] == want
