import re
import warnings

import numpy as np
import pytest

from compcorr.datasets import (
    DEFAULT_RANGES,
    Dataset,
    FUNCTIONS,
    SynthSpec,
    generate,
    load_dataset,
    synth_dataset,
    write_dataset,
)
from compcorr.segments import TimeSeries


def make(tmp_path, text, name="data.tsv"):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------- loading

def test_load_tab_separated_with_header(tmp_path):
    p = make(tmp_path, "id\tt0\tt1\tt2\na\t1\t2\t3\nb\t4\t5\t6\n")
    ds = load_dataset(p)
    assert ds.ids() == ["a", "b"]
    assert ds.n == 3
    assert list(ds.get("a").values) == [1.0, 2.0, 3.0]
    assert ds.load_report.header is True
    assert ds.load_report.delimiter == "\t"


def test_load_sniffs_comma_and_semicolon(tmp_path):
    ds = load_dataset(make(tmp_path, "a,1,2,3\nb,4,5,6\n"))
    assert ds.load_report.delimiter == ","
    ds = load_dataset(make(tmp_path, "a;1;2;3\nb;4;5;6\n", name="d2.csv"))
    assert ds.load_report.delimiter == ";"


def test_load_headerless_numeric_second_field(tmp_path):
    ds = load_dataset(make(tmp_path, "a\t1\t2\t3\nb\t4\t5\t6\n"))
    assert ds.load_report.header is False
    assert ds.ids() == ["a", "b"]


def test_load_header_override(tmp_path):
    p = make(tmp_path, "x\t1\t2\t3\ny\t4\t5\t6\n")
    ds = load_dataset(p, header="yes")
    assert ds.ids() == ["y"]
    ds = load_dataset(p, header="no")
    assert ds.ids() == ["x", "y"]


def test_load_skips_comments_and_reads_time_labels(tmp_path):
    text = "# comment line\n# time\t0\t10\t20\nid\tc1\tc2\tc3\na\t1\t2\t3\n"
    ds = load_dataset(make(tmp_path, text))
    assert ds.time_labels == [0.0, 10.0, 20.0]
    assert ds.ids() == ["a"]


def test_load_excludes_non_numeric_rows_with_warning(tmp_path):
    p = make(tmp_path, "a\t1\t2\t3\nbad\t1\tNaN\t3\nb\t4\t5\t6\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds = load_dataset(p)
    assert ds.ids() == ["a", "b"]
    assert len(ds.load_report.excluded) == 1
    assert ds.load_report.excluded[0][1] == "bad"
    assert any("bad" in str(w.message) for w in caught)


def test_load_headerless_first_row_missing_its_first_observation(tmp_path):
    # a first row with a number among its observations is data, not a header
    p = make(tmp_path, "g1\tNA\t1.0\t2.0\t3.0\ng2\t1\t2\t3\t4\ng3\t5\t6\t7\t8\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds = load_dataset(p)
    assert ds.load_report.header is False
    assert ds.ids() == ["g2", "g3"]
    assert [(line, sid) for line, sid, _ in ds.load_report.excluded] == [(1, "g1")]
    assert any("g1" in str(w.message) for w in caught)


def test_load_ragged_row_reports_line_number(tmp_path):
    p = make(tmp_path, "a\t1\t2\t3\nb\t4\t5\n")
    with pytest.raises(ValueError, match="line 2"):
        load_dataset(p)


def test_load_duplicate_ids_error(tmp_path):
    p = make(tmp_path, "a\t1\t2\t3\na\t4\t5\t6\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_dataset(p)


def test_load_no_usable_rows_error(tmp_path):
    p = make(tmp_path, "a\tx\ty\tz\nb\tp\tq\tr\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError):
            load_dataset(p)


def test_load_too_narrow_error(tmp_path):
    p = make(tmp_path, "a\t1\nb\t2\n")
    with pytest.raises(ValueError):
        load_dataset(p)


def test_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(9)
    series = tuple(TimeSeries(f"s{i}", rng.normal(size=11)) for i in range(5))
    labels = list(rng.normal(size=11))
    ds = Dataset(series=series, time_labels=labels, name="rt")
    p = tmp_path / "rt.tsv"
    write_dataset(ds, p)
    back = load_dataset(p)
    assert back.ids() == [s.id for s in series]
    assert back.time_labels == labels
    for s in series:
        assert np.array_equal(back.get(s.id).values, s.values)


# ---------------------------------------------------------------- dataset

def test_dataset_validation():
    a = TimeSeries("a", [1, 2, 3])
    with pytest.raises(ValueError, match="duplicate"):
        Dataset(series=(a, TimeSeries("a", [4, 5, 6])))
    with pytest.raises(ValueError, match="length"):
        Dataset(series=(a, TimeSeries("b", [1, 2])))
    with pytest.raises(ValueError):
        Dataset(series=())
    with pytest.raises(ValueError):
        Dataset(series=(a,), time_labels=[1.0, 2.0])


def test_dataset_lookup():
    a = TimeSeries("a", [1, 2, 3])
    ds = Dataset(series=(a,))
    assert ds.get("a") is a
    with pytest.raises(ValueError, match="no series named"):
        ds.get("z")
    assert len(ds) == 1


# -------------------------------------------------------------- synthesis

def test_generate_grid_formula():
    x, y = generate(SynthSpec("square", -1.0, 1.0, 30))
    assert x.n == y.n == 31
    assert x.values[0] == -1.0 and x.values[-1] == 1.0
    for i, xv in enumerate(x.values):
        assert xv == pytest.approx(-1.0 + i * (2.0 / 30), abs=1e-15)
        assert y.values[i] == xv * xv
    assert x.id == "x" and y.id == "square"


def test_generate_known_functions():
    xs = np.linspace(-2, 2, 9)
    cases = {
        "square": xs**2,
        "cubic_minus_x": xs**3 - xs,
        "quartic": xs**4 - 10 * xs**2 + 9,
        "monotone_cubic": xs**3 + xs**2 + 2 * xs + 4,
    }
    assert set(cases) == set(FUNCTIONS) == set(DEFAULT_RANGES)
    for name, want in cases.items():
        x, y = generate(SynthSpec(name, -2.0, 2.0, 8))
        assert np.allclose(y.values, want, atol=1e-12)


def test_even_functions_are_symmetric_on_symmetric_grids():
    # whenever the computed grid mirrors exactly, even functions must
    # produce exactly mirrored values.  A grid mirrors exactly when the
    # step is exactly representable (range / pieces a power-of-two ratio);
    # 30-piece grids generally are not, so the property is conditional.
    seen_exact = 0
    for lo_hi, pieces in ((1.0, 4), (1.0, 8), (3.0, 8), (2.5, 10), (2.0, 16), (1.0, 30)):
        for name in ("square", "quartic"):
            x, y = generate(SynthSpec(name, -lo_hi, lo_hi, pieces))
            if np.array_equal(x.values, -x.values[::-1]):
                seen_exact += 1
                assert np.array_equal(y.values, y.values[::-1]), (name, lo_hi, pieces)
    assert seen_exact >= 10  # the power-of-two grids really are exact


def test_synth_dataset_wraps_pair():
    ds = synth_dataset(SynthSpec("cubic_minus_x", -1.4, 1.4, 30))
    assert ds.ids() == ["x", "cubic_minus_x"]
    assert ds.n == 31
    assert ds.name == "cubic_minus_x"


def test_synth_default_ranges():
    spec = SynthSpec.with_default_range("quartic", 30)
    assert (spec.x_min, spec.x_max) == DEFAULT_RANGES["quartic"]


def test_synth_validation():
    with pytest.raises(ValueError):
        SynthSpec("no_such_curve", 0.0, 1.0, 30)
    with pytest.raises(ValueError):
        SynthSpec("square", 1.0, 1.0, 30)  # empty range
    with pytest.raises(ValueError):
        SynthSpec("square", 0.0, 1.0, 0)  # no pieces


@pytest.mark.parametrize("sid", ["a\tb", "a\0", "a\rb", "a\n"], ids=["tab", "nul", "cr", "lf"])
def test_dataset_refuses_an_id_that_breaks_a_tab_separated_line(sid):
    series = (TimeSeries(sid, np.arange(4.0)), TimeSeries("b", np.arange(4.0) ** 2))
    with pytest.raises(ValueError, match=f"series id {re.escape(repr(sid))} holds a tab, NUL or line break"):
        Dataset(series=series)
