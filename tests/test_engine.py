import builtins

import numpy as np
import pytest

from compcorr import _blocks, engine
from compcorr.baselines import pearson
from compcorr.compositions import (
    CompositionSpec,
    composition_at,
    count_compositions,
    enumerate_compositions,
)
from compcorr.corr import comp_correlation
from compcorr.datasets import Dataset
from compcorr.engine import (
    RECORD_HEADER,
    FilterClause,
    JobConfig,
    PairRecord,
    Records,
    composition_labels,
    format_composition,
    format_number,
    join_rows,
    parse_filter,
    record_line,
    render_fixed,
    run_all_pairs,
    run_pair,
    run_pair_list,
    run_versus_time,
    scan,
)
from compcorr.segments import ConsistencyError, TimeSeries


def toy_dataset(S=8, n=23, seed=7, scale=1.0):
    rng = np.random.default_rng(seed)
    series = tuple(TimeSeries(f"g{i}", rng.normal(size=n) * scale) for i in range(S))
    return Dataset(series=series, name="toy")


def collect(dataset, config):
    records = []
    summary = run_all_pairs(dataset, config, sink=lambda rs: records.extend(rs))
    return records, summary


# ------------------------------------------------------------- all pairs

def test_all_pairs_covers_every_pair_once():
    ds = toy_dataset(S=9)
    records, summary = collect(ds, JobConfig(m=4))
    assert len(records) == 9 * 8 // 2 == summary.pairs_scanned == summary.records_emitted
    ids = ds.ids()
    seen = {(r.id_a, r.id_b) for r in records}
    assert len(seen) == len(records)
    for id_a, id_b in seen:
        assert ids.index(id_a) < ids.index(id_b)


def test_all_pairs_records_match_single_scans():
    ds = toy_dataset(S=6)
    records, _ = collect(ds, JobConfig(m=4))
    for r in records:
        res = scan(ds.get(r.id_a), ds.get(r.id_b), CompositionSpec(23, 4))
        assert r.hcc == pytest.approx(res.hcc, abs=1e-11)
        assert r.lcc == pytest.approx(res.lcc, abs=1e-11)
        assert r.bcc == res.bcc and r.wcc == res.wcc
        assert r.pearson == pytest.approx(pearson(ds.get(r.id_a), ds.get(r.id_b)), abs=1e-12)


def test_all_pairs_deterministic_across_worker_counts(monkeypatch, pool_starts):
    monkeypatch.setattr(engine, "CHUNK_PAIRS", 8)  # 45 pairs in 6 chunks
    ds = toy_dataset(S=10)
    outputs = []
    for workers in (1, 2, 3):
        lines, texts = [], []

        def sink(rs):
            lines.extend(record_line(r, 15) + "\n" for r in rs)
            texts.append(rs.text)

        run_all_pairs(ds, JobConfig(m=4, workers=workers), sink, precision=15)
        assert "".join(texts) == "".join(lines)
        outputs.append(lines)
    assert pool_starts == [2, 3]
    assert len(outputs[0]) == 45
    assert outputs[0] == outputs[1] == outputs[2]


def test_pool_starts_no_more_workers_than_chunks(monkeypatch, pool_starts):
    monkeypatch.setattr(engine, "CHUNK_PAIRS", 23)  # 45 pairs in 2 chunks
    ds = toy_dataset(S=10)
    records, summary = collect(ds, JobConfig(m=4, workers=4))
    assert pool_starts == [2]
    assert summary.pairs_scanned == len(records) == 45


def test_summary_counts_the_processes_that_ran(monkeypatch, pool_starts):
    ds = toy_dataset(S=6)  # 15 pairs in one chunk run in-process
    _, summary = collect(ds, JobConfig(m=4, workers=4))
    assert pool_starts == [] and summary.workers == 1
    assert summary.describe().endswith("on 1 worker(s)")
    monkeypatch.setattr(engine, "CHUNK_PAIRS", 8)  # 15 pairs in 2 chunks
    _, summary = collect(ds, JobConfig(m=4, workers=4))
    assert pool_starts == [2] and summary.workers == 2


def test_pair_index_triangle_matches_row_major_order():
    for S in range(2, 61):
        pairs = [(i, j) for i in range(S) for j in range(i + 1, S)]
        assert [engine._pair_at(S, p) for p in range(len(pairs))] == pairs
        for width in (1, 7, len(pairs)):
            for lo in range(0, len(pairs), width):
                hi = min(lo + width, len(pairs))
                runs = list(engine._runs(S, lo, hi))
                assert [(i, j) for i, j0, j1 in runs for j in range(j0, j1)] == pairs[lo:hi]
                assert len({i for i, _, _ in runs}) == len(runs)  # one run per row


def test_clamp_clips_rounding_only():
    r = np.array([1 + 1e-13, -(1 + 1e-13), np.nan, 0.5])
    engine._clamp(r)
    assert r[0] == 1.0 and r[1] == -1.0 and np.isnan(r[2]) and r[3] == 0.5
    with pytest.raises(ConsistencyError, match="exceeds 1"):
        engine._clamp(np.array([0.0, np.nan, 1 + 1e-9]))


def test_in_process_runs_release_their_context():
    ds = toy_dataset(S=5)
    collect(ds, JobConfig(m=4))
    assert engine._CTX is None
    run_versus_time(ds, JobConfig(m=4))
    assert engine._CTX is None

    def failing(records):
        raise OSError("disk full")

    with pytest.raises(OSError):
        run_all_pairs(ds, JobConfig(m=4), failing)
    assert engine._CTX is None


def test_all_pairs_duplicate_series():
    base = np.arange(23.0) ** 1.5
    ds = Dataset(series=(TimeSeries("a", base), TimeSeries("b", base.copy())))
    records, _ = collect(ds, JobConfig(m=4))
    (r,) = records
    assert r.hcc == pytest.approx(1.0, abs=1e-12)
    assert r.lcc == pytest.approx(1.0, abs=1e-12)
    assert r.pearson == pytest.approx(1.0, abs=1e-12)


def test_all_pairs_constant_series_yields_undefined_record():
    ds = Dataset(
        series=(TimeSeries("flat", np.full(23, 4.0)), TimeSeries("g", np.arange(23.0)))
    )
    records, summary = collect(ds, JobConfig(m=4))
    (r,) = records
    assert r.hcc is None and r.lcc is None and r.pearson is None
    assert r.bcc is None and r.wcc is None
    assert summary.undefined_values > 0
    assert "NA" in record_line(r)


def test_all_pairs_filter():
    ds = toy_dataset(S=10)
    everything, _ = collect(ds, JobConfig(m=4))
    flt = parse_filter("hcc > 0.55 and abs(pearson) < 0.4")
    kept, summary = collect(ds, JobConfig(m=4, filter=flt))
    want = [
        r
        for r in everything
        if r.hcc is not None and r.hcc > 0.55 and r.pearson is not None and abs(r.pearson) < 0.4
    ]
    assert [(r.id_a, r.id_b) for r in kept] == [(r.id_a, r.id_b) for r in want]
    assert summary.records_emitted == len(kept)
    assert summary.pairs_scanned == len(everything)


def test_filter_excludes_undefined_records():
    ds = Dataset(
        series=(TimeSeries("flat", np.full(23, 4.0)), TimeSeries("g", np.arange(23.0)))
    )
    kept, _ = collect(ds, JobConfig(m=4, filter=parse_filter("lcc < 1")))
    assert kept == []  # undefined never satisfies a comparison
    ds = Dataset(series=ds.series + toy_dataset(S=1).series)
    for text in ("hcc > -1", "abs(pearson) < 1"):
        kept = run_pair_list(ds, [("flat", "g"), ("g", "g0")], JobConfig(m=4, filter=parse_filter(text)))
        assert [(r.id_a, r.id_b) for r in kept] == [("g", "g0")]


def test_progress_callback_sees_all_pairs():
    ds = toy_dataset(S=7)
    ticks = []
    run_all_pairs(ds, JobConfig(m=4), sink=lambda rs: None, progress=lambda done, total: ticks.append((done, total)))
    assert ticks[-1][0] == ticks[-1][1] == 21
    assert all(t == 21 for _, t in ticks)
    assert [d for d, _ in ticks] == sorted(d for d, _ in ticks)


def test_summary_shape():
    ds = toy_dataset(S=5)
    _, summary = collect(ds, JobConfig(m=3, workers=1))
    assert summary.pairs_scanned == 10
    assert summary.wall_seconds > 0
    assert summary.pairs_per_second > 0
    assert summary.workers == 1
    text = summary.describe()
    assert "10" in text


# ---------------------------------------------------------- filter parsing

def test_parse_filter_grammar():
    flt = parse_filter("hcc>0.9 AND abs(pearson)<=0.1")
    assert flt == (
        FilterClause("hcc", ">", 0.9),
        FilterClause("abs(pearson)", "<=", 0.1),
    )
    assert parse_filter("lcc < -0.5") == (FilterClause("lcc", "<", -0.5),)
    assert parse_filter("pearson >= 0") == (FilterClause("pearson", ">=", 0.0),)


def test_parse_filter_rejects_garbage():
    for bad in (
        "hcc >",
        "nope > 0.5",
        "hcc = 0.5",
        "hcc > 1.5",       # outside [-1, 1]
        "hcc > 0.5 OR lcc < 0",  # only conjunction is supported
        "",
    ):
        with pytest.raises(ValueError):
            parse_filter(bad)


# ------------------------------------------------------------- formatting

def test_format_number_and_composition():
    assert format_number(0.123456789) == "0.123457"
    assert format_number(0.123456789, 3) == "0.123"
    assert format_number(None) == "NA"
    assert format_composition((7, 4, 8, 4)) == "[7,4,8,4]"
    assert format_composition(None) == "NA"


def rendered(mat):
    """The rows of a NUL-padded byte matrix as strings."""
    return [bytes(row[row != 0]).decode() for row in mat]


def test_render_fixed_matches_format_number():
    rng = np.random.default_rng(6)
    special = np.array([np.nan, 0.0, -0.0, 1e-9, -1e-9, 1.0, -1.0, 5e-324, -5e-324,
                        0.5, 1.5, 2.5, -2.5, 9.5, 9.9999999999999, -9.9999999999999,
                        10.0, -10.0, 12.345, -99.5, 1e15, -3e300, np.inf, -np.inf])
    dyadic = rng.integers(1, 2**20, 300) / 2.0 ** rng.integers(1, 21, 300)  # exact halves
    for p in range(16):
        # decimal halfway points at this precision (as near as a double gets)
        # and one and two ulps either side
        half = (rng.integers(0, 10 ** min(p + 1, 15), 400) + 0.5) / 10.0 ** p
        half = half[half < 20]
        up, down = np.nextafter(half, np.inf), np.nextafter(half, -np.inf)
        values = np.concatenate([
            rng.uniform(-1, 1, 2000), rng.uniform(-20, 20, 200), special, dyadic, -dyadic,
            half, -half, up, down, np.nextafter(up, np.inf), np.nextafter(down, -np.inf),
        ])
        # and a block that falls back whole
        for block in (values, np.array([12.5, -300.25, np.inf])):
            want = [format_number(None if x != x else x, p) for x in block.tolist()]
            assert rendered(render_fixed(block, p)) == want
        assert render_fixed(np.empty(0), p).shape[0] == 0
    assert rendered(render_fixed(np.array([-0.0, -1e-9, np.nan]), 6)) == ["-0.000000", "-0.000000", "NA"]
    assert rendered(render_fixed(np.array([-0.0, 0.5, 2.5, 1e20]), 0)) == ["-0", "0", "2", "100000000000000000000"]
    assert rendered(render_fixed(np.array([0.1, -1.0]), 20)) == [format(0.1, ".20f"), format(-1.0, ".20f")]


def test_render_fixed_takes_the_digit_path_at_precision_15(monkeypatch):
    # the halfway band at p=15 is 10^15·|x|·2^-52, about 0.22·|x|: values
    # spread evenly over [-1, 1] fall back to format about 22% of the time
    fallbacks = []

    def counting(value, spec):
        fallbacks.append(value)
        return builtins.format(value, spec)

    monkeypatch.setattr(engine, "format", counting, raising=False)
    values = np.random.default_rng(15).uniform(-1, 1, 20_000)
    assert rendered(render_fixed(values, 15)) == [format_number(x, 15) for x in values.tolist()]
    assert 0 < len(fallbacks) < 0.25 * len(values)


def test_records_render_any_text_id_and_reject_nul():
    spec = CompositionSpec(6, 2)
    columns = (np.array([0, 1]), np.array([1, 2]), np.array([0.5, np.nan]),
               np.array([-0.25, 1.0]), np.array([-0.5, np.nan]), np.array([0, -1]), np.array([4, -1]))
    ids = ("α-1", "b", "série")
    records = Records(ids, engine._Parts(spec), *columns)
    assert records.render(3) == "".join(record_line(r, 3) + "\n" for r in records)
    with pytest.raises(ValueError, match="NUL"):
        Records(("a\0", "b", "c"), engine._Parts(spec), *columns).render(3)


def test_record_line_layout():
    rec = PairRecord("a", "b", 0.5, 0.25, -0.5, (2, 3), (3, 2))
    assert RECORD_HEADER == "id_a\tid_b\thcc\tpearson\tlcc\tbcc\twcc"
    assert record_line(rec) == "a\tb\t0.500000\t0.250000\t-0.500000\t[2,3]\t[3,2]"


def reference_records(spec, ids, columns):
    """PairRecords from kernel columns, one field at a time."""
    def value(x):
        return None if np.isnan(x) else float(x)

    def parts(k):
        return None if k < 0 else composition_at(spec, int(k))

    return [PairRecord(ids[a], ids[b], value(h), value(p), value(l), parts(bc), parts(wc))
            for a, b, h, p, l, bc, wc in zip(*columns)]


@pytest.mark.parametrize("label_rows", [1, 16, engine.LABEL_ROWS])
@pytest.mark.parametrize("n, m", [(23, 4), (13, 2), (18, 2)])
def test_composition_labels_match_format_composition(monkeypatch, n, m, label_rows):
    monkeypatch.setattr(engine, "LABEL_ROWS", label_rows)
    spec = CompositionSpec(n, m)
    ncomp = count_compositions(spec)

    def labels(index):
        return join_rows([*composition_labels(spec, index), b"\n"]).decode().splitlines()

    want = ["NA"] + [format_composition(composition_at(spec, k)) for k in range(ncomp)]
    assert labels(np.arange(-1, ncomp)) == want
    # any order, with repeats, as a record table asks for them
    index = np.random.default_rng(n).integers(-1, ncomp, 3 * ncomp)
    assert labels(index) == [want[k + 1] for k in index.tolist()]
    with pytest.raises(IndexError):
        composition_labels(spec, [ncomp])


@pytest.mark.parametrize("n, m", [(23, 4), (13, 2)])
def test_rendered_records_match_record_line(monkeypatch, n, m):
    spec = CompositionSpec(n, m)
    ncomp = count_compositions(spec)
    assert engine._Parts(spec)[-1] is None

    # hand-built columns: Undefined values, values printing as -0.000000, extremes
    rng = np.random.default_rng(n)
    ids = ("a", "b", "c", "d")
    size = 400
    values = [rng.uniform(-1, 1, size) for _ in range(3)]
    for col in values:
        col[rng.integers(0, size, 40)] = np.nan
        col[rng.integers(0, size, 10)] = -1e-9
        col[rng.integers(0, size, 10)] = -0.0
        col[:2] = (-1.0, 1.0)
    columns = (rng.integers(0, 4, size), rng.integers(0, 4, size), *values,
               rng.integers(-1, ncomp, size), rng.integers(-1, ncomp, size))
    records = Records(ids, engine._Parts(spec), *columns)
    want = reference_records(spec, ids, columns)
    assert len(records) == size and list(records) == want
    assert records[-1] == want[-1] and records[3] == want[3]
    for label_rows in (1, 16, engine.LABEL_ROWS):
        monkeypatch.setattr(engine, "LABEL_ROWS", label_rows)
        for precision in (0, 6, 15):
            assert records.render(precision) == "".join(record_line(r, precision) + "\n" for r in want)
    assert "\t-0.000000\t" in records.render(6) and "\tNA\t" in records.render(6)

    # a run's chunks, with a constant series (every field NA, BCC and WCC index -1)
    monkeypatch.setattr(engine, "CHUNK_PAIRS", 5)
    ds = toy_dataset(S=6, n=n)
    ds = Dataset(series=(TimeSeries("flat", np.full(n, 3.0)),) + ds.series)
    for precision in (0, 6, 15):
        chunks = []
        run_all_pairs(ds, JobConfig(m=m), chunks.append, precision=precision)
        assert len(chunks) == 5
        for rs in chunks:
            assert rs.text == "".join(record_line(r, precision) + "\n" for r in rs)
        assert chunks[0][0].hcc is None and chunks[0][0].bcc is None
        assert chunks[0].text.startswith("flat\tg0\tNA\tNA\tNA\tNA\tNA\n")


# ------------------------------------------------------------- pair modes

def test_run_pair_and_pair_list_agree():
    ds = toy_dataset(S=5)
    res = run_pair(ds, "g0", "g3", 4)
    records = run_pair_list(ds, [("g0", "g3"), ("g4", "g1")], JobConfig(m=4))
    assert records[0].hcc == res.hcc
    assert records[0].bcc == res.bcc
    assert records[1].id_a == "g4"


def test_run_pair_unknown_id():
    ds = toy_dataset(S=3)
    with pytest.raises(ValueError, match="no series named"):
        run_pair(ds, "g0", "nope", 4)


# ------------------------------------------------------------ versus time

def test_versus_time_one_record_per_series():
    ds = toy_dataset(S=6)
    records = run_versus_time(ds, JobConfig(m=2))
    assert len(records) == 6
    assert [r.id_a for r in records] == ds.ids()
    assert all(r.id_b == "time" for r in records)


def test_versus_time_label_grid_matches_index_grid():
    # compositional correlation is invariant to positive affine time
    # relabeling, so explicit evenly spaced labels change nothing
    base = toy_dataset(S=5)
    labeled = Dataset(
        series=base.series, time_labels=list(10.0 + 7.0 * np.arange(23)), name="lab"
    )
    r_index = run_versus_time(base, JobConfig(m=2))
    r_label = run_versus_time(labeled, JobConfig(m=2))
    # values agree to rounding (the relabeled arithmetic differs in the
    # last ulp), extremal compositions agree exactly
    assert [record_line(r, 12) for r in r_index] == [record_line(r, 12) for r in r_label]


def test_versus_time_monotone_series():
    rng = np.random.default_rng(12)
    mono = TimeSeries("mono", np.cumsum(np.abs(rng.normal(size=23)) + 0.05))
    (rec,) = run_versus_time(Dataset(series=(mono,)), JobConfig(m=2))
    assert rec.pearson > 0
    assert rec.hcc >= rec.pearson


def test_versus_time_constant_series_undefined():
    (rec,) = run_versus_time(
        Dataset(series=(TimeSeries("flat", np.full(23, 1.0)),)), JobConfig(m=2)
    )
    assert rec.hcc is None and rec.lcc is None and rec.pearson is None


def test_versus_time_respects_filter():
    ds = toy_dataset(S=8)
    everything = run_versus_time(ds, JobConfig(m=2))
    kept = run_versus_time(ds, JobConfig(m=2, filter=parse_filter("hcc > 0.6")))
    want = [r.id_a for r in everything if r.hcc is not None and r.hcc > 0.6]
    assert [r.id_a for r in kept] == want


@pytest.mark.parametrize("n, m", [(13, 2), (23, 4)])
def test_streamed_blocks_match_cached_blocks(monkeypatch, n, m):
    ds = toy_dataset(S=6, n=n)
    cached, _ = collect(ds, JobConfig(m=m))
    cached_time = run_versus_time(ds, JobConfig(m=m))
    # each span walks many small blocks (prefixes, shared tails), and there
    # are several chunks, so 2 workers run a pool
    monkeypatch.setattr(engine, "CHUNK_PAIRS", 4)
    monkeypatch.setattr(_blocks, "BLOCK_ROWS", 16)
    _blocks.blocks_for.cache_clear()
    try:
        assert len(_blocks.blocks_for(n, m)) > 1
        for workers in (1, 2):
            streamed, summary = collect(ds, JobConfig(m=m, workers=workers))
            assert streamed == cached
            assert summary.pairs_scanned == len(cached)
        assert run_versus_time(ds, JobConfig(m=m)) == cached_time
    finally:
        _blocks.blocks_for.cache_clear()


# ----------------------------------------------------------- mixed scales

def test_all_pairs_handles_mixed_magnitudes():
    rng = np.random.default_rng(44)
    series = tuple(
        TimeSeries(f"g{i}", rng.normal(size=23) * 10.0 ** int(rng.integers(-6, 7)))
        for i in range(6)
    )
    ds = Dataset(series=series)
    records, _ = collect(ds, JobConfig(m=4))
    for r in records:
        res = scan(ds.get(r.id_a), ds.get(r.id_b), CompositionSpec(23, 4))
        assert (r.hcc is None) == (res.hcc is None)
        if r.hcc is not None:
            assert r.hcc == pytest.approx(res.hcc, abs=1e-10)
            assert r.bcc == res.bcc


# ------------------------------------------------------ one kernel, one answer

def adversarial_dataset(n, seed):
    """Level steps on unit and 1e-3 noise, a large offset, step-constant
    series and exact duplicates (near-ties in canonical order)."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    series = []
    for k, step in enumerate((1e4, 1e5, 1e6, 1e7, 1e8)):
        for noise in (1.0, 1e-3):
            at = int(rng.integers(2, n - 2))
            series.append(TimeSeries(f"s{k}_{noise:g}", rng.normal(size=n) * noise + step * (t >= at)))
    series.append(TimeSeries("offset", rng.normal(size=n) + 1e6))
    series.append(TimeSeries("stair", np.where(t < n // 2, 5.0, 8.0)))
    series.append(TimeSeries("stair3", np.select([t < n // 3, t < 2 * n // 3], [1.0, -2.0], 4.0)))
    series.append(TimeSeries("flat", np.full(n, 2.5)))
    series.append(TimeSeries("dup", series[0].values.copy()))
    series.append(TimeSeries("dup2", series[0].values.copy()))
    return Dataset(series=tuple(series), name="adv")


def as_tuple(r):
    return (r.hcc, r.lcc, r.pearson, r.bcc, r.wcc)


@pytest.mark.parametrize("n, m, seed", [(23, 4, 5), (13, 2, 6)])
def test_every_entry_point_gives_the_same_bits(monkeypatch, n, m, seed, pool_starts):
    # several chunks for every batch run (16 series), so 2 workers run a pool
    monkeypatch.setattr(engine, "CHUNK_PAIRS", 8)
    ds = adversarial_dataset(n, seed)
    ids = ds.ids()
    pairs = [(a, b) for k, a in enumerate(ids) for b in ids[k + 1:]]
    spec = CompositionSpec(n, m)
    want = {(a, b): as_tuple(scan(ds.get(a), ds.get(b), spec)) for a, b in pairs}
    assert {(a, b): as_tuple(run_pair(ds, a, b, m)) for a, b in pairs} == want
    time = TimeSeries("time", np.arange(n, dtype=np.float64))
    want_time = {s.id: as_tuple(scan(s, time, spec)) for s in ds.series}
    for workers in (1, 2):
        config = JobConfig(m=m, workers=workers)
        records, _ = collect(ds, config)
        assert {(r.id_a, r.id_b): as_tuple(r) for r in records} == want
        listed = run_pair_list(ds, pairs[::-1], config)
        assert [(r.id_a, r.id_b) for r in listed] == pairs[::-1]  # list order
        assert {(r.id_a, r.id_b): as_tuple(r) for r in listed} == want
        assert {r.id_a: as_tuple(r) for r in run_versus_time(ds, config)} == want_time
    assert pool_starts == [2, 2, 2]  # all pairs, the pair list and versus time

    # the kernel's extremes are the naive per-part oracle's values there
    for (a, b), (hcc, lcc, pe, bcc, wcc) in want.items():
        x, y = ds.get(a), ds.get(b)
        assert (pe is None) == (comp_correlation(x, y, (n,)) is None)
        for value, parts in ((hcc, bcc), (lcc, wcc), (pe, (n,))):
            if value is not None:
                assert value == pytest.approx(comp_correlation(x, y, parts), abs=1e-9)


def test_all_pairs_at_n34_m2():
    # 3,524,578 compositions with 34M part incidences, in blocks built once for every span
    n, m = 34, 2
    rng = np.random.default_rng(34)
    ds = Dataset(series=tuple(TimeSeries(f"w{k}", np.cumsum(rng.normal(size=n))) for k in range(3)))
    spec = CompositionSpec(n, m)
    records, summary = collect(ds, JobConfig(m=m))
    assert summary.pairs_scanned == len(records) == 3
    for r in records:
        x, y = ds.get(r.id_a), ds.get(r.id_b)
        assert as_tuple(r) == as_tuple(scan(x, y, spec))
        for value, parts in ((r.hcc, r.bcc), (r.lcc, r.wcc), (r.pearson, (n,))):
            assert value == pytest.approx(comp_correlation(x, y, parts), abs=1e-9)
