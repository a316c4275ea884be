import builtins
import math
import os
import select
import signal
import tracemalloc

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
from compcorr.corr import ScanOptions, comp_correlation
from compcorr.datasets import Dataset, SynthSpec, generate
from compcorr.engine import (
    RECORD_HEADER,
    FilterClause,
    JobConfig,
    PairRecord,
    PairScan,
    Records,
    composition_labels,
    format_composition,
    format_number,
    parse_filter,
    record_line,
    render_fixed,
    run_all_pairs,
    run_pair,
    run_pair_list,
    run_versus_time,
    scan,
)
from compcorr.segments import ZERO_FLOOR_REL, ConsistencyError, TimeSeries


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


def test_a_run_on_several_workers_builds_its_tables_once(tmp_path, monkeypatch, pool_starts):
    # the parent builds them, and its forked children share them
    monkeypatch.setattr(engine, "CHUNK_PAIRS", 8)  # 45 pairs in 6 chunks
    loads, load = tmp_path / "loads", engine._Ctx.load

    def logged(ctx):
        with open(loads, "a") as log:
            log.write(f"{os.getpid()}\n")
        return load(ctx)

    monkeypatch.setattr(engine._Ctx, "load", logged)
    records, _ = collect(toy_dataset(S=10), JobConfig(m=4, workers=2))
    assert pool_starts == [2] and len(records) == 45
    assert loads.read_text().split() == [str(os.getpid())]


def test_chunks_are_sized_by_the_cost_of_a_pair(monkeypatch, pool_starts):
    # allpairs_emit (n=23, m=4): 250 compositions a pair, full chunks, so its
    # 64,620 pairs stay 8 chunks; at n=31, m=2 a chunk is 80 pairs, so
    # time-corr on 200 series makes 3 chunks and runs on 2 workers
    assert engine._chunk_pairs(count_compositions(CompositionSpec(23, 4))) == engine.CHUNK_PAIRS
    assert -(-64_620 // engine.CHUNK_PAIRS) == 8
    assert engine._chunk_pairs(count_compositions(CompositionSpec(31, 2))) == 80
    assert engine._chunk_pairs(2 ** 40) == 1
    # the same rule on a cheap run: 4 pairs a chunk at 250 compositions
    monkeypatch.setattr(engine, "_CHUNK_EVALS", 4 * 250 + 249)
    ds = toy_dataset(S=6)  # 15 pairs in 4 chunks
    runs = []
    for workers in (1, 2, 4):
        chunks, records = [], []
        summary = run_all_pairs(ds, JobConfig(m=4, workers=workers), records.extend,
                                progress=lambda done, total: chunks.append(done))
        assert chunks == [4, 8, 12, 15]
        assert summary.workers == min(workers, 4)
        runs.append(records)
    assert pool_starts == [2, 4]
    assert runs[0] == runs[1] == runs[2]


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


def test_kernel_clamps_affine_copies_to_unit_correlation():
    # r of an affine copy rounds past 1 on about 1 composition in 10; the
    # clamp makes it 1 and the first composition at 1 the BCC (or WCC)
    spec = CompositionSpec(13, 2)
    comps = list(enumerate_compositions(spec))
    for seed in range(6):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=13) * 10.0 ** int(rng.integers(-3, 4))
        sign = 1.0 if seed % 2 else -1.0
        res = scan(TimeSeries("a", a), TimeSeries("b", sign * 3.0 * a + 7.0), spec,
                   ScanOptions(distribution=True))
        assert np.all(np.abs(res.values) <= 1.0)
        extreme, at = (res.hcc, res.bcc) if sign > 0 else (res.lcc, res.wcc)
        assert extreme == sign
        assert at == comps[int(np.flatnonzero(res.values == sign)[0])]


def scan_bits(a, b, m):
    """Everything a one-pair scan returns, as bytes and reprs, so -0.0 and NaN compare too."""
    res = scan(a, b, CompositionSpec(a.n, m), ScanOptions(distribution=True, clouds=True))
    return (res.values.tobytes(), res.clouds.tobytes(),
            repr((res.hcc, res.lcc, res.pearson, res.bcc, res.wcc, res.n_undefined)))


def test_block_geometry_changes_no_bit(block_rows, step_pair):
    def geometry(rows, n):
        block_rows(rows)
        return _blocks.batches(_blocks.blocks_for(n, 2))

    ds, _ = step_pair
    rng = np.random.default_rng(31)
    cases = (((ds.get("step"), ds.get("b")), (16, 300, 16384, 65536)),
             ((TimeSeries("a", rng.normal(size=31)), TimeSeries("b", rng.normal(size=31))), (16384, 65536)))
    assert scan(ds.get("step"), ds.get("b"), CompositionSpec(18, 2)).n_undefined > 0
    for (a, b), geometries in cases:
        bits = []
        for rows in geometries:
            batches = geometry(rows, a.n)
            if rows == 16:
                # batches of several blocks, some filling their rows exactly
                assert any(hi - lo == rows and len(blks) > 1 for lo, hi, blks in batches)
            bits.append(scan_bits(a, b, 2))
        assert bits == bits[:1] * len(geometries)
    # the clamp, on blocks and batches of at most 16 compositions
    geometry(16, 13)
    test_kernel_clamps_affine_copies_to_unit_correlation()


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_a_scan_in_parts_gives_the_bits_of_one(block_rows, step_pair, k):
    block_rows(300)
    ds, _ = step_pair
    a, b = ds.get("step"), ds.get("b")
    spec = CompositionSpec(18, 2)
    whole = scan(a, b, spec, ScanOptions(distribution=True))
    job = PairScan(a, b, spec)
    cuts = job.cut(k)
    # contiguous runs of whole batches, of near-equal composition counts
    assert len(cuts) == k and sum(cuts, ()) == job.batches
    sizes = [part[-1][1] - part[0][0] for part in cuts]
    assert max(sizes) - min(sizes) <= _blocks.BLOCK_ROWS
    values = np.full(whole.n_compositions, 7.0)

    def sink(lo, r):
        values[lo:lo + len(r)] = r

    got = job.result([job.run(part, sink) for part in cuts])
    assert (repr((got.hcc, got.lcc, got.pearson, got.bcc, got.wcc, got.n_undefined))
            == repr((whole.hcc, whole.lcc, whole.pearson, whole.bcc, whole.wcc, whole.n_undefined)))
    np.testing.assert_array_equal(values, whole.values)  # NaN where Undefined


def test_an_exact_tie_split_across_parts_goes_to_the_earlier_composition():
    # cubic_minus_x at n=31 (test_05): BCC and its mirror have the same r_c
    # to the bit; with b negated the two tie for the minimum instead
    a, b = generate(SynthSpec("cubic_minus_x", -1.4, 1.4, 30))
    spec = CompositionSpec(31, 2)
    for sign in (1.0, -1.0):
        b_ = TimeSeries(b.id, sign * b.values)
        values = scan(a, b_, spec, ScanOptions(distribution=True)).values
        first, second = np.flatnonzero(values == sign * np.nanmax(sign * values))
        assert composition_at(spec, first) == (8, 2, 2, 2, 2, 2, 2, 2, 9)
        assert composition_at(spec, second) == (9, 2, 2, 2, 2, 2, 2, 2, 8)
        job = PairScan(a, b_, spec)
        # a part boundary between them: the later part starts at the batch of the second
        batches = job.batches
        at = next(k for k, (lo, hi, _) in enumerate(batches) if lo <= second < hi)
        assert batches[at][0] > first
        got = job.result([job.run(batches[:at]), job.run(batches[at:])])
        extreme, index = (got.hcc, got.bcc) if sign > 0 else (got.lcc, got.wcc)
        assert (extreme, index) == (values[first], (8, 2, 2, 2, 2, 2, 2, 2, 9))


def test_span_width_keeps_the_batch_product_within_the_cell_budget():
    # 200 rows at n=31, m=2 keep no variance-sum table, so each batch's one
    # product holds row i's self sums, the span's J rows' and J cross sums
    ctx = engine._Ctx(np.random.default_rng(31).normal(size=(200, 31)), 2)
    assert 200 * ctx.ncomp > engine._VAR_SUM_BUDGET
    assert min(ctx.ncomp, _blocks.BLOCK_ROWS) * (2 * ctx.j_step + 1) <= engine._CELL_BUDGET


def test_a_child_killed_within_an_answer_fails_with_its_signal():
    # the pipe holds the start of a 4 MB answer, the child waits to write
    # the rest, and the kill leaves the parent a truncated pickle
    with engine.forked([iter([b"x" * (1 << 22)])]) as (child,):
        assert select.select([child.pipe], [], [], 60)[0]
        os.kill(child.pid, signal.SIGKILL)
        with pytest.raises(ChildProcessError, match="the process scanning a test ended "
                                                    "without an answer: killed by signal 9"):
            child.answer("a test")
        assert child.pid is None


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


@pytest.mark.parametrize("narrow", [False, True], ids=["var-sums", "no-var-sums"])
def test_undefined_counts_are_the_brute_force_count(monkeypatch, narrow, pool_starts, no_var_sums):
    """Each run's Undefined count, taken from the rows' zero-variance counts
    or, without them, from the kernel's NaNs, is the number of compositions
    the naive oracle calls Undefined."""
    monkeypatch.setattr(engine, "CHUNK_PAIRS", 4)  # several chunks, so 2 workers run a pool
    summaries = []
    run_chunks = engine._run_chunks

    def recording(*args, **kwargs):
        summaries.append(run_chunks(*args, **kwargs))
        return summaries[-1]

    monkeypatch.setattr(engine, "_run_chunks", recording)
    n, m = 13, 2
    t = np.arange(n, dtype=np.float64)
    rng = np.random.default_rng(3)
    ds = Dataset(series=tuple(TimeSeries(name, values) for name, values in (
        ("flat", np.full(n, 2.5)),
        ("step", np.where(t < 6, 5.0, 8.0)),
        ("step_too", np.where(t < 6, -1.0, 3.0)),  # the same zero-variance compositions
        ("step_late", np.where(t < 9, 0.0, 1e6)),
        ("stair", np.select([t < 4, t < 8], [1.0, -2.0], 4.0)),
        ("noise", rng.normal(size=n)),
        ("walk", np.cumsum(rng.normal(size=n)) + 1e6),
    )))
    time = TimeSeries("time", t)
    comps = list(enumerate_compositions(CompositionSpec(n, m)))
    if narrow:
        no_var_sums(ds.matrix, m)

    def brute(x, y):
        return sum(comp_correlation(x, y, parts) is None for parts in comps)

    ids = ds.ids()
    pairs = [(a, b) for k, a in enumerate(ids) for b in ids[k + 1:]]
    listed = pairs[::-2] + [("step", "step"), ("flat", "flat"), ("noise", "noise")]
    count = {(a, b): brute(ds.get(a), ds.get(b)) for a, b in pairs + listed}
    want = [sum(count[pair] for pair in pairs), sum(count[pair] for pair in listed),
            sum(brute(x, time) for x in ds.series)]
    assert 0 < want[0] < len(pairs) * len(comps)
    for workers in (1, 2):
        config = JobConfig(m=m, workers=workers)
        summaries.clear()
        collect(ds, config)
        run_pair_list(ds, listed, config)
        run_versus_time(ds, config)
        assert [s.undefined_values for s in summaries] == want
    assert pool_starts == [2, 2, 2]
    for a, b in pairs:
        got = scan(ds.get(a), ds.get(b), CompositionSpec(n, m), ScanOptions(distribution=True))
        assert got.n_undefined == np.count_nonzero(np.isnan(got.values)) == count[a, b]


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
    # every field with every operator, with and without spaces
    for field in engine._FILTER_FIELDS:
        for op in engine._FILTER_OPS:
            want = (FilterClause(field, op, -0.25),)
            assert parse_filter(f"{field}{op}-0.25") == parse_filter(f"{field} {op} -.25") == want


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


@pytest.mark.parametrize("rows", [1, 16, _blocks.BLOCK_ROWS])
@pytest.mark.parametrize("n, m", [(23, 4), (13, 2), (18, 2), (23, 2)])
def test_composition_labels_match_format_composition(block_rows, n, m, rows):
    block_rows(rows)
    spec = CompositionSpec(n, m)
    ncomp = count_compositions(spec)

    def labels(index):
        return rendered(composition_labels(spec, index))

    want = ["NA"] + [format_composition(composition_at(spec, k)) for k in range(ncomp)]
    assert labels(np.arange(-1, ncomp)) == want
    # any order, with repeats, as a record table asks for them
    index = np.random.default_rng(n).integers(-1, ncomp, 3 * ncomp)
    assert labels(index) == [want[k + 1] for k in index.tolist()]
    # consecutive ranges, as a distribution file asks for them: inside one
    # run, across run ends, one composition, and all
    cuts = np.random.default_rng(m).integers(0, ncomp, 40).tolist() + [0, ncomp - 1, ncomp]
    for lo, hi in zip(cuts, cuts[1:]):
        lo, hi = min(lo, hi), max(lo, hi) + 1
        assert labels(range(lo, min(hi, ncomp))) == want[lo + 1:min(hi, ncomp) + 1]
    assert labels(range(0, ncomp)) == want[1:]
    with pytest.raises(IndexError):
        composition_labels(spec, [ncomp])


def test_label_table_is_built_in_place():
    # at (34, 2): 3,113 heads and 28,658 tail rows
    engine._label_table.cache_clear()
    tracemalloc.start()
    try:
        table = engine._label_table(34, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        engine._label_table.cache_clear()
    assert peak <= 2 * sum(part.nbytes for part in table)


@pytest.mark.parametrize("n", [31, 34])
def test_label_table_is_cut_like_the_blocks(n):
    heads, _, _, ends = engine._label_table(n, 2)
    blocks = _blocks.blocks_for(n, 2)
    assert len(heads) == len(blocks) + 1
    assert ends.tolist() == [blk.offset + blk.count for blk in blocks]


def test_label_table_stops_growing_with_n():
    # one head per block and the tails up to the kernel's cap: 4.3 MB at
    # (37, 2) with a head per 1,024 compositions
    engine._label_table.cache_clear()
    try:
        assert sum(part.nbytes for part in engine._label_table(37, 2)) < 1_500_000
    finally:
        engine._label_table.cache_clear()


@pytest.mark.parametrize("n, m", [(23, 4), (13, 2)])
def test_rendered_records_match_record_line(monkeypatch, block_rows, n, m):
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
    for rows in (1, 16, _blocks.BLOCK_ROWS):
        block_rows(rows)
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
def test_streamed_blocks_match_cached_blocks(monkeypatch, block_rows, n, m):
    ds = toy_dataset(S=6, n=n)
    cached, _ = collect(ds, JobConfig(m=m))
    cached_time = run_versus_time(ds, JobConfig(m=m))
    # each span walks many small blocks (prefixes, shared tails), and there
    # are several chunks, so 2 workers run a pool
    monkeypatch.setattr(engine, "CHUNK_PAIRS", 4)
    block_rows(16)
    assert len(_blocks.blocks_for(n, m)) > 1
    for workers in (1, 2):
        streamed, summary = collect(ds, JobConfig(m=m, workers=workers))
        assert streamed == cached
        assert summary.pairs_scanned == len(cached)
    assert run_versus_time(ds, JobConfig(m=m)) == cached_time


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


@pytest.mark.parametrize("n, m, seed, narrow", [
    pytest.param(23, 4, 5, False, id="23-4-5"),
    pytest.param(13, 2, 6, False, id="13-2-6"),
    pytest.param(13, 2, 6, True, id="13-2-6-no-var-sums"),
])
def test_every_entry_point_gives_the_same_bits(monkeypatch, n, m, seed, narrow, pool_starts,
                                               no_var_sums):
    # several chunks for every batch run (16 series), so 2 workers run a pool
    monkeypatch.setattr(engine, "CHUNK_PAIRS", 8)
    ds = adversarial_dataset(n, seed)
    if narrow:
        no_var_sums(ds.matrix, m)
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


def reference_steps(x):
    """Co-moment steps {(k, t): U} of one row in plain floats, in the documented
    order: anchor at x[t], running sum left to right, step times sqrt((k-1)/k)."""
    n = len(x)
    steps = {}
    for t in range(n - 1):
        y = [x[t + l] - x[t] for l in range(n - t)]
        s = y[0]
        for k in range(2, n - t + 1):
            steps[k, t] = math.sqrt((k - 1) / k) * (y[k - 1] - s / (k - 1))
            s = s + y[k - 1]
    return steps


def reference_window(u, v, t, length):
    """A window's centered cross sum: products of steps added in increasing k."""
    total = u[2, t] * v[2, t]
    for k in range(3, length + 1):
        total = total + u[k, t] * v[k, t]
    return total


@pytest.mark.parametrize("n, m", [(23, 4), (31, 2)])
def test_segment_sums_match_a_plain_float_reference_bit_for_bit(n, m):
    rng = np.random.default_rng(n)
    t = np.arange(n)
    X = np.array([
        rng.normal(size=n),
        rng.normal(size=n) + 1e6,
        rng.normal(size=n) * 1e-3 + 1e6,
        np.full(n, 2.5),
        np.full(n, -1e6),
        np.where(t < n // 2, 5.0, 8.0),
        np.where(t < n // 3, 1e6, -3.0),
        rng.normal(size=n) + 1e4 * (t >= 7),
        rng.normal(size=n) * 1e-6,
    ])
    S = len(X)
    rows = X.tolist()
    steps = [reference_steps(x) for x in rows]
    segments = [(start, length) for length in range(m, n + 1) for start in range(n - length + 1)]
    flat = [[reference_window(u, u, start, length)
             <= ZERO_FLOOR_REL * (max(v * v for v in x[start:start + length]) * length)
             for start, length in segments] for x, u in zip(rows, steps)]
    want = {}
    for a in range(S):
        for b in range(S):
            want[a, b] = np.array([0.0 if fa or fb else reference_window(steps[a], steps[b], *seg)
                                   for seg, fa, fb in zip(segments, flat[a], flat[b])])

    # the kernel's tables are at each row's scale 2^-exp, which ldexp undoes exactly
    ctx = engine._Ctx(X, m).load()
    e = ctx.exp.tolist()
    for a in range(S):
        got = np.ldexp(ctx.css[:, a], 2 * e[a])
        assert got.tobytes() == want[a, a].tobytes()  # the sign of zero included
    # spans of width 1, 7 and all rows, each against every row i (i in the span too)
    for j0, j1 in [(j, j + 1) for j in range(S)] + [(1, 8), (0, S)]:
        for i in range(S):
            got = engine._cross_css(ctx, i, j0, j1)
            for j in range(j0, j1):
                assert np.ldexp(got[:, j - j0], e[i] + e[j]).tobytes() == want[i, j].tobytes(), (i, j)


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


# ------------------------------------------------------ extreme magnitudes

def scan_fields(res):
    return (res.hcc, res.lcc, res.pearson, res.bcc, res.wcc, res.n_undefined)


@pytest.mark.parametrize("scale", [1e150, 1e-150, 1e160, 2.0 ** 500, 2.0 ** -500])
def test_scan_is_blind_to_extreme_magnitudes(scale):
    # correlation is scale-invariant: the series at an extreme magnitude scan
    # bit for bit as the same values brought back to unit size by an exact
    # power of two, and, for a power-of-two scale, as the unscaled series
    rng = np.random.default_rng(13)
    a, b = rng.normal(size=13), rng.normal(size=13)
    spec = CompositionSpec(13, 2)
    options = ScanOptions(clouds=True)
    big = scan(TimeSeries("a", a * scale), TimeSeries("b", b * scale), spec, options)
    e = math.frexp(scale)[1]
    unit = scan(TimeSeries("a", np.ldexp(a * scale, -e)), TimeSeries("b", np.ldexp(b * scale, -e)),
                spec, options)
    plain = scan(TimeSeries("a", a), TimeSeries("b", b), spec, options)
    assert big.n_undefined == 0
    assert scan_fields(big) == scan_fields(unit)
    assert big.values.tobytes() == unit.values.tobytes()
    if scale in (2.0 ** 500, 2.0 ** -500):
        assert scan_fields(big) == scan_fields(plain)
        assert big.values.tobytes() == plain.values.tobytes()
    for got, want in zip(scan_fields(big)[:3], scan_fields(plain)[:3]):
        assert got == pytest.approx(want, abs=1e-14)
    # var and cov are at the series' own scale, exactly where representable
    if abs(math.log2(scale)) <= 500:
        assert np.ldexp(unit.clouds[:, 1:], 2 * e).tobytes() == big.clouds[:, 1:].tobytes()


def test_all_pairs_is_blind_to_mixed_magnitudes():
    rng = np.random.default_rng(14)
    n, m = 13, 2
    scales = [1.0, 1e150, 1e-150, 1e160, 2.0 ** 500, 2.0 ** -500, 1e-160]
    rows = [rng.normal(size=n) * s for s in scales] + [np.repeat([1e200, -3e200], [6, 7])]
    ds = Dataset(series=tuple(TimeSeries(f"s{k}", x) for k, x in enumerate(rows)))
    unit = Dataset(series=tuple(TimeSeries(s.id, np.ldexp(s.values, -math.frexp(np.abs(s.values).max())[1]))
                                for s in ds.series))
    records, _ = collect(ds, JobConfig(m=m, workers=2))
    unit_records, _ = collect(unit, JobConfig(m=m))
    assert len(records) == 28
    assert [as_tuple(r) for r in records] == [as_tuple(r) for r in unit_records]
    spec = CompositionSpec(n, m)
    for r in records:
        assert as_tuple(r) == as_tuple(scan(ds.get(r.id_a), ds.get(r.id_b), spec))
        if "s7" not in (r.id_a, r.id_b):  # the step row has Undefined compositions
            assert r.hcc is not None and r.lcc is not None and r.pearson is not None
