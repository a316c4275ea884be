"""End-to-end acceptance checks: the bar a release must clear.

Run ``pytest -v -rA tests/test_acceptance.py`` to get one PASSED/FAILED line
per check plus a printed PASS line with the measured values.

Criteria 7, 8 and 10 need the 4381x23 yeast gene expression matrix, which
is not distributed with the package.  Point COMPCORR_GENE_DATA at a local
copy (TSV, one gene per row) to enable them; otherwise they skip and the
dataset-free criteria stand alone.
"""

import math
import os
import time

import numpy as np
import pytest

from compcorr.baselines import BaselineReport, distance_correlation
from compcorr.compositions import (
    CompositionSpec,
    composition_at,
    count_compositions,
    enumerate_compositions,
)
from compcorr.corr import ScanOptions, comp_correlation, comp_covariance, comp_variance
from compcorr.datasets import Dataset, SynthSpec, generate, load_dataset
from compcorr.engine import JobConfig, record_line, run_all_pairs, run_versus_time, scan
from compcorr.segments import TimeSeries

GENE_DATA = os.environ.get("COMPCORR_GENE_DATA", "")
needs_gene_data = pytest.mark.skipif(
    not GENE_DATA,
    reason="COMPCORR_GENE_DATA not set; point it at the 4381x23 expression matrix",
)

_gene_cache = []


def gene_dataset() -> Dataset:
    if not _gene_cache:
        _gene_cache.append(load_dataset(GENE_DATA))
    return _gene_cache[0]


def ok(label: str, detail: str) -> None:
    print(f"PASS {label}: {detail}")


def naive_r(xs, ys, parts):
    """Per-part two-pass reference, plain Python floats."""
    num = sa = sb = 0.0
    pos = 0
    for p in parts:
        ax = xs[pos:pos + p]
        by = ys[pos:pos + p]
        ma = sum(ax) / p
        mb = sum(by) / p
        for u, v in zip(ax, by):
            num += (u - ma) * (v - mb)
            sa += (u - ma) ** 2
            sb += (v - mb) ** 2
        pos += p
    if sa == 0.0 or sb == 0.0:
        return None
    return num / math.sqrt(sa * sb)


def scan_curve(function, lo, hi):
    a, b = generate(SynthSpec(function, lo, hi, 30))
    return scan(a, b, CompositionSpec(31, 2))


def best_of(fn, repeats=3):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# --------------------------------------------------------------------------
# 1. exact composition counts, each computed in under a millisecond

def test_01_composition_counts_exact_and_fast():
    small = [count_compositions(CompositionSpec(n, 2)) for n in range(2, 11)]
    assert small == [1, 1, 2, 3, 5, 8, 13, 21, 34]
    checks = [(23, 4, 250), (23, 3, 1278), (23, 2, 17711), (50, 2, 7778742049)]
    worst = 0.0
    for n, m, want in checks:
        spec = CompositionSpec(n, m)
        assert count_compositions(spec) == want
        worst = max(worst, best_of(lambda: count_compositions(spec)))
    assert worst < 1e-3
    ok("counts", f"n=2..10 row and 250/1278/17711/7778742049 exact, worst call {worst * 1e6:.0f} us")


# --------------------------------------------------------------------------
# 2. m=2 counts follow the Fibonacci sequence; consecutive ratios converge
#    to the golden ratio

def test_02_fibonacci_structure_and_golden_ratio():
    fib = [1, 1]
    while len(fib) < 30:
        fib.append(fib[-1] + fib[-2])
    counts = {n: count_compositions(CompositionSpec(n, 2)) for n in range(2, 31)}
    for n in range(2, 31):
        assert counts[n] == fib[n - 2]  # F_1, F_2, ... aligned to n=2, 3, ...
    worst = 0.0
    for n in range(20, 31):
        ratio = counts[n] / counts[n - 1]
        worst = max(worst, abs(ratio - 1.618034))
    assert worst < 1e-3
    ok("fibonacci", f"counts equal F(n-1) for n<=30, ratio off by at most {worst:.2e}")


# --------------------------------------------------------------------------
# 3. square curve on a symmetric range: strong symmetric extremes where
#    plain correlation sees nothing

def test_03_square_curve_extremes():
    t0 = time.perf_counter()
    res = scan_curve("square", -1.0, 1.0)
    wall = time.perf_counter() - t0
    assert res.n_compositions == 832040
    assert res.n_undefined == 0
    assert abs(res.pearson) < 1e-12
    assert abs(res.hcc - 0.9449) < 5e-4
    assert res.bcc == (2, 2, 2, 2, 2, 2, 2, 2, 15)
    assert abs(res.lcc - (-0.9449)) < 5e-4
    assert res.wcc == (15, 2, 2, 2, 2, 2, 2, 2, 2)
    assert wall < 5.0
    ok("square", f"hcc={res.hcc:.4f} lcc={res.lcc:.4f} |pearson|={abs(res.pearson):.1e}, "
                 f"832040 compositions in {wall:.2f} s")


# --------------------------------------------------------------------------
# 4. monotone cubic: every defined compositional correlation is positive,
#    envelope [0.6107, 0.9753] at the calibrated range [-3, 2]

def test_04_monotone_cubic_all_positive():
    res = scan_curve("monotone_cubic", -3.0, 2.0)
    assert res.n_undefined == 0
    assert res.lcc > 0.0
    assert abs(res.hcc - 0.9753) < 5e-3
    assert abs(res.lcc - 0.6107) < 5e-3
    ok("monotone", f"all 832040 values defined and positive, envelope "
                   f"[{res.lcc:.4f}, {res.hcc:.4f}] on x in [-3, 2]")


# --------------------------------------------------------------------------
# 5. cubic-minus-x and quartic extremes at the calibrated ranges

def test_05_cubic_and_quartic_extremes():
    cubic = scan_curve("cubic_minus_x", -1.4, 1.4)
    assert abs(cubic.hcc - 0.9397) < 5e-3
    assert abs(cubic.lcc - (-0.8341)) < 5e-3
    assert cubic.bcc == (8, 2, 2, 2, 2, 2, 2, 2, 9)
    assert cubic.wcc == (2, 2, 2, 2, 15, 2, 2, 2, 2)

    quartic = scan_curve("quartic", -3.5, 3.5)
    assert abs(quartic.hcc - 0.7944) < 5e-3
    assert abs(quartic.lcc - (-0.7944)) < 5e-3
    assert quartic.bcc == (2, 2, 14, 2, 2, 2, 5, 2)
    ok("cubic/quartic", f"cubic {cubic.hcc:.4f}/{cubic.lcc:.4f} on [-1.4, 1.4], "
                        f"quartic {quartic.hcc:.4f}/{quartic.lcc:.4f} on [-3.5, 3.5], "
                        f"extremal compositions exact")


# --------------------------------------------------------------------------
# 6. dataset-free identity battery

def test_06_identity_battery():
    rng = np.random.default_rng(2024)

    # (a) the single-part composition recovers textbook Pearson
    worst_a = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 32))
        a = TimeSeries("a", rng.normal(size=n))
        b = TimeSeries("b", rng.normal(size=n))
        r = comp_correlation(a, b, (n,))
        ref = float(np.corrcoef(a.values, b.values)[0, 1])
        worst_a = max(worst_a, abs(r - ref))
    assert worst_a < 1e-12

    # (b) the streamed fast path agrees with the naive per-part oracle
    worst_b = 0.0
    for _ in range(500):
        n = int(rng.integers(8, 21))
        m = int(rng.integers(2, 5))
        m = min(m, n)
        spec = CompositionSpec(n, m)
        a = TimeSeries("a", rng.normal(size=n))
        b = TimeSeries("b", rng.normal(size=n))
        res = scan(a, b, spec, ScanOptions(distribution=True))
        idx = int(rng.integers(count_compositions(spec)))
        parts = composition_at(spec, idx)
        mine = res.values[idx]
        ref = naive_r(list(map(float, a.values)), list(map(float, b.values)), parts)
        worst_b = max(worst_b, abs(float(mine) - ref))
    assert worst_b < 1e-9

    # (c) covariance of a series with itself is its variance
    for _ in range(100):
        n = int(rng.integers(4, 24))
        a = TimeSeries("a", rng.normal(size=n))
        spec = CompositionSpec(n, 2)
        parts = composition_at(spec, int(rng.integers(count_compositions(spec))))
        assert comp_covariance(a, a, parts) == comp_variance(a, parts)

    # (d) negating one series negates the correlation exactly
    for _ in range(100):
        n = int(rng.integers(4, 24))
        a = TimeSeries("a", rng.normal(size=n))
        b = TimeSeries("b", rng.normal(size=n))
        nb = TimeSeries("b", -b.values)
        spec = CompositionSpec(n, 2)
        parts = composition_at(spec, int(rng.integers(count_compositions(spec))))
        assert comp_correlation(a, nb, parts) == -comp_correlation(a, b, parts)

    # (e, f) positive affine maps leave values (1e-9) and extremal
    # compositions (exactly, absent ties) alone; extremes bound everything
    worst_e = 0.0
    for _ in range(25):
        n = int(rng.integers(10, 17))
        a = TimeSeries("a", rng.normal(size=n))
        b = TimeSeries("b", rng.normal(size=n))
        ta = TimeSeries("a", 3.5 * a.values - 11.0)
        tb = TimeSeries("b", 0.02 * b.values + 400.0)
        spec = CompositionSpec(n, 2)
        base = scan(a, b, spec, ScanOptions(distribution=True))
        moved = scan(ta, tb, spec)
        worst_e = max(worst_e, abs(base.hcc - moved.hcc), abs(base.lcc - moved.lcc))
        assert base.bcc == moved.bcc
        assert base.wcc == moved.wcc
        finite = base.values[~np.isnan(base.values)]
        assert base.lcc <= float(finite.min()) and float(finite.max()) <= base.hcc
        assert base.lcc <= base.pearson <= base.hcc
    assert worst_e < 1e-9

    # (g) the whole-series composition maximizes compositional variance
    for _ in range(50):
        n = int(rng.integers(4, 16))
        a = TimeSeries("a", rng.normal(size=n))
        spec = CompositionSpec(n, 2)
        top = comp_variance(a, (n,))
        for _ in range(30):
            parts = composition_at(spec, int(rng.integers(count_compositions(spec))))
            assert comp_variance(a, parts) <= top + 1e-12

    # (h) streamed enumeration emits exactly the recursive reference set
    def recursive(n, m):
        if n == 0:
            return [()]
        out = []
        for first in range(m, n + 1):
            rest = n - first
            if rest == 0 or rest >= m:
                out.extend((first,) + tail for tail in recursive(rest, m))
        return out

    for n in range(2, 13):
        for m in range(2, n + 1):
            spec = CompositionSpec(n, m)
            mine = list(enumerate_compositions(spec))
            assert len(mine) == count_compositions(spec)
            assert set(mine) == set(recursive(n, m))

    ok("identities", f"pearson@k=1 off {worst_a:.1e} (1000 draws), oracle off {worst_b:.1e} "
                     f"(500 draws), affine off {worst_e:.1e}, self-cov/sign-flip/extremes/"
                     f"variance-max/enumeration exact")


# --------------------------------------------------------------------------
# 7. gene pair values and aggregate slice counts (needs the expression matrix)

@needs_gene_data
def test_07_gene_pair_values_and_aggregates():
    ds = gene_dataset()
    assert len(ds) == 4381 and ds.n == 23
    spec = CompositionSpec(23, 4)

    def check(id_a, id_b, hcc, r, lcc=None, bcc=None, wcc=None):
        res = scan(ds.get(id_a), ds.get(id_b), spec)
        assert abs(res.hcc - hcc) < 5e-3, (id_a, id_b, res.hcc)
        assert abs(res.pearson - r) < 5e-3, (id_a, id_b, res.pearson)
        if lcc is not None:
            assert abs(res.lcc - lcc) < 5e-3, (id_a, id_b, res.lcc)
        if bcc is not None:
            assert res.bcc == bcc, (id_a, id_b, res.bcc)
        if wcc is not None:
            assert res.wcc == wcc, (id_a, id_b, res.wcc)
        return res

    check("YDL003W", "YDR097C", 0.9928, 0.9851, lcc=0.9422, bcc=(7, 4, 8, 4))
    check("YIL141W", "YMR031C", -0.7912, -0.9319, lcc=-0.9822, wcc=(9, 4, 5, 5))
    check("YHR145C", "YIL093C", 0.93, 0.00, bcc=(5, 4, 7, 7), wcc=(23,))

    counts = {"strong_flat": 0, "hcc": 0, "pearson": 0, "lcc": 0}

    def tally(records):
        for rec in records:
            if rec.hcc is not None and rec.hcc > 0.9:
                counts["hcc"] += 1
                if rec.pearson is not None and abs(rec.pearson) < 0.1:
                    counts["strong_flat"] += 1
            if rec.pearson is not None and rec.pearson > 0.9:
                counts["pearson"] += 1
            if rec.lcc is not None and rec.lcc < -0.9:
                counts["lcc"] += 1

    config = JobConfig(m=4, workers=min(8, os.cpu_count() or 1))
    summary = run_all_pairs(ds, config, sink=tally)
    assert summary.pairs_scanned == 9594390
    for key, want in [("strong_flat", 58), ("hcc", 31185), ("pearson", 2684), ("lcc", 12373)]:
        got = counts[key]
        assert abs(got - want) <= max(1, round(0.01 * want)), (key, got, want)
    ok("gene pairs", f"3 reference pairs within 5e-3, slice counts {counts} within 1%")


# --------------------------------------------------------------------------
# 8. correlation of every gene against the time axis (needs the matrix)

@needs_gene_data
def test_08_gene_time_correlation():
    ds = gene_dataset()
    config = JobConfig(m=2, workers=min(8, os.cpu_count() or 1))
    records = run_versus_time(ds, config)
    assert len(records) == 4381
    by_id = {rec.id_a: rec for rec in records}
    assert all(rec.hcc is not None and rec.hcc > 0.0 for rec in records)
    assert all(rec.lcc is not None and rec.lcc < 0.0 for rec in records)

    min_hcc = min(records, key=lambda rec: rec.hcc)
    max_lcc = max(records, key=lambda rec: rec.lcc)
    assert min_hcc.id_a == "YDR199W" and abs(min_hcc.hcc - 0.34) < 1e-2
    assert max_lcc.id_a == "YNL007C" and abs(max_lcc.lcc - (-0.32)) < 1e-2

    special = by_id["YJR004C"]
    assert abs(special.hcc - 0.93) < 1e-2
    assert special.bcc == (2, 2, 7, 2, 2, 8)
    ok("time corr", f"all 4381 genes hcc>0 and lcc<0, min hcc {min_hcc.hcc:.3f} "
                    f"({min_hcc.id_a}), max lcc {max_lcc.lcc:.3f} ({max_lcc.id_a})")


# --------------------------------------------------------------------------
# 9. throughput: a million pair-scans at n=23, m=4 (250 compositions each)
#    well inside a minute, deterministic across worker counts

def test_09_throughput_and_determinism():
    rng = np.random.default_rng(7)
    series = tuple(TimeSeries(f"s{i:04d}", rng.normal(size=23)) for i in range(1415))
    ds = Dataset(series=series, name="proxy")
    config = JobConfig(m=4, workers=min(8, os.cpu_count() or 1))
    emitted = [0]

    def sink(records):
        emitted[0] += len(records)

    summary = run_all_pairs(ds, config, sink=sink)
    assert summary.pairs_scanned == 1000405
    assert emitted[0] == 1000405
    assert summary.wall_seconds < 60.0
    assert summary.pairs_per_second >= 20000

    small = Dataset(series=series[:80], name="proxy")
    outputs = []
    for workers in (1, 2, 3):
        lines = []
        run_all_pairs(small, JobConfig(m=4, workers=workers),
                      sink=lambda recs: lines.extend(record_line(r, 15) for r in recs))
        outputs.append(lines)
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0]) == 80 * 79 // 2
    ok("throughput", f"{summary.pairs_scanned} pair-scans in {summary.wall_seconds:.1f} s "
                     f"({summary.pairs_per_second:.0f}/s on {summary.workers} worker(s)), "
                     f"identical output for 1/2/3 workers")


# --------------------------------------------------------------------------
# 10. baseline measures on reference gene pairs (needs the matrix)

def _find_id(ds: Dataset, prefix: str) -> str:
    hits = [i for i in ds.ids() if i.startswith(prefix)]
    assert hits, f"no series starting with {prefix!r}"
    assert len(hits) == 1, f"ambiguous prefix {prefix!r}: {hits}"
    return hits[0]


@needs_gene_data
def test_10_baseline_crosscheck():
    ds = gene_dataset()
    a = ds.get("YMR296C").values
    b = ds.get("YOL032W").values
    report = BaselineReport.for_pair(a, b)
    assert abs(report.pearson - 0.048) < 1e-2
    assert abs(report.spearman - 0.082) < 1e-2
    assert abs(report.distance_correlation - 0.386) < 1e-2

    hi = distance_correlation(ds.get(_find_id(ds, "YBR183")).values,
                              ds.get(_find_id(ds, "YHR216")).values)
    lo = distance_correlation(ds.get(_find_id(ds, "YER156")).values,
                              ds.get(_find_id(ds, "YLR109")).values)
    assert abs(hi - 0.508) < 1e-2
    assert abs(lo - 0.208) < 1e-2
    ok("baselines", f"pearson/spearman/dcor {report.pearson:.3f}/{report.spearman:.3f}/"
                    f"{report.distance_correlation:.3f}, extreme dcor {hi:.3f}/{lo:.3f}")
