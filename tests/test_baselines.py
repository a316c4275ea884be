import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import rankdata

import compcorr
from compcorr.baselines import BaselineReport, distance_correlation, pearson, spearman
from compcorr.compositions import CompositionSpec
from compcorr.corr import comp_correlation
from compcorr.datasets import Dataset
from compcorr.engine import JobConfig, run_pair_list, scan
from compcorr.segments import TimeSeries


def naive_distance_correlation(x, y):
    """Quadratic-time reference: double-centered distance matrices."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n = x.size
    a = np.abs(x[:, None] - x[None, :])
    b = np.abs(y[:, None] - y[None, :])
    A = a - a.mean(axis=0) - a.mean(axis=1)[:, None] + a.mean()
    B = b - b.mean(axis=0) - b.mean(axis=1)[:, None] + b.mean()
    dcov2 = (A * B).mean()
    dvarx = (A * A).mean()
    dvary = (B * B).mean()
    denom = np.sqrt(dvarx * dvary)
    if denom <= 0:
        return 0.0
    return float(np.sqrt(max(dcov2, 0.0) / denom))


def series(name, vals):
    return TimeSeries(name, np.asarray(vals, float))


# ---------------------------------------------------------------- pearson

def test_pearson_matches_numpy():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(3, 40))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        r = pearson(series("x", x), series("y", y))
        assert r == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)


def test_pearson_of_constant_is_undefined():
    assert pearson(series("x", [1, 2, 3]), series("y", [5, 5, 5])) is None
    assert pearson(series("x", [2, 2]), series("y", [1, 3])) is None


def test_pearson_perfect_line():
    x = series("x", [0, 1, 2, 3])
    assert pearson(x, series("y", [1, 3, 5, 7])) == 1.0
    assert pearson(x, series("y", [7, 5, 3, 1])) == -1.0


def test_pearson_is_the_one_part_composition_under_an_offset():
    # unit variation on a 1e6 offset sits far above the kernel's zero floor
    rng = np.random.default_rng(1)
    x = rng.normal(size=23)
    y = x + 0.5 * rng.normal(size=23)
    a, b = series("a", x + 1e6), series("b", y + 1e6)
    r = pearson(a, b)
    assert r is not None
    for m in (2, 4):
        assert r == scan(a, b, CompositionSpec(23, m)).pearson
    # the two-pass reference sums in another order: 3 ulps apart on this pair
    assert r == pytest.approx(comp_correlation(a, b, (23,)), abs=1e-15)
    assert r == pytest.approx(pearson(x, y), abs=1e-9)


def test_pearson_and_spearman_are_the_kernels_bits():
    """On random pairs at several lengths, scales and offsets, pearson is
    the pearson of every scan and batch run of the pair, bit for bit."""
    rng = np.random.default_rng(17)
    by_n = {}
    for k in range(200):
        n = int(rng.integers(8, 30))
        scale = 10.0 ** rng.uniform(-3, 3)
        offset = float(rng.choice([0.0, 1e3, 1e6]))
        x = rng.normal(size=n)
        y = 0.6 * x + rng.normal(size=n)
        a, b = series(f"a{k}", x * scale + offset), series(f"b{k}", y * scale + offset)
        r = pearson(a, b)
        assert r == scan(a, b, CompositionSpec(n, 4)).pearson
        assert spearman(a, b) == pearson(rankdata(a.values), rankdata(b.values))
        by_n.setdefault(n, {})[a.id, b.id] = (a, b, r)
    for pairs in by_n.values():
        ds = Dataset(series=tuple(s for a, b, _ in pairs.values() for s in (a, b)))
        records = run_pair_list(ds, list(pairs), JobConfig(m=4))
        assert [rec.pearson for rec in records] == [r for _, _, r in pairs.values()]


# --------------------------------------------------------------- spearman

def test_spearman_is_invariant_to_monotone_transforms():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(4, 30))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        base = spearman(series("x", x), series("y", y))
        warped = spearman(series("x", np.exp(x)), series("y", y**3))
        assert warped == pytest.approx(base, abs=1e-12)


def test_spearman_handles_ties_with_average_ranks():
    # x ranks: [1.5, 1.5, 3], y ranks: [1, 2, 3]
    x = series("x", [4.0, 4.0, 9.0])
    y = series("y", [1.0, 2.0, 3.0])
    rx = np.array([1.5, 1.5, 3.0])
    ry = np.array([1.0, 2.0, 3.0])
    want = np.corrcoef(rx, ry)[0, 1]
    assert spearman(x, y) == pytest.approx(want, abs=1e-12)


def test_spearman_of_constant_is_undefined():
    assert spearman(series("x", [1, 2, 3]), series("y", [5, 5, 5])) is None


# --------------------------------------------------- distance correlation

def test_dcor_matches_naive_reference():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(3, 30))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        got = distance_correlation(series("x", x), series("y", y))
        assert got == pytest.approx(naive_distance_correlation(x, y), abs=1e-10)


def test_dcor_detects_deterministic_dependence():
    x = np.linspace(-1, 1, 21)
    assert distance_correlation(series("x", x), series("y", x.copy())) == pytest.approx(1.0, abs=1e-12)
    # y = x^2 is uncorrelated with x here but strongly dependent
    y = x**2
    assert abs(np.corrcoef(x, y)[0, 1]) < 1e-12
    assert distance_correlation(series("x", x), series("y", y)) > 0.4


def test_dcor_bounds_and_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(3, 20))
        x = series("x", rng.normal(size=n))
        y = series("y", rng.normal(size=n))
        d = distance_correlation(x, y)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(distance_correlation(y, x), abs=1e-14)


def test_dcor_invariant_to_shift_and_scale():
    rng = np.random.default_rng(5)
    x = rng.normal(size=25)
    y = rng.normal(size=25)
    base = distance_correlation(series("x", x), series("y", y))
    moved = distance_correlation(series("x", 3 * x - 7), series("y", 0.5 * y + 2))
    assert moved == pytest.approx(base, abs=1e-12)


def test_dcor_of_constant_is_zero():
    assert distance_correlation(series("x", [1, 2, 3]), series("y", [5, 5, 5])) == 0.0


# ----------------------------------------------------------------- report

def test_report_for_pair():
    rng = np.random.default_rng(6)
    x = series("x", rng.normal(size=23))
    y = series("y", rng.normal(size=23))
    rep = BaselineReport.for_pair(x, y)
    assert rep.pearson == pytest.approx(pearson(x, y), abs=1e-15)
    assert rep.spearman == pytest.approx(spearman(x, y), abs=1e-15)
    assert rep.distance_correlation == pytest.approx(distance_correlation(x, y), abs=1e-15)


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is most of the CLI's start-up time and only spearman needs
    # it; nothing needs scipy.sparse, not even a scan
    src = str(Path(compcorr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = textwrap.dedent("""
        import sys, compcorr.cli
        import numpy as np
        from compcorr.compositions import CompositionSpec
        from compcorr.datasets import Dataset
        from compcorr.engine import JobConfig, run_all_pairs, scan
        from compcorr.segments import TimeSeries
        print('scipy.stats' in sys.modules, 'scipy.sparse' in sys.modules)
        rng = np.random.default_rng(1)
        a, b = (TimeSeries(name, rng.normal(size=23)) for name in 'ab')
        scan(a, b, CompositionSpec(23, 2))
        run_all_pairs(Dataset(series=(a, b)), JobConfig(m=4), sink=lambda records: None)
        print('scipy.sparse' in sys.modules)
    """)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.split() == ["False", "False", "False"]
