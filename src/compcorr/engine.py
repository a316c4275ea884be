"""The scan kernel and every entry point: one pair, a pair list, all pairs, series vs time.

One kernel scans every pair, whichever entry point asks.  ``_Ctx`` holds
the rows of a run; the process that runs the kernel builds their window
deviations, flushed self sums and (for runs of many pairs) per-composition
variance sums once.  ``_scan_span`` then scans row i against a span of
rows: two-pass cross sums from the deviation table, three sparse products
with the composition incidence blocks (cached, or streamed per span when
too large to cache), the one clamp, and vectorized extreme tracking.
``scan`` is a one-pair span, so ``pair``, ``clouds``, ``all-pairs`` and
``time-corr`` give bit-identical answers for the same pair.

Chunk boundaries are fixed in pair-index space (never derived from the
worker count), results are reassembled in submission order, and every
array operation is row- or column-independent, so output files are
byte-identical no matter how many workers run.

Records pass through an optional conjunctive filter (comparisons on hcc,
lcc, pearson, abs(pearson)) before reaching the sink; Undefined never
satisfies a comparison.
"""
from __future__ import annotations

import math
import multiprocessing as mp
import re
import time
from dataclasses import dataclass

import numpy as np

from . import _blocks
from .compositions import CompositionSpec, composition_at, count_compositions
from .corr import ScanOptions, ScanResult, UNIT_EXCESS_TOL
from .datasets import Dataset
from .segments import (
    ConsistencyError,
    TimeSeries,
    segment_cross_css,
    series_segment_css,
    series_segment_sums,
    window_deviations,
)

CHUNK_PAIRS = 8192          # fixed chunk width in pair-index space
_CELL_BUDGET = 4_194_304    # max cells of a (compositions x pairs) intermediate
_VAR_SUM_BUDGET = 25_000_000  # max cells of the per-series variance-sum table

TIME_ID = "time"


# ---------------------------------------------------------------------------
# records, config, summary

@dataclass(frozen=True)
class PairRecord:
    """One scanned pair: extreme, plain, and extremal-composition fields."""

    id_a: str
    id_b: str
    hcc: float | None
    pearson: float | None
    lcc: float | None
    bcc: tuple[int, ...] | None
    wcc: tuple[int, ...] | None


RECORD_HEADER = "id_a\tid_b\thcc\tpearson\tlcc\tbcc\twcc"

_FILTER_FIELDS = ("hcc", "lcc", "pearson", "abs(pearson)")
_FILTER_OPS = {
    ">": np.greater,
    "<": np.less,
    ">=": np.greater_equal,
    "<=": np.less_equal,
}


@dataclass(frozen=True)
class FilterClause:
    field: str
    op: str
    value: float

    def __post_init__(self) -> None:
        if self.field not in _FILTER_FIELDS:
            raise ValueError(f"unknown filter field {self.field!r}; choose from {_FILTER_FIELDS}")
        if self.op not in _FILTER_OPS:
            raise ValueError(f"unknown filter operator {self.op!r}")
        if not -1.0 <= self.value <= 1.0:
            raise ValueError(f"filter threshold {self.value} outside [-1, 1]")


_CLAUSE_RE = re.compile(
    r"(hcc|lcc|pearson|abs\(pearson\))\s*(<=|>=|<|>)\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
)


def parse_filter(text: str) -> tuple[FilterClause, ...]:
    """Parse 'hcc>0.9 AND abs(pearson)<0.1' into clauses (AND-combined)."""
    clauses = []
    for raw in re.split(r"(?i)\s+AND\s+", text.strip()):
        m = _CLAUSE_RE.fullmatch(raw.strip())
        if not m:
            raise ValueError(
                f"cannot parse filter clause {raw!r}; expected e.g. 'hcc>0.9' with a field "
                f"from {_FILTER_FIELDS}"
            )
        clauses.append(FilterClause(m.group(1), m.group(2), float(m.group(3))))
    return tuple(clauses)


@dataclass(frozen=True)
class JobConfig:
    """Batch-run knobs: minimum part length, workers, record filter."""

    m: int
    workers: int = 1
    filter: tuple[FilterClause, ...] = ()

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"minimum part length must be at least 2, got m={self.m}")
        if self.workers < 1:
            raise ValueError(f"worker count must be at least 1, got {self.workers}")


@dataclass(frozen=True)
class RunSummary:
    pairs_scanned: int
    records_emitted: int
    undefined_values: int
    wall_seconds: float
    pairs_per_second: float
    workers: int

    def describe(self) -> str:
        return (
            f"{self.pairs_scanned} pairs scanned, {self.records_emitted} records emitted, "
            f"{self.undefined_values} undefined values, {self.wall_seconds:.2f} s wall, "
            f"{self.pairs_per_second:.0f} pairs/s on {self.workers} worker(s)"
        )


# ---------------------------------------------------------------------------
# rendering

def format_number(x: float | None, precision: int = 6) -> str:
    return "NA" if x is None else f"{x:.{precision}f}"


def format_composition(parts: tuple[int, ...] | None) -> str:
    return "NA" if parts is None else "[" + ",".join(str(p) for p in parts) + "]"


def record_line(rec: PairRecord, precision: int = 6) -> str:
    return "\t".join(
        (
            rec.id_a,
            rec.id_b,
            format_number(rec.hcc, precision),
            format_number(rec.pearson, precision),
            format_number(rec.lcc, precision),
            format_composition(rec.bcc),
            format_composition(rec.wcc),
        )
    )


# ---------------------------------------------------------------------------
# pair-index triangle

def _row_start(S: int, i: int) -> int:
    # first linear index of row i among pairs (i, j), i < j, row-major
    return i * (2 * S - i - 1) // 2


def _pair_at(S: int, p: int) -> tuple[int, int]:
    d = (2 * S - 1) ** 2 - 8 * p
    i = (2 * S - 1 - math.isqrt(d)) // 2
    while _row_start(S, i + 1) <= p:
        i += 1
    while _row_start(S, i) > p:
        i -= 1
    return i, i + 1 + (p - _row_start(S, i))


def _runs(S: int, lo: int, hi: int):
    """Split a pair-index range into per-row runs (i, j0, j1)."""
    while lo < hi:
        i, j = _pair_at(S, lo)
        row_end = _row_start(S, i + 1)
        take = min(hi, row_end) - lo
        yield i, j, j + take
        lo += take


# ---------------------------------------------------------------------------
# vectorized chunk evaluation

class _Ctx:
    """Everything a worker needs; pickled once per worker at pool start.

    The per-row tables are left to :meth:`load`, which runs in the process
    that runs the kernel, so a pool's parent never holds them.
    """

    def __init__(self, X: np.ndarray, m: int):
        S, n = X.shape
        self.spec = CompositionSpec(n, m)
        self.S = S
        self.n = n
        self.m = m
        self.X = X
        self.ncomp = count_compositions(self.spec)
        self.blocks = _blocks.blocks_for(n, m)  # None: streamed per span
        self.j_step = max(1, _CELL_BUDGET // min(self.ncomp, _blocks.BLOCK_ROWS))
        self.var_sums = None
        self.filter: tuple[FilterClause, ...] = ()

    def load(self) -> "_Ctx":
        self.dev = window_deviations(self.X, series_segment_sums(self.X, self.m))
        self.css, self.zmask = series_segment_css(self.X, self.dev)
        # a row's variance sums recur in every pair it takes part in; with
        # two rows there is one pair and nothing to reuse
        if self.S > 2 and self.blocks is not None and self.S * self.ncomp <= _VAR_SUM_BUDGET:
            self.var_sums = np.hstack([blk.matrix.dot(self.css.T).T for blk in self.blocks])
        return self


_CTX: _Ctx | None = None


def _set_ctx(ctx: _Ctx) -> None:
    global _CTX
    _CTX = ctx.load()


def _cross_css(ctx: _Ctx, i: int, j0: int, j1: int) -> np.ndarray:
    return segment_cross_css(ctx.dev, ctx.zmask, i, j0, j1)


def _clamp(r: np.ndarray) -> None:
    # NaN marks Undefined and passes through untouched
    with np.errstate(invalid="ignore"):
        bad = np.abs(r) - 1.0 > UNIT_EXCESS_TOL
    if np.any(bad):
        worst = float(np.nanmax(np.abs(r)))
        raise ConsistencyError(f"correlation magnitude {worst!r} exceeds 1 beyond rounding")
    np.clip(r, -1.0, 1.0, out=r)


def _scan_span(ctx: _Ctx, i: int, j0: int, j1: int, values=None, sums=None):
    """Scan pairs (i, j) for j in [j0, j1); returns per-pair result arrays.

    For a one-pair span, ``values`` (ncomp,) receives every composition's
    r_c and ``sums`` (ncomp, 3) its (var_a, var_b, cov) sums, when given.
    """
    J = j1 - j0
    css_ab = _cross_css(ctx, i, j0, j1)
    best = np.full(J, -np.inf)
    best_idx = np.full(J, -1, dtype=np.int64)
    worst = np.full(J, np.inf)
    worst_idx = np.full(J, -1, dtype=np.int64)
    pe = np.full(J, np.nan)
    undef_count = 0

    for blk in ctx.blocks or _blocks.iter_blocks(ctx.n, ctx.m):
        M = blk.matrix
        lo, hi = blk.offset, blk.offset + blk.count
        if ctx.var_sums is not None:
            va = ctx.var_sums[i, lo:hi]
            vb = ctx.var_sums[j0:j1, lo:hi].T
        else:
            va = M.dot(ctx.css[i])
            vb = M.dot(ctx.css[j0:j1].T)
        cov = M.dot(css_ab.T)
        undef = (va[:, None] == 0.0) | (vb == 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            r = cov / np.sqrt(va[:, None] * vb)
        r[undef] = np.nan
        _clamp(r)
        undef_count += int(undef.sum())
        if values is not None:
            values[lo:hi] = r[:, 0]
        if sums is not None:
            sums[lo:hi] = np.column_stack([va, vb[:, 0], cov[:, 0]])

        masked = np.where(undef, -np.inf, r)
        arg = masked.argmax(axis=0)
        val = masked[arg, np.arange(J)]
        upd = val > best
        best[upd] = val[upd]
        best_idx[upd] = arg[upd] + lo

        masked = np.where(undef, np.inf, r)
        arg = masked.argmin(axis=0)
        val = masked[arg, np.arange(J)]
        upd = val < worst
        worst[upd] = val[upd]
        worst_idx[upd] = arg[upd] + lo

        if hi == ctx.ncomp:
            pe = r[-1, :].copy()

    hcc = np.where(best_idx >= 0, best, np.nan)
    lcc = np.where(worst_idx >= 0, worst, np.nan)
    return hcc, pe, lcc, best_idx, worst_idx, undef_count


def _filter_mask(clauses, hcc, pe, lcc) -> np.ndarray:
    mask = np.ones(hcc.shape, dtype=bool)
    fields = {"hcc": hcc, "lcc": lcc, "pearson": pe}
    with np.errstate(invalid="ignore"):
        for c in clauses:
            arr = np.abs(pe) if c.field == "abs(pearson)" else fields[c.field]
            mask &= _FILTER_OPS[c.op](arr, c.value)
    return mask


def _chunk_worker(rg: tuple[int, int]):
    ctx = _CTX
    lo, hi = rg
    parts_i, parts_j = [], []
    parts_hcc, parts_pe, parts_lcc = [], [], []
    parts_bi, parts_wi = [], []
    undef_total = 0
    for i, j0, j1 in _runs(ctx.S, lo, hi):
        for js in range(j0, j1, ctx.j_step):
            je = min(j1, js + ctx.j_step)
            hcc, pe, lcc, bi, wi, undef = _scan_span(ctx, i, js, je)
            undef_total += undef
            parts_i.append(np.full(je - js, i, dtype=np.int64))
            parts_j.append(np.arange(js, je, dtype=np.int64))
            parts_hcc.append(hcc)
            parts_pe.append(pe)
            parts_lcc.append(lcc)
            parts_bi.append(bi)
            parts_wi.append(wi)
    i_arr = np.concatenate(parts_i)
    j_arr = np.concatenate(parts_j)
    hcc = np.concatenate(parts_hcc)
    pe = np.concatenate(parts_pe)
    lcc = np.concatenate(parts_lcc)
    bi = np.concatenate(parts_bi)
    wi = np.concatenate(parts_wi)
    keep = _filter_mask(ctx.filter, hcc, pe, lcc)
    return (
        hi - lo,
        undef_total,
        i_arr[keep],
        j_arr[keep],
        hcc[keep],
        pe[keep],
        lcc[keep],
        bi[keep],
        wi[keep],
    )


def _chunk_results(ctx: _Ctx, ranges, workers: int):
    if workers == 1 or len(ranges) <= 1:
        _set_ctx(ctx)
        for rg in ranges:
            yield _chunk_worker(rg)
        return
    with mp.Pool(workers, initializer=_set_ctx, initargs=(ctx,)) as pool:
        yield from pool.imap(_chunk_worker, ranges)


def _as_float(x: float) -> float | None:
    return None if np.isnan(x) else float(x)


class _Unranker:
    """Memoized canonical-index -> composition lookup."""

    def __init__(self, spec: CompositionSpec):
        self.spec = spec
        self.cache: dict[int, tuple[int, ...]] = {}

    def __call__(self, idx: int) -> tuple[int, ...] | None:
        if idx < 0:
            return None
        got = self.cache.get(idx)
        if got is None:
            got = self.cache[idx] = composition_at(self.spec, idx)
        return got


# ---------------------------------------------------------------------------
# public runs

def run_all_pairs(dataset: Dataset, config: JobConfig, sink, progress=None) -> RunSummary:
    """Scan every unordered pair of the dataset, in canonical pair order.

    ``sink`` is called with lists of PairRecord (the pairs that passed the
    filter), in deterministic order regardless of ``config.workers``.
    ``progress`` (optional) is called as progress(done_pairs, total_pairs)
    as chunks complete.
    """
    S = len(dataset)
    if S < 2:
        raise ValueError(f"all-pairs run needs at least 2 series, dataset has {S}")
    ctx = _Ctx(dataset.matrix, config.m)
    ctx.filter = config.filter
    ids = dataset.ids()
    unrank = _Unranker(ctx.spec)
    total = S * (S - 1) // 2
    ranges = [(lo, min(lo + CHUNK_PAIRS, total)) for lo in range(0, total, CHUNK_PAIRS)]

    t0 = time.perf_counter()
    done = 0
    emitted = 0
    undefined = 0
    for payload in _chunk_results(ctx, ranges, config.workers):
        npairs, undef, i_arr, j_arr, hcc, pe, lcc, bi, wi = payload
        done += npairs
        undefined += undef
        records = [
            PairRecord(
                ids[i], ids[j],
                _as_float(h), _as_float(p), _as_float(l),
                unrank(int(b)), unrank(int(w)),
            )
            for i, j, h, p, l, b, w in zip(i_arr, j_arr, hcc, pe, lcc, bi, wi)
        ]
        emitted += len(records)
        if records:
            sink(records)
        if progress is not None:
            progress(done, total)
    wall = time.perf_counter() - t0
    return RunSummary(
        pairs_scanned=done,
        records_emitted=emitted,
        undefined_values=undefined,
        wall_seconds=wall,
        pairs_per_second=done / wall if wall > 0 else float("inf"),
        workers=config.workers,
    )


def run_versus_time(dataset: Dataset, config: JobConfig, progress=None) -> list[PairRecord]:
    """Scan each series against time; one record per series, dataset order.

    Uses the dataset's time labels when present, otherwise the index grid
    0..n-1.  Compositional correlation is invariant to affine time
    relabeling, so for evenly spaced labels the two agree.
    """
    if dataset.time_labels is not None:
        t = TimeSeries(TIME_ID, np.asarray(dataset.time_labels, dtype=np.float64))
    else:
        t = TimeSeries(TIME_ID, np.arange(dataset.n, dtype=np.float64))
    ids = dataset.ids()
    ctx = _Ctx(np.vstack([t.values[None, :], dataset.matrix]), config.m)
    ctx.filter = config.filter
    unrank = _Unranker(ctx.spec)
    total = len(dataset)  # pair indices 0..S-1 are exactly (time, series_j)
    ranges = [(lo, min(lo + CHUNK_PAIRS, total)) for lo in range(0, total, CHUNK_PAIRS)]
    records: list[PairRecord] = []
    done = 0
    for payload in _chunk_results(ctx, ranges, config.workers):
        npairs, _, _, j_arr, hcc, pe, lcc, bi, wi = payload
        done += npairs
        for j, h, p, l, b, w in zip(j_arr, hcc, pe, lcc, bi, wi):
            records.append(
                PairRecord(ids[j - 1], TIME_ID, _as_float(h), _as_float(p), _as_float(l),
                           unrank(int(b)), unrank(int(w)))
            )
        if progress is not None:
            progress(done, total)
    return records


def scan(a: TimeSeries, b: TimeSeries, spec: CompositionSpec,
         options: ScanOptions = ScanOptions()) -> ScanResult:
    """Evaluate r_c over every composition of the pair, canonical order.

    One span of the batch kernel, so the answers are bit-identical to every
    other entry point's for the same pair.  Memory stays bounded by the
    block size unless the full distribution or clouds were requested.
    """
    if a.n != spec.n or b.n != spec.n:
        raise ValueError(
            f"scan spec expects n={spec.n}, series have {a.n} ({a.id!r}) and {b.n} ({b.id!r})"
        )
    ctx = _Ctx(np.vstack([a.values, b.values]), spec.m).load()
    values = np.empty(ctx.ncomp) if options.distribution or options.clouds else None
    sums = np.empty((ctx.ncomp, 3)) if options.clouds else None
    hcc, pe, lcc, bi, wi, undefined = _scan_span(ctx, 0, 1, 2, values, sums)
    return ScanResult.from_kernel(
        a, b, spec, hcc[0], lcc[0], pe[0], int(bi[0]), int(wi[0]), undefined, values,
        None if sums is None else np.column_stack([values, sums / spec.n]),
    )


def run_pair(dataset: Dataset, id_a: str, id_b: str, m: int,
             options: ScanOptions = ScanOptions()) -> ScanResult:
    """Full scan of one named pair."""
    return scan(dataset.get(id_a), dataset.get(id_b), CompositionSpec(dataset.n, m), options)


def run_pair_list(dataset: Dataset, pairs, config: JobConfig) -> list[PairRecord]:
    """Scan an explicit list of (id_a, id_b), preserving list order."""
    pairs = list(pairs)
    if not pairs:
        return []
    names = list(dict.fromkeys(name for pair in pairs for name in pair))
    row = {name: k for k, name in enumerate(names)}
    ctx = _Ctx(np.vstack([dataset.get(name).values for name in names]), config.m).load()
    spans = [_scan_span(ctx, row[a], row[b], row[b] + 1) for a, b in pairs]
    hcc, pe, lcc, bi, wi = (np.concatenate(col) for col in list(zip(*spans))[:5])
    keep = _filter_mask(config.filter, hcc, pe, lcc)
    unrank = _Unranker(ctx.spec)
    return [
        PairRecord(a, b, _as_float(h), _as_float(p), _as_float(l), unrank(int(bc)), unrank(int(wc)))
        for (a, b), k, h, p, l, bc, wc in zip(pairs, keep, hcc, pe, lcc, bi, wi)
        if k
    ]
