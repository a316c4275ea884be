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
satisfies a comparison.  A chunk's kept pairs travel as columns (row
indices, hcc, pearson, lcc, and BCC and WCC as canonical composition
indices).  Given a precision, the worker also renders them to text,
through a label memo it keeps across its chunks, so the parent only
writes.  The batch entry points hand their pairs out through
:class:`Records`, which builds each ``PairRecord`` from the columns only
when it is read.
"""
from __future__ import annotations

import math
import multiprocessing as mp
import re
import time
from collections.abc import Sequence
from contextlib import closing
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


class _Parts(dict):
    """Canonical composition index -> parts, memoised; -1 (none) -> None."""

    def __init__(self, spec: CompositionSpec):
        super().__init__({-1: None})
        self.spec = spec

    def __missing__(self, index: int) -> tuple[int, ...]:
        got = self[index] = composition_at(self.spec, index)
        return got


class _Labels(dict):
    """Canonical composition index -> label as format_composition writes it."""

    def __init__(self, spec: CompositionSpec):
        super().__init__()
        self.parts = _Parts(spec)

    def __missing__(self, index: int) -> str:
        got = self[index] = format_composition(self.parts[index])
        return got


def _formatted(values: np.ndarray, spec: str) -> list[str]:
    # NaN (x != x) marks Undefined
    return ["NA" if x != x else format(x, spec) for x in values.tolist()]


class Records(Sequence):
    """Scanned pairs held as columns; each PairRecord is built on request.

    ``a`` and ``b`` index ``ids`` for the two series of each pair; hcc,
    pearson and lcc are NaN where Undefined, BCC and WCC canonical
    composition indices (-1: none).  ``text`` is the rendered lines when
    the run was given a precision, else None.
    """

    def __init__(self, ids, labels: _Labels, a, b, hcc, pearson, lcc, bcc, wcc,
                 text: str | None = None):
        self.ids = ids
        self.labels = labels
        self.a, self.b = a, b
        self.columns = (a, b, hcc, pearson, lcc, bcc, wcc)
        self.text = text

    def __len__(self) -> int:
        return len(self.a)

    def __getitem__(self, k: int) -> PairRecord:
        k = range(len(self))[k]  # negative indices and IndexError as for a list
        return next(self._records([col[k:k + 1] for col in self.columns]))

    def __iter__(self):
        return self._records(self.columns)

    def __eq__(self, other):
        if isinstance(other, (Records, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def _records(self, columns):
        ids, parts = self.ids, self.labels.parts
        for a, b, h, p, l, bc, wc in zip(*(col.tolist() for col in columns)):
            yield PairRecord(ids[a], ids[b], None if h != h else h, None if p != p else p,
                             None if l != l else l, parts[bc], parts[wc])

    def render(self, precision: int) -> str:
        """One line per record, as record_line writes it, each ending in a newline."""
        spec = f".{precision}f"
        ids, labels = self.ids, self.labels
        a, b, hcc, pe, lcc, bi, wi = self.columns
        return "".join([
            f"{ids[x]}\t{ids[y]}\t{h}\t{p}\t{l}\t{labels[bc]}\t{labels[wc]}\n"
            for x, y, h, p, l, bc, wc in zip(
                a.tolist(), b.tolist(), _formatted(hcc, spec), _formatted(pe, spec),
                _formatted(lcc, spec), bi.tolist(), wi.tolist())
        ])


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
        self.ids: tuple[str, ...] = ()  # one per row, to name records
        self.labels = _Labels(self.spec)
        self.filter: tuple[FilterClause, ...] = ()
        self.precision: int | None = None  # render kept records when set

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


def _scan_columns(ctx: _Ctx, spans):
    """Scan spans (i, j0, j1) in turn; the columns (a, b, hcc, pearson, lcc,
    bcc, wcc) of the pairs that pass ``ctx.filter``, and the Undefined count."""
    parts = []
    undefined = 0
    for i, j0, j1 in spans:
        hcc, pe, lcc, bi, wi, undef = _scan_span(ctx, i, j0, j1)
        undefined += undef
        parts.append((np.full(j1 - j0, i, dtype=np.int64), np.arange(j0, j1, dtype=np.int64),
                      hcc, pe, lcc, bi, wi))
    columns = [np.concatenate(col) for col in zip(*parts)]
    keep = _filter_mask(ctx.filter, *columns[2:5])
    return tuple(col[keep] for col in columns), undefined


def _chunk_worker(rg: tuple[int, int]):
    """Scan one chunk: (pairs, undefined, a, b, hcc, pearson, lcc, bcc, wcc,
    text), the text rendered only when ``ctx.precision`` is set."""
    ctx = _CTX
    lo, hi = rg
    spans = (
        (i, js, min(j1, js + ctx.j_step))
        for i, j0, j1 in _runs(ctx.S, lo, hi)
        for js in range(j0, j1, ctx.j_step)
    )
    columns, undefined = _scan_columns(ctx, spans)
    text = None
    if ctx.precision is not None:
        text = Records(ctx.ids, ctx.labels, *columns).render(ctx.precision)
    return (hi - lo, undefined, *columns, text)


def _chunk_results(ctx: _Ctx, ranges, workers: int):
    if workers == 1 or len(ranges) <= 1:
        _set_ctx(ctx)
        for rg in ranges:
            yield _chunk_worker(rg)
        return
    with mp.Pool(workers, initializer=_set_ctx, initargs=(ctx,)) as pool:
        yield from pool.imap(_chunk_worker, ranges)


# ---------------------------------------------------------------------------
# public runs

def _chunk_ranges(total: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + CHUNK_PAIRS, total)) for lo in range(0, total, CHUNK_PAIRS)]


def run_all_pairs(dataset: Dataset, config: JobConfig, sink, progress=None,
                  precision: int | None = None) -> RunSummary:
    """Scan every unordered pair of the dataset, in canonical pair order.

    ``sink`` is called once per chunk with a :class:`Records` of the pairs
    that passed the filter, a sequence of PairRecord built as it is read,
    in deterministic order regardless of ``config.workers``.  With a
    ``precision``, the workers also render each chunk, and its ``text``
    holds the lines :func:`record_line` writes at that precision.
    ``progress`` (optional) is called as progress(done_pairs, total_pairs)
    as chunks complete.
    """
    S = len(dataset)
    if S < 2:
        raise ValueError(f"all-pairs run needs at least 2 series, dataset has {S}")
    ctx = _Ctx(dataset.matrix, config.m)
    ctx.ids = tuple(dataset.ids())
    ctx.filter = config.filter
    ctx.precision = precision
    total = S * (S - 1) // 2

    t0 = time.perf_counter()
    done = 0
    emitted = 0
    undefined = 0
    with closing(_chunk_results(ctx, _chunk_ranges(total), config.workers)) as chunks:
        for npairs, undef, *columns, text in chunks:
            done += npairs
            undefined += undef
            records = Records(ctx.ids, ctx.labels, *columns, text=text)
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


def run_versus_time(dataset: Dataset, config: JobConfig, progress=None) -> Records:
    """Scan each series against time; one record per series, dataset order.

    Uses the dataset's time labels when present, otherwise the index grid
    0..n-1.  Compositional correlation is invariant to affine time
    relabeling, so for evenly spaced labels the two agree.  Each record
    names the series first and time second.
    """
    if dataset.time_labels is not None:
        t = TimeSeries(TIME_ID, np.asarray(dataset.time_labels, dtype=np.float64))
    else:
        t = TimeSeries(TIME_ID, np.arange(dataset.n, dtype=np.float64))
    ctx = _Ctx(np.vstack([t.values[None, :], dataset.matrix]), config.m)
    ctx.ids = (TIME_ID, *dataset.ids())
    ctx.filter = config.filter
    total = len(dataset)  # pair indices 0..S-1 are exactly (time, series_j)
    payloads = []
    done = 0
    with closing(_chunk_results(ctx, _chunk_ranges(total), config.workers)) as chunks:
        for payload in chunks:
            payloads.append(payload[2:9])
            done += payload[0]
            if progress is not None:
                progress(done, total)
    time_row, row, hcc, pe, lcc, bi, wi = (np.concatenate(col) for col in zip(*payloads))
    return Records(ctx.ids, ctx.labels, row, time_row, hcc, pe, lcc, bi, wi)


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
    ctx.ids = tuple(names)
    ctx.filter = config.filter
    columns, _ = _scan_columns(ctx, [(row[a], row[b], row[b] + 1) for a, b in pairs])
    return list(Records(ctx.ids, ctx.labels, *columns))
