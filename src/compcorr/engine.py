"""The scan kernel and every entry point: one pair, a pair list, all pairs, series vs time.

One kernel scans every pair, whichever entry point asks.  ``_Ctx`` holds
the rows of a run; the process that runs the kernel builds their window
deviations, flushed self sums and (for runs of many pairs) per-composition
variance sums once.  ``_scan_span`` then scans row i against a span of
rows: two-pass cross sums from the deviation table, one product per
composition incidence block (``_blocks``, built once per (n, m) and shared
by every span), the one clamp, and vectorized extreme tracking.
``scan`` is a one-pair span, so ``pair``, ``clouds``, ``all-pairs`` and
``time-corr`` give bit-identical answers for the same pair.

The batch runs (``run_all_pairs``, ``run_versus_time``, ``run_pair_list``)
share one chunk loop over pair indices, of the pair-index triangle or of
an explicit pair list, on ``JobConfig.workers`` processes.  Chunks are
fixed in pair-index space (never derived from the worker count), results
are reassembled in submission order, and every array operation is row- or
column-independent, so output is byte-identical no matter how many
workers run.  A worker that dies outright fails the run instead of
hanging it.

Records pass through an optional conjunctive filter (comparisons on hcc,
lcc, pearson, abs(pearson)) before reaching the sink; Undefined never
satisfies a comparison.  A chunk's kept pairs travel as columns (row
indices, hcc, pearson, lcc, and BCC and WCC as canonical composition
indices).  Given a precision, the worker also renders them to text in
bulk, so the parent only writes: :func:`render_fixed` turns each number
column into fixed-point digits in a byte matrix, and
:func:`composition_labels` reads BCC and WCC labels out of the one
composition-label table, which distribution files use too.
``format_number``, ``format_composition`` and ``record_line`` remain the
per-value reference that the bulk text matches byte for byte.  The batch
entry points hand their pairs out through :class:`Records`, which builds
each ``PairRecord`` from the columns only when it is read.
"""
from __future__ import annotations

import math
import re
import signal
import time
from collections.abc import Sequence
from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _blocks
from .compositions import CompositionSpec, composition_at, composition_counts, count_compositions, prefix_runs, tail_cap
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
# Most compositions per run of the composition-label table.  The table then
# holds a few thousand tail labels while a run still spans hundreds of lines.
LABEL_ROWS = 1024


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


# Highest precision the digit path serves: |x| < 10 keeps 10^p·|x| below
# 10^16, well inside int64.
_FIXED_DIGITS = 15


def render_fixed(values: np.ndarray, precision: int) -> np.ndarray:
    """Render a float vector as rows of a NUL-padded uint8 matrix.

    Row k, without its NULs, reads as ``format_number(values[k], precision)``
    does, and NaN (Undefined) reads ``NA``.  The digits come from
    ``rint(|x|·10^p)`` as int64 and the sign from ``signbit``, so -0.0 and
    -1e-9 read ``-0.000000``.  ``format`` renders the rest: |x| >= 10, and
    every value whose scaled fraction lies so near one half that float
    scaling might round it otherwise than Python's exact decimal rounding.
    The band, max(10^p·|x|, 1)·2^-52, is twice the largest error of the
    scaling, one correctly rounded multiplication.
    """
    x = np.asarray(values, dtype=np.float64)
    p = precision
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.abs(x) * float(10 ** min(p, _FIXED_DIGITS))
        fast = ((np.abs(x) < 10) & (p <= _FIXED_DIGITS)
                & (np.abs(scaled - np.floor(scaled) - 0.5) > np.maximum(scaled, 1.0) * 2.0 ** -52))
    q = np.rint(np.where(fast, scaled, 0.0)).astype(np.int64)
    fast &= q < 10 ** (min(p, _FIXED_DIGITS) + 1)  # one integer digit
    digits = np.empty((p + 1, len(x)), np.uint8)
    for row in digits[::-1]:
        rest = q // 10
        row[:] = q - rest * 10 + ord("0")
        q = rest
    undefined = np.isnan(x)
    slow = ~(fast | undefined)
    spec = f".{p}f"
    rows = byte_rows([format(v, spec) for v in x[slow].tolist()])
    mat = np.zeros((len(x), max(p + 2 + (p > 0), rows.shape[1])), np.uint8)
    mat[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    mat[:, 1] = digits[0]
    if p:
        mat[:, 2] = ord(".")
        mat[:, 3:p + 3] = digits[1:].T
    mat[~fast] = 0
    mat[undefined, :2] = (ord("N"), ord("A"))
    mat[slow, :rows.shape[1]] = rows
    return mat


def byte_rows(strings: list[str]) -> np.ndarray:
    """Strings, UTF-8 encoded, as the rows of a NUL-padded uint8 matrix."""
    if "\0" in "".join(strings):
        raise ValueError("text to render contains a NUL character")
    try:
        table = np.array(strings, dtype=bytes)  # ASCII, the common case
    except UnicodeEncodeError:
        table = np.array([s.encode() for s in strings], dtype=bytes)
    return table.view(np.uint8).reshape(len(table), table.itemsize)


def join_rows(columns) -> bytes:
    """Concatenate each row across NUL-padded uint8 columns, padding dropped.

    A ``bytes`` column is a constant repeated on every row.  Returns the
    rows back to back.
    """
    mats = [np.frombuffer(col, np.uint8)[None, :] if isinstance(col, bytes) else col
            for col in columns]
    out = np.empty((max(len(mat) for mat in mats), sum(mat.shape[1] for mat in mats)), np.uint8)
    at = 0
    for mat in mats:
        out[:, at:at + mat.shape[1]] = mat
        at += mat.shape[1]
    return out.tobytes().translate(None, b"\0")


class _Parts(dict):
    """Canonical composition index -> parts, memoised; -1 (none) -> None."""

    def __init__(self, spec: CompositionSpec):
        super().__init__({-1: None})
        self.spec = spec

    def __missing__(self, index: int) -> tuple[int, ...]:
        got = self[index] = composition_at(self.spec, index)
        return got


@lru_cache(maxsize=4)
def _label_table(n: int, m: int, label_rows: int):
    """The canonical order of compositions of n, cut into prefix runs.

    Returns, as padded byte matrices, each run's head (``[`` and its prefix
    parts) and every tail label, with its ``]``, of remainders 0 and
    m..cap; then, per run, the tail row of its first composition less its
    first index, and the index one past its end.  The last head and tail
    rows, empty and ``NA``, label index -1.
    """
    cap = tail_cap(n, m, label_rows)
    tails = [",".join(map(str, parts)) + "]"
             for r in (0, *range(m, cap + 1)) for parts, _ in prefix_runs(r, m, 0)]
    heads, remainders = [], []
    for prefix, remainder in prefix_runs(n, m, cap):
        heads.append("[" + ",".join(map(str, prefix)) + ("," if prefix and remainder else ""))
        remainders.append(remainder)
    sizes = np.array(composition_counts(cap, m))  # zero for remainders 1..m-1
    first = np.cumsum(sizes) - sizes
    ends = np.cumsum(sizes[remainders])
    return (byte_rows(heads + [""]), byte_rows(tails + ["NA"]),
            first[remainders] - (ends - sizes[remainders]), ends)


def composition_labels(spec: CompositionSpec, index) -> tuple[np.ndarray, np.ndarray]:
    """Labels of canonical composition indices, as two NUL-padded byte columns.

    The columns are each label's run head and its tail with the ``]``.
    Joined by :func:`join_rows`, row k reads as ``format_composition``
    writes composition ``index[k]``, and ``NA`` where that index is -1.
    """
    heads, tails, offsets, ends = _label_table(spec.n, spec.m, LABEL_ROWS)
    index = np.asarray(index, dtype=np.int64)
    run = np.searchsorted(ends, index, side="right")
    none = index < 0
    return (heads.take(np.where(none, -1, run), axis=0),
            tails.take(np.where(none, -1, offsets[run] + index), axis=0))


class Records(Sequence):
    """Scanned pairs held as columns; each PairRecord is built on request.

    ``a`` and ``b`` index ``ids`` for the two series of each pair; hcc,
    pearson and lcc are NaN where Undefined, BCC and WCC canonical
    composition indices (-1: none).  ``text`` is the rendered lines when
    the run was given a precision, else None.
    """

    def __init__(self, ids, parts: _Parts, a, b, hcc, pearson, lcc, bcc, wcc,
                 text: str | None = None):
        self.ids = ids
        self.parts = parts
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
        ids, parts = self.ids, self.parts
        for a, b, h, p, l, bc, wc in zip(*(col.tolist() for col in columns)):
            yield PairRecord(ids[a], ids[b], None if h != h else h, None if p != p else p,
                             None if l != l else l, parts[bc], parts[wc])

    def render(self, precision: int) -> str:
        """One line per record, as record_line writes it, each ending in a newline."""
        if not len(self):
            return ""
        a, b, hcc, pe, lcc, bi, wi = self.columns
        ids = byte_rows(self.ids)
        tab = b"\t"
        return join_rows([
            ids.take(a, axis=0), tab, ids.take(b, axis=0), tab, render_fixed(hcc, precision), tab,
            render_fixed(pe, precision), tab, render_fixed(lcc, precision), tab,
            *composition_labels(self.parts.spec, bi), tab,
            *composition_labels(self.parts.spec, wi), b"\n",
        ]).decode()


# ---------------------------------------------------------------------------
# pair-index triangle

def _row_start(S: int, i: int) -> int:
    # first linear index of row i among pairs (i, j), i < j, row-major
    return i * (2 * S - i - 1) // 2


def _pair_at(S: int, p: int) -> tuple[int, int]:
    d = (2 * S - 1) ** 2 - 8 * p
    # isqrt rounds down, so i is never below the row; it can only overshoot
    i = (2 * S - 1 - math.isqrt(d)) // 2
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

    Rows of ``X`` are series named by ``ids``.  Pair index p is the p-th
    pair of the pair-index triangle, or ``pairs[p]`` given ``pairs``, a
    (P, 2) int64 array of row pairs.  The per-row tables are left to
    :meth:`load`, which runs in the process that runs the kernel, so a
    pool's parent never holds them.
    """

    def __init__(self, X: np.ndarray, m: int, ids: Sequence[str] = (),
                 filter: tuple[FilterClause, ...] = (), precision: int | None = None,
                 pairs: np.ndarray | None = None):
        S, n = X.shape
        self.spec = CompositionSpec(n, m)
        self.S = S
        self.n = n
        self.m = m
        self.X = X
        self.ncomp = count_compositions(self.spec)
        self.blocks = _blocks.blocks_for(n, m)
        self.j_step = max(1, _CELL_BUDGET // min(self.ncomp, _blocks.BLOCK_ROWS))
        self.var_sums = None
        self.ids = tuple(ids)
        self.parts = _Parts(self.spec)
        self.filter = filter
        self.precision = precision  # render kept records when set
        self.pairs = pairs

    def load(self) -> "_Ctx":
        self.dev = window_deviations(self.X, series_segment_sums(self.X, self.m))
        self.css, self.zmask = series_segment_css(self.X, self.dev)
        # a row's variance sums recur in every pair it takes part in; with
        # two rows there is one pair and nothing to reuse
        if self.S > 2 and self.S * self.ncomp <= _VAR_SUM_BUDGET:
            self.var_sums = np.empty((self.S, self.ncomp))
            for blk in self.blocks:
                cols = slice(blk.offset, blk.offset + blk.count)
                # j_step rows at a time keep each product within the cell budget
                for r0 in range(0, self.S, self.j_step):
                    rows = slice(r0, r0 + self.j_step)
                    self.var_sums[rows, cols] = blk.matrix.dot(self.css[rows].T).T
        return self


_CTX: _Ctx | None = None


def _set_ctx(ctx: _Ctx) -> None:
    """A pool worker's initializer.

    A Ctrl-C reaches the parent too, which reports it, so a worker ends at
    once, as a program with no SIGINT handler does.  A KeyboardInterrupt
    would print a traceback while the worker loads or waits for a chunk.
    """
    global _CTX
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, [signal.SIGINT])  # blocked by _chunk_results
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
    # one product per block: the cross sums, and the self sums when not cached
    if ctx.var_sums is None:
        x = np.vstack([ctx.css[i], ctx.css[j0:j1], css_ab]).T
    else:
        x = css_ab.T
    x = np.ascontiguousarray(x)

    for blk in ctx.blocks:
        lo, hi = blk.offset, blk.offset + blk.count
        y = blk.matrix.dot(x)
        if ctx.var_sums is not None:
            va = ctx.var_sums[i, lo:hi]
            vb = ctx.var_sums[j0:j1, lo:hi].T
            cov = y
        else:
            va, vb, cov = y[:, 0], y[:, 1:J + 1], y[:, J + 1:]
        undef = (va[:, None] == 0.0) | (vb == 0.0)
        # in place: every (compositions x pairs) temporary is page faults
        # once the allocator has handed the last span's memory back
        with np.errstate(invalid="ignore", divide="ignore"):
            r = va[:, None] * vb
            np.divide(cov, np.sqrt(r, out=r), out=r)
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

        masked[undef] = np.inf
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
    """Scan pair indices [lo, hi): (pairs, undefined, a, b, hcc, pearson, lcc,
    bcc, wcc, text) of the pairs that pass ``ctx.filter``, the text rendered
    only when ``ctx.precision`` is set."""
    ctx = _CTX
    lo, hi = rg
    if ctx.pairs is None:
        spans = ((i, js, min(j1, js + ctx.j_step))
                 for i, j0, j1 in _runs(ctx.S, lo, hi) for js in range(j0, j1, ctx.j_step))
    else:
        spans = ((i, j, j + 1) for i, j in ctx.pairs[lo:hi].tolist())
    parts = []
    undefined = 0
    for i, j0, j1 in spans:
        hcc, pe, lcc, bi, wi, undef = _scan_span(ctx, i, j0, j1)
        undefined += undef
        parts.append((np.full(j1 - j0, i, dtype=np.int64), np.arange(j0, j1, dtype=np.int64),
                      hcc, pe, lcc, bi, wi))
    columns = [np.concatenate(col) for col in zip(*parts)]
    keep = _filter_mask(ctx.filter, *columns[2:5])
    columns = [col[keep] for col in columns]
    text = None if ctx.precision is None else Records(ctx.ids, ctx.parts, *columns).render(ctx.precision)
    return (hi - lo, undefined, *columns, text)


def _chunk_results(ctx: _Ctx, ranges, workers: int):
    """Chunk payloads in submission order, on ``workers`` processes (1: in-process).

    A worker that dies outright breaks the pool, and the next payload
    raises BrokenProcessPool instead of waiting for it.
    """
    global _CTX
    if workers == 1:
        _CTX = ctx.load()
        try:
            for rg in ranges:
                yield _chunk_worker(rg)
        finally:
            _CTX = None  # the run's tables go with the run
        return
    # imported here: a run on one worker never starts a pool
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, initializer=_set_ctx, initargs=(ctx,))
    try:
        # map forks the workers, then starts the pool's manager thread.  A
        # Ctrl-C in between leaves workers that nothing stops, or a thread
        # that shutdown cannot join, so SIGINT waits until map returns, and
        # in the workers until _set_ctx
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
        try:
            results = pool.map(_chunk_worker, ranges)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield from results
    finally:
        pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# public runs

def _run_chunks(ctx: _Ctx, total: int, workers: int, sink, progress=None) -> RunSummary:
    """The one chunk loop of every batch run.

    Scans pair indices [0, total) of ``ctx`` in fixed chunks of
    ``CHUNK_PAIRS`` and calls ``sink`` with each chunk's :class:`Records`,
    empty or not, in pair-index order, then ``progress(done_pairs, total)``
    when given.
    """
    ranges = [(lo, min(lo + CHUNK_PAIRS, total)) for lo in range(0, total, CHUNK_PAIRS)]
    # fork starts every pool worker at once, so no more than there are chunks
    workers = max(1, min(workers, len(ranges)))
    t0 = time.perf_counter()
    done = emitted = undefined = 0
    with closing(_chunk_results(ctx, ranges, workers)) as chunks:
        for npairs, undef, *columns, text in chunks:
            done += npairs
            undefined += undef
            records = Records(ctx.ids, ctx.parts, *columns, text=text)
            emitted += len(records)
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
        workers=workers,
    )


def _run_columns(ctx: _Ctx, total: int, workers: int, progress=None) -> list[np.ndarray]:
    """:func:`_run_chunks` with every chunk's columns concatenated."""
    chunks = []
    _run_chunks(ctx, total, workers, chunks.append, progress)
    return [np.concatenate(col) for col in zip(*(records.columns for records in chunks))]


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
    ctx = _Ctx(dataset.matrix, config.m, dataset.ids(), config.filter, precision)

    def chunk(records: Records) -> None:
        if records:
            sink(records)

    return _run_chunks(ctx, S * (S - 1) // 2, config.workers, chunk, progress)


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
    ctx = _Ctx(np.vstack([t.values[None, :], dataset.matrix]), config.m,
               (TIME_ID, *dataset.ids()), config.filter)
    # pair indices 0..S-1 are exactly (time, series_j)
    time_row, row, *values = _run_columns(ctx, len(dataset), config.workers, progress)
    return Records(ctx.ids, ctx.parts, row, time_row, *values)


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
    ctx = _Ctx(np.vstack([dataset.get(name).values for name in names]), config.m, names,
               config.filter, pairs=np.array([(row[a], row[b]) for a, b in pairs], dtype=np.int64))
    return list(Records(ctx.ids, ctx.parts, *_run_columns(ctx, len(pairs), config.workers)))
