"""The scan kernel and every entry point: one pair, a pair list, all pairs, series vs time.

One kernel scans every pair, whichever entry point asks.  ``_Ctx`` holds
the rows of a run; the process that runs the kernel builds their
co-moment step table (``segments``), flushed self sums and (for runs of
many pairs) per-composition variance sums, with each row's count of
zero-variance compositions, once.  ``_scan_span`` then scans row i
against a span of rows: cross sums from the step table, one product per
composition incidence block (``_blocks``, built once per (n, m) and
shared by every span), each written into its rows of a batch of at most
``_blocks.BLOCK_ROWS`` compositions; then, once per batch, r, NaN for
Undefined, the one clamp, and vectorized extreme tracking.  Its
span-sized arrays live in buffers the process reuses from span to span.
Each row enters the kernel times an exact power of two that puts its
largest magnitude in [0.5, 1), so no square or product overflows or
underflows whatever the data's scale, and r_c keeps every bit.
``scan`` is a one-pair span, so ``pair``, ``clouds``,
``all-pairs`` and ``time-corr`` give bit-identical answers for the same
pair.  A one-pair scan hands its per-composition rows (r_c, and the
variance and covariance sums of a point cloud) to a sink batch by
batch: ``ScanOptions`` keeps them as whole vectors for library callers,
and the CLI's writers stream them to their files, so memory there is a
batch, not a value per composition.  :class:`PairScan` runs a one-pair
scan in parts, runs of whole batches, and folds their extremes by the
kernel's own rule across batches (``_Extremes``: the first of equal
values wins), so the CLI writes a file's parts in separate processes.

The batch runs (``run_all_pairs``, ``run_versus_time``, ``run_pair_list``)
share one chunk loop over pair indices, of the pair-index triangle or of
an explicit pair list, on ``JobConfig.workers`` processes: children
forked once the run's tables are built (:func:`forked`, which also runs
the CLI's parts of a one-pair file).  Chunks are fixed in pair-index
space by (n, m), never by the worker count, results are read back in
chunk order, and every array operation is row- or column-independent, so
output is byte-identical no matter how many workers run.  A child that
dies outright fails the run instead of hanging it.

Records pass through an optional conjunctive filter (comparisons on hcc,
lcc, pearson, abs(pearson)) before reaching the sink; Undefined never
satisfies a comparison.  A chunk's kept pairs travel as columns (row
indices, hcc, pearson, lcc, and BCC and WCC as canonical composition
indices).  Given a precision, the worker also renders them to text in
bulk, so the parent only writes: into the fields of one byte matrix of
lines (:func:`line_matrix`), :func:`render_fixed` writes fixed-point
digits and :func:`composition_labels` BCC and WCC labels read out of the
one composition-label table, which distribution files use too.  The table
is cut like the kernel's blocks: a head per block, and the tail labels of
every remainder the blocks' tries hold.
``format_number``, ``format_composition`` and ``record_line`` remain the
per-value reference that the bulk text matches byte for byte.  The batch
entry points hand their pairs out through :class:`Records`, which builds
each ``PairRecord`` from the columns only when it is read.
"""
from __future__ import annotations

import math
import os
import pickle
import re
import signal
import time
from collections.abc import Sequence
from contextlib import closing, contextmanager
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
    flush_cross,
    series_segment_css,
    series_segment_sums,
    window_sums,
)

CHUNK_PAIRS = 8192          # most pairs per chunk
_CHUNK_EVALS = 2 ** 26      # most pair x composition evaluations a chunk of more than one pair holds
# Most cells of a batch's (compositions x columns) product, which sets a
# span's width, J pairs.  Both caps are set by speed, not memory; ROADMAP
# item 7 has the runs (in-process, 1 worker, m=2).  Without the
# variance-sum table the product is 2J + 1 columns, and 2^20 cells give
# J = 31 at n >= 22.  Against J = 31, J = 15 made all-pairs 6% slower on
# 200 walks at n=23 and on 32 walks at n=31, and J = 127 made time-corr
# on 200 walks 14% slower at n=28 and 28% at n=31, at 2.4 and 1.7 times
# the peak RSS.  With the table the product is J columns, and whole rows
# measured fastest: all-pairs on 200 walks at n=26 took 26-28 s at
# J = 64 against 21 s at 4M cells, and on 60 walks at n=28 7.5-8.8 s at
# J = 32 against 5.6-6.1 s.
_CELL_BUDGET = 1 << 20          # without the variance-sum table
_TABLE_CELL_BUDGET = 4_194_304  # with it
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


# the grammar of FilterClause: its fields and operators, the longest operator first
_CLAUSE_RE = re.compile(r"({})\s*({})\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)".format(
    "|".join(map(re.escape, _FILTER_FIELDS)),
    "|".join(map(re.escape, sorted(_FILTER_OPS, key=len, reverse=True)))))


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
# the four decimal digits of 0..9999 in ASCII, each row one word
_DIGITS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1).reshape(-1, 4)


def fixed_width(precision: int) -> int:
    """Bytes :func:`render_fixed` takes for a value rounding below 10 in magnitude, as r does."""
    return precision + 2 + (precision > 0)


def _words(field: np.ndarray) -> np.ndarray:
    """A (rows, k) uint8 field as one k-byte word per row, written in one pass."""
    return field.view(f"V{field.shape[1]}")[:, 0]


def render_fixed(values: np.ndarray, precision: int, out: np.ndarray | None = None) -> np.ndarray:
    """Render a float vector as rows of a NUL-padded uint8 matrix.

    Row k, without its NULs, reads as ``format_number(values[k], precision)``
    does, and NaN (Undefined) reads ``NA``.  The digits come from
    ``rint(|x|·10^p)`` as int64 and the sign from ``signbit``, so -0.0 and
    -1e-9 read ``-0.000000``.  ``format`` renders the rest: |x| >= 10, and
    every value whose scaled fraction lies so near one half that float
    scaling might round it otherwise than Python's exact decimal rounding.
    The band, max(10^p·|x|, 1)·2^-52, is twice the largest error of the
    scaling, one correctly rounded multiplication.  Given ``out``, a field
    of a line matrix wide enough for every row, each of its bytes is written.
    """
    x = np.asarray(values, dtype=np.float64)
    p = precision
    fast = np.zeros(len(x), bool)
    if p <= _FIXED_DIGITS:
        with np.errstate(over="ignore", invalid="ignore"):
            ax = np.abs(x)
            scaled = ax * float(10 ** p)
            fast = (ax < 10) & (np.abs(scaled - np.floor(scaled) - 0.5) > np.maximum(scaled, 1.0) * 2.0 ** -52)
        q = np.rint(np.where(fast, scaled, 0.0)).astype(np.int64)
        fast &= q < 10 ** (p + 1)  # one integer digit
    bad = np.flatnonzero(~fast)
    undefined = np.isnan(x[bad])
    slow = bad[~undefined]
    rows = byte_rows([format(v, f".{p}f") for v in x[slow].tolist()])
    width = fixed_width(p)
    if out is None:
        out = np.empty((len(x), max(width, rows.shape[1])), np.uint8)
    elif rows.shape[1] > out.shape[1]:
        raise ValueError(f"a value takes {rows.shape[1]} bytes, its field {out.shape[1]}")
    if p <= _FIXED_DIGITS:
        # sign; integer digit and point in one word; the decimals four at
        # a time from the right, each a word of _DIGITS
        np.multiply(np.signbit(x), np.uint8(ord("-")), out=out[:, 0])
        whole = q // 10 ** p
        q -= whole * 10 ** p
        if p:
            out[:, 1:3].view("<u2")[:, 0] = whole + (ord("0") | ord(".") << 8)
        else:
            out[:, 1] = whole + ord("0")
        end = width
        while end > 7:
            rest = q // 10_000
            _words(out[:, end - 4:end])[:] = _words(_DIGITS).take(q - rest * 10_000)
            q, end = rest, end - 4
        if p:
            _words(out[:, 3:end])[:] = _words(_DIGITS[:, 7 - end:])[q]
        out[:, width:] = 0
    if len(bad):
        out[bad] = 0
        out[bad[undefined], :2] = (ord("N"), ord("A"))
        out[slow, :rows.shape[1]] = rows
    return out


def byte_rows(strings: list[str]) -> np.ndarray:
    """Strings, UTF-8 encoded, as the rows of a NUL-padded uint8 matrix."""
    if "\0" in "".join(strings):
        raise ValueError("text to render contains a NUL character")
    try:
        table = np.array(strings, dtype=bytes)  # ASCII, the common case
    except UnicodeEncodeError:
        table = np.array([s.encode() for s in strings], dtype=bytes)
    return table.view(np.uint8).reshape(len(table), table.itemsize)


def line_matrix(layout, rows: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """A (rows, width) uint8 matrix of lines, laid out left to right by ``layout``.

    Each item is a ``bytes`` constant, written into every row; a (rows, w)
    byte matrix, copied in; or the width of a field, whose view is returned
    for its writer to fill, every byte of it.
    """
    items = [np.frombuffer(item, np.uint8)[None] if isinstance(item, bytes) else item
             for item in layout]
    widths = [item if isinstance(item, int) else item.shape[1] for item in items]
    lines, fields, at = np.empty((rows, sum(widths)), np.uint8), [], 0
    for item, w in zip(items, widths):
        if isinstance(item, int):
            fields.append(lines[:, at:at + w])
        else:
            _words(lines[:, at:at + w])[:] = _words(item)
        at += w
    return lines, fields


def join_rows(lines: np.ndarray) -> bytes:
    """The rows of a NUL-padded uint8 matrix back to back, padding dropped."""
    return lines.tobytes().translate(None, b"\0")


class _Parts(dict):
    """Canonical composition index -> parts, memoised; -1 (none) -> None."""

    def __init__(self, spec: CompositionSpec):
        super().__init__({-1: None})
        self.spec = spec

    def __missing__(self, index: int) -> tuple[int, ...]:
        got = self[index] = composition_at(self.spec, index)
        return got


@lru_cache(maxsize=4)
def _label_table(n: int, m: int):
    """The canonical order of compositions of n, cut as the kernel's blocks are.

    The cut is ``prefix_runs`` at ``tail_cap(n, m, _blocks.BLOCK_ROWS)``,
    read without building the blocks' tries.  Returns, as NUL-padded byte
    matrices, each block's head (``[`` and its prefix parts) and every tail
    label, with its ``]``, of remainders 0 and m..cap; then, per block, the
    tail row of its first composition less its offset, and its end.  The
    last head and tail rows, empty and ``NA``, label index -1.
    """
    cap = tail_cap(n, m, _blocks.BLOCK_ROWS)
    heads, remainders = [], []
    for prefix, remainder in prefix_runs(n, m, cap):
        heads.append("[" + ",".join(map(str, prefix)) + "," * bool(prefix and remainder))
        remainders.append(remainder)
    heads = byte_rows(heads + [""])
    # the tails of r: each first part p, then "p," before each tail of r - p,
    # or "r" before the tail "]" of 0; every block of them one copy
    sizes = np.array(composition_counts(cap, m))  # zero for remainders 1..m-1
    first = np.cumsum(sizes) - sizes
    width = [1] + [0] * cap
    for r in range(m, cap + 1):
        width[r] = max(len(str(p)) + (p < r) + width[r - p] for p in (*range(m, r - m + 1), r))
    tails = np.zeros((int(sizes.sum()) + 1, max(2, *width)), np.uint8)
    tails[0, 0] = ord("]")
    tails[-1, :2] = (ord("N"), ord("A"))
    for r in range(m, cap + 1):
        at = first[r]
        for p in (*range(m, r - m + 1), r):
            q = r - p
            text = np.frombuffer(f"{p}{',' * (p < r)}".encode(), np.uint8)
            rows = tails[at:at + sizes[q]]
            rows[:, :len(text)] = text
            rows[:, len(text):len(text) + width[q]] = tails[first[q]:first[q] + sizes[q], :width[q]]
            at += sizes[q]
    run_sizes = sizes[remainders]
    ends = np.cumsum(run_sizes)
    offsets = first[remainders]
    offsets -= ends
    offsets += run_sizes
    return heads, tails, offsets, ends


def label_width(spec: CompositionSpec) -> int:
    """Bytes :func:`composition_labels` writes per label: a head and a tail."""
    heads, tails, _, _ = _label_table(spec.n, spec.m)
    return heads.shape[1] + tails.shape[1]


def composition_labels(spec: CompositionSpec, index, out: np.ndarray | None = None) -> np.ndarray:
    """Labels of canonical composition indices, as rows of a NUL-padded byte matrix.

    Row k, its block's head and then its tail with the ``]``, reads
    without its NULs as ``format_composition`` writes composition
    ``index[k]``, and ``NA`` where that index is -1.  Given ``out``, a
    field of a line matrix, each of its bytes is written.  A ``range`` of
    indices, as a distribution file asks for, takes one head row and one
    slice of tails per block.
    """
    heads, tails, offsets, ends = _label_table(spec.n, spec.m)
    if out is None:
        out = np.empty((len(index), label_width(spec)), np.uint8)
    head, tail = _words(out[:, :heads.shape[1]]), _words(out[:, heads.shape[1]:])
    heads, tails = _words(heads), _words(tails)
    if isinstance(index, range):
        at, run = index.start, int(np.searchsorted(ends, index.start, side="right"))
        while at < index.stop:
            end = min(int(ends[run]), index.stop)
            rows = slice(at - index.start, end - index.start)
            head[rows] = heads[run]
            tail[rows] = tails[offsets[run] + at:offsets[run] + end]
            at, run = end, run + 1
        return out
    index = np.asarray(index, dtype=np.int64)
    run = np.searchsorted(ends, index, side="right")
    none = index < 0
    head[:] = heads.take(np.where(none, -1, run))
    tail[:] = tails.take(np.where(none, -1, offsets[run] + index))
    return out


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

    def __getitem__(self, k):
        if isinstance(k, slice):  # the records of the slice, as list(self)[k] gives them
            return list(self._records([col[k] for col in self.columns]))
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
        ids, spec, tab = byte_rows(self.ids), self.parts.spec, b"\t"
        value, label = fixed_width(precision), label_width(spec)
        lines, (id_a, id_b, *values, bcc, wcc) = line_matrix(
            [ids.shape[1], tab, ids.shape[1], tab, value, tab, value, tab, value, tab,
             label, tab, label, b"\n"], len(self))
        _words(id_a)[:], _words(id_b)[:] = _words(ids).take(a), _words(ids).take(b)
        for field, col in zip(values, (hcc, pe, lcc)):
            render_fixed(col, precision, field)
        composition_labels(spec, bi, bcc)
        composition_labels(spec, wi, wcc)
        return join_rows(lines).decode()


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
    """Everything a scan needs.

    Rows of ``X`` are series named by ``ids``.  Pair index p is the p-th
    pair of the pair-index triangle, or ``pairs[p]`` given ``pairs``, a
    (P, 2) int64 array of row pairs.  The per-row tables are left to
    :meth:`load`, which runs once per run, before any child is forked, so
    the children share them copy-on-write.
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
        self.batches = _blocks.batches(self.blocks)
        # a row's variance sums recur in every pair it takes part in; with
        # two rows there is one pair and nothing to reuse
        self.keep_var_sums = S > 2 and S * self.ncomp <= _VAR_SUM_BUDGET
        # a batch's product is J columns wide with the variance sums kept,
        # else 2J + 1: row i's self sums, the J rows' and the J cross sums
        rows = min(self.ncomp, _blocks.BLOCK_ROWS)
        self.j_step = max(1, _TABLE_CELL_BUDGET // rows if self.keep_var_sums
                          else (_CELL_BUDGET // rows - 1) // 2)
        self.var_sums = None
        self.ids = tuple(ids)
        self.parts = _Parts(self.spec)
        self.filter = filter
        self.precision = precision  # render kept records when set
        self.pairs = pairs

    def load(self) -> "_Ctx":
        # each row times an exact power of two, 2^-exp, has max|x| in
        # [0.5, 1): no square, product or sum of the scan can then overflow
        # or underflow, and every step, sum and r keeps its bits
        self.exp = np.frexp(np.abs(self.X).max(axis=1))[1]
        X = np.ldexp(self.X, -self.exp[:, None])
        self.steps = series_segment_sums(X)
        self.css, self.zmask = series_segment_css(X, self.m, self.steps)
        self.scratch = _blocks.Scratch()  # span-sized buffers, reused span to span
        if self.keep_var_sums:
            self.var_sums = np.empty((self.ncomp, self.S))
            for blk in self.blocks:
                comps = slice(blk.offset, blk.offset + blk.count)
                # j_step rows at a time keep each product within the cell budget
                for r0 in range(0, self.S, self.j_step):
                    rows = slice(r0, r0 + self.j_step)
                    self.var_sums[comps, rows] = blk.matrix.dot(self.css[:, rows])
            # compositions of each row with zero variance: Undefined in every pair
            self.flat = np.count_nonzero(self.var_sums == 0.0, axis=0)
        return self


_CTX: _Ctx | None = None


def _cross_css(ctx: _Ctx, i: int, j0: int, j1: int) -> np.ndarray:
    """Flushed cross sums (nseg, j1 - j0) of row i with rows j0..j1-1."""
    out = ctx.scratch("cross", (len(ctx.steps), j1 - j0))
    cross = window_sums(ctx.steps, ctx.m, slice(j0, j1), slice(i, i + 1), out)
    return flush_cross(cross, ctx.zmask[:, i, None], ctx.zmask[:, j0:j1])


def _clamp(r: np.ndarray) -> None:
    # NaN marks Undefined and passes through untouched
    with np.errstate(invalid="ignore"):
        bad = np.abs(r) - 1.0 > UNIT_EXCESS_TOL
    if np.any(bad):
        worst = float(np.nanmax(np.abs(r)))
        raise ConsistencyError(f"correlation magnitude {worst!r} exceeds 1 beyond rounding")
    np.clip(r, -1.0, 1.0, out=r)


def _undefined(ctx: _Ctx, i: int, j0: int, j1: int) -> int:
    """Undefined compositions of pairs (i, j), j in [j0, j1), from the rows'
    zero-variance counts: |Z_i| + |Z_j| - |Z_i and Z_j|."""
    flat = ctx.flat
    count = int(flat[i]) * (j1 - j0) + int(flat[j0:j1].sum())
    both = np.flatnonzero(flat[j0:j1]) + j0 if flat[i] else ()
    if len(both):
        zero = ctx.var_sums[:, i, None] == 0.0
        count -= int(np.count_nonzero(zero & (ctx.var_sums[:, both] == 0.0)))
    return count


def _extremes(r: np.ndarray, nan_cols: np.ndarray):
    """Per column of r: the first row of its maximum, that maximum, and the
    same for its minimum.  Undefined entries (NaN) are skipped; only the
    columns ``nan_cols`` may hold them, and one that holds nothing else
    gives NaN."""
    top, bottom = r.argmax(axis=0), r.argmin(axis=0)
    if len(nan_cols):
        part = r[:, nan_cols]
        undef = np.isnan(part)
        top[nan_cols] = np.where(undef, -np.inf, part).argmax(axis=0)
        bottom[nan_cols] = np.where(undef, np.inf, part).argmin(axis=0)
    cols = np.arange(r.shape[1])
    return top, r[top, cols], bottom, r[bottom, cols]


class _Extremes:
    """Running extremes of each column: the maximum and minimum so far, and
    the first composition of each (-1 before any)."""

    def __init__(self, J: int):
        self.best = np.full(J, -np.inf)
        self.best_idx = np.full(J, -1, dtype=np.int64)
        self.worst = np.full(J, np.inf)
        self.worst_idx = np.full(J, -1, dtype=np.int64)

    def fold(self, top, high, bottom, low, lo: int = 0) -> None:
        """Fold in a later run of compositions, starting at ``lo``: its first
        maximum ``high`` at ``top`` and first minimum ``low`` at ``bottom``.
        Only a strictly greater maximum or smaller minimum replaces the one
        held, so of equal values the earlier composition wins, and NaN (a
        run with nothing defined) replaces nothing."""
        upd = high > self.best
        self.best[upd] = high[upd]
        self.best_idx[upd] = top[upd] + lo
        upd = low < self.worst
        self.worst[upd] = low[upd]
        self.worst_idx[upd] = bottom[upd] + lo

    def values(self):
        """(hcc, lcc, bcc index, wcc index): NaN and -1 where nothing was defined."""
        return (np.where(self.best_idx >= 0, self.best, np.nan),
                np.where(self.worst_idx >= 0, self.worst, np.nan), self.best_idx, self.worst_idx)


def _scan_span(ctx: _Ctx, i: int, j0: int, j1: int, block=None, batches=None):
    """Scan pairs (i, j) for j in [j0, j1); returns per-pair result arrays.

    ``block``, when given, is called once per batch of compositions, in
    canonical order, as block(offset, r, var_a, var_b, cov): (count, J)
    arrays of the batch's r_c and of its sums at the rows' scaled units.
    They are the kernel's scratch, valid during the call only.
    ``batches``, a run of ``ctx.batches`` (all of them by default), limits
    the scan to its compositions: a part of a one-pair scan, whose Pearson
    is NaN unless the run holds the last batch.  Without the variance-sum
    table, as in every one-pair scan, the Undefined count is the run's.
    """
    J = j1 - j0
    css_ab = _cross_css(ctx, i, j0, j1)
    running = _Extremes(J)
    pe = np.full(J, np.nan)
    # one product per block: the cross sums, and the self sums when not cached
    if ctx.var_sums is None:
        x = np.concatenate((ctx.css[:, i, None], ctx.css[:, j0:j1], css_ab), axis=1)
        undefined = 0
    else:
        x = css_ab
        undefined = _undefined(ctx, i, j0, j1)
        # only pairs with a row that has zero-variance compositions hold NaN
        nan_cols = np.flatnonzero(ctx.flat[j0:j1] + ctx.flat[i])

    for lo, hi, batch in ctx.batches if batches is None else batches:
        # each block's product lands in its rows of the batch
        y = ctx.scratch("y", (hi - lo, x.shape[1]))
        for blk in batch:
            blk.matrix.dot(x, y[blk.offset - lo:blk.offset - lo + blk.count], ctx.scratch)
        if ctx.var_sums is not None:
            va, vb, cov = ctx.var_sums[lo:hi, i, None], ctx.var_sums[lo:hi, j0:j1], y
        else:
            va, vb, cov = y[:, :1], y[:, 1:J + 1], y[:, J + 1:]
        # NaN marks Undefined: var_a or var_b is 0, and so is cov
        r = np.multiply(va, vb, out=ctx.scratch("r", (hi - lo, J)))
        with np.errstate(invalid="ignore", divide="ignore"):
            np.divide(cov, np.sqrt(r, out=r), out=r)
        if ctx.var_sums is None:
            nan = np.isnan(r)
            undefined += int(np.count_nonzero(nan))
            nan_cols = np.flatnonzero(nan.any(axis=0))
        extremes = _extremes(r, nan_cols)
        if np.any(extremes[1] > 1.0) or np.any(extremes[3] < -1.0):
            _clamp(r)
            extremes = _extremes(r, nan_cols)
        if block is not None:
            block(lo, r, va, vb, cov)
        # the first of equal maxima wins, within a batch (argmax) and across
        running.fold(*extremes, lo)

        if hi == ctx.ncomp:
            pe = r[-1, :].copy()

    hcc, lcc, best_idx, worst_idx = running.values()
    return hcc, pe, lcc, best_idx, worst_idx, undefined


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

    The run's tables are built here, once.  With more than one worker,
    child k (:func:`forked`) scans chunks k, k + workers, ... and the
    payloads are read from the children in chunk order.  A chunk's
    exception is raised in its turn, and a child that dies outright raises
    ChildProcessError instead of hanging the run.
    """
    global _CTX
    _CTX = ctx.load()
    try:
        if workers == 1:
            yield from map(_chunk_worker, ranges)
            return
        # each child looks _chunk_worker up as it runs a chunk, so a patched
        # one (bench/tracing.py hooks it) runs there
        with forked((_chunk_worker(rg) for rg in ranges[k::workers]) for k in range(workers)) as children:
            for c, (lo, hi) in enumerate(ranges):
                payload = children[c % workers].answer(f"pairs {lo} to {hi - 1}")
                if isinstance(payload, BaseException):
                    raise payload
                yield payload
    finally:
        _CTX = None  # the run's tables go with the run


@contextmanager
def forked(works):
    """One :class:`_Child` per iterable of ``works``, forked with SIGINT held,
    so that a Ctrl-C can neither break into a child's at-fork hooks nor
    leave a child this process does not know; each is ended and reaped,
    SIGINT held again, when the block ends."""
    children = []
    try:
        with sigint_held():
            for answers in works:
                children.append(_Child(answers))
        yield children
    finally:
        with sigint_held():
            for child in children:
                child.close()


class _Child:
    """A forked child that runs ``answers``, an iterable, and sends each answer back.

    The child takes SIGINT's default action: a Ctrl-C reaches the parent
    too, which reports it.  It pickles each answer, or the exception that
    ended the iterable, onto a pipe, and always leaves through
    ``os._exit``, so it never flushes inherited buffers, runs exit handlers
    or returns into the caller.
    """

    def __init__(self, answers):
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            try:
                signal.signal(signal.SIGINT, signal.SIG_DFL)
                signal.pthread_sigmask(signal.SIG_UNBLOCK, [signal.SIGINT])
                os.close(read)
                with open(write, "wb") as pipe:
                    try:
                        for answer in answers:
                            pipe.write(pickle.dumps(answer))
                            pipe.flush()
                    except BaseException as exc:
                        try:
                            pipe.write(pickle.dumps(exc))
                        except Exception:  # an exception that does not pickle
                            pipe.write(pickle.dumps(ChildProcessError(repr(exc))))
            finally:
                os._exit(0)
        os.close(write)
        self.pipe = open(read, "rb")

    def answer(self, span: str):
        """The next answer the child sent, or the exception it sent instead;
        ``span`` names its work in the error raised if it ended without one."""
        try:
            return pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):  # no answer, or part of one
            pass
        code = self._reap()
        if code == -signal.SIGINT:
            raise KeyboardInterrupt  # a Ctrl-C, which this process gets too
        raise ChildProcessError(f"the process scanning {span} ended without an answer: "
                                + (f"killed by signal {-code}" if code < 0
                                   else f"terminated abruptly with exit status {code}"))

    def _reap(self) -> int:
        # SIGINT held, the pid goes with the reap: a Ctrl-C in between would
        # leave close() a pid that is gone, or already someone else's.  A
        # Ctrl-C reaches the whole process group, and a child's death can be
        # seen before this process handles its own SIGINT: one received or
        # pending raises here, as the block starts or ends
        with sigint_held():
            _, status = os.waitpid(self.pid, 0)
            self.pid = None
        return os.waitstatus_to_exitcode(status)

    def close(self) -> None:
        """End and reap the child if it still runs; close its pipe."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            self._reap()
        self.pipe.close()


@contextmanager
def sigint_held():
    """Hold SIGINT back in this thread, and in the processes it forks,
    until the block ends; one sent meanwhile is delivered then."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, [])
    try:
        # blocking runs the handler of a SIGINT received: the mask still goes back
        signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


# ---------------------------------------------------------------------------
# public runs

def _chunk_pairs(ncomp: int) -> int:
    """Pairs per chunk of a run whose pairs have ``ncomp`` compositions.

    Set by (n, m) alone, never by the worker count, so output is the same on
    any number of workers: ``CHUNK_PAIRS`` where pairs are cheap, fewer
    where each costs more, so that a run of a few hundred pairs at n=31,
    m=2 still makes chunks enough for every worker.
    """
    return max(1, min(CHUNK_PAIRS, _CHUNK_EVALS // ncomp))


def _run_chunks(ctx: _Ctx, total: int, workers: int, sink, progress=None) -> RunSummary:
    """The one chunk loop of every batch run.

    Scans pair indices [0, total) of ``ctx`` in fixed chunks of
    :func:`_chunk_pairs` and calls ``sink`` with each chunk's :class:`Records`,
    empty or not, in pair-index order, then ``progress(done_pairs, total)``
    when given.
    """
    step = _chunk_pairs(ctx.ncomp)
    ranges = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
    # one child a worker, so no more than there are chunks; one process
    # where the platform cannot fork
    workers = max(1, min(workers, len(ranges))) if hasattr(os, "fork") else 1
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


class PairScan:
    """One pair's scan, runnable in parts.

    A part is a run of whole kernel batches (``batches``, as
    ``_blocks.batches`` cuts them).  :meth:`cut` splits them into runs of
    near-equal composition counts, :meth:`run` scans one, handing its
    per-composition rows to a sink as :func:`scan` does, and :meth:`result`
    folds the parts' answers, in part order, by the kernel's own rule
    across batches: the first of equal extremes wins.  So a scan in any
    number of parts, each in any process, gives the bits of a scan in one.
    The tables are built here, before any part runs.
    """

    def __init__(self, a: TimeSeries, b: TimeSeries, spec: CompositionSpec,
                 options: ScanOptions = ScanOptions()):
        if a.n != spec.n or b.n != spec.n:
            raise ValueError(
                f"scan spec expects n={spec.n}, series have {a.n} ({a.id!r}) and {b.n} ({b.id!r})"
            )
        self.a, self.b, self.spec, self.options = a, b, spec, options
        self.ctx = _Ctx(np.vstack([a.values, b.values]), spec.m).load()
        self.batches = self.ctx.batches

    def cut(self, parts: int) -> list[tuple]:
        """The batches in at most ``parts`` contiguous runs, each ending at the
        batch boundary nearest its share of the compositions."""
        ends = np.array([hi for _, hi, _ in self.batches])
        parts = max(1, min(parts, len(ends)))
        cuts = [0]
        for k in range(1, parts):
            near = int(np.abs(ends - k * self.ctx.ncomp / parts).argmin()) + 1
            cuts.append(min(max(near, cuts[-1] + 1), len(ends) - parts + k))
        cuts.append(len(ends))
        return [self.batches[lo:hi] for lo, hi in zip(cuts, cuts[1:])]

    def run(self, batches, sink=None):
        """Scan the compositions of ``batches``, a run of :attr:`batches`, with
        the sink of :func:`scan`: the run's (hcc, pearson, lcc, bcc index,
        wcc index, undefined), the first five arrays of one value."""
        block = None if sink is None else _rows_block(self.ctx, sink, self.options.clouds)
        return _scan_span(self.ctx, 0, 1, 2, block, batches)

    def result(self, parts, values=None, clouds=None) -> ScanResult:
        """The pair's result from the answers of :meth:`run` over the runs of
        :meth:`cut`, in order; ``values`` and ``clouds`` as :func:`scan` keeps them."""
        running = _Extremes(1)
        for hcc, _, lcc, bi, wi, _ in parts:
            running.fold(bi, hcc, wi, lcc)
        hcc, lcc, bi, wi = running.values()
        pearson = parts[-1][1][0]  # the last run holds the one-part composition
        undefined = sum(part[-1] for part in parts)
        return ScanResult.from_kernel(self.a, self.b, self.spec, hcc[0], lcc[0], pearson,
                                      int(bi[0]), int(wi[0]), undefined, values, clouds)


def scan(a: TimeSeries, b: TimeSeries, spec: CompositionSpec,
         options: ScanOptions = ScanOptions(), sink=None) -> ScanResult:
    """Evaluate r_c over every composition of the pair, canonical order.

    One span of the batch kernel, so the answers are bit-identical to every
    other entry point's for the same pair.  The per-composition rows that
    ``options`` asks for, r_c and, with ``clouds``, var_a, var_b and cov,
    pass batch by batch through one sink.  Without a ``sink`` the result
    keeps them whole, as its ``values`` and ``clouds``.  Given one,
    nothing is kept and memory stays bounded by ``_blocks.BLOCK_ROWS``:
    each batch's slices of those columns go to sink(offset, r_c) or, with
    ``clouds``, sink(offset, r_c, var_a, var_b, cov), as vectors valid
    during the call only.  It is a :class:`PairScan` in one part.
    """
    job = PairScan(a, b, spec, options)
    values = clouds = None
    if sink is None and (options.distribution or options.clouds):
        values = np.empty(job.ctx.ncomp)
        clouds = np.empty((job.ctx.ncomp, 4)) if options.clouds else None

        def sink(lo, *columns):
            rows = slice(lo, lo + len(columns[0]))
            values[rows] = columns[0]
            if clouds is not None:
                for k, col in enumerate(columns):
                    clouds[rows, k] = col

    return job.result([job.run(job.batches, sink)], values, clouds)


def _rows_block(ctx: _Ctx, sink, clouds: bool):
    """The kernel's batch callback of a one-pair scan: passes ``sink`` the
    batch's r_c and, with ``clouds``, its var_a, var_b and cov, the sums
    back at the series' own scale and divided by n."""
    ea, eb = ctx.exp.tolist()

    def block(lo, r, va, vb, cov):
        if not clouds:
            sink(lo, r[:, 0])
            return
        # the sums are the kernel's scratch, free after this call, so they
        # are scaled back in place: exact, or inf past the float range
        with np.errstate(over="ignore"):
            for sums, e in ((va, 2 * ea), (vb, 2 * eb), (cov, ea + eb)):
                np.ldexp(sums, e, out=sums)
                sums /= ctx.n
        sink(lo, r[:, 0], va[:, 0], vb[:, 0], cov[:, 0])

    return block


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
