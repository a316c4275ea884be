"""Composition-by-segment incidence blocks, in canonical order.

A block is a contiguous run of compositions (canonical ascending-lex
order) materialized as a sparse 0/1 matrix: row = composition within the
block, column = flat segment id.  Multiplying a block by the per-segment
css vectors evaluates every composition in the block at once, which is
what makes full scans over 10^5..10^6 compositions cheap.

Construction exploits the recursive structure of the order: the
compositions of n, sorted, are the concatenation over ascending first
parts p of [p] prefixed to the sorted compositions of n-p.  Tail index
arrays for every remainder up to a cap are assembled bottom-up and reused;
blocks for large n are emitted by walking prefixes until the remainder
falls under the cap, so peak memory tracks the cap, not the total count.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from .compositions import composition_counts, prefix_runs, tail_cap, _first_parts
from .segments import segment_count, segment_offsets

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

# Upper bound on compositions per block.  Fixed: block geometry determines
# the evaluation batching, and keeping it constant keeps every scan of a
# given (n, m) byte-for-byte reproducible across processes and runs.
BLOCK_ROWS = 65536
# Whole-scan incidence structures up to this many nonzeros are cached and
# reused across pairs (covers n=31, m=2 at ~9.8M); beyond it, blocks are
# streamed and rebuilt per scan.
CACHE_NNZ_LIMIT = 30_000_000


class _Tail(NamedTuple):
    count: int          # compositions of this remainder
    rows: np.ndarray    # int32, one entry per (composition, part)
    dpos: np.ndarray    # int32, part start relative to the tail origin
    plen: np.ndarray    # int32, part length


@dataclass(frozen=True)
class CompositionBlock:
    offset: int            # canonical index of the block's first composition
    count: int             # compositions in the block
    matrix: csr_matrix     # (count, nseg) 0/1 incidence


@lru_cache(maxsize=8)
def _tails(m: int, cap: int) -> tuple[_Tail, ...]:
    """Tail index arrays for every remainder 0..cap, assembled bottom-up."""
    empty = np.empty(0, dtype=np.int32)
    tails: list[_Tail] = [_Tail(0, empty, empty, empty) for _ in range(cap + 1)]
    tails[0] = _Tail(1, empty, empty, empty)
    counts = composition_counts(cap, m)
    for r in range(m, cap + 1):
        rows, dpos, plen = [], [], []
        base = 0
        for p in _first_parts(r, m):
            sub = tails[r - p]
            head = np.arange(base, base + sub.count, dtype=np.int32)
            rows.append(head)
            dpos.append(np.zeros(sub.count, dtype=np.int32))
            plen.append(np.full(sub.count, p, dtype=np.int32))
            if sub.rows.size:
                rows.append(sub.rows + np.int32(base))
                dpos.append(sub.dpos + np.int32(p))
                plen.append(sub.plen)
            base += sub.count
        assert base == counts[r]
        tails[r] = _Tail(base, np.concatenate(rows), np.concatenate(dpos), np.concatenate(plen))
    return tuple(tails)


def _assemble(n: int, m: int, offset: int, prefix: tuple[int, ...], remainder: int,
              tails: tuple[_Tail, ...]) -> CompositionBlock:
    # imported here: scipy.sparse is most of the package's import time, and
    # count and synth never build blocks
    from scipy.sparse import coo_matrix

    soffset = segment_offsets(n, m)
    tail = tails[remainder]
    count = tail.count
    rows_parts: list[np.ndarray] = []
    cols_parts: list[np.ndarray] = []
    pos = 0
    all_rows = np.arange(count, dtype=np.int32)
    for p in prefix:
        rows_parts.append(all_rows)
        cols_parts.append(np.full(count, soffset[pos] + (p - m), dtype=np.int64))
        pos += p
    if tail.rows.size:
        rows_parts.append(tail.rows)
        cols_parts.append(soffset[pos + tail.dpos] + (tail.plen - m))
    rows = np.concatenate(rows_parts)
    cols = np.concatenate(cols_parts)
    data = np.ones(rows.size, dtype=np.float64)
    matrix = coo_matrix((data, (rows, cols)), shape=(count, segment_count(n, m))).tocsr()
    return CompositionBlock(offset=offset, count=count, matrix=matrix)


def iter_blocks(n: int, m: int) -> Iterator[CompositionBlock]:
    """Stream the incidence blocks for (n, m) in canonical order."""
    cap = tail_cap(n, m, BLOCK_ROWS)
    tails = _tails(m, cap)
    offset = 0
    for prefix, remainder in prefix_runs(n, m, cap):
        block = _assemble(n, m, offset, prefix, remainder, tails)
        offset += block.count
        yield block
    assert offset == composition_counts(n, m)[n]


def total_parts(n: int, m: int) -> int:
    """Total number of (composition, part) incidences for (n, m)."""
    counts = composition_counts(n, m)
    t = [0] * (n + 1)
    for r in range(m, n + 1):
        t[r] = sum(counts[r - p] + t[r - p] for p in _first_parts(r, m))
    return t[n]


@lru_cache(maxsize=8)
def blocks_for(n: int, m: int) -> tuple[CompositionBlock, ...] | None:
    """Materialized block list when it fits the cache budget, else None."""
    if total_parts(n, m) > CACHE_NNZ_LIMIT:
        return None
    return tuple(iter_blocks(n, m))
