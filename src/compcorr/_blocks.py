"""Composition-by-segment incidence blocks, in canonical order.

A block is a contiguous run of compositions (canonical ascending-lex
order) that share a prefix of leading parts: the prefix followed by each
composition of the remainder in turn.  Its incidence operator (row =
composition within the block, column = flat segment id, 0/1 entries) is
never materialized.  ``Incidence.dot`` sums, for every composition, the
rows of the per-segment vectors its parts pick out, which evaluates every
composition in the block at once and is what makes full scans over
10^5..10^6 compositions cheap.

The compositions of a remainder r, placed at start n - r, form a trie:
the nodes at depth d are the distinct leading d parts, a leaf is a whole
composition.  One trie per (n, m, r) is built level by level and shared
by every block with that remainder.  A product adds the prefix's
segments left to right, starting from +0.0, into the root, then walks
the trie one level at a time, each level two gathers and one add into
its rows of one node buffer, and finally gathers the leaves in canonical
order.  Every composition's value is therefore the left-to-right sum of
its parts' segments from +0.0: the same additions, in the same order, as
a sparse row-by-vector product.  No level holds more nodes than the
block has compositions, and the node buffer about twice as many.

The kernel (``engine._scan_span``) evaluates r over :func:`batches`,
runs of consecutive blocks that fill one buffer of at most BLOCK_ROWS
rows, so its per-composition work is paid once per batch, however small
the blocks.  Neither the blocks nor the batches change a bit of any
value: each is a left-to-right sum whatever block it falls in.  The
composition labels follow the same cut, so BLOCK_ROWS is the one place
the canonical order is cut into blocks and batches.  A one-pair file's
writer (``cli._write_lines``) splits the batches into parts, one a
process, and takes each batch as it comes and only slices it, at most
``cli.BLOCK_LINES`` lines per render and write.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .compositions import composition_counts, prefix_runs, tail_cap
from .segments import segment_ids

# Most compositions per block and per kernel batch.  It bounds the shared
# tail tries, the node buffer of a product and the kernel's per-batch
# scratch: at n=31, m=2, tries of 1.1 MB and a batch of 16,384 rows.  The
# composition-label table (``engine._label_table``) is cut at it too, one
# head per block and the tail labels of the same remainders.  A one-pair
# file is written batch by batch, each batch in slices of cli.BLOCK_LINES.
BLOCK_ROWS = 16384


class _Level(NamedTuple):
    parent: np.ndarray  # each node's parent, an index among the previous level's inner nodes
    seg: np.ndarray     # flat segment id of each node's last part
    source: slice       # the node rows of the previous level's inner nodes
    nodes: slice        # this level's node rows, inner nodes first


class _Trie(NamedTuple):
    count: int          # leaves: the compositions of the remainder
    parts: int          # (leaf, part) incidences
    levels: tuple[_Level, ...]
    order: np.ndarray   # order[k]: the node row of the k-th composition's leaf
    rows: int           # node rows: the root (row 0), then every level's nodes
    widest: int         # nodes of the largest level


def _trie(n: int, m: int, r: int) -> _Trie:
    """The compositions of r, with parts >= m, as a trie placed at start n - r."""
    if r == 0:
        return _Trie(1, 0, (), np.zeros(1, dtype=np.intp), 1, 0)
    counts = np.asarray(composition_counts(r, m), dtype=np.int64)
    cumulative = np.cumsum(counts)
    pos = np.zeros(1, dtype=np.intp)   # part sum of each inner node
    base = np.zeros(1, dtype=np.int64)  # rank of the first composition below each inner node
    levels = []
    ranks = []
    leaves = []
    source = slice(0, 1)  # the root
    parts = 0
    used = 1
    while pos.size:
        # children of a node with q left: first parts m..q-m, then q itself
        q = r - pos
        kids = np.maximum(q - 2 * m + 1, 0) + 1
        parent = np.repeat(np.arange(pos.size), kids)
        ordinal = np.arange(parent.size) - (np.cumsum(kids) - kids)[parent]
        q = q[parent]
        p = np.where(ordinal == kids[parent] - 1, q, m + ordinal)
        # compositions of q with a first part below p: c[q-m] + ... + c[q-p+1]
        rank = base[parent] + cumulative[q - m] - cumulative[q - p]
        seg = segment_ids(n, m, n - r + pos[parent], p)
        pos = pos[parent] + p
        order = np.argsort(pos == r, kind="stable")  # inner nodes first
        inner = int(np.count_nonzero(pos < r))
        pos, rank = pos[order], rank[order]
        nodes = slice(used, used + pos.size)
        used = nodes.stop
        levels.append(_Level(parent[order], seg[order], source, nodes))
        ranks.append(rank[inner:])
        leaves.append(np.arange(nodes.start + inner, nodes.stop))
        parts += len(levels) * (pos.size - inner)
        source = slice(nodes.start, nodes.start + inner)
        pos, base = pos[:inner], rank[:inner]
    order = np.concatenate(leaves)[np.argsort(np.concatenate(ranks))]
    return _Trie(int(counts[r]), parts, tuple(levels), order, used,
                 max(level.nodes.stop - level.nodes.start for level in levels))


class Incidence:
    """0/1 composition-by-segment operator of one block, matrix-free.

    ``dot(x)`` takes per-segment values (nseg,) or (nseg, k) and returns
    one row per composition, in ``out`` when given: the left-to-right sum
    from +0.0 of the rows of x its parts select.  Its temporaries come
    from ``scratch`` when given.  ``nnz`` counts the (composition, part)
    pairs.
    """

    __slots__ = ("prefix", "tail")

    def __init__(self, prefix: np.ndarray, tail: _Trie):
        self.prefix = prefix  # segment ids of the shared leading parts
        self.tail = tail

    @property
    def nnz(self) -> int:
        return self.tail.count * self.prefix.size + self.tail.parts

    def dot(self, x: np.ndarray, out: np.ndarray | None = None,
            scratch: Scratch | None = None) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        cols = x.shape[1:]
        tail = self.tail
        if out is None:
            out = np.empty((tail.count,) + cols)
        buffer = Scratch() if scratch is None else scratch
        # one row per trie node: the root (row 0) sums the prefix, then each
        # level's nodes; "clip" never clips a valid index, and spares take
        # the copy it makes of out under the default mode="raise"
        sums = buffer("dot.nodes", (tail.rows,) + cols)
        rows = buffer("dot.rows", (tail.widest,) + cols)
        root = sums[:1]
        root.fill(0.0)
        for s in self.prefix.tolist():
            root += x[s]
        for level in tail.levels:
            nodes = sums[level.nodes]
            sums[level.source].take(level.parent, axis=0, out=nodes, mode="clip")
            nodes += x.take(level.seg, axis=0, out=rows[:len(nodes)], mode="clip")
        return sums.take(tail.order, axis=0, out=out, mode="clip")


class Scratch(dict):
    """Named buffers, float unless told otherwise, each reused while it is big enough.

    Called with a name and a shape, returns a buffer of that shape.  The
    span-sized arrays of a scan would otherwise be fresh pages on every
    span, once the allocator has handed the last span's memory back.
    """

    def __call__(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self.get(name)
        if buf is None or buf.size < size:
            buf = self[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


@dataclass(frozen=True)
class CompositionBlock:
    offset: int            # canonical index of the block's first composition
    count: int             # compositions in the block
    matrix: Incidence      # (count, nseg) 0/1 incidence


@lru_cache(maxsize=8)
def blocks_for(n: int, m: int) -> tuple[CompositionBlock, ...]:
    """The incidence blocks for (n, m) in canonical order.

    Blocks with the same remainder share one trie, so the whole list costs
    about what the tries for remainders up to the cap do.
    """
    tries: dict[int, _Trie] = {}
    blocks = []
    offset = 0
    for prefix, remainder in prefix_runs(n, m, tail_cap(n, m, BLOCK_ROWS)):
        if remainder not in tries:
            tries[remainder] = _trie(n, m, remainder)
        tail = tries[remainder]
        parts = np.asarray(prefix, dtype=np.intp)
        ids = segment_ids(n, m, np.cumsum(parts) - parts, parts)
        blocks.append(CompositionBlock(offset, tail.count, Incidence(ids, tail)))
        offset += tail.count
    assert offset == composition_counts(n, m)[n]
    return tuple(blocks)


def batches(blocks: tuple[CompositionBlock, ...]) -> tuple[tuple[int, int, tuple[CompositionBlock, ...]], ...]:
    """Consecutive blocks gathered into runs of at most BLOCK_ROWS compositions.

    Returns (offset, end, blocks) per run, in canonical order: the run's
    compositions are [offset, end), its blocks' back to back.
    """
    runs, run = [], []
    for blk in blocks:
        if run and blk.offset + blk.count - run[0].offset > BLOCK_ROWS:
            runs.append((run[0].offset, blk.offset, tuple(run)))
            run = []
        run.append(blk)
    runs.append((run[0].offset, run[-1].offset + run[-1].count, tuple(run)))
    return tuple(runs)
