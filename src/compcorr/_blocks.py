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
segments left to right, starting from +0.0, then walks the trie adding
one segment per level, collects each level's leaves and finally puts
them in canonical order.  Every composition's value is therefore the
left-to-right sum of its parts' segments from +0.0: the same additions,
in the same order, as a sparse row-by-vector product.  A level never holds more nodes
than the block has compositions, so no intermediate exceeds the block's
(count x columns) output.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .compositions import composition_counts, prefix_runs, tail_cap
from .segments import segment_offsets

# Upper bound on compositions per block.  Fixed: block geometry determines
# the evaluation batching, and keeping it constant keeps every scan of a
# given (n, m) byte-for-byte reproducible across processes and runs.
BLOCK_ROWS = 65536


class _Level(NamedTuple):
    parent: np.ndarray  # each node's parent, an index among the previous level's inner nodes
    seg: np.ndarray     # flat segment id of each node's last part
    inner: int          # nodes [0, inner) have children, the rest are leaves


class _Trie(NamedTuple):
    count: int          # leaves: the compositions of the remainder
    parts: int          # (leaf, part) incidences
    levels: tuple[_Level, ...]
    order: np.ndarray   # order[k]: the k-th composition's leaf, counting leaves level by level


def _trie(n: int, m: int, r: int) -> _Trie:
    """The compositions of r, with parts >= m, as a trie placed at start n - r."""
    if r == 0:
        return _Trie(1, 0, (), np.zeros(1, dtype=np.intp))
    counts = np.asarray(composition_counts(r, m), dtype=np.int64)
    cumulative = np.cumsum(counts)
    starts = segment_offsets(n, m)[n - r:]
    pos = np.zeros(1, dtype=np.intp)   # part sum of each inner node
    base = np.zeros(1, dtype=np.int64)  # rank of the first composition below each inner node
    levels = []
    ranks = []
    parts = 0
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
        seg = starts[pos[parent]] + (p - m)
        pos = pos[parent] + p
        order = np.argsort(pos == r, kind="stable")  # inner nodes first
        inner = int(np.count_nonzero(pos < r))
        pos, rank = pos[order], rank[order]
        levels.append(_Level(parent[order], seg[order], inner))
        ranks.append(rank[inner:])
        parts += len(levels) * (pos.size - inner)
        pos, base = pos[:inner], rank[:inner]
    return _Trie(int(counts[r]), parts, tuple(levels), np.argsort(np.concatenate(ranks)))


class Incidence:
    """0/1 composition-by-segment operator of one block, matrix-free.

    ``dot(x)`` takes per-segment values (nseg,) or (nseg, k) and returns
    one row per composition, the left-to-right sum from +0.0 of the rows
    of x its parts select.  ``nnz`` counts the (composition, part) pairs.
    """

    __slots__ = ("prefix", "tail")

    def __init__(self, prefix: np.ndarray, tail: _Trie):
        self.prefix = prefix  # segment ids of the shared leading parts
        self.tail = tail

    @property
    def nnz(self) -> int:
        return self.tail.count * self.prefix.size + self.tail.parts

    def dot(self, x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        acc = np.zeros((1,) + x.shape[1:])
        for s in self.prefix.tolist():
            acc = acc + x[s]
        if not self.tail.levels:
            return acc
        # leaves are collected level by level, then put in canonical order
        leaves = np.empty((self.tail.count,) + x.shape[1:])
        done = 0
        for level in self.tail.levels:
            acc = acc.take(level.parent, axis=0)
            acc += x.take(level.seg, axis=0)
            leaves[done:done + len(acc) - level.inner] = acc[level.inner:]
            done += len(acc) - level.inner
            acc = acc[:level.inner]
        return leaves.take(self.tail.order, axis=0)


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
    soffset = segment_offsets(n, m)
    tries: dict[int, _Trie] = {}
    blocks = []
    offset = 0
    for prefix, remainder in prefix_runs(n, m, tail_cap(n, m, BLOCK_ROWS)):
        if remainder not in tries:
            tries[remainder] = _trie(n, m, remainder)
        tail = tries[remainder]
        parts = np.asarray(prefix, dtype=np.intp)
        ids = soffset[np.cumsum(parts) - parts] + (parts - m)
        blocks.append(CompositionBlock(offset, tail.count, Incidence(ids, tail)))
        offset += tail.count
    assert offset == composition_counts(n, m)[n]
    return tuple(blocks)
