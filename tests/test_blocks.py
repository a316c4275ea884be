import numpy as np
import pytest

from compcorr import _blocks
from compcorr.compositions import CompositionSpec, count_compositions, enumerate_compositions
from compcorr.segments import segment_count, segment_index


def left_to_right(column, n, m, parts):
    """A composition's value: its parts' segment values summed in order, from +0.0."""
    total = 0.0
    start = 0
    for length in parts:
        total += float(column[segment_index(n, m, start, length)])
        start += length
    return total


def per_segment_inputs(nseg, seed):
    """Zeros, -0.0 and magnitudes from 1e-12 to 1e12, one (nseg,) and two (nseg, J) inputs."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(nseg, 5)) * 10.0 ** rng.integers(-12, 13, size=(nseg, 5))
    x[rng.random(x.shape) < 0.2] = 0.0
    x[rng.random(x.shape) < 0.2] = -0.0
    x[:, 4] = -0.0  # a column of negative zeros sums to +0.0
    return x[:, 0].copy(), x, np.asfortranarray(x[:, :3])


@pytest.mark.parametrize("n, m, rows", [(13, 2, 4), (18, 3, 5), (23, 4, 3)])
def test_incidence_products_match_a_left_to_right_sum(monkeypatch, n, m, rows):
    monkeypatch.setattr(_blocks, "BLOCK_ROWS", rows)
    _blocks.blocks_for.cache_clear()
    try:
        blocks = _blocks.blocks_for(n, m)
    finally:
        _blocks.blocks_for.cache_clear()
    spec = CompositionSpec(n, m)
    comps = list(enumerate_compositions(spec))
    # many blocks, prefixes of several lengths, and prefixes that end the composition
    assert len(blocks) > 50
    assert {blk.matrix.prefix.size for blk in blocks} >= {1, 2}
    assert any(blk.count == 1 and not blk.matrix.tail.levels for blk in blocks)
    assert [blk.offset for blk in blocks] == list(np.cumsum([0] + [blk.count for blk in blocks[:-1]]))
    assert sum(blk.count for blk in blocks) == count_compositions(spec)

    inputs = per_segment_inputs(segment_count(n, m), n)
    for blk in blocks:
        block = comps[blk.offset:blk.offset + blk.count]
        assert blk.matrix.nnz == sum(len(c) for c in block)
        for x in inputs:
            got = blk.matrix.dot(x)
            if x.ndim == 1:
                want = np.array([left_to_right(x, n, m, c) for c in block])
            else:
                want = np.array([[left_to_right(col, n, m, c) for col in x.T] for c in block])
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()  # bit for bit, the sign of zero included
