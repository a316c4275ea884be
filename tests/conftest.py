from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from compcorr import _blocks, engine
from compcorr.datasets import Dataset, write_dataset
from compcorr.segments import TimeSeries


@pytest.fixture()
def pool_starts(monkeypatch):
    """Worker counts of the process pools started during the test."""
    starts = []
    init = ProcessPoolExecutor.__init__

    def counting(self, max_workers=None, *args, **kwargs):
        starts.append(max_workers)
        init(self, max_workers, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting)
    return starts


@pytest.fixture()
def block_rows():
    """Sets ``_blocks.BLOCK_ROWS``, the one cut of the canonical order.

    ``block_rows(rows)`` cuts the kernel's blocks and the composition-label
    table at ``rows`` compositions, with both caches cleared; the default
    cut comes back, caches cleared again, at teardown.
    """
    default = _blocks.BLOCK_ROWS

    def cut(rows: int) -> None:
        _blocks.BLOCK_ROWS = rows
        _blocks.blocks_for.cache_clear()
        engine._label_table.cache_clear()

    cut(default)
    yield cut
    cut(default)


@pytest.fixture()
def step_pair(tmp_path):
    """An (18, 2) pair with Undefined compositions, and its file."""
    rng = np.random.default_rng(18)
    step = np.repeat(rng.normal(size=3), [2, 14, 2])  # Undefined where parts fit the steps
    ds = Dataset(series=(TimeSeries("step", step), TimeSeries("b", rng.normal(size=18))), name="sp")
    path = tmp_path / "sp.tsv"
    write_dataset(ds, path)
    return ds, path
