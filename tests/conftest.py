import numpy as np
import pytest

from compcorr import _blocks, cli, engine
from compcorr.compositions import CompositionSpec, count_compositions
from compcorr.datasets import Dataset, write_dataset
from compcorr.segments import TimeSeries


@pytest.fixture()
def pool_starts(monkeypatch):
    """Chunk children forked by each batch run of the test that forked any."""
    starts, forks = [], []
    fork, chunk_results = engine._Child.__init__, engine._chunk_results

    def counting_fork(self, *args, **kwargs):
        forks.append(1)  # before the fork: a child never returns here
        fork(self, *args, **kwargs)

    def counting(*args, **kwargs):
        forks.clear()
        try:
            yield from chunk_results(*args, **kwargs)
        finally:
            if forks:
                starts.append(len(forks))

    monkeypatch.setattr(engine._Child, "__init__", counting_fork)
    monkeypatch.setattr(engine, "_chunk_results", counting)
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
def no_var_sums(monkeypatch):
    """``no_var_sums(X, m)`` sends runs on the rows ``X`` at minimum part
    ``m`` down the kernel's path without the variance-sum table, in spans
    of three columns: each batch then multiplies self and cross sums in one
    product, and counts Undefined from its NaNs."""
    def narrow(X, m: int) -> None:
        monkeypatch.setattr(engine, "_VAR_SUM_BUDGET", 0)
        rows = min(count_compositions(CompositionSpec(X.shape[1], m)), _blocks.BLOCK_ROWS)
        monkeypatch.setattr(engine, "_CELL_BUDGET", 7 * rows)  # 2J + 1 = 7 columns
        ctx = engine._Ctx(X, m)
        assert not ctx.keep_var_sums and ctx.j_step == 3

    return narrow


@pytest.fixture()
def step_pair(tmp_path):
    """An (18, 2) pair with Undefined compositions, and its file."""
    rng = np.random.default_rng(18)
    step = np.repeat(rng.normal(size=3), [2, 14, 2])  # Undefined where parts fit the steps
    ds = Dataset(series=(TimeSeries("step", step), TimeSeries("b", rng.normal(size=18))), name="sp")
    path = tmp_path / "sp.tsv"
    write_dataset(ds, path)
    return ds, path


@pytest.fixture()
def parts(monkeypatch):
    """``parts(k)`` writes every one-pair file of the test in k parts (at
    most one a kernel batch), whatever the host's CPUs and the command's
    ``--threads``."""
    def pin(k: int) -> None:
        monkeypatch.setattr(cli, "_part_count", lambda batches, processes: min(k, batches))

    return pin
