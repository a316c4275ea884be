from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

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
def step_pair(tmp_path):
    """An (18, 2) pair with Undefined compositions, and its file."""
    rng = np.random.default_rng(18)
    step = np.repeat(rng.normal(size=3), [2, 14, 2])  # Undefined where parts fit the steps
    ds = Dataset(series=(TimeSeries("step", step), TimeSeries("b", rng.normal(size=18))), name="sp")
    path = tmp_path / "sp.tsv"
    write_dataset(ds, path)
    return ds, path
