import multiprocessing.pool

import pytest


@pytest.fixture()
def pool_starts(monkeypatch):
    """Worker counts of the multiprocessing pools started during the test."""
    starts = []
    init = multiprocessing.pool.Pool.__init__

    def counting(self, processes=None, *args, **kwargs):
        starts.append(processes)
        init(self, processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", counting)
    return starts
