from concurrent.futures import ProcessPoolExecutor

import pytest


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
