"""Set-up a CLI run pays before its first pair is scanned, in a fresh interpreter.

Mirrors the CLI's own path: import ``compcorr.cli`` (which pulls in every
module, ``baselines`` and SciPy with it), load the dataset, build the
incidence blocks for (n, m), and for all-pairs the engine's per-series
context.  Prints one JSON line with ``time.monotonic()`` at the moment
set-up ends, so the caller can measure from its own spawn time, and the
duration of each step.

Usage: python3 bench/setup_probe.py {allpairs|pair} INPUT M
"""
from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    kind, path, m = argv[0], argv[1], int(argv[2])
    steps = {}
    t = time.perf_counter()
    import compcorr.cli  # noqa: F401  (the import is what is measured)
    from compcorr import _blocks, datasets, engine
    steps["import_s"] = time.perf_counter() - t

    t = time.perf_counter()
    ds = datasets.load_dataset(path)
    steps["load_s"] = time.perf_counter() - t

    t = time.perf_counter()
    _blocks.blocks_for(ds.n, m)
    steps["blocks_s"] = time.perf_counter() - t

    if kind == "allpairs":
        t = time.perf_counter()
        engine._Ctx(ds.matrix, m)
        steps["ctx_s"] = time.perf_counter() - t
    print(json.dumps({"ready": time.monotonic(), "steps": steps}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
