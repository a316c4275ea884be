"""Seeded inputs for the compcorr benchmark.

The program under test only ever sees the files written here; the seed
stays a benchmark argument.  Values are written with ``repr`` so the
loader reads back exactly the floats generated.

All-pairs input: mostly Gaussian rows, plus a few seeded percent of rows
that send the engine down its less common paths:

- random walks: strongly autocorrelated, so they pass high-HCC filters
  together and emit records even under a strict filter;
- rows offset by 1e6: the per-segment zero floor must still see unit
  variation on a large magnitude;
- constant and step-constant rows: flat segments are flushed to exactly
  zero, so whole compositions are Undefined (NA);
- exact duplicates of earlier rows: equal-valued correlations everywhere,
  so the canonical tie-break between compositions decides BCC and WCC.

Pair input: two related series of length 31, the n=31, m=2 geometry whose
832,040 compositions make the largest cached incidence structure.

Usage: python3 bench/gen.py --seed 7 --series 400 --out DIR
"""
from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

ALLPAIRS_N = 23
PAIR_N = 31
# shares of the special row kinds; the rest are Gaussian
KIND_SHARES = (("walk", 0.03), ("offset", 0.02), ("const", 0.01), ("step", 0.02), ("dup", 0.02))


def allpairs_rows(seed: int, series: int, n: int = ALLPAIRS_N) -> list[tuple[str, np.ndarray]]:
    """(id, values) rows of the mixed all-pairs input, deterministic in seed."""
    rng = np.random.default_rng([seed, series, n, 1])
    kinds = ["gauss"] * series
    slots = rng.permutation(series)
    at = 0
    for kind, share in KIND_SHARES:
        k = max(1, round(share * series))
        for s in slots[at:at + k]:
            kinds[s] = kind
        at += k
    rows: list[tuple[str, np.ndarray]] = []
    for idx, kind in enumerate(kinds):
        if kind == "walk":
            v = np.cumsum(rng.normal(size=n))
        elif kind == "offset":
            v = rng.normal(size=n) + 1e6
        elif kind == "const":
            v = np.full(n, float(rng.normal()))
        elif kind == "step":
            cuts = np.sort(rng.choice(np.arange(2, n - 1), size=2, replace=False))
            levels = rng.normal(size=3)
            v = np.repeat(levels, np.diff(np.concatenate(([0], cuts, [n]))))
        elif kind == "dup" and idx > 0:
            v = rows[int(rng.integers(idx))][1].copy()
        else:
            kind = "gauss"  # a duplicate needs an earlier row to copy
            v = rng.normal(size=n)
        rows.append((f"s{idx:05d}_{kind}", v))
    return rows


def pair_rows(seed: int, n: int = PAIR_N) -> list[tuple[str, np.ndarray]]:
    """A correlated series pair: a random walk and a noisy, partly inverted copy."""
    rng = np.random.default_rng([seed, n, 2])
    a = np.cumsum(rng.normal(size=n))
    sign = np.where(np.arange(n) < n // 2, 1.0, -1.0)
    b = sign * a + rng.normal(scale=0.8, size=n)
    return [("a", a), ("b", b)]


def write_rows(rows, path: Path) -> None:
    with open(path, "w") as out:
        for sid, values in rows:
            out.write(sid + "\t" + "\t".join(repr(float(v)) for v in values) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--series", type=int, default=400, help="rows of the all-pairs file")
    ap.add_argument("--out", required=True, help="directory to write into")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_rows(allpairs_rows(args.seed, args.series), out / f"allpairs_{args.seed}.tsv")
    write_rows(pair_rows(args.seed), out / f"pair_{args.seed}.tsv")
    print(f"wrote {out}/allpairs_{args.seed}.tsv and {out}/pair_{args.seed}.tsv")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
