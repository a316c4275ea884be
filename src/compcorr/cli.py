"""Command line front end.

Subcommands: pair, all-pairs, time-corr, synth, clouds, count.  Results go
to files (tab-separated, reals at a configurable precision, Undefined as
NA); summaries and progress go to stdout/stderr.  Exit status is 0 only
when the requested computation completed; aborted runs leave their
partial output renamed with a .partial suffix.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import BrokenExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import baselines
from .compositions import CompositionSpec, count_compositions, prefix_runs, tail_cap, tail_labels
from .corr import ScanOptions, ScanResult
from .datasets import DEFAULT_RANGES, FUNCTIONS, Dataset, SynthSpec, load_dataset, synth_dataset, write_dataset
from .engine import (
    JobConfig,
    RECORD_HEADER,
    format_composition,
    format_number,
    parse_filter,
    run_all_pairs,
    run_pair,
    run_versus_time,
)
from .segments import ConsistencyError

PROGRESS_EVERY = 10_000
# Most compositions per distribution-file run.  The label table then holds a
# few thousand strings while each write still carries hundreds of lines.
LABEL_ROWS = 1024


def _default_workers() -> int:
    env = os.environ.get("COMP_CORR_THREADS", "").strip()
    if env:
        try:
            k = int(env)
        except ValueError:
            raise SystemExit(f"COMP_CORR_THREADS={env!r} is not an integer")
        if k < 1:
            raise SystemExit(f"COMP_CORR_THREADS={env!r} must be at least 1")
        return k
    return os.cpu_count() or 1


@contextmanager
def _guarded_output(path: Path):
    """Open for writing; on any failure rename the partial file aside."""
    handle = open(path, "w")
    try:
        with handle:
            yield handle
    except BaseException:
        partial = path.with_name(path.name + ".partial")
        try:
            os.replace(path, partial)
            print(f"aborted; partial output moved to {partial}", file=sys.stderr)
        except OSError:
            pass
        raise


def _load(args) -> Dataset:
    if getattr(args, "function", None):
        if args.input:
            raise SystemExit("give either --input or --function, not both")
        lo, hi = args.range if args.range else DEFAULT_RANGES[args.function]
        ds = synth_dataset(SynthSpec(args.function, lo, hi, args.pieces))
        return ds
    if not args.input:
        raise SystemExit("an --input dataset (or --function) is required")
    ds = load_dataset(args.input, delimiter=args.delimiter, header=args.header)
    if ds.load_report is not None:
        print(ds.load_report.describe(), file=sys.stderr)
    return ds


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError:
        raise SystemExit(f"--range expects LO:HI, got {text!r}")


def _progress_printer(label: str):
    state = {"last": 0, "t0": time.perf_counter()}

    def report(done: int, total: int) -> None:
        if done - state["last"] < PROGRESS_EVERY and done < total:
            return
        state["last"] = done
        elapsed = time.perf_counter() - state["t0"]
        rate = done / elapsed if elapsed > 0 else 0.0
        eta = (total - done) / rate if rate > 0 else float("inf")
        print(
            f"{label}: {done}/{total} pairs ({100.0 * done / total:.1f}%), "
            f"{rate:.0f} pairs/s, eta {eta:.0f} s",
            file=sys.stderr,
        )

    return report


def _distribution_path(outdir: Path, dataset: str, id_a: str, id_b: str, spec: CompositionSpec) -> Path:
    return outdir / f"Output.{dataset}.{id_a}.{id_b}.n{spec.n}.m{spec.m}.txt"


def _write_distribution(path: Path, result: ScanResult, precision: int) -> None:
    """Write one ``composition<TAB>r_c`` line per composition, canonical order.

    Renders runs of compositions that share a prefix: each run's lines come
    from cached tail labels and one slice of the values vector, and go out
    in one write.  Lines read as format_composition and format_number
    render them.
    """
    if result.values is None:
        raise ValueError("scan was not asked to keep the distribution")
    n, m = result.spec.n, result.spec.m
    cap = tail_cap(n, m, LABEL_ROWS)
    labels = tail_labels(m, cap)
    spec = f".{precision}f"
    offset = 0
    with _guarded_output(path) as out:
        out.write("composition\tr_c\n")
        for prefix, remainder in prefix_runs(n, m, cap):
            tails = labels[remainder]
            head = "[" + ",".join(map(str, prefix)) + ("," if prefix and remainder else "")
            chunk = result.values[offset:offset + len(tails)].tolist()
            offset += len(tails)
            # NaN (x != x) marks an Undefined composition
            out.write("".join([f"{head}{t}]\t{'NA' if x != x else format(x, spec)}\n"
                               for t, x in zip(tails, chunk)]))


def _part_correlations(a, b, parts) -> list[float | None]:
    out = []
    start = 0
    for length in parts:
        out.append(baselines.pearson(a.values[start:start + length], b.values[start:start + length]))
        start += length
    return out


# ---------------------------------------------------------------------------
# subcommands

def _cmd_count(args) -> int:
    spec = CompositionSpec(args.n, args.min_part)
    print(count_compositions(spec))
    return 0


def _cmd_synth(args) -> int:
    lo, hi = args.range if args.range else DEFAULT_RANGES[args.function]
    spec = SynthSpec(args.function, lo, hi, args.pieces)
    ds = synth_dataset(spec)
    out = Path(args.output) if args.output else Path(f"{args.function}.n{ds.n}.tsv")
    write_dataset(ds, out)
    print(f"wrote {out}: series x, {args.function} over [{lo:g}, {hi:g}], {ds.n} observations")
    return 0


def _cmd_pair(args) -> int:
    ds = _load(args)
    spec = CompositionSpec(ds.n, args.min_part)
    id_a, id_b = args.id_a, args.id_b
    result = run_pair(ds, id_a, id_b, args.min_part,
                      ScanOptions(distribution=True))
    outdir = Path(args.output) if args.output else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    dist_path = _distribution_path(outdir, ds.name, id_a, id_b, spec)
    _write_distribution(dist_path, result, args.precision)

    p = args.precision
    print(f"pair {id_a} vs {id_b}: n={spec.n} m={spec.m} "
          f"compositions={result.n_compositions} evaluated={result.n_evaluated} "
          f"undefined={result.n_undefined}")
    print(f"HCC {format_number(result.hcc, p)}  BCC {format_composition(result.bcc)}")
    print(f"r   {format_number(result.pearson, p)}")
    print(f"LCC {format_number(result.lcc, p)}  WCC {format_composition(result.wcc)}")
    a, b = ds.get(id_a), ds.get(id_b)
    for label, parts in (("BCC", result.bcc), ("WCC", result.wcc)):
        if parts is None:
            continue
        rs = _part_correlations(a, b, parts)
        print(f"{label} part r: " + " ".join(format_number(r, p) for r in rs))
    print(f"wrote {dist_path}")
    return 0


def _cmd_clouds(args) -> int:
    ds = _load(args)
    spec = CompositionSpec(ds.n, args.min_part)
    ids = ds.ids()
    id_a = args.id_a or ids[0]
    id_b = args.id_b or (ids[1] if len(ids) > 1 else ids[0])
    result = run_pair(ds, id_a, id_b, args.min_part, ScanOptions(clouds=True))
    out = Path(args.output) if args.output else Path(
        f"Clouds.{ds.name}.{id_a}.{id_b}.n{spec.n}.m{spec.m}.txt")
    p = args.precision
    with _guarded_output(out) as fh:
        fh.write("r_c\tvar_a\tvar_b\tcov\n")
        for row in result.clouds:
            r = None if np.isnan(row[0]) else float(row[0])
            fh.write(format_number(r, p) + "\t"
                     + "\t".join(f"{v:.{p}g}" for v in row[1:]) + "\n")
    print(f"wrote {out}: {result.n_compositions} compositions "
          f"({result.n_undefined} undefined)")
    return 0


def _cmd_all_pairs(args) -> int:
    ds = _load(args)
    spec = CompositionSpec(ds.n, args.min_part)
    config = JobConfig(
        m=args.min_part,
        workers=args.threads,
        filter=parse_filter(args.filter) if args.filter else (),
    )
    out = Path(args.output) if args.output else Path(f"Pairs.{ds.name}.n{spec.n}.m{spec.m}.tsv")
    p = args.precision
    kept: list[tuple[str, str]] = []
    with _guarded_output(out) as fh:
        fh.write(RECORD_HEADER + "\n")

        def sink(records):
            fh.write(records.text)
            if args.emit_distribution:
                ids = records.ids
                kept.extend((ids[a], ids[b]) for a, b in zip(records.a.tolist(), records.b.tolist()))

        summary = run_all_pairs(ds, config, sink, progress=_progress_printer("all-pairs"),
                                precision=p)
    print(f"wrote {out}")
    print(summary.describe())
    if args.emit_distribution:
        outdir = out.parent
        for id_a, id_b in kept:
            res = run_pair(ds, id_a, id_b, args.min_part, ScanOptions(distribution=True))
            _write_distribution(_distribution_path(outdir, ds.name, id_a, id_b, spec), res, p)
        print(f"wrote {len(kept)} distribution files to {outdir}")
    return 0


def _cmd_time_corr(args) -> int:
    ds = _load(args)
    spec = CompositionSpec(ds.n, args.min_part)
    config = JobConfig(
        m=args.min_part,
        workers=args.threads,
        filter=parse_filter(args.filter) if args.filter else (),
    )
    out = Path(args.output) if args.output else Path(f"TimeCorr.{ds.name}.n{spec.n}.m{spec.m}.tsv")
    records = run_versus_time(ds, config, progress=_progress_printer("time-corr"))
    with _guarded_output(out) as fh:
        fh.write(RECORD_HEADER + "\n")
        fh.write(records.render(args.precision))
    print(f"wrote {out}: {len(records)} records "
          f"(labels {'from dataset' if ds.time_labels is not None else 'index 0..n-1'})")
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def _add_io_flags(sp, with_synth=False):
    sp.add_argument("--input", help="dataset file (rows: id then observations)")
    sp.add_argument("--delimiter", default=None, help="field delimiter (default: sniff tab/comma/semicolon)")
    sp.add_argument("--header", choices=("auto", "yes", "no"), default="auto",
                    help="whether the first row is a header (default: auto-detect)")
    if with_synth:
        sp.add_argument("--function", choices=sorted(FUNCTIONS),
                        help="generate the pair from a stock curve instead of --input")
        sp.add_argument("--range", type=_parse_range, default=None, metavar="LO:HI",
                        help="x range for --function (default: the curve's calibrated range)")
        sp.add_argument("--pieces", type=int, default=30,
                        help="grid pieces for --function; series length is pieces+1 (default 30)")


def _add_scan_flags(sp, default_m):
    sp.add_argument("--min-part", type=int, default=default_m, metavar="M",
                    help=f"minimum part length m (default {default_m})")
    sp.add_argument("--precision", type=int, default=6,
                    help="decimals for reals in output (default 6)")
    sp.add_argument("--output", help="output path (default: derived name in the working directory)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="compcorr",
        description="Compositional correlation scans over time-series pairs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("count", help="number of compositions of n with parts >= m")
    sp.add_argument("n", type=int)
    sp.add_argument("--min-part", type=int, default=2, metavar="M")
    sp.set_defaults(fn=_cmd_count)

    sp = sub.add_parser("synth", help="write a synthetic (x, f(x)) dataset")
    sp.add_argument("--function", choices=sorted(FUNCTIONS), required=True)
    sp.add_argument("--range", type=_parse_range, default=None, metavar="LO:HI")
    sp.add_argument("--pieces", type=int, default=30)
    sp.add_argument("--output")
    sp.set_defaults(fn=_cmd_synth)

    sp = sub.add_parser("pair", help="full composition scan of one pair; writes the distribution file")
    sp.add_argument("id_a", nargs="?", default="x", help="first series id (default: x, for --function)")
    sp.add_argument("id_b", nargs="?", default=None, help="second series id")
    _add_io_flags(sp, with_synth=True)
    _add_scan_flags(sp, default_m=2)
    sp.set_defaults(fn=_cmd_pair_wrapper)

    sp = sub.add_parser("clouds", help="per-composition (r_c, var, cov) point cloud of one pair")
    sp.add_argument("id_a", nargs="?", default=None)
    sp.add_argument("id_b", nargs="?", default=None)
    _add_io_flags(sp, with_synth=True)
    _add_scan_flags(sp, default_m=2)
    sp.set_defaults(fn=_cmd_clouds)

    sp = sub.add_parser("all-pairs", help="scan every pair of the dataset")
    _add_io_flags(sp)
    _add_scan_flags(sp, default_m=4)
    sp.add_argument("--threads", type=int, default=_default_workers(),
                    help="worker processes (default: COMP_CORR_THREADS or the cpu count)")
    sp.add_argument("--filter", help="e.g. 'hcc>0.9 AND abs(pearson)<0.1'")
    sp.add_argument("--emit-distribution", action="store_true",
                    help="also write a distribution file for each record passing the filter")
    sp.set_defaults(fn=_cmd_all_pairs)

    sp = sub.add_parser("time-corr", help="scan each series against time")
    _add_io_flags(sp)
    _add_scan_flags(sp, default_m=2)
    sp.add_argument("--threads", type=int, default=_default_workers(),
                    help="worker processes (default: COMP_CORR_THREADS or the cpu count)")
    sp.add_argument("--filter", help="e.g. 'hcc>0.9 AND abs(pearson)<0.1'")
    sp.set_defaults(fn=_cmd_time_corr)

    return ap


def _cmd_pair_wrapper(args) -> int:
    if args.function and args.id_b is None:
        args.id_b = args.function
    if args.id_b is None:
        raise SystemExit("pair needs two series ids (or --function)")
    return _cmd_pair(args)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 1
    except (ValueError, OSError, ConsistencyError, BrokenExecutor) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
