"""Command line front end.

Subcommands: pair, all-pairs, time-corr, synth, clouds, count.  Results go
to files (tab-separated, reals at a configurable precision, Undefined as
NA); summaries and progress go to stdout/stderr.  Distribution files,
clouds and record tables are rendered in bulk, numbers by
``engine.render_fixed`` and composition labels by
``engine.composition_labels``, and read byte for byte as ``format_number``
and ``format_composition`` write them.  ``pair``, ``clouds`` and
``all-pairs --emit-distribution`` stream their one-pair files: the scan
hands each batch of compositions (``_blocks.BLOCK_ROWS`` at most) to the
file's writer, which renders and writes it BLOCK_LINES lines at a time
(a distribution file's in place, into one line matrix), so no array
holds a value per composition.  The scan is cut into parts at batch
boundaries, one a CPU the process may use (``--threads`` workers for
``--emit-distribution``), each part but the first written into a
temporary file by a child forked after the tables are built
(``engine.forked``, which also runs a batch run's chunks), and appended
in order, or into a pipe or a device in one part.  Series ids are checked
before they go into a file name.  Exit status is 0 only when the requested
computation completed.  Every output opens before any scan through
``_guarded_output``, which makes its directory and writes it atomically.
"""
from __future__ import annotations

import argparse
import os
import stat
import sys
import tempfile
import time
from contextlib import contextmanager
from itertools import accumulate
from pathlib import Path

from .baselines import pearson
from .compositions import CompositionSpec, count_compositions
from .corr import ScanOptions
from .datasets import DEFAULT_RANGES, FUNCTIONS, Dataset, SynthSpec, load_dataset, synth_dataset, write_dataset
from .engine import (
    JobConfig,
    PairScan,
    RECORD_HEADER,
    byte_rows,
    composition_labels,
    fixed_width,
    format_composition,
    format_number,
    forked,
    join_rows,
    label_width,
    line_matrix,
    parse_filter,
    render_fixed,
    run_all_pairs,
    run_versus_time,
)
from .segments import ConsistencyError

PROGRESS_EVERY = 10_000
# Most lines per render and write of a distribution or clouds file: the
# writer cuts each kernel batch into slices of at most this many lines.
# A distribution file keeps a line matrix of this many rows (184 KB at
# n=31); a slice's text and temporaries, about 90 bytes a line, are freed
# after its write.  Whole 16,384-row batches raised peak RSS by 2.3 MB.
BLOCK_LINES = 4096
# Fewest kernel batches in a part of a one-pair file (_write_lines), which
# costs a fork, a temporary file and a copy.  In-process on 2 vCPUs at m=2
# (medians of 15), 2 parts against 1 took 2.4 ms longer at n=26 (6 batches)
# and 2.6 ms less at n=27 (9 batches), 15 ms less at n=28 (14 batches).
PART_BATCHES = 4


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
    return _cpus()


@contextmanager
def _guarded_output(path: Path, mode: str = "w"):
    """Open an output, in a directory made if missing, as ``path.partial``,
    renamed to ``path`` once the block completes; on any failure the partial
    file stays and ``path`` is untouched.  A ``path`` that exists as other than
    a regular file (a symlink, a device, a FIFO, a directory) is opened in place."""
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        in_place = not stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        in_place = False
    target = path if in_place else path.with_name(path.name + ".partial")
    handle = open(target, mode)
    try:
        with handle:
            yield handle
    except BaseException:
        print(f"aborted; partial output left in {target}", file=sys.stderr)
        raise
    if not in_place:
        os.replace(target, path)


def _synth_spec(args) -> SynthSpec:
    lo, hi = args.range if args.range else DEFAULT_RANGES[args.function]
    return SynthSpec(args.function, lo, hi, args.pieces)


def _load(args) -> Dataset:
    if getattr(args, "function", None):
        if args.input:
            raise SystemExit("give either --input or --function, not both")
        return synth_dataset(_synth_spec(args))
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


def _integer(positive: bool):
    """An argparse type: a positive, else non-negative, decimal integer."""
    kind = "positive" if positive else "non-negative"

    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < positive:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
        return int(text)

    return parse


def _progress_printer(label: str):
    """A progress callback that prints a line after PROGRESS_EVERY more pairs,
    after 10 s without a line, and at the end."""
    t0 = shown = time.perf_counter()
    last = 0

    def report(done: int, total: int) -> None:
        nonlocal last, shown
        now = time.perf_counter()
        if done - last < PROGRESS_EVERY and now - shown < 10 and done < total:
            return
        last, shown = done, now
        rate = done / (now - t0) if now > t0 else 0.0
        eta = (total - done) / rate if rate > 0 else float("inf")
        print(
            f"{label}: {done}/{total} pairs ({100.0 * done / total:.1f}%), "
            f"{rate:.0f} pairs/s, eta {eta:.0f} s",
            file=sys.stderr,
        )

    return report


def _check_file_ids(ids) -> None:
    """Refuse series ids that cannot be part of an output file name."""
    for name in ids:
        if name in (".", "..") or any(sep in name for sep in (os.sep, os.altsep) if sep):
            raise ValueError(f"series id {name!r} cannot be part of a file name: "
                             "it is . or .. or holds a path separator")


def _one_pair(ds: Dataset, m: int, ids, prefix, path: str | None = None, options=ScanOptions()):
    """A one-pair file's path and scan: ``path``, else PREFIX.DATASET.A.B.nN.mM.txt
    for ids that can be part of a file name.  An unknown id fails first, and
    every check before any file is opened."""
    spec = CompositionSpec(ds.n, m)
    a, b = (ds.get(name) for name in ids)
    if not path:
        _check_file_ids(ids)
        path = f"{prefix}.{ds.name}.{ids[0]}.{ids[1]}.n{spec.n}.m{spec.m}.txt"
    return Path(path), PairScan(a, b, spec, options)


def _cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS keeps one,
    so that a run under ``taskset`` or in a cpuset starts no more processes
    than it may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _part_count(batches: int, processes: int) -> int:
    """Parts of a one-pair file of ``batches`` kernel batches on at most
    ``processes`` processes, each part PART_BATCHES batches at least.  One
    where processes cannot be forked or files copied in the kernel."""
    if not hasattr(os, "copy_file_range"):
        return 1
    return max(1, min(processes, batches // PART_BATCHES))


def _write_lines(path: Path, header: bytes, spec: CompositionSpec, job, processes: int, render):
    """Write a one-pair scan's file: the header, then one line per composition.

    ``job`` is an ``engine.PairScan``.  Its batches are cut into
    :func:`_part_count` parts (``job.cut``), contiguous runs of near-equal
    size; into an output that is not a regular file, one part.  Part 0 runs
    here and writes into the file; every other part runs in a forked child
    (``engine.forked``) and writes into an unnamed temporary file in the
    output's directory, opened before the fork, which is appended in part
    order when the part is done.  Each part hands its batches, as they
    arrive, to a sink that writes them straight from the kernel's arrays in
    slices of at most BLOCK_LINES lines: ``render(first, *columns)`` gives
    a slice's text, ``first`` being its first canonical composition index.
    So memory is one batch and one slice a process, whatever n.  The parts'
    answers are folded by ``job.result``, which is returned.  A scan that
    fails in any part, or hands over other than every composition, leaves
    a .partial file of every line delivered before the failure.
    """
    with _guarded_output(path, "wb") as out:
        regular = stat.S_ISREG(os.fstat(out.fileno()).st_mode)
        cuts = job.cut(_part_count(len(job.batches), processes) if regular else 1)
        out.write(header)
        out.flush()
        files = [tempfile.TemporaryFile(dir=path.parent) for _ in cuts[1:]]
        try:
            parts = (_part(job, batches, render, file) for batches, file in zip(cuts[1:], files))
            with forked(parts) as children:
                answers = [_run_part(job, cuts[0], render, out)]
                for batches, child, file in zip(cuts[1:], children, files):
                    answer = child.answer(f"compositions {batches[0][0]} to {batches[-1][1] - 1}")
                    # the part's lines, up to its failure if it failed
                    offset = 0
                    while copied := os.copy_file_range(file.fileno(), out.fileno(), 1 << 30, offset):
                        offset += copied
                    if isinstance(answer, BaseException):
                        raise answer
                    answers.append(answer)
        finally:
            for file in files:
                file.close()
        done = sum(delivered for _, delivered in answers)
        total = count_compositions(spec)
        if done != total:
            raise ValueError(f"the scan delivered {done} of {total} compositions")
    return job.result([answer for answer, _ in answers])


def _run_part(job, batches, render, out):
    """Scan one part and write its lines to ``out``, flushed: its answer and line count."""
    done = 0

    def sink(offset: int, *columns) -> None:
        nonlocal done
        count = len(columns[0])
        for at in range(0, count, BLOCK_LINES):
            out.write(render(offset + at, *(col[at:at + BLOCK_LINES] for col in columns)))
        done += count

    try:
        return job.run(batches, sink), done
    finally:
        out.flush()


def _part(job, batches, render, file):
    """A child's part: its lines into ``file``, then its answer."""
    yield _run_part(job, batches, render, file)


def _write_distribution(path: Path, spec: CompositionSpec, precision: int, job, processes: int = 1):
    """Write one ``composition<TAB>r_c`` line per composition, canonical order.

    ``job`` and ``processes`` as for :func:`_write_lines`.  Each slice's labels and values
    are rendered into one line matrix, its tab and newline written once,
    and read as format_composition and format_number render them.
    """
    lines, (label, value) = line_matrix(
        [label_width(spec), b"\t", fixed_width(precision), b"\n"], BLOCK_LINES)

    def render(first, values):
        count = len(values)
        composition_labels(spec, range(first, first + count), label[:count])
        render_fixed(values, precision, value[:count])
        return join_rows(lines[:count])

    return _write_lines(path, b"composition\tr_c\n", spec, job, processes, render)


def _write_clouds(path: Path, spec: CompositionSpec, precision: int, job, processes: int = 1):
    """Write one ``r_c<TAB>var_a<TAB>var_b<TAB>cov`` line per composition,
    r_c as format_number writes it and the rest as ``%.{precision}g``;
    ``job`` and ``processes`` as for :func:`_write_lines`."""
    spec_g = f".{precision}g"

    def render(first, values, *sums):
        va, vb, cov = (byte_rows([format(v, spec_g) for v in col.tolist()]) for col in sums)
        lines, (value,) = line_matrix(
            [fixed_width(precision), b"\t", va, b"\t", vb, b"\t", cov, b"\n"], len(values))
        render_fixed(values, precision, value)
        return join_rows(lines)

    return _write_lines(path, b"r_c\tvar_a\tvar_b\tcov\n", spec, job, processes, render)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_count(args) -> int:
    spec = CompositionSpec(args.n, args.min_part)
    print(count_compositions(spec))
    return 0


def _cmd_synth(args) -> int:
    spec = _synth_spec(args)
    ds = synth_dataset(spec)
    out = Path(args.output or f"{args.function}.n{ds.n}.tsv")
    write_dataset(ds, out)
    print(f"wrote {out}: series x, {args.function} over [{spec.x_min:g}, {spec.x_max:g}], "
          f"{ds.n} observations")
    return 0


def _cmd_pair(args) -> int:
    if args.id_b is None and not args.function:
        raise SystemExit("pair needs two series ids (or --function)")
    ids = (args.id_a, args.function if args.id_b is None else args.id_b)
    ds = _load(args)
    dist_path, job = _one_pair(ds, args.min_part, ids, Path(args.output or ".") / "Output")
    spec, p = job.spec, args.precision
    result = _write_distribution(dist_path, spec, p, job, _cpus())
    print(f"pair {ids[0]} vs {ids[1]}: n={spec.n} m={spec.m} "
          f"compositions={result.n_compositions} evaluated={result.n_evaluated} "
          f"undefined={result.n_undefined}")
    print(f"HCC {format_number(result.hcc, p)}  BCC {format_composition(result.bcc)}")
    print(f"r   {format_number(result.pearson, p)}")
    print(f"LCC {format_number(result.lcc, p)}  WCC {format_composition(result.wcc)}")
    for label, parts in (("BCC", result.bcc), ("WCC", result.wcc)):
        if parts is None:
            continue
        rs = [pearson(job.a.values[end - k:end], job.b.values[end - k:end])
              for end, k in zip(accumulate(parts), parts)]
        print(f"{label} part r: " + " ".join(format_number(r, p) for r in rs))
    print(f"wrote {dist_path}")
    return 0


def _cmd_clouds(args) -> int:
    ds = _load(args)
    ids = ds.ids()
    pair = (args.id_a or ids[0], args.id_b or (ids[1] if len(ids) > 1 else ids[0]))
    out, job = _one_pair(ds, args.min_part, pair, "Clouds", args.output, ScanOptions(clouds=True))
    result = _write_clouds(out, job.spec, args.precision, job, _cpus())
    print(f"wrote {out}: {result.n_compositions} compositions ({result.n_undefined} undefined)")
    return 0


def _batch(args, prefix: str):
    """A batch run's config, dataset and record file path (--output, else
    PREFIX.DATASET.nN.mM.tsv); the filter is checked before the dataset loads."""
    config = JobConfig(m=args.min_part, workers=args.threads or _default_workers(),
                       filter=parse_filter(args.filter) if args.filter else ())
    ds = _load(args)
    spec = CompositionSpec(ds.n, config.m)  # a series too short for m fails here
    return config, ds, Path(args.output or f"{prefix}.{ds.name}.n{spec.n}.m{spec.m}.tsv")


def _cmd_all_pairs(args) -> int:
    config, ds, out = _batch(args, "Pairs")
    if args.emit_distribution:
        _check_file_ids(ds.ids())
    kept: list[tuple[str, str]] = []
    with _guarded_output(out) as fh:
        fh.write(RECORD_HEADER + "\n")

        def sink(records):
            fh.write(records.text)
            if args.emit_distribution:
                ids = records.ids
                kept.extend((ids[a], ids[b]) for a, b in zip(records.a.tolist(), records.b.tolist()))

        summary = run_all_pairs(ds, config, sink, progress=_progress_printer("all-pairs"),
                                precision=args.precision)
    print(f"wrote {out}")
    print(summary.describe())
    if args.emit_distribution:
        for pair in kept:
            path, job = _one_pair(ds, config.m, pair, out.parent / "Output")
            _write_distribution(path, job.spec, args.precision, job, config.workers)
        print(f"wrote {len(kept)} distribution files to {out.parent}")
    return 0


def _cmd_time_corr(args) -> int:
    config, ds, out = _batch(args, "TimeCorr")
    with _guarded_output(out) as fh:
        fh.write(RECORD_HEADER + "\n")
        records = run_versus_time(ds, config, progress=_progress_printer("time-corr"))
        fh.write(records.render(args.precision))
    print(f"wrote {out}: {len(records)} records "
          f"(labels {'from dataset' if ds.time_labels is not None else 'index 0..n-1'})")
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def _add_synth_flags(sp, required=False):
    sp.add_argument("--function", choices=sorted(FUNCTIONS), required=required,
                    help="stock curve that generates the pair (x, f(x))")
    sp.add_argument("--range", type=_parse_range, default=None, metavar="LO:HI",
                    help="x range for --function (default: the curve's calibrated range)")
    sp.add_argument("--pieces", type=int, default=30,
                    help="grid pieces for --function; series length is pieces+1 (default 30)")


def _scan_command(sub, name: str, fn, about: str, default_m: int, synth=False):
    """A subcommand that scans a dataset, with its input and output flags."""
    sp = sub.add_parser(name, help=about)
    sp.set_defaults(fn=fn)
    sp.add_argument("--input", help="dataset file (rows: id then observations)")
    sp.add_argument("--delimiter", default=None, help="field delimiter (default: sniff tab/comma/semicolon)")
    sp.add_argument("--header", choices=("auto", "yes", "no"), default="auto",
                    help="whether the first row is a header (default: auto-detect)")
    if synth:
        _add_synth_flags(sp)
    sp.add_argument("--min-part", type=int, default=default_m, metavar="M",
                    help=f"minimum part length m (default {default_m})")
    sp.add_argument("--precision", type=_integer(positive=False), default=6,
                    help="decimals for reals in output (default 6)")
    sp.add_argument("--output", help="output path (default: derived name in the working directory)")
    return sp


def _add_batch_flags(sp):
    sp.add_argument("--threads", type=_integer(positive=True),
                    help="worker processes (default: COMP_CORR_THREADS or the cpu count)")
    sp.add_argument("--filter", help="e.g. 'hcc>0.9 AND abs(pearson)<0.1'")


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
    _add_synth_flags(sp, required=True)
    sp.add_argument("--output")
    sp.set_defaults(fn=_cmd_synth)

    sp = _scan_command(sub, "pair", _cmd_pair,
                       "full composition scan of one pair; writes the distribution file", 2, synth=True)
    sp.add_argument("id_a", nargs="?", default="x", help="first series id (default: x, for --function)")
    sp.add_argument("id_b", nargs="?", default=None, help="second series id")

    sp = _scan_command(sub, "clouds", _cmd_clouds,
                       "per-composition (r_c, var, cov) point cloud of one pair", 2, synth=True)
    sp.add_argument("id_a", nargs="?", default=None, help="first series id (default: the first series)")
    sp.add_argument("id_b", nargs="?", default=None, help="second series id (default: the second series)")

    sp = _scan_command(sub, "all-pairs", _cmd_all_pairs, "scan every pair of the dataset", 4)
    _add_batch_flags(sp)
    sp.add_argument("--emit-distribution", action="store_true",
                    help="also write a distribution file for each record passing the filter")

    _add_batch_flags(_scan_command(sub, "time-corr", _cmd_time_corr, "scan each series against time", 2))

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 1
    except (ValueError, OSError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
