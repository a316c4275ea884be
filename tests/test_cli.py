import builtins
import contextlib
import io
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from compcorr import _blocks, cli, engine
from compcorr.cli import _default_workers, _guarded_output, _write_distribution, build_parser, main
from compcorr.compositions import CompositionSpec, composition_at
from compcorr.corr import ScanOptions
from compcorr.engine import PairScan, scan
from compcorr.datasets import Dataset, SynthSpec, generate, write_dataset
from compcorr.engine import format_composition, format_number
from compcorr.segments import ConsistencyError, TimeSeries


def run(argv):
    # Emulate the shell: SystemExit with a message prints it and exits 1.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            if exc.code is None or isinstance(exc.code, int):
                code = exc.code or 0
            else:
                print(exc.code, file=err)
                code = 1
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def toy_file(tmp_path):
    rng = np.random.default_rng(11)
    series = tuple(TimeSeries(f"g{i}", rng.normal(size=23)) for i in range(6))
    ds = Dataset(series=series, time_labels=list(range(0, 230, 10)), name="toy")
    path = tmp_path / "toy.tsv"
    write_dataset(ds, path)
    return path


@pytest.fixture()
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


# ------------------------------------------------------------------ count

def test_count_prints_exact_integers():
    for args, want in [
        (["count", "23", "--min-part", "4"], "250"),
        (["count", "23", "--min-part", "3"], "1278"),
        (["count", "23"], "17711"),  # m defaults to 2 here
        (["count", "50"], "7778742049"),
    ]:
        code, out, _ = run(args)
        assert code == 0
        assert out.strip() == want


def test_count_rejects_short_series():
    code, _, err = run(["count", "3", "--min-part", "4"])
    assert code == 1
    assert "error" in err


# ------------------------------------------------------ distribution file

def line_by_line_distribution(result, precision):
    """The writer's reference: one formatted line per (composition, value)."""
    return ("composition\tr_c\n" + "".join(
        f"{format_composition(parts)}\t{format_number(value, precision)}\n"
        for parts, value in result.distribution())).encode()


class InBlocks:
    """A scan stand-in for the writers, one batch and so one part: hands
    ``values`` to the sink in consecutive blocks of the given sizes, cycled."""

    def __init__(self, values, sizes):
        self.values, self.sizes = values, sizes
        self.batches = ((0, len(values), ()),)

    def cut(self, parts):
        return [self.batches]

    def run(self, batches, sink):
        values, sizes = self.values, self.sizes
        lo, k = 0, 0
        while lo < len(values):
            hi = min(lo + sizes[k % len(sizes)], len(values))
            sink(lo, values[lo:hi].copy())
            lo, k = hi, k + 1

    def result(self, answers):
        return "done"


@pytest.mark.parametrize("rows", [1, 16, _blocks.BLOCK_ROWS])
@pytest.mark.parametrize("n,m", [(18, 2), (20, 3), (23, 4)])
def test_distribution_writer_matches_line_by_line_rendering(tmp_path, monkeypatch, block_rows, n, m, rows):
    block_rows(rows)
    monkeypatch.setattr(cli, "BLOCK_LINES", 100)
    if rows <= 16:
        # the small cuts make many blocks, some a whole composition
        blocks = _blocks.blocks_for(n, m)
        assert len(blocks) > 1 and any(not blk.matrix.tail.levels for blk in blocks)
    rng = np.random.default_rng(n * 100 + m)
    step = np.repeat(rng.normal(size=3), [m, n - 2 * m, m])
    pairs = [
        (TimeSeries("a", rng.normal(size=n)), TimeSeries("b", rng.normal(size=n))),
        (TimeSeries("step", step), TimeSeries("b", rng.normal(size=n))),
    ]
    spec = CompositionSpec(n, m)
    for a, b in pairs:
        result = scan(a, b, spec, ScanOptions(distribution=True))
        result.values[1] = -1e-9       # renders as -0.000000 (and -0 at precision 0)
        result.values[-2] = -0.0
        if a.id == "step":
            assert np.isnan(result.values).any()
        for precision in (0, 3, 6):
            path = tmp_path / f"{a.id}.{precision}.txt"
            # batches cut into 100-line slices and a rest, one line on its
            # own, and batches of exactly one and two slices
            for sizes in ([37, 1, 250], [100, 200]):
                got = _write_distribution(path, spec, precision, InBlocks(result.values, sizes))
                assert got == "done"
                assert path.read_bytes() == line_by_line_distribution(result, precision)
    assert "\t-0.000000\n" in path.read_text()
    assert "\tNA\n" in path.read_text()


def test_distribution_writer_memory_is_bounded(tmp_path, parts):
    # the values vector alone is 6.6 MB at (31, 2); the writer holds O(runs)
    # label tables and one block of lines, never an array per composition
    rng = np.random.default_rng(31)
    a, b = (TimeSeries(k, rng.normal(size=31)) for k in "ab")
    spec = CompositionSpec(31, 2)
    result = scan(a, b, spec, ScanOptions(distribution=True))
    engine._label_table.cache_clear()
    parts(1)  # one process's streaming
    tracemalloc.start()
    try:
        _write_distribution(tmp_path / "d.txt", spec, 6, InBlocks(result.values, [46368]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    assert (tmp_path / "d.txt").stat().st_size > 832_040 * 20


def test_distribution_writer_needs_values(tmp_path):
    # a scan that hands over too few compositions fails the file, which
    # is moved aside
    a = TimeSeries("a", np.arange(6.0) ** 2)
    spec = CompositionSpec(6, 2)
    values = scan(a, a, spec, ScanOptions(distribution=True)).values
    path = tmp_path / "d.txt"

    class Sinkless(PairScan):
        def run(self, batches, sink):
            return super().run(batches)

    with pytest.raises(ValueError, match="delivered 0 of 5 compositions"):
        _write_distribution(path, spec, 6, Sinkless(a, a, spec))
    with pytest.raises(ValueError, match="delivered 4 of 5"):
        _write_distribution(path, spec, 6, InBlocks(values[:4], [2]))
    assert not path.exists() and (tmp_path / "d.txt.partial").exists()


@pytest.mark.parametrize("precision", [0, 6, 15, 17])
def test_distribution_slices_leave_no_stale_bytes(tmp_path, monkeypatch, precision):
    # two slices through the writer's one line matrix: at the rows where the
    # first had digits and long labels, the second has NA, values that go
    # through format, -0.0 and shorter labels, and it has fewer rows; where
    # the first had NA, the second has digits
    monkeypatch.setattr(cli, "BLOCK_LINES", 50)
    spec = CompositionSpec(12, 2)  # 89 compositions: slices of 50 and 39 lines
    rng = np.random.default_rng(12)
    step = TimeSeries("step", np.repeat([0.3, -1.2, 0.7], [3, 6, 3]))
    values = scan(step, TimeSeries("b", rng.normal(size=12)), spec,
                  ScanOptions(distribution=True)).values
    assert np.isnan(values[[34, 39, 52]]).all() and not np.isnan(values[[2, 84]]).any()
    values[50:55] = -0.0, -1e-12, np.nan, -0.0, -1e-12
    # decimal halfway points at precision 15: format renders them
    values[60:70] = (rng.integers(0, 10 ** 15, 10) + 0.5) / 10.0 ** 15
    fallbacks = []

    def counting(value, spec):
        fallbacks.append(value)
        return builtins.format(value, spec)

    monkeypatch.setattr(engine, "format", counting, raising=False)
    path = tmp_path / "d.txt"
    assert _write_distribution(path, spec, precision, InBlocks(values, [50])) == "done"
    if precision >= 15:
        assert set(values[60:70].tolist()) <= set(fallbacks)
    labels = [format_composition(composition_at(spec, k)) for k in range(89)]
    assert any(len(labels[50 + k]) < len(labels[k]) for k in range(39))
    want = [f"{label}\t{format_number(None if v != v else v, precision)}"
            for label, v in zip(labels, values.tolist())]
    assert path.read_text().splitlines() == ["composition\tr_c"] + want


@pytest.fixture()
def pair31(tmp_path):
    rng = np.random.default_rng(31)
    ds = Dataset(series=tuple(TimeSeries(k, rng.normal(size=31)) for k in "ab"), name="w31")
    path = tmp_path / "w31.tsv"
    write_dataset(ds, path)
    return path


@pytest.mark.parametrize("command", [
    ["pair", "a", "b", "--min-part", "2"],
    ["clouds", "a", "b", "--min-part", "2", "--output", "clouds.txt"],
    ["all-pairs", "--min-part", "2", "--threads", "1", "--emit-distribution"],
])
def test_one_pair_scans_stream_their_files(in_tmp, pair31, parts, command):
    # 832,040 compositions at (31, 2): one float per composition is 6.7 MB,
    # more than a whole run may hold over its tries, blocks built first; in
    # one part, as tracemalloc sees one process
    parts(1)
    _blocks.blocks_for(31, 2)
    tracemalloc.start()
    try:
        code, _, err = run(command + ["--input", str(pair31)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert peak < 832_040 * 8
    written = Path("clouds.txt") if command[0] == "clouds" else Path("Output.w31.a.b.n31.m2.txt")
    assert len(written.read_bytes().splitlines()) == 1 + 832_040


@pytest.fixture()
def small_blocks(monkeypatch, block_rows):
    """Kernel batches of at most 300 compositions, each written in slices
    of at most 257 lines: every file below is cut both ways, the slices
    starting afresh at each batch."""
    block_rows(300)
    monkeypatch.setattr(cli, "BLOCK_LINES", 257)


def test_streamed_files_match_line_by_line_rendering(in_tmp, small_blocks, step_pair):
    ds, path = step_pair
    a, b = ds.get("step"), ds.get("b")
    spec = CompositionSpec(18, 2)
    assert len(_blocks.blocks_for(18, 2)) > 8
    kept = scan(a, b, spec, ScanOptions(clouds=True))
    assert np.isnan(kept.values).any()
    # lines that read -0.000000, on both sides of a batch boundary (233) and
    # of a slice boundary within a batch (233 + 257)
    inject = {1: -1e-9, 232: -0.0, 233: -1e-12, 256: -0.0, 257: -1e-12, 299: -0.0, 300: -1e-9,
              489: -1e-9, 490: -0.0, kept.n_compositions - 2: -0.0}
    assert (233, 521) in [(lo, hi) for lo, hi, _ in _blocks.batches(_blocks.blocks_for(18, 2))]

    class Injected(PairScan):
        def run(self, batches, sink):
            def block(lo, values):
                values = values.copy()
                for k, v in inject.items():
                    if lo <= k < lo + len(values):
                        values[k - lo] = v
                sink(lo, values)
            return super().run(batches, block)

    for precision in (0, 3, 6, 15):
        code, _, err = run(["pair", "step", "b", "--input", str(path), "--min-part", "2",
                            "--precision", str(precision)])
        assert code == 0, err
        assert Path("Output.sp.step.b.n18.m2.txt").read_bytes() == line_by_line_distribution(kept, precision)
        code, _, err = run(["clouds", "step", "b", "--input", str(path), "--min-part", "2",
                            "--precision", str(precision), "--output", "clouds.txt"])
        assert code == 0, err
        assert Path("clouds.txt").read_bytes() == per_row_clouds(kept.clouds, precision)

        want = scan(a, b, spec, ScanOptions(distribution=True))
        want.values[list(inject)] = list(inject.values())
        got = _write_distribution(Path("injected.txt"), spec, precision, Injected(a, b, spec))
        assert (got.hcc, got.bcc, got.n_undefined) == (kept.hcc, kept.bcc, kept.n_undefined)
        text = Path("injected.txt").read_bytes()
        assert text == line_by_line_distribution(want, precision)
        assert b"\t-0" + b"." * (precision > 0) + b"0" * precision + b"\n" in text


def test_failed_scan_leaves_a_partial_distribution(in_tmp, small_blocks, step_pair, monkeypatch):
    ds, path = step_pair
    want = line_by_line_distribution(scan(ds.get("step"), ds.get("b"), CompositionSpec(18, 2),
                                          ScanOptions(distribution=True)), 6)
    rows_block = engine._rows_block

    def failing(ctx, sink, clouds):
        block = rows_block(ctx, sink, clouds)

        def checked(lo, *arrays):
            if lo >= 1000:
                raise ConsistencyError("injected kernel failure")
            block(lo, *arrays)
        return checked

    monkeypatch.setattr(engine, "_rows_block", failing)
    code, _, err = run(["pair", "step", "b", "--input", str(path), "--min-part", "2"])
    assert code == 1
    assert "injected kernel failure" in err
    assert not Path("Output.sp.step.b.n18.m2.txt").exists()
    partial = Path("Output.sp.step.b.n18.m2.txt.partial").read_bytes()
    # every line of the batches before the failing one, written in slices
    # of at most 257 lines: more than a whole number of slices
    delivered = min(lo for lo, _, _ in _blocks.batches(_blocks.blocks_for(18, 2)) if lo >= 1000)
    assert delivered // 257 >= 3 and delivered % 257
    assert partial == b"".join(want.splitlines(keepends=True)[:1 + delivered])


# ------------------------------------------------- one-pair files in parts

def _children() -> list[int]:
    """Processes this one started and has not reaped."""
    tasks = Path(f"/proc/{os.getpid()}/task")
    return [int(pid) for task in tasks.iterdir() for pid in (task / "children").read_text().split()]


_listed = Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists()
needs_fork = pytest.mark.skipif(not hasattr(os, "copy_file_range") or not _listed,
                                reason="parts run in forked children, found through /proc")
forks_chunks = pytest.mark.skipif(not hasattr(os, "fork") or not _listed,
                                  reason="batch runs fork their workers, found through /proc")


@needs_fork
@pytest.mark.parametrize("k", [2, 3])
def test_files_in_parts_are_the_files_in_one(in_tmp, small_blocks, step_pair, parts, k):
    ds, path = step_pair
    a, b = ds.get("step"), ds.get("b")
    spec = CompositionSpec(18, 2)
    starts = [part[0][0] for part in PairScan(a, b, spec).cut(k)[1:]]
    assert len(starts) == k - 1
    # each part boundary between lines of -0.000000 and NA, and NA and -0.000000
    inject = {at + d: v for at in starts for d, v in ((-2, -0.0), (-1, np.nan), (0, -1e-12), (1, np.nan))}

    class Injected(PairScan):
        def run(self, batches, sink):
            def block(lo, values):
                values = values.copy()
                for at, v in inject.items():
                    if lo <= at < lo + len(values):
                        values[at - lo] = v
                sink(lo, values)
            return super().run(batches, block)

    def outputs():
        got = []
        for precision in (0, 6, 15):
            for command, name in ((["pair", "step", "b"], "Output.sp.step.b.n18.m2.txt"),
                                  (["clouds", "step", "b", "--output", "clouds.txt"], "clouds.txt"),
                                  (["all-pairs", "--threads", "1", "--emit-distribution",
                                    "--output", "ap.tsv"], "Output.sp.step.b.n18.m2.txt")):
                code, out, err = run(command + ["--input", str(path), "--min-part", "2",
                                                "--precision", str(precision)])
                assert code == 0, err
                got.append(([line for line in out.splitlines() if " s wall" not in line],
                            Path(name).read_bytes()))
            result = _write_distribution(Path("injected.txt"), spec, precision, Injected(a, b, spec))
            got.append((repr(result), Path("injected.txt").read_bytes()))
        assert sorted(os.listdir(".")) == sorted(["sp.tsv", "Output.sp.step.b.n18.m2.txt",
                                                  "clouds.txt", "ap.tsv", "injected.txt"])
        return got

    parts(1)
    fds = len(os.listdir("/proc/self/fd"))
    one = outputs()
    want = scan(a, b, spec, ScanOptions(distribution=True))
    want.values[list(inject)] = list(inject.values())
    assert one[-1][1] == line_by_line_distribution(want, 15)
    parts(k)
    assert outputs() == one
    # no child left running, nor an unnamed temporary file left open
    assert _children() == [] and len(os.listdir("/proc/self/fd")) == fds


@needs_fork
def test_an_exact_tie_across_forked_parts_goes_to_the_earlier_composition(in_tmp, parts):
    # the cubic_minus_x tie of test_05, split between part 0 and a child,
    # for the maximum and (b negated) the minimum
    a, b = generate(SynthSpec("cubic_minus_x", -1.4, 1.4, 30))
    spec = CompositionSpec(31, 2)
    parts(2)

    class Split(PairScan):
        def cut(self, k):
            at = next(j for j, (lo, hi, _) in enumerate(self.batches) if lo <= self.later < hi)
            return [self.batches[:at], self.batches[at:]]

    for sign, field in ((1.0, "bcc"), (-1.0, "wcc")):
        job = Split(a, TimeSeries("b", sign * b.values), spec)
        values = scan(job.a, job.b, spec, ScanOptions(distribution=True)).values
        job.later = int(np.flatnonzero(values == sign * np.nanmax(sign * values))[1])
        got = _write_distribution(Path("d.txt"), spec, 6, job, 2)
        assert getattr(got, field) == (8, 2, 2, 2, 2, 2, 2, 2, 9)
        assert composition_at(spec, job.later) == (9, 2, 2, 2, 2, 2, 2, 2, 8)


@needs_fork
@pytest.mark.parametrize("k", [2, 3])
def test_a_failed_part_leaves_a_partial_distribution(in_tmp, small_blocks, step_pair, monkeypatch,
                                                     parts, k):
    # the failing batch is in a child's part; its lines before the failure
    # are appended after part 0's, and a later part's are not
    parts(k)
    ds, _ = step_pair
    cuts = PairScan(ds.get("step"), ds.get("b"), CompositionSpec(18, 2)).cut(k)
    assert cuts[0][-1][1] < 1000 <= cuts[-1][-1][0]
    test_failed_scan_leaves_a_partial_distribution(in_tmp, small_blocks, step_pair, monkeypatch)
    assert _children() == []


@needs_fork
def test_a_killed_part_fails_the_run(in_tmp, small_blocks, step_pair, monkeypatch, parts):
    ds, path = step_pair
    want = line_by_line_distribution(scan(ds.get("step"), ds.get("b"), CompositionSpec(18, 2),
                                          ScanOptions(distribution=True)), 6)
    parts(3)
    cuts = PairScan(ds.get("step"), ds.get("b"), CompositionSpec(18, 2)).cut(3)
    rows_block, parent = engine._rows_block, os.getpid()

    def dying(ctx, sink, clouds):
        block = rows_block(ctx, sink, clouds)

        def killed(lo, *arrays):
            if os.getpid() != parent and lo == cuts[1][-1][0]:  # part 1's last batch
                os.kill(os.getpid(), signal.SIGKILL)
            block(lo, *arrays)
        return killed

    monkeypatch.setattr(engine, "_rows_block", dying)

    def hung(signum, frame):
        raise TimeoutError("the run still waits for the dead part")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        code, _, err = run(["pair", "step", "b", "--input", str(path), "--min-part", "2"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 1
    assert f"error: the process scanning compositions {cuts[1][0][0]} to {cuts[1][-1][1] - 1} " \
           "ended without an answer: killed by signal 9" in err
    # part 0's lines only: the killed part's file may end within a line
    partial = Path("Output.sp.step.b.n18.m2.txt.partial").read_bytes()
    assert partial == b"".join(want.splitlines(keepends=True)[:1 + cuts[1][0][0]])
    assert sorted(os.listdir(".")) == ["Output.sp.step.b.n18.m2.txt.partial", "sp.tsv"]
    assert _children() == []


def test_part_count_is_the_cpus_the_process_may_use(in_tmp, toy_file, monkeypatch):
    monkeypatch.delenv("COMP_CORR_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert _default_workers() == cli._cpus() == 3
    assert cli._part_count(56, 3) == 3  # n=31, m=2
    assert cli._part_count(11, 3) == 2  # cli.PART_BATCHES batches a part at least
    assert cli._part_count(7, 3) == 1
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # as under taskset -c 0
    assert _default_workers() == 1
    code, _, err = run(["pair", "--function", "square", "--min-part", "2"])
    assert code == 0, err
    assert forks == []
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _default_workers() == 64


def test_unknown_series_leaves_no_file(in_tmp, step_pair):
    _, path = step_pair
    for command in (["pair", "step", "zzz", "--output", "out"],
                    ["clouds", "zzz", "b", "--output", "clouds.txt"]):
        code, _, err = run(command + ["--input", str(path), "--min-part", "2"])
        assert code == 1
        assert "no series named 'zzz'" in err
    assert os.listdir(".") == ["sp.tsv"]


@pytest.fixture()
def path_ids(in_tmp):
    """A dataset whose series ids cannot go into a file name, in the working directory."""
    rng = np.random.default_rng(8)
    ids = ("g/1", "..", "g2")
    write_dataset(Dataset(series=tuple(TimeSeries(k, rng.normal(size=8)) for k in ids), name="d"),
                  Path("d.tsv"))
    return "d.tsv"


def test_pair_refuses_an_id_that_is_a_path(path_ids):
    for ids, bad in ((["g/1", "g2"], "g/1"), (["g2", ".."], "..")):
        code, _, err = run(["pair", *ids, "--input", path_ids, "--min-part", "2"])
        assert code == 1
        assert f"series id {bad!r} cannot be part of a file name" in err
    assert os.listdir(".") == ["d.tsv"]


def test_clouds_refuses_an_id_that_is_a_path_only_for_its_file_name(path_ids):
    code, _, err = run(["clouds", "g/1", "g2", "--input", path_ids, "--min-part", "2"])
    assert code == 1
    assert "series id 'g/1' cannot be part of a file name" in err
    assert os.listdir(".") == ["d.tsv"]
    # with --output the ids name nothing
    code, _, err = run(["clouds", "g/1", "g2", "--input", path_ids, "--min-part", "2",
                        "--output", "clouds.txt"])
    assert code == 0, err
    assert len(Path("clouds.txt").read_text().splitlines()) == 1 + 13


def test_emit_distribution_refuses_an_id_that_is_a_path_before_the_run(path_ids):
    command = ["all-pairs", "--input", path_ids, "--min-part", "2", "--threads", "1",
               "--output", "ap.tsv"]
    code, out, err = run(command + ["--emit-distribution"])
    assert code == 1
    assert "series id 'g/1' cannot be part of a file name" in err
    assert out == ""
    assert os.listdir(".") == ["d.tsv"]
    # without distribution files the ids name nothing
    code, _, err = run(command)
    assert code == 0, err
    assert len(Path("ap.tsv").read_text().splitlines()) == 1 + 3


@pytest.mark.parametrize("name, bad, delimiter, command", [
    ("tab.csv", "a\tb", ",", ["all-pairs", "--threads", "1"]),
    ("nul.tsv", "a\0b", "\t", ["all-pairs", "--threads", "1"]),
    ("nul.tsv", "a\0b", "\t", ["time-corr", "--threads", "1"]),
    ("nul.tsv", "a\0b", "\t", ["pair", "a\0b", "g2"]),
], ids=["tab-all-pairs", "nul-all-pairs", "nul-time-corr", "nul-pair"])
def test_an_id_no_table_can_carry_is_refused_before_the_scan(in_tmp, name, bad, delimiter, command):
    # a comma-delimited file keeps a tab inside an id; an all-pairs table
    # would then have 8 fields under a 7-field header
    rng = np.random.default_rng(9)
    Path(name).write_text("".join(delimiter.join([sid, *map(repr, rng.normal(size=8).tolist())]) + "\n"
                                  for sid in (bad, "g2", "g3")))
    code, out, err = run(command + ["--input", name, "--min-part", "2", "--output", "out.tsv"])
    assert code == 1
    assert f"series id {bad!r} holds a tab, NUL or line break" in err
    assert out == ""
    assert os.listdir(".") == [name]


# ------------------------------------------------------------------ synth

def test_synth_writes_dataset(in_tmp):
    code, _, _ = run(["synth", "--function", "square", "--pieces", "30", "--output", "sq.tsv"])
    assert code == 0
    lines = Path("sq.tsv").read_text().splitlines()
    assert lines[0].startswith("id\t")
    assert len(lines) == 3  # header + x + square
    assert lines[1].split("\t")[0] == "x"
    assert len(lines[1].split("\t")) == 32


def test_synth_range_flag(in_tmp):
    code, _, _ = run(["synth", "--function", "quartic", "--range=-2:2", "--pieces", "4", "--output", "q.tsv"])
    assert code == 0
    row = Path("q.tsv").read_text().splitlines()[1].split("\t")
    assert float(row[1]) == -2.0 and float(row[-1]) == 2.0


def test_synth_bad_range(in_tmp):
    code, _, err = run(["synth", "--function", "square", "--range", "5:1", "--output", "x.tsv"])
    assert code == 1
    assert "error" in err


# ------------------------------------------------------------------- pair

def test_pair_writes_distribution_file(in_tmp, toy_file):
    code, out, _ = run(["pair", "g0", "g1", "--input", str(toy_file), "--min-part", "4"])
    assert code == 0
    assert "HCC" in out and "LCC" in out
    dist = Path("Output.toy.g0.g1.n23.m4.txt")
    assert dist.exists()
    lines = dist.read_text().splitlines()
    assert lines[0] == "composition\tr_c"
    assert len(lines) == 250 + 1
    # canonical order: first composition of 23 with m=4 is [4,4,4,4,7]
    assert lines[1].startswith("[4,4,4,4,7]\t")
    assert lines[-1].startswith("[23]\t")


def test_pair_synthetic_function_defaults(in_tmp):
    code, out, _ = run(["pair", "--function", "square", "--min-part", "2"])
    assert code == 0
    dist = Path("Output.square.x.square.n31.m2.txt")
    assert dist.exists()
    assert len(dist.read_text().splitlines()) == 832040 + 1
    assert "0.9449" in out


def test_pair_precision_flag(in_tmp, toy_file):
    code, _, _ = run(["pair", "g0", "g1", "--input", str(toy_file), "--min-part", "4", "--precision", "3"])
    assert code == 0
    line = Path("Output.toy.g0.g1.n23.m4.txt").read_text().splitlines()[1]
    value = line.split("\t")[1]
    assert len(value.split(".")[1]) == 3


def test_pair_undefined_prints_na(in_tmp, tmp_path):
    ds = Dataset(
        series=(TimeSeries("flat", np.full(8, 2.0)), TimeSeries("g", np.arange(8.0))),
        name="flat",
    )
    p = tmp_path / "flat.tsv"
    write_dataset(ds, p)
    code, out, _ = run(["pair", "flat", "g", "--input", str(p), "--min-part", "2"])
    assert code == 0
    assert "NA" in out
    dist = Path("Output.flat.flat.g.n8.m2.txt").read_text().splitlines()
    assert all(line.split("\t")[1] == "NA" for line in dist[1:])


def test_pair_part_r_uses_the_kernel_zero_flush(in_tmp, tmp_path):
    # variation of 1e-7 relative is far above the kernel's zero floor, so
    # every part has an r, as the scan's own HCC does
    rng = np.random.default_rng(3)
    a = 1 + 1e-7 * rng.normal(size=12)
    b = a + 1e-8 * rng.normal(size=12)
    p = tmp_path / "near.tsv"
    write_dataset(Dataset(series=(TimeSeries("a", a), TimeSeries("b", b)), name="near"), p)
    code, out, _ = run(["pair", "a", "b", "--input", str(p), "--min-part", "2"])
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines() if " part r: " in line)
    bcc = [int(k) for k in out.split("BCC [")[1].split("]")[0].split(",")]
    got = [float(v) for v in lines["BCC part r"].split()]  # no NA
    ends = np.cumsum(bcc)
    want = [np.corrcoef(a[e - k:e], b[e - k:e])[0, 1] for e, k in zip(ends, bcc)]
    np.testing.assert_allclose(got, want, atol=1e-6)
    assert "NA" not in lines["WCC part r"]


def test_pair_unknown_id(in_tmp, toy_file):
    code, _, err = run(["pair", "g0", "zzz", "--input", str(toy_file)])
    assert code == 1
    assert "no series named" in err


# ------------------------------------------------------------------ clouds

def test_clouds_output(in_tmp, toy_file):
    code, _, _ = run(["clouds", "g0", "g1", "--input", str(toy_file), "--min-part", "4", "--output", "clouds.tsv"])
    assert code == 0
    lines = Path("clouds.tsv").read_text().splitlines()
    assert lines[0] == "r_c\tvar_a\tvar_b\tcov"
    assert len(lines) == 250 + 1


def per_row_clouds(clouds, p):
    """The clouds writer's reference: one formatted row at a time."""
    lines = ["r_c\tvar_a\tvar_b\tcov\n"]
    for row in clouds:
        r = None if np.isnan(row[0]) else float(row[0])
        lines.append(format_number(r, p) + "\t" + "\t".join(f"{v:.{p}g}" for v in row[1:]) + "\n")
    return "".join(lines).encode()


def test_clouds_bulk_rendering_matches_per_row(in_tmp, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "BLOCK_LINES", 50)  # 377 rows in 8 blocks
    rng = np.random.default_rng(17)
    step = np.repeat([1.0, -2.5, 3e3], [4, 5, 5])  # Undefined where parts fit the steps
    b = 1e6 + 1e-4 * rng.normal(size=14)
    p = tmp_path / "steps.tsv"
    write_dataset(Dataset(series=(TimeSeries("step", step), TimeSeries("b", b)), name="steps"), p)
    result = engine.run_pair(cli.load_dataset(p), "step", "b", 2, ScanOptions(clouds=True))
    assert np.isnan(result.clouds[:, 0]).any()
    for precision in (0, 6, 15):
        out = f"clouds{precision}.tsv"
        code, _, _ = run(["clouds", "step", "b", "--input", str(p), "--precision", str(precision),
                          "--output", out])
        assert code == 0
        assert Path(out).read_bytes() == per_row_clouds(result.clouds, precision)


# --------------------------------------------------------------- all pairs

def test_all_pairs_output_and_thread_determinism(in_tmp, toy_file, monkeypatch, pool_starts):
    monkeypatch.setattr(engine, "CHUNK_PAIRS", 4)  # 15 pairs in 4 chunks
    code1, _, _ = run(["all-pairs", "--input", str(toy_file), "--min-part", "4", "--output", "a1.tsv", "--threads", "1"])
    code2, _, _ = run(["all-pairs", "--input", str(toy_file), "--min-part", "4", "--output", "a2.tsv", "--threads", "2"])
    assert code1 == code2 == 0
    assert pool_starts == [2]
    a1 = Path("a1.tsv").read_text()
    assert a1 == Path("a2.tsv").read_text()
    lines = a1.splitlines()
    assert lines[0] == "id_a\tid_b\thcc\tpearson\tlcc\tbcc\twcc"
    assert len(lines) == 15 + 1


def test_all_pairs_filter_and_summary(in_tmp, toy_file):
    code, _, err = run(["all-pairs", "--input", str(toy_file), "--min-part", "4", "--output", "f.tsv", "--filter", "hcc>0.99"])
    assert code == 0
    assert len(Path("f.tsv").read_text().splitlines()) >= 1  # header always present
    assert "15 pairs" in err or "15" in err  # summary goes to stderr


def test_all_pairs_emit_distribution(in_tmp, toy_file):
    code, _, _ = run([
        "all-pairs", "--input", str(toy_file), "--min-part", "4",
        "--output", "ap.tsv", "--filter", "hcc>-1", "--emit-distribution",
    ])
    assert code == 0
    records = len(Path("ap.tsv").read_text().splitlines()) - 1
    dist_files = [p for p in os.listdir(".") if p.startswith("Output.toy.")]
    assert len(dist_files) == records == 15
    # the emitted file is the one `pair` writes for the same pair
    code, _, _ = run(["pair", "g2", "g4", "--input", str(toy_file), "--min-part", "4",
                      "--output", "single"])
    assert code == 0
    name = "Output.toy.g2.g4.n23.m4.txt"
    assert Path(name).read_bytes() == (Path("single") / name).read_bytes()


@forks_chunks
def test_all_pairs_worker_failure_leaves_partial_output(in_tmp, toy_file, monkeypatch, pool_starts):
    monkeypatch.setattr(engine, "CHUNK_PAIRS", 4)  # 15 pairs in 4 chunks
    scan_span = engine._scan_span

    def failing(ctx, i, j0, j1, *args):
        if i == 2:  # pairs 9-11, in the third chunk
            raise ConsistencyError("injected kernel failure")
        return scan_span(ctx, i, j0, j1, *args)

    monkeypatch.setattr(engine, "_scan_span", failing)
    code, _, err = run(["all-pairs", "--input", str(toy_file), "--min-part", "4",
                        "--output", "ap.tsv", "--threads", "2"])
    assert code == 1
    assert pool_starts == [2]
    assert "injected kernel failure" in err
    assert not Path("ap.tsv").exists()
    lines = Path("ap.tsv.partial").read_text().splitlines()
    assert lines[0] == "id_a\tid_b\thcc\tpearson\tlcc\tbcc\twcc"
    assert len(lines) == 1 + 8  # the two chunks before the failing one
    assert multiprocessing.active_children() == []
    assert _children() == []


@forks_chunks
def test_all_pairs_worker_death_fails_the_run(in_tmp, toy_file, monkeypatch, pool_starts):
    monkeypatch.setattr(engine, "CHUNK_PAIRS", 4)  # 15 pairs in 4 chunks
    code, _, _ = run(["all-pairs", "--input", str(toy_file), "--min-part", "4",
                      "--output", "full.tsv", "--threads", "1"])
    assert code == 0
    scan_span = engine._scan_span

    def dying(ctx, i, j0, j1, *args):
        if i == 2:  # pairs 9-11, in the third chunk
            os._exit(1)
        return scan_span(ctx, i, j0, j1, *args)

    monkeypatch.setattr(engine, "_scan_span", dying)

    def hung(signum, frame):
        raise TimeoutError("the run still waits for the dead worker")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        code, _, err = run(["all-pairs", "--input", str(toy_file), "--min-part", "4",
                            "--output", "ap.tsv", "--threads", "2"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 1
    assert pool_starts == [2]
    assert "error:" in err and "terminated abruptly" in err
    assert not Path("ap.tsv").exists()
    # the chunks written before the pool broke, at most the two before the dying one
    partial = Path("ap.tsv.partial").read_text().splitlines()
    full = Path("full.tsv").read_text().splitlines()
    assert 1 <= len(partial) <= 1 + 8 and partial == full[:len(partial)]
    assert multiprocessing.active_children() == []
    assert _children() == []


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"  # a zombie has exited


def _interrupt(cwd: Path, argv: list[str], children: int) -> tuple[str, list[int]]:
    """Run ``python argv`` in its own process group, send the group SIGINT
    once it has ``children`` child processes, as Ctrl-C in a terminal does,
    and return its stderr and those children."""
    src = str(Path(engine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        listed = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        pids: list[int] = []
        deadline = time.monotonic() + 60
        while len(pids) < children and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.005)
            pids = [int(pid) for pid in listed.read_text().split()]
        assert len(pids) == children, "the run's children never started"
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 1, err
    assert "interrupted" in err
    assert "Traceback" not in err  # not even from a child the SIGINT reached as it started
    deadline = time.monotonic() + 10
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, pids))
    return err, pids


@forks_chunks
def test_all_pairs_ctrl_c_stops_the_run_and_its_workers(tmp_path):
    rng = np.random.default_rng(23)
    walks = tuple(TimeSeries(f"w{i}", np.cumsum(rng.normal(size=23))) for i in range(200))
    write_dataset(Dataset(series=walks, name="walks"), tmp_path / "walks.tsv")
    assert len(walks) * (len(walks) - 1) // 2 > engine.CHUNK_PAIRS  # so a pool starts
    _interrupt(tmp_path, ["-m", "compcorr.cli", "all-pairs", "--input", "walks.tsv", "--min-part", "2",
                          "--threads", "2", "--output", "ap.tsv"], children=2)
    assert (tmp_path / "ap.tsv.partial").exists() and not (tmp_path / "ap.tsv").exists()


@needs_fork
def test_pair_ctrl_c_stops_the_run_and_its_parts(tmp_path, pair31):
    # two parts whatever the host's CPUs: part 1 in the one child
    pinned = ("import sys; from compcorr import cli; "
              "cli._part_count = lambda batches, processes: 2; sys.exit(cli.main(sys.argv[1:]))")
    _interrupt(tmp_path, ["-c", pinned, "pair", "a", "b", "--input", str(pair31), "--min-part", "2"],
               children=1)
    assert sorted(os.listdir(tmp_path)) == ["Output.w31.a.b.n31.m2.txt.partial", "w31.tsv"]


@needs_fork
@pytest.mark.parametrize("dies", [False, True], ids=["answered", "died"])
def test_a_ctrl_c_as_a_part_is_reaped_leaves_no_pid_to_kill(in_tmp, small_blocks, step_pair,
                                                           monkeypatch, parts, dies):
    # the SIGINT lands just after the child is reaped, once it has answered
    # or once it has died without an answer: unless the reap and the pid's
    # reset both run with SIGINT held, the cleanup kills a pid that is gone
    # (or reused) and the run reports that instead
    _, path = step_pair
    parts(2)
    if dies:
        rows_block, parent = engine._rows_block, os.getpid()

        def dying(ctx, sink, clouds):
            block = rows_block(ctx, sink, clouds)

            def killed(lo, *arrays):
                if os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                block(lo, *arrays)
            return killed

        monkeypatch.setattr(engine, "_rows_block", dying)
    waitpid, reaped = os.waitpid, []

    def interrupted(pid, options):
        got = waitpid(pid, options)
        if not reaped:
            reaped.append(pid)
            os.kill(os.getpid(), signal.SIGINT)
        return got

    monkeypatch.setattr(os, "waitpid", interrupted)
    code, _, err = run(["pair", "step", "b", "--input", str(path), "--min-part", "2"])
    assert reaped and code == 1
    assert "interrupted" in err and "error" not in err
    assert sorted(os.listdir(".")) == ["Output.sp.step.b.n18.m2.txt.partial", "sp.tsv"]
    assert _children() == []


@pytest.mark.parametrize("command", ["pair g0 g1", "clouds g0 g1", "all-pairs", "time-corr"])
@pytest.mark.parametrize("precision", ["-1", "2.5", "six"])
def test_precision_must_be_a_non_negative_integer(in_tmp, toy_file, command, precision):
    out = in_tmp / "out"
    out.mkdir()
    code, _, err = run([*command.split(), "--input", str(toy_file), "--min-part", "4",
                        "--output", str(out / "result"), f"--precision={precision}"])
    assert code != 0
    assert "--precision" in err
    assert list(out.iterdir()) == []
    assert not list(in_tmp.glob("*.partial"))


@pytest.mark.parametrize("command", ["all-pairs", "time-corr"])
@pytest.mark.parametrize("threads", ["0", "-1", "two"])
def test_threads_must_be_a_positive_integer(in_tmp, toy_file, command, threads):
    code, _, err = run([command, "--input", str(toy_file), "--output", "out.tsv",
                        f"--threads={threads}"])
    assert code == 2
    assert "--threads" in err
    assert "loaded" not in err  # rejected before the dataset is read
    assert not Path("out.tsv").exists()


def test_threads_env_is_read_only_by_batch_commands(in_tmp, toy_file, monkeypatch):
    monkeypatch.setenv("COMP_CORR_THREADS", "abc")
    assert run(["count", "10"])[:2] == (0, "34\n")
    code, _, _ = run(["pair", "g0", "g1", "--input", str(toy_file), "--min-part", "4"])
    assert code == 0
    code, _, err = run(["time-corr", "--input", str(toy_file), "--output", "tc.tsv"])
    assert code == 1 and "COMP_CORR_THREADS" in err
    code, _, _ = run(["time-corr", "--input", str(toy_file), "--output", "tc.tsv", "--threads", "1"])
    assert code == 0


def test_all_pairs_bad_filter(in_tmp, toy_file):
    code, _, err = run(["all-pairs", "--input", str(toy_file), "--filter", "bogus>0.5", "--output", "x.tsv"])
    assert code == 1
    assert "error" in err


# --------------------------------------------------------------- time corr

def test_time_corr_one_row_per_series(in_tmp, toy_file):
    code, _, _ = run(["time-corr", "--input", str(toy_file), "--output", "tc.tsv"])
    assert code == 0
    lines = Path("tc.tsv").read_text().splitlines()
    assert len(lines) == 6 + 1
    assert all(line.split("\t")[1] == "time" for line in lines[1:])


# ------------------------------------------------------------------ misc

def test_guarded_output_moves_partial_aside(in_tmp):
    target = Path("out.tsv")
    with pytest.raises(KeyboardInterrupt):
        with contextlib.redirect_stderr(io.StringIO()):
            with _guarded_output(target) as fh:
                fh.write("something\n")
                raise KeyboardInterrupt
    assert not target.exists()
    assert Path("out.tsv.partial").exists()


def test_default_workers_env(monkeypatch):
    monkeypatch.setenv("COMP_CORR_THREADS", "3")
    assert _default_workers() == 3
    monkeypatch.setenv("COMP_CORR_THREADS", "not-a-number")
    with pytest.raises(SystemExit):
        _default_workers()
    monkeypatch.setenv("COMP_CORR_THREADS", "0")
    with pytest.raises(SystemExit):
        _default_workers()
    monkeypatch.delenv("COMP_CORR_THREADS")
    assert _default_workers() >= 1


def test_parser_rejects_unknown_subcommand():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["frobnicate"])


def test_main_requires_input_or_function():
    code, _, err = run(["pair", "a", "b"])
    assert code == 1
    assert "input" in err.lower() or "function" in err.lower()
