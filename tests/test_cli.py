import io
import contextlib
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

from compcorr import cli, engine
from compcorr.cli import _default_workers, _guarded_output, _write_distribution, build_parser, main
from compcorr.compositions import CompositionSpec, prefix_runs, tail_cap
from compcorr.corr import ScanOptions
from compcorr.engine import scan
from compcorr.datasets import Dataset, write_dataset
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


@pytest.mark.parametrize("label_rows", [1, 16, engine.LABEL_ROWS])
@pytest.mark.parametrize("n,m", [(18, 2), (20, 3), (23, 4)])
def test_distribution_writer_matches_line_by_line_rendering(tmp_path, monkeypatch, n, m, label_rows):
    monkeypatch.setattr(engine, "LABEL_ROWS", label_rows)
    runs = list(prefix_runs(n, m, tail_cap(n, m, label_rows)))
    if label_rows < engine.LABEL_ROWS:
        # the small tables cut the file into many runs, some a whole composition
        assert len(runs) > 1 and any(rem == 0 for _, rem in runs)
    rng = np.random.default_rng(n * 100 + m)
    step = np.repeat(rng.normal(size=3), [m, n - 2 * m, m])
    pairs = [
        (TimeSeries("a", rng.normal(size=n)), TimeSeries("b", rng.normal(size=n))),
        (TimeSeries("step", step), TimeSeries("b", rng.normal(size=n))),
    ]
    for a, b in pairs:
        result = scan(a, b, CompositionSpec(n, m), ScanOptions(distribution=True))
        result.values[1] = -1e-9       # renders as -0.000000 (and -0 at precision 0)
        result.values[-2] = -0.0
        if a.id == "step":
            assert np.isnan(result.values).any()
        for precision in (0, 3, 6):
            path = tmp_path / f"{a.id}.{precision}.txt"
            _write_distribution(path, result, precision)
            assert path.read_bytes() == line_by_line_distribution(result, precision)
    assert "\t-0.000000\n" in path.read_text()
    assert "\tNA\n" in path.read_text()


def test_distribution_writer_memory_is_bounded(tmp_path):
    # the values vector alone is 6.6 MB at (31, 2); the writer holds O(runs)
    # label tables and one block of lines, never an array per composition
    rng = np.random.default_rng(31)
    a, b = (TimeSeries(k, rng.normal(size=31)) for k in "ab")
    result = scan(a, b, CompositionSpec(31, 2), ScanOptions(distribution=True))
    engine._label_table.cache_clear()
    tracemalloc.start()
    try:
        _write_distribution(tmp_path / "d.txt", result, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    assert (tmp_path / "d.txt").stat().st_size > 832_040 * 20


def test_distribution_writer_needs_values(tmp_path):
    a = TimeSeries("a", np.arange(6.0) ** 2)
    result = scan(a, a, CompositionSpec(6, 2))
    with pytest.raises(ValueError):
        _write_distribution(tmp_path / "d.txt", result, 6)


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
    result = cli.run_pair(cli.load_dataset(p), "step", "b", 2, ScanOptions(clouds=True))
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


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers must inherit the patched kernel")
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


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers must inherit the patched kernel")
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


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"  # a zombie has exited


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork"
                    or not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
                    reason="finds the pool's forked workers through /proc")
def test_all_pairs_ctrl_c_stops_the_run_and_its_workers(tmp_path):
    rng = np.random.default_rng(23)
    walks = tuple(TimeSeries(f"w{i}", np.cumsum(rng.normal(size=23))) for i in range(200))
    write_dataset(Dataset(series=walks, name="walks"), tmp_path / "walks.tsv")
    assert len(walks) * (len(walks) - 1) // 2 > engine.CHUNK_PAIRS  # so a pool starts
    src = str(Path(engine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "compcorr.cli", "all-pairs", "--input", "walks.tsv", "--min-part", "2",
         "--threads", "2", "--output", "ap.tsv"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        workers: list[int] = []
        deadline = time.monotonic() + 60
        while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = [int(pid) for pid in children.read_text().split()]
        assert len(workers) == 2, "the pool's workers never started"
        os.killpg(proc.pid, signal.SIGINT)  # as Ctrl-C in a terminal does
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 1
    assert "interrupted" in err
    assert "Traceback" not in err  # not even from a worker still loading its tables
    assert (tmp_path / "ap.tsv.partial").exists() and not (tmp_path / "ap.tsv").exists()
    deadline = time.monotonic() + 10
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, workers))


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
