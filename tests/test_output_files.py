"""Output files are written whole or not at all, into a directory made if
missing; targets other than regular files are written in place, in one part;
and progress shows on slow runs."""
import contextlib
import io
import os
import signal
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from compcorr import cli, engine
from compcorr.datasets import Dataset, write_dataset
from compcorr.segments import TimeSeries


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def walks(path: Path, count: int, n: int, name: str) -> None:
    rng = np.random.default_rng(n)
    series = tuple(TimeSeries(chr(ord("a") + k), np.cumsum(rng.normal(size=n))) for k in range(count))
    write_dataset(Dataset(series=series, name=name), path)


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="kills the run's process group")
def test_a_killed_pair_run_leaves_no_file_under_its_final_name(tmp_path):
    # the run is killed with its whole process group, parts included, as
    # soon as its output appears under either name; the 832,040-line file
    # takes far longer to write than the poll takes to see it
    walks(tmp_path / "w31.tsv", 2, 31, "w31")
    final = tmp_path / "Output.w31.a.b.n31.m2.txt"
    partial = final.with_name(final.name + ".partial")
    src = str(Path(engine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "compcorr.cli", "pair", "a", "b", "--input", "w31.tsv",
                             "--min-part", "2"], cwd=tmp_path, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not (final.exists() or partial.exists()):
            assert proc.poll() is None and time.monotonic() < deadline, "no output appeared"
            time.sleep(0.001)
    finally:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert proc.returncode == -signal.SIGKILL
    assert not final.exists()
    assert partial.exists()


def test_a_failed_all_pairs_rerun_keeps_the_earlier_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    walks(tmp_path / "w.tsv", 6, 23, "w")
    argv = ["all-pairs", "--input", "w.tsv", "--threads", "1", "--output", "ap.tsv"]
    assert run(argv)[0] == 0
    complete = Path("ap.tsv").read_bytes()
    assert len(complete.splitlines()) == 1 + 15

    def failing(ds, config, sink, **kwargs):
        def sink_then_fail(records):  # the first chunk's records go out, then the write fails
            sink(records)
            raise OSError("no space left")
        return engine.run_all_pairs(ds, config, sink_then_fail, **kwargs)

    monkeypatch.setattr(cli, "run_all_pairs", failing)
    code, _, err = run(argv)
    assert code == 1 and "no space left" in err and "aborted" in err
    assert Path("ap.tsv").read_bytes() == complete
    assert Path("ap.tsv.partial").read_bytes() == complete  # one chunk held every record


def test_a_successful_rerun_replaces_a_stale_partial(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    walks(tmp_path / "w.tsv", 4, 23, "w")
    Path("tc.tsv.partial").write_text("left by a killed run\n")
    code, _, _ = run(["time-corr", "--input", "w.tsv", "--threads", "1", "--output", "tc.tsv"])
    assert code == 0
    assert not Path("tc.tsv.partial").exists()
    assert Path("tc.tsv").read_text().startswith(engine.RECORD_HEADER + "\n")


def test_a_symlinked_output_is_written_through_and_stays_a_symlink(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    walks(tmp_path / "w.tsv", 5, 23, "w")
    argv = ["all-pairs", "--input", "w.tsv", "--threads", "1", "--output"]
    assert run(argv + ["plain.tsv"])[0] == 0
    Path("real.tsv").write_text("old\n")
    Path("link.tsv").symlink_to("real.tsv")
    assert run(argv + ["link.tsv"])[0] == 0
    assert Path("link.tsv").is_symlink() and os.readlink("link.tsv") == "real.tsv"
    assert Path("real.tsv").read_bytes() == Path("plain.tsv").read_bytes()
    assert not Path("link.tsv.partial").exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="writes into a FIFO")
def test_a_fifo_output_is_written_in_place_and_stays_a_fifo(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    walks(tmp_path / "w.tsv", 4, 23, "w")
    os.mkfifo("tc.fifo")
    # a reader opened without blocking lets the run open the FIFO at once;
    # the few lines written wait in the pipe
    fd = os.open("tc.fifo", os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, _, _ = run(["time-corr", "--input", "w.tsv", "--threads", "1", "--output", "tc.fifo"])
        read = os.read(fd, 1 << 16)
    finally:
        os.close(fd)
    assert code == 0
    assert stat.S_ISFIFO(os.lstat("tc.fifo").st_mode)
    assert not Path("tc.fifo.partial").exists()
    assert run(["time-corr", "--input", "w.tsv", "--threads", "1", "--output", "tc.tsv"])[0] == 0
    assert read == Path("tc.tsv").read_bytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo") or not hasattr(os, "copy_file_range"),
                    reason="writes into a FIFO, and into a regular file in forked parts")
def test_a_one_pair_file_into_a_pipe_or_a_device_is_written_in_one_part(tmp_path, monkeypatch,
                                                                        block_rows, parts):
    # 610 lines of about 45 bytes fit in a pipe's 64 KB buffer; pinned to
    # two parts, the regular file takes a temporary file for the second,
    # and neither the FIFO nor /dev/null, which cannot take a copied part
    monkeypatch.chdir(tmp_path)
    walks(tmp_path / "w.tsv", 2, 16, "w")
    block_rows(100)
    parts(2)
    temporaries = []
    temporary_file = cli.tempfile.TemporaryFile

    def counted(*args, **kwargs):
        temporaries.append(1)
        return temporary_file(*args, **kwargs)

    monkeypatch.setattr(cli.tempfile, "TemporaryFile", counted)
    argv = ["clouds", "a", "b", "--input", "w.tsv", "--min-part", "2", "--output"]
    assert run(argv + ["clouds.txt"])[0] == 0
    assert temporaries == [1]
    os.mkfifo("clouds.fifo")
    fd = os.open("clouds.fifo", os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, _, err = run(argv + ["clouds.fifo"])
        read = os.read(fd, 1 << 16)
    finally:
        os.close(fd)
    assert code == 0, err
    assert read == Path("clouds.txt").read_bytes()
    code, _, err = run(argv + [os.devnull])
    assert code == 0, err
    assert temporaries == [1]
    assert sorted(os.listdir(".")) == ["clouds.fifo", "clouds.txt", "w.tsv"]


@pytest.mark.parametrize("command", [["all-pairs", "--threads", "1"], ["time-corr", "--threads", "1"],
                                     ["clouds", "a", "b"], ["pair", "a", "b"]], ids=lambda c: c[0])
def test_every_command_makes_the_directory_of_its_output(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    walks(tmp_path / "w.tsv", 4, 16, "w")
    # pair's --output names the directory of its file, the others' the file
    name = "Output.w.a.b.n16.m2.txt" if command[0] == "pair" else "out.tsv"
    written = []
    for where in (Path("."), Path("new", "sub")):
        output = where if command[0] == "pair" else where / name
        code, _, err = run(command + ["--input", "w.tsv", "--min-part", "2", "--output", str(output)])
        assert code == 0, err
        written.append((where / name).read_bytes())
    assert Path("new", "sub").is_dir()
    assert written[1] == written[0]


@pytest.mark.parametrize("command,scan", [("all-pairs", "run_all_pairs"), ("time-corr", "run_versus_time")],
                         ids=["all-pairs", "time-corr"])
def test_a_batch_run_into_a_directory_fails_before_the_scan(tmp_path, monkeypatch, command, scan):
    monkeypatch.chdir(tmp_path)
    walks(tmp_path / "w.tsv", 4, 23, "w")
    Path("out").mkdir()
    scans = []
    monkeypatch.setattr(cli, scan, lambda *args, **kwargs: scans.append(args))
    code, _, err = run([command, "--input", "w.tsv", "--threads", "1", "--output", "out"])
    assert code == 1 and "Is a directory" in err
    assert scans == []
    assert Path("out").is_dir() and not Path("out.partial").exists()


def test_a_failed_time_corr_scan_leaves_the_header_in_its_partial(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    walks(tmp_path / "w.tsv", 4, 23, "w")

    def failing(*args, **kwargs):
        raise OSError("no space left")

    monkeypatch.setattr(cli, "run_versus_time", failing)
    code, _, err = run(["time-corr", "--input", "w.tsv", "--threads", "1", "--output", "tc.tsv"])
    assert code == 1 and "no space left" in err and "aborted" in err
    assert not Path("tc.tsv").exists()
    assert Path("tc.tsv.partial").read_text() == engine.RECORD_HEADER + "\n"


def test_progress_prints_after_ten_seconds_without_a_line(monkeypatch, capsys):
    clock = iter([0.0, 4.0, 9.9, 10.0, 15.0, 20.5, 21.0])
    monkeypatch.setattr(cli.time, "perf_counter", lambda: next(clock))
    report = cli._progress_printer("time-corr")  # starts at t = 0
    for done in (1, 2, 3, 4, 5):  # at t = 4, 9.9, 10, 15 and 20.5
        report(done, 100)
    report(100, 100)  # the end, at t = 21
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(":")[1].split()[0] for line in lines] == ["3/100", "5/100", "100/100"]
    assert lines[0] == "time-corr: 3/100 pairs (3.0%), 0 pairs/s, eta 323 s"


def test_progress_still_prints_every_progress_every_pairs(monkeypatch, capsys):
    monkeypatch.setattr(cli.time, "perf_counter", lambda: 1.0)
    report = cli._progress_printer("all-pairs")
    for done in range(0, 3 * cli.PROGRESS_EVERY + 1, cli.PROGRESS_EVERY // 2):
        report(done, 10 ** 6)
    assert len(capsys.readouterr().err.splitlines()) == 3


@pytest.mark.parametrize("k", [slice(1, 3), slice(None, None, -1), slice(-2, None), slice(5, 2)])
def test_records_slice_as_a_list_does(k):
    rng = np.random.default_rng(5)
    ds = Dataset(series=tuple(TimeSeries(f"s{j}", rng.normal(size=13)) for j in range(5)))
    records = engine.run_versus_time(ds, engine.JobConfig(m=2, workers=1))
    assert len(records) == 5
    assert records[k] == list(records)[k]
    assert records[-1] == list(records)[-1]
