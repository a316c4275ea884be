"""compcorr benchmark: CLI runs on seeded inputs, with an optional traced split.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace {0|1}

Run from the repository root.  Inputs are generated from ``--seed`` into
``.bench_work/``; the CLI only ever sees those files.  Each CLI run is a
fresh ``python3 -m compcorr.cli`` subprocess with ``src`` on PYTHONPATH,
timed from spawn to exit.  After one untimed warm-up run, runs repeat
until ``--seconds`` would be exceeded, every output is checked (see
check.py), and the last line of stdout is one JSON object: correct,
attempted, failed, metrics.

--trace 0 reports the end-to-end metrics:
  wall_s       median CLI wall time
  evals_per_s  pair x composition evaluations per second of wall_s
  setup_s      median time a fresh interpreter needs before the first
               pair is scanned (setup_probe.py, five per run,
               spread over it)
  peak_rss_mb  median over runs of the largest process's peak RSS (the
               CLI or one of its pool workers)
  ok_frac      share of CLI runs that exited 0 and passed the checks
--trace 1 alternates untraced and traced runs (tracing.py) and reports the
per-layer metrics named in BENCHMARK.json, with trace_overhead.

Why these workloads:
  allpairs_emit    every pair becomes a record, so the serial parent path
                   (record building, unranking, formatting, write) is hot;
                   two workers, so worker IPC and waiting show too.
  pair_dist_n31    one pair, 832,040 compositions, full distribution
                   file: the large block build, corr.scan and the
                   distribution writer, which no other workload runs; it
                   makes no all-pairs records, so emission work bypasses it.
  allpairs_sparse  the same input shape as allpairs_emit behind a filter
                   that keeps a fraction of a percent, on one worker: the
                   engine kernel does nearly all the work and emission
                   almost none.  Runnable here, but not in BENCHMARK.json:
                   two workloads leave each run long enough to be steady
                   on a small shared host.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = {
    "allpairs_emit": {"kind": "allpairs", "series": 360, "m": 4, "threads": 2, "filter": None},
    "allpairs_sparse": {"kind": "allpairs", "series": 700, "m": 4, "threads": 1,
                        "filter": "hcc>0.7"},
    "pair_dist_n31": {"kind": "pair", "m": 2},
}
SETUP_REPS = 5
RUN_TIMEOUT_S = 120.0
# metrics measured from a single-worker traced run when the workload uses a pool:
# spans recorded inside pool workers never reach the parent
WORKER_SIDE = ("engine.cross_s", "engine.spans", "engine.kernel_s", "engine.worker_s")
LAYER_METRICS = (
    ("import_s", "s"), ("datasets.load_s", "s"), ("blocks.build_s", "s"),
    ("blocks.nnz", "count"), ("blocks.blocks", "count"), ("segments.css_s", "s"),
    ("engine.ctx_s", "s"), ("engine.cross_s", "s"), ("engine.spans", "count"),
    ("engine.kernel_s", "s"), ("engine.worker_s", "s"), ("engine.chunks", "count"),
    ("engine.wait_s", "s"), ("engine.emit_s", "s"), ("compositions.unrank_calls", "count"),
    ("cli.write_s", "s"), ("cli.bytes_out", "bytes"), ("corr.scan_s", "s"),
    ("corr.segtable_s", "s"), ("compositions.enumerate_s", "s"), ("cli.dist_write_s", "s"),
    ("engine.pairs", "count"), ("engine.records", "count"), ("engine.keep_ratio", "ratio"),
    ("engine.undefined", "count"), ("trace_overhead", "ratio"),
)


def machine_record(seed: int, workload: str, trace: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import compcorr

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "compcorr": compcorr.__version__,
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile above the median with at least ten samples beyond it."""
    n = len(samples)
    q = int(100 * (1 - 10 / n)) if n else 0
    if q <= 50:
        return None
    return q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Runner:
    """Spawns and times processes; counts every CLI run and its verdict."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.serial = 0

    def spawn(self, argv: list[str]) -> dict:
        """Run to exit through launch.py: wall time from spawn, and the peak
        RSS of the largest of the process and its waited-for children."""
        self.serial += 1
        out_path = self.work / f"stdout.{self.serial}"
        err_path = self.work / f"stderr.{self.serial}"
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "launch.py"), str(out_path),
                                 str(err_path), "--"] + argv,
                                stdout=subprocess.PIPE, env=self.env, cwd=ROOT,
                                start_new_session=True, text=True)
        try:
            report, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"timed out after {RUN_TIMEOUT_S} s: {argv}") from None
        finally:
            if proc.returncode is None:  # timed out or interrupted: end the whole group
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"launcher failed with code {proc.returncode}: {argv}")
        result = json.loads(report)
        result["stdout"] = out_path.read_text()
        result["stderr"] = err_path.read_text()
        out_path.unlink()
        err_path.unlink()
        return result

    def verdict(self, label: str, result: dict, problems: list[str]) -> bool:
        """Count the run; True when it exited 0, whether or not its output
        passed (a wrong output still has a valid timing, and fails the run)."""
        self.attempted += 1
        if result["code"] != 0:
            problems = [f"exit code {result['code']}: {result['stderr'].strip()[-300:]}"] + problems
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems[:5]]
        return result["code"] == 0


class Workload:
    """One workload's generated inputs, CLI command lines and output checks."""

    def __init__(self, name: str, seed: int, work: Path):
        from compcorr.compositions import CompositionSpec, count_compositions
        from gen import allpairs_rows, pair_rows, write_rows

        self.seed = seed
        self.cfg = WORKLOADS[name]
        self.work = work
        self.out_dir = work / "out"
        self.out_dir.mkdir()
        if self.cfg["kind"] == "allpairs":
            self.rows = allpairs_rows(seed, self.cfg["series"])
            self.input = work / f"allpairs_{seed}.tsv"
            pairs = len(self.rows) * (len(self.rows) - 1) // 2
        else:
            self.rows = pair_rows(seed)
            self.input = work / f"pair_{seed}.tsv"
            pairs = 1
        # pair x composition evaluations one CLI run makes
        self.evals = pairs * count_compositions(CompositionSpec(len(self.rows[0][1]),
                                                                self.cfg["m"]))
        write_rows(self.rows, self.input)
        self.reference_digest: str | None = None

    def cli_args(self, threads: int | None = None) -> list[str]:
        cfg = self.cfg
        if cfg["kind"] == "pair":
            return ["pair", self.rows[0][0], self.rows[1][0], "--input", str(self.input),
                    "--min-part", str(cfg["m"]), "--output", str(self.out_dir)]
        args = ["all-pairs", "--input", str(self.input), "--min-part", str(cfg["m"]),
                "--threads", str(threads or cfg["threads"]),
                "--output", str(self.out_dir / "pairs.tsv")]
        if cfg["filter"]:
            args += ["--filter", cfg["filter"]]
        return args

    def output_file(self) -> Path:
        if self.cfg["kind"] == "allpairs":
            return self.out_dir / "pairs.tsv"
        files = sorted(self.out_dir.glob("Output.*.txt"))
        return files[0] if len(files) == 1 else self.out_dir / "missing-distribution-file"

    def check(self, result: dict) -> list[str]:
        """Full check of the first good output; byte comparison with it after."""
        import check

        path = self.output_file()
        if result["code"] != 0:
            return []
        if not path.exists():
            return [f"no output file {path.name}"]
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if self.reference_digest is not None:
            if digest != self.reference_digest:
                return ["output differs from the checked warm-up run's"]
            return []
        try:
            if self.cfg["kind"] == "allpairs":
                problems = check.check_allpairs(path, self.rows, self.cfg["m"],
                                                self.cfg["filter"], self.seed)
            else:
                problems = check.check_distribution(path, result["stdout"], self.rows[0][1],
                                                    self.rows[1][1], self.cfg["m"], self.seed)
        except (ValueError, IndexError) as exc:  # a malformed line or field
            problems = [f"unparseable output: {exc}"]
        if not problems:
            self.reference_digest = digest
        return problems

    def clear_output(self) -> None:
        for p in self.out_dir.iterdir():
            p.unlink()


def _cli(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "compcorr.cli"] + argv


def _keep_going(t0: float, seconds: float, lap_times: list[float]) -> bool:
    """Start another lap only if a typical lap still ends within the budget."""
    return time.perf_counter() - t0 + statistics.median(lap_times) <= seconds


def warm_up(wl: Workload, runner: Runner) -> None:
    """One untimed run before any timing.  It compiles the package's bytecode
    and fills the file cache, and its output gets the full check that every
    later run is compared with byte for byte.  A pooled workload warms up on
    a single worker, so its timed runs must reproduce the 1-worker output."""
    pooled = wl.cfg["kind"] == "allpairs" and wl.cfg["threads"] != 1
    wl.clear_output()
    res = runner.spawn(_cli(wl.cli_args(threads=1 if pooled else None)))
    runner.verdict("1-worker warm-up run" if pooled else "warm-up run", res, wl.check(res))


def probe_setup(wl: Workload, runner: Runner) -> tuple[float, dict]:
    """One setup_probe.py run: seconds from spawn to ready, and its steps."""
    res = runner.spawn([sys.executable, str(BENCH_DIR / "setup_probe.py"), wl.cfg["kind"],
                        str(wl.input), str(wl.cfg["m"])])
    if res["code"] != 0:
        raise RuntimeError(f"setup probe failed: {res['stderr'].strip()[-500:]}")
    probe = json.loads(res["stdout"].splitlines()[-1])
    return probe["ready"] - res["started"], probe["steps"]


def measure_end_to_end(wl: Workload, runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Timed CLI runs for ``seconds``, with the set-up probes spread evenly
    between them, so both medians see the same stretch of host time."""
    probes = []  # (seconds to ready, steps)
    walls, rss, laps = [], [], []
    t0 = time.perf_counter()
    while True:
        if len(probes) < SETUP_REPS and time.perf_counter() - t0 >= len(probes) * seconds / SETUP_REPS:
            probes.append(probe_setup(wl, runner))
        wl.clear_output()
        res = runner.spawn(_cli(wl.cli_args()))
        if runner.verdict("timed run", res, wl.check(res)):
            walls.append(res["wall"])
            rss.append(res["rss_mb"])
        laps.append(res["wall"])
        if not _keep_going(t0, seconds, laps):
            break
    while len(probes) < SETUP_REPS:  # a run too short to spread them
        probes.append(probe_setup(wl, runner))
    setup = [took for took, _ in probes]
    setup_steps = [steps for _, steps in probes]

    ok = 1.0 - runner.failed / runner.attempted
    detail = {"wall_samples": walls, "setup_samples": setup, "setup_steps": setup_steps,
              "rss_samples": rss, "evals_per_run": wl.evals}
    if not walls:
        return {"ok_frac": (ok, "frac")}, detail
    wall = statistics.median(walls)
    metrics = {
        "wall_s": (wall, "s"),
        "evals_per_s": (wl.evals / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "ok_frac": (ok, "frac"),
    }
    return metrics, detail


def _traced(wl: Workload, runner: Runner, threads: int | None, label: str):
    import tracing

    spans_path = wl.work / "spans.json"
    wl.clear_output()
    res = runner.spawn([sys.executable, str(BENCH_DIR / "tracing.py"), "--spans", str(spans_path),
                        "--"] + wl.cli_args(threads))
    if not runner.verdict(label, res, wl.check(res)):
        return res, None
    record = json.loads(spans_path.read_text())
    spans_path.unlink()
    layers = tracing.layer_metrics(record)
    layers["cli.bytes_out"] = float(wl.output_file().stat().st_size)
    return res, (layers, record)


def measure_layers(wl: Workload, runner: Runner, seconds: float) -> tuple[dict, dict]:
    pooled = wl.cfg["kind"] == "allpairs" and wl.cfg["threads"] != 1
    untraced, traced, laps = [], [], []
    layer_runs: list[dict] = []
    missing: set[str] = set()
    t0 = time.perf_counter()
    while True:
        lap = time.perf_counter()
        wl.clear_output()
        res = runner.spawn(_cli(wl.cli_args()))
        if runner.verdict("untraced run", res, wl.check(res)):
            untraced.append(res["wall"])
        res, got = _traced(wl, runner, None, "traced run")
        if got is not None:
            layers, record = got
            traced.append(res["wall"])
            missing.update(record["missing_hooks"])
            if pooled:
                _, single = _traced(wl, runner, 1, "1-worker traced run")
                if single is None:
                    got = None
                else:
                    layers.update({k: single[0][k] for k in WORKER_SIDE})
        if got is not None:
            layer_runs.append(layers)
        laps.append(time.perf_counter() - lap)
        if not _keep_going(t0, seconds, laps):
            break

    metrics = {}
    if layer_runs:
        for name, unit in LAYER_METRICS:
            if name == "trace_overhead":
                continue
            metrics[name] = (statistics.median(run[name] for run in layer_runs), unit)
    if untraced and traced:
        metrics["trace_overhead"] = (statistics.median(traced) / statistics.median(untraced) - 1.0,
                                     "ratio")
    detail = {"untraced_wall_samples": untraced, "traced_wall_samples": traced,
              "layer_runs": layer_runs, "missing_hooks": sorted(missing),
              "worker_side_from": "a 1-worker traced run of the same input" if pooled
              else "the traced run itself"}
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compcorr benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn a termination request into SystemExit, so the running command's
    # process group is killed on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "compcorr" / "cli.py").is_file():
        print(f"error: package source not found at {SRC / 'compcorr'}; "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(work)
        wl = Workload(args.workload, args.seed, work)
        warm_up(wl, runner)
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, detail = measure(wl, runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    machine = machine_record(args.seed, args.workload, args.trace)
    for key in ("wall_samples", "setup_samples"):
        samples = detail.get(key)
        if samples:
            tail = tail_percentile(samples)
            tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail
                         else "no tail percentile (fewer than 20 samples)")
            print(f"{key[:-8]}: median {statistics.median(samples):.4f} s, {tail_text}, "
                  f"n={len(samples)}")
    print(f"failed_frac: {runner.failed}/{runner.attempted} CLI runs")
    if args.trace and "engine.keep_ratio" in metrics:
        print(f"engine.keep_ratio base: {metrics['engine.records'][0]:.0f} records / "
              f"{metrics['engine.pairs'][0]:.0f} pairs")
        print(f"worker-side spans from {detail['worker_side_from']}")
        if detail["missing_hooks"]:
            print(f"hooks missing (their metrics read 0): {detail['missing_hooks']}")
    for problem in runner.problems:
        print(f"problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results_dir = work_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"machine": machine, "result": result, "detail": detail}, fh, indent=1)
    print(json.dumps({"machine": machine}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
