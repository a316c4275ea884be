"""Span tracing of a compcorr CLI run from outside the package.

``install`` wraps the module-level entry points of each package layer so
that every call records a span (name, start, end, parent, run id).  Spans
are kept in memory and written as JSON when the run ends.  A span's self
time is its duration minus the time its child spans cover; calls too
frequent to keep one span each (the composition enumerator's ``next``)
are summed into the enclosing span instead and subtracted the same way.

Run traced:  python3 bench/tracing.py --spans OUT.json -- all-pairs --input F ...
(with the package's ``src`` directory on PYTHONPATH).
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

clock = time.perf_counter


class Tracer:
    """In-memory span recorder with a stack for parent links."""

    def __init__(self, run_id: str = "run"):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.agg_totals: Counter = Counter()
        self.patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append({"name": name, "start": clock(), "end": None,
                           "parent": parent, "run": self.run_id, "agg": {}})
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx]["end"] = clock()
        # tolerate a span closed out of order by an exception unwinding
        while self.stack and self.stack.pop() != idx:
            pass

    def add_inner(self, name: str, seconds: float) -> None:
        """Charge a short untracked call to the enclosing span."""
        self.agg_totals[name] += seconds
        if self.stack:
            agg = self.spans[self.stack[-1]]["agg"]
            agg[name] = agg.get(name, 0.0) + seconds

    def span(self, name: str, fn):
        # wraps() copies the target's module and qualified name, so a patched
        # module attribute still pickles by reference (pool workers get it)
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return wrapped

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "agg": dict(self.agg_totals)}


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Per span: duration minus child-covered time minus inner-call time."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        if sp["parent"] >= 0:
            children[sp["parent"]].append((sp["start"], sp["end"]))
    out = []
    for idx, sp in enumerate(spans):
        dur = sp["end"] - sp["start"]
        inner = sum(sp.get("agg", {}).values())
        out.append(dur - _covered(children[idx], sp["start"], sp["end"]) - inner)
    return out


def totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """name -> {"count", "total_s" (inclusive), "self_s"}."""
    out: dict[str, dict[str, float]] = {}
    for sp, own in zip(spans, self_times(spans)):
        t = out.setdefault(sp["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        t["count"] += 1
        t["total_s"] += sp["end"] - sp["start"]
        t["self_s"] += own
    return out


# metric -> (span name, which time); self time unless the span's children
# are the work itself (a chunk worker's time includes its spans)
SPAN_METRICS = {
    "import_s": ("import", "total_s"),
    "datasets.load_s": ("datasets.load", "self_s"),
    "blocks.build_s": ("blocks.build", "self_s"),
    "segments.css_s": ("segments.css", "self_s"),
    "engine.ctx_s": ("engine.ctx", "self_s"),
    "engine.cross_s": ("engine.cross", "self_s"),
    "engine.kernel_s": ("engine.scan_span", "self_s"),
    "engine.worker_s": ("engine.worker", "total_s"),
    "engine.wait_s": ("engine.wait", "self_s"),
    "engine.emit_s": ("engine.emit", "self_s"),
    "cli.write_s": ("cli.write", "self_s"),
    "corr.scan_s": ("corr.scan", "self_s"),
    "corr.segtable_s": ("corr.segtable", "self_s"),
    "cli.dist_write_s": ("cli.dist_write", "self_s"),
}
COUNT_METRICS = ("blocks.nnz", "blocks.blocks", "engine.chunks", "compositions.unrank_calls",
                 "engine.pairs", "engine.records", "engine.undefined")


def layer_metrics(record: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run; a layer that did not run reads 0."""
    by_name = totals(record["spans"])
    out = {}
    for metric, (span, which) in SPAN_METRICS.items():
        out[metric] = float(by_name.get(span, {}).get(which, 0.0))
    for metric in COUNT_METRICS:
        out[metric] = float(record["counts"].get(metric, 0))
    out["engine.spans"] = float(by_name.get("engine.scan_span", {}).get("count", 0))
    out["compositions.enumerate_s"] = float(record["agg"].get("compositions.enumerate", 0.0))
    pairs = out["engine.pairs"]
    out["engine.keep_ratio"] = out["engine.records"] / pairs if pairs else 0.0
    return out


# ---------------------------------------------------------------------------
# wrappers around the package's entry points

def install(tracer: Tracer) -> list[str]:
    """Wrap each layer's entry points; returns the hooks that were missing.

    A hook is skipped, not fatal, when its target is gone, so the traced
    run still works after the package is restructured; the missing names
    are reported next to the metrics they would have fed.
    """
    from compcorr import _blocks, cli, corr, engine, segments

    missing: list[str] = []

    def patch(owner, attr, make):
        raw = vars(owner).get(attr)
        if raw is None:
            missing.append(f"{owner.__name__}.{attr}")
            return
        tracer.patched.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    patch(cli, "load_dataset", lambda f: tracer.span("datasets.load", f))

    def blocks_hook(f):
        def wrapped(n, m):
            idx = tracer.begin("blocks.build")
            try:
                got = f(n, m)
            finally:
                tracer.end(idx)
            if got is not None and "blocks.blocks" not in tracer.counts:
                tracer.counts["blocks.blocks"] = len(got)
                tracer.counts["blocks.nnz"] = sum(int(b.matrix.nnz) for b in got)
            return got
        return wrapped

    patch(_blocks, "blocks_for", blocks_hook)
    patch(engine, "series_segment_css", lambda f: tracer.span("segments.css", f))
    patch(engine, "series_segment_sums", lambda f: tracer.span("segments.css", f))
    ctx_cls = getattr(engine, "_Ctx", None)
    if ctx_cls is None:
        missing.append("compcorr.engine._Ctx")
    else:
        patch(ctx_cls, "__init__", lambda f: tracer.span("engine.ctx", f))
    patch(engine, "_cross_css", lambda f: tracer.span("engine.cross", f))
    patch(engine, "_scan_span", lambda f: tracer.span("engine.scan_span", f))

    def chunk_worker_hook(f):
        traced = tracer.span("engine.worker", f)

        @functools.wraps(f)
        def wrapped(rg):
            # spans inside a chunk carry the chunk's pair-index range as their id
            outer, tracer.run_id = tracer.run_id, f"chunk {rg[0]}-{rg[1]}"
            try:
                return traced(rg)
            finally:
                tracer.run_id = outer
        return wrapped

    patch(engine, "_chunk_worker", chunk_worker_hook)

    def chunk_results_hook(f):
        def wrapped(*args, **kwargs):
            gen = f(*args, **kwargs)
            try:
                while True:
                    idx = tracer.begin("engine.wait")
                    try:
                        payload = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(idx)
                    tracer.counts["engine.chunks"] += 1
                    tracer.counts["engine.pairs"] += int(payload[0])
                    tracer.counts["engine.undefined"] += int(payload[1])
                    tracer.counts["engine.records"] += len(payload[2])
                    idx = tracer.begin("engine.emit")
                    try:
                        yield payload
                    finally:
                        tracer.end(idx)
            finally:
                gen.close()
        return wrapped

    patch(engine, "_chunk_results", chunk_results_hook)

    def unrank_hook(f):
        def wrapped(*args, **kwargs):
            tracer.counts["compositions.unrank_calls"] += 1
            return f(*args, **kwargs)
        return wrapped

    patch(engine, "composition_at", unrank_hook)
    patch(corr, "composition_at", unrank_hook)

    def run_all_pairs_hook(f):
        def wrapped(dataset, config, sink, *args, **kwargs):
            return tracer.span("engine.run_all_pairs", f)(
                dataset, config, tracer.span("cli.write", sink), *args, **kwargs)
        return wrapped

    patch(cli, "run_all_pairs", run_all_pairs_hook)
    patch(engine, "scan", lambda f: tracer.span("corr.scan", f))
    patch(segments.SegmentTable, "build", lambda f: tracer.span("corr.segtable", f))

    def enumerate_hook(f):
        def wrapped(*args, **kwargs):
            it = f(*args, **kwargs)
            while True:
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    tracer.add_inner("compositions.enumerate", clock() - t0)
                    return
                tracer.add_inner("compositions.enumerate", clock() - t0)
                yield item
        return wrapped

    patch(corr, "enumerate_compositions", enumerate_hook)
    patch(cli, "_write_distribution", lambda f: tracer.span("cli.dist_write", f))
    return missing


def uninstall(tracer: Tracer) -> None:
    """Put back everything ``install`` replaced."""
    while tracer.patched:
        owner, attr, raw = tracer.patched.pop()
        setattr(owner, attr, raw)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracing.py --spans OUT.json -- <compcorr arguments>", file=sys.stderr)
        return 2
    out_path, cli_argv = argv[1], argv[3:]
    tracer = Tracer(run_id=f"run {os.getpid()}")
    idx = tracer.begin("import")
    from compcorr import cli
    tracer.end(idx)
    missing = install(tracer)
    idx = tracer.begin("cli.main")
    try:
        code = cli.main(cli_argv)
    finally:
        tracer.end(idx)
        record = tracer.dump()
        record["missing_hooks"] = missing
        with open(out_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
