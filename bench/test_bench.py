"""Tests of the benchmark's own parts: generator, output checker, span arithmetic.

Run from the repository root:  python3 -m pytest -q bench
"""
from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
from compcorr.cli import main as cli_main  # noqa: E402


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli_main(argv) == 0
    return out.getvalue()


# ---------------------------------------------------------------- generator

def test_generator_is_deterministic_for_a_fixed_seed(tmp_path):
    for seed in (0, 7):
        gen.main(["--seed", str(seed), "--series", "120", "--out", str(tmp_path / "a")])
        gen.main(["--seed", str(seed), "--series", "120", "--out", str(tmp_path / "b")])
        for name in (f"allpairs_{seed}.tsv", f"pair_{seed}.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "allpairs_0.tsv").read_bytes() != \
        (tmp_path / "a" / "allpairs_7.tsv").read_bytes()


def test_generator_mixes_every_row_kind():
    rows = gen.allpairs_rows(3, 200)
    kinds = {sid.split("_")[1] for sid, _ in rows}
    assert kinds == {"gauss", "walk", "offset", "const", "step", "dup"}
    values = {sid: v for sid, v in rows}
    for sid, v in rows:
        if sid.endswith("_dup"):
            assert any((v == w).all() for other, w in values.items() if other != sid)
        if sid.endswith("_const"):
            assert (v == v[0]).all()


# ------------------------------------------------------------------ checker

@pytest.fixture(scope="module")
def allpairs_output(tmp_path_factory):
    work = tmp_path_factory.mktemp("allpairs")
    rows = gen.allpairs_rows(5, 14)
    gen.write_rows(rows, work / "in.tsv")
    out = work / "pairs.tsv"
    run_cli(["all-pairs", "--input", str(work / "in.tsv"), "--min-part", "4",
             "--threads", "1", "--output", str(out)])
    return rows, out.read_text().splitlines()


def _check_lines(tmp_path, rows, lines, filter_text=None):
    path = tmp_path / "candidate.tsv"
    path.write_text("\n".join(lines) + "\n")
    return check.check_allpairs(path, rows, 4, filter_text, seed=1, samples=200)


def test_checker_accepts_the_cli_output(tmp_path, allpairs_output):
    rows, lines = allpairs_output
    assert len(lines) == 1 + 14 * 13 // 2
    assert _check_lines(tmp_path, rows, lines) == []


def test_checker_rejects_a_tampered_record(tmp_path, allpairs_output):
    rows, lines = allpairs_output
    k = next(k for k, line in enumerate(lines[1:], 1) if line.split("\t")[2] != "NA")
    fields = lines[k].split("\t")
    fields[2] = f"{float(fields[2]) - 0.001:.6f}"
    tampered = lines[:k] + ["\t".join(fields)] + lines[k + 1:]
    assert any("hcc" in p for p in _check_lines(tmp_path, rows, tampered))

    fields = lines[k].split("\t")
    fields[3], fields[4] = fields[4], fields[3]  # pearson and lcc swapped
    tampered = lines[:k] + ["\t".join(fields)] + lines[k + 1:]
    assert _check_lines(tmp_path, rows, tampered)


def test_checker_rejects_a_reordered_or_short_output(tmp_path, allpairs_output):
    rows, lines = allpairs_output
    swapped = lines[:1] + [lines[2], lines[1]] + lines[3:]
    assert "records are not in canonical pair order" in _check_lines(tmp_path, rows, swapped)
    assert _check_lines(tmp_path, rows, lines[:-1])


def test_checker_applies_the_filter_both_ways(tmp_path, allpairs_output):
    rows, lines = allpairs_output
    kept = lines[:1] + [ln for ln in lines[1:]
                        if ln.split("\t")[2] != "NA" and float(ln.split("\t")[2]) > 0.8]
    assert _check_lines(tmp_path, rows, kept, "hcc>0.8") == []
    assert _check_lines(tmp_path, rows, lines, "hcc>0.8")      # records failing the filter
    assert _check_lines(tmp_path, rows, kept[:1] + kept[2:], "hcc>0.8")  # one left out


def test_distribution_checker(tmp_path):
    (a_id, a), (b_id, b) = gen.pair_rows(2, n=14)
    gen.write_rows([(a_id, a), (b_id, b)], tmp_path / "pair.tsv")
    stdout = run_cli(["pair", a_id, b_id, "--input", str(tmp_path / "pair.tsv"),
                      "--min-part", "2", "--output", str(tmp_path)])
    (path,) = tmp_path.glob("Output.*.txt")
    lines = path.read_text().splitlines()
    assert check.check_distribution(path, stdout, a, b, 2, seed=1, samples=10_000) == []

    comp, value = lines[5].split("\t")
    path.write_text("\n".join(lines[:5] + [f"{comp}\t{float(value) + 0.01:.6f}"]
                              + lines[6:]) + "\n")
    assert check.check_distribution(path, stdout, a, b, 2, seed=1, samples=10_000)

    path.write_text("\n".join(lines[:-1]) + "\n")
    assert check.check_distribution(path, stdout, a, b, 2, seed=1, samples=10_000)


# -------------------------------------------------------------------- spans

def _span(name, start, end, parent=-1, agg=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "run": "t",
            "agg": agg or {}}


def test_self_time_on_a_hand_built_trace():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),        # overlaps a: union 1..6 counts once
        _span("c", 8.0, 12.0, parent=0),       # sticks out of root: clipped to 8..10
        _span("a.1", 1.5, 2.0, parent=1, agg={"inner": 0.25}),
        _span("leaf", 20.0, 21.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 5 - 2, 3 - 0.5, 3, 4, 0.25, 1])
    by_name = tracing.totals(spans + [_span("leaf", 30.0, 30.5)])
    assert by_name["leaf"] == {"count": 2, "total_s": 1.5, "self_s": 1.5}


def test_tracer_links_parents_and_charges_inner_calls():
    tracer = tracing.Tracer()
    outer = tracer.begin("outer")
    tracer.span("inner", lambda: None)()
    tracer.add_inner("tiny", 0.125)
    tracer.end(outer)
    spans = tracer.dump()["spans"]
    assert [(s["name"], s["parent"]) for s in spans] == [("outer", -1), ("inner", 0)]
    assert spans[0]["agg"] == {"tiny": 0.125}
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(spans[0]["end"] - spans[0]["start"]
                                   - (spans[1]["end"] - spans[1]["start"]) - 0.125)


def test_layer_metrics_on_a_traced_cli_run(tmp_path):
    rows = gen.allpairs_rows(4, 10)
    gen.write_rows(rows, tmp_path / "in.tsv")
    tracer = tracing.Tracer()
    assert tracing.install(tracer) == []
    try:
        run_cli(["all-pairs", "--input", str(tmp_path / "in.tsv"), "--threads", "1",
                 "--output", str(tmp_path / "o.tsv")])
    finally:
        tracing.uninstall(tracer)
    spans = tracer.dump()["spans"]
    assert {sp["run"] for sp in spans if sp["name"] == "engine.scan_span"} == {"chunk 0-45"}
    layers = tracing.layer_metrics(tracer.dump())
    assert layers["engine.pairs"] == layers["engine.records"] == 45
    assert layers["engine.keep_ratio"] == 1.0
    assert layers["engine.chunks"] == 1 and layers["blocks.blocks"] == 1
    assert layers["engine.kernel_s"] > 0 and layers["cli.write_s"] > 0
