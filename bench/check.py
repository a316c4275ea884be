"""Output checks for the benchmark's CLI runs.

Every check compares what the CLI wrote with what the inputs imply, using
the naive per-part oracle: ``corr._part_moments`` evaluated over
``enumerate_compositions``, one composition at a time, with no segment
tables or incidence blocks.  Reals in the output carry a fixed number of
decimals, so a value matches when it is within half a unit of the last
printed decimal (plus rounding slack) of the oracle's.

Each check returns a list of problems; an empty list means the output is
correct.
"""
from __future__ import annotations

import math
import random

import numpy as np

from compcorr.compositions import CompositionSpec, enumerate_compositions
from compcorr.corr import _part_moments

RECORD_HEADER = "id_a\tid_b\thcc\tpearson\tlcc\tbcc\twcc"
DIST_HEADER = "composition\tr_c"
PRECISION = 6
TOL = 0.5 * 10.0 ** -PRECISION + 1e-9
# a sampled value this close to a filter threshold is not used to judge it
FILTER_SLACK = 1e-9

_OPS = {
    ">": lambda x, t: x > t,
    "<": lambda x, t: x < t,
    ">=": lambda x, t: x >= t,
    "<=": lambda x, t: x <= t,
}


def oracle_r(a: np.ndarray, b: np.ndarray, parts: tuple[int, ...]) -> float | None:
    va, vb, cov = _part_moments(a, b, parts)
    if va == 0.0 or vb == 0.0:
        return None
    return max(-1.0, min(1.0, cov / math.sqrt(va * vb)))


def oracle_scan(a: np.ndarray, b: np.ndarray, m: int) -> dict:
    """Every composition's value, the extremes and where they are first hit."""
    values = {}
    hcc = lcc = None
    bcc = wcc = None
    for parts in enumerate_compositions(CompositionSpec(len(a), m)):
        r = oracle_r(a, b, parts)
        values[parts] = r
        if r is None:
            continue
        if hcc is None or r > hcc:
            hcc, bcc = r, parts
        if lcc is None or r < lcc:
            lcc, wcc = r, parts
    return {"values": values, "hcc": hcc, "lcc": lcc, "bcc": bcc, "wcc": wcc,
            "pearson": values[(len(a),)]}


def parse_number(text: str) -> float | None:
    return None if text == "NA" else float(text)


def parse_composition(text: str) -> tuple[int, ...] | None:
    if text == "NA":
        return None
    return tuple(int(p) for p in text.strip("[]").split(","))


def _close(got: float | None, want: float | None) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= TOL


def parse_filter(text: str | None) -> list[tuple[str, str, float]]:
    """'hcc>0.7 AND abs(pearson)<0.1' -> [(field, op, value), ...]."""
    if not text:
        return []
    clauses = []
    for raw in text.split(" AND "):
        raw = raw.strip()
        for op in (">=", "<=", ">", "<"):
            if op in raw:
                field, value = raw.split(op)
                clauses.append((field.strip(), op, float(value)))
                break
        else:
            raise ValueError(f"cannot parse filter clause {raw!r}")
    return clauses


def _field(values: dict, field: str) -> float | None:
    if field == "abs(pearson)":
        p = values["pearson"]
        return None if p is None else abs(p)
    return values[field]


def passes(clauses, values: dict, slack: float = 0.0) -> bool | None:
    """Filter verdict on a record's values; None when a value sits within
    ``slack`` of a threshold (too close to judge at that precision)."""
    for field, op, threshold in clauses:
        x = _field(values, field)
        if x is None:
            return False
        if abs(x - threshold) <= slack:
            return None
        if not _OPS[op](x, threshold):
            return False
    return True


def _record_problems(fields: list[str], oracle: dict) -> list[str]:
    hcc, pearson, lcc = (parse_number(f) for f in fields[2:5])
    bcc, wcc = parse_composition(fields[5]), parse_composition(fields[6])
    tag = f"{fields[0]}/{fields[1]}"
    out = []
    for name, got in (("hcc", hcc), ("lcc", lcc), ("pearson", pearson)):
        if not _close(got, oracle[name]):
            out.append(f"{tag}: {name} {got} != oracle {oracle[name]}")
    for name, parts, extreme in (("bcc", bcc, "hcc"), ("wcc", wcc, "lcc")):
        if parts is None or oracle[extreme] is None:
            if parts is not None or oracle[extreme] is not None:
                out.append(f"{tag}: {name} {parts} but oracle {extreme} {oracle[extreme]}")
            continue
        at = oracle["values"].get(parts)
        if at is None or abs(at - oracle[extreme]) > 1e-9:
            out.append(f"{tag}: {name} {parts} gives {at}, not the oracle {extreme} {oracle[extreme]}")
    return out


def check_allpairs(path, rows, m: int, filter_text: str | None, seed: int,
                   samples: int = 12) -> list[str]:
    """Check an all-pairs output file against its input rows.

    Records must come in canonical pair order (i < j, row-major), cover
    every pair when there is no filter, and each satisfy the filter.  A
    seeded sample of records is recomputed by the oracle, and, under a
    filter, a seeded sample of pairs left out is confirmed to fail it.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != RECORD_HEADER:
        return [f"bad header {lines[:1]!r}"]
    ids = [sid for sid, _ in rows]
    index = {sid: k for k, sid in enumerate(ids)}
    S = len(ids)
    clauses = parse_filter(filter_text)
    records = [line.split("\t") for line in lines[1:]]
    problems: list[str] = []

    if any(len(f) != 7 for f in records):
        return ["record with a wrong field count"]
    try:
        keys = [(index[f[0]], index[f[1]]) for f in records]
    except KeyError as exc:
        return [f"record names unknown series {exc}"]
    if not clauses and len(records) != S * (S - 1) // 2:
        problems.append(f"{len(records)} records, expected S(S-1)/2 = {S * (S - 1) // 2}")
    if any(i >= j for i, j in keys) or any(p >= q for p, q in zip(keys, keys[1:])):
        problems.append("records are not in canonical pair order")
    for f in records:
        verdict = passes(clauses, {"hcc": parse_number(f[2]), "pearson": parse_number(f[3]),
                                   "lcc": parse_number(f[4])}, slack=TOL)
        if verdict is False:
            problems.append(f"{f[0]}/{f[1]}: record fails the filter {filter_text!r}")
            break
    if problems:
        return problems

    rng = random.Random(seed)
    values = [v for _, v in rows]
    for k in rng.sample(range(len(records)), min(samples, len(records))):
        i, j = keys[k]
        oracle = oracle_scan(values[i], values[j], m)
        problems += _record_problems(records[k], oracle)
        if clauses and passes(clauses, oracle, slack=FILTER_SLACK) is False:
            problems.append(f"{ids[i]}/{ids[j]}: emitted, but the oracle fails the filter")
    if clauses:
        emitted = set(keys)
        left_out = 0
        while left_out < samples and len(emitted) < S * (S - 1) // 2:
            i, j = sorted(rng.sample(range(S), 2))
            if (i, j) in emitted:
                continue
            left_out += 1
            if passes(clauses, oracle_scan(values[i], values[j], m), slack=FILTER_SLACK):
                problems.append(f"{ids[i]}/{ids[j]}: passes the filter but was not emitted")
    return problems


def _summary_line(stdout: str, label: str) -> list[str]:
    for line in stdout.splitlines():
        fields = line.split()
        if fields and fields[0] == label:
            return fields
    return []


def check_distribution(path, stdout: str, a: np.ndarray, b: np.ndarray, m: int, seed: int,
                       samples: int = 200) -> list[str]:
    """Check a ``pair`` distribution file and the summary printed with it.

    The file holds one line per composition in canonical order; a seeded
    sample of lines is recomputed by the oracle.  The summary's HCC and
    LCC must be the file's extremes, its BCC and WCC lines carrying them,
    and its r the single-part composition's value.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    spec = CompositionSpec(len(a), m)
    if not lines or lines[0] != DIST_HEADER:
        return [f"bad header {lines[:1]!r}"]
    body = lines[1:]
    rng = random.Random(seed)
    picks = set(rng.sample(range(len(body)), min(samples, len(body))))
    problems = []
    count = 0
    for k, parts in enumerate(enumerate_compositions(spec)):
        count += 1
        if k in picks and k < len(body):
            comp, value = body[k].split("\t")
            if parse_composition(comp) != parts:
                problems.append(f"line {k + 2}: composition {comp}, expected {list(parts)}")
            elif not _close(parse_number(value), oracle_r(a, b, parts)):
                problems.append(f"line {k + 2}: r_c {value} != oracle {oracle_r(a, b, parts)}")
    if len(body) != count:
        problems.append(f"{len(body)} distribution lines, expected {count}")
        return problems

    hcc_line, lcc_line, r_line = (_summary_line(stdout, k) for k in ("HCC", "LCC", "r"))
    if len(hcc_line) < 4 or len(lcc_line) < 4 or len(r_line) < 2:
        return problems + ["summary lacks HCC, LCC or r"]
    single = f"[{len(a)}]"
    wanted = {hcc_line[3], lcc_line[3], single}
    found: dict[str, str] = {}
    hi = lo = None
    for line in body:
        comp, value = line.split("\t")
        if comp in wanted:
            found[comp] = value
        if value != "NA":
            x = float(value)
            if hi is None or x > hi:
                hi = x
            if lo is None or x < lo:
                lo = x
    for label, extreme, fields in (("HCC", hi, hcc_line), ("LCC", lo, lcc_line)):
        if parse_number(fields[1]) != extreme:
            problems.append(f"summary {label} {fields[1]} is not the file's extreme {extreme}")
        if found.get(fields[3]) != fields[1]:
            problems.append(f"summary {label} composition {fields[3]} has r_c "
                            f"{found.get(fields[3])} in the file, not {fields[1]}")
    if found.get(single) != r_line[1]:
        problems.append(f"summary r {r_line[1]} is not the single-part line's value")
    return problems
