"""Dataset loading, writing, and synthetic pair generation.

A dataset file is delimited text, one series per row: first field is the
series id, the rest are its observations.  A header row is optional and
auto-detected (no numeric observation cell).  The delimiter is sniffed from
tab, comma, or semicolon unless given.  Lines starting with ``#`` are
skipped, except a leading ``# time`` line, which carries numeric time
labels for the observation columns.

Rows with missing or non-numeric cells are excluded with a warning and
show up in the load report; structural problems (ragged rows, duplicate
ids, an id holding a tab, NUL or line break, nothing loadable) are errors.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .segments import TimeSeries

_DELIMITERS = ("\t", ",", ";")


def _is_number(token: str) -> bool:
    """True for a parseable, finite numeric cell; NaN and inf count as missing."""
    try:
        value = float(token)
    except ValueError:
        return False
    return math.isfinite(value)


@dataclass(frozen=True)
class LoadReport:
    """What the loader saw: counts, exclusions, and choices it made."""

    path: str
    rows_read: int
    series_loaded: int
    n: int
    delimiter: str
    header: bool
    excluded: tuple[tuple[int, str, str], ...]  # (line number, id, reason)

    def describe(self) -> str:
        lines = [
            f"loaded {self.series_loaded} series of length {self.n} from {self.path} "
            f"(delimiter {self.delimiter!r}, header {'yes' if self.header else 'no'})"
        ]
        for lineno, sid, reason in self.excluded:
            lines.append(f"  excluded line {lineno} ({sid!r}): {reason}")
        return "\n".join(lines)


@dataclass(eq=False)
class Dataset:
    """Named series, all the same length, ids unique and free of tabs, NULs and line breaks."""

    series: list[TimeSeries]
    time_labels: list[float] | None = None
    load_report: LoadReport | None = None
    name: str = "dataset"

    def __post_init__(self) -> None:
        if not self.series:
            raise ValueError("dataset has no series")
        lengths = {s.n for s in self.series}
        if len(lengths) != 1:
            raise ValueError(f"series lengths differ: {sorted(lengths)}")
        seen: dict[str, int] = {}
        for s in self.series:
            seen[s.id] = seen.get(s.id, 0) + 1
            if any(c in s.id for c in "\t\0\r\n"):
                raise ValueError(f"series id {s.id!r} holds a tab, NUL or line break, "
                                 "which no tab-separated output can carry")
        dups = sorted(sid for sid, k in seen.items() if k > 1)
        if dups:
            raise ValueError(f"duplicate series ids: {dups}")
        if self.time_labels is not None and len(self.time_labels) != self.n:
            raise ValueError(
                f"{len(self.time_labels)} time labels for series of length {self.n}"
            )
        self._index = {s.id: i for i, s in enumerate(self.series)}

    @property
    def n(self) -> int:
        return self.series[0].n

    def __len__(self) -> int:
        return len(self.series)

    def ids(self) -> list[str]:
        return [s.id for s in self.series]

    def get(self, sid: str) -> TimeSeries:
        try:
            return self.series[self._index[sid]]
        except KeyError:
            raise ValueError(f"no series named {sid!r} in the dataset") from None

    @cached_property
    def matrix(self) -> np.ndarray:
        """(series, observations) float64 matrix, dataset order."""
        return np.vstack([s.values for s in self.series])


def load_dataset(path, *, delimiter: str | None = None, header: str = "auto") -> Dataset:
    """Read a dataset file.  ``header`` is 'auto', 'yes', or 'no'."""
    path = Path(path)
    if header not in ("auto", "yes", "no"):
        raise ValueError(f"header must be 'auto', 'yes', or 'no', got {header!r}")
    raw = path.read_text()
    time_labels: list[float] | None = None

    rows: list[tuple[int, str]] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            fields = body.replace(",", " ").replace(";", " ").replace("\t", " ").split()
            if fields and fields[0].lower() == "time" and all(_is_number(f) for f in fields[1:]):
                time_labels = [float(f) for f in fields[1:]]
            continue
        rows.append((lineno, line))

    if not rows:
        raise ValueError(f"{path}: no data rows")

    if delimiter is None:
        first = rows[0][1]
        delimiter = max(_DELIMITERS, key=lambda d: len(first.split(d)))
        if len(rows[0][1].split(delimiter)) < 2:
            raise ValueError(f"{path}: could not find a delimiter on line {rows[0][0]}")

    parsed = [(lineno, [f.strip() for f in line.split(delimiter)]) for lineno, line in rows]
    width = len(parsed[0][1])
    if width < 3:
        raise ValueError(f"{path}: rows need an id and at least 2 observations, got {width} fields")

    # a header has no numeric observation cell: a data row may miss some
    has_header = header == "yes" or (header == "auto" and not any(map(_is_number, parsed[0][1][1:])))
    if has_header:
        parsed = parsed[1:]
        if not parsed:
            raise ValueError(f"{path}: header but no data rows")

    series: list[TimeSeries] = []
    excluded: list[tuple[int, str, str]] = []
    for lineno, fields in parsed:
        if len(fields) != width:
            raise ValueError(
                f"{path}: ragged row at line {lineno}: {len(fields)} fields, expected {width}"
            )
        sid = fields[0]
        bad = [f or "<empty>" for f in fields[1:] if not _is_number(f)]
        if bad:
            reason = f"non-numeric cell(s): {bad[:3]}"
            warnings.warn(f"{path}: excluding series {sid!r} at line {lineno}: {reason}")
            excluded.append((lineno, sid, reason))
            continue
        series.append(TimeSeries(sid, np.array([float(f) for f in fields[1:]])))

    if not series:
        raise ValueError(f"{path}: no usable data rows ({len(excluded)} excluded)")
    if time_labels is not None and len(time_labels) != width - 1:
        raise ValueError(
            f"{path}: {len(time_labels)} time labels for {width - 1} observation columns"
        )

    report = LoadReport(
        path=str(path),
        rows_read=len(rows),
        series_loaded=len(series),
        n=width - 1,
        delimiter=delimiter,
        header=has_header,
        excluded=tuple(excluded),
    )
    return Dataset(series=series, time_labels=time_labels, load_report=report, name=path.stem)


def write_dataset(dataset: Dataset, path, *, delimiter: str = "\t") -> None:
    """Write a dataset so that reloading reproduces the exact values."""
    path = Path(path)
    with open(path, "w") as out:
        if dataset.time_labels is not None:
            out.write("# time" + delimiter + delimiter.join(repr(float(t)) for t in dataset.time_labels) + "\n")
        out.write("id" + delimiter + delimiter.join(f"x{i}" for i in range(dataset.n)) + "\n")
        for s in dataset.series:
            out.write(s.id + delimiter + delimiter.join(repr(float(v)) for v in s.values) + "\n")


# ---------------------------------------------------------------------------
# synthetic pairs

def _square(x):
    return x * x


def _cubic_minus_x(x):
    return x ** 3 - x


def _quartic(x):
    return x ** 4 - 10.0 * x * x + 9.0


def _monotone_cubic(x):
    return x ** 3 + x * x + 2.0 * x + 4.0


FUNCTIONS = {
    "square": _square,
    "cubic_minus_x": _cubic_minus_x,
    "quartic": _quartic,
    "monotone_cubic": _monotone_cubic,
}

# Ranges calibrated so each curve's scan reproduces its published extreme
# correlations (see the replication notes in the README); square is
# range-invariant on any symmetric interval.
DEFAULT_RANGES = {
    "square": (-1.0, 1.0),
    "cubic_minus_x": (-1.4, 1.4),
    "quartic": (-3.5, 3.5),
    "monotone_cubic": (-3.0, 2.0),
}


@dataclass(frozen=True)
class SynthSpec:
    """An evaluation grid for one of the stock curves.

    The grid is x_i = x_min + i (x_max - x_min) / pieces for i = 0..pieces,
    so a spec with p pieces yields series of length p + 1.
    """

    function: str
    x_min: float
    x_max: float
    pieces: int

    def __post_init__(self) -> None:
        if self.function not in FUNCTIONS:
            raise ValueError(
                f"unknown function {self.function!r}; choose from {sorted(FUNCTIONS)}"
            )
        if self.pieces < 2:
            raise ValueError(f"pieces must be at least 2, got {self.pieces}")
        if not (self.x_min < self.x_max):
            raise ValueError(f"empty range [{self.x_min}, {self.x_max}]")

    @classmethod
    def with_default_range(cls, function: str, pieces: int = 30) -> "SynthSpec":
        lo, hi = DEFAULT_RANGES[function]
        return cls(function, lo, hi, pieces)


def generate(spec: SynthSpec) -> tuple[TimeSeries, TimeSeries]:
    """The (x, y) series pair for a synthetic spec."""
    i = np.arange(spec.pieces + 1, dtype=np.float64)
    x = spec.x_min + i * ((spec.x_max - spec.x_min) / spec.pieces)
    y = FUNCTIONS[spec.function](x)
    return TimeSeries("x", x), TimeSeries(spec.function, y)


def synth_dataset(spec: SynthSpec) -> Dataset:
    a, b = generate(spec)
    return Dataset(series=[a, b], name=spec.function)
