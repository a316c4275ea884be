"""Integer compositions with a uniform minimum part length.

A composition of ``n`` is an ordered tuple of positive integers (parts)
summing to ``n``.  Order matters, unlike a partition: ``(2, 3)`` and
``(3, 2)`` are distinct.  Everything in this module works with the
sub-family whose parts are all at least ``m``, enumerated in ascending
lexicographic order of the parts tuple, which is the canonical order used
throughout the package (ties between equal correlation values are broken
by this order, and distribution files are written in it).

The enumerator is iterative and keeps only the current composition as
state, so memory use is independent of how many compositions exist.

>>> list(enumerate_compositions(CompositionSpec(5, 2)))
[(2, 3), (3, 2), (5,)]
>>> count_compositions(CompositionSpec(10, 2))
34
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class CompositionSpec:
    """Scan geometry: series length ``n`` and minimum part length ``m``.

    Parts shorter than 2 carry no correlation information (a single
    observation has no variance), hence ``m >= 2``.
    """

    n: int
    m: int

    def __post_init__(self) -> None:
        if int(self.m) != self.m or int(self.n) != self.n:
            raise ValueError("n and m must be integers")
        if self.m < 2:
            raise ValueError(f"minimum part length must be at least 2, got m={self.m}")
        if self.n < self.m:
            raise ValueError(
                f"series length n={self.n} is shorter than the minimum part length m={self.m}"
            )


def _lex_min_tail(total: int, m: int) -> list[int]:
    """Lexicographically smallest composition of ``total`` with parts >= m.

    Greedy: emit parts of exactly ``m`` while the remainder can still hold
    another valid part, then one closing part.  ``total == 0`` yields the
    empty tail.
    """
    parts: list[int] = []
    while total >= 2 * m:
        parts.append(m)
        total -= m
    if total:
        parts.append(total)
    return parts


def _advance(parts: list[int], m: int) -> bool:
    """Replace ``parts`` with its lexicographic successor, in place.

    Returns False when ``parts`` is the last composition (the single-part
    one).  Scans from the right for the deepest position whose value can
    grow; the next value at position i is either ``p+1`` (when the
    remainder after it still fits a valid tail) or the whole remaining sum
    as one closing part.  The suffix is then refilled lex-minimally.
    """
    suffix = 0
    for i in range(len(parts) - 1, -1, -1):
        p = parts[i]
        avail = p + suffix
        if avail - (p + 1) >= m:
            parts[i] = p + 1
            del parts[i + 1:]
            parts.extend(_lex_min_tail(avail - p - 1, m))
            return True
        if suffix and avail > p:
            parts[i] = avail
            del parts[i + 1:]
            return True
        suffix += p
    return False


def enumerate_compositions(spec: CompositionSpec) -> Iterator[tuple[int, ...]]:
    """Yield every composition of ``spec.n`` with parts >= ``spec.m``.

    Ascending lexicographic order; the single-part composition ``(n,)``
    is always last.  Each call returns an independent iterator.

    >>> [c for c in enumerate_compositions(CompositionSpec(6, 2))]
    [(2, 2, 2), (2, 4), (3, 3), (4, 2), (6,)]
    """
    parts = _lex_min_tail(spec.n, spec.m)
    while True:
        yield tuple(parts)
        if not _advance(parts, spec.m):
            return


def composition_counts(n: int, m: int) -> list[int]:
    """Table ``c[0..n]`` where ``c[x]`` counts compositions of x, parts >= m.

    Exact arbitrary-precision integers.  The recurrence
    ``c[x] = c[x-1] + c[x-m]`` follows from conditioning on the last part;
    for m=2 this is the Fibonacci sequence shifted by one.
    """
    c = [0] * (n + 1)
    c[0] = 1
    for x in range(m, n + 1):
        c[x] = c[x - 1] + c[x - m]
    return c


def count_compositions(spec: CompositionSpec) -> int:
    """Number of compositions of ``spec.n`` with all parts >= ``spec.m``.

    >>> count_compositions(CompositionSpec(23, 4))
    250
    """
    return composition_counts(spec.n, spec.m)[spec.n]


def _first_parts(total: int, m: int) -> list[int]:
    # valid leading parts of a composition of ``total``: the remainder must
    # be zero or hold at least one more part
    ps = list(range(m, total - m + 1))
    ps.append(total)
    return ps


def tail_cap(n: int, m: int, limit: int) -> int:
    """Largest remainder up to n whose composition count is at most ``limit``.

    Never below m, whose single composition fits any positive limit.
    """
    cap = m
    counts = composition_counts(n, m)
    for r in range(m, n + 1):
        if counts[r] > limit:
            break
        cap = r
    return cap


def prefix_runs(n: int, m: int, cap: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Cut the canonical order of compositions of n into runs sharing a prefix.

    Yields ``(prefix, remainder)`` in canonical order, with
    ``remainder <= cap``: the run is ``prefix`` followed by each
    composition of ``remainder`` in turn (just ``prefix`` when the
    remainder is 0).  The compositions of n, sorted, are the concatenation
    over ascending first parts p of [p] prefixed to the sorted compositions
    of n-p, so prefixes are peeled off until the remainder fits the cap.
    """

    def rec(prefix: list[int], remaining: int) -> Iterator[tuple[tuple[int, ...], int]]:
        if remaining <= cap:
            yield tuple(prefix), remaining
            return
        for p in _first_parts(remaining, m):
            prefix.append(p)
            yield from rec(prefix, remaining - p)
            prefix.pop()

    yield from rec([], n)


def composition_at(spec: CompositionSpec, index: int) -> tuple[int, ...]:
    """Composition at 0-based ``index`` in the canonical enumeration order.

    Unranks without enumerating: walks the count table, peeling off one
    leading part at a time.  Inverse of the position an item holds in
    ``enumerate_compositions``.
    """
    counts = composition_counts(spec.n, spec.m)
    total = counts[spec.n]
    if not 0 <= index < total:
        raise IndexError(f"composition index {index} out of range [0, {total})")
    parts: list[int] = []
    remaining = spec.n
    r = index
    while remaining:
        for p in _first_parts(remaining, spec.m):
            block = counts[remaining - p]
            if r < block:
                parts.append(p)
                remaining -= p
                break
            r -= block
    return tuple(parts)


def validate_composition(n: int, m: int, parts) -> tuple[int, ...]:
    """Check that ``parts`` is a composition of n with parts >= m.

    Returns the parts as a tuple; raises ValueError otherwise.
    """
    parts = tuple(int(p) for p in parts)
    if not parts:
        raise ValueError("composition has no parts")
    bad = [p for p in parts if p < m]
    if bad:
        raise ValueError(f"composition {list(parts)} has parts shorter than m={m}: {bad}")
    if sum(parts) != n:
        raise ValueError(
            f"composition {list(parts)} sums to {sum(parts)}, expected the series length {n}"
        )
    return parts
