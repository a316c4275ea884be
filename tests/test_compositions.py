import math

import pytest

from compcorr.compositions import (
    CompositionSpec,
    composition_at,
    composition_counts,
    count_compositions,
    enumerate_compositions,
    prefix_runs,
    tail_cap,
    validate_composition,
)


def brute_force(n, m):
    """Every composition of n with parts >= m, by cutting at bit positions.

    Independent of the iterative generator: walk all 2^(n-1) cut masks and
    keep the ones whose parts are all long enough.  Only usable for small n.
    """
    out = []
    for mask in range(1 << (n - 1)):
        parts = []
        run = 1
        for pos in range(n - 1):
            if mask >> pos & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        if min(parts) >= m:
            out.append(tuple(parts))
    return out


def recursive_oracle(n, m):
    """Ascending-order reference enumeration, written the obvious way."""
    if n == 0:
        return [()]
    out = []
    for first in range(m, n + 1):
        if n - first == 0:
            out.append((first,))
        elif n - first >= m:
            out.extend((first,) + tail for tail in recursive_oracle(n - first, m))
    return out


# ---------------------------------------------------------------- counts

def test_counts_match_brute_force():
    for n in range(2, 13):
        for m in range(2, 5):
            if n < m:
                continue
            spec = CompositionSpec(n, m)
            assert count_compositions(spec) == len(brute_force(n, m)), (n, m)


def test_published_counts():
    expected_m2 = {2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 8, 8: 13, 9: 21, 10: 34}
    for n, want in expected_m2.items():
        assert count_compositions(CompositionSpec(n, 2)) == want
    assert count_compositions(CompositionSpec(23, 4)) == 250
    assert count_compositions(CompositionSpec(23, 3)) == 1278
    assert count_compositions(CompositionSpec(23, 2)) == 17711
    assert count_compositions(CompositionSpec(50, 2)) == 7_778_742_049


def test_min_part_2_counts_are_fibonacci():
    fib = [0, 1]
    while len(fib) < 40:
        fib.append(fib[-1] + fib[-2])
    for n in range(2, 31):
        assert count_compositions(CompositionSpec(n, 2)) == fib[n - 1]


def test_count_ratio_approaches_golden_ratio():
    golden = (1 + math.sqrt(5)) / 2
    for n in range(20, 31):
        ratio = count_compositions(CompositionSpec(n + 1, 2)) / count_compositions(
            CompositionSpec(n, 2)
        )
        assert abs(ratio - golden) < 1e-3


def test_composition_counts_prefix_table():
    counts = composition_counts(23, 4)
    assert counts[0] == 1
    assert counts[23] == 250
    for x in range(1, 4):
        assert counts[x] == 0


# ----------------------------------------------------------- enumeration

def test_enumeration_matches_brute_force_sets():
    for n in range(2, 13):
        for m in range(2, 5):
            if n < m:
                continue
            got = list(enumerate_compositions(CompositionSpec(n, m)))
            assert len(got) == len(set(got))
            assert set(got) == set(brute_force(n, m)), (n, m)


def test_enumeration_matches_recursive_oracle_order():
    for n in range(2, 13):
        for m in (2, 3, 4):
            if n < m:
                continue
            spec = CompositionSpec(n, m)
            assert list(enumerate_compositions(spec)) == recursive_oracle(n, m)


def test_enumeration_is_ascending_lexicographic():
    spec = CompositionSpec(14, 2)
    comps = list(enumerate_compositions(spec))
    assert comps == sorted(comps)
    assert comps[-1] == (14,)


def test_every_part_meets_minimum_and_sums_to_n():
    spec = CompositionSpec(17, 3)
    for parts in enumerate_compositions(spec):
        assert sum(parts) == 17
        assert min(parts) >= 3


def test_exact_small_enumerations():
    assert list(enumerate_compositions(CompositionSpec(5, 2))) == [(2, 3), (3, 2), (5,)]
    assert list(enumerate_compositions(CompositionSpec(6, 2))) == [
        (2, 2, 2),
        (2, 4),
        (3, 3),
        (4, 2),
        (6,),
    ]


def test_prefix_runs_spell_the_enumeration():
    for n, m in [(9, 2), (14, 2), (15, 3), (17, 4)]:
        counts = composition_counts(n, m)
        for limit in (1, 3, 10, counts[n]):
            cap = tail_cap(n, m, limit)
            assert counts[cap] <= limit and cap >= m
            spelled = []
            for prefix, remainder in prefix_runs(n, m, cap):
                assert remainder <= cap
                # with cap 0, the runs of a remainder are its compositions
                tails = [tail for tail, _ in prefix_runs(remainder, m, 0)]
                assert len(tails) == counts[remainder]
                spelled.extend(prefix + tail for tail in tails)
            assert spelled == list(enumerate_compositions(CompositionSpec(n, m)))


# -------------------------------------------------------------- unranking

def test_composition_at_agrees_with_enumeration():
    for n, m in [(9, 2), (12, 3), (14, 4), (23, 4)]:
        spec = CompositionSpec(n, m)
        comps = list(enumerate_compositions(spec))
        for idx, parts in enumerate(comps):
            assert composition_at(spec, idx) == parts
        assert composition_at(spec, len(comps) - 1) == (n,)


def test_composition_at_rejects_out_of_range():
    spec = CompositionSpec(10, 2)
    total = count_compositions(spec)
    with pytest.raises(IndexError):
        composition_at(spec, total)
    with pytest.raises(IndexError):
        composition_at(spec, -1)


# -------------------------------------------------------------- validation

def test_validate_composition_accepts_lists_and_tuples():
    assert validate_composition(10, 2, [4, 6]) == (4, 6)
    assert validate_composition(10, 2, (10,)) == (10,)


def test_validate_composition_rejects_bad_input():
    with pytest.raises(ValueError):
        validate_composition(10, 2, [4, 5])  # sums to 9
    with pytest.raises(ValueError):
        validate_composition(10, 2, [1, 9])  # part below minimum
    with pytest.raises(ValueError):
        validate_composition(10, 2, [])
    with pytest.raises(ValueError):
        validate_composition(10, 2, [5.5, 4.5])


def test_spec_validation():
    with pytest.raises(ValueError):
        CompositionSpec(3, 4)  # n < m
    with pytest.raises(ValueError):
        CompositionSpec(10, 1)  # parts of length 1 are not segments
    with pytest.raises(ValueError):
        CompositionSpec(10, 0)
    spec = CompositionSpec(4, 2)
    assert count_compositions(spec) == 2  # [2,2] and [4]
