"""Type enumeration, ranking, and orbit bookkeeping.

Most checks here brute-force the small cases with itertools and compare
against the closed forms, so the module is its own oracle.
"""

import math
import random
from itertools import product

import pytest

from helpers import all_ok
from permid.combinatorics import (
    TypeVector,
    check_N_bounds,
    count_types,
    index_to_tuple,
    iter_types,
    tuple_to_index,
    type_index,
    type_of,
    type_representative,
    type_unrank,
    typeclass_size,
    vector_rank,
    vector_unrank,
)
from permid.errors import ValidationError


def test_count_types_closed_form():
    assert count_types(6, 3) == 28
    assert count_types(12, 2) == 13
    assert count_types(40, 2) == 41
    assert count_types(3, 2) == 4
    for n in range(1, 12):
        for q in range(2, 6):
            assert count_types(n, q) == math.comb(n + q - 1, q - 1)


def test_type_of_counts_symbols():
    assert type_of((1, 2, 2, 3), 3).counts == (1, 2, 1)
    assert type_of((2, 2), 2).counts == (0, 2)
    with pytest.raises(ValidationError):
        type_of((0, 1), 2)
    with pytest.raises(ValidationError):
        type_of((), 2)


def test_iter_types_canonical_order():
    got = [t.counts for t in iter_types(3, 2)]
    assert got == [(3, 0), (2, 1), (1, 2), (0, 3)]
    # lexicographically decreasing for every small (n, q)
    for n in range(1, 8):
        for q in (2, 3, 4):
            rows = [t.counts for t in iter_types(n, q)]
            assert rows == sorted(rows, reverse=True)
            assert len(rows) == count_types(n, q)
            assert all(sum(r) == n for r in rows)


def test_type_index_unrank_round_trip():
    for n in range(1, 9):
        for q in (2, 3, 4):
            for idx, t in enumerate(iter_types(n, q), start=1):
                assert type_index(t) == idx
                assert type_unrank(idx, n, q) == t
            with pytest.raises(ValidationError):
                type_unrank(count_types(n, q) + 1, n, q)
            with pytest.raises(ValidationError):
                type_unrank(0, n, q)


def test_typeclass_sizes_partition_the_cube():
    for n in range(1, 8):
        for q in (2, 3):
            assert sum(typeclass_size(t) for t in iter_types(n, q)) == q**n


def test_typeclass_size_multinomial():
    assert typeclass_size(TypeVector((3, 3))) == 20
    assert typeclass_size(TypeVector((6, 6))) == 924
    assert typeclass_size(TypeVector((1, 1, 1))) == 6
    assert typeclass_size(TypeVector((4, 0))) == 1


def test_vector_rank_is_lex_position_within_class():
    for n, q in ((4, 2), (3, 3), (5, 2)):
        by_type = {}
        for x in product(range(1, q + 1), repeat=n):
            by_type.setdefault(type_of(x, q).counts, []).append(x)
        for counts, members in by_type.items():
            members.sort()
            t = TypeVector(counts)
            assert typeclass_size(t) == len(members)
            for r, x in enumerate(members):
                assert vector_rank(x, q) == r
                assert vector_unrank(t, r) == x
            assert type_representative(t) == members[0]


def test_type_representative_is_rank_zero():
    for n in range(1, 9):
        for q in range(2, 5):
            for t in iter_types(n, q):
                assert type_representative(t) == vector_unrank(t, 0)


def test_vector_unrank_rejects_bad_rank():
    t = TypeVector((2, 1))
    with pytest.raises(ValidationError):
        vector_unrank(t, 3)
    with pytest.raises(ValidationError):
        vector_unrank(t, -1)


def test_tuple_index_bijection():
    N = 13
    for l in (1, 2, 3):
        seen = set()
        rand = random.Random(l)
        for _ in range(200):
            js = tuple(rand.randint(1, N) for _ in range(l))
            idx = tuple_to_index(js, N)
            assert 1 <= idx <= N**l
            assert index_to_tuple(idx, N, l) == js
            seen.add(idx)
        # row-major: first block most significant
        assert tuple_to_index((1,) * l, N) == 1
        assert tuple_to_index((N,) * l, N) == N**l
    assert tuple_to_index((2, 1), 13) == 14
    assert index_to_tuple(14, 13, 2) == (2, 1)


def test_N_bounds_hold_at_desk_scale():
    for n in (6, 12, 40, 60, 80):
        for q in (2, 3, 4):
            b = check_N_bounds(n, q)
            assert b.N == count_types(n, q)
            assert all_ok(b)
    # below n = q-1 the coarse bound is not applicable
    assert check_N_bounds(1, 3).coarse_ok is None
