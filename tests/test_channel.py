"""Uniform permutation channel: exact law and seeded sampling."""

from fractions import Fraction
from itertools import product

import pytest
import scipy.stats

from helpers import PermutationChannel
from permid import Dist, Stream
from permid.combinatorics import (
    count_types,
    type_index,
    type_of,
    type_representative,
    typeclass_size,
    vector_rank,
)
from permid.errors import ValidationError


def test_transition_prob_is_orbit_uniform():
    ch = PermutationChannel(4, 2)
    x = (1, 1, 2, 2)
    size = typeclass_size(type_of(x, 2))
    assert size == 6
    total = Fraction(0)
    for y in product((1, 2), repeat=4):
        p = ch.transition_prob(x, y)
        if type_of(y, 2) == type_of(x, 2):
            assert p == Fraction(1, 6)
        else:
            assert p == 0
        total += p
    assert total == 1


def test_transition_prob_rejects_wrong_length():
    ch = PermutationChannel(3, 2)
    with pytest.raises(ValidationError):
        ch.transition_prob((1, 2), (1, 2, 1))


def test_row_sums_exact_small_grid():
    for n in range(1, 6):
        for q in (2, 3):
            ch = PermutationChannel(n, q)
            cube = list(product(range(1, q + 1), repeat=n))
            for x in cube:
                assert sum((ch.transition_prob(x, y) for y in cube), Fraction(0)) == 1


def test_sample_output_stays_in_orbit_and_is_deterministic():
    ch = PermutationChannel(6, 3)
    x = (1, 2, 3, 3, 2, 1)
    a = [ch.sample_output(x, Stream(99, "chan")) for _ in range(5)]
    b = [ch.sample_output(x, Stream(99, "chan")) for _ in range(5)]
    assert a == b
    for y in a:
        assert type_of(y, 3) == type_of(x, 3)


def test_sample_output_uniform_chi_square():
    """Chi-square goodness of fit on the orbit of (1,1,2,2): 6 outcomes,
    6000 draws. The seed is fixed; the 1e-3 level would flag a real skew."""
    ch = PermutationChannel(4, 2)
    x = (1, 2, 1, 2)
    stream = Stream(2024, "chi")
    counts = [0] * 6
    for _ in range(6000):
        y = ch.sample_output(x, stream)
        counts[vector_rank(y, 2)] += 1
    assert sum(counts) == 6000
    _, pvalue = scipy.stats.chisquare(counts)
    assert pvalue > 1e-3


def test_output_type_dist_pushforward():
    ch = PermutationChannel(3, 2)
    N = count_types(3, 2)
    enc = Dist(
        {
            (1, 1, 2): Fraction(1, 2),
            (1, 2, 1): Fraction(1, 4),
            (2, 2, 2): Fraction(1, 4),
        }
    )
    out = ch.output_type_dist(enc)
    assert out.size == N
    # (1,1,2) and (1,2,1) share the type (2,1) so their masses merge
    assert out[2] == Fraction(3, 4)
    assert out[4] == Fraction(1, 4)
    assert sum(out.mass.values()) == 1


def test_output_type_dist_point_mass_on_representative():
    ch = PermutationChannel(5, 3)
    t = type_of((1, 1, 2, 3, 3), 3)
    x = type_representative(t)
    out = ch.output_type_dist(Dist.point(x))
    assert list(out.support()) == [type_index(t)]
    assert sum(out.mass.values()) == 1
