"""The exact distribution container: its checks, messages and conversions."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permid import Dist
from permid.errors import ValidationError


def test_negative_mass_is_refused_by_name():
    with pytest.raises(ValidationError, match=r"negative mass -1/2 at 2"):
        Dist({1: Fraction(3, 2), 2: Fraction(-1, 2)})


@pytest.mark.parametrize(
    "mass, total",
    [({1: Fraction(1, 2), 2: Fraction(1, 4)}, "3/4"), ({1: Fraction(0)}, "0"), ({}, "0"),
     ({1: 1, 2: Fraction(1, 3)}, "4/3")],
)
def test_masses_must_sum_to_one_exactly(mass, total):
    with pytest.raises(ValidationError, match=rf"^masses must sum to 1 exactly, got {total}$"):
        Dist(mass)


def test_zero_masses_are_dropped():
    d = Dist({1: Fraction(1, 2), 2: 0, 3: Fraction(1, 2), 4: "0/7"}, size=4)
    assert dict(d.mass) == {1: Fraction(1, 2), 3: Fraction(1, 2)}
    assert d[2] == 0 and list(d.support()) == [1, 3]


def test_int_str_and_float_masses_are_converted_exactly():
    d = Dist({"a": "1/3", "b": 0.5, "c": Fraction(1, 6)})
    assert dict(d.mass) == {"a": Fraction(1, 3), "b": Fraction(1, 2), "c": Fraction(1, 6)}
    assert all(type(p) is Fraction for p in d.mass.values())
    point = Dist({7: 1})
    assert point.mass[7] == 1 and type(point.mass[7]) is Fraction
    # 0.1 is not 1/10 in binary, so tenths given as floats do not total 1
    with pytest.raises(ValidationError, match="masses must sum to 1 exactly"):
        Dist({k: 0.1 for k in range(10)})
    assert Dist({1: 0.25, 2: 0.75}) == Dist({1: Fraction(1, 4), 2: Fraction(3, 4)})


@pytest.mark.parametrize("size", [0, -3, 1.0, "2"])
def test_size_must_be_a_positive_integer(size):
    with pytest.raises(ValidationError, match="size must be a positive integer"):
        Dist({1: 1}, size=size)


@pytest.mark.parametrize("key", [0, 3, "1", 1.0, (1,)])
def test_keys_must_lie_in_the_ground_set(key):
    with pytest.raises(ValidationError, match=r"outcome .* outside \[1\.\.2\]"):
        Dist({key: Fraction(1)}, size=2)


def test_keys_are_free_without_a_size():
    d = Dist({(1, 2): Fraction(1, 2), "x": Fraction(1, 2)})
    assert d.size is None and d[(1, 2)] == Fraction(1, 2)


@settings(max_examples=200, deadline=None)
@given(
    weights=st.dictionaries(st.integers(1, 8), st.integers(0, 60), min_size=1).filter(
        lambda w: any(w.values())
    ),
    scale=st.integers(1, 12),
    sized=st.booleans(),
)
def test_fraction_and_integer_constructors_agree(weights, scale, sized):
    size = 8 if sized else None
    total = sum(weights.values())
    by_mass = Dist({k: Fraction(w, total) for k, w in weights.items()}, size=size)
    by_counts = Dist.from_counts({k: w * scale for k, w in weights.items()}, size=size)
    assert by_mass == by_counts and hash(by_mass) == hash(by_counts)
    # zero weights are dropped, and den is the least common denominator
    assert dict(by_counts.num) == {k: w // math.gcd(total, *weights.values())
                                   for k, w in weights.items() if w}
    assert by_counts.den == math.lcm(*(Fraction(w, total).denominator for w in weights.values()))
    assert math.gcd(by_counts.den, *by_counts.num.values()) == 1
    assert by_counts.mass == {k: Fraction(w, total) for k, w in weights.items() if w}
    assert by_counts.size == size


def test_integer_masses_are_read_only():
    d = Dist.from_counts({1: 2, 2: 6}, size=2)
    assert (dict(d.num), d.den) == ({1: 1, 2: 3}, 4)
    with pytest.raises(TypeError):
        d.num[1] = 2
    with pytest.raises(AttributeError):
        d.den = 8


@pytest.mark.parametrize("weight", [Fraction(1, 2), 1.0, "1", True, None])
def test_integer_constructor_refuses_non_integer_weights(weight):
    with pytest.raises(ValidationError, match=r"^weight .* at 2 is not an integer$"):
        Dist.from_counts({1: 1, 2: weight})


def test_integer_constructor_refuses_negative_weights_and_a_zero_total():
    with pytest.raises(ValidationError, match=r"^negative weight -1 at 2$"):
        Dist.from_counts({1: 3, 2: -1})
    for weights in ({}, {1: 0, 2: 0}):
        with pytest.raises(ValidationError, match=r"^weights must have a positive total$"):
            Dist.from_counts(weights)
    with pytest.raises(ValidationError, match=r"outcome 3 outside \[1\.\.2\]"):
        Dist.from_counts({3: 1}, size=2)
