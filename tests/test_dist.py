"""The exact distribution container: its checks, messages and conversions."""

from fractions import Fraction

import pytest

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
