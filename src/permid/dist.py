"""Exact finite probability distributions (sparse, Fraction-valued)."""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping

from .errors import ValidationError


def over_common_denominator(masses: Iterable[Fraction | int]) -> tuple[list[int], int]:
    """The rationals `masses` as integer numerators over their least common
    denominator D: masses[k] == numerators[k] / D."""
    masses = list(masses)
    denom = math.lcm(*(p.denominator for p in masses))
    return [p.numerator * (denom // p.denominator) for p in masses], denom


class Dist:
    """A probability distribution with exact rational masses.

    Keys may be any hashable outcome (type indices, vectors, tuples of
    vectors). When `size` is given, the ground set is [1..size] and keys must
    be integers in that range; zero-mass outcomes are never stored.
    """

    __slots__ = ("mass", "size")

    def __init__(self, mass: Mapping[Hashable, Fraction | int], size: int | None = None):
        cleaned: dict = {}
        for key, value in mass.items():
            value = value if isinstance(value, Fraction) else Fraction(value)
            if value < 0:
                raise ValidationError(f"negative mass {value} at {key!r}")
            if value:
                cleaned[key] = value
        nums, denom = over_common_denominator(cleaned.values())
        if sum(nums) != denom:
            total = Fraction(sum(nums), denom)
            raise ValidationError(f"masses must sum to 1 exactly, got {total}")
        if size is not None:
            if not (isinstance(size, int) and size >= 1):
                raise ValidationError("size must be a positive integer")
            for key in cleaned:
                if not (isinstance(key, int) and 1 <= key <= size):
                    raise ValidationError(f"outcome {key!r} outside [1..{size}]")
        object.__setattr__(self, "mass", MappingProxyType(cleaned))
        object.__setattr__(self, "size", size)

    @classmethod
    def uniform(cls, keys: Iterable[Hashable], size: int | None = None) -> "Dist":
        keys = list(keys)
        if len(set(keys)) != len(keys):
            raise ValidationError("uniform support must not repeat outcomes")
        if not keys:
            raise ValidationError("uniform support must be nonempty")
        p = Fraction(1, len(keys))
        return cls({k: p for k in keys}, size=size)

    @classmethod
    def point(cls, key: Hashable, size: int | None = None) -> "Dist":
        return cls({key: Fraction(1)}, size=size)

    def __getitem__(self, key: Hashable) -> Fraction:
        return self.mass.get(key, Fraction(0))

    def support(self):
        return self.mass.keys()

    def items(self):
        return self.mass.items()

    def pushforward(self, f, size: int | None = None) -> "Dist":
        """The distribution of f(x) for x drawn from this one."""
        mass: dict = {}
        for x, p in self.items():
            y = f(x)
            mass[y] = mass.get(y, 0) + p
        return Dist(mass, size=size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dist):
            return NotImplemented
        return dict(self.mass) == dict(other.mass) and self.size == other.size

    def __hash__(self):
        return hash((frozenset(self.mass.items()), self.size))

    def __repr__(self) -> str:
        body = ", ".join(f"{k!r}: {v}" for k, v in sorted(self.mass.items(), key=repr))
        return f"Dist({{{body}}}, size={self.size})"

    def __setattr__(self, name, value):
        raise AttributeError("Dist is immutable")


def tv_distance(p: Dist, r: Dist) -> Fraction:
    """Unnormalized L1 distance sum |p - r|, in [0, 2].

    Both distributions must declare the same ground set.
    """
    if p.size != r.size:
        raise ValidationError(f"ground-set mismatch: {p.size} vs {r.size}")
    keys = set(p.support()) | set(r.support())
    return sum((abs(p[k] - r[k]) for k in keys), Fraction(0))
