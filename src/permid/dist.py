"""Exact finite probability distributions (sparse integer masses over one
least common denominator)."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from operator import mul
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping

from .errors import ValidationError


class Dist:
    """A probability distribution with exact rational masses.

    Keys may be any hashable outcome (type indices, vectors, tuples of
    vectors). When `size` is given, the ground set is [1..size] and keys must
    be integers in that range; zero-mass outcomes are never stored. Outcome k
    has mass num[k] / den: `num` is a read-only mapping to positive integers
    and `den` their least common denominator. `mass`, `d[k]` and `items()`
    box the masses as Fractions on each call.
    """

    __slots__ = ("num", "den", "size")

    def __init__(self, mass: Mapping[Hashable, Fraction | int], size: int | None = None):
        ratios = [(v if isinstance(v, Fraction) else Fraction(v)).as_integer_ratio()
                  for v in mass.values()]
        self._fill(*_over_lcm(list(mass), ratios), size)

    @classmethod
    def from_ratios(cls, keys: list, ratios: list, size: int | None = None) -> "Dist":
        """The distribution with mass a/b at keys[k] for the k-th pair (a, b)
        of `ratios`, each in lowest terms with b > 0 (as `as_integer_ratio`
        gives them), checked as the constructor checks its masses. The keys
        must be distinct; each is hashed once."""
        self = object.__new__(cls)
        self._fill(*_over_lcm(keys, ratios), size)
        return self

    @classmethod
    def from_counts(cls, weights: Mapping[Hashable, int], size: int | None = None) -> "Dist":
        """The distribution proportional to nonnegative integer `weights`,
        each mass in lowest terms."""
        for key, w in weights.items():
            if type(w) is not int:
                raise ValidationError(f"weight {w!r} at {key!r} is not an integer")
            if w < 0:
                raise ValidationError(f"negative weight {w} at {key!r}")
        if not (total := sum(weights.values())):
            raise ValidationError("weights must have a positive total")
        g = math.gcd(total, *weights.values())
        self = object.__new__(cls)
        self._fill({k: w // g for k, w in weights.items() if w}, total // g, size)
        return self

    def _fill(self, num: dict, den: int, size: int | None) -> None:
        if size is not None:
            if not (type(size) is int and size >= 1):
                raise ValidationError("size must be a positive integer")
            for key in num:
                if not (type(key) is int and 1 <= key <= size):
                    raise ValidationError(f"outcome {key!r} outside [1..{size}]")
        for name, value in zip(self.__slots__, (MappingProxyType(num), den, size)):
            object.__setattr__(self, name, value)

    @classmethod
    def uniform(cls, keys: Iterable[Hashable], size: int | None = None) -> "Dist":
        """Mass 1/len(keys) at each key, in the order given; each key is
        hashed once."""
        keys = list(keys)
        num = dict.fromkeys(keys, 1)
        if len(num) != len(keys):
            raise ValidationError("uniform support must not repeat outcomes")
        if not num:
            raise ValidationError("uniform support must be nonempty")
        self = object.__new__(cls)
        self._fill(num, len(num), size)
        return self

    @classmethod
    def point(cls, key: Hashable, size: int | None = None) -> "Dist":
        return cls.from_counts({key: 1}, size=size)

    @property
    def mass(self) -> dict:
        return dict(self.items())

    def __getitem__(self, key: Hashable) -> Fraction:
        return Fraction(self.num.get(key, 0), self.den)

    def support(self):
        return self.num.keys()

    def items(self):
        return [(k, Fraction(v, self.den)) for k, v in self.num.items()]

    def pushforward(self, f, size: int | None = None) -> "Dist":
        """The distribution of f(x) for x drawn from this one."""
        weights: dict = {}
        for x, v in self.num.items():
            y = f(x)
            weights[y] = weights.get(y, 0) + v
        return Dist.from_counts(weights, size=size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dist):
            return NotImplemented
        return (self.den, self.size, self.num) == (other.den, other.size, other.num)

    def __hash__(self):
        return hash((frozenset(self.num.items()), self.den, self.size))

    def __repr__(self) -> str:
        body = ", ".join(f"{k!r}: {v}" for k, v in sorted(self.items(), key=repr))
        return f"Dist({{{body}}}, size={self.size})"

    def __setattr__(self, name, value):
        raise AttributeError("Dist is immutable")


def _over_lcm(keys: list, ratios: list) -> tuple[dict, int]:
    """The masses a/b of `ratios` as numerators over their least common
    denominator, keyed by `keys` with the zero masses left out, and that
    denominator; a negative mass, or masses that do not sum to 1, are refused."""
    nums, dens = zip(*ratios) if ratios else ((), ())
    if min(nums, default=0) < 0:
        k = next(k for k, a in enumerate(nums) if a < 0)
        raise ValidationError(f"negative mass {Fraction(*ratios[k])} at {keys[k]!r}")
    den = math.lcm(*dens)
    nums = list(map(mul, nums, map(den.__floordiv__, dens)))
    if sum(nums) != den:
        raise ValidationError(f"masses must sum to 1 exactly, got {Fraction(sum(nums), den)}")
    return dict(compress(zip(keys, nums), nums)), den


def tv_distance(p: Dist, r: Dist) -> Fraction:
    """Unnormalized L1 distance sum |p - r|, in [0, 2].

    Both distributions must declare the same ground set.
    """
    if p.size != r.size:
        raise ValidationError(f"ground-set mismatch: {p.size} vs {r.size}")
    keys = p.num.keys() | r.num.keys()
    gap = sum(abs(p.num.get(k, 0) * r.den - r.num.get(k, 0) * p.den) for k in keys)
    return Fraction(gap, p.den * r.den)
