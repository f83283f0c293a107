"""The q-ary uniform permutation channel on n-blocks.

A transmitted vector is hit by a uniformly random permutation of its
coordinates, so the output is uniform on the typeclass (orbit) of the input.
The channel is implemented through that orbit-uniform characterization; the
n! permutations are never enumerated.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .combinatorics import (
    type_index,
    type_of,
    typeclass_size,
    count_types,
    vector_unrank,
)
from .dist import Dist
from .errors import ValidationError
from .rng import Stream


class PermutationChannel:
    """Uniform random permutation of a q-ary block of length n."""

    def __init__(self, n: int, q: int):
        if not (isinstance(n, int) and n >= 1):
            raise ValidationError("n must be a positive integer")
        if not (isinstance(q, int) and q >= 2):
            raise ValidationError("q must be an integer >= 2")
        self.n = n
        self.q = q

    def _check_vector(self, x: Sequence[int]):
        if len(x) != self.n:
            raise ValidationError(f"vector length {len(x)} != block length {self.n}")
        return type_of(x, self.q)

    def transition_prob(self, x: Sequence[int], y: Sequence[int]) -> Fraction:
        """P(output = y | input = x): 1/|orbit of x| on the orbit, else 0."""
        tx = self._check_vector(x)
        ty = self._check_vector(y)
        if tx != ty:
            return Fraction(0)
        return Fraction(1, typeclass_size(tx))

    def sample_output(self, x: Sequence[int], stream: Stream) -> tuple[int, ...]:
        """Draw one channel output: a uniform element of the orbit of x."""
        t = self._check_vector(x)
        rank = stream.rand.randrange(typeclass_size(t))
        return vector_unrank(t, rank)

    def output_type_dist(self, encoder: Dist) -> Dist:
        """Push an encoder (distribution over vectors) to type indices.

        The output type equals the input type with probability one, so the
        mass of type j is the encoder mass on typeclass j.
        """
        N = count_types(self.n, self.q)
        return encoder.pushforward(lambda x: type_index(self._check_vector(x)), N)
