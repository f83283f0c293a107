"""Seeded input generators for the benchmark workloads.

Every generator takes a plain `random.Random`, so one workload seed fixes
every input file. The perm codes are built so that each hypothesis of the
five-step pipeline holds by construction, which makes any HypothesisError
raised while transforming them a failed operation, never an expected one:

- each decoder accepts every vector of the orbits in its own encoder's
  support, so every miss is 0 and no message is dead after thresholding;
- supports are distinct sets of one size, so no support contains another
  and every cross acceptance stays below 1;
- foreign orbits get partial counts only (strictly between 0 and the orbit
  size), so lifted decoders are genuinely stochastic.
"""

from __future__ import annotations

from fractions import Fraction

from permid import Dist, NoiselessIdCode, PermIdCode
from permid.combinatorics import (
    count_types,
    index_to_tuple,
    type_unrank,
    typeclass_size,
    vector_unrank,
)
from permid.idcode import full_orbit_counts


def _random_vector_in(rand, t: int, n: int, q: int, N: int, l: int) -> tuple[int, ...]:
    flat: tuple[int, ...] = ()
    for j in index_to_tuple(t, N, l):
        tv = type_unrank(j, n, q)
        flat += vector_unrank(tv, rand.randrange(typeclass_size(tv)))
    return flat


def _distinct_subsets(rand, ground: int, size: int, count: int) -> list[list[int]]:
    seen: set[frozenset[int]] = set()
    out = []
    while len(out) < count:
        s = frozenset(rand.sample(range(1, ground + 1), size))
        if s not in seen:
            seen.add(s)
            out.append(sorted(s))
    return out


def stochastic_perm_code(
    rand,
    n: int,
    q: int,
    l: int,
    M: int,
    support: int,
    vectors_per_orbit: int,
    foreign: int,
) -> PermIdCode:
    """Perm code with non-uniform encoders and stochastic decoders.

    Encoder i puts integer weights 1..9 on `vectors_per_orbit` random
    vectors of each of its `support` orbits; decoder i accepts those orbits
    fully plus `foreign` other orbits partially.
    """
    N = count_types(n, q)
    ground = N**l
    encoders = []
    decoders = []
    for orbits in _distinct_subsets(rand, ground, support, M):
        vectors = set()
        for t in orbits:
            for _ in range(vectors_per_orbit):
                vectors.add(_random_vector_in(rand, t, n, q, N, l))
        vectors = sorted(vectors)
        weights = [rand.randint(1, 9) for _ in vectors]
        total = sum(weights)
        encoders.append(Dist({x: Fraction(w, total) for x, w in zip(vectors, weights)}))
        counts = full_orbit_counts(orbits, n, q, l)
        others = [t for t in range(1, ground + 1) if t not in counts]
        for t, size in full_orbit_counts(rand.sample(others, foreign), n, q, l).items():
            if size > 1:
                counts[t] = rand.randrange(1, size)
        decoders.append(counts)
    return PermIdCode(n, q, encoders, decoders, l=l)


def noiseless_code(rand, N: int, M: int, max_den: int = 24) -> NoiselessIdCode:
    """Noiseless code on [1..N] with full-support random encoders, and
    decoders alternating between deterministic and stochastic, so the mix
    (and the evaluation cost) does not depend on the seed."""
    encoders = []
    decoders = []
    for i in range(M):
        weights = [rand.randint(1, max_den) for _ in range(N)]
        total = sum(weights)
        encoders.append(
            Dist({k: Fraction(w, total) for k, w in enumerate(weights, start=1)}, size=N)
        )
        if i % 2 == 0:
            decoders.append(frozenset(rand.sample(range(1, N + 1), rand.randint(1, N))))
        else:
            table = {k: Fraction(rand.randint(1, 8), 8) for k in range(1, N + 1)}
            decoders.append(table)
    return NoiselessIdCode(N, encoders, decoders)
