"""Types (symbol histograms) of q-ary length-n blocks: enumeration in a
canonical order, counting, size bounds, in-class vector ranking, and the
mixed-radix bijection used by multishot codes.

Everything here is exact big-integer arithmetic; counts never wrap. The
canonical order on types is lexicographically decreasing (for n=3, q=2:
(3,0), (2,1), (1,2), (0,3)), and type indices are 1-based against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import BudgetError, ValidationError

#: Refuse to materialize more than this many types in one list.
ENUMERATION_LIMIT = 2_000_000


@dataclass(frozen=True)
class TypeVector:
    """Histogram of symbol counts: entry s-1 counts occurrences of symbol s."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) < 1:
            raise ValidationError("a type needs at least one count")
        if any(not isinstance(c, int) or c < 0 for c in self.counts):
            raise ValidationError("type counts must be nonnegative integers")

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def q(self) -> int:
        return len(self.counts)


def _validate_nq(n: int, q: int) -> None:
    if not (isinstance(n, int) and n >= 1):
        raise ValidationError(f"block length n must be a positive integer, got {n!r}")
    if not (isinstance(q, int) and q >= 2):
        raise ValidationError(f"alphabet size q must be an integer >= 2, got {q!r}")


def count_types(n: int, q: int) -> int:
    """Number of q-ary types of length n: C(n+q-1, q-1)."""
    _validate_nq(n, q)
    return math.comb(n + q - 1, q - 1)


def iter_types(n: int, q: int) -> Iterator[TypeVector]:
    """Yield all types in canonical (lexicographically decreasing) order."""
    _validate_nq(n, q)

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    for counts in compositions(n, q):
        yield TypeVector(counts)


def enumerate_types(n: int, q: int, limit: int = ENUMERATION_LIMIT) -> list[TypeVector]:
    """All C(n+q-1, q-1) types as a list, canonical order."""
    total = count_types(n, q)
    if total > limit:
        raise BudgetError(
            f"refusing to materialize {total} types (limit {limit}); "
            "use iter_types or raise the limit"
        )
    return list(iter_types(n, q))


def type_index(t: TypeVector) -> int:
    """1-based rank of a type in the canonical order."""
    n = t.n
    q = t.q
    if n < 1 or q < 2:
        raise ValidationError("type_index needs n >= 1 and q >= 2")
    rank = 0
    remaining = n
    for pos in range(q - 1):
        parts_after = q - pos - 1
        for c in range(remaining, t.counts[pos], -1):
            rank += math.comb(remaining - c + parts_after - 1, parts_after - 1)
        remaining -= t.counts[pos]
    return rank + 1


def type_unrank(index: int, n: int, q: int) -> TypeVector:
    """Inverse of type_index."""
    total = count_types(n, q)
    if not (isinstance(index, int) and 1 <= index <= total):
        raise ValidationError(f"type index {index!r} out of range [1..{total}]")
    rank = index - 1
    counts = []
    remaining = n
    for pos in range(q - 1):
        parts_after = q - pos - 1
        c = remaining
        while True:
            block = math.comb(remaining - c + parts_after - 1, parts_after - 1)
            if rank < block:
                break
            rank -= block
            c -= 1
        counts.append(c)
        remaining -= c
    counts.append(remaining)
    return TypeVector(tuple(counts))


@dataclass(frozen=True)
class NBounds:
    """Truth values for the sandwich bounds on N = count_types(n, q).

    `coarse_ok` is None when n < q-1 (that bound only applies from n >= q-1).
    """

    N: int
    lower_ok: bool
    upper_ok: bool
    coarse_ok: bool | None

    def all_ok(self) -> bool:
        return self.lower_ok and self.upper_ok and self.coarse_ok in (True, None)


def check_N_bounds(n: int, q: int) -> NBounds:
    """Check n^(q-1)/(q-1)! <= N <= same*(1+(q-1)/n)^(q-1), and N <= (2n)^(q-1)."""
    N = count_types(n, q)
    base = Fraction(n ** (q - 1), math.factorial(q - 1))
    lower_ok = base <= N
    upper_ok = N <= base * (1 + Fraction(q - 1, n)) ** (q - 1)
    coarse_ok = (N <= (2 * n) ** (q - 1)) if n >= q - 1 else None
    return NBounds(N=N, lower_ok=lower_ok, upper_ok=upper_ok, coarse_ok=coarse_ok)


def typeclass_size(t: TypeVector) -> int:
    """Number of vectors with histogram t: the multinomial n!/(prod counts!)."""
    size = math.factorial(t.n)
    for c in t.counts:
        size //= math.factorial(c)
    return size


def type_of(x: Sequence[int], q: int) -> TypeVector:
    """Histogram of a q-ary vector; symbols are 1..q."""
    if q < 2:
        raise ValidationError("alphabet size q must be >= 2")
    if len(x) < 1:
        raise ValidationError("vector must be nonempty")
    counts = [0] * q
    for s in x:
        if not (isinstance(s, int) and 1 <= s <= q):
            raise ValidationError(f"symbol {s!r} outside alphabet [1..{q}]")
        counts[s - 1] += 1
    return TypeVector(tuple(counts))


def vector_rank(x: Sequence[int], q: int) -> int:
    """0-based rank of x among the vectors of its type, in lexicographic order."""
    t = type_of(x, q)
    counts = list(t.counts)
    remaining = t.n
    current = typeclass_size(t)
    rank = 0
    for s in x:
        for smaller in range(1, s):
            if counts[smaller - 1] > 0:
                rank += current * counts[smaller - 1] // remaining
        nxt = current * counts[s - 1] // remaining
        counts[s - 1] -= 1
        remaining -= 1
        current = nxt
    return rank


def vector_unrank(t: TypeVector, rank: int) -> tuple[int, ...]:
    """Inverse of vector_rank: the rank-th vector of typeclass t."""
    size = typeclass_size(t)
    if not (isinstance(rank, int) and 0 <= rank < size):
        raise ValidationError(f"rank {rank!r} out of range [0..{size - 1}]")
    n, q = t.n, t.q
    counts = list(t.counts)
    remaining = n
    current = size
    out = []
    for _ in range(n):
        for s in range(1, q + 1):
            if counts[s - 1] == 0:
                continue
            here = current * counts[s - 1] // remaining
            if rank < here:
                out.append(s)
                counts[s - 1] -= 1
                remaining -= 1
                current = here
                break
            rank -= here
    return tuple(out)


def type_representative(t: TypeVector) -> tuple[int, ...]:
    """Canonical representative of a typeclass: its lexicographically
    smallest vector: each symbol s repeated counts[s-1] times, in order."""
    out: list[int] = []
    for s, c in enumerate(t.counts, start=1):
        out += [s] * c
    return tuple(out)


def tuple_to_index(js: Sequence[int], N: int) -> int:
    """Mixed-radix bijection [N]^l -> [N^l]; both sides 1-based."""
    if N < 1:
        raise ValidationError("N must be >= 1")
    if len(js) < 1:
        raise ValidationError("tuple must be nonempty")
    value = 0
    for j in js:
        if not (isinstance(j, int) and 1 <= j <= N):
            raise ValidationError(f"tuple entry {j!r} outside [1..{N}]")
        value = value * N + (j - 1)
    return value + 1


def index_to_tuple(index: int, N: int, l: int) -> tuple[int, ...]:
    """Inverse of tuple_to_index."""
    if N < 1 or l < 1:
        raise ValidationError("need N >= 1 and l >= 1")
    total = N**l
    if not (isinstance(index, int) and 1 <= index <= total):
        raise ValidationError(f"index {index!r} out of range [1..{total}]")
    value = index - 1
    out = []
    for _ in range(l):
        value, digit = divmod(value, N)
        out.append(digit + 1)
    return tuple(reversed(out))
