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
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import ValidationError

#: Refuse to list more than this many types, or bounds rows, in one report.
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


def type_index(t: TypeVector) -> int:
    """1-based rank of a type in the canonical order."""
    n = t.n
    q = t.q
    if n < 1 or q < 2:
        raise ValidationError("type_index needs n >= 1 and q >= 2")
    rank = 0
    remaining = n
    for k, c in zip(range(q - 1, 0, -1), t.counts):
        # of the types that agree with t so far, those with a larger count
        # here come first: C(remaining - c - 1 + k, k), by the hockey stick
        rank += math.comb(remaining - c - 1 + k, k)
        remaining -= c
    return rank + 1


def type_unrank(index: int, n: int, q: int) -> TypeVector:
    """Inverse of type_index."""
    total = count_types(n, q)
    if not (isinstance(index, int) and 1 <= index <= total):
        raise ValidationError(f"type index {index!r} out of range [1..{total}]")
    rank = index - 1
    counts = []
    remaining = n
    for k in range(q - 1, 0, -1):
        # the count here is the largest c for which C(remaining - c + k, k),
        # the number of completions with at least c here, exceeds the rank
        lo, hi = 0, remaining
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if math.comb(remaining - mid + k, k) > rank:
                lo = mid
            else:
                hi = mid - 1
        rank -= math.comb(remaining - lo - 1 + k, k)
        counts.append(lo)
        remaining -= lo
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


@lru_cache(maxsize=1 << 16)
def typeclass_size(t: TypeVector) -> int:
    """Number of vectors with histogram t: the multinomial n!/(prod counts!).

    Memoised per type: an orbit product's size multiplies l of these, so a
    code with several uses asks for each block type many times, and a build
    and the code it makes size the same orbits."""
    size = math.factorial(t.n)
    for c in t.counts:
        size //= math.factorial(c)
    return size


def _ints(xs: Sequence) -> bool:
    """True when every entry of xs is an int (bools included): isinstance
    mapped over xs in C."""
    return all(map(int.__instancecheck__, xs))


def _refuse_first(xs: Sequence, top: int, message: str) -> None:
    """Raise the ValidationError `message` names for the first entry of xs
    that is not an int in 1..top."""
    for s in xs:
        if not (isinstance(s, int) and 1 <= s <= top):
            raise ValidationError(message.format(s=s, top=top))
    raise ValidationError(f"entries of {xs!r} are not plain ints in [1..{top}]")


def type_of(x: Sequence[int], q: int) -> TypeVector:
    """Histogram of a q-ary vector; symbols are 1..q."""
    if q < 2:
        raise ValidationError("alphabet size q must be >= 2")
    if len(x) < 1:
        raise ValidationError("vector must be nonempty")
    if not isinstance(x, (tuple, list)):
        x = tuple(x)
    # count() matches by equality (1.0 == 1), so only ints are counted; the
    # counts fall short of len(x) when a symbol is not an int in 1..q
    counts = tuple(map(x.count, range(1, q + 1))) if _ints(x) else ()
    if sum(counts) != len(x):
        _refuse_first(x, q, "symbol {s!r} outside alphabet [1..{top}]")
    return TypeVector(counts)


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


# Bases whose digits int() and format() convert in one C call, with format's
# type letter. Symbol s is the digit s - 1. _TO_DIGIT[N] maps symbol bytes to
# digit characters and every other byte to "!", which int() refuses;
# _FROM_DIGIT maps digit characters back to symbol bytes.
_RADIX_LETTER = {2: "b", 8: "o", 16: "x"}
_TO_DIGIT = {
    N: bytes.maketrans(bytes(range(256)), b"!" + b"0123456789abcdef"[:N] + b"!" * (255 - N))
    for N in _RADIX_LETTER
}
_FROM_DIGIT = bytes.maketrans(b"0123456789abcdef", bytes(range(1, 17)))


def tuple_to_index(js: Sequence[int], N: int) -> int:
    """Mixed-radix bijection [N]^l -> [N^l]; both sides 1-based."""
    if N < 1:
        raise ValidationError("N must be >= 1")
    if len(js) < 1:
        raise ValidationError("tuple must be nonempty")
    if _ints(js):
        table = _TO_DIGIT.get(N)
        if table is not None:
            try:
                return int(bytes(js).translate(table), N) + 1
            except ValueError:  # an entry with no digit, or past a byte
                pass
        elif 1 <= min(js) and max(js) <= N:
            index = 0
            for j in js:  # Horner's rule on the digits j - 1
                index = index * N + j - 1
            return index + 1
    _refuse_first(js, N, "tuple entry {s!r} outside [1..{top}]")


def index_to_tuple(index: int, N: int, l: int) -> tuple[int, ...]:
    """Inverse of tuple_to_index."""
    if N < 1 or l < 1:
        raise ValidationError("need N >= 1 and l >= 1")
    total = N**l
    if not (isinstance(index, int) and 1 <= index <= total):
        raise ValidationError(f"index {index!r} out of range [1..{total}]")
    letter = _RADIX_LETTER.get(N)
    if letter is not None:
        return tuple(format(index - 1, f"0{l}{letter}").encode().translate(_FROM_DIGIT))
    rest, out = index - 1, [0] * l
    for k in reversed(range(l)):
        rest, digit = divmod(rest, N)
        out[k] = digit + 1
    return tuple(out)
