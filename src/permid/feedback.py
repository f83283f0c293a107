"""Two-phase identification over the permutation channel with feedback.

Phase one transmits a fixed pilot vector (from the largest orbit) for l-1
blocks; the noiseless feedback link shows the sender the realized outputs.
Phase two transmits the representative of an orbit chosen by a per-message
lookup table indexed by those outputs. The receiver, knowing the tables and
the feedback, accepts a message iff the last output lands in that message's
chosen orbit. A message always lands in its own chosen orbit, so misses are
impossible, and cross errors are table collisions, which exact counting or
simulation measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .combinatorics import (
    TypeVector,
    count_types,
    type_representative,
    type_unrank,
    typeclass_size,
)
from .errors import (
    BoundViolationError,
    BudgetError,
    HypothesisError,
    ValidationError,
)
from .idcode import BLOCK_ENTRIES, MATRIX_CAP, MCReport
from .rng import Stream

TABLE_BUDGET = 2**26


def max_typeclass(n: int, q: int) -> tuple[TypeVector, int]:
    """The orbit with the most vectors (ties to the smallest type index).

    The multinomial n!/prod(c_s!) is largest at balanced counts; the n mod q
    extra symbols go to the first symbols, which is the canonical-first of
    the tied types. For n >= q-1 the size is also checked against the
    two-sided bound q^n / (2n)^(q-1) <= size <= q^n, exactly.
    """
    count_types(n, q)  # validates n and q
    base, extra = divmod(n, q)
    best = TypeVector(tuple(base + (s < extra) for s in range(q)))
    best_size = typeclass_size(best)
    if n >= q - 1:
        if best_size > q**n or q**n > best_size * (2 * n) ** (q - 1):
            raise BoundViolationError(
                f"largest orbit size {best_size} violates its two-sided bound "
                f"at n={n}, q={q}"
            )
    return best, best_size


class FeedbackCode:
    """Pilot vector plus M lookup tables over pilot-output rank tuples.

    `maps` has shape (M, D) with D = |pilot orbit|^(l-1); rows are messages,
    columns are flattened rank tuples (first pilot block most significant),
    entries are orbit indices in [1..N].
    """

    def __init__(self, n: int, q: int, l: int, maps: np.ndarray):
        if not (isinstance(l, int) and l >= 2):
            raise ValidationError("feedback needs l >= 2 blocks")
        self.n = n
        self.q = q
        self.l = l
        self.N = count_types(n, q)
        self.pstar, self.orbit = max_typeclass(n, q)
        self.pilot = type_representative(self.pstar)
        self.D = self.orbit ** (l - 1)
        maps = np.asarray(maps)
        if maps.ndim != 2 or maps.shape[1] != self.D:
            raise ValidationError(
                f"maps must have shape (M, {self.D}), got {maps.shape}"
            )
        if maps.shape[0] < 1:
            raise ValidationError("need at least one message")
        if not np.issubdtype(maps.dtype, np.integer):
            raise ValidationError("map entries must be integers")
        if maps.min() < 1 or maps.max() > self.N:
            raise ValidationError(f"map entries must lie in [1..{self.N}]")
        self.maps = maps

    @property
    def M(self) -> int:
        return int(self.maps.shape[0])

    def flat_index(self, ranks) -> int:
        """Flatten a (l-1)-tuple of pilot-output ranks, each in [0..orbit)."""
        if len(ranks) != self.l - 1:
            raise ValidationError(f"need {self.l - 1} ranks, got {len(ranks)}")
        flat = 0
        for r in ranks:
            if not 0 <= r < self.orbit:
                raise ValidationError(f"rank {r} outside [0..{self.orbit})")
            flat = flat * self.orbit + r
        return flat


def build_feedback_code(n: int, q: int, l: int, M: int, stream: Stream) -> FeedbackCode:
    """Draw the M lookup tables i.i.d. uniform over [1..N].

    Refuses tables beyond TABLE_BUDGET entries; shrink the instance in that
    case (the tables are the whole construction, there is nothing to stream).
    """
    if not (isinstance(M, int) and M >= 1):
        raise ValidationError("M must be a positive integer")
    if l < 2:
        raise ValidationError("feedback needs l >= 2 blocks")
    N = count_types(n, q)
    _, orbit = max_typeclass(n, q)
    D = orbit ** (l - 1)
    if D > TABLE_BUDGET or M * D > TABLE_BUDGET:
        raise BudgetError(
            f"table of {M} x {D} entries exceeds the budget of {TABLE_BUDGET}"
        )
    maps = stream.numpy.integers(1, N + 1, size=(M, D), dtype=np.min_scalar_type(N))
    return FeedbackCode(n, q, l, maps)


@dataclass(frozen=True)
class CollisionReport:
    """Collision statistics of the lookup tables.

    lambda_{j->k} is the fraction of rank tuples where tables j and k agree;
    it is symmetric, and equals the exact cross-acceptance probability of the
    code. `counts` holds the pairwise agreement counts (diagonal zeroed) when
    M*M is small enough, else None. lambda2 is None for a single message.
    Misses cannot happen, so lambda1 is identically zero.
    """

    M: int
    D: int
    N: int
    lambda1: Fraction
    lambda2: Fraction | None
    max_count: int
    argmax_pair: tuple[int, int] | None
    counts: np.ndarray | None
    target: Fraction

    @property
    def passed(self) -> bool:
        """Whether lambda2 meets the 2/N target (vacuously true at M=1)."""
        return self.lambda2 is None or self.lambda2 <= self.target


def eval_feedback_exact(code: FeedbackCode) -> CollisionReport:
    """Count table agreements for every message pair, exactly.

    Entries lie in 1..N, so bit b of each goes to plane b, 64 positions to a
    uint64 word, padding 0. Tables j and k agree where no plane differs, so
    at D - popcount(OR over b of planes[b][j] ^ planes[b][k]) positions:
    integer XOR, OR and popcount, no float: one XOR call over all planes per
    row, then an OR-reduce over them. Above MATRIX_CAP only the planes and
    one buffer of their shape are held.
    """
    M, D = code.M, code.D
    keep = M <= MATRIX_CAP
    counts = np.zeros((M, M), dtype=np.int64) if keep else None
    planes = np.zeros((code.N.bit_length(), M, 8 * -(-D // 64)), dtype=np.uint8)
    step = max(1, BLOCK_ENTRIES // D)  # rows packed at a time, so no M x D temporary
    for lo in range(0, M, step):
        for b, plane in enumerate(planes):
            bits = code.maps[lo : lo + step] & (1 << b)
            plane[lo : lo + step, : -(-D // 8)] = np.packbits(bits, axis=1, bitorder="little")
    planes = planes.view(np.uint64)
    diff = np.empty_like(planes)
    max_count = -1
    argmax_pair = None
    for j in range(M - 1):
        rest = slice(j + 1, M)
        np.bitwise_xor(planes[:, rest], planes[:, j, None], out=diff[:, rest])
        differ = np.bitwise_or.reduce(diff[:, rest], axis=0)
        agree = D - np.bitwise_count(differ).sum(axis=1, dtype=np.int64)
        k_rel = int(agree.argmax())
        if int(agree[k_rel]) > max_count:
            max_count = int(agree[k_rel])
            argmax_pair = (j + 1, j + 2 + k_rel)
        if keep:
            counts[j, j + 1 :] = agree
            counts[j + 1 :, j] = agree
    return CollisionReport(
        M=M,
        D=D,
        N=code.N,
        lambda1=Fraction(0),
        lambda2=Fraction(max_count, D) if M > 1 else None,
        max_count=max(max_count, 0),
        argmax_pair=argmax_pair,
        counts=counts,
        target=Fraction(2, code.N),
    )


def eval_feedback_mc(code: FeedbackCode, trials: int, stream: Stream) -> MCReport:
    """Simulate the two phases end to end.

    Each trial permutes the pilot blocks: the output of a pilot block is a
    uniform element of the pilot orbit, which the sender reads back as its
    rank, so one randrange(|pilot orbit|) per block stands for it. The
    sender then transmits the chosen orbit's representative, the channel
    permutes it (a uniform vector of that orbit, by one randrange), and
    every decoder runs on the final output. A permutation never takes a
    vector out of its orbit and the decoders read only the orbit, so the
    output's position in it is drawn but never built into a vector. The
    sender's own decoder must accept in every trial, so lambda1_hat must
    come out exactly 0.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    report = MCReport.from_hits(
        lambda rows: _feedback_mc_hits(code, rows, trials, stream), code.M, trials
    )
    if report.lambda1_hat != 0.0:
        raise BoundViolationError("a sender's own decoder rejected in simulation")
    return report


def _feedback_mc_hits(code: FeedbackCode, rows: range, trials: int, stream: Stream) -> np.ndarray:
    """Acceptance counts of the sent messages in `rows` (0-based) against
    all decoders, simulated as eval_feedback_mc describes."""
    sizes: dict[int, int] = {}  # orbit index -> number of vectors in it
    chunk = max(1, BLOCK_ENTRIES // code.M)
    hits = np.zeros((len(rows), code.M), dtype=np.int64)
    for r, i in enumerate(rows):
        randrange = stream.child(f"mc/msg{i + 1}").rand.randrange
        own = code.maps[i].tolist()
        flats = []
        for _ in range(trials):
            flat = 0
            for _b in range(code.l - 1):
                flat = flat * code.orbit + randrange(code.orbit)
            orbit = own[flat]
            if orbit not in sizes:
                sizes[orbit] = typeclass_size(type_unrank(orbit, code.n, code.q))
            randrange(sizes[orbit])  # the channel's permutation, kept so every seed reproduces its report
            flats.append(flat)
        # decoder k accepts when its table sends this trial's ranks to the
        # orbit the output landed in, which is the sent one
        flats = np.array(flats)
        for lo in range(0, trials, chunk):
            part = flats[lo : lo + chunk]
            hits[r] += (code.maps[:, part] == code.maps[i, part]).sum(axis=1)
    return hits


def target_test(code: FeedbackCode) -> bool:
    """True iff the exact lambda2 meets the 2/N target; M >= 2 required."""
    if code.M < 2:
        raise HypothesisError("the target test needs at least two messages")
    return eval_feedback_exact(code).passed


@dataclass(frozen=True)
class RetryResult:
    code: FeedbackCode
    report: CollisionReport
    draws: int
    success: bool


def build_until_target(
    n: int,
    q: int,
    l: int,
    M: int,
    stream: Stream,
    budget_draws: int = 10,
) -> RetryResult:
    """Redraw the tables until the 2/N target passes or the budget runs out.

    Each draw uses a fresh child stream, so the sequence is reproducible and
    any draw can be replayed in isolation. The last drawn code is returned
    either way, with its exact report and the number of draws spent.
    """
    if budget_draws < 1:
        raise ValidationError("need at least one draw")
    # build_feedback_code refuses every other M below 2
    if M == 1:
        raise HypothesisError("the target test needs at least two messages")
    for attempt in range(1, budget_draws + 1):
        code = build_feedback_code(n, q, l, M, stream.child(f"draw{attempt}"))
        report = eval_feedback_exact(code)
        if report.passed:
            break
    return RetryResult(code=code, report=report, draws=attempt, success=report.passed)


def feedback_counting_converse(n: int, q: int, l: int, M: int) -> bool:
    """True iff M < 2^(q^(n*l)), compared exactly without forming the tower.

    M messages need M distinct nonempty decoder subsets of the q^(n*l)
    possible output words, of which there are 2^(q^(n*l)) - 1. The
    comparison reduces to bit lengths: M < 2^E iff bit_length(M) <= E, and
    q^(n*l) >= bit_length(M) is settled by growing powers of q.
    """
    if n < 1 or l < 1:
        raise ValidationError("n and l must be positive")
    if q < 2:
        raise ValidationError("q must be >= 2")
    if M < 1:
        raise ValidationError("M must be positive")
    bl = M.bit_length()
    power, e = 1, 0
    while power < bl:
        power *= q
        e += 1
    # Now q^e is the first power reaching bit_length(M).
    return n * l >= e
