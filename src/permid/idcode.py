"""Identification codes and their exact error evaluation.

A code for message set [1..M] is a family of stochastic encoders together
with per-message accept tests. Decoding regions may overlap, which is what
separates identification from transmission: the receiver only checks the one
message it cares about. Error figures are the worst missed-detection
probability (lambda1) and the worst cross-acceptance probability (lambda2).

Two channel models are covered: the noiseless channel on a finite ground set
[1..N], and the q-ary uniform permutation channel on blocks (one or several
uses). Permutation-channel decoders are stored as per-orbit acceptance
counts, which is lossless for error evaluation: the chance that a decoder
accepts an output of orbit T is (size of decoder inside T) / |T|, whatever
the concrete vectors are.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Callable, Mapping, Sequence

import numpy as np

from .combinatorics import (
    TypeVector,
    count_types,
    index_to_tuple,
    type_index,
    type_of,
    type_representative,
    type_unrank,
    typeclass_size,
)
from .dist import Dist
from .errors import (
    BoundViolationError,
    BudgetError,
    HypothesisError,
    PermidError,
    ValidationError,
)
from .exact import ceil_pow2_over, floor_plus_log2, log2_bracket
from .rng import Stream
from .setsystem import IntersectionProfile, SetSystem, grow_family, verify_profile

# Full matrices are kept only while M stays at or below this cap; above it the
# evaluators stream the maxima and per-message misses, computing a block of
# about BLOCK_ENTRIES acceptance entries at a time.
MATRIX_CAP = 4096
BLOCK_ENTRIES = 2**20
FEASIBLE_N_MAX = 4096  # min_feasible_n tries n = 1..FEASIBLE_N_MAX
# float64 holds every integer up to 2^53 exactly; `acceptance` keeps each
# limb product's column sums within it, and makes its float64 products
# about PRODUCT_ENTRIES entries at a time
EXACT_BITS = 53
PRODUCT_ENTRIES = 2**16


def _check_noiseless_decoder(decoder, N: int):
    if isinstance(decoder, frozenset):
        for k in decoder:
            if not (type(k) is int and 1 <= k <= N):
                raise ValidationError(f"decoder element {k!r} outside [1..{N}]")
        return decoder
    if isinstance(decoder, Mapping):
        cleaned = {}
        for k, p in decoder.items():
            if not (type(k) is int and 1 <= k <= N):
                raise ValidationError(f"decoder outcome {k!r} outside [1..{N}]")
            p = Fraction(p)
            if not 0 <= p <= 1:
                raise ValidationError(f"accept probability {p} outside [0,1]")
            if p:
                cleaned[k] = p
        return cleaned
    raise ValidationError("decoder must be a frozenset or a mapping to accept probabilities")


class NoiselessIdCode:
    """Identification code for the noiseless channel on [1..N].

    Decoders are frozensets (deterministic) or mappings k -> accept
    probability (stochastic); the two kinds can be mixed within one code.
    """

    def __init__(self, N: int, encoders: Sequence[Dist], decoders: Sequence):
        if not (type(N) is int and N >= 1):
            raise ValidationError("N must be a positive integer")
        encoders = tuple(encoders)
        decoders = tuple(_check_noiseless_decoder(d, N) for d in decoders)
        if not encoders:
            raise ValidationError("need at least one message")
        if len(encoders) != len(decoders):
            raise ValidationError(
                f"{len(encoders)} encoders vs {len(decoders)} decoders"
            )
        for enc in encoders:
            if not isinstance(enc, Dist):
                raise ValidationError("encoders must be Dist instances")
            if enc.size != N:
                raise ValidationError(f"encoder ground set {enc.size} != {N}")
        self.N = N
        self.encoders = encoders
        self.decoders = decoders

    @property
    def M(self) -> int:
        return len(self.encoders)

    def is_deterministic(self) -> bool:
        return all(isinstance(d, frozenset) for d in self.decoders)


class PermIdCode:
    """Identification code for l uses of the q-ary permutation channel.

    Encoders are distributions over flat q-ary tuples of length n*l (the l
    blocks concatenated). Decoders are acceptance counts per orbit product,
    keyed by the combined orbit index in [1..N^l] (N = number of length-n
    orbits); the value at key t is |decoder region within orbit product t|.

    The channel shows the decoder only the output's orbit, so every error
    figure depends on an encoder only through its law on orbit indices. The
    constructor validates each distinct vector object once and counts the
    symbols of its blocks; each distinct block type is then ranked and sized
    once, however many vectors share it, and a vector's orbit index and size
    are composed from its blocks' ranks and sizes. `sizes[t]` is
    |orbit product t| for every t an encoder or decoder touches; only an
    orbit that a decoder alone touches is unranked. `output_laws[i-1]` is
    message i's encoder pushed onto [1..N^l]. Evaluators read these and do
    no further type computations.
    """

    def __init__(
        self,
        n: int,
        q: int,
        encoders: Sequence[Dist],
        decoder_counts: Sequence[Mapping[int, int]],
        l: int = 1,
    ):
        if not (type(l) is int and l >= 1):
            raise ValidationError("l must be a positive integer")
        self.n = n
        self.q = q
        self.l = l
        N = self.N = count_types(n, q)
        self.ground = N**l
        encoders = tuple(encoders)
        if not encoders:
            raise ValidationError("need at least one message")
        if len(encoders) != len(decoder_counts):
            raise ValidationError(
                f"{len(encoders)} encoders vs {len(decoder_counts)} decoder count maps"
            )
        # id(x) -> orbit index; the encoders hold every x, so no id is reused
        orbit_of: dict[int, int] = {}
        sizes: dict[int, int] = {}
        # block counts -> (type index - 1, typeclass size), each type ranked once
        ranked: dict[tuple[int, ...], tuple[int, int]] = {}
        for enc in encoders:
            if not isinstance(enc, Dist):
                raise ValidationError("encoders must be Dist instances")
            for x in enc.num:
                if id(x) not in orbit_of:
                    t, size = 0, 1
                    for counts in _input_types(x, n, q, l):
                        if (known := ranked.get(counts)) is None:
                            block = TypeVector(counts)
                            known = ranked[counts] = (type_index(block) - 1, typeclass_size(block))
                        # Horner's rule on the mixed-radix digits of the l blocks
                        t, size = t * N + known[0], size * known[1]
                    orbit_of[id(x)] = t + 1
                    sizes[t + 1] = size
        cleaned = []
        for counts in decoder_counts:
            dec: dict[int, int] = {}
            for t, c in counts.items():
                # not isinstance: a bool is an int to it, and no code file carries one
                if not (type(t) is int and 1 <= t <= self.ground):
                    raise ValidationError(f"orbit index {t!r} outside [1..{self.ground}]")
                if not (type(c) is int and c >= 0):
                    raise ValidationError(f"orbit count {c!r} must be a nonnegative integer")
                if t not in sizes:
                    sizes[t] = math.prod(map(typeclass_size, _orbit_types(t, n, q, N, l)))
                if c > sizes[t]:
                    raise ValidationError(
                        f"count {c} exceeds orbit product size {sizes[t]} at index {t}"
                    )
                if c:
                    dec[t] = c
            cleaned.append(dec)
        self.encoders = encoders
        self.decoder_counts = tuple(cleaned)
        self.sizes = sizes
        self._orbit_of = orbit_of

    @property
    def M(self) -> int:
        return len(self.encoders)

    @cached_property
    def output_laws(self) -> tuple[Dist, ...]:
        """Each message's encoder pushed onto [1..N^l], by the orbits found
        on construction; worked out on first use."""
        orbit_of = self._orbit_of
        return tuple(e.pushforward(lambda x: orbit_of[id(x)], self.ground) for e in self.encoders)


def _input_types(x, n: int, q: int, l: int) -> tuple[tuple[int, ...], ...]:
    """The symbol counts of each of the l blocks of a flat input tuple of
    length n*l, validated as `type_of` validates a block."""
    # plain ints: True would pass isinstance as 1, but sorts apart from it
    if not (isinstance(x, tuple) and len(x) == n * l and set(map(type, x)) == {int}):
        raise ValidationError(f"input must be a tuple of n*l = {n * l} plain integers, got {x!r}")
    types = []
    for b in range(l):
        block = x[b * n : (b + 1) * n]
        # count() sees only symbols 1..q, so the counts fall short of n otherwise
        counts = tuple(map(block.count, range(1, q + 1)))
        if sum(counts) != n:
            type_of(block, q)  # raises its ValidationError for the first bad symbol
        types.append(counts)
    return tuple(types)


def _orbit_types(t: int, n: int, q: int, N: int, l: int) -> tuple[TypeVector, ...]:
    """The block types of the orbit product with combined index t in [1..N^l]."""
    return tuple(type_unrank(j, n, q) for j in index_to_tuple(t, N, l))


def full_orbit_counts(type_sets, n: int, q: int, l: int = 1) -> dict[int, int]:
    """Decoder that accepts every vector of the listed orbit products."""
    N = count_types(n, q)
    return {t: math.prod(map(typeclass_size, _orbit_types(t, n, q, N, l))) for t in type_sets}


@dataclass(frozen=True)
class ErrorReport:
    """Exact error figures of an identification code.

    `missed[i-1]` is the missed-detection probability of message i. `accept`
    is the M x M acceptance kernel (row = sent message, column = tested
    message) when M <= MATRIX_CAP, else None. For M = 1 there are no cross
    pairs and lambda2 is 0 by convention. Messages are numbered 1..M.
    """

    M: int
    lambda1: Fraction
    lambda2: Fraction
    missed: tuple[Fraction, ...]
    argmax_miss: int
    argmax_cross: tuple[int, int] | None
    accept: Acceptance | None

    @property
    def total(self) -> Fraction:
        return self.lambda1 + self.lambda2


def _report(blocks, M: int) -> ErrorReport:
    """Error figures from the kernels of consecutive row blocks that cover
    the M messages in order, decided on their integers: a row's entries
    share one denominator, so its largest cross entry (the first, as a
    row-major scan finds it) is a numpy argmax. Only the misses and the row
    maxima that raise lambda2 are boxed; within MATRIX_CAP the one block is
    the report's matrix."""
    missed = []
    lambda2, argmax_cross = Fraction(0), None
    for block in blocks:
        num, dens = block.num, block.den.tolist()
        if any(a < 0 or b > d for a, b, d in zip(num.min(1).tolist(), num.max(1).tolist(), dens)):
            p = next(Fraction(n, d) for r, d in zip(num.tolist(), dens) for n in r if not 0 <= n <= d)
            raise BoundViolationError(f"acceptance probability {p} outside [0,1]")
        rows = np.arange(len(dens))
        own = (rows, rows + len(missed))
        # the diagonal is masked in place for the argmax and then put back,
        # so no copy of the block is made
        diagonal = num[own]
        num[own] = -1  # so at M = 1 the lone entry never beats lambda2 = 0
        try:
            top = num.argmax(axis=1).tolist()
            highest = num[rows, top].tolist()
        finally:
            num[own] = diagonal
        for i, j, n, d in zip(own[1].tolist(), top, highest, dens):
            if n * lambda2.denominator > lambda2.numerator * d:
                lambda2, argmax_cross = Fraction(n, d), (i + 1, j + 1)
        missed += [Fraction(d - n, d) for n, d in zip(diagonal.tolist(), dens)]
    lambda1 = max(missed)
    return ErrorReport(
        M=M,
        lambda1=lambda1,
        lambda2=lambda2,
        missed=tuple(missed),
        argmax_miss=missed.index(lambda1) + 1,
        argmax_cross=argmax_cross,
        accept=block if M <= MATRIX_CAP else None,
    )


def _encoder_rows(code, rows: range | None = None):
    """The union of the output laws' supports (the encoders' own for
    noiseless codes) as sorted columns, each law as an integer row over
    them, and the rows' denominators: message i puts mass v / dens[i] on
    cols[g] for each (g, v) of row i, over its own least denominator."""
    if not isinstance(code, (PermIdCode, NoiselessIdCode)):
        raise ValidationError(f"unsupported code type {type(code).__name__}")
    laws = code.output_laws if isinstance(code, PermIdCode) else code.encoders
    laws = laws if rows is None else [laws[i] for i in rows]
    cols = sorted({k for law in laws for k in law.num})
    where = {k: g for g, k in enumerate(cols)}
    entries = [[(where[k], v) for k, v in law.num.items()] for law in laws]
    return cols, entries, [law.den for law in laws]


def _decoder_columns(code, cols):
    """The decoders as integer columns over `cols` with one common
    denominator: decoder j accepts cols[g] with probability v / den for each
    (g, v) of column j. Each entry is a reduced pair a/b (count/orbit size
    over their gcd, 1/1, or a stochastic probability), and den is the lcm
    of the b's in `cols`."""
    if isinstance(code, PermIdCode):
        raw = [[(t, c, code.sizes[t]) for t, c in d.items()] for d in code.decoder_counts]
    else:
        raw = [[(k, 1, 1) for k in d] if isinstance(d, frozenset)
               else [(k, *p.as_integer_ratio()) for k, p in d.items()] for d in code.decoders]
    where = {k: g for g, k in enumerate(cols)}
    pairs = [
        [(where[k], a // (r := math.gcd(a, b)), b // r) for k, a, b in column if k in where]
        for column in raw
    ]
    den = math.lcm(*(b for column in pairs for _, _, b in column))
    return [[(g, a * (den // b)) for g, a, b in column] for column in pairs], den


def _table(rows, width: int, dtype) -> np.ndarray:
    """The dense table of integer rows given as (column, value) pairs."""
    table = np.zeros((len(rows), width), dtype=dtype)
    for line, row in zip(table, rows):
        for g, v in row:
            line[g] = v
    return table


def _limbs(rows, width: int, count: int):
    """The `count` base-2^width digits (limbs) of the nonnegative values of
    (column, value) rows, lowest first: the rows themselves when count is 1."""
    mask = (1 << width) - 1
    for a in range(count):
        yield rows if count == 1 else [[(g, (v >> (width * a)) & mask) for g, v in row]
                                       for row in rows]


@dataclass(frozen=True, eq=False)
class Acceptance:
    """Exact acceptance matrix in integer form: P(decoder j+1 accepts |
    message i+1) = num[i, j] / den[i], one Python-integer denominator per
    row. From `acceptance`, `num` is int64 when the kernel's bound
    max(enc) * max(dec) * len(cols) is below 2^63, so no entry can
    overflow, else object. `report` decides the error figures on these
    integers."""

    num: np.ndarray
    den: np.ndarray

    def __eq__(self, other) -> bool:
        """Equal entries as rationals: numerators compared directly over equal
        row denominators, else cross-multiplied on Python integers."""
        if not isinstance(other, Acceptance):
            return NotImplemented
        if self.num.shape != other.num.shape:
            return False
        if np.array_equal(self.den, other.den):
            return bool((self.num == other.num).all())
        return bool((self.num * other.den[:, None] == other.num * self.den[:, None]).all())

    def take(self, idx: Sequence[int]) -> "Acceptance":
        """The sub-matrix of the messages at 0-based positions idx."""
        return Acceptance(self.num[np.ix_(idx, idx)], self.den[idx])

    @cached_property
    def report(self) -> ErrorReport:
        return _report([self], len(self.den))


def acceptance(code, rows: range | None = None) -> Acceptance:
    """The exact acceptance kernel of a noiseless or permutation code:
    encoder rows times decoder columns over the union of the encoder
    supports, on float64 BLAS. `rows` restricts it to those (0-based)
    messages.

    Every operand is a nonnegative integer. The encoder entries are split
    into limbs of s bits and the decoder entries into limbs of t bits, with
    s + t + bit_length(len(cols)) <= EXACT_BITS, so every limb product and
    every partial sum of a column is an integer below 2^53: exact in
    float64, whatever order or FMA the BLAS uses. When the bound
    max(enc) * max(dec) * len(cols) is below 2^EXACT_BITS, each side is one
    limb and one matmul does it. The limb products P_ab, cast to int64, add
    up to sum P_ab * 2^(s*a + t*b): in int64 when the bound is below 2^63,
    and on Python integers (`num` of dtype object) otherwise."""
    cols, enc, row_den = _encoder_rows(code, rows)
    dec, den = _decoder_columns(code, cols)
    # No entry passes its denominator, so this bound settles most kernels
    # without a pass over the entries. A side with no entry counts as 1.
    bound = max(row_den) * den * len(cols)
    if bound >= 2**EXACT_BITS:
        top_enc, top_dec = (max((v for row in x for _, v in row), default=1) for x in (enc, dec))
        bound = top_enc * top_dec * len(cols)
    s, t, count_enc, count_dec = EXACT_BITS, EXACT_BITS, 1, 1  # one limb a side
    if bound >= 2**EXACT_BITS:
        e, d = top_enc.bit_length(), top_dec.bit_length()
        budget = EXACT_BITS - len(cols).bit_length()
        # the widths that need the fewest limb products
        s = min(range(1, budget), key=lambda w: -(-e // w) * -(-d // (budget - w)))
        t = budget - s
        count_enc, count_dec = -(-e // s), -(-d // t)
    # every encoder limb is kept; the decoder's are made one at a time
    enc_limbs = [_table(limb, len(cols), np.float64) for limb in _limbs(enc, s, count_enc)]
    small = bound < 2**63
    num = np.zeros((len(row_den), code.M), dtype=np.int64 if small else object)
    # a row block at a time, so no float64 product is as large as `num`
    step = max(1, PRODUCT_ENTRIES // code.M)
    for b, limb in enumerate(_limbs(dec, t, count_dec)):
        dec_limb = _table(limb, len(cols), np.float64).T
        for a, enc_limb in enumerate(enc_limbs):
            for lo in range(0, len(row_den), step):
                part = (enc_limb[lo : lo + step] @ dec_limb).astype(np.int64)
                num[lo : lo + step] += (part if small else part.astype(object)) << (s * a + t * b)
    return Acceptance(num, np.array(row_den, dtype=object) * den)


def acceptance_matrix(code) -> list[list[Fraction]]:
    """Full M x M acceptance matrix of a noiseless or permutation code,
    exact and uncapped. Entry [i][j] is P(decoder j+1 accepts | message i+1).
    """
    kernel = acceptance(code)
    return [[Fraction(n, d) for n in row] for row, d in zip(kernel.num.tolist(), kernel.den)]


def _row_blocks(M: int):
    """The 0-based messages as consecutive ranges: all at once within
    MATRIX_CAP, else about BLOCK_ENTRIES matrix entries per block."""
    step = M if M <= MATRIX_CAP else max(1, BLOCK_ENTRIES // M)
    return (range(lo, min(lo + step, M)) for lo in range(0, M, step))


def _exact_report(code) -> ErrorReport:
    return _report((acceptance(code, rows) for rows in _row_blocks(code.M)), code.M)


def eval_noiseless(code: NoiselessIdCode) -> ErrorReport:
    """Exact error report of a noiseless-channel code."""
    return _exact_report(code)


def eval_perm_exact(code: PermIdCode) -> ErrorReport:
    """Exact error report of a permutation-channel code.

    Sums over encoder supports only; the channel enters through per-orbit
    acceptance ratios, so orbits are never enumerated.
    """
    return _exact_report(code)


@dataclass(frozen=True)
class MCReport:
    """Monte Carlo estimate of the acceptance matrix, for perm and feedback
    codes alike.

    Every sampling step uses integer arithmetic on exact odds, so each cell
    estimator is unbiased for the true rational acceptance probability.
    `stderr` is the larger binomial standard error of the two reported
    extremes. `accept` is the kernel of int64 acceptance counts over
    `trials` (row = sent message, column = decoder) when M <= MATRIX_CAP,
    else None."""

    M: int
    trials: int
    lambda1_hat: float
    lambda2_hat: float
    stderr: float
    accept: Acceptance | None

    @classmethod
    def from_hits(cls, hits_of: Callable[[range], np.ndarray], M: int, trials: int) -> "MCReport":
        """Estimates from acceptance counts, `trials` per sent message.

        `hits_of(rows)` gives the int64 counts of the sent messages in `rows`
        (0-based) against all M decoders, one row each; it is called once per
        block of rows, in order. Counts over `trials` are an acceptance
        kernel, whose exact report gives the extremes; above MATRIX_CAP no
        more than one block of counts is held at a time.
        """
        if trials < 1:
            raise ValidationError("trials must be >= 1")
        blocks = (Acceptance(hits_of(rows), np.full(len(rows), trials, dtype=object))
                  for rows in _row_blocks(M))
        report = _report(blocks, M)
        # 1 - lambda1 is the least own count over trials, and float(Fraction)
        # rounds as int / int does: the extremes of the h / trials bit for bit
        lambda1_hat = 1.0 - float(1 - report.lambda1)
        lambda2_hat = float(report.lambda2)
        se = max(math.sqrt(p * (1.0 - p) / trials) for p in (lambda1_hat, lambda2_hat))
        return cls(M, trials, lambda1_hat, lambda2_hat, se, report.accept)


def _repr_order_key(vectors: Sequence[tuple], q: int) -> Callable[[tuple], object]:
    """A sort key that orders the given q-ary input vectors as their reprs
    do, without building the reprs.

    Equal-length reprs differ first inside the first differing pair of
    symbols, where the shorter decimal string, if a prefix of the other, is
    followed by "," or ")" and so sorts first, as a string prefix does. So
    the order is that of the symbols' decimal strings, read left to right:
    the key translates each symbol byte to the rank of its string, the
    identity order for q <= 9, while for q >= 10 "10" < "2". Each distinct
    vector's key is made once. With q > 255, or a symbol that is a bool or
    another int subclass, the key is repr itself."""
    if q > 255 or any(set(map(type, x)) != {int} for x in vectors):
        return repr
    rank = {s: r for r, s in enumerate(sorted(range(1, q + 1), key=str))}
    table = bytes(rank.get(b, 0) for b in range(256))
    keys = {id(x): bytes(x).translate(table) for x in vectors}
    return lambda x: keys[id(x)]


def _exact_sampler(dist: Dist, key: Callable = repr) -> tuple[list, list[int], int]:
    """The exact law of `dist` as (keys, cuts, denom): with r uniform on
    [0, denom), as randrange(denom) or its rejection loop on getrandbits
    draws it, keys[bisect_right(cuts, r)] has that law.

    Keys are taken in repr order; `key` may stand in for repr when it sorts
    them the same way."""
    items = sorted(dist.num.items(), key=lambda kv: key(kv[0]))
    cuts = list(accumulate(v for _, v in items))
    if cuts[-1] != dist.den:
        raise PermidError("sampler weights must total the common denominator")
    return [k for k, _ in items], cuts, dist.den


def eval_perm_mc(code: PermIdCode, trials: int, stream: Stream) -> MCReport:
    """Estimate the acceptance matrix by simulating the channel.

    For each sent message i, its own stream `mc/msg{i}` drives the trials.
    Each trial draws an input from the encoder (r uniform below its common
    denominator) and then a uniform position u inside its output orbit;
    decoder j accepts when u falls below its count c_j at that orbit. Each
    draw below n is randrange(n)'s rejection loop on getrandbits, run
    inline: n.bit_length() bits at a time until a value falls below n. So
    the draws, their values and their order are those of two randrange
    calls per trial, and a seed reproduces its report. Output vectors are
    never materialized.

    The decoders are not run trial by trial. At each orbit g the distinct
    nonzero counts form a sorted threshold list, and R[g, j] is the 1-based
    position of c_j in it (0 when c_j = 0). A trial records only g and
    b = (number of thresholds <= u); then u < c_j exactly when b < R[g, j],
    since u and the counts are compared as Python integers however large
    they are. A message's hit counts are a weighted sum of (b < R[g, :])
    over its distinct (g, b) pairs.
    """
    return MCReport.from_hits(
        lambda rows: _perm_mc_hits(code, rows, trials, stream), code.M, trials
    )


def _perm_mc_hits(code: PermIdCode, rows: range, trials: int, stream: Stream) -> np.ndarray:
    """Acceptance counts of the sent messages in `rows` (0-based) against
    all decoders, simulated as eval_perm_mc describes."""
    M = code.M
    cols = sorted({t for i in rows for t in code.output_laws[i].num})
    where = {t: g for g, t in enumerate(cols)}
    found = [[] for _ in cols]
    for j, counts in enumerate(code.decoder_counts):
        for t, c in counts.items():
            if t in where:
                found[where[t]].append((j, c))
    thresholds = [sorted({c for _, c in pairs}) for pairs in found]
    # positions run up to M at most, so the narrowest unsigned type holds them
    rank = np.zeros((len(cols), M), dtype=np.min_scalar_type(M))
    for g, (pairs, thr) in enumerate(zip(found, thresholds)):
        position = {c: k for k, c in enumerate(thr, 1)}
        rank[g, [j for j, _ in pairs]] = [position[c] for _, c in pairs]
    # a trial's (g, b) is recorded as the one integer g * width + b
    width = 1 + max(map(len, thresholds))
    chunk = max(1, BLOCK_ENTRIES // M)
    # encoders share vector objects, so distinct ones are found by id
    vectors = {id(x): x for i in rows for x in code.encoders[i].support()}
    key = _repr_order_key(list(vectors.values()), code.q)
    hits = np.zeros((len(rows), M), dtype=np.int64)
    for r, i in enumerate(rows):
        getrandbits = stream.child(f"mc/msg{i + 1}").rand.getrandbits
        keys, cuts, denom = _exact_sampler(code.encoders[i], key)
        bits = denom.bit_length()
        landing = []
        for x in keys:
            t = code._orbit_of[id(x)]
            size = code.sizes[t]
            landing.append((where[t] * width, size, size.bit_length(), thresholds[where[t]]))
        record = []
        # each draw is randrange's own rejection loop, inlined: k = n.bit_length()
        # bits at a time until one falls below n (for n = 1 as well)
        for _ in range(trials):
            v = getrandbits(bits)
            while v >= denom:
                v = getrandbits(bits)
            base, size, k, thr = landing[bisect_right(cuts, v)]
            u = getrandbits(k)
            while u >= size:
                u = getrandbits(k)
            record.append(base + bisect_right(thr, u))
        pairs, weight = np.unique(record, return_counts=True)
        g, b = np.divmod(pairs, width)
        for lo in range(0, len(pairs), chunk):
            part = slice(lo, lo + chunk)
            hits[r] += weight[part] @ (b[part, None] < rank[g[part]])
    return hits


@dataclass(frozen=True)
class AchievableParams:
    """Derived parameters of the orbit-union achievable construction.

    The working exponent is s = a + l*log2(N) with a = eps * n^(l*(q-1)) + 1.
    Sets of `gamma` orbit indices with pairwise intersections at most `cap`
    yield codes with lambda1 = 0 and lambda2 <= cap/gamma; `target` is the
    guaranteed family size ceil(2^(s-1) / N^l), which collapses to the exact
    rational power ceil(2^(a-1)). `cap_vacuous` flags cap >= gamma, where the
    intersection constraint no longer binds and the lambda2 budget exceeds 1.
    """

    n: int
    q: int
    l: int
    epsilon: Fraction
    N: int
    ground: int
    a: Fraction
    gamma: int
    cap: int
    target: int
    cap_vacuous: bool

    @property
    def lambda2_budget(self) -> Fraction:
        return Fraction(self.cap, self.gamma)


def _stable_cap(a: Fraction, N: int, l: int) -> int:
    """floor(4*s / log2(N^l / s)) with s = a + l*log2(N) and N^l > 6s, from
    brackets of log2 N and log2 s at doubling bits until both ends share a
    floor. That ends: the value is rational only when N and s are powers of
    two, whose brackets are exact (Gelfond-Schneider)."""
    for bits in (1 << k for k in range(5, 17)):
        n_lo, n_hi = log2_bracket(N, bits)
        s_lo, s_hi = a + l * n_lo, a + l * n_hi
        lo = 4 * s_lo / (l * n_hi - log2_bracket(s_lo, bits)[0])
        hi = 4 * s_hi / (l * n_lo - log2_bracket(s_hi, bits)[1])
        if math.floor(lo) == math.floor(hi):
            return math.floor(lo)
    raise PermidError("cap floor is still undecided at 65536 bits")


def _eps_prime_small(n: int, q: int, epsilon: Fraction, l: int) -> bool:
    """Exact test of eps' = s/N^l < 1/6 at this block length."""
    N = count_types(n, q)
    a = epsilon * n ** (l * (q - 1)) + 1
    # eps' < 1/6  <=>  log2 N < r = (N^l - 6a)/(6l)  <=>  r > 0 and N^den(r) < 2^num(r)
    r = (N**l - 6 * a) / (6 * l)
    return r > 0 and (N**r.denominator).bit_length() <= r.numerator


def min_feasible_n(q: int, epsilon: Fraction, l: int = 1) -> int | None:
    """Smallest n <= FEASIBLE_N_MAX where the construction hypothesis eps' < 1/6 holds.

    Returns None when no such block length works; that happens when
    epsilon is too large for this alphabet (the leading term of s grows like
    epsilon * ((q-1)!)^l * N^l, so past a q-dependent threshold no n helps).
    """
    epsilon = Fraction(epsilon)
    for n in range(1, FEASIBLE_N_MAX + 1):
        if _eps_prime_small(n, q, epsilon, l):
            return n
    return None


def achievable_params(
    n: int, q: int, epsilon: Fraction, l: int = 1, max_target: int | None = None
) -> AchievableParams:
    """Resolve the construction parameters and check its hypotheses exactly.

    Requires eps' = s/N^l < 1/6 (which already forces the second hypothesis
    (1-eps')^2 > eps', since t^2 - 3t + 1 > 0 for t > 6 with t = 1/eps').
    A target ceil(2^(a-1)) above `max_target` is refused with BudgetError
    before the cap or the target is worked out (at once if a - 1 >=
    bit_length(max_target), else from the exact target).
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ValidationError("epsilon must be in (0,1)")
    if not (type(l) is int and l >= 1):
        raise ValidationError("l must be a positive integer")
    N = count_types(n, q)
    ground = N**l
    a = epsilon * n ** (l * (q - 1)) + 1
    if not _eps_prime_small(n, q, epsilon, l):
        least = min_feasible_n(q, epsilon, l)
        hint = f"the smallest workable n is {least}" if least else f"no n up to {FEASIBLE_N_MAX} works"
        raise HypothesisError(
            f"eps' = s/{ground} with s = eps*n^(l*(q-1)) + 1 + l*log2(N) is "
            f"not below 1/6 at n={n}, q={q}, l={l}, eps={epsilon}; {hint}"
        )
    gamma = floor_plus_log2(a, N, mult=l)
    if gamma < 1:
        raise HypothesisError(f"orbit-set size floor(s) = {gamma} < 1")
    if gamma > ground:
        raise HypothesisError(f"orbit-set size {gamma} exceeds ground {ground}")
    if max_target is not None and (
        a - 1 >= max_target.bit_length() or ceil_pow2_over(a - 1, 1) > max_target
    ):
        raise BudgetError(f"a target of ceil(2^({a - 1})) sets exceeds {max_target}; the "
                          "greedy keeps at most one set per attempt, so raise max_attempts")
    cap = _stable_cap(a, N, l)
    target = ceil_pow2_over(a - 1, 1)
    return AchievableParams(
        n=n,
        q=q,
        l=l,
        epsilon=epsilon,
        N=N,
        ground=ground,
        a=a,
        gamma=gamma,
        cap=cap,
        target=target,
        cap_vacuous=cap >= gamma,
    )


@dataclass
class AchievableBuild:
    code: PermIdCode
    params: AchievableParams
    system: SetSystem
    profile: IntersectionProfile
    attempts: int


def build_multishot_achievable(
    n: int,
    q: int,
    l: int,
    epsilon: Fraction,
    stream: Stream,
    max_attempts: int = 500_000,
) -> AchievableBuild:
    """Construct an achievable code for l channel uses.

    Greedily collects `target` orbit-index sets of size gamma with pairwise
    intersections at most cap, then turns each set U into a message: encode
    uniformly over the gamma orbit representatives of U, accept exactly the
    union of those orbit products. Misses are impossible (the output orbit
    equals the input orbit), so lambda1 = 0 and every cross acceptance is
    |U_i meet U_j| / gamma.
    """
    if max_attempts < 0:
        raise ValidationError("attempt budget must be >= 0")
    params = achievable_params(n, q, epsilon, l=l, max_target=max_attempts)
    kept, attempts = grow_family(
        params.ground, params.gamma, params.cap, params.target, stream, max_attempts
    )
    if len(kept) < params.target:
        raise BudgetError(
            f"greedy stalled at {len(kept)}/{params.target} sets "
            f"after {attempts} attempts; raise max_attempts"
        )
    system = SetSystem(params.ground, tuple(kept))
    profile = verify_profile(system)
    if profile.delta > params.cap:
        raise BoundViolationError("greedy produced an intersection above its cap")
    # an orbit lies in many sets: it is decoded once, for its representative
    # (the lexicographically smallest vector, one shared tuple, which the code
    # validates once) and its size
    decoded = {t: _orbit_types(t, n, q, params.N, l) for t in sorted(set().union(*kept))}
    reps = {t: sum(map(type_representative, types), ()) for t, types in decoded.items()}
    sizes = {t: math.prod(map(typeclass_size, types)) for t, types in decoded.items()}
    encoders = []
    counts = []
    for U in kept:
        members = sorted(U)
        encoders.append(Dist.uniform([reps[t] for t in members]))
        counts.append({t: sizes[t] for t in members})
    code = PermIdCode(n, q, encoders, counts, l=l)
    return AchievableBuild(
        code=code, params=params, system=system, profile=profile, attempts=attempts
    )


def strong_converse_floor(code) -> Fraction:
    """Lower bound on lambda1 + lambda2 from output-distribution closeness:
    max(0, 1 - min over message pairs of the L1 output distance).

    Identical output laws force the floor 1 (the decoder cannot separate the
    pair at all); disjoint supports give L1 distance 2 and a trivial floor.
    Distances come from the kernel's integer encoder rows a/D as
    sum |a_i D_j - a_j D_i| / (D_i D_j).
    """
    if code.M < 2:
        raise HypothesisError("the pairwise converse needs at least two messages")
    cols, rows, dens = _encoder_rows(code)
    # Row sums are the D's, so this bound also keeps every D_i * D_j in int64.
    top = max(v for row in rows for _, v in row)
    dtype = np.int64 if 2 * top * max(dens) * len(cols) < 2**63 else object
    rows, dens = _table(rows, len(cols), dtype), np.array(dens, dtype=dtype)
    best_num, best_den = 2, 1
    for i in range(code.M - 1):
        dist = np.abs(rows[i] * dens[i + 1 :, None] - rows[i + 1 :] * dens[i]).sum(axis=1)
        for num, den in zip(dist.tolist(), (dens[i] * dens[i + 1 :]).tolist()):
            if num * best_den < best_num * den:
                best_num, best_den = num, den
    floor = 1 - Fraction(best_num, best_den)
    return floor if floor > 0 else Fraction(0)


def check_strong_converse(code, report: ErrorReport) -> Fraction:
    """Replay the converse against an exact report; returns the floor."""
    floor = strong_converse_floor(code)
    if report.lambda1 + report.lambda2 < floor:
        raise BoundViolationError(
            f"lambda1+lambda2 = {report.lambda1 + report.lambda2} "
            f"below the converse floor {floor}"
        )
    return floor
