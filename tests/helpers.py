"""Random code generators and reference implementations shared across the
test modules.

The generators are driven by a plain `random.Random` so the sweeps are
reproducible from the literal seeds written in the tests. Masses are built
from small integer weights, so every probability is an exact Fraction with a
modest denominator. The `reference_*` functions are the slow, direct
versions of library algorithms (the codec loops, Fraction sums, the kernel's
Fraction-path encoder rows and decoder columns, per-trial samplers, the
pairwise table compare, the code loader with one Fraction per mass), kept
as oracles for differential tests;
`counts_from_vector_set` compresses an explicit decoder region to per-orbit
counts; `accept_prob` and `accept_prob_for_orbit` give the per-outcome decoder
factors that `reference_acceptance_matrix` sums, and `fractions` and
`kernel_of` convert between a Fraction matrix and an integer acceptance
kernel.
`PermutationChannel` simulates the channel itself, vector by vector, as the
physical oracle of the acceptance suite. `mpf` and `mpmath_cap` are the
multiprecision oracles of the exact log2 brackets and the construction's
intersection cap; mpmath is a test dependency only.
"""

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import product
from typing import Sequence

import mpmath
import numpy as np

import permid.feedback as feedback
import permid.idcode as idcode
from permid import Dist, NoiselessIdCode, PermIdCode, Stream, tv_distance
from permid.combinatorics import (
    TypeVector,
    count_types,
    index_to_tuple,
    iter_types,
    tuple_to_index,
    type_index,
    type_of,
    type_representative,
    type_unrank,
    typeclass_size,
    vector_rank,
    vector_unrank,
)
from permid.dist import over_common_denominator
from permid.errors import BoundViolationError, ValidationError
from permid.exact import parse_frac
from permid.feedback import CollisionReport
from permid.idcode import Acceptance, ErrorReport, MCReport, _exact_sampler
from permid.serialize import SCHEMA, _holds_bool


class PermutationChannel:
    """The q-ary uniform permutation channel on n-blocks, as a physical
    oracle: a transmitted vector is hit by a uniformly random permutation of
    its coordinates, so the output is uniform on the typeclass (orbit) of
    the input. The n! permutations are never enumerated."""

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


def random_dist(rand, N, max_weight=9):
    """Exact random distribution on [1..N] with a random support."""
    k = rand.randint(1, N)
    support = rand.sample(range(1, N + 1), k)
    weights = [rand.randint(1, max_weight) for _ in support]
    total = sum(weights)
    return Dist({s: Fraction(w, total) for s, w in zip(support, weights)}, size=N)


def random_decoder(rand, N, stochastic, den=8):
    if not stochastic:
        k = rand.randint(1, N)
        return frozenset(rand.sample(range(1, N + 1), k))
    table = {}
    for k in range(1, N + 1):
        num = rand.randint(0, den)
        if num:
            table[k] = Fraction(num, den)
    if not table:
        table[rand.randint(1, N)] = Fraction(1)
    return table


def random_noiseless_code(rand, N, M, decoder_kind="det"):
    """decoder_kind: "det", "stoch", or "mixed"."""
    encoders = [random_dist(rand, N) for _ in range(M)]
    decoders = []
    for _ in range(M):
        if decoder_kind == "mixed":
            stochastic = rand.random() < 0.5
        else:
            stochastic = decoder_kind == "stoch"
        decoders.append(random_decoder(rand, N, stochastic))
    return NoiselessIdCode(N, encoders, decoders)


def counts_from_vector_set(vectors, n, q, l=1):
    """Compress an explicit decoder region (set of flat tuples) to per-orbit
    acceptance counts, keyed by combined orbit index."""
    N = count_types(n, q)
    counts = {}
    seen = set()
    for x in vectors:
        if x in seen:
            raise ValidationError(f"repeated decoder vector {x!r}")
        seen.add(x)
        blocks = (x[b * n:(b + 1) * n] for b in range(l))
        t = tuple_to_index(tuple(type_index(type_of(block, q)) for block in blocks), N)
        counts[t] = counts.get(t, 0) + 1
    return counts


def random_vector(rand, n, q, l=1):
    return tuple(rand.randint(1, q) for _ in range(n * l))


def random_perm_code(rand, n, q, M, l=1, max_support=4, max_decoder=12):
    """Random permutation-channel code with sparse encoders and decoders
    assembled from explicit vector sets (so counts are honest by build)."""
    encoders = []
    for _ in range(M):
        support = set()
        for _ in range(rand.randint(1, max_support)):
            support.add(random_vector(rand, n, q, l))
        support = sorted(support)
        weights = [rand.randint(1, 9) for _ in support]
        total = sum(weights)
        encoders.append(
            Dist({x: Fraction(w, total) for x, w in zip(support, weights)})
        )
    decoders = []
    for _ in range(M):
        vectors = set()
        for _ in range(rand.randint(1, max_decoder)):
            vectors.add(random_vector(rand, n, q, l))
        decoders.append(counts_from_vector_set(sorted(vectors), n, q, l))
    return PermIdCode(n, q, encoders, decoders, l=l)


def all_vectors(n, q):
    return list(product(range(1, q + 1), repeat=n))


def reference_type_index(t):
    """1-based rank of a type by summing each position's skipped blocks one
    count at a time; `type_index` must match it."""
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


def reference_type_unrank(index, n, q):
    """Inverse of reference_type_index, stepping each count down from the
    top one block at a time; `type_unrank` must match it."""
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


def reference_type_of(x, q):
    """Histogram of a q-ary vector, one symbol at a time; `type_of` must
    match it, errors included."""
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


def reference_tuple_to_index(js, N):
    """Mixed-radix rank by Horner's rule, one entry at a time;
    `tuple_to_index` must match it, errors included."""
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


def reference_index_to_tuple(index, N, l):
    """Inverse of reference_tuple_to_index, one divmod per entry;
    `index_to_tuple` must match it, errors included."""
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


def reference_max_typeclass(n, q):
    """Largest orbit by scanning every type, ties to the first in canonical
    order; `feedback.max_typeclass` must match it."""
    best, best_size = None, -1
    for t in iter_types(n, q):
        size = typeclass_size(t)
        if size > best_size:
            best, best_size = t, size
    return best, best_size


def orbit_products(n, q, l):
    """Ground size of the lifted code for quick assertions."""
    return count_types(n, q) ** l


def accept_prob(code, i, k):
    """P(decoder of message i accepts outcome k) in a noiseless code; i is
    1-based."""
    dec = code.decoders[i - 1]
    return Fraction(k in dec) if isinstance(dec, frozenset) else Fraction(dec.get(k, 0))


def accept_prob_for_orbit(code, i, t):
    """P(decoder of message i accepts | output lands in orbit product t) in a
    permutation-channel code; i is 1-based."""
    c = code.decoder_counts[i - 1].get(t, 0)
    if c == 0:
        return Fraction(0)
    return Fraction(c, code.orbit_size(t))


def reference_acceptance_matrix(code):
    """The acceptance matrix as direct Fraction sums over encoder supports.

    This is the slow reference the integer kernel is checked against:
    entry [i][j] = sum over outcomes k of P(encoder i+1 emits k) *
    P(decoder j+1 accepts k), with outcomes pushed to orbit indices for
    permutation-channel codes.
    """
    if isinstance(code, NoiselessIdCode):
        rows = [list(enc.items()) for enc in code.encoders]

        def accept(j, k):
            return accept_prob(code, j, k)

    else:
        rows = [[(code.input_orbit(x), p) for x, p in enc.items()] for enc in code.encoders]

        def accept(j, t):
            return accept_prob_for_orbit(code, j, t)

    return [
        [sum((p * accept(j, k) for k, p in row), Fraction(0)) for j in range(1, code.M + 1)]
        for row in rows
    ]


def reference_encoder_rows(code):
    """The kernel's encoder rows built from the Fraction masses: the sorted
    union of the supports (orbit indices for perm codes) as columns, and each
    encoder's masses, summed per orbit for perm codes, over their least
    common denominator."""
    if isinstance(code, PermIdCode):
        pushed = []
        for enc in code.encoders:
            law = {}
            for x, p in enc.items():
                t = code.input_orbit(x)
                law[t] = law.get(t, 0) + p
            pushed.append(list(law.items()))
    else:
        pushed = [enc.items() for enc in code.encoders]
    cols = sorted({k for pairs in pushed for k, _ in pairs})
    where = {k: g for g, k in enumerate(cols)}
    table = np.zeros((len(pushed), len(cols)), dtype=object)
    dens = np.zeros(len(pushed), dtype=object)
    for i, pairs in enumerate(pushed):
        nums, dens[i] = over_common_denominator(p for _, p in pairs)
        for (k, _), v in zip(pairs, nums):
            table[i, where[k]] += v
    return cols, table, dens


def reference_decoder_columns(code, cols):
    """The kernel's decoder columns from one Fraction per (column, decoder):
    Fraction(count, orbit size) for perm decoders, 0/1 or the stochastic
    probability for noiseless ones, all over their least common denominator."""
    if isinstance(code, PermIdCode):
        probs = [
            [Fraction(d[t], code.orbit_size(t)) if t in d else 0 for t in cols]
            for d in code.decoder_counts
        ]
    else:
        probs = [
            [int(k in d) for k in cols] if isinstance(d, frozenset) else [d.get(k, 0) for k in cols]
            for d in code.decoders
        ]
    nums, den = over_common_denominator(p for column in probs for p in column)
    return np.array(nums, dtype=object).reshape(len(probs), len(cols)).T, den


def reference_kernel(code):
    """The acceptance kernel from the Fraction-path rows and columns, with
    the library's backend rule: int64 when no sum can overflow."""
    cols, enc, row_den = reference_encoder_rows(code)
    dec, den = reference_decoder_columns(code, cols)
    if max(enc.max(), 1) * max(dec.max(), 1) * len(cols) < 2**63:
        enc, dec = enc.astype(np.int64), dec.astype(np.int64)
    return Acceptance(enc @ dec, row_den * den)


def reference_report(matrix):
    """Error figures of a full acceptance matrix by one row-major scan: the
    first strictly larger cross entry wins the argmax, as the kernel's
    report must reproduce."""
    M = len(matrix)
    lambda2, argmax_cross = Fraction(0), None
    for i in range(M):
        for j in range(M):
            if i != j and matrix[i][j] > lambda2:
                lambda2, argmax_cross = matrix[i][j], (i + 1, j + 1)
    missed = tuple(1 - matrix[i][i] for i in range(M))
    lambda1 = max(missed)
    return ErrorReport(
        M=M,
        lambda1=lambda1,
        lambda2=lambda2,
        missed=missed,
        argmax_miss=missed.index(lambda1) + 1,
        argmax_cross=argmax_cross,
        accept=kernel_of(matrix),
    )


def fractions(kernel):
    """The rows of an acceptance kernel as lists of Fractions."""
    return [[Fraction(n, d) for n in row] for row, d in zip(kernel.num.tolist(), kernel.den)]


def kernel_of(matrix):
    """The object acceptance kernel of a matrix of rationals, each row over
    its least common denominator."""
    nums, dens = zip(*(over_common_denominator(row) for row in matrix))
    return Acceptance(np.array(nums, dtype=object), np.array(dens, dtype=object))


def reference_output_law(code, i):
    """The output-orbit law of message i (1-based) of a perm code from one
    Fraction per encoder vector, each vector's orbit ranked by the reference
    type and tuple ranks: `code.output_laws[i - 1]` must equal it."""
    law = {}
    for x, p in code.encoders[i - 1].items():
        blocks = [x[b * code.n : (b + 1) * code.n] for b in range(code.l)]
        types = [reference_type_index(reference_type_of(y, code.q)) for y in blocks]
        t = reference_tuple_to_index(types, code.N)
        law[t] = law.get(t, 0) + p
    return Dist(law, size=code.ground)


def reference_converse_floor(code):
    """The pairwise converse floor from M^2/2 `tv_distance` calls on the
    output distributions: max(0, 1 - min L1 distance)."""
    if isinstance(code, NoiselessIdCode):
        outs = list(code.encoders)
    else:
        outs = list(code.output_laws)
    best = min(
        tv_distance(outs[i], outs[j]) for i in range(code.M) for j in range(i + 1, code.M)
    )
    return max(1 - best, Fraction(0))


def reference_code_from_json(doc):
    """The code loader with one Fraction per encoder mass, each parsed where
    it stands and put over one denominator by `Dist`: the oracle of
    `serialize.code_from_json` on perm and noiseless documents, which must
    give equal codes or refuse with the same ValidationError."""
    try:
        return _reference_code_from_json(doc)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed code document: {exc!r}") from exc


def _reference_code_from_json(doc):
    if _holds_bool(doc):
        raise ValidationError("malformed code document: a JSON bool where a number belongs")
    if doc.get("schema") != SCHEMA:
        raise ValidationError(f"unknown schema {doc.get('schema')!r}")
    kind = doc.get("kind")
    if kind == "noiseless":
        N = doc["N"]
        encoders = [
            Dist({k: parse_frac(p) for k, p in pairs}, size=N)
            for pairs in doc["encoders"]
        ]
        decs = doc["decoders"]
        if "deterministic" in decs:
            decoders = [frozenset(d) for d in decs["deterministic"]]
        elif "stochastic" in decs:
            decoders = [
                {k: p for k, p in enumerate(map(parse_frac, row), start=1) if p}
                for row in decs["stochastic"]
            ]
        else:
            raise ValidationError("noiseless decoders must be deterministic or stochastic")
        return NoiselessIdCode(N, encoders, decoders)
    if kind == "perm":
        n, q, l = doc["n"], doc["q"], doc["l"]
        vectors: dict[int, tuple] = {}

        def vector(i):
            if type(i) is not int:
                return index_to_tuple(i, q, n * l)
            if i not in vectors:
                vectors[i] = index_to_tuple(i, q, n * l)
            return vectors[i]

        encoders = [
            Dist({vector(i): parse_frac(p) for i, p in pairs}) for pairs in doc["encoders"]
        ]
        counts = [
            {t: c for t, c in enumerate(row, start=1) if c != 0}
            for row in doc["decoders"]["typecounts"]
        ]
        return PermIdCode(n, q, encoders, counts, l=l)
    raise ValidationError(f"unknown code kind {kind!r}")


def with_prime_masses(rand, code, P=2**89 - 1):
    """The same code with every encoder mass re-drawn over the same support
    as an integer over the prime P, so the kernel's integer rows pass 2^63.
    A noiseless code's first decoder is widened to accept everything, so at
    least one product term is nonzero."""

    def masses(keys):
        cuts = set()
        while len(cuts) < len(keys) - 1:
            cuts.add(rand.randrange(1, P))
        cuts = sorted(cuts)
        parts = [b - a for a, b in zip([0] + cuts, cuts + [P])]
        mass = {k: Fraction(w, P) for k, w in zip(sorted(keys), parts)}
        return Dist(mass, size=code.encoders[0].size)

    encoders = [masses(list(enc.support())) for enc in code.encoders]
    if isinstance(code, NoiselessIdCode):
        decoders = [frozenset(range(1, code.N + 1))] + list(code.decoders[1:])
        return NoiselessIdCode(code.N, encoders, decoders)
    return PermIdCode(code.n, code.q, encoders, code.decoder_counts, l=code.l)


def reference_mc_report(hits, trials):
    """MCReport from a full M x M hit table, entry by entry, the table kept
    within the current idcode.MATRIX_CAP. Since h -> h / trials and
    p -> 1.0 - p are monotone in floating point, its extremes are bit for bit
    1.0 - least_own / trials and most_cross / trials."""
    M = len(hits)
    accept_hat = tuple(tuple(h / trials for h in row) for row in hits)
    lambda1_hat = max(1.0 - accept_hat[i][i] for i in range(M))
    lambda2_hat = max(
        (accept_hat[i][j] for i in range(M) for j in range(M) if i != j),
        default=0.0,
    )
    se = max(math.sqrt(p * (1.0 - p) / trials) for p in (lambda1_hat, lambda2_hat))
    keep = M <= idcode.MATRIX_CAP
    return MCReport(M, trials, lambda1_hat, lambda2_hat, se, accept_hat if keep else None)


def reference_perm_mc(code, trials, stream):
    """Perm-channel Monte Carlo as a per-trial loop over all M decoders.

    This is the slow reference `eval_perm_mc` is checked against: the same
    draws in the same order (an encoder input, then a uniform position u in
    its output orbit), with decoder j accepting when u < its count there.
    """
    M = code.M
    hits = [[0] * M for _ in range(M)]
    for i in range(1, M + 1):
        rand = stream.child(f"mc/msg{i}").rand
        keys, cuts, denom = _exact_sampler(code.encoders[i - 1])
        for _ in range(trials):
            x = keys[bisect_right(cuts, rand.randrange(denom))]
            t = code.input_orbit(x)
            u = rand.randrange(code.orbit_size(t))
            for j in range(M):
                if u < code.decoder_counts[j].get(t, 0):
                    hits[i - 1][j] += 1
    return reference_mc_report(hits, trials)


def reference_feedback_mc(code, trials, stream):
    """Feedback Monte Carlo with every vector materialized: pilot outputs
    unranked and ranked back, the chosen orbit's representative sent, and
    each decoder's table read per trial. `eval_feedback_mc` must match it."""
    M = code.M
    hits = [[0] * M for _ in range(M)]
    for i in range(1, M + 1):
        rand = stream.child(f"mc/msg{i}").rand
        for _ in range(trials):
            ranks = []
            for _b in range(code.l - 1):
                y = vector_unrank(code.pstar, rand.randrange(code.orbit))
                ranks.append(vector_rank(y, code.q))
            flat = code.flat_index(ranks)
            sent_orbit = int(code.maps[i - 1, flat])
            x_last = type_representative(type_unrank(sent_orbit, code.n, code.q))
            t_last = type_of(x_last, code.q)
            y_last = vector_unrank(t_last, rand.randrange(typeclass_size(t_last)))
            out_orbit = type_index(type_of(y_last, code.q))
            if out_orbit != sent_orbit:
                raise BoundViolationError("channel output left the input orbit")
            for k in range(M):
                if int(code.maps[k, flat]) == out_orbit:
                    hits[i - 1][k] += 1
    return reference_mc_report(hits, trials)


def reference_collision_report(code):
    """Table collisions of a feedback code by one elementwise compare and a
    bool sum per pair of rows; `eval_feedback_exact` must match it field by
    field, with the first maximal pair in row-major order as the argmax and
    `counts` kept only up to `feedback.MATRIX_CAP` messages."""
    M, D = code.M, code.D
    keep = M <= feedback.MATRIX_CAP
    counts = np.zeros((M, M), dtype=np.int64) if keep else None
    max_count = -1
    argmax_pair = None
    for j in range(M - 1):
        agree = (code.maps[j + 1 :] == code.maps[j]).sum(axis=1)
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


def reference_grow_family(N, gamma, cap, target, stream, max_attempts):
    """The greedy set family on frozensets: the same draws as
    `grow_family`, each candidate intersected with every kept set. Returns
    (kept sets, attempts used)."""
    rand = stream.rand
    ground = range(1, N + 1)
    kept = []
    attempts = 0
    while len(kept) < target and attempts < max_attempts:
        attempts += 1
        candidate = frozenset(rand.sample(ground, gamma))
        if any(len(candidate & s) > cap or candidate == s for s in kept):
            continue
        kept.append(candidate)
    return kept, attempts


def reference_profile(system):
    """(Gamma, Delta) of a constant-weight system by intersecting every pair
    of frozensets; `verify_profile` must match it."""
    (gamma,) = {len(s) for s in system.sets}
    sets = system.sets
    delta = 0
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            delta = max(delta, len(sets[i] & sets[j]))
    return gamma, delta


def mpf(x: Fraction):
    """A rational as an mpmath float at the working precision."""
    return mpmath.mpf(x.numerator) / x.denominator


def mpmath_cap(a: Fraction, N: int, l: int, digits: int = 100) -> int | None:
    """floor(4*s / log2(N^l / s)) with s = a + l*log2(N) in mpmath, or None
    when the value lies within 10^-(digits/2) of an integer, where a float
    evaluation cannot decide the floor."""
    with mpmath.workdps(digits):
        s = mpf(a) + l * mpmath.log(N, 2)
        val = 4 * s / mpmath.log(mpmath.mpf(N) ** l / s, 2)
        floor = int(mpmath.floor(val))
        pad = mpmath.mpf(10) ** (-(digits // 2))
        return floor if pad < val - floor < 1 - pad else None
