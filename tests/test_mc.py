"""The Monte Carlo samplers against their per-trial reference loops.

`helpers.reference_perm_mc` and `helpers.reference_feedback_mc` make the
same draws in the same order as the samplers and run every decoder on every
trial; the samplers' reports must be equal to theirs, field by field. Above
MATRIX_CAP the streamed extremes must equal those of the full path.
`MCReport.from_hits` itself is checked on drawn hit tables against
`helpers.reference_mc_report`, float bit for float bit.

The samplers draw with randrange's rejection loop on getrandbits, inlined;
the references call randrange itself. Besides equal reports, each sub-stream
must end in the same generator state, so the samplers make as many
getrandbits calls as randrange would, for n = 1, powers of two and their
neighbours, and n past 2^64 and 2^200.

Each sampler's one-trial law is also stated exactly: every draw of one
trial is scripted through `helpers.ScriptedStream`, and the hit rows,
weighed by each outcome's probability, sum to the acceptance kernel (perm)
or to the collision counts over D (feedback).
"""

import json
import math
import random
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permid.feedback as feedback
import permid.idcode as idcode
from helpers import (
    ScriptedStream,
    accept_hat,
    fractions,
    random_perm_code,
    reference_feedback_mc,
    reference_mc_report,
    reference_orbit,
    reference_orbit_size,
    reference_accept_hat,
    reference_perm_mc,
    with_prime_masses,
)
from permid import Dist, PermIdCode, Stream
from permid.combinatorics import type_index, type_of, type_unrank, typeclass_size
from permid.feedback import build_feedback_code, eval_feedback_exact, eval_feedback_mc
from permid.idcode import (
    Acceptance,
    MCReport,
    _exact_sampler,
    acceptance,
    eval_perm_mc,
    full_orbit_counts,
)
from permid.serialize import dumps, report_to_json


def u(*xs):
    return Dist.uniform(list(xs))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    l=st.sampled_from([1, 2]),
    M=st.integers(1, 4),
    trials=st.sampled_from([1, 2, 9, 60]),
    full=st.booleans(),
)
def test_perm_mc_equals_reference(seed, l, M, trials, full):
    rand = random.Random(seed)
    n, q = rand.choice([(2, 2), (3, 2), (2, 3), (4, 2)])
    code = random_perm_code(rand, n, q, M, l=l, max_decoder=20)
    if full:
        # counts equal to the orbit size: such a decoder accepts every trial there
        orbits = sorted({t for d in code.decoder_counts for t in d})
        decoders = [
            full_orbit_counts(rand.sample(orbits, rand.randint(1, len(orbits))), n, q, l)
            for _ in range(M)
        ]
        code = PermIdCode(n, q, code.encoders, decoders, l=l)
    stream = Stream(seed, "mc")
    assert eval_perm_mc(code, trials, stream) == reference_perm_mc(code, trials, stream)


def test_perm_mc_decoders_sharing_a_count():
    # one orbit of size 6 where decoders hold counts 3, 3, 6, 0 and 1
    x = (1, 1, 2, 2)
    t = type_index(type_of(x, 2))
    counts = [{t: 3}, {t: 3}, {t: 6}, {}, {t: 1}]
    code = PermIdCode(4, 2, [u(x, (2, 1, 2, 1))] * 4 + [u((1, 1, 1, 2))], counts)
    for trials in (1, 500):
        stream = Stream(7, "shared")
        assert eval_perm_mc(code, trials, stream) == reference_perm_mc(code, trials, stream)


def test_perm_mc_counts_past_int64():
    # n = 70, q = 2: the middle orbits hold about 1.1e20 > 2^63 vectors
    rand = random.Random(11)
    n = 70
    vectors = [tuple(sorted(rand.choices((1, 2), k=n))) for _ in range(6)]
    for l in (1, 2):
        encoders = [u(*{sum(rand.sample(vectors, l), ()) for _ in range(3)}) for _ in range(4)]
        code = PermIdCode(n, 2, encoders, [{}] * 4, l=l)
        orbits = sorted({reference_orbit(code, x) for e in encoders for x in e.support()})
        assert max(reference_orbit_size(code, t) for t in orbits) > 2**63
        decoders = []
        for _ in range(4):
            picks = {}
            for t in rand.sample(orbits, rand.randint(1, len(orbits))):
                size = reference_orbit_size(code, t)
                picks[t] = rand.choice([size, size // 2, size // 2 + 1, rand.randrange(size + 1)])
            decoders.append(picks)
        code = PermIdCode(n, 2, encoders, decoders, l=l)
        stream = Stream(l, "big")
        assert eval_perm_mc(code, 300, stream) == reference_perm_mc(code, 300, stream)


@pytest.mark.parametrize(
    "n, q, l, M, trials",
    [
        (6, 2, 2, 4, 300),
        (3, 2, 3, 3, 200),
        (4, 3, 2, 2, 200),
        (3, 2, 2, 1, 1),
        (5, 2, 2, 5, 1),
        (12, 2, 2, 16, 300),
    ],
)
def test_feedback_mc_equals_reference(n, q, l, M, trials):
    code = build_feedback_code(n, q, l, M, Stream(n * 100 + M))
    stream = Stream(3, "fmc")
    assert eval_feedback_mc(code, trials, stream) == reference_feedback_mc(code, trials, stream)


def widths():
    """n for a uniform draw below n: 1, 2^k and 2^k +- 1, and values past
    2^64 and past 2^200."""
    k = st.integers(1, 210)
    return st.one_of(
        st.just(1),
        k.map(lambda k: 2**k),
        k.map(lambda k: 2**k - 1),
        k.map(lambda k: 2**k + 1),
        st.integers(2**64, 2**66),
        st.integers(2**200, 2**202),
    )


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=widths(), count=st.integers(1, 12))
def test_rejection_loop_on_getrandbits_is_randrange(seed, n, count):
    # the loop both samplers run inline, against the randrange it stands for
    inline, reference = random.Random(seed), random.Random(seed)
    bits, got = n.bit_length(), []
    for _ in range(count):
        v = inline.getrandbits(bits)
        while v >= n:
            v = inline.getrandbits(bits)
        got.append(v)
    assert got == [reference.randrange(n) for _ in range(count)]
    assert inline.getstate() == reference.getstate()


def report_and_states(sample, code, trials, seed):
    """What sample(code, trials, stream) reports, and the generator state
    each sub-stream it derived ends in."""
    made = []
    child = Stream.child

    def recording(self, label):
        made.append(child(self, label))
        return made[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Stream, "child", recording)
        report = sample(code, trials, Stream(seed, "draws"))
    return report, [(s.label, s.rand.getstate()) for s in made]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    denom=widths(),
    n=st.sampled_from([4, 70, 210]),
    trials=st.integers(1, 40),
)
def test_perm_sampler_draws_as_randrange_does(seed, denom, n, trials):
    """Encoder denominators from `widths`, and orbits of size 1, n and
    C(n, n/2): past 2^64 at n = 70 and past 2^200 at n = 210."""
    ones, half, one_two = (1,) * n, (1,) * (n // 2) + (2,) * (n // 2), (1,) * (n - 1) + (2,)
    assert math.comb(n, n // 2) > {4: 5, 70: 2**64, 210: 2**200}[n]
    first = (Dist.point(ones) if denom == 1
             else Dist({ones: Fraction(1, denom), half: Fraction(denom - 1, denom)}))
    orbit = {x: type_index(type_of(x, 2)) for x in (ones, half, one_two)}
    decoders = [{orbit[ones]: 1, orbit[half]: math.comb(n, n // 2) // 2 + 1}, {orbit[one_two]: 1}]
    code = PermIdCode(n, 2, [first, u(half, one_two)], decoders)
    assert code.encoders[0].den == denom
    got = report_and_states(eval_perm_mc, code, trials, seed)
    assert got == report_and_states(reference_perm_mc, code, trials, seed)


@pytest.mark.parametrize(
    "n, q, l, M",
    [(1, 3, 2, 2), (2, 2, 3, 3), (6, 2, 2, 4), (4, 3, 2, 3), (12, 2, 2, 3)],
)
def test_feedback_sampler_draws_as_randrange_does(n, q, l, M):
    # pilot orbits of 1, 2, 20, 12 and 924 vectors; at n = 1 every orbit
    # has one vector, and each draw below 1 still spends getrandbits(1) calls
    code = build_feedback_code(n, q, l, M, Stream(n * 10 + q))
    for seed in (0, 1, 2):
        got = report_and_states(eval_feedback_mc, code, 200, seed)
        assert got == report_and_states(reference_feedback_mc, code, 200, seed)


def law_by_enumeration(hits_of, code, outcomes):
    """For each sent message i (0-based), the sum over every outcome of one
    trial, given by outcomes(i) as (weight, its draws), of the weight times
    that trial's hit row, as Fractions. The outcomes of one weight go to
    hits_of(code, rows, trials, stream) in one call, as that many trials of a
    scripted stream, which must be read to its end."""
    law = []
    for i in range(code.M):
        groups = defaultdict(list)
        for weight, draws in outcomes(i):
            groups[weight].append(draws)
        row = [Fraction(0)] * code.M
        for weight, batch in groups.items():
            stream = ScriptedStream(chain.from_iterable(batch))
            hits = hits_of(code, range(i, i + 1), len(batch), stream)
            assert [child.read for child in stream.children] == [len(stream.values)]
            row = [r + weight * h for r, h in zip(row, hits[0].tolist())]
        law.append(row)
    return law


def perm_outcomes(code, i):
    """Each (v, u) of a perm trial of message i+1, v below the encoder's
    denominator and u below the size of the output orbit v lands on, with
    its probability. Past 64, v takes the two ends of the run that lands on
    one input, which share the run's mass."""
    keys, cuts, denom = _exact_sampler(code.encoders[i])
    for x, lo, hi in zip(keys, [0, *cuts], cuts):
        size = reference_orbit_size(code, reference_orbit(code, x))
        vs = range(lo, hi) if denom <= 64 else sorted({lo, hi - 1})
        for v in vs:
            for u in range(size):
                yield Fraction(hi - lo, len(vs) * denom * size), (v, u)


def test_perm_one_trial_law_is_the_kernel():
    """Summed over every draw of one trial, the perm sampler's hit rows are
    the exact acceptance kernel, on int64 kernels and on object kernels whose
    masses sit over a prime near 2^89."""
    rand, dtypes = random.Random(18), set()
    for big in (False,) * 150 + (True,) * 50:
        n, q = rand.choice([(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3)])
        code = random_perm_code(rand, n, q, rand.randint(2, 4), l=rand.choice([1, 2]))
        code = with_prime_masses(rand, code) if big else code
        kernel = acceptance(code)
        dtypes.add(kernel.num.dtype)
        law = law_by_enumeration(idcode._perm_mc_hits, code, partial(perm_outcomes, code))
        assert law == fractions(kernel)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def feedback_outcomes(code, i):
    """Each draw of a feedback trial of message i+1: the l-1 pilot ranks of
    each column, first most significant, then the discarded position below
    the size of the orbit sent there, with its probability."""
    for flat in range(code.D):
        ranks, rest = [], flat
        for _ in range(code.l - 1):
            rest, rank = divmod(rest, code.orbit)
            ranks.insert(0, rank)
        size = typeclass_size(type_unrank(int(code.maps[i, flat]), code.n, code.q))
        for u in range(size):
            yield Fraction(1, code.D * size), (*ranks, u)


@pytest.mark.parametrize("n, q, l, M", [(1, 3, 2, 2), (3, 2, 3, 3), (6, 2, 2, 4), (2, 3, 2, 3)])
def test_feedback_one_trial_law_is_the_collision_count(n, q, l, M):
    """Summed over every draw of one trial, the feedback sampler's hit rows
    are the exact collision counts over D, and 1 on the diagonal."""
    code = build_feedback_code(n, q, l, M, Stream(n * 10 + l))
    counts = eval_feedback_exact(code).counts.tolist()
    law = law_by_enumeration(feedback._feedback_mc_hits, code, partial(feedback_outcomes, code))
    assert law == [[Fraction(1) if j == k else Fraction(c, code.D) for k, c in enumerate(row)]
                   for j, row in enumerate(counts)]


def test_mc_streams_blocks_above_the_cap(monkeypatch):
    perm = random_perm_code(random.Random(5), 3, 2, 5, l=2, max_decoder=20)
    fb = build_feedback_code(6, 2, 2, 5, Stream(8))
    blocks = []  # rows of each block of sent messages the feedback sampler gets
    hits_of = feedback._feedback_mc_hits

    def counted(code, rows, trials, stream):
        blocks.append(len(rows))
        return hits_of(code, rows, trials, stream)

    monkeypatch.setattr(feedback, "_feedback_mc_hits", counted)
    full = (eval_perm_mc(perm, 400, Stream(1)), eval_feedback_mc(fb, 400, Stream(1)))
    assert all(report.accept is not None for report in full)
    assert blocks == [5]  # one row block in memory
    monkeypatch.setattr(idcode, "MATRIX_CAP", 2)
    # two matrix rows per block, two (g, b) pairs per perm chunk, and one
    # trial per feedback compare
    monkeypatch.setattr(idcode, "BLOCK_ENTRIES", 11)
    monkeypatch.setattr(feedback, "BLOCK_ENTRIES", 5)
    blocks.clear()
    capped = (eval_perm_mc(perm, 400, Stream(1)), eval_feedback_mc(fb, 400, Stream(1)))
    assert blocks == [2, 2, 1]
    for a, b in zip(full, capped):
        assert b.accept is None
        assert b == replace(a, accept=None)


@st.composite
def hit_tables(draw):
    """An M x M table of counts out of `trials`, with M = 1, all-zero rows,
    counts equal to `trials` and tied cross maxima all within reach."""
    M = draw(st.integers(1, 6))
    trials = draw(st.one_of(st.integers(1, 4), st.integers(1, 2**40)))
    cell = st.one_of(st.sampled_from([0, trials]), st.integers(0, trials))
    hits = [[draw(cell) for _ in range(M)] for _ in range(M)]
    for i in draw(st.sets(st.integers(0, M - 1))):
        hits[i] = [0] * M
    return hits, trials


def float_bits(report):
    """Every float field of an MCReport, and every estimate, as its exact
    bit pattern."""
    estimates = () if report.accept is None else chain(*accept_hat(report))
    fields = (report.lambda1_hat, report.lambda2_hat, report.stderr, *estimates)
    return [x.hex() for x in fields]


@settings(max_examples=200, deadline=None)
@given(table=hit_tables(), block_entries=st.one_of(st.none(), st.integers(1, 12)))
def test_from_hits_equals_the_float_reference(table, block_entries):
    """The estimates read off the exact report of the hit kernel against the
    entry-by-entry float reference, bit for bit, in memory and in blocks of
    about block_entries counts past a zero cap."""
    hits, trials = table
    M = len(hits)
    with pytest.MonkeyPatch.context() as patch:
        if block_entries is not None:
            patch.setattr(idcode, "MATRIX_CAP", 0)
            patch.setattr(idcode, "BLOCK_ENTRIES", block_entries)
        got = MCReport.from_hits(
            lambda rows: np.array([hits[i] for i in rows], dtype=np.int64), M, trials
        )
        expected = reference_mc_report(hits, trials)
    assert got == expected
    assert float_bits(got) == float_bits(expected)
    # the written estimates against Python's h / trials, entry by entry
    if got.accept is not None:
        written = json.loads(dumps(report_to_json(got)))["matrix"]
        assert [x.hex() for x in chain(*written)] == [
            x.hex() for x in chain(*reference_accept_hat(hits, trials))
        ]


def test_reports_compare_by_their_hit_counts():
    hits = np.array([[5, 1, 0], [2, 4, 0], [0, 0, 5]], dtype=np.int64)
    a = MCReport.from_hits(lambda rows: hits[rows.start : rows.stop], 3, 5)
    b = MCReport.from_hits(lambda rows: hits[rows.start : rows.stop].copy(), 3, 5)
    assert a == b and not a != b
    assert a.accept.num is not b.accept.num

    def with_hits(report, table):
        return replace(report, accept=Acceptance(table, report.accept.den[: len(table)]))

    # one hit more in a cell that sets neither extreme: only the counts differ
    changed = hits.copy()
    changed[1, 0] += 1
    c = with_hits(a, changed)
    assert (c.lambda1_hat, c.lambda2_hat, c.stderr) == (a.lambda1_hat, a.lambda2_hat, a.stderr)
    assert a != c and not a == c
    assert a != replace(a, accept=None) and replace(a, accept=None) == replace(b, accept=None)
    assert a != with_hits(a, hits[:2])
    assert a != replace(a, trials=6)
    assert a != (a.M, a.trials, a.lambda1_hat, a.lambda2_hat, a.stderr, a.accept)
