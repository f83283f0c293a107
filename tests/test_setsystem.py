"""Bounded-intersection set systems: profiles, complement transform, greedy
construction, and the three lower bounds."""

import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import is_constant_weight, reference_grow_family, reference_profile
from permid import Stream
from permid import setsystem
from permid.errors import BoundViolationError, HypothesisError, ValidationError
from permid.setsystem import (
    IntersectionProfile,
    SetSystem,
    complement_system,
    existence_floor,
    existence_hypothesis,
    greedy_gilbert,
    grow_family,
    h2,
    h2_inv,
    johnson_bound_M,
    lemma6_check,
    prop2_lower_bound,
    verify_profile,
)


def pairs(*tuples):
    return tuple(frozenset(t) for t in tuples)


# ---------------------------------------------------------------- containers


def test_setsystem_rejects_duplicates_and_strays():
    with pytest.raises(ValidationError):
        SetSystem(4, pairs((1, 2), (2, 1)))
    with pytest.raises(ValidationError):
        SetSystem(4, pairs((1, 5)))
    with pytest.raises(ValidationError):
        SetSystem(4, (frozenset(),))
    with pytest.raises(ValidationError):
        SetSystem(0, ())


def test_is_constant_weight():
    assert is_constant_weight(SetSystem(4, pairs((1, 2), (3, 4))))
    assert not is_constant_weight(SetSystem(4, pairs((1,), (3, 4))))
    assert is_constant_weight(SetSystem(4, ()))


def test_verify_profile_examples():
    p = verify_profile(SetSystem(4, pairs((1, 2), (3, 4))))
    assert (p.gamma, p.delta) == (2, 0)
    p = verify_profile(SetSystem(4, pairs((1, 2), (1, 3))))
    assert (p.gamma, p.delta) == (2, 1)


def test_verify_profile_single_set_has_delta_zero():
    p = verify_profile(SetSystem(9, pairs((2, 5, 7))))
    assert p.delta == 0 and p.gamma == 3 and p.M == 1


def test_verify_profile_needs_constant_weight():
    with pytest.raises(ValidationError):
        verify_profile(SetSystem(4, pairs((1,), (2, 3))))


def test_profile_fractions():
    p = IntersectionProfile(N=12, M=5, gamma=4, delta=3)
    assert p.epsilon == Fraction(1, 3)
    assert p.delta_frac == Fraction(1, 4)
    assert p.ratio == Fraction(3, 4)


# ---------------------------------------------------------------- complement


def test_complement_direct_example():
    s = SetSystem(4, pairs((1, 2, 3), (1, 2, 4)))
    c = complement_system(s)
    assert set(c.sets) == {frozenset({4}), frozenset({3})}
    p = verify_profile(c)
    assert (p.gamma, p.delta) == (1, 0)
    assert p.ratio <= verify_profile(s).ratio


def test_complement_shifts_profile():
    s = SetSystem(6, pairs((1, 2, 3, 4), (1, 2, 3, 5)))
    assert verify_profile(s).delta == 3
    p = verify_profile(complement_system(s))
    assert (p.gamma, p.delta) == (2, 1)


def test_complement_requires_large_gamma():
    with pytest.raises(HypothesisError):
        complement_system(SetSystem(4, pairs((1, 2), (3, 4))))
    # Gamma == N/2 exactly is also out of scope.
    with pytest.raises(HypothesisError):
        complement_system(SetSystem(4, pairs((1, 2, 3, 4)[:2],)))


# Each identity is replayed on the profiles `verify_profile` returns. On
# {1,2,3}, {1,2,4}, {3,4,5} over [1..5] they are (Gamma, Delta) = (3, 2)
# before and (2, 1) after; a doctored pair breaks one identity at a time.
# The ratio check needs Delta > Gamma before, which no family has.
COMPLEMENT_DOCTORED = [
    ((3, 2), (3, 1), "complement size identity failed"),
    ((3, 2), (2, 2), "complement intersection identity failed"),
    ((3, 4), (2, 3), "complement transform increased Delta/Gamma"),
]


@pytest.mark.parametrize(
    "before, after, message", COMPLEMENT_DOCTORED, ids=[m for _, _, m in COMPLEMENT_DOCTORED]
)
def test_each_complement_check_fires_on_a_doctored_profile(monkeypatch, before, after, message):
    system = SetSystem(5, pairs((1, 2, 3), (1, 2, 4), (3, 4, 5)))
    assert [verify_profile(s).delta for s in (system, complement_system(system))] == [2, 1]
    profiles = iter([IntersectionProfile(5, 3, *before), IntersectionProfile(5, 3, *after)])
    monkeypatch.setattr(setsystem, "verify_profile", lambda _: next(profiles))
    with pytest.raises(BoundViolationError, match=message):
        complement_system(system)


def test_complement_is_a_set_level_involution():
    # The transform itself cannot run twice (the image has Gamma < N/2), so
    # the involution is checked directly on the member sets and through the
    # profile identities.
    s = SetSystem(7, pairs((1, 2, 3, 4, 5), (2, 3, 4, 5, 6), (1, 3, 4, 6, 7)))
    before = verify_profile(s)
    c = complement_system(s)
    ground = frozenset(range(1, 8))
    assert set(ground - u for u in c.sets) == set(s.sets)
    after = verify_profile(c)
    assert 7 - after.gamma == before.gamma
    assert 7 - 2 * after.gamma + after.delta == before.delta


def test_complement_random_sweep():
    rand = random.Random(0xC0)
    for _ in range(120):
        N = rand.randint(3, 20)
        gamma = rand.randint(N // 2 + 1, N - 1)
        M = rand.randint(2, min(10, math.comb(N, gamma)))
        chosen = set()
        while len(chosen) < M:
            chosen.add(frozenset(rand.sample(range(1, N + 1), gamma)))
        s = SetSystem(N, tuple(chosen))
        before = verify_profile(s)
        after = verify_profile(complement_system(s))
        assert after.gamma == N - before.gamma
        assert after.delta == N - 2 * before.gamma + before.delta
        assert after.ratio <= before.ratio


# ------------------------------------------------------------------- entropy


def test_h2_endpoints_and_peak():
    assert h2(0.0) == 0.0
    assert h2(1.0) == 0.0
    assert h2(0.5) == 1.0
    assert h2(0.1) == pytest.approx(0.4689955935892812, abs=1e-15)
    assert h2(0.3) == h2(0.7)
    with pytest.raises(ValidationError):
        h2(-0.01)
    with pytest.raises(ValidationError):
        h2(1.01)


def test_h2_inv_endpoints():
    assert h2_inv(0.0) == 0.0
    assert h2_inv(1.0) == 0.5
    with pytest.raises(ValidationError):
        h2_inv(1.5)


def test_h2_round_trip():
    for i in range(1, 500):
        x = 0.5 * i / 500
        assert abs(h2_inv(h2(x)) - x) <= 1e-10
    for i in range(1, 1000):
        v = i / 1000
        assert abs(h2(h2_inv(v)) - v) <= 1e-12


# ----------------------------------------------------------------- existence


def test_existence_hypothesis_accepts_small_epsilon():
    h = existence_hypothesis(Fraction(1, 100), Fraction(1, 3))
    assert h.ok
    assert h.epsilon_ok and h.lambda_range_ok and h.product_ok


def test_existence_hypothesis_product_failure():
    # lambda*log2(1/eps - 1) = 0.4 * log2(9) is about 1.27, under the 2 bar.
    h = existence_hypothesis(Fraction(1, 10), Fraction(2, 5))
    assert h.epsilon_ok and h.lambda_range_ok
    assert not h.product_ok and not h.ok


def test_existence_hypothesis_range_checks():
    assert not existence_hypothesis(Fraction(1, 5), Fraction(1, 3)).epsilon_ok
    assert not existence_hypothesis(Fraction(1, 100), Fraction(1, 2)).lambda_range_ok
    with pytest.raises(ValidationError):
        existence_hypothesis(Fraction(0), Fraction(1, 3))
    with pytest.raises(ValidationError):
        existence_hypothesis(Fraction(1, 100), Fraction(0))


def test_existence_hypothesis_product_equality_is_not_above():
    # 1/eps - 1 = 2^39 and lambda = 2/39 make the product exactly 2.
    h = existence_hypothesis(Fraction(1, 2**39 + 1), Fraction(2, 39))
    assert not h.product_ok
    assert existence_hypothesis(Fraction(1, 2**39 + 2), Fraction(2, 39)).product_ok
    assert not existence_hypothesis(Fraction(1, 2**39), Fraction(2, 39)).product_ok


def test_existence_floor_values():
    assert existence_floor(20, Fraction(1, 10)) == 1
    assert existence_floor(60, Fraction(1, 10)) == 1
    # 2^(5-1)/10 = 1.6 rounds up to 2.
    assert existence_floor(10, Fraction(1, 2)) == 2
    assert existence_floor(8, Fraction(1, 2)) == 1


def test_existence_floor_is_least_cover():
    # k = existence_floor(N, eps) is the least integer with k*N >= 2^(eps*N-1),
    # checked by integer power comparison.
    rand = random.Random(31337)
    for _ in range(80):
        N = rand.randint(2, 40)
        eps = Fraction(rand.randint(1, 8), rand.randint(9, 24))
        k = existence_floor(N, eps)
        a = eps * N - 1
        if a < 0:
            assert k == 1
            continue
        num, den = a.numerator, a.denominator
        assert (k * N) ** den >= 2**num
        if k > 1:
            assert ((k - 1) * N) ** den < 2**num


# -------------------------------------------------------------------- greedy


def test_grow_family_validations():
    s = Stream(5, "grow")
    with pytest.raises(ValidationError):
        grow_family(4, 0, 0, 1, s, 10)
    with pytest.raises(ValidationError):
        grow_family(4, 5, 0, 1, s, 10)
    with pytest.raises(ValidationError):
        grow_family(4, 2, -1, 1, s, 10)
    with pytest.raises(ValidationError):
        grow_family(4, 2, 0, 0, s, 10)
    with pytest.raises(ValidationError):
        grow_family(4, 2, 0, 7, s, 10)
    with pytest.raises(ValidationError):
        grow_family(4, 2, 0, 1, s, -5)
    # a zero budget is allowed and draws nothing
    assert grow_family(4, 2, 0, 1, s, 0) == ([], 0)


def test_grow_family_respects_cap_and_is_seeded():
    kept1, att1 = grow_family(12, 3, 1, 6, Stream(11, "fam"), 50_000)
    kept2, att2 = grow_family(12, 3, 1, 6, Stream(11, "fam"), 50_000)
    assert kept1 == kept2 and att1 == att2
    assert len(kept1) == 6
    for a, b in combinations(kept1, 2):
        assert len(a & b) <= 1


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    N=st.sampled_from([1, 2, 5, 9, 31, 63, 64, 65, 90, 130]),
    gamma_frac=st.fractions(0, 1),
    cap_shift=st.integers(-3, 2),
    fill=st.sampled_from(["small", "near", "full"]),
    budget=st.sampled_from([0, 1, 7, 63, 64, 65, 130, 400]),
)
def test_grow_family_matches_the_frozenset_oracle(seed, N, gamma_frac, cap_shift, fill, budget):
    # cap_shift >= 0 puts cap at or above gamma, where only the duplicate
    # test rejects; "near" and "full" ask for about all C(N, gamma) subsets.
    # Budgets around one and two batches end the run inside a batch.
    gamma = max(1, math.floor(gamma_frac * N))
    cap = max(0, gamma + cap_shift if cap_shift >= 0 else gamma // 2 + cap_shift)
    total = math.comb(N, gamma)
    target = {"small": min(3, total), "near": max(1, total - 1), "full": total}[fill]
    target = min(target, 200)
    stream, oracle = Stream(seed, "grow"), Stream(seed, "grow")
    got = grow_family(N, gamma, cap, target, stream, budget)
    want = reference_grow_family(N, gamma, cap, target, oracle, budget)
    assert got == want
    assert stream.rand.getstate() == oracle.rand.getstate()
    kept = got[0]
    for M in {1, 2, len(kept)}:
        if 1 <= M <= len(kept):
            system = SetSystem(N, tuple(kept[:M]))
            p = verify_profile(system)
            assert (p.gamma, p.delta) == reference_profile(system)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    N=st.sampled_from([2, 3, 7, 40, 63, 64, 65, 100, 150]),
    M=st.integers(0, 12),
    data=st.data(),
)
def test_verify_profile_and_complement_match_the_oracle(seed, N, M, data):
    rand = random.Random(seed)
    gamma = data.draw(st.integers(1, N))
    M = min(M, math.comb(N, gamma))
    chosen = set()
    while len(chosen) < M:
        chosen.add(frozenset(rand.sample(range(1, N + 1), gamma)))
    system = SetSystem(N, tuple(chosen))
    if M == 0:
        # an empty family has no set size to report
        with pytest.raises(ValidationError):
            verify_profile(system)
        return
    p = verify_profile(system)
    assert (p.gamma, p.delta) == reference_profile(system)
    if N < 2 * gamma < 2 * N:
        c = complement_system(system)
        q = verify_profile(c)
        assert (q.gamma, q.delta) == reference_profile(c)
        assert q.gamma == N - gamma
        if M >= 2:
            assert q.delta == N - 2 * gamma + p.delta


@pytest.mark.parametrize(
    "N, gamma, cap, target, budget",
    [
        # the target bounds the last batches: 70 sets, the second batch at most 6
        (200, 20, 5, 70, 100_000),
        (48, 28, 21, 65, 100_000),
        # the budget ends inside the second and the fourth batch
        (200, 20, 5, 400, 100),
        (40, 4, 1, 400, 230),
        # the budget runs out with the family stalled far below its target
        (12, 3, 0, 10, 500),
    ],
)
def test_grow_family_stops_where_the_sequential_loop_stops(N, gamma, cap, target, budget):
    stream, oracle = Stream(3, "stop"), Stream(3, "stop")
    got = grow_family(N, gamma, cap, target, stream, budget)
    want = reference_grow_family(N, gamma, cap, target, oracle, budget)
    assert got == want
    assert got[1] <= budget and (len(got[0]) == target or got[1] == budget)
    assert stream.rand.getstate() == oracle.rand.getstate()


@pytest.mark.parametrize(
    "N, gamma",
    [
        # gamma <= 5: the pool branch up to N = 21, the set branch above
        (1, 1), (5, 5), (21, 3), (22, 3), (22, 5), (500, 1),
        # gamma = 6: 21 + 4^3 = 85 is the last pool size
        (85, 6), (86, 6),
        # gamma = 21: 3 * 21 = 63 sits just below 4^3, so the bound is 85 again
        (85, 21), (86, 21), (120, 72), (48, 28), (200, 20), (10**6, 40),
    ],
)
def test_sampler_draws_as_random_sample(N, gamma):
    rand, oracle = random.Random(N * 1000 + gamma), random.Random(N * 1000 + gamma)
    draw = setsystem._sampler(N, gamma, rand.getrandbits)
    for _ in range(6):
        got = draw()
        assert sorted(got) == sorted(oracle.sample(range(N), gamma))
        assert rand.getstate() == oracle.getstate()


def test_sampler_branch_bound_matches_random_sample():
    # random.sample's bound is 21 + 4 ** ceil(log(3 * k, 4)) for k > 5; the
    # integer form must agree, also where 3k sits next to a power of 4
    ks = [k for m in range(2, 22) for k in range(4**m // 3 - 3, 4**m // 3 + 4)]
    for k in [*range(1, 200), *ks]:
        want = 21 + (4 ** math.ceil(math.log(3 * k, 4)) if k > 5 else 0)
        assert setsystem._pool_bound(k) == want


def _spy_on_meets(monkeypatch):
    """Record (rows, words, sets met) for each `_meets` call, checking that
    both sides are packed on the same words."""
    calls = []

    def meets(mine, theirs):
        assert mine.dtype == theirs.dtype == np.uint64 and len(mine) == len(theirs)
        calls.append((mine.shape[1], len(mine), theirs.shape[1]))
        return real(mine, theirs)

    real = setsystem._meets
    monkeypatch.setattr(setsystem, "_meets", meets)
    return calls


@pytest.mark.parametrize("tile, batch", [(16, 4), (9, 3), (1, 1)])
def test_small_tiles_give_the_oracle_families_and_profiles(monkeypatch, tile, batch):
    # products this small split every meet into many blocks of sets
    monkeypatch.setattr(setsystem, "TILE_ENTRIES", tile)
    monkeypatch.setattr(setsystem, "BATCH", batch)
    calls = _spy_on_meets(monkeypatch)
    for N, gamma, cap, target, budget in [
        (30, 5, 2, 25, 2_000),
        (20, 12, 9, 15, 300),
        (64, 3, 0, 21, 40),
        (9, 9, 8, 1, 5),
        # sets of 70 elements: two words a row, the padding bit in the second
        (80, 70, 69, 6, 6),
    ]:
        stream, oracle = Stream(N, "tiles"), Stream(N, "tiles")
        got = grow_family(N, gamma, cap, target, stream, budget)
        assert got == reference_grow_family(N, gamma, cap, target, oracle, budget)
        assert stream.rand.getstate() == oracle.rand.getstate()
        system = SetSystem(N, tuple(got[0]))
        p = verify_profile(system)
        assert (p.gamma, p.delta) == reference_profile(system)
    # the product holds words * rows * sets uint64 words
    assert all(w * h * t <= max(tile, h * w) for h, w, t in calls)
    assert max(w for _, w, _ in calls) == 2
    assert tile < sum(w * h * t for h, w, t in calls)
    single = verify_profile(SetSystem(7, pairs((1, 4, 6))))
    assert (single.M, single.gamma, single.delta) == (1, 3, 0)
    with pytest.raises(ValidationError):
        verify_profile(SetSystem(7, pairs((1, 2), (3, 4), (5, 6, 7))))


def test_profile_does_not_scale_with_the_ground_set():
    # bit rows follow the elements that occur, not N
    big = 10**12
    system = SetSystem(big, pairs((1, big), (big - 1, big), (2, 3)))
    p = verify_profile(system)
    assert (p.gamma, p.delta) == (2, 1) == reference_profile(system)


def test_wide_sets_meet_a_block_of_sets_per_call(monkeypatch):
    # a block of 64 rows of 24 words meets _block(64, 24) = 21 sets a call,
    # and 6 rows meet 227: the family is dense (Gamma > N/2, the complement
    # transform's input), and the greedy keeps every draw
    calls = _spy_on_meets(monkeypatch)
    N, gamma, target = 1500, 900, 70
    stream, oracle = Stream(5, "wide"), Stream(5, "wide")
    got = grow_family(N, gamma, gamma, target, stream, target)
    assert got == reference_grow_family(N, gamma, gamma, target, oracle, target)
    assert got[1] == target and len(got[0]) == target
    assert (setsystem._block(64, 24), setsystem._block(6, 24)) == (21, 227)
    assert calls == [
        # the first batch meets itself in four blocks of at most 21 sets
        *[(64, 24, 21)] * 3, (64, 24, 1),
        # the second batch meets the 64 kept sets in one call, then itself
        (6, 24, 64), (6, 24, 6),
    ]
    calls.clear()
    system = SetSystem(N, tuple(got[0]))
    p = verify_profile(system)
    assert (p.gamma, p.delta) == reference_profile(system)
    # the first 64 rows meet the 70 sets from their own block on, 21 a call
    assert calls == [*[(64, 24, 21)] * 3, (64, 24, 7), (6, 24, 6)]
    assert all(w * h * t <= setsystem.TILE_ENTRIES for h, w, t in calls)
    comp = complement_system(system)
    assert (verify_profile(comp).delta, p.delta) == (N - 2 * gamma + p.delta, p.delta)


def test_greedy_disjoint_pair_packing():
    r = greedy_gilbert(
        20, Fraction(1, 10), Fraction(2, 5), Stream(7, "g20"), m_target=10
    )
    assert (r.gamma, r.cap) == (2, 0)
    assert r.reached_target and r.profile.M == 10
    assert r.profile.delta == 0
    union = set()
    for u in r.system.sets:
        union |= u
    assert union == set(range(1, 21))


def test_greedy_sixty_element_example():
    r = greedy_gilbert(
        60, Fraction(1, 10), Fraction(1, 3), Stream(7, "g60"), m_target=3
    )
    assert r.profile.M >= 3
    assert (r.gamma, r.cap) == (6, 2)
    assert r.profile.delta <= 2
    assert not r.hypothesis.ok


def test_greedy_enforces_hypothesis_without_target():
    with pytest.raises(HypothesisError):
        greedy_gilbert(20, Fraction(1, 10), Fraction(2, 5), Stream(7, "x"))
    # with an explicit target the family is built and the verdict recorded
    r = greedy_gilbert(20, Fraction(1, 10), Fraction(2, 5), Stream(7, "x"), m_target=4)
    assert r.reached_target and not r.hypothesis.ok


def test_greedy_default_target_path():
    # eps = 1/100 with lambda = 1/3 passes the hypothesis; at N = 100 the
    # existence floor is 1, so the default-target run must succeed.
    r = greedy_gilbert(100, Fraction(1, 100), Fraction(1, 3), Stream(3, "dflt"))
    assert r.target == existence_floor(100, Fraction(1, 100)) == 1
    assert r.reached_target and r.hypothesis.ok


def test_greedy_rejects_gamma_zero():
    with pytest.raises(ValidationError):
        greedy_gilbert(5, Fraction(1, 10), Fraction(1, 3), Stream(1, "z"), m_target=1)


def test_greedy_budget_exhaustion_is_reported():
    r = greedy_gilbert(
        20,
        Fraction(1, 10),
        Fraction(2, 5),
        Stream(5, "tight"),
        m_target=10,
        max_attempts=3,
    )
    assert not r.reached_target
    assert r.warning is not None and "3" in r.warning
    assert r.profile.M < 10


def test_greedy_postcondition_replay():
    rand = random.Random(2718)
    for trial in range(200):
        N = rand.randint(6, 36)
        eps = Fraction(rand.randint(1, 4), rand.randint(5, 12))
        lam = Fraction(rand.randint(1, 5), rand.randint(6, 12))
        if math.floor(eps * N) < 1:
            continue
        want = rand.randint(1, 4)
        if want > math.comb(N, math.floor(eps * N)):
            continue
        r = greedy_gilbert(
            N, eps, lam, Stream(trial, "replay"), m_target=want, max_attempts=2_000
        )
        if r.profile.M >= 2:
            assert r.profile.delta <= r.cap
        assert r.gamma == math.floor(eps * N)
        assert r.cap == math.floor(lam * eps * N)


def test_greedy_refuses_a_profile_above_its_cap(monkeypatch):
    # the disjoint pair packing has cap 0; a profile one above it must raise
    args = (20, Fraction(1, 10), Fraction(2, 5))
    assert greedy_gilbert(*args, Stream(7, "g20"), m_target=10).cap == 0
    real = setsystem.verify_profile
    monkeypatch.setattr(setsystem, "verify_profile", lambda system: replace(real(system), delta=1))
    with pytest.raises(BoundViolationError, match="above its cap"):
        greedy_gilbert(*args, Stream(7, "g20"), m_target=10)


# ------------------------------------------------------------- lower bounds


def test_prop2_at_entropy_peak():
    # log2(M)/N = 1 forces the inverse entropy to 1/2 exactly.
    assert prop2_lower_bound(8, 256, Fraction(1, 2)) == 0.25


def test_prop2_frozen_value():
    # (1/2) * h2_inv(log2(9)/8), cross-checked by high-precision bisection.
    got = 0.5 * h2_inv(math.log2(9) / 8)
    assert got == pytest.approx(0.039161245486813125, abs=1e-14)


def test_prop2_vanishes_with_rate():
    prev = 1.0
    for N in (16, 64, 256, 1024):
        bound = prop2_lower_bound(N, 2 * N + 2, Fraction(1, 2))
        assert bound < prev
        prev = bound
    assert prev < 0.02


def test_prop2_hypothesis_gate():
    with pytest.raises(HypothesisError):
        prop2_lower_bound(8, 9, Fraction(1, 2))
    with pytest.raises(HypothesisError):
        prop2_lower_bound(8, 17, Fraction(1, 2))
    assert prop2_lower_bound(8, 18, Fraction(1, 2)) > 0.0


def test_prop2_domain_is_decided_on_integers():
    # log2(2^60 + 1) rounds to exactly 60.0, so no float may decide M > 2^N
    with pytest.raises(HypothesisError):
        prop2_lower_bound(60, 2**60 + 1, Fraction(1, 2))
    assert prop2_lower_bound(60, 2**60, Fraction(1, 2)) == 0.25


def test_prop2_validations():
    with pytest.raises(ValidationError):
        prop2_lower_bound(8, 100, Fraction(1))
    with pytest.raises(ValidationError):
        prop2_lower_bound(0, 100, Fraction(1, 2))


def test_prop2_holds_on_a_full_pair_family():
    # All 2-subsets of [6]: ratio (Delta=1)/(Gamma=2) must clear the bound.
    s = SetSystem(6, tuple(frozenset(p) for p in combinations(range(1, 7), 2)))
    p = verify_profile(s)
    bound = prop2_lower_bound(p.N, p.M, Fraction(1, 2))
    assert float(p.ratio) >= bound


def test_lemma6_hypothesis_arithmetic():
    all_pairs = SetSystem(
        4, tuple(frozenset(p) for p in combinations(range(1, 5), 2))
    )
    # M = 6 does not exceed 1 + 4/(1/2) = 9, so the check refuses to run.
    with pytest.raises(HypothesisError):
        lemma6_check(verify_profile(all_pairs), Fraction(1, 2))
    # At alpha = 9/10 the threshold drops below 6 and the bound holds:
    # delta = 1/4 > (1/10)(1/4).
    assert lemma6_check(verify_profile(all_pairs), Fraction(9, 10)) is True
    with pytest.raises(HypothesisError):
        lemma6_check(verify_profile(SetSystem(4, pairs((1, 2)))), Fraction(9, 10))
    with pytest.raises(ValidationError):
        lemma6_check(verify_profile(all_pairs), Fraction(2))


def test_lemma6_raises_on_a_doctored_profile():
    # N = 8, Gamma = 4, alpha = 1/2: M = 18 > 1 + N/alpha = 17, and the bound
    # is Delta/N > (1/2) * (1/2)^2 = 1/8, so Delta = 1 sits on it and fails
    alpha = Fraction(1, 2)
    assert lemma6_check(IntersectionProfile(8, 18, 4, 2), alpha) is True
    for delta in (0, 1):
        with pytest.raises(BoundViolationError, match="quadratic intersection bound violated"):
            lemma6_check(IntersectionProfile(8, 18, 4, delta), alpha)


def test_lemma6_random_replay_never_violates():
    rand = random.Random(61)
    for _ in range(60):
        N = rand.randint(4, 8)
        every_pair = list(combinations(range(1, N + 1), 2))
        alpha = Fraction(9, 10)
        lo = 1 + Fraction(N) / alpha
        M = rand.randint(int(lo) + 1, len(every_pair))
        chosen = rand.sample(every_pair, M)
        s = SetSystem(N, tuple(frozenset(p) for p in chosen))
        assert lemma6_check(verify_profile(s), alpha) is True


def test_johnson_bound_values():
    assert johnson_bound_M(4, 4, 2) == 2
    assert johnson_bound_M(8, 4, 2) == 4
    with pytest.raises(HypothesisError):
        johnson_bound_M(8, 4, 4)
    with pytest.raises(ValidationError):
        johnson_bound_M(8, 0, 2)


def test_johnson_matches_exhaustive_disjoint_packing():
    # The largest family of pairwise-disjoint 2-subsets of [8] has size 4.
    best = 0
    all_pairs = [frozenset(p) for p in combinations(range(1, 9), 2)]

    def extend(chosen, start):
        nonlocal best
        best = max(best, len(chosen))
        for i in range(start, len(all_pairs)):
            if all(not (all_pairs[i] & c) for c in chosen):
                extend(chosen + [all_pairs[i]], i + 1)

    extend([], 0)
    assert best == johnson_bound_M(8, 4, 2) == 4


def johnson_bound_for_profile(p):
    """The Johnson bound at the profile's weight w = Gamma and least
    pairwise distance d = 2*(Gamma - Delta)."""
    return johnson_bound_M(p.N, 2 * (p.gamma - p.delta), p.gamma)


def test_johnson_for_profile_ties_out():
    s = SetSystem(4, pairs((1, 2), (3, 4)))
    p = verify_profile(s)
    assert johnson_bound_for_profile(p) == johnson_bound_M(4, 4, 2) == 2
    assert p.M <= johnson_bound_for_profile(p)


def test_disjoint_packings_meet_johnson_exactly():
    # m disjoint pairs on [2m]: w=2, d=4, and the bound lands on m itself.
    for m in (2, 3, 4, 5, 6):
        sets = tuple(frozenset({2 * i + 1, 2 * i + 2}) for i in range(m))
        p = verify_profile(SetSystem(2 * m, sets))
        assert johnson_bound_for_profile(p) == m == p.M


def test_small_delta_implies_both_counting_bounds():
    # Whenever delta <= (1-alpha)*eps^2 (as fractions of N), the family size
    # is capped by 1 + N/alpha and by the Johnson bound. Disjoint packings
    # are the canonical instances.
    alpha = Fraction(1, 2)
    for m in (3, 4, 5, 6, 8):
        N = 2 * m
        sets = tuple(frozenset({2 * i + 1, 2 * i + 2}) for i in range(m))
        p = verify_profile(SetSystem(N, sets))
        assert p.delta_frac <= (1 - alpha) * p.epsilon * p.epsilon
        assert p.M <= 1 + Fraction(N) / alpha
        assert p.M <= johnson_bound_for_profile(p)
