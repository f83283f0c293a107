"""Atom-grid approximation of distributions and the collision converse."""

import dataclasses
import random
from fractions import Fraction

import pytest

import permid.approx
from helpers import random_dist, random_noiseless_code
from permid import Dist, NoiselessIdCode
from permid.approx import (
    ApproxMap,
    approx_distance,
    build_approx,
    count_resolution_types,
    pigeonhole_collision_check,
)
from permid.errors import BoundViolationError, HypothesisError, ValidationError


def test_approx_map_validations():
    with pytest.raises(ValidationError):
        ApproxMap(N=2, K=2, atoms=(1, 1, 0))
    with pytest.raises(ValidationError):
        ApproxMap(N=2, K=2, atoms=(2, 1))
    with pytest.raises(ValidationError):
        ApproxMap(N=2, K=2, atoms=(3, -1))
    with pytest.raises(ValidationError):
        ApproxMap(N=0, K=2, atoms=())
    with pytest.raises(ValidationError):
        ApproxMap(N=2, K=0, atoms=(0, 0))


def test_induced_distribution():
    amap = ApproxMap(N=3, K=4, atoms=(2, 0, 2))
    ind = amap.induced()
    assert ind[1] == Fraction(1, 2)
    assert ind[2] == 0
    assert ind[3] == Fraction(1, 2)
    assert ind.size == 3


def test_build_approx_three_quarters_example():
    target = Dist({1: Fraction(3, 4), 2: Fraction(1, 4)}, size=2)
    amap = build_approx(target, 2)
    # Remainders tie at 1/2; the extra atom goes to the smaller index.
    assert amap.atoms == (2, 0)
    assert approx_distance(amap, target) == Fraction(1, 2)
    assert approx_distance(amap, target) <= Fraction(2, 2)


def test_build_approx_uniform_exact():
    target = Dist.uniform(range(1, 5), size=4)
    amap = build_approx(target, 8)
    assert amap.atoms == (2, 2, 2, 2)
    assert approx_distance(amap, target) == 0


def test_build_approx_point_mass():
    target = Dist.point(3, size=5)
    for K in (1, 2, 7):
        amap = build_approx(target, K)
        assert amap.atoms == (0, 0, K, 0, 0)
        assert approx_distance(amap, target) == 0


def test_build_approx_validations():
    with pytest.raises(ValidationError):
        build_approx(Dist.point((1, 2)), 2)  # no declared ground size
    with pytest.raises(ValidationError):
        build_approx(Dist.point(1, size=2), 0)


def test_distance_extremes():
    target = Dist.point(1, size=2)
    amap = ApproxMap(N=2, K=3, atoms=(0, 3))
    assert approx_distance(amap, target) == 2
    with pytest.raises(ValidationError):
        approx_distance(amap, Dist.point(1, size=3))


def test_bound_holds_on_random_sweep():
    rand = random.Random(474)
    for _ in range(200):
        N = rand.randint(2, 64)
        target = random_dist(rand, N, max_weight=30)
        K = rand.choice([1, 2, N // 2 + 1, N, 2 * N, N * N])
        amap = build_approx(target, K)
        assert sum(amap.atoms) == K
        assert approx_distance(amap, target) <= Fraction(N, K)


def test_reapproximation_is_idempotent():
    rand = random.Random(475)
    for _ in range(100):
        N = rand.randint(2, 32)
        K = rand.randint(1, 3 * N)
        amap = build_approx(random_dist(rand, N), K)
        assert build_approx(amap.induced(), K) == amap


def test_refining_the_grid_never_hurts():
    rand = random.Random(476)
    for _ in range(150):
        N = rand.randint(2, 24)
        target = random_dist(rand, N, max_weight=20)
        K1 = rand.randint(1, 2 * N)
        factor = rand.choice([2, 3, 4])
        d1 = approx_distance(build_approx(target, K1), target)
        d2 = approx_distance(build_approx(target, K1 * factor), target)
        assert d2 <= d1


def test_count_resolution_types():
    assert count_resolution_types(2, 2) == 3
    assert count_resolution_types(4, 4) == 35
    for N in (1, 2, 7, 30):
        assert count_resolution_types(N, 1) == N
    with pytest.raises(ValidationError):
        count_resolution_types(0, 3)
    with pytest.raises(ValidationError):
        count_resolution_types(3, 0)


def test_count_matches_enumeration():
    # All atom vectors for N=3, K=4, counted directly.
    vectors = [
        (a, b, 4 - a - b)
        for a in range(5)
        for b in range(5 - a)
    ]
    assert len(vectors) == count_resolution_types(3, 4)


# ------------------------------------------------------------------ converse


def enc(masses, N):
    return Dist(
        {y: m for y, m in enumerate(masses, start=1) if m}, size=N
    )


def test_pigeonhole_guaranteed_collision():
    encoders = [
        enc([Fraction(1), Fraction(0)], 2),
        enc([Fraction(1, 2), Fraction(1, 2)], 2),
        enc([Fraction(1, 4), Fraction(3, 4)], 2),
        enc([Fraction(3, 4), Fraction(1, 4)], 2),
    ]
    decoders = [frozenset({1}), frozenset({2}), frozenset({1, 2}), frozenset({1})]
    code = NoiselessIdCode(2, encoders, decoders)
    report = pigeonhole_collision_check(code, 2)
    assert report.guaranteed  # M = 4 > 3 atom vectors
    assert report.collision is not None
    assert report.lambda_sum >= report.floor


def test_pigeonhole_identical_encoders_floor():
    shared = Dist(
        {1: Fraction(1, 2), 2: Fraction(1, 3), 3: Fraction(1, 6)}, size=3
    )
    code = NoiselessIdCode(
        3, [shared, shared], [frozenset({1, 2, 3}), frozenset({1, 2, 3})]
    )
    report = pigeonhole_collision_check(code, 2)
    assert report.collision == (1, 2)
    # Hamilton at K=2 gives atoms (1,1,0), distance 1/3, floor 1 - 2/3.
    assert report.distances[0] == Fraction(1, 3)
    assert report.floor == Fraction(1, 3)
    assert report.lambda_sum >= report.floor
    assert not report.guaranteed  # 2 messages, C(4,2)=6 vectors


def test_pigeonhole_needs_two_messages():
    code = NoiselessIdCode(2, [Dist.point(1, size=2)], [frozenset({1})])
    with pytest.raises(HypothesisError):
        pigeonhole_collision_check(code, 2)


def test_pigeonhole_no_collision_reports_none():
    code = NoiselessIdCode(
        2,
        [Dist.point(1, size=2), Dist.point(2, size=2)],
        [frozenset({1}), frozenset({2})],
    )
    report = pigeonhole_collision_check(code, 4)
    assert report.collision is None
    assert report.floor is None
    assert not report.guaranteed
    assert len(report.maps) == len(report.distances) == 2


def test_pigeonhole_floor_on_forced_collisions():
    rand = random.Random(808)
    for _ in range(200):
        N = rand.randint(2, 6)
        M = rand.randint(2, 5)
        code = random_noiseless_code(rand, N, M, decoder_kind="mixed")
        # Clone one encoder onto another slot to force a shared map.
        dup_from, dup_to = rand.sample(range(M), 2) if M >= 2 else (0, 0)
        encoders = list(code.encoders)
        encoders[dup_to] = encoders[dup_from]
        forced = NoiselessIdCode(N, encoders, code.decoders)
        report = pigeonhole_collision_check(forced, rand.randint(1, 8))
        assert report.collision is not None
        assert report.lambda_sum >= report.floor


def test_pigeonhole_floor_without_forcing():
    rand = random.Random(809)
    for _ in range(100):
        code = random_noiseless_code(
            rand, rand.randint(2, 5), rand.randint(2, 5), decoder_kind="det"
        )
        report = pigeonhole_collision_check(code, rand.randint(1, 6))
        if report.floor is not None:
            assert report.lambda_sum >= report.floor


# Each theorem check below holds on every input, so a doctored helper makes
# it fire with its own message.


def test_allocation_bound_fires_on_a_doctored_distance(monkeypatch):
    target = Dist({1: Fraction(3, 4), 2: Fraction(1, 4)}, size=2)
    monkeypatch.setattr(permid.approx, "approx_distance", lambda amap, t: Fraction(5, 4))
    with pytest.raises(BoundViolationError, match=r"^allocation error 5/4 exceeds N/K = 1$"):
        build_approx(target, 2)


def test_guaranteed_collision_fires_when_the_count_is_doctored(monkeypatch):
    # two distinct point masses have distinct maps; with one atom vector
    # claimed, two messages would have to share it
    code = NoiselessIdCode(2, [Dist.point(1, size=2), Dist.point(2, size=2)],
                           [frozenset({1}), frozenset({2})])
    monkeypatch.setattr(permid.approx, "count_resolution_types", lambda N, K: 1)
    with pytest.raises(BoundViolationError,
                       match=r"^more messages than atom vectors, yet all maps are distinct$"):
        pigeonhole_collision_check(code, 4)


def test_collision_floor_fires_on_a_doctored_evaluation(monkeypatch):
    # point(1) and (3/4, 1/4) share the map (1, 0) at K = 1, at distances
    # 0 and 1/2, so lambda1 + lambda2 >= 1/2; the real sum is 3/2
    skewed = Dist({1: Fraction(3, 4), 2: Fraction(1, 4)}, size=2)
    code = NoiselessIdCode(2, [Dist.point(1, size=2), skewed], [frozenset({1}), frozenset({2})])
    assert pigeonhole_collision_check(code, 1).lambda_sum == Fraction(3, 2)
    real = permid.approx.eval_noiseless
    monkeypatch.setattr(permid.approx, "eval_noiseless", lambda c: dataclasses.replace(
        real(c), lambda1=Fraction(0), lambda2=Fraction(1, 4)))
    with pytest.raises(BoundViolationError,
                       match=r"^lambda1\+lambda2 = 1/4 below the collision floor 1/2 "
                             r"for messages \(1, 2\)$"):
        pigeonhole_collision_check(code, 1)
