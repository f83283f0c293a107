"""Finite-resolution approximation of distributions on [1..N].

A distribution is approximated by spreading K indivisible atoms over the N
outcomes (the image measure of a uniform variable on [1..K] under a
quantizer map). The largest-remainder allocation keeps the unnormalized L1
error below N/K, and counting the possible atom vectors gives the
pigeonhole step of a converse: with more messages than atom vectors, two
encoders share an approximation, so their codes cannot separate well.

Asymptotic rate rescalings built on these quantities are bookkeeping, not
runtime values, and are intentionally not computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .dist import Dist
from .errors import BoundViolationError, HypothesisError, ValidationError
from .idcode import NoiselessIdCode, eval_noiseless


@dataclass(frozen=True)
class ApproxMap:
    """K atoms spread over [1..N]; outcome y receives atoms[y-1] of them."""

    N: int
    K: int
    atoms: tuple[int, ...]

    def __post_init__(self):
        if not (type(self.N) is int and self.N >= 1):
            raise ValidationError("N must be a positive integer")
        if not (type(self.K) is int and self.K >= 1):
            raise ValidationError("K must be a positive integer")
        if len(self.atoms) != self.N:
            raise ValidationError(f"atom vector length {len(self.atoms)} != N = {self.N}")
        if any(not (type(m) is int and m >= 0) for m in self.atoms):
            raise ValidationError("atom counts must be nonnegative integers")
        if sum(self.atoms) != self.K:
            raise ValidationError(f"atom counts sum to {sum(self.atoms)}, not K = {self.K}")

    def induced(self) -> Dist:
        """The distribution (atoms[y-1]/K) over [1..N]."""
        return Dist.from_counts(dict(enumerate(self.atoms, start=1)), size=self.N)


def build_approx(target: Dist, K: int) -> ApproxMap:
    """Largest-remainder (Hamilton) allocation of K atoms to match `target`.

    Each outcome first gets floor(K*p_y) atoms; the leftover atoms go one
    each to the largest fractional remainders, ties to the smallest outcome
    index. Every per-outcome error is below 1/K, so the L1 distance is at
    most N/K; that bound is replayed exactly before returning.
    """
    if target.size is None:
        raise ValidationError("target must declare its ground-set size")
    if not (type(K) is int and K >= 1):
        raise ValidationError("K must be a positive integer")
    N = target.size
    # K * p_y = (K * num[y]) / den: its floor and remainder over den
    nums = (target.num.get(y, 0) for y in range(1, N + 1))
    base, remainders = map(list, zip(*(divmod(K * v, target.den) for v in nums)))
    surplus = K - sum(base)
    order = sorted(range(N), key=lambda idx: (-remainders[idx], idx))
    for idx in order[:surplus]:
        base[idx] += 1
    result = ApproxMap(N=N, K=K, atoms=tuple(base))
    d = approx_distance(result, target)
    if d * K > N:
        raise BoundViolationError(f"allocation error {d} exceeds N/K = {Fraction(N, K)}")
    return result


def approx_distance(amap: ApproxMap, target: Dist) -> Fraction:
    """Exact unnormalized L1 distance between the map's induced distribution
    and the target; lies in [0, 2]."""
    if target.size != amap.N:
        raise ValidationError(f"ground-set mismatch: map N={amap.N}, target {target.size}")
    # sum |num[y] / den - m / K| over the one denominator den * K
    gaps = (abs(target.num.get(y, 0) * amap.K - m * target.den)
            for y, m in enumerate(amap.atoms, start=1))
    return Fraction(sum(gaps), target.den * amap.K)


def count_resolution_types(N: int, K: int) -> int:
    """Number of distinct ways to spread K atoms over N outcomes:
    C(K+N-1, N-1), exact."""
    if N < 1 or K < 1:
        raise ValidationError("N and K must be positive")
    return comb(K + N - 1, N - 1)


@dataclass(frozen=True)
class PigeonholeReport:
    """Outcome of the shared-approximation converse check.

    `collision` names the first message pair (1-based, lexicographic) whose
    atom vectors coincide, or None. When a collision exists, `floor` is the
    implied lower bound max(0, 1 - d_j - d_k) on lambda1 + lambda2, already
    verified against the exact evaluation. `guaranteed` records whether the
    pigeonhole premise M > C(K+N-1, N-1) held.
    """

    N: int
    K: int
    M: int
    maps: tuple[ApproxMap, ...]
    distances: tuple[Fraction, ...]
    collision: tuple[int, int] | None
    floor: Fraction | None
    lambda_sum: Fraction
    guaranteed: bool


def pigeonhole_collision_check(code: NoiselessIdCode, K: int) -> PigeonholeReport:
    """Approximate every encoder at resolution K and look for a shared map.

    A shared map bounds the encoders' L1 distance by d_j + d_k (triangle
    inequality through the common induced distribution), which in turn
    floors lambda1 + lambda2 at 1 - (d_j + d_k). The floor is checked
    against the code's exact error figures; a violation would falsify the
    converse and raises. When M exceeds the number of distinct maps, a
    collision is guaranteed and its absence also raises.
    """
    if code.M < 2:
        raise HypothesisError("the collision converse needs at least two messages")
    maps = tuple(build_approx(enc, K) for enc in code.encoders)
    distances = tuple(
        approx_distance(m, enc) for m, enc in zip(maps, code.encoders)
    )
    collision = None
    seen: dict[tuple[int, ...], int] = {}
    for i, m in enumerate(maps, start=1):
        if m.atoms in seen:
            collision = (seen[m.atoms], i)
            break
        seen[m.atoms] = i
    guaranteed = code.M > count_resolution_types(code.N, K)
    if guaranteed and collision is None:
        raise BoundViolationError(
            "more messages than atom vectors, yet all maps are distinct"
        )
    report = eval_noiseless(code)
    lambda_sum = report.lambda1 + report.lambda2
    floor = None
    if collision is not None:
        j, k = collision
        raw = 1 - (distances[j - 1] + distances[k - 1])
        floor = raw if raw > 0 else Fraction(0)
        if lambda_sum < floor:
            raise BoundViolationError(
                f"lambda1+lambda2 = {lambda_sum} below the collision floor {floor} "
                f"for messages {collision}"
            )
    return PigeonholeReport(
        N=code.N,
        K=K,
        M=code.M,
        maps=maps,
        distances=distances,
        collision=collision,
        floor=floor,
        lambda_sum=lambda_sum,
        guaranteed=guaranteed,
    )
