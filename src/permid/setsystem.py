"""Bounded-intersection set systems over [N]: randomized greedy existence
construction, complement transform, and the lower bounds that constrain any
constant-weight family (inverse-entropy bound, quadratic intersection bound,
Johnson bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, starmap
from operator import and_

from .errors import (
    BoundViolationError,
    HypothesisError,
    ValidationError,
)
from .exact import ceil_pow2_over
from .rng import Stream


def _mask(elements, rank: dict) -> int:
    """Bitmask of a set: one bit per element, at the position `rank` holds
    for it (the next free position on first sight, recorded in `rank`).

    Masks built with one `rank` meet in as many bits as their sets meet in
    elements, since relabelling is injective; first-sight positions keep a
    mask as wide as the distinct elements seen, however large N is.
    """
    mask = 0
    for e in elements:
        mask |= 1 << rank.setdefault(e, len(rank))
    return mask


@dataclass(frozen=True)
class SetSystem:
    """M distinct subsets of [1..N]."""

    N: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        # `type(x) is int` refuses bools, which isinstance(x, int) lets through
        if not (type(self.N) is int and self.N >= 1):
            raise ValidationError("ground-set size N must be a positive integer")
        seen = set()
        for s in self.sets:
            if not isinstance(s, frozenset):
                raise ValidationError("sets must be frozensets")
            if not s:
                raise ValidationError("empty member set")
            if not all(type(e) is int and 1 <= e <= self.N for e in s):
                raise ValidationError(f"set {sorted(s)} leaves the ground set [1..{self.N}]")
            if s in seen:
                raise ValidationError(f"duplicate set {sorted(s)}")
            seen.add(s)

    @property
    def M(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class IntersectionProfile:
    """Exact (Gamma, Delta) profile of a constant-weight system."""

    N: int
    M: int
    gamma: int
    delta: int

    @property
    def epsilon(self) -> Fraction:
        return Fraction(self.gamma, self.N)

    @property
    def delta_frac(self) -> Fraction:
        return Fraction(self.delta, self.N)

    @property
    def ratio(self) -> Fraction:
        """Delta/Gamma, the sum error of the induced identification code."""
        return Fraction(self.delta, self.gamma)


def verify_profile(system: SetSystem) -> IntersectionProfile:
    """Exact Gamma and Delta by full pairwise scan of the sets' bitmasks.

    Delta of a single-set family is 0 (max over an empty pair set).
    """
    sizes = {len(s) for s in system.sets}
    if len(sizes) != 1:
        raise ValidationError(f"not constant-weight: sizes {sorted(sizes)}")
    gamma = sizes.pop()
    rank: dict[int, int] = {}
    masks = [_mask(s, rank) for s in system.sets]
    delta = max(map(int.bit_count, starmap(and_, combinations(masks, 2))), default=0)
    return IntersectionProfile(N=system.N, M=system.M, gamma=gamma, delta=delta)


def complement_system(system: SetSystem) -> SetSystem:
    """Replace every set by its complement in [1..N].

    Only useful (and only allowed) when Gamma > N/2; the complemented profile
    then satisfies Gamma' = N - Gamma, Delta' = N - 2*Gamma + Delta, and the
    error ratio does not get worse: Delta'/Gamma' <= Delta/Gamma. Both facts
    are replayed exactly on the output.
    """
    before = verify_profile(system)
    if 2 * before.gamma <= system.N:
        raise HypothesisError(
            f"complement transform needs Gamma > N/2, got Gamma={before.gamma}, N={system.N}"
        )
    ground = frozenset(range(1, system.N + 1))
    result = SetSystem(system.N, tuple(ground - s for s in system.sets))
    after = verify_profile(result)
    if after.gamma != system.N - before.gamma:
        raise BoundViolationError("complement size identity failed")
    if system.M >= 2 and after.delta != system.N - 2 * before.gamma + before.delta:
        raise BoundViolationError("complement intersection identity failed")
    if system.M >= 2 and after.ratio > before.ratio:
        raise BoundViolationError("complement transform increased Delta/Gamma")
    return result


def h2(x: float) -> float:
    """Binary entropy, log base 2."""
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"h2 needs x in [0,1], got {x}")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def h2_inv(v: float) -> float:
    """The unique x in [0, 1/2] with h2(x) = v, by bisection.

    Absolute error below 1e-12 (the interval is shrunk to float resolution).
    """
    if not 0.0 <= v <= 1.0:
        raise ValidationError(f"h2_inv needs v in [0,1], got {v}")
    if v == 0.0:
        return 0.0
    if v == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            break
        if h2(mid) < v:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


@dataclass(frozen=True)
class ExistenceHypothesis:
    """The two-part hypothesis behind the greedy existence floor."""

    epsilon: Fraction
    lam: Fraction
    epsilon_ok: bool
    lambda_range_ok: bool
    product_ok: bool

    @property
    def ok(self) -> bool:
        return self.epsilon_ok and self.lambda_range_ok and self.product_ok


def existence_hypothesis(epsilon: Fraction, lam: Fraction) -> ExistenceHypothesis:
    """Check epsilon < 1/6, lambda in (0, 1/2), and lambda*log2(1/epsilon - 1) > 2.

    All three checks are exact.
    """
    epsilon = Fraction(epsilon)
    lam = Fraction(lam)
    if not 0 < epsilon < 1:
        raise ValidationError("epsilon must be in (0,1)")
    if lam <= 0:
        raise ValidationError("lambda must be positive")
    return ExistenceHypothesis(
        epsilon=epsilon,
        lam=lam,
        epsilon_ok=epsilon < Fraction(1, 6),
        lambda_range_ok=Fraction(0) < lam < Fraction(1, 2),
        # lam * log2(x) > 2  <=>  x^p > 2^(2r) for x = 1/eps - 1, lam = p/r
        product_ok=(1 / epsilon - 1) ** lam.numerator > 2 ** (2 * lam.denominator),
    )


def existence_floor(N: int, epsilon: Fraction) -> int:
    """The guaranteed family size ceil(2^(eps*N - 1) / N), computed exactly."""
    epsilon = Fraction(epsilon)
    return ceil_pow2_over(epsilon * N - 1, N)


@dataclass
class GreedyResult:
    """Outcome of the randomized greedy construction."""

    system: SetSystem
    profile: IntersectionProfile
    gamma: int
    cap: int
    target: int
    attempts: int
    reached_target: bool
    hypothesis: ExistenceHypothesis
    warning: str | None = None


def grow_family(
    N: int,
    gamma: int,
    cap: int,
    target: int,
    stream: Stream,
    max_attempts: int,
) -> tuple[list[frozenset[int]], int]:
    """Rejection-sample gamma-subsets of [1..N], keeping each candidate iff
    it is new and intersects every kept set in at most cap elements. Returns
    (kept sets, attempts used)."""
    if not 1 <= gamma <= N:
        raise ValidationError(f"set size {gamma} outside [1..{N}]")
    if cap < 0:
        raise ValidationError("intersection cap must be >= 0")
    if target < 1:
        raise ValidationError("target count must be >= 1")
    if max_attempts < 0:
        raise ValidationError("attempt budget must be >= 0")
    if target > math.comb(N, gamma):
        raise ValidationError(
            f"target {target} exceeds the {math.comb(N, gamma)} distinct "
            f"{gamma}-subsets of [1..{N}]"
        )
    rand = stream.rand
    ground = range(1, N + 1)
    # Two gamma-sets are equal iff they meet in gamma elements, so this one
    # bound rejects duplicates as well, even when cap >= gamma.
    limit = min(cap, gamma - 1)
    rank: dict[int, int] = {}
    kept: list[frozenset[int]] = []
    masks: list[int] = []
    attempts = 0
    while len(kept) < target and attempts < max_attempts:
        attempts += 1
        draw = rand.sample(ground, gamma)
        mask = _mask(draw, rank)
        if any((mask & m).bit_count() > limit for m in masks):
            continue
        kept.append(frozenset(draw))
        masks.append(mask)
    return kept, attempts


def greedy_gilbert(
    N: int,
    epsilon: Fraction,
    lam: Fraction,
    stream: Stream,
    max_attempts: int = 100_000,
    m_target: int | None = None,
) -> GreedyResult:
    """Randomized greedy family of floor(eps*N)-subsets with pairwise
    intersections at most floor(lam*eps*N).

    The existence hypothesis (epsilon < 1/6, lambda in (0,1/2),
    lambda*log2(1/epsilon - 1) > 2) guarantees a family of size
    existence_floor(N, epsilon). It is enforced when that floor is used as
    the target (m_target None); with an explicit m_target the family is
    built anyway and the verdict only recorded in `hypothesis`, since the
    greedy itself is mechanical. If max_attempts runs out, the partial
    family is returned with `warning` set and reached_target False.
    """
    epsilon = Fraction(epsilon)
    lam = Fraction(lam)
    hyp = existence_hypothesis(epsilon, lam)
    if m_target is None and not hyp.ok:
        raise HypothesisError(
            "existence hypothesis fails "
            f"(epsilon<1/6: {hyp.epsilon_ok}, lambda in (0,1/2): {hyp.lambda_range_ok}, "
            f"lambda*log(1/eps-1)>2: {hyp.product_ok}); "
            "pass an explicit m_target to build anyway"
        )
    gamma = math.floor(epsilon * N)
    if gamma < 1:
        raise ValidationError(f"floor(epsilon*N) = {gamma}; need at least 1")
    cap = math.floor(lam * epsilon * N)
    target = existence_floor(N, epsilon) if m_target is None else m_target
    kept, attempts = grow_family(N, gamma, cap, target, stream, max_attempts)
    system = SetSystem(N, tuple(kept))
    profile = verify_profile(system) if kept else IntersectionProfile(N, 0, gamma, 0)
    if kept and profile.delta > cap:
        raise BoundViolationError("greedy produced an intersection above its cap")
    reached = len(kept) >= target
    warning = None if reached else f"attempt budget {max_attempts} exhausted at {len(kept)}/{target} sets"
    return GreedyResult(
        system=system,
        profile=profile,
        gamma=gamma,
        cap=cap,
        target=target,
        attempts=attempts,
        reached_target=reached,
        hypothesis=hyp,
        warning=warning,
    )


def prop2_lower_bound(N: int, M: int, alpha: Fraction) -> float:
    """Universal lower bound on Delta/Gamma for any constant-weight system:
    (1 - alpha) * h2_inv(log2(M) / N), valid whenever M > 1 + N/alpha."""
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValidationError("alpha must be in (0,1)")
    if N < 1:
        raise ValidationError("N must be positive")
    floor = 1 + Fraction(N) / alpha
    if M <= floor:
        raise HypothesisError(f"bound needs M > 1 + N/alpha = {floor}")
    # decided on integers: M > 2^N iff M - 1 has more than N bits
    if (M - 1).bit_length() > N:
        raise HypothesisError(f"M = {M} > 2^N = 2^{N}; inverse entropy undefined")
    return (1.0 - float(alpha)) * h2_inv(min(math.log2(M) / N, 1.0))


def lemma6_check(system: SetSystem, alpha: Fraction) -> bool:
    """Assert the quadratic intersection bound delta > (1-alpha)*epsilon^2.

    Requires a constant-weight system with M > 1 + N/alpha. Under that
    hypothesis the inequality is a theorem, so a False outcome raises
    BoundViolationError instead of being returned.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValidationError("alpha must be in (0,1)")
    profile = verify_profile(system)
    if profile.M <= 1 + Fraction(profile.N) / alpha:
        raise HypothesisError(
            f"need M > 1 + N/alpha = {1 + Fraction(profile.N) / alpha}, got M={profile.M}"
        )
    eps = profile.epsilon
    delta = profile.delta_frac
    holds = delta > (1 - alpha) * eps * eps
    if not holds:
        raise BoundViolationError(
            f"delta={delta} <= (1-alpha)*eps^2={(1 - alpha) * eps * eps} "
            f"on a system with M={profile.M}: quadratic intersection bound violated"
        )
    return holds


def johnson_bound_M(N: int, d: int, w: int) -> int:
    """Johnson bound on constant-weight binary codes:
    A(N, d, w) <= floor(N*d / (2w^2 - 2Nw + Nd)) when the denominator is positive."""
    if N < 1 or d < 1 or w < 1:
        raise ValidationError("parameters must be positive")
    denom = 2 * w * w - 2 * N * w + N * d
    if denom <= 0:
        raise HypothesisError(f"denominator 2w^2-2Nw+Nd = {denom} <= 0; bound inapplicable")
    return (N * d) // denom
