"""Bounded-intersection set systems over [N]: randomized greedy existence
construction, complement transform, and the lower bounds that constrain any
constant-weight family (inverse-entropy bound, quadratic intersection bound,
Johnson bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .errors import (
    BoundViolationError,
    HypothesisError,
    ValidationError,
)
from .exact import ceil_pow2_over
from .rng import Stream

# Intersections are counted as popcounts of packed bit rows. No product in
# `_meets` holds more than TILE_ENTRIES uint64 words, unless one side alone
# is longer (then a call meets a single set); the greedy draws up to BATCH
# candidates at a time, and the profile meets BATCH rows with the later sets
# at a time.
TILE_ENTRIES = 2**15
BATCH = 64


def _local(rows: np.ndarray, columns: int) -> tuple[np.ndarray, int]:
    """(at, width): the columns (below `columns`) that `rows` touch, numbered
    0..width-1 in order, so that at[c] is column c's number, and `width` for
    every column `rows` miss. Built once per block of rows; `at` then maps
    each set the block meets onto the block's own columns."""
    seen = np.zeros(columns, dtype=bool)
    seen[rows] = True
    width = int(np.count_nonzero(seen))
    # int32 like the rows: that halves `at[rows]`, a block's largest
    # temporary (3 MB, not 6 MB, for 64 rows of 12,000 elements)
    return np.where(seen, np.cumsum(seen, dtype=np.int32) - 1, np.int32(width)), width


def _packed(at: np.ndarray, width: int) -> np.ndarray:
    """The rows of `at` as bit rows over columns 0..width, words first:
    shape (words, rows), uint64, with bit c of a row set iff the row lists
    column c. Bit `width` stands for every column a block misses; no row of
    the block sets it, so those columns meet nothing. Any fixed bit order
    gives the same counts, since both sides of a meet share it."""
    bits = np.zeros((len(at), 64 * (width // 64 + 1)), dtype=bool)
    bits[np.arange(len(at))[:, None], at] = True
    return np.ascontiguousarray(np.packbits(bits, axis=1).view(np.uint64).T)


def _meets(mine: np.ndarray, theirs: np.ndarray) -> np.ndarray:
    """counts[i, j] = |mine[i] meet theirs[j]|, as int64, for two `_packed`
    sides on one block's columns: the popcount of their common bits, summed
    over the words. The product holds words * len(mine) * len(theirs)
    uint64 words, which callers keep within TILE_ENTRIES through `_block`."""
    return np.bitwise_count(mine[:, :, None] & theirs[:, None, :]).sum(axis=0, dtype=np.int64)


def _block(height: int, words: int) -> int:
    """How many sets one `_meets` call takes against `height` packed rows
    of `words` words: as many as keeps the product within TILE_ENTRIES
    words, and at least one."""
    return max(1, TILE_ENTRIES // (height * words))


def _columns(sets, rank: dict, count: int, weight: int) -> np.ndarray:
    """One row per set, for `count` sets of `weight` elements: the column
    each element holds in `rank` (the next free column on first sight,
    recorded in `rank`). Rows are filled BATCH sets at a time, so no more
    than that many sets are held as Python lists at once.

    Rows ranked with one `rank` meet in as many columns as their sets meet
    in elements, since relabelling is injective; first-sight columns keep
    the bit rows as wide as the distinct elements seen, however large N is.
    """
    # int32 holds every column: 2^31 distinct elements would not fit in
    # memory as frozensets, and numpy refuses to store a larger one
    rows = np.empty((count, weight), dtype=np.int32)
    sets = iter(sets)
    for top in range(0, count, BATCH):
        rows[top : top + BATCH] = [
            [rank.setdefault(e, len(rank)) for e in s] for s in islice(sets, BATCH)
        ]
    return rows


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
    """Exact Gamma and Delta from popcounts of the sets' bit rows.

    The sets are ranked into first-sight columns, so the bit rows follow the
    elements that occur, not N. Each block of BATCH rows is numbered on its
    own columns once (`_local`), packed once (`_packed`) and met with itself
    and every later set, with the diagonal and the pairs below it masked
    (see `_meets`), as many later sets per call as `_block` allows. Delta of
    a single-set family is 0 (max over an empty pair set).
    """
    sizes = {len(s) for s in system.sets}
    if len(sizes) != 1:
        raise ValidationError(f"not constant-weight: sizes {sorted(sizes)}")
    gamma = sizes.pop()
    rank: dict[int, int] = {}
    rows = _columns(system.sets, rank, system.M, gamma)
    delta = 0
    for top in range(0, system.M - 1, BATCH):
        block = rows[top : top + BATCH]
        at, width = _local(block, len(rank))
        mine = _packed(at[block], width)
        step = _block(len(block), len(mine))
        for start in range(top, system.M, step):
            counts = _meets(mine, _packed(at[rows[start : start + step]], width))
            # set top + i meets set start + j; keep only start + j > top + i
            delta = max(delta, int(np.triu(counts, 1 + top - start).max()))
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


def _pool_bound(gamma: int) -> int:
    """The largest population random.sample draws gamma from by its pool
    branch: 21, plus 4^ceil(log4(3*gamma)) when gamma > 5. The least m with
    4^m >= 3*gamma is that ceiling for every gamma below 3*10^14, far past
    any set a draw can hold."""
    return 21 + (4 ** (((3 * gamma - 1).bit_length() + 1) // 2) if gamma > 5 else 0)


def _sampler(N: int, gamma: int, getrandbits):
    """A function drawing random.sample(range(N), gamma) on `getrandbits`,
    with the same values and the same generator state after each draw: the
    sample's own branch choice, and randbelow(n)'s rejection loop
    (k = n.bit_length() bits until the value is below n) run inline.

    """
    if N <= _pool_bound(gamma):
        widths = [(n, n.bit_length()) for n in range(N, N - gamma, -1)]

        def draw():
            pool = list(range(N))
            out = []
            for n, bits in widths:
                j = getrandbits(bits)
                while j >= n:
                    j = getrandbits(bits)
                out.append(pool[j])
                pool[j] = pool[n - 1]
            return out

        return draw
    bits = N.bit_length()

    def draw():
        # a value at or above N, or one already drawn, is drawn again
        chosen = set()
        add = chosen.add
        while len(chosen) < gamma:
            j = getrandbits(bits)
            if j < N:
                add(j)
        return chosen

    return draw


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
    (kept sets, attempts used).

    Candidates are drawn a batch of min(BATCH, target - kept, attempts left)
    at a time, so no draw goes past the attempt at which a one-at-a-time
    loop would stop. A batch is packed once and meets the kept sets in exact
    popcounts (see `_meets`), a block of kept sets at a time, and each block
    meets only the candidates that cleared the blocks before it. The
    candidates left then meet each other, in as many blocks as `_block`
    allows, resolved in draw order: a candidate is
    kept iff it clears every kept set and every earlier candidate of its
    batch that was kept. So the kept sets, the attempts and the generator's
    state after the call are those of the one-at-a-time loop. Each draw is
    ranked into first-sight columns as it comes, and kept sets are held as
    rows of those columns, so memory follows the elements drawn, not N, and
    a batch holds no more than one draw as a Python set.
    """
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
    draw = _sampler(N, gamma, stream.rand.getrandbits)
    # Two gamma-sets are equal iff they meet in gamma elements, so this one
    # bound rejects duplicates as well, even when cap >= gamma.
    limit = min(cap, gamma - 1)
    rank: dict[int, int] = {}
    labels: list[int] = []  # the element of [1..N] at each column
    kept: list[frozenset[int]] = []
    rows = np.empty((BATCH, gamma), dtype=np.int32)  # kept sets' columns, in order
    attempts = 0
    while len(kept) < target and attempts < max_attempts:
        size = min(BATCH, target - len(kept), max_attempts - attempts)
        attempts += size
        # each draw is ranked as it comes, so a batch is held as columns only
        drawn = _columns((draw() for _ in range(size)), rank, size, gamma)
        labels += [e + 1 for e in islice(rank, len(labels), None)]  # first seen here
        at, width = _local(drawn, len(rank))
        batch = _packed(at[drawn], width)  # the batch on its own columns
        alive = np.arange(size)  # the candidates that cleared every block so far
        step = _block(size, len(batch))
        for start in range(0, len(kept), step):
            theirs = _packed(at[rows[start : min(start + step, len(kept))]], width)
            alive = alive[_meets(batch[:, alive], theirs).max(axis=1) <= limit]
            if not len(alive):
                break
        else:  # some candidate cleared every kept set
            mine = batch[:, alive]
            step = _block(len(alive), len(mine))
            clash = np.hstack(
                [_meets(mine, mine[:, lo : lo + step]) for lo in range(0, len(alive), step)]
            ) > limit
            if len(rows) < len(kept) + len(alive):
                rows = np.concatenate([rows, np.empty_like(rows)])
            free = np.ones(len(alive), dtype=bool)
            for i, j in enumerate(alive.tolist()):
                if free[i]:
                    rows[len(kept)] = drawn[j]
                    kept.append(frozenset([labels[c] for c in drawn[j].tolist()]))
                    free &= ~clash[i]
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


def lemma6_check(profile: IntersectionProfile, alpha: Fraction) -> bool:
    """Assert the quadratic intersection bound delta > (1-alpha)*epsilon^2
    on a constant-weight system's profile (from `verify_profile`).

    Requires M > 1 + N/alpha. Under that hypothesis the inequality is a
    theorem, so a False outcome raises BoundViolationError instead of being
    returned.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValidationError("alpha must be in (0,1)")
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
