"""Code-to-code transformations with exactly verified error guarantees.

Five maps, designed to chain:

1. lift a permutation-channel code to an error-equivalent noiseless code on
   orbit indices (one or several channel uses);
2. threshold stochastic decoders into deterministic ones;
3. flatten each encoder to a uniform distribution on a well-chosen mass bin;
4. shrink each decoder to the encoder support so misses vanish;
5. keep a largest group of messages whose supports share one size.

The composite turns any permutation-channel code into an equal-size support
family whose intersection profile reproduces its cross error. Maps 2-5
receive their input's exact acceptance matrix as `before` (in a chain, the
previous map's `matrix`; computed by the integer kernel when omitted), so
only the output's is derived; a result keeps both kernels and reads its
`before` and `after` reports off them. Each map checks the advertised
inequality entry by entry on the integer numerators (deciding signs
involving powers of N exactly); a failed check raises BoundViolationError,
since it would mean the construction is wrong, not the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .dist import Dist
from .errors import BoundViolationError, HypothesisError, PermidError, ValidationError
from .exact import bracket, floor_log2, power_sign
from .idcode import Acceptance, ErrorReport, NoiselessIdCode, PermIdCode, acceptance
from .setsystem import IntersectionProfile, SetSystem, verify_profile


@dataclass(frozen=True)
class StepResult:
    """One transform application: the new code, the acceptance kernels of
    the input (`source`) and of the new code (`matrix`, the next map's input
    in a chain), and the names of the inequalities that were verified."""

    name: str
    code: NoiselessIdCode
    source: Acceptance = field(repr=False)
    matrix: Acceptance = field(repr=False)
    checks: tuple[str, ...]

    @property
    def before(self) -> ErrorReport:
        return self.source.report

    @property
    def after(self) -> ErrorReport:
        return self.matrix.report


def _compare(before: Acceptance, code: NoiselessIdCode, widest):
    """The acceptance kernel of a step's new code, plus the numerators of
    its input (`old`) and of that kernel (`new`) over one common denominator
    per row, the column `den`. Both kernels' reports are read first: their
    range checks put every numerator in [0, den]. `widest(d)` bounds every
    product the step's checks form from entries over denominators up to d:
    the arrays are int64 when `widest(max(den))` is below 2^63, and Python
    integers otherwise or when `widest` is None, so no product can wrap."""
    after = acceptance(code)
    for kernel in (before, after):
        kernel.report  # noqa: B018 (for its range check)
    den = np.lcm(before.den, after.den)
    dtype = np.int64 if widest is not None and widest(int(den.max())) < 2**63 else object
    den = den.astype(dtype)
    old, new = (k.num.astype(dtype, copy=False) * (den // k.den.astype(dtype))[:, None]
                for k in (before, after))
    return after, old, new, den[:, None]


def _require_none(failed: np.ndarray, message) -> None:
    """Raise BoundViolationError(message(i, j)) at the first (row-major,
    0-based) entry where the check `failed`; message(i) on a 1-D check."""
    if failed.any():
        raise BoundViolationError(message(*np.argwhere(failed)[0]))


def gamma_for_rate(mu: Fraction, q: int, l: int = 1) -> Fraction:
    """Default bin-resolution choice, the same margin spread over l channel
    uses: mu/(4l(q-1))."""
    mu = Fraction(mu)
    if mu <= 0:
        raise ValidationError("mu must be positive")
    if q < 2:
        raise ValidationError("q must be >= 2")
    if l < 1:
        raise ValidationError("l must be >= 1")
    return mu / (4 * l * (q - 1))


def perm_to_noiseless(code: PermIdCode) -> StepResult:
    """Replace the permutation channel by a noiseless channel on orbit
    indices, preserving the acceptance matrix exactly.

    Encoders push forward to output-orbit distributions; decoders become
    stochastic accept tables P(accept | orbit) = count / orbit size. When all
    counts are 0 or full, the table is 0/1-valued and is emitted as a
    deterministic decoder. For l channel uses the ground set is the N^l
    orbit products.
    """
    before = acceptance(code)
    decoders = [
        frozenset(counts) if all(c == code.sizes[t] for t, c in counts.items())
        else {t: Fraction(c, code.sizes[t]) for t, c in counts.items()}
        for counts in code.decoder_counts
    ]
    lifted = NoiselessIdCode(code.ground, code.output_laws, decoders)
    after = acceptance(lifted)
    if after != before:
        raise BoundViolationError("orbit lift changed the acceptance matrix")
    return StepResult("noiseless-lift", lifted, before, after, ("acceptance matrix equal entrywise",))


def stoch_to_det_decoders(code: NoiselessIdCode, before: Acceptance | None = None) -> StepResult:
    """Threshold stochastic decoders at alpha = sqrt(lambda2).

    The new decoder keeps exactly the outcomes with accept probability above
    alpha, tested without radicals as P^2 > lambda2. Guarantees, verified
    exactly per entry: cross acceptances at most lambda_{i->j}/alpha (hence
    at most sqrt(lambda_{i->j})), misses grow by at most alpha. For
    lambda2 = 0 the rule degenerates to keeping the positive-probability
    outcomes, and the same comparisons go through.
    """
    before = acceptance(code) if before is None else before
    lam2 = before.report.lambda2
    p, q = lam2.numerator, lam2.denominator
    decoders = []
    for dec in code.decoders:
        if isinstance(dec, dict):
            # P^2 > lambda2 on integers: numerator(P)^2 * q > p * denominator(P)^2
            decoders.append(frozenset(
                k for k, prob in dec.items()
                if prob.numerator**2 * q > p * prob.denominator**2))
        else:  # every outcome has P = 1, and 1 * 1 > lambda2 holds for all or none
            decoders.append(dec if lam2 < 1 else frozenset())
    new_code = NoiselessIdCode(code.N, code.encoders, decoders)
    # every product below is at most den^2 * max(p, q)
    after, old, new, den = _compare(before, new_code, lambda d: d * d * max(p, q))
    # miss growth (old - new acceptance) = gap / den, on the diagonal alone
    gap, d = np.diagonal(old) - np.diagonal(new), den[:, 0]
    _require_none((gap > 0) & (gap * gap * q > p * d * d),
                  lambda i: f"miss of message {i + 1} grew past sqrt(lambda2)")
    own = np.eye(code.M, dtype=bool)
    for failed, message in (
        (~own & (new * new * p > old * old * q),
         lambda i, j: f"cross {i + 1}->{j + 1} exceeds lambda/alpha"),
        (~own & (new * new > old * den),
         lambda i, j: f"cross {i + 1}->{j + 1} exceeds sqrt(lambda)"),
    ):
        _require_none(failed, message)
    return StepResult("deterministic-decoders", new_code, before, after, (
        "cross * alpha <= old cross (squared form)",
        "cross <= sqrt(old cross) (squared form)",
        "miss increase <= alpha (squared form)",
    ))


# The fewest fraction bits of the internal factor F for which step 3 checks
# its bound on int64: F is rounded outward to a multiple of 2^-k, and the
# entries closer to the bound than that are left to Python integers. Below
# this k, step 3 checks every entry on Python integers instead.
MIN_FACTOR_BITS = 32


def _mass_bins(masses, N: int, gamma: Fraction, kappa: int) -> dict:
    """Bin index of each mass v/d in `masses` (pairs (v, d)), or None when it
    falls below every bin: bin b holds N^(-gamma*b) < v/d <= N^(-gamma*(b-1)).
    For gamma = g1/g2, v/d clears bin b's floor iff v^g2 * N^(g1*b) > d^g2,
    and the first floor cleared is the bin, because the ceilings nest."""
    g1, g2 = gamma.numerator, gamma.denominator
    floors = []  # N^(g1*b) for b = 1, 2, ..., made as far as some mass needs
    tops = {d: d**g2 for _, d in masses}
    bins = {}
    for v, d in masses:
        low, bins[v, d] = v**g2, None
        for b in range(1, kappa + 1):
            if b > len(floors):
                floors.append(N ** (g1 * b))
            if low * floors[b - 1] > tops[d]:
                bins[v, d] = b
                break
    return bins


def _growth_violations(x, y, a_terms, b_terms, N: int) -> np.ndarray:
    """Mask of the entries where x * A + y * B > 0, for nonnegative integer
    arrays x, y (of any shape) whose entries at one position share one
    positive denominator, and A, B sums of c * N**e given as (c, e) terms.
    One bracket each of A and B settles almost every entry; power_sign
    decides the rest exactly. x and y hold Python integers: the brackets'
    numerators run to 64 bits, so their products with the entries would
    wrap int64. Step 3 hands it only the entries its int64 filter leaves
    open, or every entry when that filter cannot run."""

    def scaled(a, b):  # x * a + y * b, times the positive a.den * b.den
        return x * (a.numerator * b.denominator) + y * (b.numerator * a.denominator)

    (a_lo, a_hi), (b_lo, b_hi) = bracket(a_terms, N, 64), bracket(b_terms, N, 64)
    bad = scaled(a_lo, b_lo) > 0
    for at in zip(*np.nonzero(~bad & (scaled(a_hi, b_hi) > 0))):
        terms = [(x[at] * c, e) for c, e in a_terms] + [(y[at] * c, e) for c, e in b_terms]
        bad[at] = power_sign(terms, N) > 0
    return bad


def _factor_terms(gamma: Fraction, kappa: int) -> dict:
    """Step 3's two growth bounds, each new <= F * old written as
    new * A + old * B <= 0 with F = -B/A, A and B as (c, e) terms of c * N**e.
    The kappa bracket makes A > 0 > B in both."""
    return {
        "published factor": ([(gamma, 0), (-gamma, -gamma)], [(-1 - 2 * gamma, gamma)]),
        "internal factor": ([(1, 0), (-1, 1 - gamma * kappa)], [(-kappa, gamma)]),
    }


def _factor_bracket(a_terms, b_terms, N: int) -> tuple[Fraction, Fraction]:
    """Rationals lo <= F <= hi for F = -B/A, from one 64-bit bracket each of
    A and B. The filter needs A > 0 > B; for step 3's bounds A stays above
    2^-64 at any gamma whose powers `bracket` can take."""
    (a_lo, a_hi), (b_lo, b_hi) = bracket(a_terms, N, 64), bracket(b_terms, N, 64)
    if a_lo <= 0 or b_hi >= 0:
        raise PermidError("factor bracket does not show A > 0 > B")
    return -b_hi / a_hi, -b_lo / a_lo


def _factor_violations(new, old, den, a_terms, b_terms, N: int, factor) -> np.ndarray:
    """Mask of the entries where new > F * old, for the bound new * A + old * B
    <= 0 with `factor` its bracket lo <= F <= hi.

    On int64 arrays F is rounded outward to lo_k / 2^k <= F <= hi_k / 2^k with
    the largest k for which max(den) * max(hi_k, 2^k) is below 2^63, so no
    product wraps. An entry passes when new * 2^k <= old * lo_k and fails
    when new * 2^k > old * hi_k; `_growth_violations` decides the entries
    left open between the two, which on Python-integer arrays are all of
    them."""
    bad = np.zeros(new.shape, dtype=bool)
    left = np.ones(new.shape, dtype=bool)
    if new.dtype == np.int64:
        lo, hi = factor
        k = floor_log2(Fraction((2**63 - 1) // int(den.max())) / max(hi, 1))
        lo_k, hi_k = math.floor(lo * 2**k), math.ceil(hi * 2**k)
        shifted = new << k
        bad = shifted > old * hi_k
        left = ~bad & (shifted > old * lo_k)
    at = np.nonzero(left)
    if at[0].size:
        bad[at] = _growth_violations(new[at].astype(object), old[at].astype(object),
                                     a_terms, b_terms, N)
    return bad


@dataclass(frozen=True)
class UniformizeResult(StepResult):
    """Step-3 payload: the resolution gamma, the bin count kappa, each
    message's chosen bin, and whether the published factor is vacuous
    (old lambda2 times factor at least 1)."""

    gamma: Fraction
    kappa: int
    chosen_bins: tuple[int, ...]
    factor_vacuous: bool


def to_uniform_encoders(
    code: NoiselessIdCode, gamma: Fraction, before: Acceptance | None = None
) -> UniformizeResult:
    """Make every encoder uniform by keeping its heaviest mass bin.

    Masses are binned on the geometric grid N^(-gamma*b), b = 1..kappa with
    kappa = ceil(1/gamma) + 1; each encoder becomes uniform on its
    largest-mass bin U_i (ties to the smallest bin index). Each entry of the
    acceptance matrix, and each miss, grows by at most the factor
    (1+2*gamma)*N^gamma / (gamma*(1-N^(-gamma))); the construction actually
    achieves the sharper kappa*N^gamma / (1-N^(1-gamma*kappa)). Masses are
    binned on integers. `power_sign` shows once that the sharper factor is
    at most the published one, so the published bound holds wherever the
    sharper one does; the sharper one is verified per entry, on int64 with
    the factor rounded outward where no product can wrap, and by a
    certified bracket of each power of N, then `power_sign`, at the entries
    rounding leaves open (at all of them on the Python-integer path). The
    published bound is checked on the failing entries only, to name the
    first failure. It is also flagged as vacuous when old-lambda2 times the
    factor reaches 1.
    """
    gamma = Fraction(gamma)
    if not 0 < gamma < 1:
        raise ValidationError("gamma must be in (0,1)")
    N = code.N
    if N < 2:
        raise HypothesisError("binning needs a ground set with N >= 2")
    kappa = math.ceil(1 / gamma) + 1
    # kappa sits strictly between the endpoints used to simplify the factor:
    # (1+gamma)/gamma <= kappa < (1+2*gamma)/gamma, the left side tight when
    # 1/gamma is an integer.
    if not ((1 + gamma) / gamma <= kappa < (1 + 2 * gamma) / gamma):
        raise PermidError(f"kappa = {kappa} outside its bracket for gamma = {gamma}")
    before = acceptance(code) if before is None else before
    encoders = []
    chosen = []
    masses = {(v, enc.den) for enc in code.encoders for v in enc.num.values()}
    bin_of = _mass_bins(masses, N, gamma, kappa)  # once each
    for enc in code.encoders:
        bins: dict[int, list] = {}
        for k, v in enc.num.items():
            b = bin_of[v, enc.den]
            if b is not None:
                bins.setdefault(b, []).append(k)
        if not bins:
            raise HypothesisError(
                "every encoder mass sits below the last bin floor; "
                "impossible at total mass 1, so the encoder is malformed"
            )
        weight = {b: sum(enc.num[k] for k in ks) for b, ks in sorted(bins.items())}  # over enc.den
        b_star = max(weight, key=weight.__getitem__)  # ties go to the smallest bin
        chosen.append(b_star)
        encoders.append(Dist.uniform(bins[b_star], size=code.N))
    new_code = NoiselessIdCode(code.N, encoders, code.decoders)
    bounds = _factor_terms(gamma, kappa)
    (a_pub, b_pub), (a_int, b_int) = bounds["published factor"], bounds["internal factor"]
    # F_int <= F_pub, i.e. B_pub * A_int - B_int * A_pub <= 0 as A > 0 > B in
    # both: then an entry within the internal factor is within the published
    # one, since old >= 0, and only the internal bound is checked per entry
    if power_sign([(c * d, e + f) for c, e in b_pub for d, f in a_int]
                  + [(-c * d, e + f) for c, e in b_int for d, f in a_pub], N) > 0:
        raise BoundViolationError(
            f"internal factor exceeds the published factor: gamma={gamma}, N={N}")
    factor = _factor_bracket(a_int, b_int, N)
    # int64 when the filter keeps MIN_FACTOR_BITS fraction bits of F_int or
    # more: its products are at most den * max(hi_k, 2^k), hi_k ~ F_int * 2^k
    after, old, new, den = _compare(
        before, new_code, lambda d: d * math.ceil(max(factor[1], 1) * 2**MIN_FACTOR_BITS))
    own = np.eye(code.M, dtype=bool)
    # misses on the diagonal, cross acceptances elsewhere
    old = np.where(own, den - old, old)
    new = np.where(own, den - new, new)
    failed = np.nonzero(_factor_violations(new, old, den, a_int, b_int, N, factor))
    if failed[0].size:
        # the published bound fails only where the internal one does; its
        # first failure, else the internal bound's, is the one reported
        published = _growth_violations(new[failed].astype(object), old[failed].astype(object),
                                       a_pub, b_pub, N)
        label = "published factor" if published.any() else "internal factor"
        i, j = (int(at[np.argmax(published)]) for at in failed)
        raise BoundViolationError(
            f"{label} bound fails at entry ({i + 1},{j + 1}): "
            f"new={Fraction(int(new[i, j]), int(den[i, 0]))}, "
            f"old={Fraction(int(old[i, j]), int(den[i, 0]))}, gamma={gamma}")
    lam2 = before.report.lambda2
    vacuous = power_sign([(lam2 * (1 + 2 * gamma), gamma), (-gamma, 0), (gamma, -gamma)], N) >= 0
    return UniformizeResult("uniform-encoders", new_code, before, after, (
        "entrywise growth within published factor",
        "entrywise growth within internal factor",
        "kappa bracket",
    ), gamma, kappa, tuple(chosen), vacuous)


def decoder_equals_support(code: NoiselessIdCode, before: Acceptance | None = None) -> StepResult:
    """Condition each encoder on its own decoder and shrink the decoder to
    the surviving support, so every message is always detected.

    Needs every miss probability below 1; a message whose encoder never hits
    its decoder has nothing to condition on and is rejected as inapplicable.
    Cross entries obey new * (1 - old miss of the sender) <= old, exactly.
    """
    if not code.is_deterministic():
        raise ValidationError(
            "support restriction expects deterministic decoders; "
            "threshold the code first"
        )
    before = acceptance(code) if before is None else before
    dead = [i + 1 for i in range(code.M) if before.report.missed[i] == 1]
    if dead:
        raise HypothesisError(
            f"messages {dead} never hit their decoder (miss probability 1); "
            "support restriction is inapplicable to them"
        )
    encoders, decoders = [], []
    for enc, dec in zip(code.encoders, code.decoders):
        kept = {k: v for k, v in enc.num.items() if k in dec}
        encoders.append(Dist.from_counts(kept, size=code.N))
        decoders.append(frozenset(kept))
    new_code = NoiselessIdCode(code.N, encoders, decoders)
    after, old, new, den = _compare(before, new_code, lambda d: d * d)
    if after.report.lambda1 != 0:
        raise BoundViolationError("support restriction left a positive miss")
    # 1 - old miss of sender i is its old own acceptance old[i, i] / den[i, 0]
    _require_none(
        ~np.eye(code.M, dtype=bool) & (new * np.diagonal(old)[:, None] > old * den),
        lambda i, j: f"cross {i + 1}->{j + 1} exceeds old/(1 - old miss)",
    )
    return StepResult("decoder-equals-support", new_code, before, after, (
        "all misses exactly 0", "cross * (1 - old miss) <= old cross",
    ))


@dataclass(frozen=True)
class SelectResult(StepResult):
    """Step-5 payload: which messages were kept and their shared support size."""

    kept: tuple[int, ...]
    support_size: int


def equal_size_supports(code: NoiselessIdCode, before: Acceptance | None = None) -> SelectResult:
    """Keep a largest group of messages with equal support size.

    Supports of distinct sizes can only form at most N groups, so the kept
    group has at least ceil(M/N) messages; ties go to the smallest size.
    Both error figures can only shrink, since the kept code is a sub-family;
    its acceptance matrix is sliced out of `before`, not recomputed.
    """
    before = acceptance(code) if before is None else before
    by_size: dict[int, list[int]] = {}
    for i, enc in enumerate(code.encoders, start=1):
        by_size.setdefault(len(enc.num), []).append(i)
    k_star = max(sorted(by_size), key=lambda k: len(by_size[k]))  # ties to the smallest size
    kept = tuple(by_size[k_star])
    new_code = NoiselessIdCode(
        code.N,
        [code.encoders[i - 1] for i in kept],
        [code.decoders[i - 1] for i in kept],
    )
    after = before.take([i - 1 for i in kept])
    old, new = before.report, after.report
    if len(kept) * code.N < code.M:
        raise BoundViolationError("pigeonhole failed: kept group below M/N")
    if new.lambda1 > old.lambda1 or new.lambda2 > old.lambda2:
        raise BoundViolationError("sub-family increased an error figure")
    return SelectResult("equal-size-supports", new_code, before, after, (
        "kept count >= ceil(M/N)", "lambda1 and lambda2 not increased",
    ), kept, k_star)


@dataclass(frozen=True)
class PipelineReport:
    """End-to-end result of the five-step chain.

    `system` collects the final equal-size supports; when two messages end
    with the same support the system cannot be formed from distinct sets, so
    it is omitted and `duplicate_supports` is set (the final lambda2 is then
    exactly 1). Otherwise the profile's Delta/Gamma equals the final lambda2
    (0 when a single message survives), which is re-checked here.
    """

    steps: tuple[StepResult, ...]
    final_code: NoiselessIdCode
    final: ErrorReport
    system: SetSystem | None
    profile: IntersectionProfile | None
    duplicate_supports: bool


def soft_converse_pipeline(code: PermIdCode, gamma: Fraction) -> PipelineReport:
    """Run the full chain on a permutation-channel code and distill the
    resulting equal-size support family with its intersection profile."""
    lift = perm_to_noiseless(code)
    det = stoch_to_det_decoders(lift.code, lift.matrix)
    uni = to_uniform_encoders(det.code, gamma, det.matrix)
    restricted = decoder_equals_support(uni.code, uni.matrix)
    selected = equal_size_supports(restricted.code, restricted.matrix)
    final_code = selected.code
    final = selected.after
    supports = [frozenset(enc.support()) for enc in final_code.encoders]
    duplicates = len(set(supports)) < len(supports)
    system = profile = None
    if duplicates:
        if final.lambda2 != 1:
            raise BoundViolationError(
                "duplicate supports must force a cross acceptance of 1"
            )
    else:
        system = SetSystem(final_code.N, tuple(supports))
        profile = verify_profile(system)
        expected = Fraction(profile.delta, profile.gamma)
        if expected != final.lambda2:
            raise BoundViolationError(
                f"profile ratio {expected} differs from final lambda2 {final.lambda2}"
            )
    return PipelineReport(
        steps=(lift, det, uni, restricted, selected),
        final_code=final_code,
        final=final,
        system=system,
        profile=profile,
        duplicate_supports=duplicates,
    )
