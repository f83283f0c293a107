"""The five code-to-code transforms and their exactly verified inequalities.

Each sweep recomputes both acceptance matrices through acceptance_matrix and
re-derives the advertised inequality on its own, so a bug in a transform's
internal check cannot hide itself.
"""

import functools
import math
import random
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np
import pytest

import permid.transforms
from helpers import random_dist, random_noiseless_code, random_perm_code, reference_report
from permid import Dist, NoiselessIdCode, PermIdCode, Stream
from permid.combinatorics import type_index, type_of
from permid.errors import BoundViolationError, HypothesisError, ValidationError
from permid.idcode import (
    Acceptance,
    acceptance,
    acceptance_matrix,
    build_multishot_achievable,
    counts_from_vector_set,
    eval_perm_exact,
    full_orbit_counts,
)
from permid.setsystem import lemma6_check, prop2_lower_bound
from permid.transforms import (
    decoder_equals_support,
    equal_size_supports,
    gamma_for_rate,
    perm_to_noiseless,
    soft_converse_pipeline,
    stoch_to_det_decoders,
    to_uniform_encoders,
)


# -------------------------------------------------------------------- presets


def test_gamma_presets():
    assert gamma_for_rate(Fraction(1), 2) == Fraction(1, 4)
    assert gamma_for_rate(Fraction(1, 2), 3) == Fraction(1, 16)
    assert gamma_for_rate(Fraction(1), 2, 2) == Fraction(1, 8)
    with pytest.raises(ValidationError):
        gamma_for_rate(Fraction(0), 2)
    with pytest.raises(ValidationError):
        gamma_for_rate(Fraction(1), 1)
    with pytest.raises(ValidationError):
        gamma_for_rate(Fraction(1), 2, 0)


# ----------------------------------------------------------------- orbit lift


def test_lift_preserves_error_report():
    rand = random.Random(1001)
    for _ in range(100):
        code = random_perm_code(
            rand, rand.randint(2, 5), rand.randint(2, 3), rand.randint(1, 5)
        )
        step = perm_to_noiseless(code)
        direct = eval_perm_exact(code)
        assert step.before == direct
        assert step.after.accept == direct.accept
        assert step.code.N == code.ground


def test_lift_full_orbit_decoders_become_deterministic():
    xs = [(1, 1, 2, 2), (1, 2, 2, 2)]
    decoders = [
        full_orbit_counts([type_index(type_of(x, 2))], 4, 2) for x in xs
    ]
    code = PermIdCode(4, 2, [Dist.point(x) for x in xs], decoders)
    step = perm_to_noiseless(code)
    assert all(isinstance(d, frozenset) for d in step.code.decoders)


def test_lift_keeps_construction_miss_free():
    build = build_multishot_achievable(40, 2, 1, Fraction(1, 100), Stream(11, "lift"))
    step = perm_to_noiseless(build.code)
    assert step.after.lambda1 == 0
    assert step.code.is_deterministic()


def test_multishot_lift_checks_l():
    rand = random.Random(7)
    code = random_perm_code(rand, 2, 2, 2, l=2)
    step = perm_to_noiseless(code)
    assert step.after == eval_perm_exact(code)


def test_multishot_lift_against_vector_level_brute_force():
    # n=2, q=2, l=2 has only 16 flat outcomes, so the count-based acceptance
    # can be replayed against an explicit sum over output vectors.
    rand = random.Random(5005)
    n, q, l = 2, 2, 2
    cube = [tuple(v) for v in product((1, 2), repeat=n)]
    for _ in range(25):
        vec_sets = []
        encoders = []
        for _ in range(3):
            support = rand.sample([a + b for a in cube for b in cube], rand.randint(1, 4))
            weights = [rand.randint(1, 5) for _ in support]
            tot = sum(weights)
            encoders.append(
                Dist({x: Fraction(w, tot) for x, w in zip(support, weights)})
            )
            region = set(
                rand.sample([a + b for a in cube for b in cube], rand.randint(1, 10))
            )
            vec_sets.append(region)
        decoders = [counts_from_vector_set(sorted(v), n, q, l) for v in vec_sets]
        code = PermIdCode(n, q, encoders, decoders, l=l)
        matrix = acceptance_matrix(code)

        def chan_prob(y, x):
            p = Fraction(1)
            for b in range(l):
                xb, yb = x[b * n : (b + 1) * n], y[b * n : (b + 1) * n]
                tx = type_of(xb, q)
                if type_of(yb, q) != tx:
                    return Fraction(0)
                p *= Fraction(1, sum(1 for v in cube if type_of(v, q) == tx))
            return p

        for i in range(3):
            for j in range(3):
                brute = sum(
                    (
                        pw * chan_prob(y, x)
                        for x, pw in encoders[i].items()
                        for y in vec_sets[j]
                    ),
                    Fraction(0),
                )
                assert brute == matrix[i][j]


# -------------------------------------------------------------- thresholding


def test_threshold_keeps_deterministic_code():
    code = NoiselessIdCode(
        4,
        [Dist.uniform([1, 2], size=4), Dist.uniform([3], size=4)],
        [frozenset({1, 2}), frozenset({2, 3})],
    )
    step = stoch_to_det_decoders(code)
    assert step.before.lambda2 == Fraction(1, 2)
    assert step.code.decoders == code.decoders


def test_threshold_rule_on_single_point():
    # lambda2 = 1/4 makes alpha = 1/2; the 9/10 entry survives, the 2/5 does
    # not (0.4^2 < 1/4).
    code = NoiselessIdCode(
        3,
        [Dist.point(1, size=3), Dist.point(2, size=3)],
        [{1: Fraction(9, 10), 3: Fraction(2, 5)}, {2: Fraction(3, 5), 1: Fraction(1, 4)}],
    )
    before = reference_report(acceptance_matrix(code))
    assert before.lambda2 == Fraction(1, 4)
    step = stoch_to_det_decoders(code)
    assert step.code.decoders[0] == frozenset({1})
    assert step.code.decoders[1] == frozenset({2})


def test_threshold_degenerate_lambda2_zero():
    code = NoiselessIdCode(
        4,
        [Dist.uniform([1, 2], size=4), Dist.point(4, size=4)],
        [{1: Fraction(1, 3), 2: Fraction(1, 2)}, {4: Fraction(2, 3)}],
    )
    assert reference_report(acceptance_matrix(code)).lambda2 == 0
    step = stoch_to_det_decoders(code)
    assert step.code.decoders[0] == frozenset({1, 2})
    assert step.code.decoders[1] == frozenset({4})
    assert step.after.lambda2 == 0


def test_threshold_inequalities_random_sweep():
    rand = random.Random(22)
    done = 0
    while done < 100:
        code = random_noiseless_code(
            rand, rand.randint(2, 7), rand.randint(2, 5), decoder_kind="stoch"
        )
        old = acceptance_matrix(code)
        lam2 = reference_report(old).lambda2
        step = stoch_to_det_decoders(code)
        new = acceptance_matrix(step.code)
        for i in range(code.M):
            for j in range(code.M):
                if i == j:
                    gap = old[i][i] - new[i][i]  # miss growth
                    assert gap <= 0 or gap * gap <= lam2
                else:
                    assert new[i][j] * new[i][j] <= old[i][j]
                    assert new[i][j] * new[i][j] * lam2 <= old[i][j] * old[i][j]
        done += 1


# -------------------------------------------------------------- uniformizing


def test_uniformize_validations():
    code = NoiselessIdCode(4, [Dist.point(1, size=4)], [frozenset({1})])
    with pytest.raises(ValidationError):
        to_uniform_encoders(code, Fraction(2))
    with pytest.raises(HypothesisError):
        to_uniform_encoders(
            NoiselessIdCode(1, [Dist.point(1, size=1)], [frozenset({1})]),
            Fraction(1, 2),
        )


def test_uniformize_keeps_single_bin_encoder():
    # Masses 1/2 sit exactly on the first bin floor (N=4, gamma=1/2), so the
    # whole support lands in bin 2 and the encoder survives unchanged.
    code = NoiselessIdCode(
        4, [Dist.uniform([1, 3], size=4)], [frozenset({1, 3})]
    )
    step = to_uniform_encoders(code, Fraction(1, 2))
    assert step.kappa == 3
    assert step.chosen_bins == (2,)
    assert dict(step.code.encoders[0].items()) == dict(code.encoders[0].items())


def test_uniformize_keeps_point_mass():
    code = NoiselessIdCode(4, [Dist.point(2, size=4)], [frozenset({2})])
    step = to_uniform_encoders(code, Fraction(1, 2))
    assert step.chosen_bins == (1,)
    assert dict(step.code.encoders[0].items()) == {2: Fraction(1)}


def test_uniformize_tie_goes_to_smaller_bin():
    # Bin 2 holds {1} with weight 1/2; bin 3 holds {2,3} with the same
    # weight. The tie must resolve to bin 2.
    enc = Dist({1: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(1, 4)}, size=4)
    code = NoiselessIdCode(4, [enc], [frozenset({1, 2, 3})])
    step = to_uniform_encoders(code, Fraction(1, 2))
    assert step.chosen_bins == (2,)
    assert dict(step.code.encoders[0].items()) == {1: Fraction(1)}


def test_uniformize_integer_inverse_gamma():
    # 1/gamma integral puts kappa on the closed end of its bracket; the
    # transform must accept it.
    rand = random.Random(88)
    code = random_noiseless_code(rand, 5, 3, decoder_kind="det")
    step = to_uniform_encoders(code, Fraction(1, 4))
    assert step.kappa == 5


def test_uniformize_factor_vacuous_flag():
    noisy = NoiselessIdCode(
        4,
        [Dist.uniform([1, 2], size=4), Dist.uniform([2, 3], size=4)],
        [frozenset({1, 2}), frozenset({2, 3})],
    )
    assert to_uniform_encoders(noisy, Fraction(1, 2)).factor_vacuous
    clean = NoiselessIdCode(
        4,
        [Dist.point(1, size=4), Dist.point(3, size=4)],
        [frozenset({1}), frozenset({3})],
    )
    assert not to_uniform_encoders(clean, Fraction(1, 2)).factor_vacuous


def test_uniformize_output_is_uniform():
    rand = random.Random(23)
    for _ in range(40):
        code = random_noiseless_code(rand, rand.randint(2, 7), rand.randint(1, 4))
        step = to_uniform_encoders(code, Fraction(1, 3))
        for enc in step.code.encoders:
            masses = set(enc.mass.values())
            assert len(masses) == 1


def test_uniformize_factor_bound_high_precision_replay():
    # Independent route for the published factor: evaluate
    # new * gamma * (1 - N^-gamma) <= old * (1+2*gamma) * N^gamma
    # with 50-digit interval-free arithmetic and a tiny slack. The module
    # itself decides these signs by integer root brackets; agreement across
    # the two routes guards both.
    rand = random.Random(24)
    gammas = [Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)]
    done = 0
    with mpmath.workdps(50):
        while done < 100:
            code = random_noiseless_code(
                rand, rand.randint(2, 7), rand.randint(2, 5), decoder_kind="det"
            )
            gamma = gammas[done % 3]
            old = acceptance_matrix(code)
            step = to_uniform_encoders(code, gamma)
            new = acceptance_matrix(step.code)
            N = mpmath.mpf(code.N)
            g = mpmath.mpf(gamma.numerator) / gamma.denominator
            for i in range(code.M):
                for j in range(code.M):
                    o = old[i][j] if i != j else 1 - old[i][j]
                    w = new[i][j] if i != j else 1 - new[i][j]
                    lhs = mpmath.mpf(w.numerator) / w.denominator * g * (1 - N**-g)
                    rhs = (
                        mpmath.mpf(o.numerator)
                        / o.denominator
                        * (1 + 2 * g)
                        * N**g
                    )
                    assert lhs <= rhs + mpmath.mpf(10) ** -40
            done += 1


# -------------------------------------------------------- support restriction


def test_support_restriction_example():
    code = NoiselessIdCode(
        4,
        [Dist.uniform([1, 2], size=4), Dist.point(4, size=4)],
        [frozenset({2, 3}), frozenset({4})],
    )
    step = decoder_equals_support(code)
    assert step.code.decoders[0] == frozenset({2})
    assert dict(step.code.encoders[0].items()) == {2: Fraction(1)}
    assert step.after.lambda1 == 0


def test_support_restriction_needs_deterministic():
    code = NoiselessIdCode(2, [Dist.point(1, size=2)], [{1: Fraction(1, 2)}])
    with pytest.raises(ValidationError):
        decoder_equals_support(code)


def test_support_restriction_rejects_dead_message():
    code = NoiselessIdCode(
        3,
        [Dist.point(1, size=3), Dist.point(2, size=3)],
        [frozenset({2}), frozenset({2})],
    )
    with pytest.raises(HypothesisError, match=r"\[1\]"):
        decoder_equals_support(code)


def test_support_inside_decoder_only_shrinks_cross():
    rand = random.Random(25)
    for _ in range(40):
        N = rand.randint(3, 7)
        M = rand.randint(2, 4)
        encoders = [random_dist(rand, N) for _ in range(M)]
        decoders = []
        for enc in encoders:
            extra = set(rand.sample(range(1, N + 1), rand.randint(0, N - 1)))
            decoders.append(frozenset(set(enc.support()) | extra))
        code = NoiselessIdCode(N, encoders, decoders)
        old = acceptance_matrix(code)
        new = acceptance_matrix(decoder_equals_support(code).code)
        for i in range(M):
            for j in range(M):
                if i != j:
                    assert new[i][j] <= old[i][j]


def test_support_restriction_inequalities_random_sweep():
    rand = random.Random(26)
    done = 0
    while done < 100:
        N = rand.randint(3, 7)
        M = rand.randint(2, 5)
        encoders = [random_dist(rand, N) for _ in range(M)]
        decoders = []
        for enc in encoders:
            anchor = rand.choice(sorted(enc.support()))
            rest = set(rand.sample(range(1, N + 1), rand.randint(0, N - 1)))
            decoders.append(frozenset({anchor} | rest))
        code = NoiselessIdCode(N, encoders, decoders)
        old = acceptance_matrix(code)
        before = reference_report(old)
        step = decoder_equals_support(code)
        new = acceptance_matrix(step.code)
        for i in range(M):
            assert new[i][i] == 1
            for j in range(M):
                if i != j:
                    assert new[i][j] * (1 - before.missed[i]) <= old[i][j]
        done += 1


# ---------------------------------------------------- entrywise checks firing

# Each step checks its inequalities against the `before` kernel it is handed.
# A doctored kernel breaks one inequality at some entries but never at all
# of them, so each check must raise at its first failing entry (row-major).
THIRD = Fraction(1, 3)
DOCTORED = [
    (stoch_to_det_decoders, [[1, 0], [0, 1]], "miss of message 1 grew past sqrt(lambda2)"),
    (stoch_to_det_decoders, [[0, Fraction(1, 2)], [0, 0]], "cross 1->2 exceeds lambda/alpha"),
    (stoch_to_det_decoders, [[0, 0], [0, 0]], "cross 1->2 exceeds sqrt(lambda)"),
    (
        functools.partial(to_uniform_encoders, gamma=THIRD),
        [[0, 0], [0, 0]],
        "published factor bound fails at entry (1,2): new=1, old=0, gamma=1/3",
    ),
    # at N = 2 and gamma = 1/3 the internal factor is 24.4 and the published 30.5
    (
        functools.partial(to_uniform_encoders, gamma=THIRD),
        [[Fraction(1, 2), Fraction(1, 27)], [Fraction(1, 2), 1]],
        "internal factor bound fails at entry (1,2): new=1, old=1/27, gamma=1/3",
    ),
    (
        decoder_equals_support,
        [[Fraction(1, 2), 1], [Fraction(1, 4), 1]],
        "cross 2->1 exceeds old/(1 - old miss)",
    ),
]


def _kernel(rows) -> Acceptance:
    """An acceptance kernel that holds the given matrix over one denominator."""
    rows = [[Fraction(p) for p in row] for row in rows]
    den = math.lcm(*(p.denominator for row in rows for p in row))
    num = np.array([[p.numerator * den // p.denominator for p in row] for row in rows])
    ones = np.ones(len(rows), dtype=object)
    return Acceptance(num.astype(object), ones * den, ones, "object")


@pytest.mark.parametrize("step, rows, message", DOCTORED, ids=[m for _, _, m in DOCTORED])
def test_each_entrywise_check_fires_on_a_doctored_kernel(step, rows, message):
    # true kernel [[1/2, 1], [1/2, 1]]: every step passes it
    code = NoiselessIdCode(
        2, [Dist.uniform([1, 2], size=2)] * 2, [frozenset({1}), frozenset({1, 2})]
    )
    assert acceptance_matrix(code) == [[Fraction(1, 2), 1], [Fraction(1, 2), 1]]
    step(code, before=acceptance(code))
    with pytest.raises(BoundViolationError) as caught:
        step(code, before=_kernel(rows))
    assert str(caught.value) == message


# ------------------------------------------------------------- size selection


def test_select_keeps_everything_when_equal():
    code = NoiselessIdCode(
        4,
        [Dist.uniform([1, 2], size=4), Dist.uniform([3, 4], size=4)],
        [frozenset({1, 2}), frozenset({3, 4})],
    )
    step = equal_size_supports(code)
    assert step.kept == (1, 2)
    assert step.code.M == 2
    assert step.support_size == 2


def test_select_smallest_size_wins_ties():
    code = NoiselessIdCode(
        4,
        [
            Dist.point(1, size=4),
            Dist.point(2, size=4),
            Dist.uniform([3, 4], size=4),
        ],
        [frozenset({1}), frozenset({2}), frozenset({3, 4})],
    )
    step = equal_size_supports(code)
    assert step.kept == (1, 2)
    assert step.support_size == 1
    assert step.code.M == 2 >= math.ceil(3 / 4)


def test_select_pigeonhole_random_sweep():
    rand = random.Random(27)
    for _ in range(100):
        code = random_noiseless_code(
            rand, rand.randint(2, 6), rand.randint(1, 6), decoder_kind="mixed"
        )
        before = reference_report(acceptance_matrix(code))
        step = equal_size_supports(code)
        assert step.code.M >= math.ceil(code.M / code.N)
        assert step.after.lambda1 <= before.lambda1
        assert step.after.lambda2 <= before.lambda2
        sizes = {len(e.mass) for e in step.code.encoders}
        assert len(sizes) == 1


# ------------------------------------------------------------------- pipeline


def test_pipeline_step_names_and_m_profile():
    # Small message counts keep lambda2 low enough that the threshold step
    # usually leaves every decoder alive; skip the rare draws where it does
    # not.
    rand = random.Random(31)
    report = code = None
    for _ in range(500):
        code = random_perm_code(rand, 4, 2, rand.randint(2, 3))
        try:
            report = soft_converse_pipeline(code, Fraction(1, 3))
        except HypothesisError:
            continue
        break
    assert report is not None
    names = [s.name for s in report.steps]
    assert names == [
        "noiseless-lift",
        "deterministic-decoders",
        "uniform-encoders",
        "decoder-equals-support",
        "equal-size-supports",
    ]
    for s in report.steps[:4]:
        assert s.code.M == code.M
    assert report.final_code.M <= code.M
    for s in report.steps:
        assert s.checks


def test_pipeline_computes_five_kernels_and_slices_a_sixth(monkeypatch):
    # each step reads its input report off the kernel the previous step
    # handed on; only the input code and steps 1-4's outputs are computed
    calls = []

    def counted(code, rows=None):
        calls.append(code)
        return acceptance(code, rows)

    monkeypatch.setattr(permid.transforms, "acceptance", counted)
    build = build_multishot_achievable(40, 2, 1, Fraction(1, 100), Stream(17, "pipe"))
    steps = soft_converse_pipeline(build.code, Fraction(1, 3)).steps
    assert [id(c) for c in calls] == [id(c) for c in [build.code, *(s.code for s in steps[:4])]]
    assert steps[0].before == eval_perm_exact(build.code)
    for prev, step in zip(steps, steps[1:]):
        assert step.before == prev.after


def test_pipeline_steps_share_kernels_and_exact_pairs():
    # step k's output kernel is step k+1's input, and its exact pair is
    # built once for both
    build = build_multishot_achievable(40, 2, 1, Fraction(1, 100), Stream(17, "pipe"))
    steps = soft_converse_pipeline(build.code, Fraction(1, 3)).steps
    for prev, step in zip(steps, steps[1:]):
        assert step.source is prev.matrix
    for step in steps[:4]:
        assert step.matrix.exact() is step.matrix.exact()


def test_pipeline_profile_matches_lambda2():
    rand = random.Random(32)
    built = 0
    while built < 25:
        code = random_perm_code(rand, rand.randint(3, 5), 2, rand.randint(2, 5))
        try:
            report = soft_converse_pipeline(code, Fraction(1, 3))
        except HypothesisError:
            continue  # a message died at the threshold or support step
        built += 1
        if report.duplicate_supports:
            assert report.final.lambda2 == 1
            assert report.system is None
        else:
            assert report.profile.ratio == report.final.lambda2
            assert report.final.lambda1 == 0


def test_pipeline_duplicate_supports_path():
    # Two different decoders whose intersection with the support is the same
    # single point: the restricted codes coincide, so lambda2 ends at 1.
    code = PermIdCode(
        3,
        2,
        [
            Dist.uniform([(1, 1, 1), (1, 1, 2), (1, 2, 2)]),
            Dist.uniform([(1, 1, 1), (1, 1, 2)]),
        ],
        [
            counts_from_vector_set([(1, 1, 1), (2, 2, 2)], 3, 2),
            counts_from_vector_set([(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1)], 3, 2),
        ],
    )
    report = soft_converse_pipeline(code, Fraction(1, 2))
    assert report.duplicate_supports
    assert report.system is None and report.profile is None
    assert report.final.lambda2 == 1


def test_pipeline_on_achievable_code():
    build = build_multishot_achievable(40, 2, 1, Fraction(1, 100), Stream(17, "pipe"))
    report = soft_converse_pipeline(build.code, gamma_for_rate(Fraction(1), 2))
    assert report.final.lambda1 == 0
    if not report.duplicate_supports:
        assert report.profile.ratio == report.final.lambda2


def test_pipeline_feeds_the_counting_bounds():
    # Six messages, one per 2-subset of the four length-3 binary orbits.
    # The pipeline reproduces that family exactly, and the resulting profile
    # is large enough for the inverse-entropy and quadratic bounds to bite.
    n, q = 3, 2
    subsets = [frozenset(s) for s in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]]
    encoders = []
    decoders = []
    from permid.combinatorics import type_representative, type_unrank

    for U in subsets:
        reps = [type_representative(type_unrank(t, n, q)) for t in sorted(U)]
        encoders.append(Dist.uniform(reps))
        decoders.append(full_orbit_counts(sorted(U), n, q))
    code = PermIdCode(n, q, encoders, decoders)
    report = soft_converse_pipeline(code, Fraction(1, 2))
    assert not report.duplicate_supports
    profile = report.profile
    assert (profile.N, profile.M, profile.gamma, profile.delta) == (4, 6, 2, 1)
    assert report.final.lambda2 == Fraction(1, 2) == profile.ratio
    alpha = Fraction(9, 10)
    assert lemma6_check(report.system, alpha) is True
    assert float(profile.ratio) >= prop2_lower_bound(profile.N, profile.M, alpha)
