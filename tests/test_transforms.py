"""The five code-to-code transforms and their exactly verified inequalities.

Each sweep recomputes both acceptance matrices through acceptance_matrix and
re-derives the advertised inequality on its own, so a bug in a transform's
internal check cannot hide itself.
"""

import functools
import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import permid.transforms
from helpers import (
    counts_from_vector_set,
    random_dist,
    random_noiseless_code,
    random_perm_code,
    reference_acceptance_matrix,
    reference_bin_of,
    reference_growth_violations,
    reference_report,
    with_prime_masses,
)
from permid import Dist, NoiselessIdCode, PermIdCode, Stream
from permid.combinatorics import type_index, type_of, type_representative, type_unrank
from permid.errors import BoundViolationError, HypothesisError, ValidationError
from permid.idcode import (
    Acceptance,
    acceptance,
    acceptance_matrix,
    build_multishot_achievable,
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


def _and_prime_twin(code, seed):
    """The code, then the same code with its encoder masses re-drawn over a
    prime near 2^89, whose kernel runs on the object backend, so each sweep
    drives both backends through the step checks. Point-mass encoders keep
    mass 1, so a code of only those has no twin."""
    if all(len(enc.mass) == 1 for enc in code.encoders):
        return (code,)
    twin = with_prime_masses(random.Random(seed), code)
    assert acceptance(twin).num.dtype == object
    return code, twin


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


def test_kernels_over_equal_denominators_compare_numerators():
    kernel = Acceptance(np.array([[1, 2], [3, 4]], dtype=np.int64), np.array([4, 4], dtype=object))
    assert kernel == Acceptance(kernel.num.astype(object), kernel.den.copy())
    changed = kernel.num.copy()
    changed[1, 0] += 1
    assert kernel != Acceptance(changed, kernel.den)
    assert kernel == Acceptance(kernel.num * 3, kernel.den * 3)
    assert kernel != Acceptance(kernel.num[:1, :1], kernel.den[:1])


@pytest.mark.parametrize("bump, fires", [(0, False), (1, True)], ids=["rescaled", "changed"])
def test_lift_check_compares_values_not_numerators(monkeypatch, bump, fires):
    # the lifted code's kernel comes back over doubled row denominators,
    # which leaves every value alone; moving one entry by 1/(2 den) does not
    code = random_perm_code(random.Random(8), 3, 2, 3)
    real = permid.transforms.acceptance

    def doctored(c, rows=None):
        kernel = real(c, rows)
        if isinstance(c, PermIdCode):
            return kernel
        num, den = kernel.num * 2, kernel.den * 2
        num[0, 0] += bump if num[0, 0] < den[0] else -bump
        return Acceptance(num, den)

    monkeypatch.setattr(permid.transforms, "acceptance", doctored)
    if fires:
        with pytest.raises(BoundViolationError) as caught:
            perm_to_noiseless(code)
        assert str(caught.value) == "orbit lift changed the acceptance matrix"
    else:
        step = perm_to_noiseless(code)
        assert step.after == step.before == eval_perm_exact(code)


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


def test_threshold_empties_deterministic_decoders_at_lambda2_one():
    # decoder 2 holds both outcomes, so it accepts message 1 always:
    # alpha = 1 and no outcome's P = 1 lies above it
    code = NoiselessIdCode(
        3,
        [Dist.point(1, size=3), Dist.point(2, size=3)],
        [frozenset({1}), frozenset({1, 2})],
    )
    step = stoch_to_det_decoders(code)
    assert step.before.lambda2 == 1
    assert step.code.decoders == (frozenset(), frozenset())
    assert (step.after.lambda1, step.after.lambda2) == (1, 0)


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
        drawn = random_noiseless_code(
            rand, rand.randint(2, 7), rand.randint(2, 5), decoder_kind="stoch"
        )
        for code in _and_prime_twin(drawn, done):
            old = acceptance_matrix(code)
            lam2 = reference_report(old).lambda2
            step = stoch_to_det_decoders(code)
            # the integer threshold keeps the outcomes the Fraction rule keeps
            assert step.code.decoders == tuple(
                frozenset(k for k, p in dec.items() if p * p > lam2) if isinstance(dec, dict)
                else dec if lam2 < 1 else frozenset()
                for dec in code.decoders
            )
            new = acceptance_matrix(step.code)
            _assert_threshold_bounds(old, new, lam2)
        done += 1


def _assert_threshold_bounds(old, new, lam2):
    """Step 2's three inequalities, entry by entry on Fraction matrices."""
    for i in range(len(old)):
        for j in range(len(old)):
            if i == j:
                gap = old[i][i] - new[i][i]  # miss growth
                assert gap <= 0 or gap * gap <= lam2
            else:
                assert new[i][j] * new[i][j] <= old[i][j]
                assert new[i][j] * new[i][j] * lam2 <= old[i][j] * old[i][j]


def test_int64_kernels_past_2_32_keep_steps_2_and_4_exact():
    # Encoder masses over one prime near 2^20 and stochastic decoders over
    # another put kernel entries near 2^40: int64 holds them, but not the
    # squares and cross products of the step-2 and step-4 checks. Message i
    # sends mostly on its private outcomes i and M + i; every decoder accepts
    # those and the shared outcome N with probability above 7/8, and the rest
    # below 1/4, so thresholding keeps those three and step 4 leaves cross
    # entries strictly between 0 and 1.
    P, Q, M = 1048573, 1048571, 4
    N = 2 * M + 1
    rand = random.Random(41)
    encoders, decoders = [], []
    for i in range(1, M + 1):
        private = (i, M + i)
        mass = {k: rand.randint(1, P // (4 * N)) for k in range(1, N + 1) if k not in private}
        left = P - sum(mass.values())
        mass[i] = rand.randint(1, left - 1)
        mass[M + i] = left - mass[i]
        encoders.append(Dist({k: Fraction(w, P) for k, w in mass.items()}, size=N))
        table = {k: Fraction(rand.randint(1, Q // 4), Q) for k in range(1, N + 1)}
        for k in (*private, N):
            table[k] = Fraction(Q - rand.randint(1, Q // 8), Q)
        decoders.append(table)
    code = NoiselessIdCode(N, encoders, decoders)
    kernel = acceptance(code)
    assert kernel.num.dtype == np.int64 and int(kernel.num.max()) > 2**32

    old = reference_acceptance_matrix(code)
    lam2 = reference_report(old).lambda2
    det = stoch_to_det_decoders(code, kernel)
    assert det.code.decoders == tuple(frozenset({i, M + i, N}) for i in range(1, M + 1))
    new = reference_acceptance_matrix(det.code)
    assert det.after == reference_report(new)
    _assert_threshold_bounds(old, new, lam2)

    restricted = decoder_equals_support(det.code, det.matrix)
    final = reference_acceptance_matrix(restricted.code)
    assert restricted.after == reference_report(final)
    assert any(final[i][j] not in (0, 1) for i in range(M) for j in range(M))
    _assert_support_bounds(new, det.after, final)


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
            drawn = random_noiseless_code(
                rand, rand.randint(2, 7), rand.randint(2, 5), decoder_kind="det"
            )
            gamma = gammas[done % 3]
            for code in _and_prime_twin(drawn, done):
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
        for code in _and_prime_twin(NoiselessIdCode(N, encoders, decoders), done):
            old = acceptance_matrix(code)
            step = decoder_equals_support(code)
            _assert_support_bounds(old, reference_report(old), acceptance_matrix(step.code))
        done += 1


def _assert_support_bounds(old, before, new):
    """Step 4's guarantees, entry by entry on Fraction matrices."""
    for i in range(len(old)):
        assert new[i][i] == 1
        for j in range(len(old)):
            if i != j:
                assert new[i][j] * (1 - before.missed[i]) <= old[i][j]


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
    """An acceptance kernel that holds the given matrix as the integer kernel
    does: each row over its own least common denominator."""
    rows = [[Fraction(p) for p in row] for row in rows]
    den = [math.lcm(*(p.denominator for p in row)) for row in rows]
    num = [[p.numerator * d // p.denominator for p in row] for row, d in zip(rows, den)]
    return Acceptance(np.array(num, dtype=np.int64), np.array(den, dtype=object))


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


def _verdicts(monkeypatch, step, code, kernels, on_objects):
    """The message each kernel's checks raise (None when they pass), and the
    dtypes the checks ran on, with `_compare` kept to Python integers when
    `on_objects` is set."""
    real = permid.transforms._compare
    dtypes = []

    def compare(before, new_code, scale=None):
        out = real(before, new_code, None if on_objects else scale)
        dtypes.append(out[1].dtype)
        return out

    verdicts = []
    with monkeypatch.context() as patch:
        patch.setattr(permid.transforms, "_compare", compare)
        for kernel in kernels:
            try:
                step(code, before=kernel)
                verdicts.append(None)
            except (BoundViolationError, HypothesisError) as caught:
                verdicts.append(f"{type(caught).__name__}: {caught}")
    return verdicts, set(dtypes)


def _doctored(rand, M, den_bits):
    """A random kernel in range: row i over a random denominator of up to
    den_bits bits, its entries anywhere in [0, den]."""
    den = [rand.randint(1, 2**den_bits) for _ in range(M)]
    num = [[rand.randint(0, d) for _ in range(M)] for d in den]
    return Acceptance(np.array(num, dtype=object), np.array(den, dtype=object))


UNIFORM = functools.partial(to_uniform_encoders, gamma=THIRD)


@pytest.mark.parametrize("step", [stoch_to_det_decoders, UNIFORM, decoder_equals_support],
                         ids=lambda step: getattr(step, "func", step).__name__)
def test_int64_checks_give_the_verdicts_of_their_object_twins(monkeypatch, step):
    """Steps 2, 3 and 4 check on int64 when their products cannot wrap. On
    doctored kernels, small and near the int64 limit, each verdict must be
    the one the same checks give on Python integers."""
    rand = random.Random(30)
    int64_runs = 0
    for trial in range(60):
        M = rand.randint(1, 4)
        kind = "det" if step is decoder_equals_support else "stoch"
        code = random_noiseless_code(rand, rand.randint(2, 5), M, kind)
        while kind == "det" and any(not enc.num.keys() & dec
                                    for enc, dec in zip(code.encoders, code.decoders)):
            code = random_noiseless_code(rand, rand.randint(2, 5), M, kind)
        kernels = [_doctored(rand, M, bits) for bits in (3, 12, 20, 31, 33)]
        kernels += [_kernel(rows) for s, rows, _ in DOCTORED
                    if getattr(s, "func", s) is getattr(step, "func", step) and len(rows) == M]
        fast, dtypes = _verdicts(monkeypatch, step, code, kernels, on_objects=False)
        slow, slow_dtypes = _verdicts(monkeypatch, step, code, kernels, on_objects=True)
        assert fast == slow
        assert slow_dtypes == {np.dtype(object)}
        int64_runs += np.dtype(np.int64) in dtypes
    assert int64_runs >= 30


# true kernel [[1/2, 1], [1/2, 1]], which every step passes
TWO = NoiselessIdCode(2, [Dist.uniform([1, 2], size=2)] * 2, [frozenset({1}), frozenset({1, 2})])


def _over(rows, den) -> Acceptance:
    """The kernel of `rows` with every row over the denominator `den`."""
    num = [[Fraction(p) * den for p in row] for row in rows]
    assert all(x.denominator == 1 for row in num for x in row)
    return Acceptance(np.array([[int(x) for x in row] for row in num], dtype=object),
                      np.array([den] * len(rows), dtype=object))


def test_uniform_encoder_checks_keep_python_integers_below_the_minimum_k(monkeypatch):
    # Over 2^40, den * ceil(F * 2^32) passes 2^63 at F = 24.4 (N = 2,
    # gamma = 1/3): the int64 filter would get fewer than 32 fraction bits
    # of F, so step 3 checks on Python integers; at 16 bits it fits.
    wide = _over([[Fraction(1, 2), 1], [Fraction(1, 2), 1]], 2**40)
    kernels = [acceptance(TWO), wide]
    for minimum, want in ((32, [np.int64, object]), (16, [np.int64, np.int64])):
        monkeypatch.setattr(permid.transforms, "MIN_FACTOR_BITS", minimum)
        for kernel, dtype in zip(kernels, want):
            verdicts, dtypes = _verdicts(monkeypatch, UNIFORM, TWO, [kernel], on_objects=False)
            assert (verdicts, dtypes) == ([None], {np.dtype(dtype)})


def _open_entries(monkeypatch):
    """Record the entry count of each `_growth_violations` call."""
    real = permid.transforms._growth_violations
    sizes = []

    def counted(x, *args):
        sizes.append(x.size)
        return real(x, *args)

    monkeypatch.setattr(permid.transforms, "_growth_violations", counted)
    return sizes


def test_entries_the_filter_leaves_open_get_the_oracle_verdict(monkeypatch):
    # Over 2^56 the filter keeps k = 2 fraction bits of F_int = 24.43
    # (N = 2, gamma = 1/3, kappa = 4): ratios new/old in (24.25, 24.5] stay
    # open. Entry (1,2) has ratio 24.47 and fails; (2,1) has 24.39 and passes.
    cross = [2**56 * 100 // 2447, 2**55 * 100 // 2439]
    before = _over([[0, Fraction(cross[0], 2**56)], [Fraction(cross[1], 2**56), 0]], 2**56)
    with pytest.raises(BoundViolationError) as on_objects:
        UNIFORM(TWO, before=before)
    assert str(on_objects.value) == ("internal factor bound fails at entry (1,2): "
                                     f"new=1, old={Fraction(cross[0], 2**56)}, gamma=1/3")
    monkeypatch.setattr(permid.transforms, "MIN_FACTOR_BITS", 0)
    sizes = _open_entries(monkeypatch)
    with pytest.raises(BoundViolationError) as on_int64:
        UNIFORM(TWO, before=before)
    assert str(on_int64.value) == str(on_objects.value)
    assert sizes == [2, 1]  # both open entries, then the published check on the failure


@pytest.mark.parametrize("bits", [4, 30, 50, 56])
def test_int64_entry_filter_gives_the_oracle_mask(monkeypatch, bits):
    """Entries on, near and far from new = F_int * old, over one
    denominator of `bits` bits: the filter keeps 59 - bits fraction bits of
    F_int, and whatever it leaves open, the mask is the oracle's."""
    N, gamma, kappa = 5, Fraction(2, 7), 5
    a_terms, b_terms = permid.transforms._factor_terms(gamma, kappa)["internal factor"]
    factor = permid.transforms._factor_bracket(a_terms, b_terms, N)
    rand = random.Random(bits)
    den = 2**bits - 1
    olds = [rand.randint(0, den // 40) for _ in range(200)]
    f = factor[0]
    news = [min(den, max(0, math.floor(o * f) + rand.randint(-2, 2))) for o in olds]
    news += [0, den, 1]
    olds += [0, 0, 0]
    sizes = _open_entries(monkeypatch)
    mask = permid.transforms._factor_violations(
        np.array([news], dtype=np.int64), np.array([olds], dtype=np.int64),
        np.array([[den]], dtype=np.int64), a_terms, b_terms, N, factor)
    assert mask[0].tolist() == reference_growth_violations(news, olds, N, gamma, kappa)
    assert mask[0].any() and not mask[0].all()
    assert bool(sizes) == (bits > 40)


def test_internal_factor_above_the_published_one_fires(monkeypatch):
    real = permid.transforms._factor_terms

    def doubled(gamma, kappa):  # F_int = 48.9 against F_pub = 30.5
        bounds = real(gamma, kappa)
        a_terms, b_terms = bounds["internal factor"]
        return {**bounds, "internal factor": (a_terms, [(2 * c, e) for c, e in b_terms])}

    UNIFORM(TWO)
    monkeypatch.setattr(permid.transforms, "_factor_terms", doubled)
    with pytest.raises(BoundViolationError) as caught:
        UNIFORM(TWO)
    assert str(caught.value) == "internal factor exceeds the published factor: gamma=1/3, N=2"


@st.composite
def masses(draw):
    """(v, d, N, gamma): any mass, a mass on a floor N^(-gamma b) where that
    is rational, or one below every floor."""
    gamma = draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 5),
                                  Fraction(1, 4), Fraction(3, 7), Fraction(1, 40)]))
    kappa = math.ceil(1 / gamma) + 1
    kind = draw(st.sampled_from(["any", "floor", "below"]))
    if kind == "floor":  # N = m^g2 puts floor b at m^(-g1 b)
        m = draw(st.integers(2, 5))
        N = m**gamma.denominator
        b = draw(st.integers(1, kappa))
        d = m ** (gamma.numerator * b)
        v = 1 + draw(st.sampled_from([-1, 0, 1])) * draw(st.sampled_from([0, 1]))
        return v, d + draw(st.sampled_from([0, -1, 1])) * (v == 1 and d > 2), N, gamma
    N = draw(st.integers(2, 300))
    if kind == "below":  # 1/(2 N^ceil(gamma kappa)) < N^(-gamma kappa)
        return 1, 2 * N ** math.ceil(gamma * kappa), N, gamma
    d = draw(st.integers(1, 10**6))
    return draw(st.integers(1, d)), d, N, gamma


@settings(max_examples=300, deadline=None)
@given(masses())
@example((1, 2, 8, Fraction(1, 3)))  # 8^(-1/3) = 1/2 does not clear its own floor
@example((1, 9, 27, Fraction(1, 3)))
@example((1, 4, 4, Fraction(1, 2)))
@example((1, 10**9, 2, Fraction(1, 2)))  # below every floor
def test_integer_binning_is_the_fraction_binning(drawn):
    v, d, N, gamma = drawn
    kappa = math.ceil(1 / gamma) + 1
    got = permid.transforms._mass_bins({(v, d)}, N, gamma, kappa)
    assert got == {(v, d): reference_bin_of(Fraction(v, d), N, gamma, kappa)}


@pytest.mark.parametrize("v, d, N, gamma, b", [
    (1, 2, 8, THIRD, 2), (2**40 + 1, 2**41, 8, THIRD, 1), (1, 9, 27, THIRD, 3),
    (1, 4, 4, Fraction(1, 2), 3), (1, 3, 4, Fraction(1, 2), 2), (1, 8, 4, Fraction(1, 2), None),
])
def test_a_mass_on_a_floor_sits_in_the_bin_below(v, d, N, gamma, b):
    kappa = math.ceil(1 / gamma) + 1
    assert permid.transforms._mass_bins({(v, d)}, N, gamma, kappa) == {(v, d): b}
    assert reference_bin_of(Fraction(v, d), N, gamma, kappa) == b


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
    for seed in range(100):
        drawn = random_noiseless_code(
            rand, rand.randint(2, 6), rand.randint(1, 6), decoder_kind="mixed"
        )
        for code in _and_prime_twin(drawn, seed):
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
    # step k's output kernel is step k+1's input
    build = build_multishot_achievable(40, 2, 1, Fraction(1, 100), Stream(17, "pipe"))
    steps = soft_converse_pipeline(build.code, Fraction(1, 3)).steps
    for prev, step in zip(steps, steps[1:]):
        assert step.source is prev.matrix


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


# Two different decoders whose intersection with the support is the same
# single point: the restricted codes coincide, so lambda2 ends at 1.
DUPLICATE_SUPPORTS = PermIdCode(
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


def test_pipeline_duplicate_supports_path():
    report = soft_converse_pipeline(DUPLICATE_SUPPORTS, Fraction(1, 2))
    assert report.duplicate_supports
    assert report.system is None and report.profile is None
    assert report.final.lambda2 == 1


def test_pipeline_checks_fire_on_a_doctored_profile_or_kernel(monkeypatch):
    # the profile ratio must equal the final lambda2: one more in Delta breaks it
    n, q = 3, 2
    subsets = [frozenset(s) for s in [(1, 2), (1, 3), (2, 3)]]
    reps = [[type_representative(type_unrank(t, n, q)) for t in sorted(U)] for U in subsets]
    decoders = [full_orbit_counts(sorted(U), n, q) for U in subsets]
    code = PermIdCode(n, q, [Dist.uniform(r) for r in reps], decoders)
    assert soft_converse_pipeline(code, Fraction(1, 2)).profile.ratio == Fraction(1, 2)
    real = permid.transforms.verify_profile
    with monkeypatch.context() as m:
        m.setattr(
            permid.transforms, "verify_profile", lambda s: replace(real(s), delta=real(s).delta + 1)
        )
        with pytest.raises(BoundViolationError, match="ratio 1 differs from final lambda2 1/2"):
            soft_converse_pipeline(code, Fraction(1, 2))
    # equal final supports force lambda2 = 1; a final kernel below 1 must raise
    select = permid.transforms.equal_size_supports

    def doctored(*args):
        return replace(select(*args), matrix=_kernel([[1, Fraction(1, 2)], [Fraction(1, 2), 1]]))

    monkeypatch.setattr(permid.transforms, "equal_size_supports", doctored)
    with pytest.raises(BoundViolationError, match="duplicate supports must force"):
        soft_converse_pipeline(DUPLICATE_SUPPORTS, Fraction(1, 2))


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
    assert lemma6_check(profile, alpha) is True
    assert float(profile.ratio) >= prop2_lower_bound(profile.N, profile.M, alpha)
