"""Identification codes: containers, exact and Monte Carlo evaluation, the
orbit-union constructions, and the pairwise converse floor."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    accept_prob,
    accept_prob_for_orbit,
    counts_from_vector_set,
    fractions,
    mpmath_cap,
    random_noiseless_code,
    random_perm_code,
    reference_report,
)
from permid import (
    Dist,
    NoiselessIdCode,
    PermIdCode,
    Stream,
    tv_distance,
)
from permid.combinatorics import (
    count_types,
    type_index,
    type_of,
    type_representative,
    type_unrank,
    typeclass_size,
)
from permid.errors import HypothesisError, ValidationError
import permid.idcode as idcode
from permid.idcode import (
    AchievableParams,
    acceptance_matrix,
    achievable_params,
    build_multishot_achievable,
    check_strong_converse,
    eval_noiseless,
    eval_perm_exact,
    eval_perm_mc,
    full_orbit_counts,
    min_feasible_n,
    strong_converse_floor,
)
from permid.serialize import code_from_json, code_to_json, dumps


def u(*keys, size=None):
    return Dist.uniform(keys, size=size)


# ------------------------------------------------------------------ containers


def test_noiseless_code_validations():
    enc = [u(1, size=3), u(2, size=3)]
    with pytest.raises(ValidationError):
        NoiselessIdCode(3, enc, [frozenset({1})])
    with pytest.raises(ValidationError):
        NoiselessIdCode(3, enc, [frozenset({1}), frozenset({4})])
    with pytest.raises(ValidationError):
        NoiselessIdCode(3, enc, [frozenset({1}), {2: Fraction(3, 2)}])
    with pytest.raises(ValidationError):
        NoiselessIdCode(2, enc, [frozenset({1}), frozenset({2})])
    with pytest.raises(ValidationError):
        NoiselessIdCode(3, [], [])


def test_noiseless_decoder_zero_entries_dropped():
    code = NoiselessIdCode(
        3, [u(1, size=3)], [{1: Fraction(1, 2), 2: Fraction(0)}]
    )
    assert code.decoders[0] == {1: Fraction(1, 2)}
    assert accept_prob(code, 1, 2) == 0
    assert not code.is_deterministic()


def test_perm_code_validations():
    enc = [u((1, 1, 2))]
    with pytest.raises(ValidationError):
        PermIdCode(3, 2, enc, [{1: 4}])  # orbit 1 is (1,1,1), size 1
    with pytest.raises(ValidationError):
        PermIdCode(3, 2, enc, [{0: 1}])
    with pytest.raises(ValidationError):
        PermIdCode(3, 2, enc, [{1: -1}])
    with pytest.raises(ValidationError):
        PermIdCode(3, 2, [u((1, 1))], [{1: 1}])
    with pytest.raises(ValidationError):
        PermIdCode(3, 2, enc, [{1: 1}], l=0)


@pytest.mark.parametrize(
    "counts", [{1: True}, {True: 1}, {1: False}, {1: 1.0}, {1.0: 1}, {1: 1}, {1: 0}, {}]
)
def test_perm_code_takes_only_codes_its_own_file_can_carry(counts):
    # a bool is an int to isinstance, and a JSON file would carry it as
    # true, which code_from_json refuses; so the constructor refuses it too
    enc = [u((1, 1, 2))]
    try:
        code = PermIdCode(3, 2, enc, [counts])
    except ValidationError:
        assert any(type(v) is not int for v in (*counts, *counts.values()))
        return
    back = code_from_json(json.loads(dumps(code_to_json(code))))
    assert back.decoder_counts == code.decoder_counts == ({1: 1} if counts.get(1) else {},)
    assert [(dict(e.num), e.den) for e in back.encoders] == [(dict(e.num), e.den) for e in enc]


def test_perm_code_drops_zero_counts():
    code = PermIdCode(3, 2, [u((1, 1, 2))], [{1: 1, 2: 0}])
    assert code.decoder_counts[0] == {1: 1}


def test_counts_from_vector_set():
    vs = [(1, 1, 2), (1, 2, 1), (2, 2, 2)]
    counts = counts_from_vector_set(vs, 3, 2)
    t_112 = type_index(type_of((1, 1, 2), 2))
    t_222 = type_index(type_of((2, 2, 2), 2))
    assert counts == {t_112: 2, t_222: 1}
    with pytest.raises(ValidationError):
        counts_from_vector_set([(1, 1, 2), (1, 1, 2)], 3, 2)


def test_full_orbit_counts_matches_sizes():
    counts = full_orbit_counts([1, 3], 4, 2)
    for t, c in counts.items():
        assert c == typeclass_size(type_unrank(t, 4, 2))
    # l = 2 products multiply the block sizes.
    counts2 = full_orbit_counts([1], 2, 2, l=2)
    assert counts2 == {1: typeclass_size(type_unrank(1, 2, 2)) ** 2}


def test_orbit_bookkeeping():
    code = PermIdCode(4, 2, [u((1, 1, 2, 2))], [{}])
    t = code.input_orbit((1, 1, 2, 2))
    assert code.orbit_size(t) == 6
    assert accept_prob_for_orbit(code, 1, t) == 0
    out = code.output_laws[0]
    assert out.size == code.ground and out[t] == 1


def test_orbit_caches_still_validate():
    # equal tuples get one orbit; equal-looking inputs of the wrong kind are
    # refused, and so are sizes asked for at anything but an orbit index
    x = (1, 1, 2, 2)
    code = PermIdCode(4, 2, [u(x)], [{}])
    t = code.input_orbit(x)
    assert code.input_orbit(tuple(x)) == code.input_orbit((1, 1, 2, 2)) == t
    for bad in ([1, 1, 2, 2], (1.0, 1, 2, 2), (1, 1, 2), (1, 1, 2, 3), (1, "2", 2, 2)):
        with pytest.raises(ValidationError):
            code.input_orbit(bad)
        # the constructor checks each encoder vector the same way
        if isinstance(bad, tuple):
            with pytest.raises(ValidationError):
                PermIdCode(4, 2, [u(bad)], [{}])
    assert code.orbit_size(t) == code.orbit_size(t) == 6
    for bad in (float(t), 0, code.ground + 1):
        with pytest.raises(ValidationError):
            code.orbit_size(bad)


# ------------------------------------------------------------------- noiseless


def test_noiseless_disjoint_code_is_perfect():
    code = NoiselessIdCode(
        4, [u(1, 2, size=4), u(3, 4, size=4)], [frozenset({1, 2}), frozenset({3, 4})]
    )
    rep = eval_noiseless(code)
    assert rep.lambda1 == 0 and rep.lambda2 == 0
    assert rep.total == 0


def test_noiseless_identical_pair_fully_confusable():
    enc = u(1, 2, size=4)
    code = NoiselessIdCode(4, [enc, enc], [frozenset({1, 2}), frozenset({1, 2})])
    rep = eval_noiseless(code)
    assert rep.lambda1 == 0
    assert rep.lambda2 == 1
    assert fractions(rep.accept)[0][1] == 1


def test_noiseless_half_overlap():
    code = NoiselessIdCode(
        4, [u(1, 2, size=4), u(2, size=4)], [frozenset({1, 2}), frozenset({2})]
    )
    rep = eval_noiseless(code)
    assert fractions(rep.accept)[0][1] == Fraction(1, 2)
    assert rep.argmax_cross == (2, 1)  # decoder 1 always accepts message 2


def test_noiseless_stochastic_formula():
    enc = Dist({1: Fraction(1, 3), 2: Fraction(2, 3)}, size=2)
    dec = {1: Fraction(1, 4), 2: Fraction(1, 2)}
    code = NoiselessIdCode(2, [enc], [dec])
    rep = eval_noiseless(code)
    want_accept = Fraction(1, 3) * Fraction(1, 4) + Fraction(2, 3) * Fraction(1, 2)
    assert rep.missed[0] == 1 - want_accept
    assert rep.lambda2 == 0 and rep.argmax_cross is None


def test_report_fields_on_single_message():
    code = NoiselessIdCode(2, [u(1, size=2)], [frozenset({2})])
    rep = eval_noiseless(code)
    assert rep.M == 1
    assert rep.lambda1 == 1 and rep.argmax_miss == 1
    assert rep.lambda2 == 0
    assert rep.total == 1


# ----------------------------------------------------------------- permutation


def test_perm_disjoint_full_orbits_perfect():
    xs = [(1, 1, 1, 1), (1, 1, 2, 2)]
    encoders = [u(x) for x in xs]
    decoders = [
        full_orbit_counts([type_index(type_of(x, 2))], 4, 2) for x in xs
    ]
    rep = eval_perm_exact(PermIdCode(4, 2, encoders, decoders))
    assert rep.lambda1 == 0 and rep.lambda2 == 0


def test_perm_half_typeclass_miss():
    t = type_index(type_of((1, 1, 2, 2), 2))
    assert typeclass_size(type_unrank(t, 4, 2)) == 6
    code = PermIdCode(4, 2, [u((1, 1, 2, 2))], [{t: 3}])
    rep = eval_perm_exact(code)
    assert rep.missed[0] == Fraction(1, 2)
    assert rep.lambda1 == Fraction(1, 2)


def test_perm_matrix_agrees_with_report(subtests=None):
    rand = random.Random(404)
    for trial in range(30):
        l = 1 if trial % 3 else 2
        code = random_perm_code(rand, rand.randint(2, 4), rand.randint(2, 3),
                                rand.randint(1, 5), l=l)
        rep = eval_perm_exact(code)
        via_matrix = reference_report(acceptance_matrix(code))
        assert rep == via_matrix


def test_noiseless_matrix_agrees_with_report():
    rand = random.Random(405)
    for _ in range(30):
        code = random_noiseless_code(rand, rand.randint(2, 6), rand.randint(1, 5),
                                     decoder_kind="mixed")
        assert eval_noiseless(code) == reference_report(acceptance_matrix(code))


# ---------------------------------------------------------------- monte carlo


def test_mc_is_deterministic_per_seed():
    rand = random.Random(77)
    code = random_perm_code(rand, 4, 2, 3)
    a = eval_perm_mc(code, 2000, Stream(123, "mc"))
    b = eval_perm_mc(code, 2000, Stream(123, "mc"))
    assert a == b
    c = eval_perm_mc(code, 2000, Stream(124, "mc"))
    assert a != c


def test_mc_never_misses_on_full_orbit_decoders():
    xs = [(1, 1, 1, 2), (1, 2, 2, 2)]
    encoders = [u(x) for x in xs]
    decoders = [
        full_orbit_counts([type_index(type_of(x, 2))], 4, 2) for x in xs
    ]
    code = PermIdCode(4, 2, encoders, decoders)
    rep = eval_perm_mc(code, 5000, Stream(9, "zero"))
    assert rep.lambda1_hat == 0.0


def test_mc_matches_known_half():
    # Cross acceptance of exactly 1/2: decoder 2 holds half of the orbit of
    # message 1. Binomial std error at 1e5 trials is 0.00158.
    t = type_index(type_of((1, 1, 2, 2), 2))
    code = PermIdCode(
        4,
        2,
        [u((1, 1, 2, 2)), u((1, 1, 1, 1))],
        [{t: 6}, {t: 3, type_index(type_of((1, 1, 1, 1), 2)): 1}],
    )
    exact = eval_perm_exact(code)
    assert fractions(exact.accept)[0][1] == Fraction(1, 2)
    mc = eval_perm_mc(code, 100_000, Stream(31, "half"))
    sigma = (0.25 / 100_000) ** 0.5
    assert abs(mc.accept_hat[0][1] - 0.5) <= 3 * sigma


def test_mc_within_four_sigma_of_exact():
    rand = random.Random(52)
    trials = 100_000
    for k in range(50):
        code = random_perm_code(
            rand,
            rand.randint(2, 6),
            rand.randint(2, 3),
            rand.randint(2, 4),
            max_support=3,
            max_decoder=8,
        )
        exact = eval_perm_exact(code)
        mc = eval_perm_mc(code, trials, Stream(1000 + k, "sweep"))
        matrix = fractions(exact.accept)
        for i in range(code.M):
            for j in range(code.M):
                p = float(matrix[i][j])
                sigma = (p * (1.0 - p) / trials) ** 0.5
                gap = abs(mc.accept_hat[i][j] - p)
                assert gap <= max(4 * sigma, 1e-12), (k, i, j, p, gap)


# --------------------------------------------------------------- construction


def test_achievable_params_oneshot_oracles():
    expect = {40: (6, 10), 60: (7, 9), 80: (8, 9)}
    for n, (gamma, cap) in expect.items():
        par = achievable_params(n, 2, Fraction(1, 100))
        assert isinstance(par, AchievableParams)
        assert par.N == n + 1
        assert (par.gamma, par.cap) == (gamma, cap)
        assert par.target == 2
        assert par.cap_vacuous  # cap >= gamma at these scales
        assert par.lambda2_budget == Fraction(cap, gamma)
        assert par.a == Fraction(n, 100) + 1


def test_achievable_params_multishot_oracle():
    par = achievable_params(12, 2, Fraction(1, 16), l=2)
    assert (par.N, par.ground) == (13, 169)
    assert par.a == 10
    assert (par.gamma, par.cap, par.target) == (17, 21, 512)
    assert par.cap_vacuous


def test_achievable_params_at_powers_of_two():
    # N = n + 1 and s = a + log2 N are powers of two, so 4s / log2(N/s) is an
    # integer: the cap has no fractional part to separate from the floor
    for n, eps, want in [
        (255, Fraction(7, 255), (16, 16, 128)),
        (511, Fraction(22, 511), (32, 32, 4194304)),
        (4095, Fraction(1, 1365), (16, 8, 8)),
    ]:
        par = achievable_params(n, 2, eps)
        assert (par.gamma, par.cap, par.target) == want


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 400),
    q=st.integers(2, 4),
    l=st.integers(1, 3),
    num=st.integers(1, 50),
    den=st.integers(2, 5000),
)
def test_cap_equals_mpmath_where_unambiguous(n, q, l, num, den):
    epsilon = Fraction(num, den)
    assume(epsilon < 1 and idcode._eps_prime_small(n, q, epsilon, l))
    # the cap alone: the target 2^(a-1) can be astronomically large here
    a, N = epsilon * n ** (l * (q - 1)) + 1, count_types(n, q)
    want = mpmath_cap(a, N, l)
    assert want is None or idcode._stable_cap(a, N, l) == want


def test_achievable_params_reports_minimal_n():
    with pytest.raises(HypothesisError, match="smallest workable n is 7"):
        achievable_params(3, 2, Fraction(1, 16), l=2)
    with pytest.raises(HypothesisError, match="smallest workable n is 40"):
        achievable_params(12, 2, Fraction(1, 100))
    with pytest.raises(HypothesisError, match="no n up to 4096 works"):
        achievable_params(12, 2, Fraction(1, 5))


def test_min_feasible_n_values():
    assert min_feasible_n(2, Fraction(1, 100)) == 40
    assert min_feasible_n(2, Fraction(1, 16), l=2) == 7
    assert min_feasible_n(2, Fraction(1, 5)) is None
    assert min_feasible_n(4, Fraction(1, 3), l=2) is None
    # The returned n is the first acceptance point: one step down must fail.
    with pytest.raises(HypothesisError):
        achievable_params(39, 2, Fraction(1, 100))
    achievable_params(40, 2, Fraction(1, 100))


def test_build_oneshot_code():
    build = build_multishot_achievable(40, 2, 1, Fraction(1, 100), Stream(7, "one"))
    rep = eval_perm_exact(build.code)
    assert rep.lambda1 == 0
    assert rep.lambda2 <= build.params.lambda2_budget
    assert rep.lambda2 == build.profile.ratio
    assert build.code.M == build.params.target == 2


def test_build_oneshot_is_seeded():
    a = build_multishot_achievable(60, 2, 1, Fraction(1, 100), Stream(3, "det"))
    b = build_multishot_achievable(60, 2, 1, Fraction(1, 100), Stream(3, "det"))
    assert a.code.decoder_counts == b.code.decoder_counts
    assert [dict(e.items()) for e in a.code.encoders] == [
        dict(e.items()) for e in b.code.encoders
    ]
    c = build_multishot_achievable(60, 2, 1, Fraction(1, 100), Stream(4, "det"))
    assert a.code.decoder_counts != c.code.decoder_counts


def test_build_multishot_small():
    build = build_multishot_achievable(7, 2, 2, Fraction(1, 16), Stream(5, "ms7"))
    rep = eval_perm_exact(build.code)
    assert rep.lambda1 == 0
    assert rep.lambda2 == build.profile.ratio
    assert rep.lambda2 <= build.params.lambda2_budget
    assert build.code.M == build.params.target == 9
    assert build.code.l == 2


def test_build_multishot_full_scale():
    build = build_multishot_achievable(12, 2, 2, Fraction(1, 16), Stream(5, "ms"))
    assert build.code.M == 512
    rep = eval_perm_exact(build.code)
    assert rep.lambda1 == 0
    assert rep.lambda2 == build.profile.ratio
    assert rep.lambda2 <= build.params.lambda2_budget


def test_manual_cap_zero_lift_gives_disjoint_decoders():
    # The exact construction parameters never reach cap 0, so the disjoint
    # regime is exercised by lifting a cap-0 family by hand: three disjoint
    # pairs of orbits of length-6 binary vectors.
    n, q = 6, 2
    sets = [frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6})]
    encoders = []
    decoders = []
    for U in sets:
        reps = [type_representative(type_unrank(t, n, q)) for t in sorted(U)]
        encoders.append(Dist.uniform(reps))
        decoders.append(full_orbit_counts(sorted(U), n, q))
    rep = eval_perm_exact(PermIdCode(n, q, encoders, decoders))
    assert rep.lambda1 == 0 and rep.lambda2 == 0


# ------------------------------------------------------------------- converse


def test_tv_distance_examples():
    p = Dist({1: Fraction(1, 2), 2: Fraction(1, 2)}, size=2)
    assert tv_distance(p, p) == 0
    point1 = Dist.point(1, size=2)
    point2 = Dist.point(2, size=2)
    assert tv_distance(point1, point2) == 2
    assert tv_distance(p, point1) == 1
    with pytest.raises(ValidationError):
        tv_distance(p, Dist.point(1, size=3))


def test_converse_floor_identical_encoders():
    enc = Dist({1: Fraction(1, 2), 3: Fraction(1, 2)}, size=4)
    code = NoiselessIdCode(4, [enc, enc], [frozenset({1, 3}), frozenset({1, 3})])
    assert strong_converse_floor(code) == 1
    rep = eval_noiseless(code)
    assert check_strong_converse(code, rep) == 1
    assert rep.total >= 1


def test_converse_floor_disjoint_encoders():
    code = NoiselessIdCode(
        4, [u(1, 2, size=4), u(3, 4, size=4)], [frozenset({1}), frozenset({3})]
    )
    assert strong_converse_floor(code) == 0


def test_converse_floor_needs_two_messages():
    with pytest.raises(HypothesisError):
        strong_converse_floor(NoiselessIdCode(2, [u(1, size=2)], [frozenset({1})]))


def test_converse_floor_never_exceeds_total_noiseless():
    rand = random.Random(3510)
    for _ in range(120):
        code = random_noiseless_code(
            rand, rand.randint(2, 7), rand.randint(2, 5), decoder_kind="mixed"
        )
        rep = eval_noiseless(code)
        assert rep.total >= check_strong_converse(code, rep)


def test_converse_floor_never_exceeds_total_perm():
    rand = random.Random(3511)
    for _ in range(60):
        code = random_perm_code(rand, rand.randint(2, 5), 2, rand.randint(2, 4))
        rep = eval_perm_exact(code)
        assert rep.total >= check_strong_converse(code, rep)


def test_converse_floor_forced_collision_perm():
    # Sharing an encoder forces identical output laws, hence a floor of 1.
    rand = random.Random(3512)
    for _ in range(20):
        code = random_perm_code(rand, 4, 2, 3)
        shared = code.encoders[0]
        collided = PermIdCode(
            4, 2, [shared, shared, code.encoders[2]], list(code.decoder_counts)
        )
        assert strong_converse_floor(collided) == 1
        assert eval_perm_exact(collided).total >= 1
