"""Two-phase feedback scheme: pilot orbits, lookup tables, collision rates."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permid.cli
import permid.feedback
from helpers import accept_hat, flat_index, reference_collision_report, reference_max_typeclass
from permid import (
    FeedbackCode,
    Stream,
    build_feedback_code,
    build_until_target,
    eval_feedback_exact,
    eval_feedback_mc,
    feedback_counting_converse,
    max_typeclass,
    target_test,
)
from permid.combinatorics import TypeVector, count_types, type_of
from permid.errors import (
    BoundViolationError,
    BudgetError,
    HypothesisError,
    ValidationError,
)
from permid.feedback import CollisionReport


def test_max_typeclass_examples():
    t, size = max_typeclass(6, 2)
    assert t == TypeVector((3, 3))
    assert size == 20

    t, size = max_typeclass(3, 3)
    assert t == TypeVector((1, 1, 1))
    assert size == 6

    t, size = max_typeclass(12, 2)
    assert t == TypeVector((6, 6))
    assert size == 924


def test_max_typeclass_two_sided_bound_integer_replay():
    # size <= q^n and q^n <= size * (2n)^(q-1), checked without floats.
    for n, q in [(1, 2), (5, 2), (12, 2), (3, 3), (5, 3), (4, 4)]:
        _, size = max_typeclass(n, q)
        assert size <= q**n
        assert q**n <= size * (2 * n) ** (q - 1)


@pytest.mark.parametrize("n, q, size",
                         [(12, 2, 2**12 + 1), (12, 2, 170), (5, 3, 3**5 + 1), (5, 3, 2)])
def test_max_typeclass_bound_fires_on_a_doctored_size(monkeypatch, n, q, size):
    # above q^n, or below q^n / (2n)^(q-1) (4096/24 and 243/100)
    monkeypatch.setattr(permid.feedback, "typeclass_size", lambda t: size)
    with pytest.raises(BoundViolationError,
                       match=rf"^largest orbit size {size} violates its two-sided bound "
                             rf"at n={n}, q={q}$"):
        max_typeclass(n, q)


def test_max_typeclass_matches_the_scan():
    # includes n < q-1, where some symbols cannot appear at all
    for q in range(2, 7):
        for n in range(1, 16):
            assert max_typeclass(n, q) == reference_max_typeclass(n, q)


def test_max_typeclass_tie_goes_to_first_type():
    # At n=1 every orbit has one element; the canonical-first type wins.
    t, size = max_typeclass(1, 2)
    assert t == TypeVector((1, 0))
    assert size == 1


def test_feedback_code_validations():
    good = np.ones((2, 20), dtype=np.int64)
    with pytest.raises(ValidationError):
        FeedbackCode(6, 2, 1, good)
    with pytest.raises(ValidationError):
        FeedbackCode(6, 2, 2, np.ones((2, 21), dtype=np.int64))
    with pytest.raises(ValidationError):
        FeedbackCode(6, 2, 2, np.ones((0, 20), dtype=np.int64))
    with pytest.raises(ValidationError):
        FeedbackCode(6, 2, 2, np.ones((2, 20), dtype=np.float64))
    with pytest.raises(ValidationError):
        FeedbackCode(6, 2, 2, np.zeros((2, 20), dtype=np.int64))
    with pytest.raises(ValidationError):
        FeedbackCode(6, 2, 2, np.full((2, 20), 8, dtype=np.int64))
    FeedbackCode(6, 2, 2, np.full((2, 20), 7, dtype=np.int64))


def test_flat_index_row_major():
    maps = np.ones((1, 4), dtype=np.int64)
    code = FeedbackCode(2, 2, 3, maps)
    assert code.orbit == 2
    assert code.D == 4
    assert flat_index(code, (0, 0)) == 0
    assert flat_index(code, (0, 1)) == 1
    assert flat_index(code, (1, 0)) == 2
    assert flat_index(code, (1, 1)) == 3
    with pytest.raises(ValidationError):
        flat_index(code, (0,))
    with pytest.raises(ValidationError):
        flat_index(code, (0, 2))


def test_build_shapes_and_ranges():
    code = build_feedback_code(6, 2, 2, 16, Stream(7))
    assert code.N == 7
    assert code.orbit == 20
    assert code.D == 20
    assert code.maps.shape == (16, 20)
    assert np.issubdtype(code.maps.dtype, np.integer)
    assert code.maps.min() >= 1
    assert code.maps.max() <= 7
    assert len(code.pilot) == 6
    assert type_of(code.pilot, 2) == code.pstar


def test_build_is_seed_deterministic():
    a = build_feedback_code(6, 2, 2, 16, Stream(7))
    b = build_feedback_code(6, 2, 2, 16, Stream(7))
    c = build_feedback_code(6, 2, 2, 16, Stream(8))
    assert np.array_equal(a.maps, b.maps)
    assert not np.array_equal(a.maps, c.maps)


def test_build_validations_and_budget(monkeypatch):
    with pytest.raises(ValidationError):
        build_feedback_code(6, 2, 2, 0, Stream(1))
    with pytest.raises(ValidationError):
        build_feedback_code(6, 2, 1, 4, Stream(1))
    # the budget is read at call time; D = 20 here
    monkeypatch.setattr(permid.feedback, "TABLE_BUDGET", 100)
    with pytest.raises(BudgetError):
        build_feedback_code(6, 2, 2, 16, Stream(1))
    assert build_feedback_code(6, 2, 2, 5, Stream(1)).maps.size == 100
    monkeypatch.setattr(permid.feedback, "TABLE_BUDGET", 10)
    with pytest.raises(BudgetError):
        build_feedback_code(6, 2, 2, 1, Stream(1))


def test_single_message_has_no_cross_rate():
    code = build_feedback_code(6, 2, 2, 1, Stream(3))
    report = eval_feedback_exact(code)
    assert report.M == 1
    assert report.lambda1 == 0
    assert report.lambda2 is None
    assert report.max_count == 0
    assert report.argmax_pair is None
    assert report.passed


def test_identical_tables_collide_everywhere():
    row = np.arange(20, dtype=np.int64) % 7 + 1
    code = FeedbackCode(6, 2, 2, np.stack([row, row, (row % 7) + 1]))
    report = eval_feedback_exact(code)
    assert report.lambda2 == 1
    assert report.max_count == 20
    assert report.argmax_pair == (1, 2)
    assert not report.passed


def test_disjoint_tables_never_collide():
    maps = np.stack(
        [
            np.full(20, 1, dtype=np.int64),
            np.full(20, 2, dtype=np.int64),
            np.full(20, 3, dtype=np.int64),
        ]
    )
    report = eval_feedback_exact(FeedbackCode(6, 2, 2, maps))
    assert report.lambda1 == 0
    assert report.lambda2 == 0
    assert report.max_count == 0
    assert report.passed


def test_counts_matrix_symmetric_with_zero_diagonal():
    code = build_feedback_code(6, 2, 2, 6, Stream(11))
    report = eval_feedback_exact(code)
    counts = report.counts
    assert counts.shape == (6, 6)
    assert np.array_equal(counts, counts.T)
    assert np.all(np.diag(counts) == 0)
    for j in range(6):
        for k in range(j + 1, 6):
            agree = int((code.maps[j] == code.maps[k]).sum())
            assert counts[j, k] == agree
    assert report.lambda2 == Fraction(int(counts.max()), code.D)
    assert report.target == Fraction(2, 7)


def test_counts_dropped_above_matrix_cap():
    # n=1 keeps the table tiny (D=1) while M exceeds the cap.
    code = build_feedback_code(1, 2, 2, 4097, Stream(2))
    report = eval_feedback_exact(code)
    assert report.counts is None
    # 4097 single-entry rows over two orbit values must repeat somewhere.
    assert report.lambda2 == 1


# (n, q, l) with N from 2 to 462 (2 to 9 bit planes, uint8 and uint16 maps)
# and D = 1, 2, 20, 30, 36, 60, 64, 120, 128, 360, 720 and 924: below 64, at
# 64, a multiple of 64 and between multiples, where the last word is padded
TABLE_SHAPES = [(1, 2, 2), (2, 2, 2), (6, 2, 2), (5, 3, 2), (3, 3, 3), (5, 4, 2), (2, 2, 7),
                (5, 5, 2), (2, 2, 8), (6, 5, 2), (6, 6, 2), (12, 2, 2)]


@st.composite
def collision_cases(draw):
    """A feedback code of 1 to 6 messages, with a matrix cap around its M and
    a packing block size. Entries come from 1, 2, 3 or all N values, and a
    row may repeat an earlier one, so pairs tie; maps are int64 (as loaded
    from JSON) or the narrowest type that holds N (as drawn)."""
    n, q, l = draw(st.sampled_from(TABLE_SHAPES))
    N, D = count_types(n, q), max_typeclass(n, q)[1] ** (l - 1)
    M = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = min(N, draw(st.sampled_from([1, 2, 3, N])))
    values = rng.choice(np.arange(1, N + 1), size=k, replace=False)
    maps = values[rng.integers(0, k, size=(M, D))]
    for i in range(1, M):
        maps[i] = maps[draw(st.integers(0, i))]  # itself, or a copy of an earlier row
    dtype = draw(st.sampled_from([np.int64, np.min_scalar_type(N)]))
    cap = draw(st.sampled_from([0, M - 1, M, permid.feedback.MATRIX_CAP]))
    # the tables are packed one row, two rows or all rows at a time
    block = draw(st.sampled_from([1, 2 * D, permid.feedback.BLOCK_ENTRIES]))
    return FeedbackCode(n, q, l, maps.astype(dtype)), cap, block


@settings(max_examples=200, deadline=None)
@given(case=collision_cases())
def test_exact_eval_matches_the_pairwise_reference(case):
    code, cap, block = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(permid.feedback, "MATRIX_CAP", cap)
        patch.setattr(permid.feedback, "BLOCK_ENTRIES", block)
        got, want = eval_feedback_exact(code), reference_collision_report(code)
    for field in dataclasses.fields(CollisionReport):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "counts" and b is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b)
        else:
            assert a == b, field.name


def test_mean_pair_collision_rate_near_expected():
    # Two independent uniform tables over [1..7] agree per cell with
    # probability 1/7, so the pair rate averages 1/7 over seeds. Each rate
    # is Binomial(20, 1/7)/20; three standard errors of the 200-seed mean.
    total = Fraction(0)
    for seed in range(200):
        code = build_feedback_code(6, 2, 2, 2, Stream(seed))
        total += eval_feedback_exact(code).lambda2
    mean = total / 200
    sigma = math.sqrt((1 / 7) * (6 / 7) / (20 * 200))
    assert abs(float(mean) - 1 / 7) <= 3 * sigma


def test_exact_eval_at_desk_scale():
    code = build_feedback_code(12, 2, 2, 1024, Stream(0))
    assert code.maps.shape == (1024, 924)
    report = eval_feedback_exact(code)
    assert report.lambda1 == 0
    assert report.lambda2 <= Fraction(2, 13)
    assert report.passed
    assert report.counts is not None
    j, k = report.argmax_pair
    assert report.counts[j - 1, k - 1] == report.max_count


def test_mc_matches_exact_within_four_sigma():
    code = build_feedback_code(6, 2, 2, 4, Stream(21))
    exact = eval_feedback_exact(code)
    trials = 20_000
    mc = eval_feedback_mc(code, trials, Stream(99))
    estimates = accept_hat(mc)
    assert mc.lambda1_hat == 0.0
    for i in range(4):
        for j in range(4):
            p_hat = estimates[i][j]
            if i == j:
                assert p_hat == 1.0
                continue
            p = exact.counts[i, j] / code.D
            if p == 0:
                assert p_hat == 0.0
            else:
                assert abs(p_hat - p) <= 4 * math.sqrt(p * (1 - p) / trials)


def test_mc_check_fires_when_a_sender_misses_its_own_orbit(monkeypatch):
    """Each sender lands in its own orbit, so its decoder accepts every
    trial; doctored counts with one own miss must be refused."""
    code = build_feedback_code(6, 2, 2, 3, Stream(5))
    real = permid.feedback._feedback_mc_hits

    def doctored(code, rows, trials, stream):
        hits = real(code, rows, trials, stream)
        if 0 in rows:
            hits[0, 0] -= 1
        return hits

    monkeypatch.setattr(permid.feedback, "_feedback_mc_hits", doctored)
    with pytest.raises(BoundViolationError,
                       match=r"^a sender's own decoder rejected in simulation$"):
        eval_feedback_mc(code, 50, Stream(1))


def test_mc_is_seed_deterministic():
    code = build_feedback_code(6, 2, 2, 3, Stream(5))
    a = eval_feedback_mc(code, 2000, Stream(1))
    b = eval_feedback_mc(code, 2000, Stream(1))
    c = eval_feedback_mc(code, 2000, Stream(2))
    assert a == b
    assert a.accept != c.accept
    with pytest.raises(ValidationError):
        eval_feedback_mc(code, 0, Stream(1))


def test_target_test_agrees_with_exact_rate():
    outcomes = set()
    for seed in range(50):
        code = build_feedback_code(4, 2, 2, 3, Stream(seed))
        verdict = target_test(code)
        report = eval_feedback_exact(code)
        assert verdict == (report.lambda2 <= Fraction(2, code.N))
        assert verdict == report.passed
        outcomes.add(verdict)
    assert outcomes == {True, False}


def test_target_test_rejects_identical_tables():
    row = np.arange(20, dtype=np.int64) % 7 + 1
    code = FeedbackCode(6, 2, 2, np.stack([row, row]))
    assert not target_test(code)
    single = FeedbackCode(6, 2, 2, row.reshape(1, 20))
    with pytest.raises(HypothesisError):
        target_test(single)


def test_build_until_target_success():
    result = build_until_target(6, 2, 2, 2, Stream(4), budget_draws=10)
    assert result.success
    assert 1 <= result.draws <= 10
    assert result.report.passed
    assert target_test(result.code)
    replay = eval_feedback_exact(result.code)
    assert replay.lambda2 == result.report.lambda2
    again = build_until_target(6, 2, 2, 2, Stream(4), budget_draws=10)
    assert again.draws == result.draws
    assert np.array_equal(again.code.maps, result.code.maps)


def test_one_collision_pass_per_draw(monkeypatch):
    calls = []
    real = permid.feedback.eval_feedback_exact

    def counted(code):
        calls.append(code)
        return real(code)

    # the CLI imports the evaluator by name, so patch both bindings
    monkeypatch.setattr(permid.feedback, "eval_feedback_exact", counted)
    monkeypatch.setattr(permid.cli, "eval_feedback_exact", counted)

    result = build_until_target(2, 2, 2, 10, Stream(1), budget_draws=4)
    assert (result.draws, len(calls)) == (4, 4)
    assert calls[-1] is result.code

    calls.clear()
    result = build_until_target(6, 2, 2, 2, Stream(4), budget_draws=10)
    assert result.success and len(calls) == result.draws

    calls.clear()
    status = permid.cli.main(
        ["feedback", "--n", "6", "--q", "2", "--l", "2", "--M", "4", "--seed", "9"]
    )
    assert status == 0 and len(calls) == 1


def test_target_test_needs_two_messages_everywhere(capsys):
    with pytest.raises(HypothesisError):
        build_until_target(6, 2, 2, 1, Stream(1), budget_draws=3)
    argv = ["feedback", "--n", "6", "--q", "2", "--l", "2", "--M", "1", "--seed", "1"]
    status = permid.cli.main(argv + ["--retry", "3"])
    err = json.loads(capsys.readouterr().err)
    assert status == 2 and err["error"] == "HypothesisError"
    assert "at least two messages" in err["message"]
    # the plain exact run has no pair to collide, so it passes vacuously
    assert permid.cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda2"] is None and doc["passed"] is True


def test_build_until_target_exhaustion():
    # Ten rows of two entries over [1..3] repeat by pigeonhole, so the pair
    # rate is 1 on every draw and the 2/3 target can never pass.
    result = build_until_target(2, 2, 2, 10, Stream(1), budget_draws=4)
    assert not result.success
    assert result.draws == 4
    assert result.report.lambda2 == 1
    assert not result.report.passed
    with pytest.raises(ValidationError):
        build_until_target(2, 2, 2, 10, Stream(1), budget_draws=0)


def test_counting_converse_small_thresholds():
    assert feedback_counting_converse(1, 2, 1, 3)
    assert not feedback_counting_converse(1, 2, 1, 4)
    assert feedback_counting_converse(2, 2, 1, 15)
    assert not feedback_counting_converse(2, 2, 1, 16)


def test_counting_converse_matches_big_integer_truth():
    for n, q, l in [(1, 2, 1), (1, 2, 2), (2, 2, 1), (1, 3, 1), (3, 2, 1)]:
        limit = 2 ** (q ** (n * l))
        for M in range(1, min(limit + 5, 300)):
            assert feedback_counting_converse(n, q, l, M) == (M < limit)
        assert not feedback_counting_converse(n, q, l, limit)
        assert feedback_counting_converse(n, q, l, limit - 1)


def test_counting_converse_handles_towers():
    # 2^(2^20) has over a million bits; only bit lengths are compared.
    M = 1 << (1 << 20)
    assert not feedback_counting_converse(4, 2, 5, M)
    assert feedback_counting_converse(4, 2, 5, M - 1)
    assert not feedback_counting_converse(3, 2, 2, 1 << 64)
    assert feedback_counting_converse(3, 2, 2, (1 << 64) - 1)


def test_counting_converse_validations():
    with pytest.raises(ValidationError):
        feedback_counting_converse(0, 2, 1, 4)
    with pytest.raises(ValidationError):
        feedback_counting_converse(1, 1, 1, 4)
    with pytest.raises(ValidationError):
        feedback_counting_converse(1, 2, 0, 4)
    with pytest.raises(ValidationError):
        feedback_counting_converse(1, 2, 1, 0)
