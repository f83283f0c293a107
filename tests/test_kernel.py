"""The integer acceptance kernel against the Fraction reference sum.

`helpers.reference_acceptance_matrix` is the direct sum over encoder
supports that the kernel replaced; every kernel output (matrix, report,
converse floor) must equal the reference entry by entry, on both matmul
backends. `helpers.reference_kernel` builds the kernel's rows and columns
from Fractions, as the library once did; the integer path must give the
same dtype, numerators and denominators, and must build no Fraction.
"""

import json
import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permid.idcode as idcode
from helpers import (
    fractions,
    random_decoder,
    random_dist,
    random_noiseless_code,
    random_perm_code,
    reference_acceptance_matrix,
    reference_converse_floor,
    reference_kernel,
    reference_output_law,
    reference_report,
    with_prime_masses,
)
from permid import (
    Dist,
    NoiselessIdCode,
    PermIdCode,
    Stream,
    eval_noiseless,
    eval_perm_exact,
    eval_perm_mc,
    strong_converse_floor,
)
from permid.errors import BoundViolationError
from permid.exact import bracket, power_sign
from permid.idcode import Acceptance, acceptance, acceptance_matrix
from permid.serialize import code_from_json, report_to_json
from permid.transforms import _growth_violations, soft_converse_pipeline


def make_code(seed, kind, M, l=1, decoders="stoch", big=False):
    rand = random.Random(seed)
    if kind == "noiseless":
        code = random_noiseless_code(rand, rand.randint(1, 6), M, decoders)
    else:
        n, q = rand.choice([(2, 2), (3, 2), (2, 3)])
        code = random_perm_code(rand, n, q, M, l=l)
    return with_prime_masses(rand, code) if big else code


def check_against_oracle(code):
    """The kernel equals the Fraction-path oracle in dtype, numerators and
    denominators, and its decoder denominator is the least common
    denominator of the reduced decoder entries."""
    kernel, expected = acceptance(code), reference_kernel(code)
    assert kernel.num.dtype == expected.num.dtype
    assert kernel.num.tolist() == expected.num.tolist()
    assert kernel.den.tolist() == expected.den.tolist()
    dec, den = idcode._decoder_columns(code, idcode._encoder_rows(code)[0])
    assert den == math.lcm(*(Fraction(a, den).denominator for a in dec.flat))
    return kernel


def check_against_reference(code, big):
    reference = reference_acceptance_matrix(code)
    kernel = check_against_oracle(code)
    assert acceptance_matrix(code) == reference
    evaluate = eval_noiseless if isinstance(code, NoiselessIdCode) else eval_perm_exact
    assert evaluate(code) == reference_report(reference) == kernel.report
    if code.M >= 2:
        assert strong_converse_floor(code) == reference_converse_floor(code)
    if not big:
        assert kernel.num.dtype == np.int64
    elif isinstance(code, NoiselessIdCode) and any(len(e.mass) > 1 for e in code.encoders):
        # masses over a prime near 2^89 against a decoder accepting everything
        assert kernel.num.dtype == object
    return kernel


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    kind=st.sampled_from(["noiseless", "perm"]),
    M=st.integers(1, 5),
    l=st.integers(1, 2),
    decoders=st.sampled_from(["det", "stoch", "mixed"]),
    big=st.booleans(),
)
def test_kernel_equals_reference(seed, kind, M, l, decoders, big):
    check_against_reference(make_code(seed, kind, M, l, decoders, big), big)


@pytest.mark.parametrize("big", [False, True])
@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("M", [1, 4])
def test_perm_kernel_grid(M, l, big):
    dtypes = set()
    for seed in range(6):
        code = make_code(seed, "perm", M, l, big=big)
        dtypes.add(check_against_reference(code, big).num.dtype)
    assert dtypes == {np.dtype(np.int64)} if not big else np.dtype(object) in dtypes


GOLDEN = Path(__file__).parent / "golden"


def golden_orbit_code():
    """The golden orbit-union code: n=60, q=2, full-orbit decoders."""
    return code_from_json(json.loads((GOLDEN / "orbit_code.json").read_text())["code"])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32), M=st.integers(1, 5), l=st.integers(1, 2), big=st.booleans())
def test_output_laws_are_the_per_vector_pushforward(seed, M, l, big):
    code = make_code(seed, "perm", M, l, big=big)
    assert list(code.output_laws) == [reference_output_law(code, i) for i in range(1, M + 1)]


def test_evaluators_work_out_no_orbit_after_construction(monkeypatch):
    """A perm code's output laws and sizes are all the kernel, the sampler,
    the converse and the pipeline read: with the orbit and orbit-size
    primitives made to raise once the codes are built, every report is the
    one a fresh copy of the code gives unpatched."""

    def reports(code, pipeline):
        out = [eval_perm_exact(code), eval_perm_mc(code, 300, Stream(1))]
        if pipeline:
            run = soft_converse_pipeline(code, Fraction(1, 3))
            out += [s.before for s in run.steps] + [run.final]
        return [report_to_json(r) for r in out] + [strong_converse_floor(code)]

    names = {"orbit": True, "perm_l2": True, "q11": False}
    docs = {name: json.loads((GOLDEN / f"{name}_code.json").read_text()) for name in names}
    docs["orbit"] = docs["orbit"]["code"]  # the build document wraps its code
    expected = {name: reports(code_from_json(docs[name]), names[name]) for name in names}
    codes = {name: code_from_json(docs[name]) for name in names}

    def refuse(*args):
        raise AssertionError("an orbit was worked out again after construction")

    monkeypatch.setattr(idcode, "_block_orbit", refuse)
    monkeypatch.setattr(idcode, "_orbit_product_size", refuse)
    for name, code in codes.items():
        assert reports(code, names[name]) == expected[name]


def test_golden_orbit_kernel_stays_int64_over_decoder_denominator_one():
    code = golden_orbit_code()
    assert check_against_oracle(code).num.dtype == np.int64
    cols = idcode._encoder_rows(code)[0]
    assert idcode._decoder_columns(code, cols)[1] == 1
    # scaling every count to the lcm of the orbit sizes instead would leave int64
    assert math.lcm(*map(code.orbit_size, cols)) >= 2**63


def fractions_made(monkeypatch, run) -> int:
    """The number of Fraction constructions while `run()` runs."""
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", staticmethod(counting))
        run()
    return len(made)


def test_kernel_builds_no_fraction(monkeypatch):
    loaded = golden_orbit_code()
    deterministic = random_noiseless_code(random.Random(4), 6, 5, "det")
    for code in (loaded, deterministic):
        assert fractions_made(monkeypatch, lambda: acceptance(code)) == 0
        # the counter sees the Fraction path's constructions
        assert fractions_made(monkeypatch, lambda: reference_kernel(code)) > 0


def test_report_streams_blocks_above_the_cap(monkeypatch):
    code = make_code(3, "perm", 7, l=2)
    full = eval_perm_exact(code)
    monkeypatch.setattr(idcode, "MATRIX_CAP", 4)
    monkeypatch.setattr(idcode, "BLOCK_ENTRIES", 10)
    capped = eval_perm_exact(code)
    assert capped.accept is None
    assert capped == replace(full, accept=None)


def test_take_is_the_sub_code_matrix():
    code = make_code(5, "noiseless", 5, decoders="mixed", big=True)
    kept = [4, 0, 2]
    sub = NoiselessIdCode(
        code.N, [code.encoders[i] for i in kept], [code.decoders[i] for i in kept]
    )
    assert fractions(acceptance(code).take(kept).report.accept) == reference_acceptance_matrix(sub)


def test_kernels_compare_by_value_not_by_backend():
    den = np.array([2**63, 3], dtype=object)
    kernel = Acceptance(np.array([[2**62, 0], [1, 3]], dtype=np.int64), den)
    # an int64 kernel equals its object twin, past int64 in the cross products
    assert kernel == Acceptance(kernel.num.astype(object), den)
    # a row over a doubled denominator holds the same values
    doubled = np.array([[2**63, 0], [1, 3]], dtype=object)
    assert kernel == Acceptance(doubled, np.array([2**64, 3], dtype=object))
    changed = kernel.num.copy()
    changed[1, 0] = 2
    assert kernel != Acceptance(changed, den)
    # a shape mismatch that broadcasting alone would call equal
    halves = Acceptance(np.ones((2, 2), dtype=np.int64), np.array([2, 2], dtype=object))
    assert halves != Acceptance(np.ones((1, 1), dtype=np.int64), np.array([2], dtype=object))
    assert kernel != fractions(kernel)
    assert kernel != None  # noqa: E711


def with_repeats(rand, code, copies):
    """The code with `copies` messages that repeat earlier ones, each put at
    a random position: the repeat's row ties with its original's row, and
    every other row has two equal entries in their two columns."""
    encoders = list(code.encoders)
    decoders = list(code.decoders if isinstance(code, NoiselessIdCode) else code.decoder_counts)
    for _ in range(copies):
        i, at = rand.randrange(len(encoders)), rand.randint(0, len(encoders))
        encoders.insert(at, encoders[i])
        decoders.insert(at, decoders[i])
    if isinstance(code, NoiselessIdCode):
        return NoiselessIdCode(code.N, encoders, decoders)
    return PermIdCode(code.n, code.q, encoders, decoders, l=code.l)


def mixed_denominator_code(rand, M):
    """A noiseless code whose stochastic decoders each use their own
    denominator, so that row blocks over different outcomes get different
    common decoder denominators."""
    N = rand.randint(2, 6)
    return NoiselessIdCode(
        N,
        [random_dist(rand, N) for _ in range(M)],
        [random_decoder(rand, N, True, den=rand.choice([2, 3, 5, 7, 8])) for _ in range(M)],
    )


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    kind=st.sampled_from(["noiseless", "perm", "mixed-denominators"]),
    M=st.integers(1, 5),
    copies=st.integers(0, 3),
    big=st.booleans(),
    blocked=st.booleans(),
)
def test_integer_report_equals_the_fraction_scan(seed, kind, M, copies, big, blocked):
    """The report decided on the kernel's integers against the row-major
    Fraction scan of the reference matrix, on both backends, with tied cross
    entries, and in one-row blocks past a lowered MATRIX_CAP."""
    rand = random.Random(seed)
    if kind == "mixed-denominators":
        code = mixed_denominator_code(rand, M)
    else:
        code = make_code(seed, kind, M, l=rand.randint(1, 2), decoders="mixed")
    code = with_repeats(rand, code, copies)
    if big:
        code = with_prime_masses(rand, code)
    expected = reference_report(reference_acceptance_matrix(code))
    evaluate = eval_noiseless if isinstance(code, NoiselessIdCode) else eval_perm_exact
    if not blocked:
        assert evaluate(code) == expected
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(idcode, "MATRIX_CAP", 0)
        patch.setattr(idcode, "BLOCK_ENTRIES", 1)
        assert evaluate(code) == replace(expected, accept=None)


def test_blocks_over_different_outcomes_get_different_denominators(monkeypatch):
    # message 1 only emits outcome 1, where the decoders accept in thirds;
    # message 2 only emits outcome 2, where they accept in fifths
    code = NoiselessIdCode(
        2,
        [Dist.point(1, size=2), Dist.point(2, size=2)],
        [{1: Fraction(2, 3), 2: Fraction(4, 5)}, {1: Fraction(1, 3), 2: Fraction(2, 5)}],
    )
    assert [acceptance(code, range(i, i + 1)).den.tolist() for i in range(2)] == [[3], [5]]
    expected = reference_report(reference_acceptance_matrix(code))
    assert expected.argmax_cross == (2, 1)
    monkeypatch.setattr(idcode, "MATRIX_CAP", 1)
    monkeypatch.setattr(idcode, "BLOCK_ENTRIES", 2)
    assert eval_noiseless(code) == replace(expected, accept=None)


@pytest.mark.parametrize("num, den, message", [
    ([[1, 0], [3, 2]], [2, 2], "acceptance probability 3/2 outside [0,1]"),
    ([[1, 2, 0], [0, -1, 3], [-2, 9, 0]], [3, 3, 3], "acceptance probability -1/3 outside [0,1]"),
])
def test_report_range_check_names_the_first_entry_out_of_range(num, den, message):
    for dtype in (np.int64, object):
        kernel = Acceptance(np.array(num, dtype=dtype), np.array(den, dtype=object))
        with pytest.raises(BoundViolationError) as caught:
            kernel.report
        assert str(caught.value) == message


@pytest.mark.parametrize("N, e", [(2, Fraction(1, 3)), (151, Fraction(-1, 3)), (4, Fraction(1, 2)),
                                  (7, Fraction(-5, 4)), (9, Fraction(0))])
def test_power_bracket_contains_the_power(N, e):
    lo, hi = bracket([(1, e)], N, 64)
    assert lo <= hi
    # lo <= N^e <= hi  <=>  lo^r <= N^p <= hi^r for e = p/r
    assert lo**e.denominator <= Fraction(N) ** e.numerator <= hi**e.denominator


@pytest.mark.parametrize(
    "N, gamma", [(4, Fraction(1, 2)), (151, Fraction(1, 3)), (5, Fraction(2, 7))]
)
def test_bracketed_growth_check_agrees_with_power_sign(N, gamma):
    """Entries on, near and far from the published-factor boundary
    new * gamma (1 - N^-gamma) = old * (1 + 2 gamma) N^gamma; at N=4,
    gamma=1/2 it is the exact ratio new = 16 old, which only the power_sign
    fallback can settle."""

    a_terms, b_terms = [(gamma, 0), (-gamma, -gamma)], [(-1 - 2 * gamma, gamma)]

    def terms(new, old):
        return [(new * c, e) for c, e in a_terms] + [(old * c, e) for c, e in b_terms]

    a_lo, a_hi = bracket(a_terms, N, 64)
    b_lo, b_hi = bracket(b_terms, N, 64)
    mid = -(b_lo + b_hi) / (a_lo + a_hi)
    rand = random.Random(N)
    news, olds = [], []
    for _ in range(60):
        old = Fraction(rand.randint(0, 50), rand.randint(50, 100))
        ratio = rand.choice([Fraction(0), mid, mid * (1 + Fraction(1, 10**30)), mid / 2, mid * 2])
        news.append(min(old * ratio, Fraction(1)))
        olds.append(old)
    news += [Fraction(0), Fraction(1, 2)]
    olds += [Fraction(0), Fraction(0)]
    # one row, so every entry goes over the row's one common denominator
    den = math.lcm(*(x.denominator for x in news + olds))
    new, old = (np.array([[x.numerator * (den // x.denominator) for x in xs]], dtype=object)
                for xs in (news, olds))
    mask = _growth_violations(new, old, a_terms, b_terms, N)
    assert mask[0].tolist() == [power_sign(terms(n, o), N) > 0 for n, o in zip(news, olds)]
    assert mask[0].any() and not mask[0].all()
