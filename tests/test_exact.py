"""Exact sign and floor machinery for expressions mixing rationals with
rational powers of an integer base."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permid.exact as exact
from helpers import mpf
from permid.errors import ValidationError
from permid.exact import (
    bracket,
    ceil_pow2_over,
    compare_power,
    floor_log2,
    floor_plus_log2,
    frac_str,
    iroot,
    log2_bracket,
    parse_frac,
    power_sign,
    sign,
    strip_power,
)


def test_parse_frac_accepts_strings_ints_fractions():
    assert parse_frac("3/7") == Fraction(3, 7)
    assert parse_frac("5") == Fraction(5)
    assert parse_frac(2) == Fraction(2)
    assert parse_frac(Fraction(1, 3)) == Fraction(1, 3)


def test_parse_frac_rejects_junk():
    with pytest.raises(ValidationError):
        parse_frac("three halves")
    with pytest.raises(ValidationError):
        parse_frac("1/0")


def test_frac_str_always_slash_form():
    assert frac_str(Fraction(1, 2)) == "1/2"
    assert frac_str(Fraction(0)) == "0/1"
    assert frac_str(Fraction(4, 2)) == "2/1"
    assert frac_str(Fraction(-3, 4)) == "-3/4"
    assert frac_str(0) == "0/1"
    assert frac_str(3) == "3/1"


def test_frac_str_round_trip():
    rand = random.Random(11)
    for _ in range(200):
        f = Fraction(rand.randint(-50, 50), rand.randint(1, 50))
        assert parse_frac(frac_str(f)) == f


def test_sign():
    assert sign(Fraction(-1, 7)) == -1
    assert sign(0) == 0
    assert sign(Fraction(9)) == 1


def test_iroot_is_floor_root():
    for x in range(0, 4000, 7):
        for r in (2, 3, 5):
            k = iroot(x, r)
            assert k**r <= x < (k + 1) ** r


@settings(max_examples=300, deadline=None)
@given(bits=st.integers(1, 3000), r=st.integers(3, 80), data=st.data())
def test_iroot_is_floor_root_at_any_size(bits, r, data):
    # x just below and at an r-th power, and anywhere with `bits` bits
    k = data.draw(st.integers(2, 2 ** (bits // r + 1)))
    for x in (k**r - 1, k**r, data.draw(st.integers(2 ** (bits - 1), 2**bits))):
        y = iroot(x, r)
        assert y**r <= x < (y + 1) ** r


def test_iroot_of_large_powers_of_two():
    # x of hundreds of thousands of bits with r in the thousands, and a 1143-bit root
    for p, r in [(320001, 5000), (236827, 9973), (8001, 7)]:
        k = iroot(1 << p, r)
        assert k**r <= 1 << p < (k + 1) ** r


def test_strip_power_reduces_perfect_powers():
    assert strip_power(8) == (2, 3)
    assert strip_power(36) == (6, 2)
    assert strip_power(12) == (12, 1)
    assert strip_power(2) == (2, 1)


# power_sign evaluates sum_i coeff_i * base^(expo_i) without floats. The
# oracle cases below have signs that are obvious by hand.


def test_power_sign_known_values():
    # 3 - 2*sqrt(2) > 0  (sqrt(2) < 1.5)
    assert power_sign([(3, 0), (-2, Fraction(1, 2))], 2) == 1
    # 7 - 5*sqrt(2) < 0  (sqrt(2) > 1.4)
    assert power_sign([(7, 0), (-5, Fraction(1, 2))], 2) == -1
    # exact zero: 2*2^(3/2) = 4*2^(1/2)
    assert power_sign([(2, Fraction(3, 2)), (-4, Fraction(1, 2))], 2) == 0
    assert power_sign([(1, Fraction(1, 2)), (-1, Fraction(1, 2))], 2) == 0
    assert power_sign([], 5) == 0


def test_power_sign_perfect_power_base():
    # base 4 with exponent 1/2 is exactly 2
    assert power_sign([(1, Fraction(1, 2)), (-2, 0)], 4) == 0
    assert power_sign([(1, Fraction(3, 2)), (-8, 0)], 4) == 0


def test_power_sign_agrees_with_floats_when_clear():
    rand = random.Random(23)
    for _ in range(300):
        base = rand.randint(2, 30)
        terms = []
        value = 0.0
        for _ in range(rand.randint(1, 4)):
            c = Fraction(rand.randint(-20, 20), rand.randint(1, 9))
            e = Fraction(rand.randint(-6, 6), rand.randint(1, 4))
            terms.append((c, e))
            value += float(c) * base ** float(e)
        if abs(value) < 1e-6:
            continue  # too close to call in float arithmetic
        assert power_sign(terms, base) == (1 if value > 0 else -1)


def _sqrt_convergents(N):
    """The continued-fraction convergents a/b of sqrt(N), N not a square."""
    a0 = math.isqrt(N)
    m, d, a = 0, 1, a0
    (p0, p1), (q0, q1) = (1, a0), (0, 1)
    while True:
        yield p1, q1
        m = d * a - m
        d = (N - m * m) // d
        a = (a0 + m) // d
        p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0


@pytest.mark.parametrize("N", [2, 3, 8, 151])
def test_power_sign_within_two_to_minus_forty_of_zero(N, monkeypatch):
    """a - b*sqrt(N) for convergents a/b with b > 2^41 lies within 1/b < 2^-41
    of zero, so the first brackets straddle zero and the precision doubles."""
    widths = []

    def recording(terms, base, bits):
        widths.append(bits)
        return bracket(terms, base, bits)

    monkeypatch.setattr(exact, "bracket", recording)
    checked = 0
    for a, b in _sqrt_convergents(N):
        if b > 1 << 90:
            break
        if b > 1 << 41:
            expected = sign(a * a - b * b * N)
            assert power_sign([(a, 0), (-b, Fraction(1, 2))], N) == expected
            assert power_sign([(-a, 0), (b, Fraction(1, 2))], N) == -expected
            checked += 1
    assert checked >= 2
    assert max(widths) >= 128  # doubled at least twice from 32 bits


@pytest.mark.parametrize("bits", [32, 64, 128])
@pytest.mark.parametrize(
    "N, e",
    [(2, Fraction(1, 2)), (3, Fraction(2, 3)), (151, Fraction(-1, 3)), (7, Fraction(-5, 4)),
     (8, Fraction(7, 2)), (10, Fraction(-1, 7))],
)
def test_bracket_contains_the_power(N, e, bits):
    lo, hi = bracket([(1, e)], N, bits)
    # lo <= N^e <= hi, decided exactly
    assert compare_power(lo, N, e) <= 0 <= compare_power(hi, N, e)
    if e > 0:
        assert hi - lo == Fraction(1, 1 << bits)
    else:
        assert 0 < hi - lo <= Fraction(1, 1 << bits) * hi**2
    if bits > 32:  # more bits nest inside fewer
        coarse_lo, coarse_hi = bracket([(1, e)], N, bits // 2)
        assert coarse_lo <= lo <= hi <= coarse_hi
    # a negative coefficient swaps the ends; rational terms add exactly
    assert bracket([(-3, e), (Fraction(1, 2), 0)], N, bits) == (
        Fraction(1, 2) - 3 * hi, Fraction(1, 2) - 3 * lo
    )


@pytest.mark.parametrize("e", [0, 2, -3])
def test_bracket_is_exact_on_integer_powers(e):
    assert bracket([(Fraction(2, 3), e)], 5, 32) == (Fraction(2, 3) * Fraction(5) ** e,) * 2


def test_compare_power():
    # 3/2 vs 2^(1/2): 1.5 > 1.4142...
    assert compare_power(Fraction(3, 2), 2, Fraction(1, 2)) == 1
    assert compare_power(Fraction(7, 5), 2, Fraction(1, 2)) == -1
    assert compare_power(Fraction(1, 4), 2, -2) == 0
    assert compare_power(Fraction(1, 3), 27, Fraction(-1, 3)) == 0


def test_compare_log2():
    # log2(n) - c has the sign of n - 2**c
    assert compare_power(8, 2, 3) == 0
    assert compare_power(8, 2, Fraction(29, 10)) == 1
    assert compare_power(8, 2, Fraction(31, 10)) == -1
    # negative threshold: n >= 1 always beats 2^(-1)
    assert compare_power(2, 2, -1) == 1
    rand = random.Random(5)
    for _ in range(200):
        n = rand.randint(1, 10**6)
        c = Fraction(rand.randint(-40, 40), rand.randint(1, 8))
        want = math.log2(n) - float(c)
        if abs(want) < 1e-9:
            continue
        assert compare_power(n, 2, c) == (1 if want > 0 else -1)


def test_floor_plus_log2():
    # floor(5/2 + log2 8) = floor(5.5) = 5
    assert floor_plus_log2(Fraction(5, 2), 8) == 5
    # floor(1 + log2 10) = floor(4.3219...) = 4
    assert floor_plus_log2(1, 10) == 4
    # multiplier: floor(1 + 2*log2 13) = floor(8.4009...) = 8
    assert floor_plus_log2(1, 13, mult=2) == 8
    # exact landing: floor(3/2 + log2 2) = 2 with no off-by-one
    assert floor_plus_log2(Fraction(3, 2), 2) == 2
    # n a power of two with integer a: the sum is itself an integer
    assert floor_plus_log2(3, 8) == 6
    assert floor_plus_log2(-2, 16, mult=3) == 10
    assert floor_plus_log2(5, 2**40, mult=2) == 85
    # n = 1 leaves floor(a)
    assert floor_plus_log2(Fraction(7, 2), 1) == 3
    assert floor_plus_log2(Fraction(-1, 3), 1, mult=3) == -1
    # mult = 3: floor(1 + 3*log2 13) = floor(12.101...) = 12
    assert floor_plus_log2(1, 13, mult=3) == 12
    assert floor_plus_log2(Fraction(1, 2), 4, mult=3) == 6

    def at_most(k, a, n, mult):
        # k <= a + mult*log2(n) with a = p/r  iff  2^(k*r - p) <= n^(mult*r),
        # a negative power of two moved to the other side
        e = k * a.denominator - a.numerator
        return 2 ** max(e, 0) <= n ** (mult * a.denominator) * 2 ** max(-e, 0)

    rand = random.Random(31)
    for _ in range(300):
        a = Fraction(rand.randint(-400, 400), rand.randint(1, 12))
        n = rand.choice([rand.randint(1, 500), 2 ** rand.randint(0, 12)])
        mult = rand.randint(1, 3)
        got = floor_plus_log2(a, n, mult=mult)
        assert at_most(got, a, n, mult) and not at_most(got + 1, a, n, mult)


def test_floor_log2():
    assert [floor_log2(x) for x in (1, 2, 3, 4, Fraction(1, 2), Fraction(3, 4))] == [0, 1, 1, 2, -1, -1]
    rand = random.Random(5)
    for _ in range(500):
        x = Fraction(rand.randint(1, 2**70), rand.randint(1, 2**70))
        k = floor_log2(x)
        assert Fraction(2) ** k <= x < Fraction(2) ** (k + 1)
    for bad in (0, Fraction(-1, 3)):
        with pytest.raises(ValidationError):
            floor_log2(bad)


@settings(max_examples=400, deadline=None)
@given(num=st.integers(1, 2**80), den=st.integers(1, 2**80), bits=st.integers(1, 200))
def test_log2_bracket_against_mpmath(num, den, bits):
    x = Fraction(num, den)
    lo, hi = log2_bracket(x, bits)
    with mpmath.workdps(100):
        value = mpmath.log(mpf(x), 2)
        assert mpf(lo) <= value <= mpf(hi)
        # width 2^-bits, unless a binary digit was left undecided: log2(x) then
        # lies at the midpoint of the wider bracket, within the guard bits
        guard = mpmath.mpf(2) ** (-bits - 20)
        assert hi - lo <= Fraction(1, 2**bits) or abs(value - mpf((lo + hi) / 2)) < guard


def test_log2_bracket_is_exact_at_powers_of_two():
    for k in range(-70, 71):
        for bits in (1, 8, 64):
            assert log2_bracket(Fraction(2) ** k, bits) == (k, k)
    lo, hi = log2_bracket(3, 64)
    assert lo < hi and hi - lo <= Fraction(1, 2**64)


def test_ceil_pow2_over():
    assert ceil_pow2_over(Fraction(9), 1) == 512
    # 2^1143 / 3, and a root of a 320001-bit power of two
    got = ceil_pow2_over(Fraction(8001, 7), 3)
    assert (got * 3) ** 7 >= 2**8001 > ((got - 1) * 3) ** 7
    got = ceil_pow2_over(Fraction(320001, 5000), 3)
    assert (got * 3) ** 5000 >= 2**320001 > ((got - 1) * 3) ** 5000
    assert ceil_pow2_over(Fraction(10), 4) == 256  # exact division
    assert ceil_pow2_over(Fraction(5, 2), 3) == 2  # ceil(5.656/3)
    assert ceil_pow2_over(Fraction(-3), 1) == 1  # ceil(1/8)
    assert ceil_pow2_over(Fraction(0), 7) == 1
    rand = random.Random(47)
    for _ in range(300):
        c = Fraction(rand.randint(-10, 60), rand.randint(1, 6))
        n = rand.randint(1, 100)
        got = ceil_pow2_over(c, n)
        value = 2.0 ** float(c) / n
        assert got - 1 < value <= got + 1e-9 * got or math.isclose(
            got, math.ceil(value), rel_tol=0, abs_tol=1
        )
        # sharper exact check: got is the least integer with got*n >= 2^c
        num, den = c.numerator, c.denominator
        if num >= 0:
            assert (got * n) ** den >= 2**num
            if got > 1:
                assert ((got - 1) * n) ** den < 2**num
