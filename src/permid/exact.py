"""Exact arithmetic helpers: rational parsing, integer roots, and sign
decisions for expressions mixing rationals with powers of an integer base.

The transform bounds contain factors like N^gamma with gamma rational, which
are irrational for most (N, gamma). Comparisons against them are still
decidable exactly: reduce everything to a rational combination of the r-th
roots of a non-perfect-power integer, then bracket those roots with integer
root extractions at increasing precision. `bracket` encloses such a sum
between two rationals, and `power_sign` narrows it to an exact decision;
the remaining helpers cover the rational-vs-log2 comparisons used by the
achievability constructions.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PermidError, ValidationError

Rational = Fraction | int


def parse_frac(text: str | int | Fraction) -> Fraction:
    """Parse an exact rational from a "p/q", integer, or decimal string."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValidationError(f"not a rational: {text!r}") from exc


def frac_str(value: Rational) -> str:
    """Render an int or a Fraction as a canonical "p/q" string."""
    return f"{value.numerator}/{value.denominator}"


def sign(value: Rational) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def iroot(x: int, r: int) -> int:
    """Floor of the r-th root of a nonnegative integer."""
    if x < 0 or r < 1:
        raise ValidationError("iroot needs x >= 0 and r >= 1")
    if r == 1 or x < 2:
        return x
    if r == 2:
        return math.isqrt(x)
    if x.bit_length() <= r:
        return 1
    # Newton iteration on integers, seeded from above.
    y = 1 << -(-x.bit_length() // r)
    while True:
        y_next = ((r - 1) * y + x // y ** (r - 1)) // r
        if y_next >= y:
            break
        y = y_next
    while y**r > x:
        y -= 1
    while (y + 1) ** r <= x:
        y += 1
    return y


def strip_power(b: int) -> tuple[int, int]:
    """Write b >= 1 as m**e with e maximal; m is then not a perfect power."""
    if b < 1:
        raise ValidationError("strip_power needs b >= 1")
    if b == 1:
        return 1, 1
    for e in range(b.bit_length() - 1, 1, -1):
        m = iroot(b, e)
        if m**e == b:
            return m, e
    return b, 1


def power_sign(terms: list[tuple[Rational, Rational]], base: int) -> int:
    """Exact sign of sum(coeff * base**expo for coeff, expo in terms).

    `base` is a positive integer; coefficients and exponents are rationals
    (negative exponents allowed). No floating point is involved.
    """
    if base < 1:
        raise ValidationError("power_sign needs a positive integer base")
    live = [(Fraction(c), Fraction(e)) for c, e in terms if c != 0]
    if base == 1:
        return sign(sum(c for c, _ in live))

    m, e_base = strip_power(base)
    r = math.lcm(*(e.denominator for _, e in live))
    # Each term is c * m**(n_k / r) with integer n_k; shift so all n_k >= 0
    # (multiplying through by a positive power preserves the sign).
    exps = [e_base * int(e * r) for _, e in live]
    shift = -min([0, *exps])
    coefs = [Fraction(0)] * r
    for (c, _), n in zip(live, exps):
        n += shift
        d, j = divmod(n, r)
        coefs[j] += c * m**d
    reduced = [(c, Fraction(j, r)) for j, c in enumerate(coefs) if c != 0]
    if not reduced:
        return 0
    # m is not a perfect power, so x**r - m is irreducible and the powers
    # m**(j/r) are linearly independent over the rationals: the value is not
    # zero, and interval refinement must terminate.
    prec = 32
    while True:
        lo, hi = bracket(reduced, m, prec)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        prec *= 2
        if prec > 1 << 16:
            raise PermidError("power_sign failed to separate from zero")


def bracket(terms, base: int, bits: int) -> tuple[Fraction, Fraction]:
    """Rationals lo <= sum(c * base**e for c, e in terms) <= hi, for rational
    c and e (negative e allowed) and a positive integer base. Each power with
    a fractional exponent is bracketed by one integer root, to `bits` bits;
    integer powers are exact."""
    lo = hi = Fraction(0)
    scale = 1 << bits
    for c, e in terms:  # e may be an int or a Fraction
        if e.denominator == 1:
            p_lo = p_hi = Fraction(base) ** e.numerator
        else:
            root = iroot(base ** abs(e.numerator) << (bits * e.denominator), e.denominator)
            p_lo, p_hi = Fraction(root, scale), Fraction(root + 1, scale)
            if e < 0:
                p_lo, p_hi = 1 / p_hi, 1 / p_lo
        lo, hi = lo + c * (p_lo if c > 0 else p_hi), hi + c * (p_hi if c > 0 else p_lo)
    return lo, hi


def compare_power(x: Rational, base: int, expo: Rational) -> int:
    """Exact sign of x - base**expo for x rational, base a positive integer."""
    x = Fraction(x)
    expo = Fraction(expo)
    if x <= 0:
        return -1 if base >= 1 else sign(x)
    lhs = x ** expo.denominator
    rhs = Fraction(base) ** expo.numerator
    return sign(lhs - rhs)


def floor_plus_log2(a: Rational, n: int, mult: int = 1) -> int:
    """Exact floor of a + mult*log2(n) for rational a and integers n, mult."""
    if n < 1 or mult < 1:
        raise ValidationError("floor_plus_log2 needs n >= 1 and mult >= 1")
    a = Fraction(a)
    # 2^(b-1) <= n < 2^b for b = n.bit_length(), so the floor is at least
    # this k and at most k + mult
    k = math.floor(a) + mult * (n.bit_length() - 1)
    # a + mult*log2(n) >= k + 1  iff  log2(n) >= (k + 1 - a)/mult
    while compare_power(n, 2, (k + 1 - a) / mult) >= 0:
        k += 1
    return k


def ceil_pow2_over(c: Rational, n: int) -> int:
    """Exact ceiling of 2**c / n for rational c and a positive integer n."""
    if n < 1:
        raise ValidationError("ceil_pow2_over needs n >= 1")
    c = Fraction(c)

    def at_least(k: int) -> bool:
        # k >= 2**c / n  iff  k*n >= 2**c
        return compare_power(k * n, 2, c) >= 0

    if c < 0:
        return 1
    guess = max(1, (1 << (c.numerator // c.denominator)) // n)
    if at_least(guess):
        lo, hi = 0, guess
    else:
        lo, hi = guess, 2 * guess
        while not at_least(hi):
            lo, hi = hi, 2 * hi
    # invariant: lo fails, hi satisfies; bisect to the least satisfying k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if at_least(mid):
            hi = mid
        else:
            lo = mid
    return hi
