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
    # Newton iteration on integers, seeded from above by the root of the top
    # bits (x < 4^r when they are all of x, so the root is below 4)
    shift = x.bit_length() // (2 * r)
    y = (iroot(x >> shift * r, r) + 1) << shift if shift else 4
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


def floor_log2(x: Rational) -> int:
    """Exact floor of log2(x) for a positive rational x."""
    if x <= 0:
        raise ValidationError("floor_log2 needs x > 0")
    p, q = x.as_integer_ratio()
    # 2^(k-1) < p/q < 2^(k+1), so one comparison with 2^k decides the floor
    k = p.bit_length() - q.bit_length()
    return k if p << max(0, -k) >= q << max(0, k) else k - 1


def log2_bracket(x: Rational, bits: int) -> tuple[Fraction, Fraction]:
    """Rationals lo <= log2(x) <= hi for a positive rational x: exact when x is
    a power of two, else hi - lo <= 2**-bits. For x = 2^k * m, 1 <= m < 2, each
    squaring of m, in fixed point rounded down and up, yields one binary digit
    of log2(m); a digit the roundings leave open ends it with a wider bracket."""
    k = floor_log2(x)
    frac_bits = bits + 32  # rounding error doubles per squaring: 32 guard bits
    one = 1 << frac_bits
    m = Fraction(x) * Fraction(2) ** (frac_bits - k)
    lo, hi = math.floor(m), math.ceil(m)
    digits = done = 0
    while done < bits:
        lo, hi = lo * lo >> frac_bits, -(-hi * hi >> frac_bits)
        if lo >= 2 * one:
            digits, lo, hi = 2 * digits + 1, lo >> 1, -(-hi >> 1)
        elif hi < 2 * one:
            digits *= 2
        else:
            break
        done += 1
    # log2(m) = (digits + log2(m')) / 2^done with 1 <= m' <= hi/one, m' < 2
    return k + Fraction(digits, 1 << done), k + Fraction(digits + (hi > one), 1 << done)


def floor_plus_log2(a: Rational, n: int, mult: int = 1) -> int:
    """Exact floor of a + mult*log2(n) for rational a and integers n, mult."""
    if n < 1 or mult < 1:
        raise ValidationError("floor_plus_log2 needs n >= 1 and mult >= 1")
    p, r = Fraction(a).as_integer_ratio()
    # floor(p/r + mult*log2 n) = floor(log2(2^p * n^(r*mult)) / r)
    return (p + floor_log2(n ** (r * mult))) // r


def ceil_pow2_over(c: Rational, n: int) -> int:
    """Exact ceiling of 2**c / n for rational c and a positive integer n."""
    if n < 1:
        raise ValidationError("ceil_pow2_over needs n >= 1")
    p, r = Fraction(c).as_integer_ratio()
    if p < 0:
        return 1
    # root <= 2^c < root + 1, and 2^c = root only when root^r = 2^p
    root = iroot(1 << p, r)
    return -(-(root + (root**r != 1 << p)) // n)
