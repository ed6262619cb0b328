"""Exact rationals as "p/q" strings.

All ratios, costs and thresholds in this toolkit are `fractions.Fraction`
values; nothing is ever rounded.  Decimal input is rejected on purpose.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a bare integer "p") into an exact Fraction."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not an exact rational (expected p/q): {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def as_fraction(value, what: str) -> Fraction:
    """`value`, an int or a Fraction, as a Fraction.  Anything else is a
    TypeError: `Fraction(0.2)` is not 1/5, and a bool is no rate."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"{what} must be an int or a Fraction, got {value!r}")
    return Fraction(value)


def rational_str(value: Fraction | int) -> str:
    """Canonical "p/q" rendering (always with an explicit denominator)."""
    return f"{value.numerator}/{value.denominator}"


def narrow_ratio(K: Fraction, n: int) -> tuple[int, int]:
    """(p, q), q > 0, with terms of at most 2n + 1 and q*x - p*y of the sign
    of x - K*y for all integers x and y in [-n, n].

    For y != 0 that sign says on which side of K the ratio x/y lies, so any
    p/q that lies like K among the a/b with |a| <= n and 1 <= b <= n will do.
    K is kept when it is one of them, which is when its terms are at most n.
    Below -n and above n, -n - 1 and n + 1 will do.  Otherwise K lies
    strictly between two neighbours, the largest a/b below it and the
    smallest above it, and so does their mediant, whose terms are at most 2n.
    """
    p, q = K.numerator, K.denominator
    if abs(p) <= n and q <= n:
        return p, q
    if not -n < K < n:
        return (n + 1 if p > 0 else -n - 1), 1
    below, above = (-n, 1), (n, 1)  # a/b on either side of K, to be tightened
    for b in range(1, n + 1):
        a = min(-(-p * b // q) - 1, n)  # the largest a <= n with a/b < K
        if a >= -n and a * below[1] > below[0] * b:
            below = a, b
        a = max(p * b // q + 1, -n)  # the smallest a >= -n with a/b > K
        if a <= n and a * above[1] < above[0] * b:
            above = a, b
    return below[0] + above[0], below[1] + above[1]
