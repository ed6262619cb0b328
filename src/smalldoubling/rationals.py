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
