"""`rationals.narrow_ratio` against the ratio it narrows: q*x - p*y must keep
its sign for every x and y in [-n, n], ties included, at every order the
brute-force solver and the exhaustive Petridis check can reach."""

import random
from fractions import Fraction

import numpy as np
import pytest

from smalldoubling.rationals import narrow_ratio


def _signs(p, q, n):
    """sign(q*x - p*y) for every x, y in [-n, n], exactly."""
    dtype = np.int64 if max(abs(p), q) < 1 << 40 else object  # object: Python ints
    d = np.arange(-n, n + 1).astype(dtype)
    return np.sign(q * d[:, None] - p * d[None, :])


def _ratios(n):
    """Every a/b with |a| <= n + 2 and b <= n + 2, the mediant and the
    midpoint of each two neighbours among them, 20 random ratios with terms
    up to 2^70, ratios just below -n and just above n, and -2^70 and 2^70."""
    small = sorted({Fraction(a, b) for a in range(-n - 2, n + 3) for b in range(1, n + 3)})
    between = [
        r
        for x, y in zip(small, small[1:])
        for r in (Fraction(x.numerator + y.numerator, x.denominator + y.denominator), (x + y) / 2)
    ]
    rng = random.Random(n)
    huge = [Fraction(rng.randint(-1 << 70, 1 << 70), rng.randint(1, 1 << 70)) for _ in range(20)]
    tiny = Fraction(1, (1 << 70) + 1)
    outside = [-n - tiny, n + tiny, Fraction(-(1 << 70)), Fraction(1 << 70)]
    return small + between + huge + outside


@pytest.mark.parametrize("n", range(1, 25))
def test_narrow_ratio_keeps_every_sign(n):
    for K in _ratios(n):
        p, q = narrow_ratio(K, n)
        assert 0 < q <= 2 * n + 1 and abs(p) <= 2 * n + 1, (K, p, q)
        if abs(K.numerator) <= n and K.denominator <= n:
            assert (p, q) == (K.numerator, K.denominator)
        assert (_signs(p, q, n) == _signs(K.numerator, K.denominator, n)).all(), (K, p, q)
