"""Property tests for the fast paths of Petridis verification and the random
Kneser search, each against its plain reference.

- `setalg.fixed_factor_product` against `product_mask`, at widths that are
  and are not multiples of 8, up to order 64, with one and two factors;
- `theorems._narrow_ratio`, and the uint16 comparison `_exceeds` of the
  exhaustive Petridis check, against the Fraction comparison a > K*s;
- `theorems._fails` against the plain-set oracle.
"""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from smalldoubling import Subset, dihedral
from smalldoubling.setalg import fixed_factor_product, product_mask
from smalldoubling.theorems import _exceeds, _fails, _narrow_ratio
from oracles import naive_kneser_fails
from test_setalg import GROUPS

WIDE = GROUPS + [dihedral(32)]  # orders 6, 8, 9, 12 and 64


def _mask(data, G, label):
    return data.draw(st.integers(0, (1 << G.order) - 1), label=label)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fixed_factor_product_matches_product_mask(data):
    G = data.draw(st.sampled_from(WIDE), label="group")
    F = _mask(data, G, "F")
    E = _mask(data, G, "E")
    C = _mask(data, G, "C")
    assert fixed_factor_product(G, Subset(G.order, F))(C) == product_mask(G, C, F)
    both = fixed_factor_product(G, Subset(G.order, F), Subset(G.order, E))(C)
    assert both == product_mask(G, C, F) | product_mask(G, C, E) << G.order


@pytest.mark.parametrize("G", WIDE, ids=lambda g: g.name)
def test_fixed_factor_product_of_the_empty_and_the_full_set(G):
    full = (1 << G.order) - 1
    rng = random.Random(G.order)
    for F in (0, 1, full, rng.randrange(1, full)):
        product = fixed_factor_product(G, Subset(G.order, F))
        assert product(0) == 0
        assert product(full) == product_mask(G, full, F)


HUGE = Fraction(2**61 + 1, 2**61)
TERM = st.one_of(st.integers(0, 30), st.integers(0, 2**70))


@settings(max_examples=200, deadline=None)
@given(TERM, TERM.map(lambda q: q + 1), st.integers(1, 70))
@example(HUGE.numerator, HUGE.denominator, 64)
@example(HUGE.numerator, HUGE.denominator, 24)
@example(2**62 - 1, 2**62 - 3, 24)
@example(2**61 + 1, 1, 64)
@example(1, 2**61 + 1, 64)
@example(25, 1, 24)  # K > n: nothing exceeds it
@example(24, 1, 24)
@example(3, 7, 20)  # K < 1
@example(0, 1, 5)
def test_narrowed_ratio_comparison_is_the_exact_one(p, q, n):
    """Every pair (a, s) = (|C*X*S|, |C*X|) in [0, n]^2: the narrowed ratio,
    in Python ints and, for n <= 24, in the exhaustive uint16 comparison,
    agrees with a > K*s in Fractions."""
    import numpy as np

    K = Fraction(p, q)
    narrow_p, narrow_q = _narrow_ratio(p, q, n)
    assert 0 <= narrow_p <= max(p, n) and 1 <= narrow_q <= max(q, n)
    if max(p, q) > n:
        assert narrow_p <= n and narrow_q <= n
    pairs = [(a, s) for a in range(n + 1) for s in range(n + 1)]
    exact = [a > K * s for a, s in pairs]
    assert [narrow_q * a > narrow_p * s for a, s in pairs] == exact
    if n <= 24:
        a, s = np.array(pairs, dtype=np.uint8).T
        assert _exceeds(a, s, narrow_p, narrow_q).tolist() == exact


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fails_matches_the_plain_set_oracle(data):
    G = data.draw(st.sampled_from(GROUPS + [dihedral(6)]), label="group")
    A = data.draw(st.integers(1, (1 << G.order) - 1), label="A")
    B = data.draw(st.integers(1, (1 << G.order) - 1), label="B")
    expect = naive_kneser_fails(
        G, Subset(G.order, A).elements(), Subset(G.order, B).elements()
    )
    assert _fails(G, A, B) == expect
