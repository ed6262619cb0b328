"""Property tests for the fast paths of Petridis verification and the random
Kneser search, each against its plain reference.

- `setalg.fixed_factor_product` against `product_mask`, at widths that are
  and are not multiples of 8, up to order 64;
- `theorems._limit_table` against the integer comparison q*a > p*s;
- `theorems._fails` against the plain-set oracle.
"""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from smalldoubling import Subset, dihedral
from smalldoubling.setalg import fixed_factor_product, product_mask
from smalldoubling.theorems import _fails, _limit_table
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
    C = _mask(data, G, "C")
    assert fixed_factor_product(G, Subset(G.order, F))(C) == product_mask(G, C, F)


@pytest.mark.parametrize("G", WIDE, ids=lambda g: g.name)
def test_fixed_factor_product_of_the_empty_and_the_full_set(G):
    full = (1 << G.order) - 1
    rng = random.Random(G.order)
    for F in (0, 1, full, rng.randrange(1, full)):
        product = fixed_factor_product(G, Subset(G.order, F))
        assert product(0) == 0
        assert product(full) == product_mask(G, full, F)


HUGE = Fraction(2**61 + 1, 2**61)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 2**70),
    st.integers(1, 2**70),
    st.integers(1, 64),
)
@example(HUGE.numerator, HUGE.denominator, 64)
@example(2**61 + 1, 1, 64)
@example(1, 2**61 + 1, 64)
def test_limit_table_comparison_is_the_exact_one(p, q, n):
    import numpy as np

    K = Fraction(p, q)
    limit = _limit_table(K, n)
    table = np.array(limit, dtype=np.uint8)
    sizes = np.arange(n + 1, dtype=np.uint8)
    for a in range(n + 1):
        exact = [K.denominator * a > K.numerator * s for s in range(n + 1)]
        assert [a > limit[s] for s in range(n + 1)] == exact
        assert (np.full(n + 1, a, dtype=np.uint8) > table[sizes]).tolist() == exact


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
