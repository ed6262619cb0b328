"""Property tests: `petridis_minimizer` agrees with the plain-set oracle,
and the min-cut kernel it shares with the identity atom finds the meet and
the join of all minimizers.

|A| is drawn on both sides of `theorems.PETRIDIS_FLOW_MIN`, so both the
subset loop and the min-cut path of the minimizer are exercised.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from smalldoubling import catalogue, petridis_minimizer
from smalldoubling.connectivity import _min_cut_sides
from smalldoubling.theorems import PETRIDIS_FLOW_MIN, _minimize_by_flow, _minimize_by_loop
from oracles import naive_petridis_minimizer

GROUPS = catalogue(16)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_minimizer_matches_naive_minimizer(data):
    G = data.draw(st.sampled_from(GROUPS), label="group")
    size = data.draw(st.integers(1, min(PETRIDIS_FLOW_MIN + 2, G.order)), label="|A|")
    A = data.draw(st.permutations(range(G.order)), label="order")[:size]
    S = data.draw(
        st.lists(st.integers(0, G.order - 1), min_size=1, max_size=4, unique=True), label="S"
    )
    result = petridis_minimizer(G, G.subset(A), G.subset(S))
    X, K = naive_petridis_minimizer(G, set(A), set(S))
    assert (set(result.X.elements()), result.K) == (X, K)


# Any rows will do: both paths minimize |OR of rows over X| / |X|.  An empty
# row gives ratio 0, and 64-bit rows are wider than any group row here.
ROW = st.one_of(st.just(0), st.integers(0, 255), st.integers(0, (1 << 64) - 1))


@settings(max_examples=300, deadline=None)
@given(st.lists(ROW, min_size=1, max_size=14))
def test_min_cut_matches_loop_on_arbitrary_rows(rows):
    assert _minimize_by_flow(rows) == _minimize_by_loop(rows)


@settings(max_examples=300, deadline=None)
@given(st.lists(ROW, min_size=1, max_size=12), st.integers(0, 12), st.integers(1, 12))
@example(rows=[0], p=0, q=1)
@example(rows=[0, 0, 6], p=0, q=3)
@example(rows=[0, 5, 3], p=2, q=1)
# Capacities near 2^61-2^64: shortest augmenting paths bound the rounds
# whatever the capacities, and the arithmetic must stay exact.
@example(rows=[1, 1, 3, 4], p=1 << 61, q=(1 << 61) + 1)
@example(rows=[1, 1, 2, 6], p=1 << 63, q=1 << 63)
@example(rows=[1, 3, 7, 15, 1 << 63], p=1 << 64, q=(1 << 63) + 1)
@example(rows=[(1 << 64) - 1, 1, 2], p=(1 << 62) + 3, q=1 << 62)
def test_min_cut_sides_are_meet_and_join_of_all_minimizers(rows, p, q):
    # Every X, the empty set included, with N(X) the OR of its rows.
    cover = [0] * (1 << len(rows))
    for X in range(1, len(cover)):
        low = X & -X
        cover[X] = cover[X ^ low] | rows[low.bit_length() - 1]
    costs = [q * n.bit_count() - p * X.bit_count() for X, n in enumerate(cover)]
    least = min(costs)
    meet, join = len(cover) - 1, 0
    for X, c in enumerate(costs):
        if c == least:
            meet, join = meet & X, join | X
    assert _min_cut_sides(rows, p, q) == (meet, join)
