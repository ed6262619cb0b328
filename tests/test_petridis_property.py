"""Property test: `petridis_minimizer` agrees with the plain-set oracle.

|A| is drawn from 1 to 12, so both the subset loop and the table pass of the
minimizer are exercised (the cutoff is `theorems.PETRIDIS_TABLE_MIN`).
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from smalldoubling import catalogue, petridis_minimizer
from smalldoubling.theorems import _minimize_by_loop, _minimize_by_table
from oracles import naive_petridis_minimizer

GROUPS = catalogue(16)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_minimizer_matches_naive_minimizer(data):
    G = data.draw(st.sampled_from(GROUPS), label="group")
    size = data.draw(st.integers(1, min(12, G.order)), label="|A|")
    A = data.draw(st.permutations(range(G.order)), label="order")[:size]
    S = data.draw(
        st.lists(st.integers(0, G.order - 1), min_size=1, max_size=4, unique=True), label="S"
    )
    result = petridis_minimizer(G, G.subset(A), G.subset(S))
    X, K = naive_petridis_minimizer(G, set(A), set(S))
    assert (set(result.X.elements()), result.K) == (X, K)


# Any rows will do: both paths minimize |OR of rows over X| / |X|.
ROW = st.one_of(st.integers(0, 255), st.integers(0, (1 << 64) - 1))


@settings(max_examples=300, deadline=None)
@given(st.lists(ROW, min_size=1, max_size=10))
def test_table_pass_matches_loop_on_either_side_of_the_cutoff(rows):
    assert _minimize_by_table(rows) == _minimize_by_loop(rows)
