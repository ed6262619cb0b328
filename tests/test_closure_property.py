"""Property test: `closure` agrees with the plain-set oracle."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from smalldoubling import catalogue, closure
from oracles import naive_closure

GROUPS = catalogue(32)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_closure_matches_naive_closure(data):
    G = data.draw(st.sampled_from(GROUPS), label="group")
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=4), label="gens")
    assert set(closure(G, G.subset(gens)).elements()) == naive_closure(G, gens)
