"""Property test: renaming the elements of a group renames everything the
table derives, whether the renamed table is given as a table or as the one
factor of a product.

The identity, the inverses, kappa and the identity atom of both solvers are
all read from the table, so under a renaming pi they must map by pi.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from smalldoubling import catalogue, direct_product, from_table
from smalldoubling.connectivity import (
    connectivity_bruteforce,
    connectivity_subgroup_solver,
)
from oracles import relabel

GROUPS = catalogue(12)
KS = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)]


def _solve(G, S, K):
    sub = connectivity_subgroup_solver(G, G.subset(S), K)
    brute = connectivity_bruteforce(G, G.subset(S), K)
    assert brute.identity_atom == sub.identity_atom
    return sub.kappa, set(sub.identity_atom.elements()), brute.kappa


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_renamed_table_derives_the_renamed_group(data):
    G = data.draw(st.sampled_from(GROUPS), label="group")
    pi = data.draw(st.permutations(range(G.order)), label="pi")
    S = data.draw(
        st.lists(st.integers(0, G.order - 1), min_size=1, max_size=3, unique=True), label="S"
    )
    K = data.draw(st.sampled_from(KS), label="K")
    kappa, atom, brute_kappa = _solve(G, S, K)
    T = from_table(relabel(G.mul, pi))
    for H in (T, direct_product([T])):
        assert H.identity == pi[G.identity]
        assert all(H.inv[pi[a]] == pi[G.inv[a]] for a in G.elements())
        assert _solve(H, [pi[s] for s in S], K) == (kappa, {pi[a] for a in atom}, brute_kappa)
