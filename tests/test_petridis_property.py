"""Property tests: `petridis_minimizer` agrees with the plain-set oracle,
and the min-cut kernel it shares with the identity atom finds the meet and
the join of all minimizers.

|A| is drawn on both sides of `theorems.PETRIDIS_FLOW_MIN`, so both the
subset loop and the min-cut path of the minimizer are exercised.

The exhaustive mode of `petridis_verify`, which decides on the C that hold
element 0 and lists violations block by block, agrees with the plain-list table of
every C (`oracles.full_table_petridis`), on preset and relabelled groups, X
drawn as the minimizer, as any set, and as a union of right cosets H*x (so
that the check decides over the cosets of X's left stabilizer).

The seeded modes draw their masks with `theorems._nonempty_masks`, which
draws what `random.Random(seed).randrange(1, 1 << n)` draws.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from smalldoubling import (
    catalogue,
    dihedral,
    from_spec,
    from_table,
    petridis_minimizer,
    petridis_verify,
)
from smalldoubling.connectivity import _min_cut_sides
from smalldoubling.theorems import (
    PETRIDIS_FLOW_MIN,
    PetridisResult,
    _minimize_by_flow,
    _minimize_by_loop,
    _nonempty_masks,
)
from oracles import (
    full_table_petridis,
    naive_closure,
    naive_petridis_minimizer,
    naive_product,
    relabel,
)
from test_payload_digests import TABLE_S3

Z3 = {"preset": "cyclic", "n": 3}

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


# Orders up to 18, drawn as often past 16 as below it: from order 17 on, the
# exhaustive check has more than one block of 2^16 masks.  Relabelled tables
# put the identity off index 0.
SMALL_GROUPS = catalogue(16)
LARGE_GROUPS = [G for G in catalogue(18) if G.order > 16]
LOWERINGS = [Fraction(1), Fraction(3, 4), Fraction(9, 10), Fraction(2**61, 2**61 + 1)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exhaustive_verification_matches_the_full_table(data):
    groups = st.one_of(st.sampled_from(SMALL_GROUPS), st.sampled_from(LARGE_GROUPS))
    G = data.draw(groups, label="group")
    n = G.order
    if data.draw(st.booleans(), label="relabel"):
        pi = data.draw(st.permutations(range(n)), label="pi")
        if n > 1 and pi[G.identity] == 0:
            pi = pi[1:] + pi[:1]
        G = from_table(relabel(G.mul, pi))
    A = data.draw(st.permutations(range(n)), label="A")[: data.draw(st.integers(1, 10))]
    # |S| = 1 gives |X*S| = |X| with X*S != X for most X.
    S = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    result = petridis_minimizer(G, G.subset(A), G.subset(S))
    # X = A need not minimize, so C past the first block may violate too.  A
    # union of right cosets H*x of a cyclic H has H in its left stabilizer.
    how = data.draw(st.sampled_from(["minimizer", "A", "cosets"]), label="X")
    if how == "cosets":
        H = naive_closure(G, [data.draw(st.integers(0, n - 1), label="h")])
        xs = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3), label="x")
        A = sorted({G.mul[h][x] for h in H for x in xs})
    if how != "minimizer":
        K = Fraction(len(naive_product(G, A, S)), len(A))
        result = dataclasses.replace(result, X=G.subset(A), K=K)
    K = result.K * data.draw(st.sampled_from(LOWERINGS), label="lowered by")
    ver = petridis_verify(G, dataclasses.replace(result, K=K), "exhaustive")
    expect = full_table_petridis(G, result.X.elements(), S, K)
    assert (ver.checked, ver.ok, ver.equality_at_identity) == expect[:3]
    assert [c.mask for c in ver.violations] == expect[3]


# Results whose X = A is not the minimizer, so that few C violate, some of
# them past the first block of 2^16 masks.
MULTI_BLOCK = {
    # Order 20.  The ten violating C are the pairs {g, g*s9}, up to
    # {e, s9} = 0x80001, the only one that holds e, index 0: the deciding pass
    # finds it in block 4 of 8, and the listing pass reads blocks 0 to 8 of 16.
    "D10": (dihedral(10), [3, 4, 5, 6, 8, 11, 13, 15], [2, 8],
            [0x402 << i for i in range(9)] + [0x80001]),
    # Order 18 with the identity at index 3: nine violating C, the last two in
    # blocks 1 and 2 of 4.
    "S3xZ3": (from_spec({"preset": "direct_product", "factors": [TABLE_S3, Z3]}),
              [1, 8, 10, 14, 15], [3, 6, 16],
              [0x41, 0x82, 0x104, 0x1200, 0x2400, 0x4800, 0x8008, 0x10010, 0x20020]),
}


@pytest.mark.parametrize("name", list(MULTI_BLOCK))
def test_exhaustive_verification_lists_violations_past_the_first_block(name):
    G, A, S, masks = MULTI_BLOCK[name]
    K = Fraction(len(naive_product(G, A, S)), len(A))
    A, S = G.subset(A), G.subset(S)
    ver = petridis_verify(G, PetridisResult(A=A, S=S, X=A, K=K), "exhaustive")
    expect = full_table_petridis(G, A.elements(), S.elements(), K)
    assert (ver.checked, ver.ok, ver.equality_at_identity) == expect[:3]
    assert [c.mask for c in ver.violations] == expect[3] == masks


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 24), st.integers(-(1 << 70), 1 << 70) | st.text(max_size=8))
def test_the_mask_draws_are_those_of_randrange(n, seed):
    # A Python whose randrange draws otherwise fails here, before any digest.
    rng = random.Random(seed)
    expect = [rng.randrange(1, 1 << n) for _ in range(64)]
    assert list(itertools.islice(_nonempty_masks(random.Random(seed), n), 64)) == expect
