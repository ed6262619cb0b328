import itertools
import random
from fractions import Fraction
from functools import partial

import pytest

from smalldoubling import (
    EmptySet,
    GroupMismatch,
    KOutOfRange,
    SizeLimitExceeded,
    Subset,
    TheoryViolation,
    catalogue,
    connectivity_bruteforce,
    connectivity_subgroup_solver,
    cost,
    cyclic,
    dihedral,
    direct_product,
    enumerate_subgroups,
    quaternion,
    symmetric,
    verify_atom_proposition,
)
from smalldoubling import connectivity
from smalldoubling.certificates import run
from smalldoubling.groups import image
from oracles import (
    is_subgroup_naive,
    naive_closure,
    naive_connectivity,
    naive_cost,
    naive_identity_atom,
    subgroup_atom,
)

HALF = Fraction(1, 2)


def subsets_of(G):
    for mask in range(1, 1 << G.order):
        yield Subset(G.order, mask)


def test_cost_examples():
    Z8 = cyclic(8)
    S = Z8.subset([0, 1])
    assert cost(Z8, S, HALF, Z8.subset([])) == 0
    assert cost(Z8, S, HALF, Z8.subset([3])) == Fraction(3, 2)
    # S = {e} makes the cost |A| - K|A|
    for A in (Z8.subset([1, 2]), Z8.subset([0, 3, 5])):
        assert cost(Z8, Z8.subset([0]), HALF, A) == Fraction(A.cardinality, 2)


# Every entry that takes (S, K) checks S first and reads K as a Fraction.
TAKE_S_AND_K = {
    "cost": lambda G, S, K: cost(G, S, K, G.subset([0, 1])),
    "brute_force": connectivity_bruteforce,
    "subgroup_restricted": connectivity_subgroup_solver,
    "atoms": verify_atom_proposition,
}


@pytest.mark.parametrize("solve", TAKE_S_AND_K.values(), ids=TAKE_S_AND_K)
def test_s_is_checked_and_k_may_be_an_int(solve):
    G = cyclic(6)
    with pytest.raises(EmptySet, match="^cost parameters need a nonempty S$"):
        solve(G, Subset(6, 0), HALF)
    with pytest.raises(GroupMismatch, match="S has group order 4, expected 6"):
        solve(G, cyclic(4).subset([0, 1]), HALF)
    for K in (-1, 0):
        assert solve(G, G.subset([0, 1]), K) == solve(G, G.subset([0, 1]), Fraction(K))


def test_cost_lower_bound_exhaustive():
    # cost(A) >= (1-K)|A| for K < 1, checked over every subset of small groups
    for G in (cyclic(6), symmetric(3)):
        for S in (G.subset([0, 1]), G.subset([1])):
            for K in (Fraction(0), HALF, Fraction(5, 6)):
                for A in subsets_of(G):
                    assert cost(G, S, K, A) >= (1 - K) * A.cardinality


def test_cost_lower_bound_random_large_group():
    # same bound sampled in a group too big for exhaustion
    G = direct_product([cyclic(5), cyclic(5)])
    rng = random.Random(6)
    for _ in range(200):
        S = Subset(G.order, rng.randrange(1, 1 << G.order))
        A = Subset(G.order, rng.randrange(0, 1 << G.order))
        K = Fraction(rng.randrange(0, 100), 100)
        assert cost(G, S, K, A) >= (1 - K) * A.cardinality


def test_solvers_accept_negative_k():
    # K < 0 takes the solver's closed form, K = 0 a min cut with no flow.
    G = cyclic(8)
    S = G.subset([0, 1])
    for K in (Fraction(-1), Fraction(0)):
        brute = connectivity_bruteforce(G, S, K)
        sub = connectivity_subgroup_solver(G, S, K)
        assert brute.kappa == sub.kappa == 2 - K  # singleton: |A*S| - K|A|
        assert brute.identity_atom == sub.identity_atom == G.subset([0])


def test_left_invariance_exhaustive_s3():
    G = symmetric(3)
    S, K = G.subset([0, 2]), HALF
    rng = random.Random(2)
    for _ in range(40):
        A = Subset(G.order, rng.randrange(0, 1 << G.order))
        for x in G.elements():
            xA = Subset(G.order, image(G.mul[x], A.mask))
            assert cost(G, S, K, xA) == cost(G, S, K, A)


def test_left_invariance_concrete():
    Z8 = cyclic(8)
    S, K = Z8.subset([0, 1]), HALF
    A = Z8.subset([3])
    for x in (0, 5):  # x = e, and a proper shift
        xA = Subset(Z8.order, image(Z8.mul[x], A.mask))
        assert cost(Z8, S, K, xA) == cost(Z8, S, K, A)


def test_submodularity_examples():
    Z6 = cyclic(6)
    c = partial(cost, Z6, Z6.subset([0, 1]), HALF)

    def c_union_meet(X, Y):  # c(X ∪ Y) + c(X ∩ Y)
        return c(Subset(6, X.mask | Y.mask)) + c(Subset(6, X.mask & Y.mask))

    A, B = Z6.subset([0, 1]), Z6.subset([1, 2])
    assert c_union_meet(A, B) == naive_cost(Z6, [0, 1], HALF, [0, 1, 2]) + naive_cost(
        Z6, [0, 1], HALF, [1]
    )
    for X, Y in ((A, B), (Z6.subset([0]), Z6.subset([3]))):
        assert c_union_meet(X, Y) <= c(X) + c(Y)
    assert c_union_meet(A, A) == 2 * c(A)


def test_submodularity_exhaustive_small():
    G = cyclic(5)
    for smask in (0b00011, 0b10101):
        S, K = Subset(5, smask), Fraction(3, 4)
        for amask, bmask in itertools.product(range(1 << 5), repeat=2):
            A, B = Subset(5, amask), Subset(5, bmask)
            union, meet = Subset(5, amask | bmask), Subset(5, amask & bmask)
            lhs = cost(G, S, K, union) + cost(G, S, K, meet)
            assert lhs <= cost(G, S, K, A) + cost(G, S, K, B)


BRUTE_GROUPS = [
    cyclic(6),
    cyclic(8),
    symmetric(3),
    dihedral(4),
    quaternion(2),
    direct_product([cyclic(2), cyclic(4)]),
]


def test_bruteforce_examples():
    Z8 = cyclic(8)
    res = connectivity_bruteforce(Z8, Z8.subset([0]), HALF)
    assert res.kappa == HALF and res.identity_atom.elements() == (0,)

    res = connectivity_bruteforce(Z8, Z8.subset([0, 1]), HALF)
    assert res.kappa == Fraction(3, 2)
    assert res.identity_atom.elements() == (0,)
    assert res.atom_is_subgroup

    # S a subgroup: kappa = |H|/2 and the atom is H itself
    for G, h_elems in ((cyclic(6), (0, 3)), (symmetric(3), (0, 2)), (cyclic(8), (0, 2, 4, 6))):
        H = G.subset(h_elems)
        res = connectivity_bruteforce(G, H, HALF)
        assert res.kappa == Fraction(H.cardinality, 2)
        assert res.identity_atom == H


@pytest.mark.parametrize("G", BRUTE_GROUPS, ids=lambda g: g.name)
def test_bruteforce_matches_naive_oracle(G):
    rng = random.Random(G.order * 17)
    for trial in range(6):
        smask = rng.randrange(1, 1 << G.order)
        S = Subset(G.order, smask)
        for K in (Fraction(1, 4), HALF, Fraction(5, 6)):
            res = connectivity_bruteforce(G, S, K, collect_fragments=True)
            kappa, fragments = naive_connectivity(G, S.elements(), K)
            assert res.kappa == kappa
            assert {frozenset(f.elements()) for f in res.fragments} == set(fragments)
            assert res.fragment_total == len(fragments)
            _, atom = naive_identity_atom(G, S.elements(), K)
            assert set(res.identity_atom.elements()) == atom


def test_bruteforce_fragment_properties():
    G = cyclic(8)
    S, K = G.subset([0, 1]), HALF
    res = connectivity_bruteforce(G, S, K, collect_fragments=True)
    assert all(cost(G, S, K, f) == res.kappa for f in res.fragments)
    # fragment lattice closure: intersecting fragments give fragments
    frags = {f.mask for f in res.fragments}
    for a, b in itertools.combinations(res.fragments, 2):
        if a.mask & b.mask:
            assert a.mask | b.mask in frags
            assert a.mask & b.mask in frags


def test_bruteforce_fragment_cap():
    G = cyclic(8)
    res = connectivity_bruteforce(
        G, G.subset([0, 1]), HALF, collect_fragments=True, fragment_cap=3
    )
    assert len(res.fragments) == 3
    assert res.fragment_total == 8  # all singletons attain kappa here
    for cap in (-1, -3):  # a slice [:cap] would drop fragments from the end
        with pytest.raises(ValueError):
            connectivity_bruteforce(
                G, G.subset([0, 1]), HALF, collect_fragments=True, fragment_cap=cap
            )
    res = connectivity_bruteforce(
        G, G.subset([0, 1]), HALF, collect_fragments=True, fragment_cap=0
    )
    assert res.fragments == () and res.fragment_total == 8


def test_bruteforce_k_edge_cases():
    G = cyclic(6)
    S = G.subset([0, 1])
    with pytest.raises(KOutOfRange):
        connectivity_bruteforce(G, S, Fraction(3, 2))
    with pytest.raises(KOutOfRange):
        connectivity_bruteforce(G, S, Fraction(1))
    res = connectivity_bruteforce(
        G, S, Fraction(1), classify_atom=False, collect_fragments=True
    )
    # at K = 1 the whole group costs 0, the minimum
    assert res.kappa == 0
    assert res.identity_atom is None and res.atom_is_subgroup is None
    assert any(f.cardinality == G.order for f in res.fragments)


def test_bruteforce_size_cap():
    # The brute-force cap is the command's, not the solver's: the solver runs
    # at order 17, which the command refuses under the default cap of 16.
    Z17 = cyclic(17)
    assert connectivity_bruteforce(Z17, Z17.subset([0, 1]), HALF).kappa == Fraction(3, 2)
    config = {"group": {"preset": "cyclic", "n": 17}, "sets": {"S": [0, 1]}, "K": "1/2",
              "solver": "brute_force"}
    with pytest.raises(SizeLimitExceeded, match=r"2\^17 subsets, above the brute-force cap 16"):
        run("connectivity", config)
    assert run("connectivity", {**config, "caps": {"bruteforce_cap": 17}})["kappa"] == "3/2"


@pytest.mark.parametrize("n", [40, 70])
def test_bruteforce_refuses_tables_past_the_limit_whatever_the_cap(n):
    # The solvers take no cap, but masks of order 40 need 33-64 bits and those
    # of order 70 more than any numpy integer holds; both are refused before a
    # 2^n table is started.
    G = cyclic(n)
    S, K = G.subset([0, 1]), HALF
    with pytest.raises(SizeLimitExceeded, match=rf"need 2\^{n} entries"):
        connectivity_bruteforce(G, S, K)
    with pytest.raises(SizeLimitExceeded, match=rf"need 2\^{n} entries"):
        verify_atom_proposition(G, S, K)


EXACT_KS = (
    Fraction((1 << 45) - 1, 1 << 45),
    Fraction(1 << 64, (1 << 64) + 1),
    Fraction(-(1 << 70), 3),
    Fraction(0),
    HALF,
)


@pytest.mark.parametrize("G", [cyclic(6), symmetric(3)], ids=lambda g: g.name)
def test_bruteforce_is_exact_at_any_k(G):
    # Numerators and denominators far past int64 must give the oracle's
    # kappa, fragments and identity atom exactly.
    S = G.subset([0, 1])
    for K in EXACT_KS:
        res = connectivity_bruteforce(
            G, S, K, collect_fragments=True, fragment_cap=1 << G.order
        )
        kappa, fragments = naive_connectivity(G, [0, 1], K)
        assert res.kappa == kappa
        assert {f.elements() for f in res.fragments} == {tuple(sorted(f)) for f in fragments}
        assert res.fragment_total == len(fragments)
        assert set(res.identity_atom.elements()) == naive_identity_atom(G, [0, 1], K)[1]
    res = connectivity_bruteforce(
        G,
        S, Fraction(1),
        collect_fragments=True,
        fragment_cap=1 << G.order,
        classify_atom=False,
    )
    kappa, fragments = naive_connectivity(G, [0, 1], Fraction(1))
    assert res.kappa == kappa and res.identity_atom is None
    assert {f.elements() for f in res.fragments} == {tuple(sorted(f)) for f in fragments}


def test_subgroup_solver_examples():
    Z8 = cyclic(8)
    res = connectivity_subgroup_solver(Z8, Z8.subset([0]), HALF)
    assert res.kappa == HALF and res.identity_atom.elements() == (0,)
    res = connectivity_subgroup_solver(Z8, Z8.subset([0, 1]), HALF)
    assert res.kappa == Fraction(3, 2) and res.identity_atom.elements() == (0,)
    S3 = symmetric(3)
    H = S3.subset([0, 2])
    res = connectivity_subgroup_solver(S3, H, HALF)
    assert res.kappa == 1 and res.identity_atom == H
    with pytest.raises(KOutOfRange):
        connectivity_subgroup_solver(S3, H, Fraction(1))


def test_subgroup_solver_refuses_a_non_subgroup_atom(monkeypatch):
    # A kernel whose smallest side is {(1 2 3)} would make the atom {e, (1 2 3)}
    # of S3, which is not a subgroup: the theory rules that out.  The kernel's
    # x index the elements of <SS^-1>, which is all of S3 here, so local
    # index 3 is (1 2 3).
    S3 = symmetric(3)
    assert S3.labels[3] == "(1 2 3)"
    monkeypatch.setattr(connectivity, "_min_cut_sides", lambda rows, p, q: (1 << 3, 0))
    with pytest.raises(TheoryViolation, match="not a subgroup"):
        connectivity_subgroup_solver(S3, S3.subset([0, 2, 3]), HALF)


# Beyond the reach of brute force, the min cut is checked against the
# subgroup loop it replaced, on every group of order <= 24 and four of order
# 64, with |S| from 1 to |G| and K on both sides of 0.
ORACLE_GROUPS = (
    *catalogue(24),
    quaternion(16),
    dihedral(32),
    direct_product([dihedral(4), cyclic(2), cyclic(2), cyclic(2)]),
    direct_product([cyclic(2)] * 6),
)
ORACLE_KS = tuple(Fraction(k) for k in ("-1/4", "0", "1/4", "1/2", "3/4", "59/60"))


@pytest.mark.parametrize("G", ORACLE_GROUPS, ids=lambda g: g.name)
def test_subgroup_solver_matches_subgroup_loop(G):
    rng = random.Random(G.order * 17 + 2)
    subgroups = enumerate_subgroups(G)
    for size in sorted({1, max(1, G.order // 3), G.order // 2 + 1, G.order}):
        S = G.subset(rng.sample(range(G.order), size))
        for K in ORACLE_KS:
            res = connectivity_subgroup_solver(G, S, K)
            assert (res.kappa, res.identity_atom) == subgroup_atom(G, subgroups, S, K)



# Random S almost always generate G as <SS^-1>.  These S are drawn inside a
# right coset Hg of a proper, nontrivial subgroup H, so that the min cut runs
# over the rows of <SS^-1> alone, a subgroup of H.
def coset_sets(G, rng, subgroups, count=3):
    proper = [H for H in subgroups if 1 < H.cardinality < G.order]
    for H in rng.sample(proper, min(count, len(proper))):
        g = rng.randrange(G.order)
        coset = sorted(G.mul[h][g] for h in H.elements())
        yield G.subset(rng.sample(coset, rng.randint(1, len(coset))))


def ss_inverse_order(G, S):
    elems = S.elements()
    return len(naive_closure(G, [G.mul[a][G.inv[b]] for a in elems for b in elems]))


@pytest.fixture
def cut_rows(monkeypatch):
    """The number of rows of each `_min_cut_sides` call."""
    calls = []
    kernel = connectivity._min_cut_sides

    def spy(rows, p, q):
        calls.append(len(rows))
        return kernel(rows, p, q)

    monkeypatch.setattr(connectivity, "_min_cut_sides", spy)
    return calls


@pytest.mark.parametrize("G", ORACLE_GROUPS, ids=lambda g: g.name)
def test_subgroup_solver_on_sets_in_a_proper_coset(G, cut_rows):
    rng = random.Random(G.order * 23 + 1)
    subgroups = enumerate_subgroups(G)
    for S in coset_sets(G, rng, subgroups):
        order = ss_inverse_order(G, S)
        assert order < G.order
        for K in ORACLE_KS:
            cut_rows.clear()
            res = connectivity_subgroup_solver(G, S, K)
            assert (res.kappa, res.identity_atom) == subgroup_atom(G, subgroups, S, K)
            assert cut_rows == ([order] if K >= 0 else [])


@pytest.mark.parametrize("G", BRUTE_GROUPS, ids=lambda g: g.name)
def test_solvers_agree_on_sets_in_a_proper_coset(G, cut_rows):
    rng = random.Random(G.order * 29 + 3)
    for S in coset_sets(G, rng, enumerate_subgroups(G)):
        for K in ORACLE_KS:
            cut_rows.clear()
            brute = connectivity_bruteforce(G, S, K)
            sub = connectivity_subgroup_solver(G, S, K)
            assert (sub.kappa, sub.identity_atom) == (brute.kappa, brute.identity_atom)
            assert cut_rows == ([ss_inverse_order(G, S)] if K >= 0 else [])

@pytest.mark.parametrize("G", BRUTE_GROUPS, ids=lambda g: g.name)
def test_solvers_agree(G):
    rng = random.Random(G.order * 31 + 5)
    for trial in range(10):
        S = Subset(G.order, rng.randrange(1, 1 << G.order))
        for K in (Fraction(1, 4), HALF, Fraction(5, 6), *(K for K in EXACT_KS if 0 < K < 1)):
            brute = connectivity_bruteforce(G, S, K)
            sub = connectivity_subgroup_solver(G, S, K)
            assert brute.kappa == sub.kappa
            assert brute.identity_atom == sub.identity_atom


def test_atom_proposition_examples():
    Z8 = cyclic(8)
    rep = verify_atom_proposition(Z8, Z8.subset([0]), HALF)
    assert rep.ok
    assert {a.elements() for a in rep.atoms} == {(i,) for i in range(8)}

    rep = verify_atom_proposition(Z8, Z8.subset([0, 1]), HALF)
    assert rep.ok and len(rep.atoms) == 8

    Z6 = cyclic(6)
    rep = verify_atom_proposition(Z6, Z6.subset([0, 3]), HALF)
    assert rep.ok
    assert {a.elements() for a in rep.atoms} == {(0, 3), (1, 4), (2, 5)}
    assert rep.identity_atom.elements() == (0, 3)

    with pytest.raises(KOutOfRange):
        verify_atom_proposition(Z6, Z6.subset([0, 3]), Fraction(1))


@pytest.mark.parametrize("G", BRUTE_GROUPS, ids=lambda g: g.name)
def test_atom_proposition_sampled(G):
    rng = random.Random(G.order * 13)
    for _ in range(5):
        S = Subset(G.order, rng.randrange(1, 1 << G.order))
        rep = verify_atom_proposition(G, S, Fraction(2, 3))
        assert rep.ok
        assert rep.atom_is_subgroup
        assert is_subgroup_naive(G, rep.identity_atom)
        assert len(rep.atoms) == G.order // rep.identity_atom.cardinality


def test_kappa_bounded_by_every_subgroup_cost():
    for G in (cyclic(12), symmetric(3)):
        rng = random.Random(4)
        for _ in range(5):
            S = Subset(G.order, rng.randrange(1, 1 << G.order))
            K = Fraction(3, 4)
            res = connectivity_subgroup_solver(G, S, K)
            assert res.kappa > 0
            costs = [cost(G, S, K, H) for H in enumerate_subgroups(G)]
            assert all(res.kappa <= c for c in costs)
            assert res.kappa in costs
