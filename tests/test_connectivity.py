import itertools
import random
from fractions import Fraction
from functools import partial

import pytest

from smalldoubling import (
    CostParams,
    EmptySet,
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
from smalldoubling.groups import image
from oracles import (
    is_subgroup_naive,
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
    params = CostParams(S=Z8.subset([0, 1]), K=HALF)
    assert cost(Z8, params, Z8.subset([])) == 0
    assert cost(Z8, params, Z8.subset([3])) == Fraction(3, 2)
    # S = {e} makes the cost |A| - K|A|
    id_params = CostParams(S=Z8.subset([0]), K=HALF)
    for A in (Z8.subset([1, 2]), Z8.subset([0, 3, 5])):
        assert cost(Z8, id_params, A) == Fraction(A.cardinality, 2)


def test_cost_params_require_nonempty_s():
    with pytest.raises(EmptySet):
        CostParams(S=Subset(4, 0), K=HALF)


def test_cost_lower_bound_exhaustive():
    # cost(A) >= (1-K)|A| for K < 1, checked over every subset of small groups
    for G in (cyclic(6), symmetric(3)):
        for S in (G.subset([0, 1]), G.subset([1])):
            for K in (Fraction(0), HALF, Fraction(5, 6)):
                params = CostParams(S=S, K=K)
                for A in subsets_of(G):
                    assert cost(G, params, A) >= (1 - K) * A.cardinality


def test_cost_lower_bound_random_large_group():
    # same bound sampled in a group too big for exhaustion
    G = direct_product([cyclic(5), cyclic(5)])
    rng = random.Random(6)
    for _ in range(200):
        S = Subset(G.order, rng.randrange(1, 1 << G.order))
        A = Subset(G.order, rng.randrange(0, 1 << G.order))
        K = Fraction(rng.randrange(0, 100), 100)
        assert cost(G, CostParams(S=S, K=K), A) >= (1 - K) * A.cardinality


def test_solvers_accept_negative_k():
    # K < 0 takes the solver's closed form, K = 0 a min cut with no flow.
    G = cyclic(8)
    for K in (Fraction(-1), Fraction(0)):
        params = CostParams(S=G.subset([0, 1]), K=K)
        brute = connectivity_bruteforce(G, params)
        sub = connectivity_subgroup_solver(G, params)
        assert brute.kappa == sub.kappa == 2 - K  # singleton: |A*S| - K|A|
        assert brute.identity_atom == sub.identity_atom == G.subset([0])


def test_left_invariance_exhaustive_s3():
    G = symmetric(3)
    params = CostParams(S=G.subset([0, 2]), K=HALF)
    rng = random.Random(2)
    for _ in range(40):
        A = Subset(G.order, rng.randrange(0, 1 << G.order))
        for x in G.elements():
            xA = Subset(G.order, image(G.mul[x], A.mask))
            assert cost(G, params, xA) == cost(G, params, A)


def test_left_invariance_concrete():
    Z8 = cyclic(8)
    params = CostParams(S=Z8.subset([0, 1]), K=HALF)
    A = Z8.subset([3])
    for x in (0, 5):  # x = e, and a proper shift
        xA = Subset(Z8.order, image(Z8.mul[x], A.mask))
        assert cost(Z8, params, xA) == cost(Z8, params, A)


def test_submodularity_examples():
    Z6 = cyclic(6)
    c = partial(cost, Z6, CostParams(S=Z6.subset([0, 1]), K=HALF))
    A, B = Z6.subset([0, 1]), Z6.subset([1, 2])
    assert c(A | B) + c(A & B) == naive_cost(Z6, [0, 1], HALF, [0, 1, 2]) + naive_cost(
        Z6, [0, 1], HALF, [1]
    )
    for X, Y in ((A, B), (Z6.subset([0]), Z6.subset([3]))):
        assert c(X | Y) + c(X & Y) <= c(X) + c(Y)
    assert c(A | A) + c(A & A) == 2 * c(A)


def test_submodularity_exhaustive_small():
    G = cyclic(5)
    for smask in (0b00011, 0b10101):
        params = CostParams(S=Subset(5, smask), K=Fraction(3, 4))
        for amask, bmask in itertools.product(range(1 << 5), repeat=2):
            A, B = Subset(5, amask), Subset(5, bmask)
            lhs = cost(G, params, A | B) + cost(G, params, A & B)
            assert lhs <= cost(G, params, A) + cost(G, params, B)


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
    res = connectivity_bruteforce(Z8, CostParams(S=Z8.subset([0]), K=HALF))
    assert res.kappa == HALF and res.identity_atom.elements() == (0,)

    res = connectivity_bruteforce(Z8, CostParams(S=Z8.subset([0, 1]), K=HALF))
    assert res.kappa == Fraction(3, 2)
    assert res.identity_atom.elements() == (0,)
    assert res.atom_is_subgroup
    assert res.solver == "brute_force"

    # S a subgroup: kappa = |H|/2 and the atom is H itself
    for G, h_elems in ((cyclic(6), (0, 3)), (symmetric(3), (0, 2)), (cyclic(8), (0, 2, 4, 6))):
        H = G.subset(h_elems)
        res = connectivity_bruteforce(G, CostParams(S=H, K=HALF))
        assert res.kappa == Fraction(H.cardinality, 2)
        assert res.identity_atom == H


@pytest.mark.parametrize("G", BRUTE_GROUPS, ids=lambda g: g.name)
def test_bruteforce_matches_naive_oracle(G):
    rng = random.Random(G.order * 17)
    for trial in range(6):
        smask = rng.randrange(1, 1 << G.order)
        S = Subset(G.order, smask)
        for K in (Fraction(1, 4), HALF, Fraction(5, 6)):
            params = CostParams(S=S, K=K)
            res = connectivity_bruteforce(G, params, collect_fragments=True)
            kappa, fragments = naive_connectivity(G, S.elements(), K)
            assert res.kappa == kappa
            assert {frozenset(f.elements()) for f in res.fragments} == set(fragments)
            assert res.fragment_total == len(fragments)
            _, atom = naive_identity_atom(G, S.elements(), K)
            assert set(res.identity_atom.elements()) == atom


def test_bruteforce_fragment_properties():
    G = cyclic(8)
    params = CostParams(S=G.subset([0, 1]), K=HALF)
    res = connectivity_bruteforce(G, params, collect_fragments=True)
    assert all(cost(G, params, f) == res.kappa for f in res.fragments)
    # fragment lattice closure: intersecting fragments give fragments
    frags = {f.mask for f in res.fragments}
    for a, b in itertools.combinations(res.fragments, 2):
        if not (a & b).is_empty:
            assert (a | b).mask in frags
            assert (a & b).mask in frags


def test_bruteforce_fragment_cap():
    G = cyclic(8)
    params = CostParams(S=G.subset([0, 1]), K=HALF)
    res = connectivity_bruteforce(G, params, collect_fragments=True, fragment_cap=3)
    assert len(res.fragments) == 3
    assert res.fragment_total == 8  # all singletons attain kappa here


def test_bruteforce_k_edge_cases():
    G = cyclic(6)
    S = G.subset([0, 1])
    with pytest.raises(KOutOfRange):
        connectivity_bruteforce(G, CostParams(S=S, K=Fraction(3, 2)))
    with pytest.raises(KOutOfRange):
        connectivity_bruteforce(G, CostParams(S=S, K=Fraction(1)))
    res = connectivity_bruteforce(
        G, CostParams(S=S, K=Fraction(1)), classify_atom=False, collect_fragments=True
    )
    # at K = 1 the whole group costs 0, the minimum
    assert res.kappa == 0
    assert res.identity_atom is None and res.atom_is_subgroup is None
    assert any(f.cardinality == G.order for f in res.fragments)


def test_bruteforce_size_cap():
    with pytest.raises(SizeLimitExceeded):
        connectivity_bruteforce(
            cyclic(18, order_cap=64), CostParams(S=cyclic(18, order_cap=64).subset([0]), K=HALF)
        )
    res = connectivity_bruteforce(
        cyclic(17, order_cap=64),
        CostParams(S=cyclic(17, order_cap=64).subset([0, 1]), K=HALF),
        bruteforce_cap=17,
    )
    assert res.kappa == Fraction(3, 2)


@pytest.mark.parametrize("n", [40, 70])
def test_bruteforce_refuses_tables_past_the_limit_whatever_the_cap(n):
    # Masks of order 40 need 33-64 bits and those of order 70 more than any
    # numpy integer holds; both are refused before a 2^n table is started.
    G = cyclic(n, order_cap=n)
    params = CostParams(S=G.subset([0, 1]), K=HALF)
    with pytest.raises(SizeLimitExceeded):
        connectivity_bruteforce(G, params, bruteforce_cap=n)
    with pytest.raises(SizeLimitExceeded):
        verify_atom_proposition(G, params, bruteforce_cap=n)


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
            G, CostParams(S=S, K=K), collect_fragments=True, fragment_cap=1 << G.order
        )
        kappa, fragments = naive_connectivity(G, [0, 1], K)
        assert res.kappa == kappa
        assert {f.elements() for f in res.fragments} == {tuple(sorted(f)) for f in fragments}
        assert res.fragment_total == len(fragments)
        assert set(res.identity_atom.elements()) == naive_identity_atom(G, [0, 1], K)[1]
    res = connectivity_bruteforce(
        G,
        CostParams(S=S, K=Fraction(1)),
        collect_fragments=True,
        fragment_cap=1 << G.order,
        classify_atom=False,
    )
    kappa, fragments = naive_connectivity(G, [0, 1], Fraction(1))
    assert res.kappa == kappa and res.identity_atom is None
    assert {f.elements() for f in res.fragments} == {tuple(sorted(f)) for f in fragments}


def test_subgroup_solver_examples():
    Z8 = cyclic(8)
    res = connectivity_subgroup_solver(Z8, CostParams(S=Z8.subset([0]), K=HALF))
    assert res.kappa == HALF and res.identity_atom.elements() == (0,)
    res = connectivity_subgroup_solver(Z8, CostParams(S=Z8.subset([0, 1]), K=HALF))
    assert res.kappa == Fraction(3, 2) and res.identity_atom.elements() == (0,)
    S3 = symmetric(3)
    H = S3.subset([0, 2])
    res = connectivity_subgroup_solver(S3, CostParams(S=H, K=HALF))
    assert res.kappa == 1 and res.identity_atom == H
    assert res.solver == "subgroup_restricted"
    with pytest.raises(KOutOfRange):
        connectivity_subgroup_solver(S3, CostParams(S=H, K=Fraction(1)))


def test_subgroup_solver_refuses_a_non_subgroup_atom(monkeypatch):
    # A kernel whose smallest side is {(1 2 3)} would make the atom {e, (1 2 3)}
    # of S3, which is not a subgroup: the theory rules that out.
    S3 = symmetric(3)
    assert S3.labels[3] == "(1 2 3)"
    monkeypatch.setattr(connectivity, "_min_cut_sides", lambda rows, p, q: (1 << 3, 0))
    with pytest.raises(TheoryViolation, match="not a subgroup"):
        connectivity_subgroup_solver(S3, CostParams(S=S3.subset([0, 2]), K=HALF))


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
    for size in sorted({1, max(1, G.order // 3), G.order // 2 + 1, G.order}):
        S = G.subset(rng.sample(range(G.order), size))
        for K in ORACLE_KS:
            res = connectivity_subgroup_solver(G, CostParams(S=S, K=K))
            assert (res.kappa, res.identity_atom) == subgroup_atom(G, S, K)


@pytest.mark.parametrize("G", BRUTE_GROUPS, ids=lambda g: g.name)
def test_solvers_agree(G):
    rng = random.Random(G.order * 31 + 5)
    for trial in range(10):
        S = Subset(G.order, rng.randrange(1, 1 << G.order))
        for K in (Fraction(1, 4), HALF, Fraction(5, 6), *(K for K in EXACT_KS if 0 < K < 1)):
            params = CostParams(S=S, K=K)
            brute = connectivity_bruteforce(G, params)
            sub = connectivity_subgroup_solver(G, params)
            assert brute.kappa == sub.kappa
            assert brute.identity_atom == sub.identity_atom


def test_atom_proposition_examples():
    Z8 = cyclic(8)
    rep = verify_atom_proposition(Z8, CostParams(S=Z8.subset([0]), K=HALF))
    assert rep.ok
    assert {a.elements() for a in rep.atoms} == {(i,) for i in range(8)}

    rep = verify_atom_proposition(Z8, CostParams(S=Z8.subset([0, 1]), K=HALF))
    assert rep.ok and len(rep.atoms) == 8

    Z6 = cyclic(6)
    rep = verify_atom_proposition(Z6, CostParams(S=Z6.subset([0, 3]), K=HALF))
    assert rep.ok
    assert {a.elements() for a in rep.atoms} == {(0, 3), (1, 4), (2, 5)}
    assert rep.identity_atom.elements() == (0, 3)

    with pytest.raises(KOutOfRange):
        verify_atom_proposition(Z6, CostParams(S=Z6.subset([0, 3]), K=Fraction(1)))


@pytest.mark.parametrize("G", BRUTE_GROUPS, ids=lambda g: g.name)
def test_atom_proposition_sampled(G):
    rng = random.Random(G.order * 13)
    for _ in range(5):
        S = Subset(G.order, rng.randrange(1, 1 << G.order))
        rep = verify_atom_proposition(G, CostParams(S=S, K=Fraction(2, 3)))
        assert rep.ok
        assert rep.atom_is_subgroup
        assert is_subgroup_naive(G, rep.identity_atom)
        assert len(rep.atoms) == G.order // rep.identity_atom.cardinality


def test_kappa_bounded_by_every_subgroup_cost():
    for G in (cyclic(12), symmetric(3)):
        rng = random.Random(4)
        for _ in range(5):
            S = Subset(G.order, rng.randrange(1, 1 << G.order))
            params = CostParams(S=S, K=Fraction(3, 4))
            res = connectivity_subgroup_solver(G, params)
            assert res.kappa > 0
            costs = [cost(G, params, H) for H in enumerate_subgroups(G)]
            assert all(res.kappa <= c for c in costs)
            assert res.kappa in costs
