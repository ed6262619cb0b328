import dataclasses
import gc
import hashlib
import itertools
import json
import random
import weakref
from fractions import Fraction

import pytest

from smalldoubling import (
    EmptySet,
    GroupFunction,
    HypothesisFailed,
    NotAbelian,
    SizeLimitExceeded,
    Subset,
    UsageError,
    catalogue,
    connectivity_bruteforce,
    cost,
    cyclic,
    dihedral,
    direct_product,
    from_spec,
    kneser_check,
    kneser_corollary_check,
    kneser_violation_scan,
    level_set,
    petridis_minimizer,
    petridis_verify,
    product_set,
    quaternion,
    symmetric,
    weak_kneser_check,
)
from oracles import (
    kneser_prefix_walk,
    naive_kneser_fails,
    naive_petridis_minimizer,
    naive_product,
    naive_right_stabilizer,
)
from smalldoubling import groups, setalg, theorems
from smalldoubling.certificates import run
from smalldoubling.cli import main
from smalldoubling.connectivity import ConnectivityResult
from smalldoubling.schema import COMMANDS
from smalldoubling.setalg import expansion_rows, product_mask
from smalldoubling.theorems import (
    _minimize_by_flow,
    _minimize_by_loop,
    _half_tables,
    _orbit_tables,
)
from test_payload_digests import FIXED


# --- Kneser inequality -------------------------------------------------------


def test_kneser_examples():
    Z6 = cyclic(6)
    rep = kneser_check(Z6, Z6.subset([0, 3]), Z6.subset([0, 3]))
    assert rep.sum.elements() == (0, 3)
    assert rep.H.elements() == (0, 3)
    assert rep.lhs == rep.rhs == 2 and rep.holds and rep.equality

    rep = kneser_check(Z6, Z6.subset([0, 1]), Z6.subset([0, 1]))
    assert rep.sum.elements() == (0, 1, 2)
    assert rep.H.elements() == (0,)
    assert rep.lhs == rep.rhs == 3

    rep = kneser_check(Z6, Z6.subset([0]), Z6.subset([0]))
    assert rep.lhs == 1 and rep.rhs == 1 and rep.equality


def test_kneser_guards():
    with pytest.raises(NotAbelian):
        kneser_check(symmetric(3), symmetric(3).subset([0]), symmetric(3).subset([0]))
    Z6 = cyclic(6)
    with pytest.raises(EmptySet):
        kneser_check(Z6, Z6.subset([]), Z6.subset([0]))


@pytest.mark.parametrize("G", [cyclic(6), direct_product([cyclic(2), cyclic(3)])],
                         ids=lambda g: g.name)
def test_kneser_exhaustive_small(G):
    n = G.order
    for amask, bmask in itertools.product(range(1, 1 << n), repeat=2):
        rep = kneser_check(G, Subset(n, amask), Subset(n, bmask))
        assert rep.holds
        assert set(rep.H.elements()) == naive_right_stabilizer(G, rep.sum.elements())


def test_kneser_randomized_above_exhaustive_range():
    rng = random.Random(16)
    for G in (cyclic(16), direct_product([cyclic(4), cyclic(4)])):
        for _ in range(300):
            A = Subset(G.order, rng.randrange(1, 1 << G.order))
            B = Subset(G.order, rng.randrange(1, 1 << G.order))
            assert kneser_check(G, A, B).holds


# --- covering corollary --------------------------------------------------------


def test_corollary_subgroup_case():
    Z6 = cyclic(6)
    H = Z6.subset([0, 3])
    rep = kneser_corollary_check(Z6, H, Fraction(1))
    assert rep.H == H
    assert rep.cover.count == 1
    assert rep.holds


def test_corollary_sharp_progression():
    # A = {0..4} in Z20 with epsilon = 1/5: trivial stabilizer, cover size
    # exactly 2/eps - 1 = 9.
    Z20 = cyclic(20)
    rep = kneser_corollary_check(Z20, Z20.subset(range(5)), Fraction(1, 5))
    assert rep.H.elements() == (0,)
    assert rep.H_bound_ok
    assert rep.cover.count == 9
    assert rep.cover_bound == 9
    assert rep.holds


def test_corollary_union_of_cosets():
    Z12 = cyclic(12)
    A = Z12.subset([0, 1, 6, 7])
    square = product_set(Z12, A, A)
    eps = 2 - Fraction(square.cardinality, A.cardinality)
    assert eps == Fraction(1, 2)
    rep = kneser_corollary_check(Z12, A, eps)
    assert rep.H.elements() == (0, 6)
    assert rep.cover.count == 3
    assert rep.cover_bound == 3
    assert rep.holds


def test_corollary_guards():
    Z8 = cyclic(8)
    with pytest.raises(HypothesisFailed):
        kneser_corollary_check(Z8, Z8.subset([0, 1, 3]), Fraction(1))
    with pytest.raises(NotAbelian):
        kneser_corollary_check(symmetric(3), symmetric(3).subset([0]), Fraction(1))
    with pytest.raises(ValueError):
        kneser_corollary_check(Z8, Z8.subset([0]), Fraction(3, 2))


# --- weak Kneser-type theorem ----------------------------------------------------


def test_weak_kneser_single_coset_s3():
    S3 = symmetric(3)
    H = S3.subset([0, 2])
    rep = weak_kneser_check(S3, H, H, Fraction(1))
    assert rep.K == Fraction(1, 2)
    assert rep.atom == H
    assert rep.branch == "single_right_coset"
    assert rep.bound_H_size == 4
    assert rep.cover is None
    # cross-check the atom against the brute-force oracle
    brute = connectivity_bruteforce(S3, H, Fraction(1, 2))
    assert brute.identity_atom == rep.atom and brute.kappa == rep.kappa


def test_weak_kneser_single_coset_translated_s():
    # S a coset of a subgroup, A the subgroup: still one right coset.
    Z6 = cyclic(6)
    rep = weak_kneser_check(Z6, Z6.subset([0, 3]), Z6.subset([1, 4]), Fraction(1))
    assert rep.branch == "single_right_coset"
    assert rep.atom.elements() == (0, 3)


def test_weak_kneser_multi_coset():
    Z6 = cyclic(6)
    S = Z6.subset([0, 1])
    rep = weak_kneser_check(Z6, S, S, Fraction(1, 2))
    assert rep.branch == "multi_coset_cover"
    assert rep.atom.elements() == (0,)
    assert rep.kappa == Fraction(5, 4)
    assert rep.cover is not None and rep.cover.count == 2
    assert rep.cover.side == "right"
    assert rep.bound_H_size == 2  # |S|
    brute = connectivity_bruteforce(Z6, S, Fraction(3, 4))
    assert brute.identity_atom == rep.atom


def test_weak_kneser_identity_sets():
    G = cyclic(4)
    e = G.subset([0])
    rep = weak_kneser_check(G, e, e, Fraction(1))
    assert rep.branch == "single_right_coset"
    assert rep.atom == e


def test_weak_kneser_progression_in_z20():
    # A = S = {0..4}, eps = 1/5, K = 9/10.  In the finite group Z20 the whole
    # group has cost 20 - 18 = 2, below every proper subset (an interval
    # argument gives cost >= 4.1 for |A| <= 16), so the atom is Z20 itself
    # and S sits inside its single coset.  The brute-force oracle, which
    # takes no cap, confirms.
    Z20 = cyclic(20)
    S = Z20.subset(range(5))
    brute = connectivity_bruteforce(Z20, S, Fraction(9, 10))
    assert brute.kappa == 2
    assert brute.identity_atom == Subset(Z20.order, (1 << Z20.order) - 1)

    rep = weak_kneser_check(Z20, S, S, Fraction(1, 5))
    assert rep.kappa == 2
    assert rep.atom == Subset(Z20.order, (1 << Z20.order) - 1)
    assert rep.branch == "single_right_coset"
    assert rep.atom.cardinality <= rep.bound_H_size == 50
    assert rep.sharp_H_bound == 45


# Each entry point of the library that takes a rate, called with `rate`
# where A = {0..4} in Z20 (the sharp progression above).
RATE_ENTRY_POINTS = {
    "corollary-epsilon": lambda G, A, rate: kneser_corollary_check(G, A, rate),
    "weak-kneser-epsilon": lambda G, A, rate: weak_kneser_check(G, A, A, rate),
    "cost-K": lambda G, A, rate: cost(G, A, rate, A),
    "level-set-threshold": lambda G, A, rate: level_set(G, GroupFunction.constant(20, 1), rate),
    "constant-value": lambda G, A, rate: GroupFunction.constant(20, rate),
}


@pytest.mark.parametrize("rate", [0.2, "1/5", True, None], ids=repr)
@pytest.mark.parametrize("name", sorted(RATE_ENTRY_POINTS))
def test_a_rate_is_an_int_or_a_fraction(name, rate):
    # Fraction(0.2) is 3602879701896397/18014398509481984, above 1/5, so a
    # float would move the sharp progression's bound; only exact rates pass.
    Z20 = cyclic(20)
    A = Z20.subset(range(5))
    with pytest.raises(TypeError, match="must be an int or a Fraction"):
        RATE_ENTRY_POINTS[name](Z20, A, rate)
    RATE_ENTRY_POINTS[name](Z20, A, Fraction(1, 5))


def test_weak_kneser_hypothesis_failures():
    Z6 = cyclic(6)
    with pytest.raises(HypothesisFailed):
        weak_kneser_check(Z6, Z6.subset([0]), Z6.subset([0, 1]), Fraction(1))  # |A| < |S|
    with pytest.raises(HypothesisFailed):
        weak_kneser_check(Z6, Z6.subset([0, 2, 4]), Z6.subset([0, 1]), Fraction(1))
    with pytest.raises(ValueError):
        weak_kneser_check(Z6, Z6.subset([0]), Z6.subset([0]), Fraction(2))
    with pytest.raises(EmptySet):
        weak_kneser_check(Z6, Z6.subset([]), Z6.subset([0]), Fraction(1))


def test_weak_kneser_monotone_in_epsilon():
    # If the check passes at epsilon, it passes at every smaller admissible
    # epsilon with the same sets.
    Z6 = cyclic(6)
    S = Z6.subset([0, 1])
    for den in (2, 3, 4, 5, 6):
        rep = weak_kneser_check(Z6, S, S, Fraction(1, den))
        assert rep.branch != "violation"



# The bounds of weak_kneser_check are compared in integers.  These cases sit
# on each bound and one step past it, and the report is checked against the
# Fraction expressions the bounds are defined by.


def _old_bounds(eps, s, branch):
    bound_H = Fraction(2) / eps * s if branch == "single_right_coset" else Fraction(s)
    return 1 - eps / 2, bound_H, (Fraction(2) / eps - 1) * s


def test_weak_kneser_hypothesis_bound_is_inclusive():
    # A = S = {0, 1, 2, 3} in Z20: |A+S| = 7 = (2 - 1/4)|S| holds, and any
    # eps above 1/4 fails.
    Z20 = cyclic(20)
    S = Z20.subset(range(4))
    eps = Fraction(1, 4)
    rep = weak_kneser_check(Z20, S, S, eps)
    assert (rep.K, rep.bound_H_size, rep.sharp_H_bound) == _old_bounds(eps, 4, rep.branch)
    assert rep.branch == "single_right_coset" and rep.violations == ()  # H = Z20
    for eps in (Fraction(13, 50), Fraction(1, 3)):
        with pytest.raises(HypothesisFailed) as err:
            weak_kneser_check(Z20, S, S, eps)
        assert str(err.value) == f"|A*S| = 7 > (2 - {eps})|S| = {(2 - eps) * 4}"


def _patched_atom(monkeypatch, G, atom):
    # The atom's bounds cannot be reached by a true atom (|H| <= (2/eps - 1)|S|
    # in the single-coset branch), so the solver is replaced.
    H = G.subset(atom)
    result = ConnectivityResult(Fraction(0), H, True, None, None)
    monkeypatch.setattr(theorems, "connectivity_subgroup_solver", lambda G, S, K: result)


@pytest.mark.parametrize("eps,violations", [
    (Fraction(1, 3), ()),  # |H| = 12 = (2/eps)|S|
    (Fraction(1, 2), ("single-coset branch: |H| = 12 > (2/eps)|S| = 8",)),
])
def test_weak_kneser_atom_size_bound_is_inclusive(monkeypatch, eps, violations):
    Z12 = cyclic(12)
    _patched_atom(monkeypatch, Z12, range(12))
    S = Z12.subset([0, 1])
    rep = weak_kneser_check(Z12, S, S, eps)  # |A+S| = 3 <= (2 - eps)|S|
    assert rep.branch == ("violation" if violations else "single_right_coset")
    assert (rep.K, rep.bound_H_size, rep.sharp_H_bound) == _old_bounds(
        eps, 2, "single_right_coset"
    )
    assert rep.violations == violations
    if violations:
        assert violations[0].endswith(f"= {Fraction(2) / eps * 2}")


@pytest.mark.parametrize("eps,atom,violations", [
    (Fraction(2, 3), [0], ()),  # 2 cosets = 2/eps - 1
    (Fraction(1), [0], ("multi-coset branch: cover needs 2 cosets > 2/eps - 1 = 1",)),
    (Fraction(2, 3), [0, 4, 8], ("multi-coset branch: |H| = 3 > |S| = 2",)),
])
def test_weak_kneser_cover_bound_is_inclusive(monkeypatch, eps, atom, violations):
    Z12 = cyclic(12)
    _patched_atom(monkeypatch, Z12, atom)
    S = Z12.subset([0, 6])
    rep = weak_kneser_check(Z12, S, S, eps)  # |A+S| = 2 <= (2 - eps)|S|
    assert rep.cover.count == 2
    assert rep.branch == ("violation" if violations else "multi_coset_cover")
    assert (rep.K, rep.bound_H_size, rep.sharp_H_bound) == _old_bounds(
        eps, 2, "multi_coset_cover"
    )
    assert rep.violations == violations
    if "cosets" in "".join(violations):
        assert violations[0].endswith(f"= {Fraction(2) / eps - 1}")

# --- Petridis minimizer -----------------------------------------------------------


def test_petridis_examples():
    Z8 = cyclic(8)
    A = Z8.subset([0, 1])
    res = petridis_minimizer(Z8, A, A)
    assert res.X == A and res.K == Fraction(3, 2)

    e = Z8.subset([0])
    S = Z8.subset([0, 2, 3])
    res = petridis_minimizer(Z8, e, S)
    assert res.X == e and res.K == 3

    H = cyclic(6).subset([0, 2, 4])
    res = petridis_minimizer(cyclic(6), H, H)
    assert res.X == H and res.K == 1


def test_petridis_tiebreak_prefers_larger_x():
    Z8 = cyclic(8)
    res = petridis_minimizer(Z8, Z8.subset([0, 4]), Z8.subset([0]))
    assert res.K == 1
    assert res.X.elements() == (0, 4)  # all ratios tie at 1; larger X wins


# (group, A, S, X, K) computed by the subset loop that preceded the table pass;
# every |A| here is at or above the cutoff of the min-cut path.
PETRIDIS_PINNED = [
    ("Z20", [0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 13, 15, 17, 18], [2, 7, 17],
     [0, 3, 5, 8, 10, 13, 15, 18], Fraction(1)),
    ("D10", [1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 14, 15, 16, 17, 18], [0, 1, 4],
     [1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 14, 15, 16, 17, 18], Fraction(5, 4)),
    ("D10", [0, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15, 16, 17, 18, 19], [2, 10, 16],
     [0, 2, 6, 8, 10, 12, 14, 16, 18], Fraction(10, 9)),
    ("D8xZ4", [1, 5, 9, 11, 18, 19, 23, 27, 29, 34, 35, 36, 41, 45, 48, 53, 54, 56, 58, 60],
     [14, 51, 63], [9, 11, 19, 23, 29, 36, 48, 56, 58, 60], Fraction(17, 10)),
    # Each run of four has ratio 5/4, as has their union: the larger X wins.
    ("Z20", [0, 1, 2, 3, 6, 7, 10, 11, 12, 13], [0, 1], [0, 1, 2, 3, 10, 11, 12, 13],
     Fraction(5, 4)),
]
PETRIDIS_GROUPS = {
    "Z20": cyclic(20),
    "D10": dihedral(10),
    "D8xZ4": direct_product([dihedral(8), cyclic(4)]),
}


@pytest.mark.parametrize("name,A,S,X,K", PETRIDIS_PINNED)
def test_petridis_pinned_above_the_table_cutoff(name, A, S, X, K):
    G = PETRIDIS_GROUPS[name]
    res = petridis_minimizer(G, G.subset(A), G.subset(S))
    assert list(res.X.elements()) == X and res.K == K


def test_petridis_above_order_64_stays_exact():
    # Rows of order-70 elements are wider than 64 bits, on either path.
    G = cyclic(70)
    for A, S in ((list(range(0, 70, 9)), [0, 1, 35]), (list(range(0, 70, 7)), [0, 1, 66])):
        res = petridis_minimizer(G, G.subset(A), G.subset(S))
        assert (set(res.X.elements()), res.K) == naive_petridis_minimizer(G, A, S)


PETRIDIS_CAP_GROUPS = {
    "D32": dihedral(32),
    "Z2^6": direct_product([cyclic(2)] * 6),
}


@pytest.mark.parametrize("s", [48, 64])
@pytest.mark.parametrize("name", list(PETRIDIS_CAP_GROUPS))
def test_petridis_min_cut_matches_the_loop_at_the_caps(name, s):
    # |A| = 20 is the default subset cap, and order 64 the order cap.
    G = PETRIDIS_CAP_GROUPS[name]
    rng = random.Random(s)
    A, S = sorted(rng.sample(range(64), 20)), G.subset(rng.sample(range(64), s))
    rows = expansion_rows(G, S, A)
    assert _minimize_by_flow(rows) == _minimize_by_loop(rows)


def test_petridis_largest_minimizer_is_the_union_of_all_minimizers():
    # Minimizers are closed under union, so no two largest ones can tie and
    # the sorted-tuple tie-break of the oracle never decides.
    rng = random.Random(6)
    for G in (cyclic(12), dihedral(6), quaternion(3), symmetric(3)):
        for _ in range(20):
            A = rng.sample(range(G.order), rng.randint(1, min(9, G.order)))
            S = rng.sample(range(G.order), rng.randint(1, 3))
            ratios = {
                frozenset(X): Fraction(len(naive_product(G, X, S)), len(X))
                for size in range(1, len(A) + 1)
                for X in itertools.combinations(A, size)
            }
            K = min(ratios.values())
            union = frozenset().union(*(X for X, r in ratios.items() if r == K))
            assert ratios[union] == K
            res = petridis_minimizer(G, G.subset(A), G.subset(S))
            assert set(res.X.elements()) == union and res.K == K


def test_petridis_minimum_bounds_full_ratio():
    rng = random.Random(9)
    for G in (cyclic(8), symmetric(3), quaternion(2)):
        for _ in range(15):
            amask = rng.randrange(1, 1 << G.order)
            smask = rng.randrange(1, 1 << G.order)
            A, S = Subset(G.order, amask), Subset(G.order, smask)
            if A.cardinality > 10:
                continue
            res = petridis_minimizer(G, A, S)
            full = Fraction(product_set(G, A, S).cardinality, A.cardinality)
            assert res.K <= full
            assert res.X.mask & A.mask == res.X.mask and not res.X.is_empty


def test_petridis_exhaustive_verification():
    Z8 = cyclic(8)
    A = Z8.subset([0, 1])
    res = petridis_minimizer(Z8, A, A)
    ver = petridis_verify(Z8, res, "exhaustive", budget=255)
    assert ver.checked == 255
    assert ver.ok and ver.equality_at_identity and not ver.violations
    with pytest.raises(SizeLimitExceeded):
        petridis_verify(Z8, res, "exhaustive", budget=200)
    # Past SUBSET_TABLE_LIMIT (24) no budget buys the exhaustive check; at
    # order 70 a row would not fit uint32 either.
    for n in (25, 70):
        Zn = cyclic(n)
        res = petridis_minimizer(Zn, Zn.subset([0, 1]), Zn.subset([0, 1]))
        with pytest.raises(SizeLimitExceeded):
            petridis_verify(Zn, res, "exhaustive", budget=1 << n)


def test_petridis_sampled_verification_reproducible():
    S3 = symmetric(3)
    res = petridis_minimizer(S3, S3.subset([0, 2]), S3.subset([0, 3]))
    one = petridis_verify(S3, res, "sampled", budget=300, seed=42)
    two = petridis_verify(S3, res, "sampled", budget=300, seed=42)
    assert one == two and one.ok
    with pytest.raises(ValueError):
        petridis_verify(S3, res, "sampled", budget=10)
    for mode in ("sampled", "exhaustive"):
        with pytest.raises(ValueError):
            petridis_verify(S3, res, mode, budget=-5, seed=42)
    assert petridis_verify(S3, res, "sampled", budget=0, seed=42).checked == 0


@pytest.mark.parametrize("factor", [Fraction(3, 4), Fraction(9, 10), Fraction(2**61 + 1, 2**61)])
def test_petridis_verify_reports_the_violations_of_a_lowered_k(factor):
    # Against K' = factor * K both modes must flag exactly the C with
    # |C*X*S| > K'|C*X|, the first 16 of them, in mask order for the
    # exhaustive mode and in draw order for the sampled one.
    G = dihedral(5)
    res = petridis_minimizer(G, G.subset([0, 1, 2, 5, 7]), G.subset([0, 3]))
    low = dataclasses.replace(res, K=factor * res.K)
    XS = naive_product(G, res.X.elements(), res.S.elements())

    def violated(cmask):
        C = Subset(G.order, cmask).elements()
        cxs, cx = naive_product(G, C, XS), naive_product(G, C, res.X.elements())
        return len(cxs) > low.K * len(cx)

    n = G.order
    expect = [c for c in range(1, 1 << n) if violated(c)][:16]
    ver = petridis_verify(G, low, "exhaustive")
    assert [c.mask for c in ver.violations] == expect
    assert bool(expect) == (factor < 1)

    rng = random.Random(11)
    draws = [rng.randrange(1, 1 << n) for _ in range(400)]
    ver = petridis_verify(G, low, "sampled", budget=400, seed=11)
    assert [c.mask for c in ver.violations] == [c for c in draws if violated(c)][:16]


SAMPLED_GROUPS = {
    "D8": dihedral(8),
    "D8xZ4": direct_product([dihedral(8), cyclic(4)]),
    "Z70": cyclic(70),
}


@pytest.mark.parametrize("name", list(SAMPLED_GROUPS))
def test_sampled_petridis_flags_what_a_reference_loop_flags(name):
    # K' = 1 + 2^-62 is exceeded exactly where |C*X*S| > |C*X|, so some of
    # the draws violate it and some do not; its terms are narrowed first.
    G = SAMPLED_GROUPS[name]
    n = G.order
    res = petridis_minimizer(G, G.subset(range(5)), G.subset([0, 1, n - 1]))
    low = dataclasses.replace(res, K=Fraction(2**62 + 1, 2**62))
    XS = product_mask(G, res.X.mask, res.S.mask)
    rng = random.Random(n)
    flagged = []
    for _ in range(200):
        cmask = rng.randrange(1, 1 << n)
        cxs, cx = product_mask(G, cmask, XS), product_mask(G, cmask, res.X.mask)
        if cxs.bit_count() > low.K * cx.bit_count():
            flagged.append(cmask)
    assert 16 < len(flagged) < 200
    ver = petridis_verify(G, low, "sampled", budget=200, seed=n)
    assert [c.mask for c in ver.violations] == flagged[:16]
    assert (ver.checked, ver.ok) == (200, False)


TABLE_CONFIGS = {
    "connectivity": {
        "group": {"preset": "dihedral", "n": 4},
        "sets": {"S": [0, 1]},
        "K": "1/2",
        "solver": "brute_force",
    },
    "atoms": {"group": {"preset": "cyclic", "n": 6}, "sets": {"S": [0, 3]}, "K": "1/2"},
    "petridis": {
        "group": {"preset": "dihedral", "n": 8},
        "sets": {"A": [0, 1, 2, 3, 5, 8, 9, 11, 12, 14], "S": [0, 4, 9]},
        "mode": "exhaustive",
        "budget": 1 << 16,
    },
    "search-kneser-failure": {
        "group": {"preset": "symmetric", "n": 3},
        "strategy": "exhaustive",
    },
}


@pytest.mark.parametrize("command", list(TABLE_CONFIGS))
def test_no_certificate_keeps_its_group_alive(command):
    # Configs share their groups through the memo of `groups._build_spec`,
    # but no subset table is cached, so a certificate keeps nothing on the
    # group it runs on: that would hold the group and its 2^n-entry subset
    # tables alive.  Once the memo lets go of the group, nothing holds it.
    config = TABLE_CONFIGS[command]
    G = groups._build_spec(groups.check_spec(config["group"]), groups.DEFAULT_ORDER_CAP)
    alive = weakref.ref(G)
    assert COMMANDS[command].ok(run(command, config))
    del G
    groups._memo.cache_clear()
    gc.collect()
    assert alive() is None


def test_petridis_subset_cap():
    # The subset cap is the command's, not the minimizer's: the minimizer
    # takes |A| = 21, which the command refuses under the default cap of 20.
    Z24 = cyclic(24)
    assert petridis_minimizer(Z24, Z24.subset(range(21)), Z24.subset([0])).K == 1
    config = {"group": {"preset": "cyclic", "n": 24}, "sets": {"A": list(range(21)), "S": [0]},
              "mode": "sampled", "seed": 1, "budget": 10}
    with pytest.raises(SizeLimitExceeded, match=r"^\|A\| = 21 exceeds the subset-search cap 20$"):
        run("petridis", config)
    assert run("petridis", {**config, "caps": {"subset_cap": 21}})["k"] == "1/1"


# --- Kneser failure search -----------------------------------------------------------


def test_failure_search_rejects_abelian():
    config = {"group": {"preset": "cyclic", "n": 6}}
    with pytest.raises(NotAbelian, match="^Z6 is abelian, where the inequality is a theorem"):
        run("search-kneser-failure", config)
    # The usage and size checks run before the refusal.
    with pytest.raises(UsageError):
        run("search-kneser-failure", {**config, "strategy": "random"})
    with pytest.raises(SizeLimitExceeded):
        run("search-kneser-failure", {**config, "caps": {"bruteforce_cap": 4}})


def test_failure_search_s3_exhaustive_ground_truth():
    # Exhaustive over all 63 x 63 nonempty pairs: S3 contains no failures of
    # the inequality |AB| >= |A| + |B| - |stab(AB)|.  Frozen as ground truth.
    rep = kneser_violation_scan(symmetric(3), "exhaustive")
    assert rep.pairs_checked == 63 * 63
    assert rep.exhausted
    assert rep.findings == ()


@pytest.mark.parametrize("G", [dihedral(4), quaternion(2)], ids=lambda g: g.name)
def test_failure_search_order8_exhaustive(G):
    rep = kneser_violation_scan(G, "exhaustive")
    assert rep.pairs_checked == 255 * 255
    assert rep.findings == ()


def test_failure_search_budget_and_random():
    S3 = symmetric(3)
    partial = kneser_violation_scan(S3, "exhaustive", budget=1000)
    assert partial.pairs_checked == 1000
    assert not partial.exhausted

    r1 = kneser_violation_scan(S3, "random", seed=7, budget=500)
    r2 = kneser_violation_scan(S3, "random", seed=7, budget=500)
    assert r1 == r2
    assert r1.pairs_checked == 500
    with pytest.raises(ValueError):
        kneser_violation_scan(S3, "random", budget=10)
    with pytest.raises(ValueError):
        kneser_violation_scan(S3, "random", seed=1)
    for strategy, seed in (("random", 1), ("exhaustive", None)):
        with pytest.raises(ValueError, match="budget must be at least 0, got -5"):
            kneser_violation_scan(S3, strategy, seed=seed, budget=-5)


def test_exhaustive_scan_refuses_an_order_above_the_table_limit(monkeypatch, capsys):
    # Its tables have 2^order entries, so neither the brute-force cap nor the
    # budget lets an exhaustive scan past SUBSET_TABLE_LIMIT (24, lowered to
    # 8 here), the one table-width check of setalg; it refuses before
    # building any table.  Sampling builds none.
    monkeypatch.setattr(setalg, "SUBSET_TABLE_LIMIT", 8)
    D5 = dihedral(5)
    with pytest.raises(SizeLimitExceeded, match=r"subset tables need 2\^10 entries"):
        kneser_violation_scan(D5, "exhaustive", budget=1)
    assert kneser_violation_scan(D5, "random", seed=1, budget=10).pairs_checked == 10
    code = main(["search", "kneser-failure", "--group", "dihedral:5", "--bruteforce-cap", "10"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "SizeLimitExceeded"


def test_violation_scan_agrees_with_kneser_check_on_abelian():
    # The vectorized scan and the certified single-pair checker must tell the
    # same story; on abelian groups that story is "no violations".
    for G in (cyclic(7), direct_product([cyclic(2), cyclic(4)])):
        scan = kneser_violation_scan(G, "exhaustive")
        assert scan.findings == ()
        rng = random.Random(1)
        for _ in range(50):
            A = Subset(G.order, rng.randrange(1, 1 << G.order))
            B = Subset(G.order, rng.randrange(1, 1 << G.order))
            assert kneser_check(G, A, B).holds


def test_scan_classification_matches_plain_path_on_s3():
    # The vectorized scan said "no failures in S3"; recompute every pair the
    # slow definitional way and confirm the classification agrees.
    S3 = symmetric(3)
    scan = kneser_violation_scan(S3, "exhaustive")
    flagged = {(r.A.mask, r.B.mask) for r in scan.findings}
    for amask in range(1, 64):
        A = Subset(6, amask)
        a_elems = A.elements()
        for bmask in range(1, 64):
            B = Subset(6, bmask)
            prod = naive_product(S3, a_elems, B.elements())
            stab = naive_right_stabilizer(S3, prod)
            holds = len(prod) >= len(a_elems) + B.cardinality - len(stab)
            assert holds == ((amask, bmask) not in flagged)


def _walk(G, budget):
    """The oracle row walk over the first `budget` pairs, its findings in
    the order `kneser_violation_scan` reports them."""
    pairs_checked, exhausted, found = kneser_prefix_walk(G, budget)
    subset = lambda mask: Subset(G.order, mask)
    found.sort(
        key=lambda p: (p[0].bit_count(), p[1].bit_count(), subset(p[0]).elements(),
                       subset(p[1]).elements())
    )
    return pairs_checked, exhausted, found


def _scanned(scan):
    return scan.pairs_checked, scan.exhausted, [(r.A.mask, r.B.mask) for r in scan.findings]


@pytest.mark.parametrize("G", catalogue(12), ids=lambda g: g.name)
def test_orbit_scan_matches_prefix_walk(G):
    # The orbit pass tests one product per pair of orbit representatives;
    # the oracle walks every row A*B in mask order.
    full = ((1 << G.order) - 1) ** 2
    orbit = kneser_violation_scan(G, "exhaustive")
    assert orbit.pairs_checked == full and orbit.exhausted
    assert _scanned(orbit) == _walk(G, full)


NONABELIAN_12 = [G for G in catalogue(12) if not G.is_abelian]


@pytest.mark.parametrize("G", NONABELIAN_12, ids=lambda g: g.name)
def test_budgeted_scan_matches_truncated_walk(G):
    # A budget b keeps the pairs numbered (A - 1)*(2^n - 1) + B <= b; the last
    # budget is the number of a failing pair, so the boundary pair counts.
    size = 1 << G.order
    full = (size - 1) ** 2
    _, _, failing = kneser_prefix_walk(G, full)
    budgets = [0, 1, size - 2, size - 1, size, 3 * (size - 1) + 5,
               random.Random(G.name).randrange(full + 1), 1 << 24]
    if failing:
        a, b = failing[len(failing) // 2]
        budgets.append((a - 1) * (size - 1) + b)
    for budget in budgets:
        scan = kneser_violation_scan(G, "exhaustive", budget=budget)
        assert _scanned(scan) == _walk(G, budget), budget


@pytest.mark.parametrize(
    "G,step",
    [(symmetric(3), 1), (dihedral(4), 1), (dihedral(6), 7)],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_orbit_labels_are_two_sided_orbit_minima(G, step):
    # rmin[m] is the smallest mask among the m*z, stab[m] the size of the right
    # stabilizer of m, and m is a representative exactly when it is the
    # smallest of the x*m*z; all computed here with plain sets.
    rmin, stab, areps, _ = _orbit_tables(G, *_half_tables(G))
    reps = set(areps.tolist())
    rmin, stab = rmin.tolist(), stab.tolist()
    for m in range(0, 1 << G.order, step):
        A = [i for i in range(G.order) if m >> i & 1]
        assert rmin[m] == min(sum(1 << G.mul[a][z] for a in A) for z in range(G.order))
        assert stab[m] == len(naive_right_stabilizer(G, A))
        orbit_min = min(
            sum(1 << G.mul[G.mul[x][a]][z] for a in A)
            for x in range(G.order)
            for z in range(G.order)
        )
        assert (m in reps) == (m != 0 and m == orbit_min)


@pytest.mark.parametrize(
    "G,step",
    [(symmetric(3), 1), (dihedral(4), 1), (dihedral(6), 7)],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_right_representatives_are_right_orbit_minima(G, step):
    # The B side of the scan: m is a representative exactly when it is
    # nonempty and the smallest of the m*y, computed here with plain sets.
    reps = _orbit_tables(G, *_half_tables(G))[3].tolist()
    assert reps == sorted(reps)
    reps = set(reps)
    for m in range(0, 1 << G.order, step):
        A = [i for i in range(G.order) if m >> i & 1]
        right_min = min(sum(1 << G.mul[a][y] for a in A) for y in range(G.order))
        assert (m in reps) == (m != 0 and m == right_min)


def test_d6_has_125_orbit_representatives():
    D6 = dihedral(6)
    assert len(_orbit_tables(D6, *_half_tables(D6))[2]) == 125


@pytest.mark.parametrize(
    "G,count",
    [(dihedral(6), 432), (quaternion(3), 0), (dihedral(7), 1372)],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_exhaustive_finding_counts(G, count):
    assert len(kneser_violation_scan(G, "exhaustive").findings) == count


@pytest.mark.parametrize(
    "G,count,digest",
    [
        (dihedral(7), 1372, "df4f90bcdacde4dff67b15749802cd675abdee879da5a2937ba92cc1b14d05ec"),
        (dihedral(8), 6144, "425a2452f92da352c6f4554c2d8cd47313f7879d950802c85c265f76c87b828a"),
        (
            direct_product([dihedral(4), cyclic(2)]),
            6144,
            "cc1abcd915332646d2e96fc5de4f548fa5ba730d068a7d2c7dc8c9d3704a513f",
        ),
        (quaternion(4), 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_exhaustive_findings_past_order_12_are_pinned(G, count, digest):
    # A full prefix walk at order 16 is 2^32 pairs, so above catalogue(12)
    # the ordered findings are pinned instead: the SHA-256 of the JSON list
    # of (A mask, B mask), as computed by the orbit scan.
    pairs = [[r.A.mask, r.B.mask] for r in kneser_violation_scan(G, "exhaustive").findings]
    assert len(pairs) == count
    assert hashlib.sha256(json.dumps(pairs).encode()).hexdigest() == digest


@pytest.fixture(scope="module")
def d6_findings():
    G = dihedral(6)
    scan = kneser_violation_scan(G, "exhaustive")
    return G, [(frozenset(r.A.elements()), frozenset(r.B.elements())) for r in scan.findings]


def test_d6_findings_are_closed_under_two_sided_translation(d6_findings):
    # (A, B) fails iff (x*A*z, z^-1*B*y) fails; checked with plain sets.
    G, pairs = d6_findings
    findings = set(pairs)
    mul, inv = G.mul, G.inv
    rng = random.Random(7)
    for A, B in rng.sample(pairs, 40):
        for _ in range(5):
            x, y, z = (rng.randrange(G.order) for _ in range(3))
            xAz = frozenset(mul[mul[x][a]][z] for a in A)
            zBy = frozenset(mul[mul[inv[z]][b]][y] for b in B)
            assert (xAz, zBy) in findings


def test_random_search_finds_exactly_the_drawn_failures(d6_findings):
    G, pairs = d6_findings
    findings = set(pairs)
    rng = random.Random(3)
    size = 1 << G.order
    draws = [(rng.randrange(1, size), rng.randrange(1, size)) for _ in range(20000)]
    elements = lambda mask: frozenset(Subset(G.order, mask).elements())
    expect = {(a, b) for a, b in draws if (elements(a), elements(b)) in findings}
    assert expect  # seed 3 draws three of the 432 failing pairs
    report = kneser_violation_scan(G, "random", seed=3, budget=20000)
    assert {(r.A.mask, r.B.mask) for r in report.findings} == expect


def test_d6_findings_agree_with_the_plain_set_oracle(d6_findings):
    G, pairs = d6_findings
    findings = set(pairs)
    for A, B in pairs:
        assert naive_kneser_fails(G, A, B)
    rng = random.Random(2026)
    held = 0
    while held < 2000:
        A = frozenset(i for i in range(G.order) if rng.random() < 0.5)
        B = frozenset(i for i in range(G.order) if rng.random() < 0.5)
        if A and B and (A, B) not in findings:
            assert not naive_kneser_fails(G, A, B)
            held += 1


@pytest.mark.parametrize(
    "command,config",
    [
        *[("search-kneser-failure", {"group": G.spec, "strategy": "exhaustive"})
          for G in NONABELIAN_12],
        FIXED["kneser-random-D6"],
    ],
    ids=[*(G.name for G in NONABELIAN_12), "kneser-random-D6"],
)
def test_every_reported_failure_agrees_with_the_plain_set_oracle(command, config):
    # Each finding's product, stabilizer and sizes, recomputed with plain sets
    # from its own A and B; the scan shares each mask's payload between findings.
    G = from_spec(config["group"])
    payload = run(command, config)
    assert payload["finding_count"] == len(payload["findings"])
    for finding in payload["findings"]:
        A, B = finding["set_a"]["indices"], finding["set_b"]["indices"]
        prod = naive_product(G, A, B)
        stab = naive_right_stabilizer(G, prod)
        assert finding["sum"]["indices"] == sorted(prod)
        assert finding["stabilizer"]["indices"] == sorted(stab)
        assert finding["lhs"] == len(prod)
        assert finding["rhs"] == len(A) + len(B) - len(stab)
        assert finding["holds"] is False and finding["equality"] is False
