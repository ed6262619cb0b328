import random
from fractions import Fraction

import pytest

from smalldoubling import (
    EmptySet,
    GroupFunction,
    GroupMismatch,
    Subset,
    autocorrelation,
    convolve,
    cyclic,
    gap_check,
    inverse_set,
    level_set,
    product_set,
    quaternion,
    smoothed,
    symmetric,
)
from oracles import naive_autocorrelation, naive_convolve

GROUPS = [cyclic(4), cyclic(8), symmetric(3), quaternion(2)]


def random_function(rng, n):
    return GroupFunction(
        tuple(Fraction(rng.randrange(-3, 7), rng.randrange(1, 5)) for _ in range(n))
    )


def test_convolve_examples():
    Z4 = cyclic(4)
    u = GroupFunction.indicator(Z4.subset([0, 1]))
    out = convolve(Z4, u, u)
    assert out.values == (Fraction(1), Fraction(2), Fraction(1), Fraction(0))

    delta = GroupFunction.indicator(Z4.subset([0]))
    v = random_function(random.Random(0), 4)
    assert convolve(Z4, delta, v) == v

    c1 = GroupFunction.constant(4, Fraction(1, 3))
    c2 = GroupFunction.constant(4, Fraction(2, 5))
    out = convolve(Z4, c1, c2)
    assert out.values == (Fraction(8, 15),) * 4  # c1*c2*|G|


def test_convolve_guards_and_mass():
    Z4 = cyclic(4)
    with pytest.raises(GroupMismatch):
        convolve(Z4, GroupFunction.constant(4, 1), GroupFunction.constant(5, 1))
    rng = random.Random(3)
    for G in GROUPS:
        u = random_function(rng, G.order)
        v = random_function(rng, G.order)
        out = convolve(G, u, v)
        assert out.values == tuple(naive_convolve(G, u.values, v.values))
        assert out.mass == u.mass * v.mass


@pytest.mark.parametrize("value", [0.5, "1/3", 1, True], ids=repr)
def test_group_function_takes_only_fractions(value):
    # Values are not converted: a float would carry its rounding into exact
    # arithmetic, so anything but a Fraction is refused.
    with pytest.raises(TypeError, match="must be Fractions"):
        GroupFunction((Fraction(0), value))


def test_group_function_builders_make_fractions():
    Z4 = cyclic(4)
    A = Z4.subset([0, 3])
    built = {
        "constant": GroupFunction.constant(4, 1),
        "indicator": GroupFunction.indicator(A),
        "normalized_indicator": GroupFunction.normalized_indicator(A),
    }
    assert built["constant"].values == (Fraction(1),) * 4
    assert built["normalized_indicator"].values == (Fraction(1, 2), 0, 0, Fraction(1, 2))
    for name, f in built.items():
        assert all(type(v) is Fraction for v in f.values), name


def test_convolve_associative():
    rng = random.Random(4)
    for G in (cyclic(5), symmetric(3)):
        u, v, w = (random_function(rng, G.order) for _ in range(3))
        assert convolve(G, convolve(G, u, v), w) == convolve(G, u, convolve(G, v, w))


def test_autocorrelation_examples():
    Z8 = cyclic(8)
    f = autocorrelation(Z8, Z8.subset([0, 1]))
    assert f.values[0] == 1
    assert f.values[1] == f.values[7] == Fraction(1, 2)
    assert all(f.values[x] == 0 for x in range(2, 7))

    H = cyclic(6).subset([0, 2, 4])
    f = autocorrelation(cyclic(6), H)
    assert f == GroupFunction.indicator(H)  # subgroups give their indicator

    f = autocorrelation(Z8, Z8.subset([0]))
    assert f == GroupFunction.indicator(Z8.subset([0]))

    with pytest.raises(EmptySet):
        autocorrelation(Z8, Z8.subset([]))


@pytest.mark.parametrize("G", GROUPS, ids=lambda g: g.name)
def test_autocorrelation_identities(G):
    rng = random.Random(G.order)
    for _ in range(20):
        A = Subset(G.order, rng.randrange(1, 1 << G.order))
        f = autocorrelation(G, A)
        assert f.values == tuple(naive_autocorrelation(G, A.elements()))
        assert f.values[G.identity] == 1
        assert f.mass == A.cardinality
        assert all(0 <= v <= 1 for v in f.values)
        support = product_set(G, A, inverse_set(G, A))
        assert G.subset(i for i, v in enumerate(f.values) if v != 0) == support
        # f is the normalized convolution of 1_A with 1_{A^-1}
        conv = convolve(
            G,
            GroupFunction.indicator(A),
            GroupFunction.indicator(inverse_set(G, A)),
        )
        assert tuple(v / A.cardinality for v in conv.values) == f.values


def test_gap_examples():
    Z8 = cyclic(8)
    rep = gap_check(Z8, Z8.subset([0, 1]))
    assert rep.epsilon_star == Fraction(1, 2)
    assert rep.support.elements() == (0, 1, 7)
    assert rep.min_on_support == Fraction(1, 2)
    assert rep.gap_holds and rep.forbidden_interval_clean
    assert not rep.hypothesis_vacuous

    H = cyclic(6).subset([0, 3])
    rep = gap_check(cyclic(6), H)
    assert rep.epsilon_star == 1 and rep.min_on_support == 1 and rep.gap_holds


def test_gap_vacuous_case_found_by_search():
    # Find a set in Z16 whose difference set is at least twice its size; the
    # hypothesis is then vacuous and no gap is claimed.
    Z16 = cyclic(16)
    found = None
    for mask in range(1, 1 << 16):
        A = Subset(16, mask)
        if A.cardinality != 4:
            continue
        diff = product_set(Z16, inverse_set(Z16, A), A)
        if diff.cardinality >= 2 * A.cardinality:
            found = A
            break
    assert found is not None
    rep = gap_check(Z16, found)
    assert rep.epsilon_star <= 0
    assert rep.hypothesis_vacuous
    assert rep.gap_holds  # trivially: every value clears a nonpositive bound


@pytest.mark.parametrize("G", GROUPS, ids=lambda g: g.name)
def test_gap_inclusion_exclusion_derivation(G):
    # For x = a b^-1 in the support: |A ∩ xA| = |a^-1 A ∩ b^-1 A| and the
    # right side is at least 2|A| - |A^-1 A| by inclusion-exclusion.
    rng = random.Random(G.order + 2)
    mul, inv = G.mul, G.inv
    for _ in range(15):
        A = Subset(G.order, rng.randrange(1, 1 << G.order))
        elems = set(A.elements())
        inv_prod = product_set(G, inverse_set(G, A), A)
        for a in elems:
            for b in elems:
                x = mul[a][inv[b]]
                xA = {mul[x][t] for t in elems}
                left = {mul[inv[a]][t] for t in elems}
                right = {mul[inv[b]][t] for t in elems}
                assert len(elems & xA) == len(left & right)
                assert len(left & right) >= 2 * A.cardinality - inv_prod.cardinality


def test_smoothed_examples():
    Z8 = cyclic(8)
    A = Z8.subset([0, 1])
    f = autocorrelation(Z8, A)

    assert smoothed(Z8, Z8.subset([0]), f) == f  # S = {e} is the identity map

    flat = smoothed(Z8, Subset(Z8.order, (1 << Z8.order) - 1), f)
    assert flat == GroupFunction.constant(8, Fraction(2, 8))  # mass(f)/|G|

    F = smoothed(Z8, A, f)
    assert [str(v) for v in F.values] == ["1/2", "3/4", "1/2", "1/8", "0", "0", "0", "1/8"]
    assert F.mass == f.mass == 2

    with pytest.raises(EmptySet):
        smoothed(Z8, Z8.subset([]), f)


@pytest.mark.parametrize("G", GROUPS, ids=lambda g: g.name)
def test_smoothed_preserves_mass_and_sign(G):
    rng = random.Random(G.order + 5)
    for _ in range(10):
        A = Subset(G.order, rng.randrange(1, 1 << G.order))
        S = Subset(G.order, rng.randrange(1, 1 << G.order))
        f = autocorrelation(G, A)
        F = smoothed(G, S, f)
        assert F.mass == f.mass
        assert all(v >= 0 for v in F.values)


def test_level_set_examples():
    Z8 = cyclic(8)
    f = autocorrelation(Z8, Z8.subset([0, 1]))
    assert level_set(Z8, f, Fraction(1, 3)).elements() == (0, 1, 7)
    assert level_set(Z8, f, Fraction(-1)) == Subset(Z8.order, (1 << Z8.order) - 1)
    assert level_set(Z8, f, Fraction(1)).is_empty
    assert level_set(Z8, f, Fraction(1, 2)).elements() == (0,)  # strict comparison
