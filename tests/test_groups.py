import itertools
import json
import math
import random
import sys

import pytest

from smalldoubling import (
    InvalidTable,
    SizeLimitExceeded,
    UsageError,
    catalogue,
    certificates,
    cyclic,
    dihedral,
    direct_product,
    enumerate_subgroups,
    from_spec,
    from_table,
    groups,
    quaternion,
    schema,
    symmetric,
    validate_table,
)
from smalldoubling.groups import check_spec, image, is_subgroup_mask
from smalldoubling.subsets import iter_bits
from oracles import (
    is_subgroup_naive,
    mixed_radix_decode,
    naive_closure,
    naive_inverse,
    naive_left_translate,
    naive_preset,
    naive_right_translate,
    naive_subgroups,
    naive_table_violation,
)
from test_cli import _nested_product
from test_payload_digests import TABLE_S3

PRESET_SAMPLE = [
    cyclic(1),
    cyclic(6),
    cyclic(13),
    dihedral(1),
    dihedral(2),
    dihedral(4),
    symmetric(3),
    symmetric(4),
    quaternion(2),
    quaternion(3),
    direct_product([cyclic(2), cyclic(4)]),
    direct_product([cyclic(2), cyclic(3), cyclic(2)]),
]


@pytest.mark.parametrize("G", PRESET_SAMPLE, ids=lambda g: g.name)
def test_presets_satisfy_group_axioms(G):
    # Presets skip validation at build time; prove them correct here.
    assert validate_table(G.mul) == G.identity == 0
    for a in G.elements():
        assert G.mul[a][G.inv[a]] == G.identity
        assert G.inv[G.inv[a]] == a
    assert G.is_abelian == all(
        G.mul[a][b] == G.mul[b][a] for a in G.elements() for b in G.elements()
    )
    assert len(set(G.labels)) == G.order


def test_abelian_flags():
    assert cyclic(12).is_abelian
    assert dihedral(2).is_abelian  # Klein four-group
    assert not dihedral(3).is_abelian
    assert not symmetric(3).is_abelian
    assert not quaternion(2).is_abelian
    assert direct_product([cyclic(2), cyclic(5)]).is_abelian


def test_cyclic_basics():
    G = cyclic(6)
    assert G.order == 6
    assert G.inv[1] == 5
    assert G.labels[4] == "4"


def test_symmetric_3_is_smallest_nonabelian():
    G = symmetric(3)
    assert G.order == 6
    assert not G.is_abelian
    assert G.labels[0] == "e"
    assert "(1 2)" in G.labels and "(1 2 3)" in G.labels


def test_from_table_z2():
    G = from_table([[0, 1], [1, 0]])
    assert G.order == 2
    assert G.identity == 0
    assert G.inv == (0, 1)


def test_from_table_rejects_out_of_range_entry():
    with pytest.raises(InvalidTable) as exc:
        from_table([[0, 1], [1, 7]])
    assert exc.value.witness[0] == "closure"


def test_from_table_of_one_element():
    G = from_table([[0]])
    assert (G.order, G.identity, G.inv, G.is_abelian) == (1, 0, (0,), True)
    with pytest.raises(InvalidTable) as exc:
        from_table([[1]])
    assert exc.value.witness == ("closure", (0, 0))


def test_validate_reports_witness_for_broken_associativity():
    # Perturb one entry of the Z3 table and confirm by checking all triples.
    table = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    table[1][2] = 1
    with pytest.raises(InvalidTable) as exc:
        validate_table(table)
    axiom, witness = exc.value.witness
    assert axiom in {"associativity", "identity", "inverses"}
    if axiom == "associativity":
        a, b, c = witness
        assert table[table[a][b]][c] != table[a][table[b][c]]


def test_validate_rejects_ragged_and_empty():
    for table, axiom in (([], "nonempty"), ([[0, 1], [1]], "shape")):
        with pytest.raises(InvalidTable) as exc:
            validate_table(table)
        assert exc.value.witness[0] == axiom


def test_validate_rejects_a_monoid_without_inverses():
    # Multiplication mod 4: associative with identity 1, but 0 and 2 are not units.
    with pytest.raises(InvalidTable, match="element 0 has no two-sided inverse") as exc:
        from_table([[a * b % 4 for b in range(4)] for a in range(4)])
    assert exc.value.witness == ("inverses", (0,))


def _expected_message(mul, axiom, witness):
    n = len(mul)
    if axiom == "shape":
        (a,) = witness
        detail = f"row {a} has length {len(mul[a])}, expected {n}"
    elif axiom == "closure":
        a, b = witness
        detail = f"mul({a},{b}) = {mul[a][b]!r} outside [0,{n})"
    elif axiom == "identity":
        detail = "no two-sided identity element"
    elif axiom == "associativity":
        a, b, c = witness
        detail = f"(a*b)*c = {mul[mul[a][b]][c]} but a*(b*c) = {mul[a][mul[b][c]]}"
    else:
        detail = f"element {witness[0]} has no two-sided inverse"
    return f"{axiom} violated: {detail}"


def _perturbed(G, rng):
    """G's table with one or two entries changed; now and then an entry is
    out of range or not an int, or a row is cut short."""
    mul = [list(row) for row in G.mul]
    n = G.order
    for _ in range(rng.choice((1, 2))):
        a, b = rng.randrange(n), rng.randrange(n)
        if rng.random() < 0.05:
            mul[a][b] = rng.choice((n, -1, str(mul[a][b]), float(mul[a][b])))
        else:
            mul[a][b] = rng.randrange(n)
    if rng.random() < 0.05:
        a = rng.randrange(n)
        mul[a] = mul[a][: rng.randrange(n)]
    return mul


@pytest.mark.parametrize("G", catalogue(8), ids=lambda g: g.name)
def test_from_table_rejects_as_the_naive_axiom_check(G):
    rng = random.Random(f"table/{G.name}")
    for _ in range(200):
        mul = _perturbed(G, rng)
        want = naive_table_violation(mul)
        if want is None:
            H = from_table(mul)
            assert H.identity == validate_table(mul)
            assert all(H.mul[a][H.inv[a]] == H.identity for a in H.elements())
            continue
        with pytest.raises(InvalidTable) as exc:
            from_table(mul)
        assert exc.value.witness == want
        assert str(exc.value) == _expected_message(mul, *want)


def test_identity_off_index_zero():
    # Z3 relabelled so that the identity is index 2.
    G = from_table([[1, 2, 0], [2, 0, 1], [0, 1, 2]])
    assert G.identity == 2
    assert G.inv == (1, 0, 2)
    assert G.is_abelian


def test_labels_must_be_distinct():
    with pytest.raises(InvalidTable) as exc:
        from_table([[0, 1], [1, 0]], ["x", "x"])
    assert exc.value.witness == ("labels", ())


def test_size_caps():
    # The order cap belongs to the spec; the builders take none.
    z65, s5, s7 = ({"preset": "cyclic", "n": 65}, {"preset": "symmetric", "n": 5},
                   {"preset": "symmetric", "n": 7})
    with pytest.raises(SizeLimitExceeded):
        from_spec(z65)
    assert from_spec(z65, order_cap=128).order == 65  # configurable past one machine word
    assert cyclic(65).order == 65
    with pytest.raises(SizeLimitExceeded):
        from_spec(s5)  # order 120 > default cap
    assert from_spec(s5, order_cap=120).order == 120
    with pytest.raises(SizeLimitExceeded):
        from_spec(s7, order_cap=10**6)  # preset hard limit
    with pytest.raises(SizeLimitExceeded):
        symmetric(7)


def test_from_spec_round_trip():
    spec = {"preset": "direct_product", "factors": [{"preset": "cyclic", "n": 2}, {"preset": "cyclic", "n": 3}]}
    G = from_spec(spec)
    assert G.order == 6 and G.is_abelian
    assert from_spec(G.spec).mul == G.mul
    table_group = from_spec({"table": [[0, 1], [1, 0]], "labels": ["e", "g"]})
    assert table_group.labels == ("e", "g")
    klein = from_spec({"table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]})
    assert klein.order == 4 and klein.is_abelian
    with pytest.raises(InvalidTable):
        from_spec({"preset": "nope", "n": 3})
    with pytest.raises(InvalidTable):
        from_spec({"preset": "cyclic"})


Z2_TABLE = [[0, 1], [1, 0]]


@pytest.mark.parametrize("spec", [
    {"preset": "cyclic", "n": True},
    {"preset": "cyclic", "n": 12.7},
    {"preset": "cyclic", "n": "12"},
    {"preset": "cyclic", "n": 12, "order": 12},
    {"preset": "cyclic", "n": "abc"},
    {"preset": "direct_product", "factors": 5},
    {"table": [[0, True], [True, 0]]},
    {"table": Z2_TABLE, "labels": [1, 2]},
    {"table": Z2_TABLE, "labels": "ab"},
    {"table": Z2_TABLE, "name": 5},
    json.loads(_nested_product(65)),
    json.loads(_nested_product(70)),
], ids=["bool-n", "float-n", "string-n", "unknown-key", "word-n", "int-factors",
        "bool-entries", "int-labels", "string-labels", "int-name", "nested-65", "nested-70"])
def test_from_spec_refuses_what_the_config_check_refuses(spec):
    with pytest.raises(UsageError):
        schema.check_group(spec)
    with pytest.raises(InvalidTable):
        from_spec(spec)


def test_from_spec_refuses_a_deep_product_without_recursing():
    """A product nested 3,000 levels deep is InvalidTable, not RecursionError:
    the check walks an explicit stack and stops at MAX_GROUP_NESTING."""
    levels = 3000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(4 * levels)  # for the JSON parser only
    try:
        spec = json.loads(_nested_product(levels))
    finally:
        sys.setrecursionlimit(limit)
    with pytest.raises(InvalidTable, match="nests direct_product"):
        from_spec(spec)
    with pytest.raises(UsageError, match="nests direct_product"):
        schema.check_group(spec)


ROUND_TRIP = [*catalogue(24), direct_product([
    quaternion(2), from_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]], ["e", "a", "a2"]), cyclic(2)
])]


@pytest.mark.parametrize("G", ROUND_TRIP, ids=lambda g: g.name)
def test_every_spec_passes_the_check_and_rebuilds_its_table(G):
    check_spec(G.spec)
    assert from_spec(G.spec).mul == G.mul


def test_a_named_table_rebuilds_from_its_spec_under_its_name():
    Z3t = from_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]], name="Z3t")
    P = direct_product([Z3t, cyclic(2)])
    assert P.name == "Z3txZ2"
    for G in (Z3t, P):
        assert from_spec(G.spec).name == G.name
    payload = certificates.run("doubling", {"group": P.spec, "sets": {"A": [0, 1]}})
    assert payload["group"] == "Z3txZ2"


PINNED_PRESETS = [
    pytest.param(build, n, id=f"{build.__name__}-{n}")
    for build, least, most in (
        (cyclic, 1, 64), (dihedral, 1, 32), (quaternion, 2, 16), (symmetric, 1, 5)
    )
    for n in range(least, most + 1)
]


@pytest.mark.parametrize("build,n", PINNED_PRESETS)
def test_preset_tables_match_their_entry_formulas(build, n):
    """Every entry, label, name and spec of the cyclic, dihedral, quaternion
    and symmetric presets, against the per-entry formulas of `naive_preset`."""
    G = build(n)
    assert (G.mul, G.labels, G.name, G.spec) == naive_preset(build.__name__, n)


def _check_product(P, factors):
    """P is the direct product of `factors`, decoded element by element."""
    radices = [g.order for g in factors]
    coords = [mixed_radix_decode(x, radices) for x in range(P.order)]
    assert P.order == math.prod(radices)
    for x, cx in enumerate(coords):
        for y, cy in enumerate(coords):
            assert coords[P.mul[x][y]] == tuple(
                g.mul[a][b] for g, a, b in zip(factors, cx, cy)
            )
    assert P.labels == tuple(
        "(" + ",".join(g.labels[a] for g, a in zip(factors, cx)) + ")" for cx in coords
    )
    assert P.name == "x".join(g.name for g in factors)
    assert P.spec == {"preset": "direct_product", "factors": [g.spec for g in factors]}
    assert coords[P.identity] == tuple(g.identity for g in factors)
    assert P.mul[P.identity] == tuple(range(P.order))
    assert P.is_abelian == all(g.is_abelian for g in factors)


def test_direct_product_is_componentwise():
    small = catalogue(8)
    for G, H in itertools.product(small, repeat=2):
        _check_product(direct_product([G, H]), [G, H])
    klein = {"preset": "direct_product", "factors": [{"preset": "cyclic", "n": 2}] * 2}
    nested = from_spec({"preset": "direct_product", "factors": [{"preset": "quaternion", "n": 2}, klein]})
    _check_product(nested, [quaternion(2), from_spec(klein)])
    assert nested.labels[3] == "(e,(1,1))"
    # Factors whose identity is not index 0: Z3 at index 2, S3 at index 1.
    z3, s3 = from_table([[1, 2, 0], [2, 0, 1], [0, 1, 2]]), from_spec(TABLE_S3)
    for factors in ([z3], [s3], [z3, cyclic(2)], [cyclic(2), s3], [s3, z3], [z3, s3, z3]):
        _check_product(direct_product(factors), factors)


def test_direct_product_of_many_factors():
    factors = [cyclic(2), symmetric(3), cyclic(1), dihedral(2)]
    _check_product(direct_product(factors), factors)
    trivial = direct_product([cyclic(1)] * 500)
    assert trivial.labels == ("(" + ",".join(["0"] * 500) + ")",)


def test_direct_product_of_one_factor_keeps_its_table():
    for G in (cyclic(5), symmetric(3), quaternion(2)):
        P = direct_product([G])
        assert P.mul == G.mul and P.inv == G.inv
        assert P.labels == tuple(f"({label})" for label in G.labels)


def test_a_product_spec_past_the_order_cap_is_refused_before_building(monkeypatch):
    # With every builder spied, the cap must be refused from the leaf orders alone.
    def fail(*args, **kwargs):
        pytest.fail("a builder ran")

    for name, (_, least, order) in list(groups.PRESETS.items()):
        monkeypatch.setitem(groups.PRESETS, name, (fail, least, order))
    monkeypatch.setattr(groups, "direct_product", fail)
    monkeypatch.setattr(groups, "from_table", fail)
    product = {"preset": "direct_product", "factors": [{"preset": "cyclic", "n": 8}] * 3}
    with pytest.raises(SizeLimitExceeded):
        from_spec(product)
    product["factors"] = [{"preset": "cyclic", "n": 4}] * 2
    with pytest.raises(SizeLimitExceeded):
        from_spec(product, order_cap=15)
    monkeypatch.undo()
    with pytest.raises(InvalidTable):
        direct_product([])


def test_subgroup_counts_frozen():
    # Counts confirmed against the all-subsets closure oracle below.
    assert len(enumerate_subgroups(cyclic(6))) == 4
    assert sorted(h.cardinality for h in enumerate_subgroups(cyclic(6))) == [1, 2, 3, 6]
    assert len(enumerate_subgroups(dihedral(4))) == 10
    for p in (2, 3, 5, 7, 13):
        assert len(enumerate_subgroups(cyclic(p))) == 2


@pytest.mark.parametrize(
    "G",
    [g for g in catalogue(10)] + [cyclic(16), dihedral(8), quaternion(4)],
    ids=lambda g: g.name,
)
def test_subgroups_match_bruteforce_oracle(G):
    got = {frozenset(h.elements()) for h in enumerate_subgroups(G)}
    assert got == set(naive_subgroups(G))


def _tau(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def _sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def _f2_subspaces(k):
    # Subspaces of F_2^k: the sum over d of the Gaussian binomials [k, d]_2.
    total = 0
    for d in range(k + 1):
        num = den = 1
        for i in range(d):
            num *= 2 ** (k - i) - 1
            den *= 2 ** (i + 1) - 1
        total += num // den
    return total


def _z2_power(k):
    return direct_product([cyclic(2)] * k)


# Closed forms: the dihedral group with n rotations has tau(n) + sigma(n)
# subgroups, the quaternion group of order 4n has tau(2n) + sigma(n), and
# (Z2)^k has one per subspace of F_2^k.
@pytest.mark.parametrize(
    "G,count",
    [
        (symmetric(4), 30),
        (dihedral(16), _tau(16) + _sigma(16)),
        (dihedral(32), _tau(32) + _sigma(32)),
        (quaternion(8), _tau(16) + _sigma(8)),
        (_z2_power(5), _f2_subspaces(5)),
        (_z2_power(6), _f2_subspaces(6)),
    ],
    ids=lambda v: v.name if hasattr(v, "name") else str(v),
)
def test_subgroup_counts_match_closed_forms(G, count):
    assert len(enumerate_subgroups(G)) == count


@pytest.mark.parametrize("G", [symmetric(4), dihedral(16)], ids=lambda g: g.name)
def test_subgroup_list_is_complete_under_joins(G):
    # The cyclic subgroups generate the lattice under joins, so a list of
    # subgroups that holds every <g> and is closed under joins is all of it.
    subs = {frozenset(h.elements()) for h in enumerate_subgroups(G)}
    assert all(is_subgroup_naive(G, H) for H in subs)
    for g in G.elements():
        assert frozenset(naive_closure(G, [g])) in subs
    for H in subs:
        for K in subs:
            assert frozenset(naive_closure(G, H | K)) in subs


def test_subgroup_list_properties():
    for G in (
        cyclic(12),
        symmetric(3),
        quaternion(2),
        quaternion(8),
        direct_product([dihedral(4), cyclic(4)]),
        _z2_power(5),
    ):
        subs = enumerate_subgroups(G)
        keys = [(h.cardinality, h.elements()) for h in subs]
        assert all(a < b for a, b in zip(keys, keys[1:]))  # sorted, no duplicates
        assert subs[0].elements() == (G.identity,)
        assert subs[-1].cardinality == G.order
        for h in subs:
            assert is_subgroup_naive(G, h)
            assert G.order % h.cardinality == 0  # Lagrange


def test_is_subgroup_mask_matches_oracle_on_every_mask():
    for G in catalogue(8):
        masks = range(1 << G.order)
        got = [is_subgroup_mask(G, m) for m in masks]
        assert got == [is_subgroup_naive(G, iter_bits(m)) for m in masks], G.name


def test_coset_examples():
    G = cyclic(6)
    H = G.subset([0, 3])
    assert image(G.mul[0], H.mask) == H.mask
    assert tuple(iter_bits(image(G.cols[1], H.mask))) == (1, 4)  # H*1
    S3 = symmetric(3)
    H2 = S3.subset([0, S3.labels.index("(1 2)")])
    g = S3.labels.index("(1 2 3)")
    assert image(S3.mul[g], H2.mask) != image(S3.cols[g], H2.mask)  # g*H2 != H2*g


def test_coset_partition():
    for G in (cyclic(12), symmetric(3), dihedral(4)):
        for H in enumerate_subgroups(G):
            for perms in (G.mul, G.cols):  # left cosets g*H, right cosets H*g
                cosets = {image(perms[g], H.mask) for g in G.elements()}
                assert len(cosets) == G.order // H.cardinality
                assert sum(m.bit_count() for m in cosets) == G.order
                union = 0
                for m in cosets:
                    assert union & m == 0
                    union |= m


def test_image_matches_plain_set_translates():
    for G in catalogue(16) + (dihedral(32),):
        assert G.cols == tuple(zip(*G.mul))  # cols[x][a] = mul[a][x] = a*x
        rng = random.Random(G.order)
        for _ in range(4):
            mask = rng.randrange(1 << G.order)
            A = [a for a in G.elements() if (mask >> a) & 1]
            assert set(iter_bits(image(G.inv, mask))) == naive_inverse(G, A)
            for x in G.elements():
                assert set(iter_bits(image(G.mul[x], mask))) == naive_left_translate(G, x, A)
                assert set(iter_bits(image(G.cols[x], mask))) == naive_right_translate(G, A, x)


def test_catalogue_contents():
    groups = catalogue(16)
    names = [g.name for g in groups]
    assert len(names) == len(set(names))
    assert all(g.order <= 16 for g in groups)
    assert "Z10" in names and "Z2xZ5" in names and "S3" in names
    assert "D8" in names and "Q16" in names
    orders = [g.order for g in groups]
    assert orders == sorted(orders)
    abelian_10 = [g for g in catalogue(10) if g.is_abelian]
    assert len(abelian_10) == 15  # 10 cyclic + 5 two-factor products
