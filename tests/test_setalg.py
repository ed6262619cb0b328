import random
from fractions import Fraction

import numpy as np
import pytest

from smalldoubling import (
    EmptySet,
    GroupMismatch,
    NotASubgroup,
    SizeLimitExceeded,
    Subset,
    coset_cover,
    cyclic,
    dihedral,
    doubling_ratio,
    enumerate_subgroups,
    inverse_set,
    product_set,
    quaternion,
    right_stabilizer,
    symmetric,
)
from smalldoubling import certificates, setalg, theorems
from smalldoubling.groups import image
from smalldoubling.setalg import (
    expansion_rows,
    mask_table_from_rows,
    mask_tables_from_rows,
    product_mask_table,
    product_size_table,
)
from oracles import (
    is_subgroup_naive,
    naive_inverse,
    naive_product,
    naive_right_stabilizer,
)
from test_payload_digests import FIXED

GROUPS = [cyclic(9), cyclic(12), symmetric(3), dihedral(4), quaternion(2)]


def random_subset(rng, G, allow_empty=False):
    while True:
        mask = rng.randrange(0, 1 << G.order)
        if mask or allow_empty:
            return Subset(G.order, mask)


def test_product_examples():
    Z9 = cyclic(9)
    A = Z9.subset([0, 1, 2])
    assert product_set(Z9, A, A).elements() == (0, 1, 2, 3, 4)
    Z6 = cyclic(6)
    H = Z6.subset([0, 3])
    assert product_set(Z6, H, H) == H  # subgroups are idempotent
    e = Z6.subset([0])
    B = Z6.subset([1, 4, 5])
    assert product_set(Z6, e, B) == B
    assert product_set(Z6, Z6.subset([]), B).is_empty


def test_product_mismatch():
    with pytest.raises(GroupMismatch):
        product_set(cyclic(6), cyclic(6).subset([0]), cyclic(7).subset([0]))


@pytest.mark.parametrize("G", GROUPS, ids=lambda g: g.name)
def test_product_matches_oracle(G):
    rng = random.Random(G.order)
    for _ in range(30):
        A = random_subset(rng, G, allow_empty=True)
        B = random_subset(rng, G, allow_empty=True)
        got = product_set(G, A, B)
        assert set(got.elements()) == naive_product(G, A.elements(), B.elements())
        # monotonicity and the max lower bound
        if not A.is_empty and not B.is_empty:
            assert got.cardinality >= max(A.cardinality, B.cardinality)
        bigger = product_set(G, Subset(G.order, A.mask | B.mask), B)
        assert got.mask & bigger.mask == got.mask
        if G.is_abelian:
            assert got == product_set(G, B, A)


def test_inverse_examples_and_laws():
    Z8 = cyclic(8)
    assert inverse_set(Z8, Z8.subset([0])).elements() == (0,)
    assert inverse_set(Z8, Z8.subset([0, 1])).elements() == (0, 7)
    S3 = symmetric(3)
    c3 = S3.labels.index("(1 2 3)")
    other = S3.labels.index("(1 3 2)")
    assert inverse_set(S3, S3.subset([c3])).elements() == (other,)
    rng = random.Random(5)
    for G in GROUPS:
        for _ in range(20):
            A = random_subset(rng, G)
            B = random_subset(rng, G)
            assert set(inverse_set(G, A).elements()) == naive_inverse(G, A.elements())
            assert inverse_set(G, inverse_set(G, A)) == A
            assert inverse_set(G, product_set(G, A, B)) == product_set(
                G, inverse_set(G, B), inverse_set(G, A)
            )


def test_stabilizer_examples():
    Z6 = cyclic(6)
    whole = Subset(Z6.order, (1 << Z6.order) - 1)
    assert right_stabilizer(Z6, whole) == whole
    assert right_stabilizer(Z6, Z6.subset([0, 3])).elements() == (0, 3)
    assert right_stabilizer(Z6, Z6.subset([0, 1, 2])).elements() == (0,)
    with pytest.raises(EmptySet):
        right_stabilizer(Z6, Z6.subset([]))


@pytest.mark.parametrize(
    "G", GROUPS + [quaternion(8), dihedral(32)], ids=lambda g: g.name
)
def test_stabilizers_match_oracle_and_are_subgroups(G):
    rng = random.Random(11 * G.order)
    for _ in range(25):
        T = random_subset(rng, G)
        right = right_stabilizer(G, T)
        assert set(right.elements()) == naive_right_stabilizer(G, T.elements())
        assert is_subgroup_naive(G, right)
        assert T.cardinality % right.cardinality == 0
        # T*H = T makes T a union of left cosets t*H of the right stabilizer.
        for t in T:
            assert image(G.mul[t], right.mask) | T.mask == T.mask


@pytest.mark.parametrize(
    "G", [symmetric(3), dihedral(6), quaternion(4), dihedral(8)], ids=lambda g: g.name
)
def test_stabilizer_matches_oracle_on_trivial_and_coset_unions(G):
    # right_stabilizer stops intersecting once only e is left.  Random sets
    # mostly take that exit; unions of left cosets t*H keep H and must not.
    rng = random.Random(3 * G.order)
    subgroups = enumerate_subgroups(G)
    trivial = 0
    for _ in range(60):
        T = random_subset(rng, G)
        H = rng.choice(subgroups)
        U = Subset(G.order, 0)
        for t in rng.sample(range(G.order), rng.randrange(1, 4)):
            U = Subset(G.order, U.mask | image(G.mul[t], H.mask))
        for X in (T, U):
            stab = right_stabilizer(G, X)
            assert set(stab.elements()) == naive_right_stabilizer(G, X.elements())
            trivial += stab.cardinality == 1
        assert right_stabilizer(G, U).mask & H.mask == H.mask
    assert 30 <= trivial < 120


def test_doubling_examples():
    Z20 = cyclic(20)
    rep = doubling_ratio(Z20, Z20.subset(range(5)))
    assert rep.ratio == Fraction(9, 5)
    assert rep.epsilon == Fraction(1, 5)
    assert rep.square.elements() == tuple(range(9))
    Z6 = cyclic(6)
    rep = doubling_ratio(Z6, Z6.subset([0, 3]))
    assert rep.ratio == 1 and rep.epsilon == 1
    rep = doubling_ratio(Z6, Z6.subset([0]))
    assert rep.ratio == 1
    with pytest.raises(EmptySet):
        doubling_ratio(Z6, Z6.subset([]))


def test_cover_examples():
    Z6 = cyclic(6)
    H = Z6.subset([0, 3])
    inside = coset_cover(Z6, H, Z6.subset([3]), side="right")
    assert inside.count == 1 and inside.representatives == (0,)

    Z20 = cyclic(20)
    trivial = Z20.subset([0])
    cover = coset_cover(Z20, trivial, Z20.subset(range(9)), side="right")
    assert cover.count == 9

    S3 = symmetric(3)
    H2 = S3.subset([0, S3.labels.index("(1 2)")])
    assert coset_cover(S3, H2, Subset(S3.order, (1 << S3.order) - 1), side="right").count == 3

    with pytest.raises(NotASubgroup):
        coset_cover(Z6, Z6.subset([1, 2]), Z6.subset([0]))
    with pytest.raises(EmptySet):
        coset_cover(Z6, H, Z6.subset([]))
    with pytest.raises(ValueError):
        coset_cover(Z6, H, Z6.subset([0]), side="middle")


@pytest.mark.parametrize("G", GROUPS, ids=lambda g: g.name)
def test_cover_certificate_invariants(G):
    rng = random.Random(3 * G.order + 1)
    subgroups = enumerate_subgroups(G)
    for _ in range(25):
        H = subgroups[rng.randrange(len(subgroups))]
        T = random_subset(rng, G)
        side = rng.choice(["left", "right"])
        cert = coset_cover(G, H, T, side=side)
        perms = G.cols if side == "right" else G.mul
        cosets = [Subset(G.order, image(perms[r], H.mask)) for r in cert.representatives]
        union = 0
        for rep, coset in zip(cert.representatives, cosets):
            assert rep == coset.elements()[0]  # canonical minimum-index member
            assert union & coset.mask == 0
            union |= coset.mask
        assert T.mask & union == T.mask
        # every listed coset really meets T
        assert all(coset.mask & T.mask for coset in cosets)
        assert cert.representatives == tuple(sorted(cert.representatives))
        # trivial subgroup and whole-group targets
        assert coset_cover(G, subgroups[0], T, side=side).count == T.cardinality
        full = coset_cover(G, H, Subset(G.order, (1 << G.order) - 1), side=side)
        assert full.count == G.order // H.cardinality


def test_cover_of_invariant_set_is_exact_quotient():
    G = symmetric(3)
    for H in enumerate_subgroups(G):
        T = product_set(G, H, G.subset([0, 1, 3]))  # H*T' is left-H-invariant
        cert = coset_cover(G, H, T, side="right")
        assert cert.count == T.cardinality // H.cardinality


@pytest.mark.parametrize("G", GROUPS, ids=lambda g: g.name)
def test_subset_tables_match_direct_products(G):
    rng = random.Random(G.order + 99)
    S = random_subset(rng, G)
    masks = product_mask_table(G, S)
    sizes = product_size_table(G, S)
    for _ in range(50):
        A = random_subset(rng, G, allow_empty=True)
        direct = product_set(G, A, S) if not A.is_empty else Subset(G.order, 0)
        assert int(masks[A.mask]) == direct.mask
        assert int(sizes[A.mask]) == direct.cardinality


def _or_of_set_bits(rows, m):
    out = 0
    for g, row in enumerate(rows):
        if m >> g & 1:
            out |= row
    return out


# (n rows, bits of the largest row); every table is uint32, and 32-bit rows
# use its top bit
MASK_TABLE_CASES = [(0, 32), (1, 8), (2, 9), (5, 32), (10, 24)]


@pytest.mark.parametrize("n, bits", MASK_TABLE_CASES, ids=[str(c[0]) for c in MASK_TABLE_CASES])
def test_mask_table_is_the_or_of_rows_at_every_mask(n, bits):
    rng = random.Random(n)
    rows = [rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(n)]
    table = mask_table_from_rows(rows)
    assert len(table) == 1 << n and table.dtype == np.uint32
    for m in range(1 << n):
        assert int(table[m]) == _or_of_set_bits(rows, m)

    # A 2-D block of uint32 rows, as the Kneser scan passes: each row set
    # gets its own table.
    block = [[rng.getrandbits(32) for _ in range(n)] for _ in range(3)]
    tables = mask_tables_from_rows(np.array(block, dtype=np.uint32).reshape(3, n))
    assert tables.shape == (3, 1 << n) and tables.dtype == np.uint32
    for rows, table in zip(block, tables):
        assert table.tolist() == [_or_of_set_bits(rows, m) for m in range(1 << n)]


@pytest.mark.parametrize("bits", [25, 40, 70])
def test_mask_table_refuses_more_rows_than_the_limit(bits):
    # 25 rows is one past SUBSET_TABLE_LIMIT; rows wider than 32 or 64 bits
    # are refused by the count, before numpy is asked to convert them.
    with pytest.raises(SizeLimitExceeded):
        mask_table_from_rows([1 << (bits - 1)] * 25)


# One certificate of each command that builds numpy mask tables.
TABLE_COMMANDS = [
    ("connectivity", {"group": {"preset": "dihedral", "n": 4}, "sets": {"S": [0, 1]},
                      "K": "1/2", "solver": "brute_force"}),
    ("atoms", {"group": {"preset": "dihedral", "n": 4}, "sets": {"S": [0, 1]}, "K": "1/2"}),
    ("petridis", {"group": {"preset": "dihedral", "n": 5}, "sets": {"A": [0, 1, 5], "S": [0, 5]},
                  "mode": "exhaustive"}),
    ("search-kneser-failure", {"group": {"preset": "symmetric", "n": 3}, "strategy": "exhaustive"}),
]


@pytest.mark.parametrize("command, config", TABLE_COMMANDS, ids=[c[0] for c in TABLE_COMMANDS])
def test_every_mask_table_is_uint32(monkeypatch, command, config):
    # Spied in every namespace that binds it, as bench/tracing.py patches.
    original = setalg.mask_tables_from_rows
    dtypes = []

    def spy(rows):
        table = original(rows)
        dtypes.append((rows.dtype.name, table.dtype.name))
        return table

    for module in (setalg, theorems):
        monkeypatch.setattr(module, "mask_tables_from_rows", spy)
    certificates.run(command, config)
    assert dtypes and set(dtypes) == {("uint32", "uint32")}


@pytest.mark.parametrize("case", ["petridis-exhaustive-D10", "petridis-exhaustive-S4"])
def test_exhaustive_petridis_builds_no_table_wider_than_16_columns(monkeypatch, case):
    # Orders 20 and 24 with K > 1: one 2^n-entry table per factor would have
    # 20 or 24 columns, 4-64 MB each.  The check is made 2^16 masks at a time.
    original = setalg.mask_tables_from_rows
    widths = []

    def spy(rows):
        widths.append(rows.shape[-1])
        return original(rows)

    for module in (setalg, theorems):
        monkeypatch.setattr(module, "mask_tables_from_rows", spy)
    certificates.run(*FIXED[case])
    assert widths and max(widths) <= 16


@pytest.mark.parametrize(
    "G", [cyclic(8), dihedral(5), symmetric(4), cyclic(70, order_cap=70)], ids=lambda g: g.name
)
def test_expansion_rows_match_image_row_by_row(G):
    n = G.order
    rng = random.Random(n)
    chosen = rng.sample(range(n), 5)
    for size in (0, 1, 2, n // 2, n):
        S = Subset(n, sum(1 << s for s in rng.sample(range(n), size)))
        expect = [image(row, S.mask) for row in G.mul]
        assert expansion_rows(G, S) == expect
        assert expansion_rows(G, S, chosen) == [expect[g] for g in chosen]
        assert expansion_rows(G, S, iter(chosen)) == [expect[g] for g in chosen]
        assert expansion_rows(G, S, []) == []


def test_expansion_rows_for_chosen_elements():
    G = dihedral(5)
    S = G.subset([1, 6, 8])
    every = expansion_rows(G, S)
    assert every == [product_set(G, G.subset([g]), S).mask for g in range(G.order)]
    assert expansion_rows(G, S, [7, 2, 9]) == [every[7], every[2], every[9]]
