"""Finite groups as explicit Cayley tables.

Elements are dense indices 0..n-1.  The presets put the identity at index 0,
but no builder declares it: every table reads its identity from its rows.
Tables are immutable after construction; every operation here is a pure
function, so concurrent readers need no coordination.  That is what lets
`_build_spec`, through which every config and group file is built, share one
group among all equal specs: it keeps the last 32 groups of order at most
DEFAULT_ORDER_CAP (an `lru_cache`, which locks itself).  A group's `spec` dict
is therefore read-only, like the rest of it.

The cyclic, dihedral and generalized quaternion presets share one
presentation, <a, b | a^m = e, b^2 = a^t, ba = a^-1 b> with t = 0 for D_m and
m = 2t for Q_2m, or <a | a^m> alone for Z_m; `_dicyclic` builds its rows.
The JSON group-spec format is this module's: `check_spec` holds its rules
and is the one reader of a spec dict.  It returns the spec's hashable key,
and `_order`, the memo and the builders read that key alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import GroupMismatch, InvalidTable, SizeLimitExceeded
from .subsets import Subset, iter_bits

# The limits that group specs, the subset tables and the command table share
# live here, so that reading them loads no theory module.  `_order` alone
# checks the order cap; the caps of brute force and the subset search are
# schema.DEFAULT_CAPS alone, checked by the runners in certificates.
DEFAULT_ORDER_CAP = 64
DEFAULT_FRAGMENT_CAP = 100_000  # most fragments a brute-force inventory lists
SUBSET_TABLE_LIMIT = 24  # 2^24 masks is the largest table we will materialize
# Every int of a config lies strictly between -2^63 and 2^63, so every config
# that is accepted can be written: Python refuses to print an int of more
# than 4,300 digits.
INT_LIMIT = 1 << 63


@dataclass(frozen=True, eq=False)
class GroupTable:
    """A finite group presented by its multiplication table.

    `mul[a][b]` is the index of a*b.  Everything else about the table is
    derived from `mul` at construction: `order`, `identity` (the index whose
    row is the identity permutation), `inv[a]` (the index of a^-1),
    `cols[b][a]` (a*b again, so `mul[x]` and `cols[x]` are the left and right
    translations by x as permutations), `is_abelian` and `bits[a]` (1 << a,
    the mask of {a}, which `setalg.expansion_rows` sums).  The table must already
    be a group (`validate_table` checks a raw one); only the labels are
    checked here, for being distinct.  `spec` is a JSON-serializable
    description sufficient to rebuild the table, which `direct_product`
    reads to describe its factors.
    """

    mul: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    name: str
    spec: dict = field(repr=False)
    order: int = field(init=False)
    identity: int = field(init=False)
    inv: tuple[int, ...] = field(init=False, repr=False)
    cols: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    is_abelian: bool = field(init=False)
    bits: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if len(set(self.labels)) != len(self.mul):
            raise InvalidTable("labels are not distinct", witness=("labels", ()))
        cols = tuple(zip(*self.mul))
        # In a group only the identity's row is the identity permutation.
        identity = self.mul.index(tuple(range(len(self.mul))))
        derived = {
            "order": len(self.mul),
            "identity": identity,
            "inv": tuple(row.index(identity) for row in self.mul),
            "cols": cols,
            "is_abelian": self.mul == cols,
            "bits": tuple(1 << a for a in range(len(self.mul))),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def elements(self) -> range:
        return range(self.order)

    def subset(self, elements: Iterable[int]) -> Subset:
        """The Subset of the given element indices, each in [0, order)."""
        mask = 0
        for e in elements:
            if not 0 <= e < self.order:
                raise ValueError(f"element {e} outside [0, {self.order})")
            mask |= 1 << e
        return Subset(self.order, mask)

    def __repr__(self) -> str:
        return f"GroupTable({self.name}, order={self.order})"


def _violation(axiom: str, witness: tuple, detail: str) -> InvalidTable:
    return InvalidTable(f"{axiom} violated: {detail}", witness=(axiom, witness))


def validate_table(mul: Sequence[Sequence[int]]) -> int:
    """Check the group axioms on a raw table and return the identity index.

    Raises `InvalidTable` for the first violated axiom, in the order
    nonempty, shape, closure, identity, associativity, inverses, with
    `witness = (axiom, first offending tuple)`.  Associativity covers all n^3
    triples, one row pair at a time: the row of a*b must equal row a read
    through row b.
    """
    n = len(mul)
    if n == 0:
        raise _violation("nonempty", (), "empty table")
    for a, row in enumerate(mul):
        if len(row) != n:
            raise _violation("shape", (a,), f"row {a} has length {len(row)}, expected {n}")
    for a, row in enumerate(mul):
        for b, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                shown = "an int past 2^63" if isinstance(v, int) and abs(v) >= INT_LIMIT else repr(v)
                raise _violation("closure", (a, b), f"mul({a},{b}) = {shown} outside [0,{n})")

    rows = tuple(map(tuple, mul))
    ids = tuple(range(n))
    cols = tuple(zip(*rows))
    identity = next((e for e in ids if rows[e] == ids and cols[e] == ids), None)
    if identity is None:
        raise _violation("identity", (), "no two-sided identity element")
    if n == 1:
        return identity  # [[0]]; itemgetter of one index returns an item, not a tuple

    for a, row_a in enumerate(rows):
        for b, ab in enumerate(row_a):
            through = itemgetter(*rows[b])(row_a)
            if rows[ab] != through:
                c = next(c for c in ids if rows[ab][c] != through[c])
                raise _violation(
                    "associativity",
                    (a, b, c),
                    f"(a*b)*c = {rows[ab][c]} but a*(b*c) = {through[c]}",
                )

    # With associativity, a right inverse that is also a left inverse is the
    # only one, so the first b with a*b = e decides.
    for a, row in enumerate(rows):
        if identity not in row or rows[row.index(identity)][a] != identity:
            raise _violation("inverses", (a,), f"element {a} has no two-sided inverse")
    return identity


def _dicyclic(m: int, twist: Optional[int] = None) -> tuple[tuple[int, ...], ...]:
    """Rows of <a | a^m> (twist None) or of <a, b | a^m = e, b^2 = a^twist, ba = a^-1 b>,
    a^i at index i and a^i b at m + i: row a^i turns 0..m-1 and m..2m-1 forward by i,
    and row a^i b reads m..2m-1 backward from i, then 0..m-1 backward from i + twist."""
    up = tuple(range(m)) * 2  # up[i:i + m] turns 0..m-1 forward by i, up[i + m:i:-1] backward
    if twist is None:
        return tuple(up[i:i + m] for i in range(m))
    up_b = tuple(x + m for x in up)
    return tuple(up[i:i + m] + up_b[i:i + m] for i in range(m)) + tuple(
        up_b[i + m:i:-1] + up[k + m:k:-1] for i, k in zip(range(m), up[twist % m:])
    )


def cyclic(n: int) -> GroupTable:
    """Integers mod n under addition."""
    if n < 1:
        raise InvalidTable(f"cyclic group needs n >= 1, got {n}")
    labels = tuple(str(i) for i in range(n))
    return GroupTable(_dicyclic(n), labels, f"Z{n}", {"preset": "cyclic", "n": n})


def dihedral(n: int) -> GroupTable:
    """Symmetries of a regular n-gon: n rotations r0..r(n-1), n reflections s0..s(n-1)."""
    if n < 1:
        raise InvalidTable(f"dihedral group needs n >= 1, got {n}")
    labels = tuple(f"r{i}" for i in range(n)) + tuple(f"s{i}" for i in range(n))
    return GroupTable(_dicyclic(n, 0), labels, f"D{n}", {"preset": "dihedral", "n": n})


def _cycle_label(perm: tuple[int, ...]) -> str:
    """One-line cycle notation on points 1..n; identity is "e"."""
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(str(x + 1))
            x = perm[x]
        parts.append("(" + " ".join(cyc) + ")")
    return "".join(parts) if parts else "e"


def symmetric(n: int) -> GroupTable:
    """All permutations of n points; product pq applies q first, then p."""
    if n < 1:
        raise InvalidTable(f"symmetric group needs n >= 1, got {n}")
    if n > 6:
        raise SizeLimitExceeded(f"symmetric({n}) has order {n}! — preset supports n <= 6")
    perms = list(itertools.permutations(range(n)))
    # pq is itemgetter(*q)(p), an item rather than a tuple for n = 1: key alike.
    compose = [itemgetter(*q) for q in perms]
    index = {q(perms[0]): i for i, q in enumerate(compose)}
    mul = tuple(tuple(index[q(p)] for q in compose) for p in perms)
    labels = tuple(_cycle_label(p) for p in perms)
    return GroupTable(mul, labels, f"S{n}", {"preset": "symmetric", "n": n})


def quaternion(n: int = 2) -> GroupTable:
    """Generalized quaternion group of order 4n (n=2 gives the quaternions Q8).

    <a, b | a^2n = e, b^2 = a^n, ba = a^-1 b>: a^i is index i, a^i b is 2n + i.
    """
    if n < 2:
        raise InvalidTable(f"quaternion group needs n >= 2, got {n}")
    powers = ["", "a", *(f"a{i}" for i in range(2, 2 * n))]  # a^i; a^0 b is "b"
    labels = ("e", *powers[1:], *(power + "b" for power in powers))
    spec = {"preset": "quaternion", "n": n}
    return GroupTable(_dicyclic(2 * n, n), labels, f"Q{4 * n}", spec)


def direct_product(factors: Sequence[GroupTable]) -> GroupTable:
    """Componentwise product; element indices are mixed-radix over the factors.

    The first factor is the most significant digit.  The table is refined one
    factor at a time: pairing index p of the product so far with index q of
    the next factor (order n) gives index p*n + q, and rows multiply
    componentwise, so no index is ever decoded.  Row (a, b) maps x*n + y to
    a[x]*n + b[y]: it is row (a, e), which maps x*n + y to a[x]*n + y, read
    at the positions x*n + b[y], so each row is one `itemgetter` call.
    """
    if not factors:
        raise InvalidTable("direct product needs at least one factor")
    mul = factors[0].mul
    for g in factors[1:]:
        n, m = g.order, len(mul)
        if n == 1:  # p*1 + 0 = p; it also keeps every getter below at two or more items
            continue
        blocks = [range(p * n, p * n + n) for p in range(m)]
        spread = itertools.chain.from_iterable
        lefts = [tuple(spread(map(blocks.__getitem__, prow))) for prow in mul]
        reads = [itemgetter(*[p * n + q for p in range(m) for q in grow]) for grow in g.mul]
        mul = tuple(read(left) for left in lefts for read in reads)
    parts = itertools.product(*(g.labels for g in factors))
    labels = tuple("(" + ",".join(part) + ")" for part in parts)
    name = "x".join(g.name for g in factors)
    spec = {"preset": "direct_product", "factors": [g.spec for g in factors]}
    return GroupTable(mul, labels, name, spec)


def from_table(
    mul: Sequence[Sequence[int]], labels: Optional[Sequence[str]] = None, *, name: str = "table"
) -> GroupTable:
    """Build a group from an explicit table, validating every axiom first."""
    n = len(mul)
    validate_table(mul)
    table = tuple(tuple(map(int, row)) for row in mul)
    if labels is None:
        label_tuple = tuple(str(i) for i in range(n))
    else:
        if len(labels) != n:
            raise InvalidTable(f"got {len(labels)} labels for order {n}")
        label_tuple = tuple(str(x) for x in labels)
    spec = {"table": [list(row) for row in table], "labels": list(label_tuple), "name": name}
    return GroupTable(table, label_tuple, name, spec)


# Every one-parameter preset: its builder, the least n it accepts and its order
# (symmetric refuses n > 6, so 7! stands for any larger n!: no factorial of an
# unchecked n).  The spec check and the inline grammar read this too.
PRESETS = {
    "cyclic": (cyclic, 1, lambda n: n),
    "dihedral": (dihedral, 1, lambda n: 2 * n),
    "symmetric": (symmetric, 1, lambda n: math.factorial(min(n, 7))),
    "quaternion": (quaternion, 2, lambda n: 4 * n),
}
# Order cap 64 leaves room for at most 6 nontrivial direct_product levels.
MAX_GROUP_NESTING = 64


def check_spec(spec, where: str = "group spec") -> tuple:
    """Raise InvalidTable unless `spec` is a group spec in its accepted form,
    and return its key, a hashable copy that is all `_order` and `_build`
    read: ("table", rows, labels or None, name), (preset, n), or
    ("direct_product", the keys of the factors).  Factors are checked first
    to last and nest at most MAX_GROUP_NESTING levels, so no spec that passes
    overflows the builder."""
    return _check_node(spec, where, 0)


def _check_node(spec, where: str, depth: int) -> tuple:
    # `depth` counts the direct_product levels above `spec`.
    if not isinstance(spec, dict):
        raise InvalidTable(f"{where} must be an object")
    preset = spec.get("preset")
    if "table" in spec:
        keys = ("table", "labels", "name")
    elif preset == "direct_product" or (isinstance(preset, str) and preset in PRESETS):
        keys = ("preset", "factors" if preset == "direct_product" else "n")
    else:
        raise InvalidTable(f"{where} has unknown preset {preset!r}")
    unknown = sorted(str(k) for k in spec if k not in keys)
    if unknown:
        raise InvalidTable(f"{where} has unknown key(s): {', '.join(unknown)}")
    if "table" in spec:
        table, labels, name = spec["table"], spec.get("labels", []), spec.get("name", "table")
        if not isinstance(table, list) or not all(
            isinstance(row, list) and all(type(x) is int for x in row) for row in table
        ):
            raise InvalidTable(f"{where}.table must be a list of rows of element indices")
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise InvalidTable(f"{where}.labels must be a list of strings")
        if not isinstance(name, str):
            raise InvalidTable(f"{where}.name must be a string")
        labels = tuple(labels) if "labels" in spec else None  # even [] is not the default
        return ("table", tuple(map(tuple, table)), labels, name)
    if preset == "direct_product":
        factors = spec.get("factors")
        if not isinstance(factors, list) or not factors:
            raise InvalidTable(f"{where}.factors must be a nonempty list of group specs")
        if depth == MAX_GROUP_NESTING:
            raise InvalidTable(
                f"{where} nests direct_product more than {MAX_GROUP_NESTING} levels deep"
            )
        return ("direct_product", tuple(
            _check_node(f, f"{where}.factors[{i}]", depth + 1) for i, f in enumerate(factors)
        ))
    if "n" not in spec:
        raise InvalidTable(f"{where} is missing n")
    n, least = spec["n"], PRESETS[preset][1]
    if type(n) is int and not -INT_LIMIT < n < INT_LIMIT:  # too long to print
        raise InvalidTable(f"{where}.n must lie strictly between -2^63 and 2^63")
    if type(n) is not int or n < least:
        raise InvalidTable(f"{where}.n must be a JSON integer >= {least}, got {n!r}")
    return (preset, n)


def _order(key: tuple, order_cap: int) -> int:
    """The order of the group of a key from `check_spec`, read from its
    leaves alone: the one order check.  Raises SizeLimitExceeded as soon as
    the product of the leaf orders (in build order) passes `order_cap`, so no
    number it prints passes the cap times one leaf's order."""
    order, stack = 1, [key]
    while stack:
        node = stack.pop()
        if node[0] == "table":
            order *= len(node[1])
        elif node[0] == "direct_product":
            stack += reversed(node[1])
        else:
            order *= PRESETS[node[0]][2](node[1])
        if order > order_cap:
            raise SizeLimitExceeded(
                f"group has order at least {order}, above the configured cap {order_cap}"
            )
    return order


def _build(key: tuple) -> GroupTable:
    if key[0] == "table":
        return from_table(key[1], key[2], name=key[3])
    if key[0] == "direct_product":
        return direct_product([_build(factor) for factor in key[1]])
    return PRESETS[key[0]][0](key[1])


# A group is a pure function of its key and holds only tuples, so one build
# serves every later spec with an equal key.  lru_cache keeps its own lock,
# and it keeps no failed build: a bad table raises again, with the same witness.
@functools.lru_cache(maxsize=32)
def _memo(key: tuple) -> GroupTable:
    return _build(key)


def _build_spec(key: tuple, order_cap: int) -> GroupTable:
    """The group of a key from `check_spec`, for the config check and the
    command line.  `_order` refuses a key past `order_cap` on every call,
    before any lookup or build.  The groups of the last 32 distinct keys of
    order at most DEFAULT_ORDER_CAP are kept, least recently used first out:
    an equal spec has an equal key and gets the same GroupTable, whose `spec`
    is read-only.  A larger group, which only a raised cap admits, is built
    afresh and not kept, so the memo holds at most 32 order-64 groups (an
    order-64 table with its key holds about 150 KiB under tracemalloc)."""
    return _memo(key) if _order(key, order_cap) <= DEFAULT_ORDER_CAP else _build(key)


def from_spec(spec: dict, *, order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Build a group from its JSON description (preset dict or explicit table)
    through the key `check_spec` returns: a malformed spec is InvalidTable,
    as it is for `schema.check_group`, and no table is built for it, nor for
    a spec whose order passes `order_cap` (SizeLimitExceeded).  The group is
    built afresh on every call; the memo is `_build_spec`'s."""
    key = check_spec(spec)
    _order(key, order_cap)
    return _build(key)


# --- set-level navigation -------------------------------------------------


def _check_member(G: GroupTable, X: Subset, what: str) -> None:
    if X.group_order != G.order:
        raise GroupMismatch(f"{what} has group order {X.group_order}, expected {G.order}")


def image(perm: Sequence[int], mask: int) -> int:
    """Bitmask of {perm[a] : a in mask}.

    Over a group table: x*m is `image(G.mul[x], m)`, m*x is
    `image(G.cols[x], m)` and m^-1 is `image(G.inv, m)`.  Over a list of
    elements it maps a local mask, bit i for `perm[i]`, back to G.  The
    loop is `iter_bits` written out, which saves a generator per call.
    """
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def is_subgroup_mask(G: GroupTable, mask: int) -> bool:
    """A nonempty subset of a finite group closed under products is a subgroup."""
    return (mask >> G.identity) & 1 == 1 and all(
        image(G.mul[a], mask) == mask for a in iter_bits(mask)
    )


def _generate(G: GroupTable, H: int, gens: Sequence[int]) -> int:
    """Mask of the subgroup generated by `gens`, given the mask `H` of a
    subgroup of it.

    In a finite group the subgroup generated by `gens` is everything reached
    from e by right multiplication by `gens`.  It is a union of right cosets
    of H, and (Hy)s = H(ys), so the search runs over one representative per
    coset and brings in each new coset H*z whole.
    """
    mul, cols = G.mul, G.cols
    grown, reps = H, [G.identity]
    for y in reps:
        row = mul[y]
        for s in gens:
            z = row[s]
            if not (grown >> z) & 1:
                grown |= image(cols[z], H)
                reps.append(z)
    return grown


def _subgroup_masks(G: GroupTable) -> tuple[int, ...]:
    # Breadth-first over joins <H, g> of a subgroup H with one element g not
    # in H, deduplicated by mask; every subgroup is the end of such a chain
    # from {e}.  Two facts keep each step cheap:
    # - <H, g> = <H, hg> for every h in H, so one representative per right
    #   coset Hg outside H is enough: take the lowest index left in the pool
    #   of elements to try, then clear its whole coset from the pool;
    # - <H, g> is generated by the generators recorded for H plus g, so
    #   `_generate` grows it from H coset by coset.
    cols = G.cols
    trivial = 1 << G.identity
    gens_of = {trivial: ()}
    frontier = [trivial]
    full = (1 << G.order) - 1
    while frontier:
        next_frontier = []
        for mask in frontier:
            gens = gens_of[mask]
            pool = full & ~mask
            while pool:
                g = (pool & -pool).bit_length() - 1
                pool &= ~image(cols[g], mask)
                step = gens + (g,)
                grown = _generate(G, mask, step)
                if grown not in gens_of:
                    gens_of[grown] = step
                    next_frontier.append(grown)
        frontier = next_frontier
    return tuple(
        sorted(gens_of, key=lambda m: (m.bit_count(), tuple(iter_bits(m))))
    )


def enumerate_subgroups(G: GroupTable) -> tuple[Subset, ...]:
    """All subgroups of G, sorted by (cardinality, bit-lexicographic order)."""
    return tuple(Subset(G.order, m) for m in _subgroup_masks(G))


def catalogue(max_order: int) -> tuple[GroupTable, ...]:
    """The preset sweep catalogue: cyclic groups, two-factor cyclic products,
    dihedral and generalized quaternion groups, and symmetric groups, up to
    `max_order`.  Deterministic order: (group order, name)."""
    out = [cyclic(n) for n in range(1, max_order + 1)]
    out += [
        direct_product([cyclic(a), cyclic(b)])
        for a in range(2, max_order + 1) for b in range(a, max_order // a + 1)
    ]
    out += [dihedral(n) for n in range(3, max_order // 2 + 1)]
    out += [symmetric(n) for n in range(3, 7) if math.factorial(n) <= max_order]
    out += [quaternion(n) for n in range(2, max_order // 4 + 1)]
    return tuple(sorted(out, key=lambda g: (g.order, g.name)))
