"""Connectivity of a set S at expansion rate K: cost, fragments, atoms.

The cost of a finite set A against parameters (S, K) is |A*S| - K|A|.  The
connectivity kappa is the minimum cost over nonempty sets, a fragment is a
nonempty set attaining it, and an atom is a fragment of minimum cardinality.
For K < 1 the atoms are exactly the left cosets of one subgroup.  The
subgroup-restricted solver finds the one holding e by a min cut.  Its kernel
`_min_cut_sides`, shared with the Petridis minimizer, is a maximum flow by
shortest augmenting paths, searched for in bitmasks, and reads the smallest
and the largest minimizer off the final residual graph.  The brute-force
solver stays definition-level and acts as its independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import EmptySet, KOutOfRange, SizeLimitExceeded, TheoryViolation
from .groups import (
    DEFAULT_BRUTEFORCE_CAP,
    DEFAULT_FRAGMENT_CAP,
    GroupTable,
    _check_member,
    is_subgroup_mask,
)
from .setalg import expansion_rows, or_of_rows, product_mask, product_size_table
from .subsets import Subset, iter_bits


@dataclass(frozen=True)
class CostParams:
    """Fixed (S, K) for the cost functional c(A) = |A*S| - K|A|."""

    S: Subset
    K: Fraction

    def __post_init__(self):
        if self.S.is_empty:
            raise EmptySet("cost parameters need a nonempty S")
        object.__setattr__(self, "K", Fraction(self.K))


@dataclass(frozen=True)
class ConnectivityResult:
    params: CostParams
    kappa: Fraction
    identity_atom: Optional[Subset]
    atom_is_subgroup: Optional[bool]
    fragments: Optional[tuple[Subset, ...]]
    fragment_total: Optional[int]
    solver: str


def cost(G: GroupTable, params: CostParams, A: Subset) -> Fraction:
    """|A*S| - K|A|, exactly; the empty set costs 0."""
    _check_member(G, A, "A")
    _check_member(G, params.S, "S")
    if A.is_empty:
        return Fraction(0)
    size = product_mask(G, A.mask, params.S.mask).bit_count()
    return size - params.K * A.cardinality


def _check_k(K: Fraction, classify_atom: bool) -> None:
    if K > 1:
        raise KOutOfRange(f"K = {K} > 1 is outside the supported theory")
    if K == 1 and classify_atom:
        raise KOutOfRange(
            "atom classification requires K < 1; rerun with fragments-only output"
        )


def connectivity_bruteforce(
    G: GroupTable,
    params: CostParams,
    *,
    collect_fragments: bool = False,
    fragment_cap: int = DEFAULT_FRAGMENT_CAP,
    classify_atom: bool = True,
    bruteforce_cap: int = DEFAULT_BRUTEFORCE_CAP,
) -> ConnectivityResult:
    """Exact kappa by scanning every nonempty subset of G.

    This is the oracle path: no structure theory is assumed.  The scan runs
    over the full powerset table, so it is limited to small groups.  The
    cost of M depends only on (|M*S|, |M|), both at most n, so for K = p/q
    the scaled costs q*s - p*c of those (n+1)^2 pairs are ranked once in
    Python ints, exactly for every K, and the 2^n masks only index the ranks.
    Both index tables, |M*S| and |M|, are uint8 and built afresh.
    """
    import numpy as np

    n = G.order
    if n > bruteforce_cap:
        raise SizeLimitExceeded(
            f"brute force over 2^{n} subsets exceeds the cap {bruteforce_cap}"
        )
    _check_member(G, params.S, "S")
    _check_k(params.K, classify_atom)

    p, q = params.K.numerator, params.K.denominator
    scaled = [q * s - p * c for s in range(n + 1) for c in range(n + 1)]
    levels = sorted(set(scaled))
    index = {v: i for i, v in enumerate(levels)}
    rank = np.array([index[v] for v in scaled], dtype=np.int16)
    sizes = product_size_table(G, params.S)
    cards = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    # rank of (s, c) at s*(n+1) + c, in uint16 so that it cannot wrap; at
    # orders 12-16 this flat index is twice as fast as a 2-D rank[s, c]
    ranks = rank[sizes * np.uint16(n + 1) + cards]
    best = ranks[1:].min()
    kappa = Fraction(levels[best], q)

    frag_idx = np.nonzero(ranks[1:] == best)[0] + 1
    fragment_total = int(frag_idx.size)

    fragments = None
    if collect_fragments:
        keyed = sorted(
            (int(cards[m]), Subset(n, int(m)).sort_key(), int(m)) for m in frag_idx
        )
        fragments = tuple(Subset(n, m) for _, _, m in keyed[:fragment_cap])

    identity_atom = None
    atom_is_subgroup = None
    if classify_atom:
        id_mask = frag_idx[(frag_idx >> G.identity) & 1 == 1]
        if id_mask.size == 0:
            raise TheoryViolation("no fragment contains the identity")
        id_cards = cards[id_mask]
        min_card = id_cards.min()
        candidates = id_mask[id_cards == min_card]
        if candidates.size != 1:
            raise TheoryViolation(
                f"{candidates.size} distinct minimum fragments contain the identity; "
                "theory guarantees exactly one for K < 1"
            )
        atom_mask = int(candidates[0])
        identity_atom = Subset(n, atom_mask)
        atom_is_subgroup = is_subgroup_mask(G, atom_mask)

    return ConnectivityResult(
        params=params,
        kappa=kappa,
        identity_atom=identity_atom,
        atom_is_subgroup=atom_is_subgroup,
        fragments=fragments,
        fragment_total=fragment_total if collect_fragments else None,
        solver="brute_force",
    )


def connectivity_subgroup_solver(G: GroupTable, params: CostParams) -> ConnectivityResult:
    """kappa and the identity atom by one min cut (valid for K < 1).

    The cost is left invariant, so the identity atom is the smallest fragment
    holding e: e plus the kernel's smallest X minimizing q|X*S - S| - p|X|,
    for K = p/q.  For K < 0 it is {e}, since every nonempty A then costs at
    least |S| - K|A| >= |S| - K.  The atom must be a subgroup.  The name and
    the payload's "subgroup_restricted" predate the min cut, which scans no
    subgroups.  Must agree exactly with `connectivity_bruteforce`.
    """
    _check_member(G, params.S, "S")
    K, S = params.K, params.S.mask
    if K >= 1:
        raise KOutOfRange("the subgroup-restricted solver requires K < 1")
    atom = 1 << G.identity
    if K >= 0:  # the row of e is empty, so only p = 0 leaves e out of the side
        rows = [row & ~S for row in expansion_rows(G, params.S)]
        atom |= _min_cut_sides(rows, K.numerator, K.denominator)[0]
    H = Subset(G.order, atom)
    if not is_subgroup_mask(G, atom):
        raise TheoryViolation(f"the identity atom {list(H.elements())} is not a subgroup")
    return ConnectivityResult(
        params=params,
        kappa=cost(G, params, H),
        identity_atom=H,
        atom_is_subgroup=True,
        fragments=None,
        fragment_total=None,
        solver="subgroup_restricted",
    )


def _min_cut_sides(rows: list[int], p: int, q: int) -> tuple[int, int]:
    """(smallest, largest) local masks X minimizing q|N(X)| - p|X|, p >= 0, q > 0.

    N(X) is the OR of the rows over X.  The network has an edge source -> x
    of capacity p for each row x, an uncapacitated edge x -> y for each bit y
    of rows[x], and y -> sink of capacity q.  A finite cut whose source side
    holds the x of X must hold N(X) too, so it costs at least
    p(k - |X|) + q|N(X)|, with equality for the y of N(X) alone: the min cuts
    are the minimizers shifted by pk.  They form a lattice (Picard and
    Queyranne, 1980), and the residual graph of every maximum flow shows its
    two ends: the smallest minimizer is the set of x the source reaches, the
    largest the set of x that cannot reach the sink.  So the two sides do
    not depend on which maximum flow is found.

    The flow is Edmonds and Karp's (1972): one shortest augmenting path per
    round, and its bottleneck is pushed.  Shortest paths bound the number of
    rounds by the size of the network, whatever p and q are.  A path runs
    source -> x_0 -> y_1 <- x_1 -> ... -> y_m <- x_m -> y -> sink: forward
    along a row, back along flow already on some x_l -> y_l, and out
    through a y with room.  The breadth-first search runs in bitmasks, from
    the x with slack, along rows[x] to new y and back along holders[y] to
    new x, and stops at the first x whose row holds a y with room.

    A pre-pass first fills the direct paths source -> x -> y -> sink.  After
    it no x with slack has a y with room in its row, which is what lets the
    search test for the end of a path only at the x it reaches back along
    flow.  It also saves most of the rounds: without it (and with the test
    widened to the x with slack), the kernel time of 180 Petridis minimizer
    calls at |A| = 20 was about 3x as long, 178-186 against 56-62 ms, and
    that of 810 identity-atom calls at order 64 about 7x (2 CPUs, shared).
    Sets of nodes are bitmasks: x over row indices, y over bits.
    """
    k = len(rows)
    full = (1 << k) - 1
    free = or_of_rows(rows, full)  # the y whose edge y -> sink has room
    slack = [p] * k  # residual capacity of source -> x
    room = [q] * free.bit_length()  # residual capacity of y -> sink
    flow: dict[tuple[int, int], int] = {}  # the positive flow on each edge x -> y
    holders = [0] * len(room)  # holders[y]: the x with flow on x -> y
    for x, row in enumerate(rows):  # the direct paths, see above
        for y in iter_bits(row & free):
            if not slack[x]:
                break
            amount = min(slack[x], room[y])
            slack[x] -= amount
            room[y] -= amount
            flow[x, y] = amount
            holders[y] |= 1 << x
            if not room[y]:
                free &= ~(1 << y)
    while True:
        seen_x, seen_y = sum(1 << x for x in range(k) if slack[x]), 0
        queue = list(iter_bits(seen_x))
        via = {}  # via[w] = x: w holds flow on a y that x reached first
        targets = sum(1 << x for x in range(k) if rows[x] & free)  # next to a y with room
        for x in queue:
            ahead = rows[x] & ~seen_y
            seen_y |= ahead
            back = or_of_rows(holders, ahead) & ~seen_x
            seen_x |= back
            for w in iter_bits(back):
                via[w] = x
                queue.append(w)
            if back & targets:
                x = (back & targets).bit_length() - 1
                break
        else:  # no augmenting path: seen_x is all the source reaches
            break
        end = (rows[x] & free).bit_length() - 1
        forward, backward = [(x, end)], []
        while x in via:
            w = via[x]
            y = next(y for y in iter_bits(rows[w]) if holders[y] >> x & 1)  # any will do
            backward.append((x, y))
            forward.append((w, y))
            x = w
        amount = min(slack[x], room[end], *(flow[edge] for edge in backward))
        slack[x] -= amount
        room[end] -= amount
        if not room[end]:
            free &= ~(1 << end)
        for x, y in forward:
            flow[x, y] = flow.get((x, y), 0) + amount
            holders[y] |= 1 << x
        for x, y in backward:
            flow[x, y] -= amount
            if not flow[x, y]:
                del flow[x, y]
                holders[y] &= ~(1 << x)
    # The x that reach the sink in the residual graph: through a free y,
    # or through a y whose flow comes from another such x.
    to_sink, reach_y = 0, free
    while True:
        new = sum(1 << x for x in iter_bits(full & ~to_sink) if rows[x] & reach_y)
        if not new:
            return seen_x, full & ~to_sink
        to_sink |= new
        reach_y |= sum(1 << y for y, held in enumerate(holders) if held & new)


@dataclass(frozen=True)
class AtomPropositionReport:
    """Brute-force evidence that the atoms are the left cosets of one subgroup."""

    params: CostParams
    kappa: Fraction
    identity_atom: Subset
    atom_is_subgroup: bool
    atoms: tuple[Subset, ...]
    atoms_are_left_cosets: bool
    atoms_pairwise_disjoint: bool
    ok: bool


def verify_atom_proposition(
    G: GroupTable,
    params: CostParams,
    *,
    bruteforce_cap: int = DEFAULT_BRUTEFORCE_CAP,
) -> AtomPropositionReport:
    """Check, from the exhaustive fragment inventory, that the minimum-size
    fragments are exactly the left cosets of the identity atom and that
    distinct atoms are disjoint."""
    if params.K >= 1:
        raise KOutOfRange("the atom proposition is stated for K < 1")
    res = connectivity_bruteforce(
        G,
        params,
        collect_fragments=True,
        bruteforce_cap=bruteforce_cap,
    )
    fragments = res.fragments
    assert fragments is not None and res.identity_atom is not None
    atom_card = fragments[0].cardinality  # fragments sorted by cardinality
    atoms = tuple(f for f in fragments if f.cardinality == atom_card)

    H = res.identity_atom
    expected = set(expansion_rows(G, H))
    are_cosets = {a.mask for a in atoms} == expected
    disjoint = all(
        a.mask & b.mask == 0 for i, a in enumerate(atoms) for b in atoms[i + 1 :]
    )
    ok = bool(res.atom_is_subgroup) and are_cosets and disjoint
    return AtomPropositionReport(
        params=params,
        kappa=res.kappa,
        identity_atom=H,
        atom_is_subgroup=bool(res.atom_is_subgroup),
        atoms=atoms,
        atoms_are_left_cosets=are_cosets,
        atoms_pairwise_disjoint=disjoint,
        ok=ok,
    )
