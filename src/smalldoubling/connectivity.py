"""Connectivity of a set S at expansion rate K: cost, fragments, atoms.

The cost of a finite set A is |A*S| - K|A|, for a nonempty S and a rational
K that every function here takes as plain arguments.  The connectivity
kappa is the minimum cost over nonempty sets, a fragment is a nonempty set
attaining it, and an atom is a fragment of minimum cardinality.
For K < 1 the atoms are exactly the left cosets of one subgroup.  The
subgroup-restricted solver finds the one holding e by a min cut over the
elements of <SS^-1>, the subgroup it lies in.  Its kernel `_min_cut_sides`,
shared with the Petridis minimizer, is a maximum flow by shortest augmenting
paths, searched for in bitmasks, and reads the smallest and the largest
minimizer off the final residual graph.  The brute-force solver stays
definition-level and acts as its independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import EmptySet, KOutOfRange, TheoryViolation
from .groups import (
    DEFAULT_FRAGMENT_CAP, GroupTable, _check_member, _generate, image, is_subgroup_mask,
)
from .rationals import as_fraction, narrow_ratio
from .setalg import _check_width, expansion_rows, half_tables, or_of_rows, product_mask
from .subsets import Subset, iter_bits


@dataclass(frozen=True)
class ConnectivityResult:
    kappa: Fraction
    identity_atom: Optional[Subset]
    atom_is_subgroup: Optional[bool]
    fragments: Optional[tuple[Subset, ...]]
    fragment_total: Optional[int]


def _cost_params(G: GroupTable, S: Subset, K: Fraction) -> Fraction:
    """K as a Fraction, once S is a nonempty subset of G."""
    if S.is_empty:
        raise EmptySet("cost parameters need a nonempty S")
    _check_member(G, S, "S")
    return as_fraction(K, "K")


def cost(G: GroupTable, S: Subset, K: Fraction, A: Subset) -> Fraction:
    """|A*S| - K|A|, exactly; the empty set costs 0."""
    K = _cost_params(G, S, K)
    _check_member(G, A, "A")
    if A.is_empty:
        return Fraction(0)
    return product_mask(G, A.mask, S.mask).bit_count() - K * A.cardinality


def _check_k(K: Fraction, classify_atom: bool) -> None:
    if K > 1:
        raise KOutOfRange(f"K = {K} > 1 is outside the supported theory")
    if K == 1 and classify_atom:
        raise KOutOfRange(
            "atom classification requires K < 1; rerun with fragments-only output"
        )


def connectivity_bruteforce(
    G: GroupTable,
    S: Subset,
    K: Fraction,
    *,
    collect_fragments: bool = False,
    fragment_cap: int = DEFAULT_FRAGMENT_CAP,
    classify_atom: bool = True,
) -> ConnectivityResult:
    """Exact kappa by scanning every nonempty subset of G.

    This is the oracle path: no structure theory is assumed.  The scan runs
    over all 2^n masks, so a group above SUBSET_TABLE_LIMIT (24)
    is refused with SizeLimitExceeded; the certificate runners apply the
    config's lower brute-force cap.  The cost of M depends only on
    (s, c) = (|M*S|, |M|), both in [0, n], and two such pairs compare by the
    sign of ds - K*dc with |ds|, |dc| <= n.  `rationals.narrow_ratio` gives a
    p/q with terms of at most 2n + 1 that has the same signs, so q*s - p*c
    orders the masks exactly as the cost does, ties included, and fits int16:
    |q*s - p*c| <= 2 * 49 * 24 = 2,352.  kappa is then the cost of one
    minimizer in Fractions, with K itself.

    M*S is the outer OR of the two `setalg.half_tables` of the rows g*S,
    h = n // 2, high half first, so the costs are indexed by M itself.  p*c
    is taken off in two broadcasts, p*|M >> h| and p*|M & (2^h - 1)|, and
    each partial sum keeps the bound above.  |M| is counted only for the
    fragments.
    """
    import numpy as np

    if fragment_cap < 0:
        raise ValueError(f"fragment_cap must be at least 0, got {fragment_cap}")
    K = _cost_params(G, S, K)
    n = G.order
    _check_k(K, classify_atom)
    _check_width(n)  # before the rows become uint32

    p, q = narrow_ratio(K, n)
    lo, hi = half_tables(np.array(expansion_rows(G, S), dtype=np.uint32), n // 2)
    sizes = np.bitwise_count(np.bitwise_or.outer(hi, lo))
    # p*|m| for m below 2^(n - h), which covers the low half's indices too
    pc = np.multiply(np.bitwise_count(np.arange(len(hi), dtype=np.uint32)), p, dtype=np.int16)
    costs = np.multiply(sizes, q, dtype=np.int16)
    costs -= pc[:, None]
    costs -= pc[: len(lo)]
    costs[0, 0] = np.iinfo(np.int16).max  # the empty set, above every nonempty M
    frag_idx = np.flatnonzero(costs == costs.min())
    fragment_total = int(frag_idx.size)
    m = int(frag_idx[0])
    kappa = sizes.item(m) - K * m.bit_count()

    fragments = None
    if collect_fragments:
        keyed = sorted(
            (m.bit_count(), tuple(iter_bits(m)), m) for m in frag_idx.tolist()
        )
        fragments = tuple(Subset(n, m) for _, _, m in keyed[:fragment_cap])

    identity_atom = None
    atom_is_subgroup = None
    if classify_atom:
        id_mask = frag_idx[(frag_idx >> G.identity) & 1 == 1]
        if id_mask.size == 0:
            raise TheoryViolation("no fragment contains the identity")
        id_cards = np.bitwise_count(id_mask)
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
        kappa=kappa,
        identity_atom=identity_atom,
        atom_is_subgroup=atom_is_subgroup,
        fragments=fragments,
        fragment_total=fragment_total if collect_fragments else None,
    )


def connectivity_subgroup_solver(G: GroupTable, S: Subset, K: Fraction) -> ConnectivityResult:
    """kappa and the identity atom by one min cut inside <SS^-1> (valid for K < 1).

    The cost is left invariant, so the identity atom is the smallest fragment
    holding e: e plus the kernel's smallest X minimizing f(X) = q|X*S - S| - p|X|,
    for K = p/q.  For K < 0 it is {e}, since every nonempty A then costs at
    least |S| - K|A| >= |S| - K.  The atom must be a subgroup.

    For 0 <= K < 1 the cut runs over the rows of L = <S*t^-1> = <SS^-1> alone,
    for a t in S, and that is exact.  S lies in L*t.  Split any X into X & L
    and the rest, R.  Then (X & L)*S lies in L*t, while R*S misses L*t and so
    misses S.  So f(X) = f(X & L) + q|R*S| - p|R|, at least
    f(X & L) + (q - p)|R|, which exceeds f(X & L) unless R is empty: every
    minimizer lies in L.  This is Hamidoune's splitting of connectivity over
    the left cosets of <SS^-1> (J. Algebra 179, 1996).

    The rows are x*S - S, so |H*S| = |S| + |their OR over H| gives kappa
    without a second product.  Must agree exactly with `connectivity_bruteforce`.
    """
    K = _cost_params(G, S, K)
    if K >= 1:
        raise KOutOfRange("the subgroup-restricted solver requires K < 1")
    p, q = K.numerator, K.denominator
    e = G.identity
    atom, spill = 1 << e, 0
    if K >= 0:  # the row of e is empty, so only p = 0 leaves e out of the side
        t_inv = G.inv[(S.mask & -S.mask).bit_length() - 1]  # t is the first element of S
        gens = [G.mul[s][t_inv] for s in iter_bits(S.mask)]
        L = list(iter_bits(_generate(G, atom, gens)))  # the kernel's x index into L
        rows = [row & ~S.mask for row in expansion_rows(G, S, L)]
        side = _min_cut_sides(rows, p, q)[0]
        atom |= image(L, side)
        spill = or_of_rows(rows, side).bit_count()
    H = Subset(G.order, atom)
    if not is_subgroup_mask(G, atom):
        raise TheoryViolation(f"the identity atom {list(H.elements())} is not a subgroup")
    return ConnectivityResult(
        kappa=Fraction(q * (S.cardinality + spill) - p * H.cardinality, q),
        identity_atom=H,
        atom_is_subgroup=True,
        fragments=None,
        fragment_total=None,
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
    new x, and stops at the first x it reaches whose row holds a y with room.

    A pre-pass first fills the direct paths source -> x -> y -> sink.  After
    it no x with slack has a y with room in its row, which is what lets the
    search test for the end of a path only at the x it reaches back along
    flow.  It also saves most of the rounds: without it (and with the test
    widened to the x with slack), the kernel time of 180 Petridis minimizer
    calls at |A| = 20 was about 3x as long, 178-186 against 56-62 ms, and
    that of 810 identity-atom calls at order 64 about 7x (2 CPUs, shared).
    The end pass is a breadth-first search back from the sink over the
    columns (the x whose row holds y), so it visits each x and y once.
    Sets of nodes are bitmasks: x over row indices, y over bits.

    The loops keep the x with slack as a mask, test for the end of a path at
    each x as it is reached, and keep one flow dict per x.  On the calls of
    three rounds of each benchmark workload, this took 24 us per
    identity-atom call of `lattice` (rows of <SS^-1>) and 50 us per Petridis
    call of `powerset`, against 40 and 72 us when the x with slack and the
    ends of paths were recounted over all x each round and the end pass
    looped over all x per step (2 CPUs, shared, Python 3.11).
    """
    k = len(rows)
    full = (1 << k) - 1
    free = or_of_rows(rows, full)  # the y whose edge y -> sink has room
    room = [q] * free.bit_length()  # residual capacity of y -> sink
    slack = [p] * k  # residual capacity of source -> x
    active = 0  # the x with slack
    flow: list[dict[int, int]] = [{} for _ in rows]  # flow[x][y] > 0 on the edge x -> y
    holders = [0] * len(room)  # holders[y]: the x with flow on x -> y
    cols = [0] * len(room)  # cols[y]: the x whose row holds y
    for x, row in enumerate(rows):  # the direct paths, see above
        bit, left, out = 1 << x, p, flow[x]
        while row:
            low = row & -row
            row ^= low
            y = low.bit_length() - 1
            cols[y] |= bit
            if left and free & low:
                amount = left if left < room[y] else room[y]
                left -= amount
                room[y] -= amount
                out[y] = amount
                holders[y] |= bit
                if not room[y]:
                    free ^= low
        slack[x] = left
        if left:
            active |= bit
    while True:
        seen_x, seen_y, x = active, 0, -1
        queue = list(iter_bits(active))
        via = {}  # via[w] = v: w holds flow on a y that v reached first
        for v in queue:
            ahead = rows[v] & ~seen_y
            seen_y |= ahead
            back = or_of_rows(holders, ahead) & ~seen_x
            seen_x |= back
            for w in iter_bits(back):
                via[w] = v
                if rows[w] & free:  # next to a y with room: the path ends here
                    x = w
                    break
                queue.append(w)
            if x >= 0:
                break
        else:  # no augmenting path: seen_x is all the source reaches
            break
        end = (rows[x] & free).bit_length() - 1
        forward, backward = [(x, end)], []
        while x in via:
            w = via[x]
            y = next(y for y in flow[x] if rows[w] >> y & 1)  # any will do
            backward.append((x, y))
            forward.append((w, y))
            x = w
        amount = min(slack[x], room[end], *(flow[w][y] for w, y in backward))
        slack[x] -= amount
        if not slack[x]:
            active ^= 1 << x
        room[end] -= amount
        if not room[end]:
            free ^= 1 << end
        for x, y in forward:
            flow[x][y] = flow[x].get(y, 0) + amount
            holders[y] |= 1 << x
        for x, y in backward:
            flow[x][y] -= amount
            if not flow[x][y]:
                del flow[x][y]
                holders[y] ^= 1 << x
    # The x that reach the sink in the residual graph: through a free y, or
    # through a y whose flow comes from another such x.
    to_sink, reached, ys = 0, free, free
    while ys:
        new = or_of_rows(cols, ys) & ~to_sink
        to_sink |= new
        ys = 0
        for x in iter_bits(new):
            for y in flow[x]:
                ys |= 1 << y
        ys &= ~reached
        reached |= ys
    return seen_x, full & ~to_sink


@dataclass(frozen=True)
class AtomPropositionReport:
    """Brute-force evidence that the atoms are the left cosets of one subgroup."""

    kappa: Fraction
    identity_atom: Subset
    atom_is_subgroup: bool
    atoms: tuple[Subset, ...]
    atoms_are_left_cosets: bool
    atoms_pairwise_disjoint: bool
    ok: bool


def verify_atom_proposition(G: GroupTable, S: Subset, K: Fraction) -> AtomPropositionReport:
    """Check, from the exhaustive fragment inventory, that the minimum-size
    fragments are exactly the left cosets of the identity atom and that
    distinct atoms are disjoint.  The inventory is `connectivity_bruteforce`'s,
    so the same order limit applies."""
    if _cost_params(G, S, K) >= 1:
        raise KOutOfRange("the atom proposition is stated for K < 1")
    res = connectivity_bruteforce(G, S, K, collect_fragments=True)
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
        kappa=res.kappa,
        identity_atom=H,
        atom_is_subgroup=bool(res.atom_is_subgroup),
        atoms=atoms,
        atoms_are_left_cosets=are_cosets,
        atoms_pairwise_disjoint=disjoint,
        ok=ok,
    )
