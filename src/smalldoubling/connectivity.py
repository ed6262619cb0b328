"""Connectivity of a set S at expansion rate K: cost, fragments, atoms.

The cost of a finite set A against parameters (S, K) is |A*S| - K|A|.  The
connectivity kappa is the minimum cost over nonempty sets, a fragment is a
nonempty set attaining it, and an atom is a fragment of minimum cardinality.
For K < 1 the atoms are exactly the left cosets of one subgroup, which is
what the subgroup-restricted solver exploits; the brute-force solver stays
definition-level and acts as its independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import EmptySet, KOutOfRange, SizeLimitExceeded, TheoryViolation
from .groups import GroupTable, _check_member, enumerate_subgroups, image, is_subgroup_mask
from .setalg import popcount_table, product_mask, product_size_table
from .subsets import Subset

DEFAULT_BRUTEFORCE_CAP = 16
DEFAULT_FRAGMENT_CAP = 100_000

# Beyond this, q*sizes - p*cards may not fit int64; use exact Python ints.
_NUMPY_SAFE_BOUND = 1 << 40


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
class SubmodularityReport:
    lhs: Fraction  # c(A|B) + c(A&B)
    rhs: Fraction  # c(A) + c(B)
    holds: bool


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


def check_submodularity(
    G: GroupTable, params: CostParams, A: Subset, B: Subset
) -> SubmodularityReport:
    """c(A|B) + c(A&B) <= c(A) + c(B); a False result signals a bug."""
    lhs = cost(G, params, A | B) + cost(G, params, A & B)
    rhs = cost(G, params, A) + cost(G, params, B)
    return SubmodularityReport(lhs=lhs, rhs=rhs, holds=lhs <= rhs)


def _check_k(K: Fraction, classify_atom: bool) -> None:
    if K > 1:
        raise KOutOfRange(f"K = {K} > 1 is outside the supported theory")
    if K == 1 and classify_atom:
        raise KOutOfRange(
            "atom classification requires K < 1; rerun with fragments-only output"
        )


def _scaled_cost_arrays(G: GroupTable, S: Subset, K: Fraction):
    """(q*|A*S| - p*|A|) for every mask, plus q; mask 0 is masked out."""
    import numpy as np

    sizes = product_size_table(G, S)
    cards = popcount_table(G.order)
    p, q = K.numerator, K.denominator
    if max(abs(p), q) < _NUMPY_SAFE_BOUND:
        vals = q * sizes - p * cards
    else:
        vals = np.array(
            [q * int(s) - p * int(c) for s, c in zip(sizes, cards)], dtype=object
        )
    return vals, cards


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
    over the full powerset table, so it is limited to small groups.
    """
    import numpy as np

    n = G.order
    if n > bruteforce_cap:
        raise SizeLimitExceeded(
            f"brute force over 2^{n} subsets exceeds the cap {bruteforce_cap}"
        )
    _check_member(G, params.S, "S")
    _check_k(params.K, classify_atom)

    vals, cards = _scaled_cost_arrays(G, params.S, params.K)
    q = params.K.denominator
    best = vals[1:].min()
    kappa = Fraction(int(best), q)

    frag_idx = np.nonzero(vals[1:] == best)[0] + 1
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
    """kappa as the minimum cost over subgroups of G (valid for K < 1).

    The identity atom is a subgroup and a fragment, so the subgroup minimum
    attains kappa; among subgroups attaining it, the smallest is the identity
    atom because two identity-containing fragments intersect in a fragment.
    Must agree exactly with `connectivity_bruteforce` wherever both run.
    """
    _check_member(G, params.S, "S")
    if params.K >= 1:
        raise KOutOfRange("the subgroup-restricted solver requires K < 1")
    p, q = params.K.numerator, params.K.denominator

    # Subgroups arrive by cardinality, so the first one to reach the least
    # cost is the smallest attaining it; `ties` counts those of its size.
    best = atom = None
    ties = 0
    for H in enumerate_subgroups(G):
        # cost(H) >= (1-K)|H|, so once that floor exceeds the best cost the
        # subgroup cannot matter (not even as an equal-cost tie).
        if best is not None and (q - p) * H.cardinality > best:
            continue
        size = product_mask(G, H.mask, params.S.mask).bit_count()
        val = q * size - p * H.cardinality
        if best is None or val < best:
            best, atom, ties = val, H, 1
        elif val == best and H.cardinality == atom.cardinality:
            ties += 1

    if ties != 1:
        raise TheoryViolation(
            f"{ties} subgroups of size {atom.cardinality} attain kappa; "
            "theory guarantees a unique identity atom for K < 1"
        )
    return ConnectivityResult(
        params=params,
        kappa=Fraction(best, q),
        identity_atom=atom,
        atom_is_subgroup=True,
        fragments=None,
        fragment_total=None,
        solver="subgroup_restricted",
    )


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
    expected = {image(row, H.mask) for row in G.mul}
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
