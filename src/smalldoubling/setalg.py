"""Exact product-set algebra on bitset subsets.

Everything here is integer/bitmask arithmetic; ratios come out as
`fractions.Fraction`.  `product_mask` is the one-off product: a loop over
the pairs, and the reference for the faster kernels below.

When one factor F of many products is fixed, `fixed_factor_product`
tabulates the rows g*F (`expansion_rows`) by 8-bit chunk: tab[k][b] is the
OR of the rows 8k + i over the set bits i of b, so M*F is the OR of
tab[k][(M >> 8k) & 255] over the ceil(n/8) chunks.  The tables are plain
lists of at most 256 entries, built with the doubling of
`mask_table_from_rows`, and need no numpy.

The subset-table helpers at the bottom compute |A*S| for *every* subset A
of the group at once with the same doubling, which is what makes the
exhaustive sweeps cheap.  `product_size_table` is the one table of these
sizes, as uint8, and the exhaustive Petridis check and brute-force
connectivity both read it.  It is built afresh on every call: a table
belongs to one certificate's group, which no later call shares.  Only
`popcount_table`, keyed on the width n, is cached.

numpy is imported inside the functions that touch arrays, here and in
`connectivity` and `theorems`, so that a command without a subset table
starts without it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from .errors import EmptySet, NotASubgroup, SizeLimitExceeded
from .groups import SUBSET_TABLE_LIMIT, GroupTable, _check_member, image, is_subgroup
from .subsets import Subset, iter_bits

if TYPE_CHECKING:
    import numpy as np


def product_mask(G: GroupTable, amask: int, bmask: int) -> int:
    """Bitmask of {a*b : a in amask, b in bmask}."""
    mul = G.mul
    out = 0
    b_elems = list(iter_bits(bmask))
    for a in iter_bits(amask):
        row = mul[a]
        for b in b_elems:
            out |= 1 << row[b]
    return out


def product_set(G: GroupTable, A: Subset, B: Subset) -> Subset:
    """A*B = {a*b : a in A, b in B}; empty iff either factor is empty."""
    _check_member(G, A, "A")
    _check_member(G, B, "B")
    return Subset(G.order, product_mask(G, A.mask, B.mask))


def inverse_set(G: GroupTable, A: Subset) -> Subset:
    """{a^-1 : a in A}."""
    _check_member(G, A, "A")
    return Subset(G.order, image(G.inv, A.mask))


def right_stabilizer(G: GroupTable, T: Subset) -> Subset:
    """The symmetry group {h : T*h = T}; T is a union of its left cosets.

    T*h = T exactly when t*h lies in T for every t in T, so the group is the
    intersection of the left translates t^-1*T over t in T.
    """
    _check_member(G, T, "T")
    if T.is_empty:
        raise EmptySet("stabilizer of the empty set is undefined here")
    out = (1 << G.order) - 1
    for t in iter_bits(T.mask):
        out &= image(G.mul[G.inv[t]], T.mask)
    return Subset(G.order, out)


@dataclass(frozen=True)
class DoublingReport:
    """Exact doubling data for one set: |A*A| / |A| and the best epsilon."""

    A: Subset
    square: Subset
    ratio: Fraction
    epsilon: Fraction  # 2 - ratio; may be <= 0 when doubling is at least 2


def doubling_ratio(G: GroupTable, A: Subset) -> DoublingReport:
    _check_member(G, A, "A")
    if A.is_empty:
        raise EmptySet("doubling ratio of the empty set")
    square = product_set(G, A, A)
    ratio = Fraction(square.cardinality, A.cardinality)
    return DoublingReport(A=A, square=square, ratio=ratio, epsilon=2 - ratio)


@dataclass(frozen=True)
class CoverCertificate:
    """The distinct cosets of `subgroup` that meet `covered`.

    Cosets on one side partition the group, so this count is the minimum
    number of cosets of the subgroup needed to cover the set.  Representatives
    are the smallest element index of each coset, listed increasing.
    """

    subgroup: Subset
    side: str  # "left" for g*H cosets, "right" for H*g
    representatives: tuple[int, ...]
    covered: Subset

    @property
    def count(self) -> int:
        return len(self.representatives)


def coset_cover(G: GroupTable, H: Subset, T: Subset, side: str = "right") -> CoverCertificate:
    _check_member(G, H, "H")
    _check_member(G, T, "T")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if T.is_empty:
        raise EmptySet("cannot cover the empty set")
    if not is_subgroup(G, H):
        raise NotASubgroup(f"{H!r} is not a subgroup of {G.name}")
    perms = G.cols if side == "right" else G.mul  # H*t or t*H
    reps = set()
    for t in iter_bits(T.mask):
        coset = image(perms[t], H.mask)
        reps.add(coset & -coset)  # lowest set bit identifies the coset canonically
    representatives = tuple(sorted(low.bit_length() - 1 for low in reps))
    return CoverCertificate(subgroup=H, side=side, representatives=representatives, covered=T)


# --- whole-powerset product tables -----------------------------------------


def _require_table_size(n: int) -> None:
    if n > SUBSET_TABLE_LIMIT:
        raise SizeLimitExceeded(
            f"subset tables need 2^{n} entries; supported only up to order "
            f"{SUBSET_TABLE_LIMIT}"
        )


def expansion_rows(
    G: GroupTable, S: Subset, elements: Optional[Iterable[int]] = None
) -> list[int]:
    """Row masks g -> g*S for each g of `elements` (default: all of G).

    OR-ing the rows over A gives A*S.
    """
    _check_member(G, S, "S")
    rows = G.mul if elements is None else [G.mul[g] for g in elements]
    return [image(row, S.mask) for row in rows]


def fixed_factor_product(G: GroupTable, F: Subset) -> Callable[[int], int]:
    """The map m -> bitmask of m*F, for many masks m against one F.

    Chunk k of the rows g*F is tabulated over all values of bits 8k..8k+7
    of m (fewer in the last chunk when 8 does not divide n), so a product
    takes ceil(n/8) lookups instead of a loop over the pairs.
    """
    rows = expansion_rows(G, F)
    tables = []
    for k in range(0, len(rows), 8):
        tab = [0]
        for row in rows[k : k + 8]:
            tab += [m | row for m in tab]
        tables.append(tab)

    def product(mask: int) -> int:
        out = 0
        for tab in tables:
            out |= tab[mask & 255]
            mask >>= 8
        return out

    return product


def mask_table_from_rows(rows: list[int]) -> np.ndarray:
    """prod[m] = OR of rows[g] over set bits g of m, for every mask m.

    The masks with top bit k are those below 2^k with bit k added, so each
    row doubles the filled prefix with one contiguous slice operation.
    """
    import numpy as np

    n = len(rows)
    _require_table_size(n)
    prod = np.zeros(1 << n, dtype=np.uint64)
    for k, row in enumerate(rows):
        np.bitwise_or(prod[: 1 << k], np.uint64(row), out=prod[1 << k : 2 << k])
    prod.flags.writeable = False
    return prod


# maxsize=0 stores nothing; the decorators stay only because
# bench/tracing.py reads their cache_info() (ROADMAP item 3).
@functools.lru_cache(maxsize=0)
def product_mask_table(G: GroupTable, S: Subset) -> np.ndarray:
    """Bitmask of A*S for every subset-mask A of G (index = A's mask)."""
    return mask_table_from_rows(expansion_rows(G, S))


@functools.lru_cache(maxsize=0)
def product_size_table(G: GroupTable, S: Subset) -> np.ndarray:
    """|A*S| for every subset-mask A of G, as uint8."""
    import numpy as np

    return np.bitwise_count(product_mask_table(G, S))


@functools.lru_cache(maxsize=8)
def popcount_table(n: int) -> np.ndarray:
    """|A| for every mask of width n."""
    import numpy as np

    _require_table_size(n)
    cards = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
    cards.flags.writeable = False
    return cards
