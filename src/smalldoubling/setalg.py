"""Exact product-set algebra on bitset subsets.

Everything here is integer/bitmask arithmetic; ratios come out as
`fractions.Fraction`.  `product_mask` is the one-off product: a loop over
the pairs, and the reference for the faster kernels below.
`expansion_rows` is the batched one: the translates g*S for many g at once,
built a column of S at a time from `GroupTable.cols` and `GroupTable.bits`,
with no Python loop over the rows; `groups.image` stays the kernel for one
translation.

Subset tables are built here, with one doubling loop per representation:
entry m is the OR of rows[i] over the set bits i of m, and the masks with
top bit i are those below 2^i with bit i added, so each row doubles the
filled prefix.  `or_table` does it on a plain list; `mask_tables_from_rows`
on numpy rows of any leading shape; `mask_table_from_rows` on one list of
rows.  Every numpy mask table is uint32: a table has at most
SUBSET_TABLE_LIMIT = 24 rows, so no mask it holds needs more than 32 bits,
and a wider table is refused with SizeLimitExceeded before any row is
converted.  No table is cached.  Groups are shared: `groups._build_spec`
keeps the last 32 it built, so equal specs get one GroupTable.  A subset
table still belongs to one call, so the two `lru_cache(maxsize=0)` below
must stay at 0: keyed on a kept group, they would keep its 2^n-entry tables
alive with it.

`fixed_factor_product` tabulates the rows g*F by 8-bit chunk with
`or_table`, so m*F takes ceil(n/8) lookups and needs no numpy; given several
factors it packs their rows n bits apart, so the same ceil(n/8) lookups give
every product m*F at once.  The numpy tables give |A*S| for *every* subset A
at once, which makes the exhaustive sweeps cheap; `product_size_table` is
that size table, as uint8.

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
from .groups import SUBSET_TABLE_LIMIT, GroupTable, _check_member, image, is_subgroup_mask
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
    out, trivial = (1 << G.order) - 1, 1 << G.identity
    for t in iter_bits(T.mask):
        out &= image(G.mul[G.inv[t]], T.mask)
        if out == trivial:  # e is in every translate, so nothing smaller is left
            break
    return Subset(G.order, out)


@dataclass(frozen=True)
class DoublingReport:
    """Exact doubling data for one set: |A*A| / |A| and the best epsilon."""

    square: Subset
    ratio: Fraction
    epsilon: Fraction  # 2 - ratio; may be <= 0 when doubling is at least 2


def doubling_ratio(G: GroupTable, A: Subset) -> DoublingReport:
    _check_member(G, A, "A")
    if A.is_empty:
        raise EmptySet("doubling ratio of the empty set")
    square = product_set(G, A, A)
    ratio = Fraction(square.cardinality, A.cardinality)
    return DoublingReport(square=square, ratio=ratio, epsilon=2 - ratio)


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
    if not is_subgroup_mask(G, H.mask):
        raise NotASubgroup(f"{H!r} is not a subgroup of {G.name}")
    perms = G.cols if side == "right" else G.mul  # H*t or t*H
    reps = set()
    for t in iter_bits(T.mask):
        coset = image(perms[t], H.mask)
        reps.add(coset & -coset)  # lowest set bit identifies the coset canonically
    representatives = tuple(sorted(low.bit_length() - 1 for low in reps))
    return CoverCertificate(subgroup=H, side=side, representatives=representatives, covered=T)


# --- whole-powerset product tables -----------------------------------------


def expansion_rows(
    G: GroupTable, S: Subset, elements: Optional[Iterable[int]] = None
) -> list[int]:
    """Row masks g -> g*S for each g of `elements` (default: all of G).

    OR-ing the rows over A gives A*S.  The rows are built together, one
    column of S at a time (g*s is cols[s][g]), with no Python loop over the
    rows: a row of a group table is a permutation, so the bits G.bits[g*s] of
    one row are distinct and their sum is their OR.  `image` stays the kernel
    for one translation.
    """
    _check_member(G, S, "S")
    cols = [G.cols[s] for s in iter_bits(S.mask)]
    if elements is None:
        count = G.order
    else:
        elements = tuple(elements)  # read once per column
        count = len(elements)
        cols = [map(col.__getitem__, elements) for col in cols]
    if not cols:
        return [0] * count
    bit = G.bits.__getitem__
    return list(map(sum, zip(*[map(bit, col) for col in cols])))


def or_of_rows(rows: list[int], X: int) -> int:
    """The OR of rows[i] over the set bits i of X."""
    out = 0
    for i in iter_bits(X):
        out |= rows[i]
    return out


def or_table(rows: list[int]) -> list[int]:
    """`or_of_rows(rows, m)` at every mask m, as a plain list."""
    table = [0]
    for row in rows:
        table += [m | row for m in table]
    return table


def fixed_factor_product(G: GroupTable, *factors: Subset) -> Callable[[int], int]:
    """The map m -> the products m*F of one mask m (below 2^n, n = G.order) by
    each of `factors`, packed n bits apart: m*factors[i] sits at bit i*n.

    The rows g*F of the factors are packed the same way, and chunk k of them
    is tabulated with `or_table` over all values of bits 8k..8k+7 of m (fewer
    in the last chunk when 8 does not divide n), so a call takes ceil(n/8)
    lookups, however many factors there are, instead of a loop over pairs.
    """
    n = G.order
    packed = [[row << i * n for row in expansion_rows(G, F)] for i, F in enumerate(factors)]
    rows = list(map(sum, zip(*packed)))
    tables = [or_table(rows[k : k + 8]) for k in range(0, n, 8)]

    def product(mask: int) -> int:
        out = 0
        for tab in tables:
            out |= tab[mask & 255]
            mask >>= 8
        return out

    return product


def _check_width(width: int) -> None:
    if width > SUBSET_TABLE_LIMIT:
        raise SizeLimitExceeded(
            f"subset tables need 2^{width} entries; supported only up to order "
            f"{SUBSET_TABLE_LIMIT}"
        )


def mask_tables_from_rows(rows: np.ndarray) -> np.ndarray:
    """out[..., m] is the OR of rows[..., g] over the set bits g of m: the
    rows, uint32, run along the last axis, and their leading shape is kept."""
    import numpy as np

    width = rows.shape[-1]
    _check_width(width)
    out = np.zeros(rows.shape[:-1] + (1 << width,), dtype=np.uint32)
    for k in range(width):
        np.bitwise_or(out[..., : 1 << k], rows[..., k : k + 1], out=out[..., 1 << k : 2 << k])
    return out


def mask_table_from_rows(rows: list[int]) -> np.ndarray:
    """`mask_tables_from_rows` of one list of rows, whose length is checked
    before the rows are converted to uint32.  Only lists reach this name,
    since bench/tracing.py counts 2^len(rows) entries per call."""
    import numpy as np

    _check_width(len(rows))
    return mask_tables_from_rows(np.array(rows, dtype=np.uint32))


# maxsize=0 stores nothing; the decorators stay only because
# bench/tracing.py reads their cache_info() (ROADMAP item 2).
@functools.lru_cache(maxsize=0)
def product_mask_table(G: GroupTable, S: Subset) -> np.ndarray:
    """Bitmask of A*S for every subset-mask A of G (index = A's mask)."""
    return mask_table_from_rows(expansion_rows(G, S))


@functools.lru_cache(maxsize=0)
def product_size_table(G: GroupTable, S: Subset) -> np.ndarray:
    """|A*S| for every subset-mask A of G, as uint8."""
    import numpy as np

    return np.bitwise_count(product_mask_table(G, S))
