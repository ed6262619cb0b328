"""Subsets of a finite group as fixed-width bitsets.

A `Subset` stores only the order of its group and an integer bitmask; bit i
set means element index i belongs to the set.  Python integers give
word-parallel boolean operations at any width, so the same representation
covers groups past 64 elements without a separate multi-word path.
`Subset(order, mask)` is the mask constructor; `GroupTable.subset` builds a
Subset from element indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Subset:
    group_order: int
    mask: int

    def __post_init__(self):
        if self.group_order < 1:
            raise ValueError("group_order must be positive")
        if self.mask < 0 or self.mask >> self.group_order:
            raise ValueError(
                f"mask {self.mask:#x} has bits outside [0, {self.group_order})"
            )

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def elements(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.mask))

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def __contains__(self, element: int) -> bool:
        return 0 <= element < self.group_order and (self.mask >> element) & 1 == 1

    def __repr__(self) -> str:
        return f"Subset({set(self.elements()) if self.mask else '{}'} of {self.group_order})"
