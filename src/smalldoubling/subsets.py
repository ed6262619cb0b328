"""Subsets of a finite group as fixed-width bitsets.

A `Subset` stores only the order of its group and an integer bitmask; bit i
set means element index i belongs to the set.  Python integers give
word-parallel boolean operations at any width, so the same representation
covers groups past 64 elements without a separate multi-word path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import GroupMismatch


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


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

    @classmethod
    def from_elements(cls, group_order: int, elements: Iterable[int]) -> "Subset":
        elems = list(elements)
        for e in elems:
            if not 0 <= e < group_order:
                raise ValueError(f"element {e} outside [0, {group_order})")
        return cls(group_order, mask_of(elems))

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def elements(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.mask))

    def sort_key(self) -> tuple[int, ...]:
        """Bit-lexicographic key: compare element lists in increasing order."""
        return self.elements()

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def __len__(self) -> int:
        return self.cardinality

    def __contains__(self, element: int) -> bool:
        return 0 <= element < self.group_order and (self.mask >> element) & 1 == 1

    def _check_same(self, other: "Subset") -> None:
        if self.group_order != other.group_order:
            raise GroupMismatch(
                f"subsets of different groups: order {self.group_order} vs "
                f"{other.group_order}"
            )

    def __or__(self, other: "Subset") -> "Subset":
        self._check_same(other)
        return Subset(self.group_order, self.mask | other.mask)

    def __and__(self, other: "Subset") -> "Subset":
        self._check_same(other)
        return Subset(self.group_order, self.mask & other.mask)

    def __repr__(self) -> str:
        return f"Subset({set(self.elements()) if self.mask else '{}'} of {self.group_order})"
