"""Exact rational-valued convolution on a finite group.

The central object is the normalized autocorrelation of a set A,
f(x) = |A ∩ xA| / |A|, which equals the convolution (1/|A|) 1_A * 1_{A^-1}.
Under |A^-1 A| <= (2-e)|A| the function f never takes values in (0, e): its
range has a gap above zero on the support A A^-1.  All values are Fractions;
there is no floating point anywhere in this module.  A `GroupFunction` is its
values alone, one per element index; their count is checked against the
order of each group it meets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import EmptySet, GroupMismatch
from .groups import GroupTable, _check_member
from .rationals import as_fraction
from .setalg import expansion_rows, inverse_set, product_set
from .subsets import Subset


@dataclass(frozen=True)
class GroupFunction:
    """values[x] is the value at element x.  Each must already be a Fraction,
    so the arithmetic stays exact: anything else is refused, not converted."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        bad = [v for v in self.values if not isinstance(v, Fraction)]
        if bad:
            raise TypeError(f"GroupFunction values must be Fractions, got {bad[0]!r}")

    @classmethod
    def indicator(cls, subset: Subset) -> "GroupFunction":
        one, zero = Fraction(1), Fraction(0)
        return cls(tuple(one if i in subset else zero for i in range(subset.group_order)))

    @classmethod
    def normalized_indicator(cls, subset: Subset) -> "GroupFunction":
        """(1/|S|) 1_S, the averaging kernel over S."""
        if subset.is_empty:
            raise EmptySet("cannot normalize the indicator of the empty set")
        w, zero = Fraction(1, subset.cardinality), Fraction(0)
        return cls(tuple(w if i in subset else zero for i in range(subset.group_order)))

    @classmethod
    def constant(cls, group_order: int, value) -> "GroupFunction":
        return cls((as_fraction(value, "value"),) * group_order)

    @cached_property
    def mass(self) -> Fraction:
        return sum(self.values, Fraction(0))


def _check_function(G: GroupTable, f: GroupFunction, what: str) -> None:
    if len(f.values) != G.order:
        raise GroupMismatch(f"{what} lives on order {len(f.values)}, expected {G.order}")


def convolve(G: GroupTable, u: GroupFunction, v: GroupFunction) -> GroupFunction:
    """(u*v)(x) = sum over y of u(y) v(y^-1 x); mass multiplies."""
    _check_function(G, u, "u")
    _check_function(G, v, "v")
    n = G.order
    mul, inv = G.mul, G.inv
    out = [Fraction(0)] * n
    for y in range(n):
        uy = u.values[y]
        if uy == 0:
            continue
        row = mul[inv[y]]
        for x in range(n):
            vx = v.values[row[x]]
            if vx != 0:
                out[x] += uy * vx
    return GroupFunction(tuple(out))


def autocorrelation(G: GroupTable, A: Subset) -> GroupFunction:
    """f(x) = |A ∩ xA| / |A|; f(e) = 1, mass |A|, support exactly A A^-1."""
    _check_member(G, A, "A")
    if A.is_empty:
        raise EmptySet("autocorrelation of the empty set")
    mask, card = A.mask, A.cardinality
    values = tuple(Fraction((mask & xA).bit_count(), card) for xA in expansion_rows(G, A))
    return GroupFunction(values)


@dataclass(frozen=True)
class GapReport:
    """Gap in the range of the autocorrelation of A.

    epsilon_star = 2 - |A^-1 A| / |A| is the best rate in the hypothesis
    |A^-1 A| <= (2-e)|A|.  When it is positive, f is at least epsilon_star
    everywhere on its support and takes no value inside (0, epsilon_star).
    When it is nonpositive the hypothesis is vacuous and no gap is claimed.
    """

    autocorrelation: GroupFunction  # f
    epsilon_star: Fraction
    support: Subset  # A * A^-1
    min_on_support: Fraction
    gap_holds: bool
    forbidden_interval_clean: bool
    hypothesis_vacuous: bool


def gap_check(G: GroupTable, A: Subset) -> GapReport:
    _check_member(G, A, "A")
    if A.is_empty:
        raise EmptySet("gap check needs a nonempty set")
    inv_A = inverse_set(G, A)
    left_product = product_set(G, inv_A, A)  # A^-1 * A, the hypothesis side
    support = product_set(G, A, inv_A)  # A * A^-1, where f lives
    epsilon_star = 2 - Fraction(left_product.cardinality, A.cardinality)
    f = autocorrelation(G, A)
    min_on_support = min(f.values[x] for x in support)
    gap_holds = min_on_support >= epsilon_star
    clean = all(not (0 < v < epsilon_star) for v in f.values)
    return GapReport(
        autocorrelation=f,
        epsilon_star=epsilon_star,
        support=support,
        min_on_support=min_on_support,
        gap_holds=gap_holds,
        forbidden_interval_clean=clean,
        hypothesis_vacuous=epsilon_star <= 0,
    )


def smoothed(G: GroupTable, S: Subset, f: GroupFunction) -> GroupFunction:
    """Double averaging of f by S: (1/|S|) 1_S * (1/|S|) 1_S * f.

    Mass is preserved and nonnegativity survives; S = {e} is the identity map.
    """
    _check_member(G, S, "S")
    if S.is_empty:
        raise EmptySet("smoothing needs a nonempty kernel set")
    kernel = GroupFunction.normalized_indicator(S)
    return convolve(G, kernel, convolve(G, kernel, f))


def level_set(G: GroupTable, F: GroupFunction, threshold: Fraction) -> Subset:
    """{x : F(x) > threshold}, by exact comparison."""
    _check_function(G, F, "F")
    t = as_fraction(threshold, "threshold")
    return G.subset(x for x, v in enumerate(F.values) if v > t)
