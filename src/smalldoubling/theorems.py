"""Certificate-producing verifiers for the toolkit's named inequalities.

Covered here: Kneser's sumset bound in abelian groups, its covering
corollary, the weak Kneser-type structure theorem for noncommutative sets of
small doubling, the Petridis minimizer inequality, and an exhaustive or
seeded search for Kneser failures in nonabelian groups.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Optional

from .connectivity import _min_cut_sides, connectivity_subgroup_solver
from .errors import EmptySet, HypothesisFailed, NotAbelian, SizeLimitExceeded, TheoryViolation
from .groups import GroupTable, _check_member, image
from .rationals import as_fraction, narrow_ratio
from .setalg import (
    CoverCertificate,
    _check_width,
    coset_cover,
    expansion_rows,
    fixed_factor_product,
    half_tables,
    mask_tables_from_rows,
    or_of_rows,
    or_table,
    product_mask,
    product_set,
    right_stabilizer,
)
from .subsets import Subset

if TYPE_CHECKING:
    import numpy as np

PETRIDIS_FLOW_MIN = 10  # smallest |A| for the min-cut path of petridis_minimizer


def _check_epsilon(epsilon: Fraction) -> Fraction:
    epsilon = as_fraction(epsilon, "epsilon")
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    return epsilon


def _require_nonempty(*sets: Subset) -> None:
    for s in sets:
        if s.is_empty:
            raise EmptySet("this check needs nonempty sets")


def _nonempty_masks(rng: random.Random, n: int) -> Iterator[int]:
    """The masks `rng.randrange(1, 1 << n)` draws, at a sixth of the cost: in
    CPython that is 1 + `getrandbits(n)`, redrawn while it is 2^n - 1 or more."""
    draw, top = rng.getrandbits, (1 << n) - 1
    while True:
        r = draw(n)
        while r >= top:
            r = draw(n)
        yield r + 1


# --- Kneser's inequality ----------------------------------------------------


@dataclass(frozen=True)
class KneserReport:
    A: Subset
    B: Subset
    sum: Subset
    H: Subset  # symmetry group (right stabilizer) of the sum
    lhs: int  # |A*B|
    rhs: int  # |A| + |B| - |H|
    holds: bool
    equality: bool


def _kneser_report(A: Subset, B: Subset, total: Subset, H: Subset) -> KneserReport:
    """The report of the pair (A, B), given A*B and its stabilizer H."""
    lhs = total.cardinality
    rhs = A.cardinality + B.cardinality - H.cardinality
    return KneserReport(
        A=A, B=B, sum=total, H=H, lhs=lhs, rhs=rhs, holds=lhs >= rhs, equality=lhs == rhs
    )


def kneser_check(G: GroupTable, A: Subset, B: Subset) -> KneserReport:
    """|A+B| >= |A| + |B| - |H| with H the symmetry group of A+B.

    Only valid in abelian groups; `holds` is True on every such instance.
    """
    if not G.is_abelian:
        raise NotAbelian(f"Kneser's inequality needs an abelian group, got {G.name}")
    _require_nonempty(A, B)
    total = product_set(G, A, B)
    return _kneser_report(A, B, total, right_stabilizer(G, total))


# --- covering corollary ------------------------------------------------------


@dataclass(frozen=True)
class CorollaryReport:
    """For |A+A| <= (2-e)|A|: the symmetry group H of A+A has |H| <= (2-e)|A|
    and A+A is covered by at most 2/e - 1 of its cosets."""

    square: Subset
    H: Subset
    H_bound: Fraction  # (2 - epsilon)|A|
    H_bound_ok: bool
    cover: CoverCertificate
    cover_bound: Fraction  # 2/epsilon - 1
    cover_bound_ok: bool
    holds: bool


def kneser_corollary_check(G: GroupTable, A: Subset, epsilon: Fraction) -> CorollaryReport:
    if not G.is_abelian:
        raise NotAbelian(f"the covering corollary needs an abelian group, got {G.name}")
    _require_nonempty(A)
    epsilon = _check_epsilon(epsilon)
    square = product_set(G, A, A)
    hypothesis_bound = (2 - epsilon) * A.cardinality
    if square.cardinality > hypothesis_bound:
        raise HypothesisFailed(
            f"|A+A| = {square.cardinality} > (2 - {epsilon})|A| = {hypothesis_bound}"
        )
    H = right_stabilizer(G, square)
    H_bound_ok = H.cardinality <= hypothesis_bound
    # A+A is H-invariant, so the distinct cosets of H through it cover it
    # exactly, |A+A| / |H| of them.
    cover = coset_cover(G, H, square, side="left")
    cover_bound = Fraction(2) / epsilon - 1
    cover_bound_ok = cover.count <= cover_bound
    return CorollaryReport(
        square=square,
        H=H,
        H_bound=hypothesis_bound,
        H_bound_ok=H_bound_ok,
        cover=cover,
        cover_bound=cover_bound,
        cover_bound_ok=cover_bound_ok,
        holds=H_bound_ok and cover_bound_ok,
    )


# --- weak Kneser-type structure theorem --------------------------------------


@dataclass(frozen=True)
class WeakKneserReport:
    """For |A| >= |S| and |A*S| <= (2-e)|S|: S lies in one right coset of a
    subgroup H with |H| <= (2/e)|S|, or is covered by at most 2/e - 1 right
    cosets of an H with |H| <= |S|.  H is the identity atom at K = 1 - e/2."""

    K: Fraction
    kappa: Fraction
    atom: Subset
    branch: str  # single_right_coset | multi_coset_cover | violation
    bound_H_size: Fraction
    sharp_H_bound: Fraction  # (2/e - 1)|S|, what the argument actually gives
    cover: Optional[CoverCertificate]
    violations: tuple[str, ...]


def weak_kneser_check(
    G: GroupTable, A: Subset, S: Subset, epsilon: Fraction
) -> WeakKneserReport:
    _require_nonempty(A, S)
    _check_member(G, A, "A")
    _check_member(G, S, "S")
    epsilon = _check_epsilon(epsilon)
    s = S.cardinality
    if A.cardinality < s:
        raise HypothesisFailed(f"|A| = {A.cardinality} < |S| = {s}")
    # The bounds are compared in integers: for eps = a/b, (2 - eps)|S| is
    # (2b - a)|S|/b, (2/eps)|S| is 2b|S|/a and 2/eps - 1 is (2b - a)/a.
    a, b = epsilon.numerator, epsilon.denominator
    size = product_mask(G, A.mask, S.mask).bit_count()
    if size * b > (2 * b - a) * s:
        raise HypothesisFailed(
            f"|A*S| = {size} > (2 - {epsilon})|S| = {Fraction((2 * b - a) * s, b)}"
        )

    K = Fraction(2 * b - a, 2 * b)  # 1 - eps/2
    conn = connectivity_subgroup_solver(G, S, K)
    H = conn.identity_atom
    assert H is not None
    sharp_bound = Fraction((2 * b - a) * s, a)

    cover = coset_cover(G, H, S, side="right")
    violations: list[str] = []
    if cover.count == 1:  # S lies in one right coset of H
        branch = "single_right_coset"
        cover = None
        bound_H = Fraction(2 * b * s, a)
        if H.cardinality * a > 2 * b * s:
            violations.append(
                f"single-coset branch: |H| = {H.cardinality} > (2/eps)|S| = {bound_H}"
            )
    else:
        branch = "multi_coset_cover"
        bound_H = Fraction(s)
        if H.cardinality > s:
            violations.append(f"multi-coset branch: |H| = {H.cardinality} > |S| = {s}")
        if cover.count * a > 2 * b - a:
            violations.append(
                f"multi-coset branch: cover needs {cover.count} cosets > "
                f"2/eps - 1 = {Fraction(2 * b - a, a)}"
            )
    if violations:
        branch = "violation"
    return WeakKneserReport(
        K=K,
        kappa=conn.kappa,
        atom=H,
        branch=branch,
        bound_H_size=bound_H,
        sharp_H_bound=sharp_bound,
        cover=cover,
        violations=tuple(violations),
    )


# --- Petridis minimizer -------------------------------------------------------


@dataclass(frozen=True)
class PetridisResult:
    """X minimizes |X*S|/|X| over nonempty subsets of A; then
    |C*X*S| <= K |C*X| for every finite C."""

    A: Subset
    S: Subset
    X: Subset
    K: Fraction  # |X*S| / |X|


@dataclass(frozen=True)
class PetridisVerification:
    checked: int
    equality_at_identity: bool
    violations: tuple[Subset, ...]
    ok: bool


def petridis_minimizer(G: GroupTable, A: Subset, S: Subset) -> PetridisResult:
    """Exact minimizer of |X*S|/|X| over nonempty X inside A.

    Ties break toward larger |X|, and that settles them: the minimizers are
    closed under union, since (X|Y)*S = X*S | Y*S and (X&Y)*S lies in
    X*S & Y*S give |(X|Y)*S| <= K|X| + K|Y| - K|X&Y|.  So the largest
    minimizer is unique (the union of all of them), and the result does not
    depend on the order in which subsets are visited; any minimizer
    satisfies the theorem.

    Two paths return the same (X, K), and neither needs numpy: a plain loop
    over the 2^|A| subsets for |A| < PETRIDIS_FLOW_MIN (10), and from there
    on Dinkelbach's iteration on the min-cut kernel that also finds the
    identity atom (`_minimize_by_flow`), whose work grows with the edges
    x -> x*S rather than with 2^|A|.  The cutoff is measured, timing both
    paths on the same rows for random A in D10, Z20 and D8xZ4 (|S| = 3,
    median over 600 sets per size of the best of 3 calls, 2 CPUs of a Xeon,
    Python 3.11): at |A| = 9 the loop wins or ties (0.058-0.066 ms against
    0.062-0.071), at |A| = 10 the min cut wins (0.067-0.081 ms against
    0.111-0.124).  At |A| = 20 in D32 and (Z2)^6, with |S| from 1 to 64, the
    worst of four random draws takes 0.02-0.64 ms, where the numpy pass over
    the whole subset table that the min cut replaced took 12-24 ms and the
    loop takes 155-165 ms.  So any |A| is accepted here; the certificate
    runner applies the config's subset cap.
    """
    _require_nonempty(A, S)
    _check_member(G, A, "A")
    _check_member(G, S, "S")
    elems = A.elements()
    rows = expansion_rows(G, S, elems)  # local bit i stands for elems[i]
    minimize = _minimize_by_flow if len(elems) >= PETRIDIS_FLOW_MIN else _minimize_by_loop
    best, size, card = minimize(rows)
    X = Subset(G.order, image(elems, best))
    return PetridisResult(A=A, S=S, X=X, K=Fraction(size, card))


def _minimize_by_loop(rows: list[int]) -> tuple[int, int, int]:
    """(local mask, |X*S|, |X|) of the largest minimizer."""
    prods = or_table(rows)
    best_size = best_card = best = 0
    for m in range(1, len(prods)):
        size = prods[m].bit_count()
        card = m.bit_count()
        lhs, rhs = size * best_card, best_size * card
        if best == 0 or lhs < rhs or (lhs == rhs and card > best_card):
            best_size, best_card, best = size, card, m
    return best, best_size, best_card


def _minimize_by_flow(rows: list[int]) -> tuple[int, int, int]:
    """The same as `_minimize_by_loop`, by Dinkelbach's iteration on min cuts.

    For K = p/q, q|N(X)| - p|X| is minimized over X (N(X) the OR of the rows
    over X) by `connectivity._min_cut_sides`, one maximum flow by shortest
    augmenting paths.  A negative minimum gives a set of smaller ratio, which
    becomes the next K; at the optimal K the minimum is 0 and the kernel's
    largest side is the union of all minimizers, which is the largest
    minimizer of the ratio.  That side does not depend on which maximum flow
    the kernel finds.  Every step is integer arithmetic.
    """
    X = (1 << len(rows)) - 1
    size, card = or_of_rows(rows, X).bit_count(), X.bit_count()
    while True:
        Z = _min_cut_sides(rows, size, card)[1]
        z_size, z_card = or_of_rows(rows, Z).bit_count(), Z.bit_count()
        if card * z_size == size * z_card:
            return Z, z_size, z_card
        size, card = z_size, z_card


def _exceeds(a: np.ndarray, s: np.ndarray, p: int, q: int) -> np.ndarray:
    """q*a > p*s elementwise, for uint8 sizes a, s <= n <= 24 and a ratio
    p/q >= 0 from `rationals.narrow_ratio`, whose terms are then at most 2n:
    no product passes 48*24 = 1,152, so uint16 is exact."""
    import numpy as np

    return np.multiply(a, q, dtype=np.uint16) > np.multiply(s, p, dtype=np.uint16)


BLOCK_BITS = 16  # numpy blocks of the Petridis check and Kneser scan: at most 2^16 masks


def _violating_masks(
    rows: np.ndarray, p: int, q: int, fixed: np.ndarray, limit: int
) -> list[int]:
    """The first `limit` masks m, ascending, with q|C*XS| > p|C*X|, where C*F
    is the OR of fixed[i] and of rows[i, g] over the set bits g of m, for
    F = X (i = 0) and F = XS (i = 1).

    Each C*F is the OR of a table over the low BLOCK_BITS columns and one over
    the rest, both from `mask_tables_from_rows`, so no table has more than
    2^16 entries.  The high table's entries are taken one at a time: each ORs
    into the whole low table, and that block of 2^16 masks is counted and
    compared.  With BLOCK_BITS columns or fewer, the low table is the only
    block.  The fixed rows are ORed into every column, which gives them to
    every m but 0, and entry 0 of the low table is set to them.  With no
    fixed rows (zeros), m = 0 is the empty C, never flagged since 0 > 0 is
    false.
    """
    import numpy as np

    rows = rows | fixed[:, None]
    lo = mask_tables_from_rows(rows[:, :BLOCK_BITS])
    lo[:, 0] = fixed
    blocks = (lo,)
    if rows.shape[1] > BLOCK_BITS:
        blocks = (lo | hi[:, None] for hi in mask_tables_from_rows(rows[:, BLOCK_BITS:]).T)
    found: list[int] = []
    for j, block in enumerate(blocks):
        sizes = np.bitwise_count(block)
        bad = _exceeds(sizes[1], sizes[0], p, q).nonzero()[0]
        found += [j << BLOCK_BITS | int(m) for m in bad[: limit - len(found)]]
        if len(found) == limit:
            break
    return found


def petridis_verify(
    G: GroupTable,
    result: PetridisResult,
    mode: str = "exhaustive",
    *,
    budget: int = 1 << 20,
    seed: Optional[int] = None,
) -> PetridisVerification:
    """Check |C*X*S| <= K |C*X| over all nonempty C (exhaustive) or over
    `budget` seeded-random C (sampled).  Any violation is fatal counterevidence.

    Both modes compare q*|C*X*S| > p*|C*X| in integers, exactly, for the
    ratio p/q that `rationals.narrow_ratio` makes of K, whose terms are
    at most 2n.

    The exhaustive mode decides on the C that hold element 0 alone.
    Translation keeps both sizes: (g*C)*X = g*(C*X), and likewise for XS.
    Every nonempty C has a translate that holds element 0, g*C for
    g = 0*c^-1 with c in C (when 0 is e, that is c^-1*C), so some C violates
    the inequality exactly when some C holding 0 does.

    It also works over the left cosets of X's left stabilizer
    L = {k : k*X = X}.  Since L*X = X, C*X = (C*L)*X and
    C*X*S = (C*L)*X*S, so both sizes depend only on the left cosets c*L that
    C meets, and the rows c*X and c*XS of one representative per coset
    decide every C.  The cosets are read off the rows of X: c*X = d*X
    exactly when d^-1*c lies in L, that is when c*L = d*L, so each distinct
    row c*X is one coset.  The C that hold element 0 meet the coset 0*L, and
    each union of cosets that holds it is one of them.  The deciding pass
    covers those 2^(n/|L| - 1) unions with `_violating_masks`, the rows of
    element 0 fixed and one free column per other coset (the n - 1 other
    elements when L = {e}; none when X = G); that settles every one of the
    2^n - 1 nonempty C, so `checked` is 2^n - 1.  Only if it finds a
    violation does a second pass walk all masks, nothing fixed and in
    ascending order, to list the first 16 violations.  Both passes build
    tables of at most 2^16 entries.

    The sampled mode reads C*X and C*XS together from one
    `fixed_factor_product` of both factors, ceil(n/8) table lookups per drawn
    C.
    """
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    X, S, K = result.X, result.S, result.K
    XS = product_set(G, X, S)
    n = G.order
    # C = {e}: e*XS = XS and e*X = X, so equality there is |XS| = K|X|
    eq_identity = XS.cardinality * K.denominator == K.numerator * X.cardinality
    p, q = narrow_ratio(K, n)

    violations: list[Subset] = []
    if mode == "exhaustive":
        import numpy as np

        if (1 << n) - 1 > budget:
            raise SizeLimitExceeded(
                f"exhaustive verification needs 2^{n} - 1 <= budget, got budget {budget}"
            )
        _check_width(n)
        x_rows = expansion_rows(G, X)
        rows = np.array([x_rows, expansion_rows(G, XS)], dtype=np.uint32)
        # The C that hold element 0: one column per coset but 0's, at its
        # least element (c*X = d*X exactly when c*L = d*L).
        free = rows[:, [x_rows.index(row) for row in dict.fromkeys(x_rows)][1:]]
        if _violating_masks(free, p, q, rows[:, 0], 1):
            masks = _violating_masks(rows, p, q, np.zeros_like(rows[:, 0]), 16)
            violations = [Subset(n, m) for m in masks]
        checked = (1 << n) - 1
    elif mode == "sampled":
        if seed is None:
            raise ValueError("sampled verification requires a seed")
        masks = _nonempty_masks(random.Random(seed), n)
        times_x_xs = fixed_factor_product(G, X, XS)  # C*X, then C*XS above bit n
        full = (1 << n) - 1
        for _ in range(budget):
            cmask = next(masks)
            both = times_x_xs(cmask)
            size_cx = (both & full).bit_count()
            if q * (both.bit_count() - size_cx) > p * size_cx and len(violations) < 16:
                violations.append(Subset(n, cmask))
        checked = budget
    else:
        raise ValueError(f"unknown verification mode {mode!r}")

    return PetridisVerification(
        checked=checked,
        equality_at_identity=eq_identity,
        violations=tuple(violations),
        ok=not violations and eq_identity,
    )


# --- search for Kneser failures ------------------------------------------------


@dataclass(frozen=True)
class SearchReport:
    pairs_checked: int
    exhausted: bool
    findings: tuple[KneserReport, ...]


def _half_tables(G: GroupTable) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The right (G.cols) and left (G.mul) translations of every mask, as a
    pair (lo, hi) of per-element OR tables each: `setalg.half_tables` of the
    rows of bits, h = n // 2."""
    import numpy as np

    return tuple(
        half_tables(np.left_shift(np.uint32(1), np.array(perms, dtype=np.uint32)), G.order // 2)
        for perms in (G.cols, G.mul)
    )


def _orbit_tables(
    G: GroupTable, right: tuple[np.ndarray, np.ndarray], left: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(rmin, stab, areps, breps) from the half tables of `_half_tables`.

    For every mask m, rmin[m] is the smallest mask among m*z over z in G
    and stab[m] = #{h : m*h = m}, as uint8.  areps are the nonempty masks,
    ascending, that are the smallest of their orbit under m -> x*m*z (the
    least rmin[x*m] over x), and breps those under m -> m*y (rmin[m] == m).
    The full table of one translation is the outer OR of its two halves.
    """
    import numpy as np

    def full(halves, g):  # image(perms[g], m) for every mask m
        return np.bitwise_or.outer(halves[1][g], halves[0][g]).ravel()

    masks = np.arange(1 << G.order, dtype=np.uint32)
    rmin = masks.copy()
    stab = np.zeros(len(masks), dtype=np.uint8)
    for g in G.elements():
        right_g = full(right, g)
        stab += right_g == masks
        np.minimum(rmin, right_g, out=rmin)
    label = rmin.copy()
    for x in G.elements():
        np.minimum(label, rmin.take(full(left, x)), out=label)
    # [1:] drops the empty set, mask 0; the masks come back as np.intp
    return rmin, stab, np.flatnonzero(label == masks)[1:], np.flatnonzero(rmin == masks)[1:]


def _orbit_scan(G: GroupTable) -> list[tuple[int, int]]:
    """Every failing pair, from the products of orbit representatives.

    A failure at (A, B) is one at (x*A*z, z^-1*B*y): the product becomes
    x*(A*B)*y, every size is kept, and stab(x*T*y) = y^-1*stab(T)*y.  So it
    is enough to test R*b for R a representative of A -> x*A*z and b one of
    B -> B*y (`_orbit_tables`).  If F_R is the union of the orbits b*G of
    the failing b, then the failing partners of x*R*z are exactly z^-1*F_R,
    whichever (x, z) is taken.

    Every translate, here and in `_orbit_tables`, is read from the one set
    of half tables of `_half_tables`.  The products come in blocks of at
    most 2^BLOCK_BITS: for a block of representatives R, the rows R*g are
    OR-tabulated by half as well, so R*b = lo[b & low] | hi[b >> h].
    """
    import numpy as np

    n = G.order
    h = n // 2
    low = np.uint32((1 << h) - 1)

    def translate(halves, g, masks):  # image(perms[g], masks), broadcast
        return halves[0][g, masks & low] | halves[1][g, masks >> h]

    right, left = _half_tables(G)
    _, stab, areps, breps = _orbit_tables(G, right, left)
    elements = np.arange(n)
    rows = translate(right, elements, areps[:, None])  # rows[i, g] = R_i*g
    acard, bcard = np.bitwise_count(areps), np.bitwise_count(breps)

    failing: dict[int, list[int]] = {}  # index of R -> indices of its failing b
    step = max(1, (1 << BLOCK_BITS) // len(breps))
    width = (1 << BLOCK_BITS) // step
    blo, bhi = breps & low, breps >> h
    for i in range(0, len(areps), step):
        lo, hi = half_tables(rows[i : i + step], h)
        for j in range(0, len(breps), width):
            prod = lo.take(blo[j : j + width], axis=1)
            prod |= hi.take(bhi[j : j + width], axis=1)
            lhs = np.bitwise_count(prod)
            lhs += stab.take(prod)
            fail = lhs < acard[i : i + step, None] + bcard[None, j : j + width]
            if fail.any():  # rare, and np.nonzero is slow on a 2-D array
                for a, b in zip(*np.nonzero(fail)):
                    failing.setdefault(i + int(a), []).append(j + int(b))

    inverse = np.array(G.inv)
    found: list[tuple[int, int]] = []
    for r, bs in failing.items():
        orbits = translate(right, elements, breps[bs, None]).ravel().tolist()
        # F_R; a set, since np.unique would import numpy.ma on its first call
        partners = np.array(sorted(set(orbits)), dtype=np.uint32)
        members = translate(left, elements[:, None], rows[r])  # [x, z] = x*R*z
        amasks, first = np.unique(members, return_index=True)
        back = inverse[first % n]  # z^-1 for one z per member
        moved = translate(left, back[:, None], partners)  # [member, partner]
        found.extend(zip(np.repeat(amasks, len(partners)).tolist(), moved.ravel().tolist()))
    return found


def _fails(G: GroupTable, amask: int, bmask: int) -> bool:
    """|A*B| < |A| + |B| - |stab(A*B)|, computing the stabilizer only when
    it can decide: it has at least one element, and all n when A*B = G,
    which is certain once |A| + |B| > n."""
    cards = amask.bit_count() + bmask.bit_count()
    if cards > G.order:
        return False
    prod = product_mask(G, amask, bmask)
    room = cards - prod.bit_count()
    return (
        room > 1
        and prod != (1 << G.order) - 1
        and right_stabilizer(G, Subset(G.order, prod)).cardinality < room
    )


def kneser_violation_scan(
    G: GroupTable,
    strategy: str = "exhaustive",
    *,
    seed: Optional[int] = None,
    budget: Optional[int] = None,
) -> SearchReport:
    """Scan pairs (A, B) for |A*B| < |A| + |B| - |stab(A*B)|.

    The exhaustive strategy tests only the products of orbit
    representatives, A under A -> x*A*z and B under B -> B*y, and recovers
    every other failure by translation (see `_orbit_scan`).  It covers all
    nonempty pairs, or with a budget the first `budget` of them in mask
    order, A major: the pair (A, B) is number (A - 1)*(2^n - 1) + B, and
    the orbit pass keeps the findings up to that number.  The random strategy
    draws `budget` seeded pairs and tests each with `_fails`.  Every hit is
    re-verified before it is reported, by one plain product A*B per finding
    (`product_mask`, no table) and one stabilizer per distinct product, as
    stab(A*B) depends on A*B alone.  An exhaustive scan
    refuses an order above SUBSET_TABLE_LIMIT (`setalg._check_width`),
    whatever the budget.

    In an abelian group the inequality is Kneser's theorem and the scan finds
    nothing.  An empty finding list in a nonabelian group is a valid outcome
    too: absence at this scale proves nothing either way.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    n = G.order
    size = 1 << n
    total_pairs = (size - 1) ** 2
    found: list[tuple[int, int]] = []
    pairs_checked = 0

    if strategy == "exhaustive":
        _check_width(n)  # before any 2^n-entry table is built
        pairs_checked = total_pairs if budget is None else min(budget, total_pairs)
        found = [(a, b) for a, b in _orbit_scan(G) if (a - 1) * (size - 1) + b <= pairs_checked]
        exhausted = pairs_checked >= total_pairs
    elif strategy == "random":
        if seed is None:
            raise ValueError("random strategy requires a seed")
        if budget is None:
            raise ValueError("random strategy requires a budget")
        masks = _nonempty_masks(random.Random(seed), n)
        for _ in range(budget):
            amask, bmask = next(masks), next(masks)
            if _fails(G, amask, bmask):
                found.append((amask, bmask))
            pairs_checked += 1
        exhausted = False  # sampling never certifies full coverage
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    subsets: dict[int, Subset] = {}  # one Subset per distinct mask
    stabilizers: dict[int, Subset] = {}  # stab(T) depends on T alone

    def subset(mask: int) -> Subset:
        X = subsets.get(mask)
        if X is None:
            X = subsets[mask] = Subset(n, mask)
        return X

    reports = []
    for amask, bmask in dict.fromkeys(found):  # random draws may repeat a pair
        # Independent re-verification through the plain (non-tabulated) path.
        total = product_mask(G, amask, bmask)
        H = stabilizers.get(total)
        if H is None:
            H = stabilizers[total] = subset(right_stabilizer(G, subset(total)).mask)
        report = _kneser_report(subset(amask), subset(bmask), subset(total), H)
        if report.holds:
            raise TheoryViolation(
                f"scan flagged ({amask:#x}, {bmask:#x}) but recomputation passes"
            )
        reports.append(report)
    elements = {mask: X.elements() for mask, X in subsets.items()}
    reports.sort(
        key=lambda r: (r.A.cardinality, r.B.cardinality, elements[r.A.mask], elements[r.B.mask])
    )
    return SearchReport(
        pairs_checked=pairs_checked, exhausted=exhausted, findings=tuple(reports)
    )
