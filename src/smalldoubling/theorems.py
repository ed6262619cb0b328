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
from typing import TYPE_CHECKING, Optional

from .connectivity import CostParams, _cover, _min_cut_sides, connectivity_subgroup_solver
from .errors import EmptySet, HypothesisFailed, NotAbelian, SizeLimitExceeded
from .groups import DEFAULT_SUBSET_SEARCH_CAP, GroupTable, _check_member, image, right_coset
from .setalg import (
    CoverCertificate,
    coset_cover,
    expansion_rows,
    fixed_factor_product,
    mask_table_from_rows,
    popcount_table,
    product_mask,
    product_set,
    product_size_table,
    right_stabilizer,
)
from .subsets import Subset, iter_bits

if TYPE_CHECKING:
    import numpy as np

PETRIDIS_FLOW_MIN = 10  # smallest |A| for the min-cut path of petridis_minimizer


def _check_epsilon(epsilon: Fraction) -> Fraction:
    epsilon = Fraction(epsilon)
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    return epsilon


def _require_nonempty(*sets: Subset) -> None:
    for s in sets:
        if s.is_empty:
            raise EmptySet("this check needs nonempty sets")


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


def _kneser_report(G: GroupTable, A: Subset, B: Subset) -> KneserReport:
    total = product_set(G, A, B)
    H = right_stabilizer(G, total)
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
    return _kneser_report(G, A, B)


# --- covering corollary ------------------------------------------------------


@dataclass(frozen=True)
class CorollaryReport:
    """For |A+A| <= (2-e)|A|: the symmetry group H of A+A has |H| <= (2-e)|A|
    and A+A is covered by at most 2/e - 1 of its cosets."""

    A: Subset
    epsilon: Fraction
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
            f"|A+A| = {square.cardinality} > (2 - {epsilon})|A| = {hypothesis_bound}",
            lhs=square.cardinality,
            rhs=hypothesis_bound,
        )
    H = right_stabilizer(G, square)
    H_bound_ok = H.cardinality <= hypothesis_bound
    # A+A is H-invariant, so the distinct cosets of H through it cover it
    # exactly, |A+A| / |H| of them.
    cover = coset_cover(G, H, square, side="left")
    cover_bound = Fraction(2) / epsilon - 1
    cover_bound_ok = cover.count <= cover_bound
    return CorollaryReport(
        A=A,
        epsilon=epsilon,
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

    A: Subset
    S: Subset
    epsilon: Fraction
    K: Fraction
    hypotheses_ok: bool
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
    if A.cardinality < S.cardinality:
        raise HypothesisFailed(
            f"|A| = {A.cardinality} < |S| = {S.cardinality}",
            lhs=A.cardinality,
            rhs=S.cardinality,
        )
    prod = product_set(G, A, S)
    hyp_bound = (2 - epsilon) * S.cardinality
    if prod.cardinality > hyp_bound:
        raise HypothesisFailed(
            f"|A*S| = {prod.cardinality} > (2 - {epsilon})|S| = {hyp_bound}",
            lhs=prod.cardinality,
            rhs=hyp_bound,
        )

    K = 1 - epsilon / 2
    conn = connectivity_subgroup_solver(G, CostParams(S=S, K=K))
    H = conn.identity_atom
    assert H is not None
    sharp_bound = (Fraction(2) / epsilon - 1) * S.cardinality

    s0 = S.elements()[0]
    single = S.issubset(right_coset(G, H, s0))
    violations: list[str] = []
    cover = None
    if single:
        branch = "single_right_coset"
        bound_H = Fraction(2) / epsilon * S.cardinality
        if H.cardinality > bound_H:
            violations.append(
                f"single-coset branch: |H| = {H.cardinality} > (2/eps)|S| = {bound_H}"
            )
    else:
        branch = "multi_coset_cover"
        bound_H = Fraction(S.cardinality)
        cover = coset_cover(G, H, S, side="right")
        if H.cardinality > S.cardinality:
            violations.append(
                f"multi-coset branch: |H| = {H.cardinality} > |S| = {S.cardinality}"
            )
        cover_bound = Fraction(2) / epsilon - 1
        if cover.count > cover_bound:
            violations.append(
                f"multi-coset branch: cover needs {cover.count} cosets > "
                f"2/eps - 1 = {cover_bound}"
            )
    if violations:
        branch = "violation"
    return WeakKneserReport(
        A=A,
        S=S,
        epsilon=epsilon,
        K=K,
        hypotheses_ok=True,
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
    mode: str
    checked: int
    equality_at_identity: bool
    violations: tuple[Subset, ...]
    ok: bool


def petridis_minimizer(
    G: GroupTable,
    A: Subset,
    S: Subset,
    *,
    subset_cap: int = DEFAULT_SUBSET_SEARCH_CAP,
) -> PetridisResult:
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
    paths on random A in D10, Z20 and D8xZ4 (|S| = 3, median of 600 sets per
    size, 2 CPUs, Python 3.11): at |A| = 9 the loop wins (0.16-0.18 ms against
    0.18-0.20), at |A| = 10 the min cut does (0.17-0.18 ms against
    0.25-0.28).  At |A| = 20 in D32 and (Z2)^6, with |S| from 1 to 64, the
    worst of four random draws takes 0.1-0.5 ms, where the numpy pass over
    the whole subset table that the min cut replaced took 12-24 ms and the
    loop takes 320-420 ms.
    """
    _require_nonempty(A, S)
    _check_member(G, A, "A")
    _check_member(G, S, "S")
    elems = A.elements()
    k = len(elems)
    if k > subset_cap:
        raise SizeLimitExceeded(f"|A| = {k} exceeds the subset-search cap {subset_cap}")
    rows = expansion_rows(G, S, elems)  # local bit i stands for elems[i]
    minimize = _minimize_by_flow if k >= PETRIDIS_FLOW_MIN else _minimize_by_loop
    best, size, card = minimize(rows)
    X = Subset.from_elements(G.order, [elems[i] for i in iter_bits(best)])
    return PetridisResult(A=A, S=S, X=X, K=Fraction(size, card))


def _minimize_by_loop(rows: list[int]) -> tuple[int, int, int]:
    """(local mask, |X*S|, |X|) of the largest minimizer."""
    prods = [0] * (1 << len(rows))
    best_size = best_card = best = 0
    for m in range(1, len(prods)):
        low = m & -m
        pm = prods[m ^ low] | rows[low.bit_length() - 1]
        prods[m] = pm
        size = pm.bit_count()
        card = m.bit_count()
        lhs, rhs = size * best_card, best_size * card
        if best == 0 or lhs < rhs or (lhs == rhs and card > best_card):
            best_size, best_card, best = size, card, m
    return best, best_size, best_card


def _minimize_by_flow(rows: list[int]) -> tuple[int, int, int]:
    """The same as `_minimize_by_loop`, by Dinkelbach's iteration on min cuts.

    For K = p/q, q|N(X)| - p|X| is minimized over X (N(X) the OR of the rows
    over X) by `connectivity._min_cut_sides`.  A negative minimum gives a set
    of smaller ratio, which becomes the next K; at the optimal K the minimum
    is 0 and the kernel's largest side is the union of all minimizers, which
    is the largest minimizer of the ratio.  Every step is integer arithmetic.
    """
    X = (1 << len(rows)) - 1
    size, card = _cover(rows, X).bit_count(), X.bit_count()
    while True:
        Z = _min_cut_sides(rows, size, card)[1]
        z_size, z_card = _cover(rows, Z).bit_count(), Z.bit_count()
        if card * z_size == size * z_card:
            return Z, z_size, z_card
        size, card = z_size, z_card


def _limit_table(K: Fraction, n: int) -> list[int]:
    """limit[s] = min(floor(K*s), n) for s = 0..n.

    For integers a, s and K = p/q with q > 0, q*a > p*s exactly when
    a > floor(p*s/q), and capping at n changes nothing for a <= n.  So
    |C*X*S| > K|C*X| is `size_cxs > limit[size_cx]`: the arithmetic is done
    once here in Python ints, and the uint8 size tables are only compared.
    """
    p, q = K.numerator, K.denominator
    return [min(p * s // q, n) for s in range(n + 1)]


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

    Both modes compare through `_limit_table`, exactly.  The exhaustive
    mode reads |C*X| and |C*XS| over every mask C from
    `product_size_table`, one table when XS = X.  The sampled mode computes
    C*XS and C*X with `fixed_factor_product`, ceil(n/8) table lookups per
    product.
    """
    X, S, K = result.X, result.S, result.K
    XS = product_set(G, X, S)
    n = G.order
    limit = _limit_table(K, n)

    eq_identity = XS.cardinality == K * X.cardinality  # C = {e}: e*XS = XS, e*X = X

    violations: list[Subset] = []
    if mode == "exhaustive":
        import numpy as np

        if (1 << n) - 1 > budget:
            raise SizeLimitExceeded(
                f"exhaustive verification needs 2^{n} - 1 <= budget, got budget {budget}"
            )
        size_cx = product_size_table(G, X)
        size_cxs = size_cx if XS == X else product_size_table(G, XS)
        bad = np.nonzero(size_cxs[1:] > np.array(limit, dtype=np.uint8)[size_cx[1:]])[0]
        for idx in bad[:16]:
            violations.append(Subset(n, int(idx) + 1))
        checked = (1 << n) - 1
    elif mode == "sampled":
        if seed is None:
            raise ValueError("sampled verification requires a seed")
        rng = random.Random(seed)
        times_xs = fixed_factor_product(G, XS)
        times_x = times_xs if XS == X else fixed_factor_product(G, X)
        for _ in range(budget):
            cmask = rng.randrange(1, 1 << n)
            lhs, rhs = times_xs(cmask).bit_count(), times_x(cmask).bit_count()
            if lhs > limit[rhs] and len(violations) < 16:
                violations.append(Subset(n, cmask))
        checked = budget
    else:
        raise ValueError(f"unknown verification mode {mode!r}")

    return PetridisVerification(
        mode=mode,
        checked=checked,
        equality_at_identity=eq_identity,
        violations=tuple(violations),
        ok=not violations and eq_identity,
    )


# --- search for Kneser failures ------------------------------------------------


@dataclass(frozen=True)
class SearchReport:
    strategy: str
    seed: Optional[int]
    budget: Optional[int]
    pairs_checked: int
    exhausted: bool
    findings: tuple[KneserReport, ...]


def _right_tables(G: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    """(rmin, stab) for every mask m: rmin[m] is the smallest mask among m*z
    over z in G, and stab[m] = #{h : m*h = m}.  Each right translation table
    is built once and feeds both."""
    import numpy as np

    masks = np.arange(1 << G.order, dtype=np.uint64)
    rmin = masks.copy()
    stab = np.zeros(1 << G.order, dtype=np.int64)
    for col in G.cols:
        right = mask_table_from_rows([1 << y for y in col])
        stab += right == masks
        np.minimum(rmin, right, out=rmin)
    return rmin, stab


def _orbit_representatives(G: GroupTable, rmin: np.ndarray) -> list[int]:
    """The nonempty masks m, ascending, that are the smallest of their orbit
    under m -> x*m*z: that minimum is the least rmin[x*m] over x in G."""
    import numpy as np

    label = rmin.copy()
    for row in G.mul:
        np.minimum(label, rmin[mask_table_from_rows([1 << y for y in row])], out=label)
    masks = np.arange(len(label), dtype=np.uint64)
    return np.nonzero(label == masks)[0][1:].tolist()  # [0] is the empty set


def _failing_partners(
    G: GroupTable, amask: int, limit: int, cards: np.ndarray, stab: np.ndarray
) -> np.ndarray:
    """The masks B in 1..limit, ascending, with |A*B| < |A| + |B| - |stab(A*B)|."""
    import numpy as np

    rows = [image(col, amask) for col in G.cols]
    prod = mask_table_from_rows(rows)[1 : limit + 1]
    rhs = cards[1 : limit + 1] - stab[prod] + int(cards[amask])
    return np.nonzero(np.bitwise_count(prod) < rhs)[0] + 1


def _orbit_scan(
    G: GroupTable, rmin: np.ndarray, cards: np.ndarray, stab: np.ndarray
) -> list[tuple[int, int]]:
    """Every failing pair, from one table row per orbit of A -> x*A*z.

    A failure at (A, B) is one at (x*A*z, z^-1*B*y): the product becomes
    x*(A*B)*y, every size is kept, and stab(x*T*y) = y^-1*stab(T)*y.  So if
    R is the smallest mask of its orbit and F_R its failing partners, the
    failing partners of x*R*z are exactly z^-1*F_R, whichever (x, z) is taken.
    """
    found: list[tuple[int, int]] = []
    for rep in _orbit_representatives(G, rmin):
        partners = _failing_partners(G, rep, len(rmin) - 1, cards, stab).tolist()
        if not partners:
            continue
        members: dict[int, int] = {}  # x*R*z -> one such z
        for z, col in enumerate(G.cols):
            rz = image(col, rep)
            for row in G.mul:
                members.setdefault(image(row, rz), z)
        for amask, z in members.items():
            back = G.mul[G.inv[z]]
            found.extend((amask, image(back, b)) for b in partners)
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

    The exhaustive strategy covers all nonempty pairs: without a budget it
    scans one row per orbit of A -> x*A*z (see `_orbit_scan`), with one it
    walks the rows in mask order up to `budget` pairs.  Both use the same
    row kernel.  The random strategy draws `budget` seeded pairs and tests
    each with `_fails`.  Every hit is re-verified from scratch before it is
    reported.

    In an abelian group the inequality is Kneser's theorem and the scan finds
    nothing.  An empty finding list in a nonabelian group is a valid outcome
    too: absence at this scale proves nothing either way.
    """
    n = G.order
    size = 1 << n
    total_pairs = (size - 1) ** 2
    found: list[tuple[int, int]] = []
    pairs_checked = 0

    if strategy == "exhaustive":
        cards = popcount_table(n)
        rmin, stab = _right_tables(G)
        if budget is None:
            found = _orbit_scan(G, rmin, cards, stab)
            pairs_checked = total_pairs
        else:
            for amask in range(1, size):
                if pairs_checked >= budget:
                    break
                limit = min(size - 1, budget - pairs_checked)
                partners = _failing_partners(G, amask, limit, cards, stab)
                found.extend((amask, b) for b in partners.tolist())
                pairs_checked += limit
        exhausted = pairs_checked >= total_pairs
    elif strategy == "random":
        if seed is None:
            raise ValueError("random strategy requires a seed")
        if budget is None:
            raise ValueError("random strategy requires a budget")
        rng = random.Random(seed)
        for _ in range(budget):
            amask = rng.randrange(1, size)
            bmask = rng.randrange(1, size)
            if _fails(G, amask, bmask):
                found.append((amask, bmask))
            pairs_checked += 1
        exhausted = False  # sampling never certifies full coverage
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    reports = []
    for amask, bmask in dict.fromkeys(found):  # random draws may repeat a pair
        # Independent re-verification through the plain (non-tabulated) path.
        report = _kneser_report(G, Subset(n, amask), Subset(n, bmask))
        if report.holds:
            raise AssertionError(
                f"scan flagged ({amask:#x}, {bmask:#x}) but recomputation passes"
            )
        reports.append(report)
    reports.sort(
        key=lambda r: (r.A.cardinality, r.B.cardinality, r.A.sort_key(), r.B.sort_key())
    )
    return SearchReport(
        strategy=strategy,
        seed=seed,
        budget=budget,
        pairs_checked=pairs_checked,
        exhausted=exhausted,
        findings=tuple(reports),
    )
