"""Naive reference implementations used as independent oracles.

Everything here works on plain Python sets with direct definitional loops:
no bitmasks, no tables, no pruning.  Deliberately slow and obvious.  The two
exceptions are kept as they stood when their fast paths replaced them:
`subgroup_atom`, the subgroup loop that the connectivity solver ran before
its min cut, and `kneser_prefix_walk`, the row walk that a budgeted
exhaustive Kneser scan ran before the orbit pass took budgets.
`full_table_petridis` does use masks: it tabulates C*X and C*X*S at every
mask C in plain lists, as the exhaustive Petridis check did before it took
blocks, and imports nothing from the package.
"""

from fractions import Fraction
from itertools import combinations, permutations, product


def naive_product(G, A, B):
    return {G.mul[a][b] for a in A for b in B}


def naive_inverse(G, A):
    return {G.inv[a] for a in A}


def naive_left_translate(G, x, A):
    return {G.mul[x][a] for a in A}


def naive_right_translate(G, A, x):
    return {G.mul[a][x] for a in A}


def mixed_radix_decode(x, radices):
    """The digits of x in the mixed radix `radices`, most significant first."""
    digits = []
    for r in reversed(radices):
        x, digit = divmod(x, r)
        digits.append(digit)
    return tuple(reversed(digits))


def relabel(mul, perm):
    """The table `mul` with each element a renamed perm[a]."""
    out = [[None] * len(mul) for _ in mul]
    for a, row in enumerate(mul):
        for b, ab in enumerate(row):
            out[perm[a]][perm[b]] = perm[ab]
    return out


def naive_table_violation(mul):
    """The first violated group axiom of a raw table, as (axiom, witness), or None.

    Axioms in the order nonempty, shape, closure, identity, associativity
    (all n^3 triples), inverses; each witness is the first offending tuple.
    """
    n = len(mul)
    if n == 0:
        return ("nonempty", ())
    for a in range(n):
        if len(mul[a]) != n:
            return ("shape", (a,))
    for a, b in product(range(n), repeat=2):
        v = mul[a][b]
        if not isinstance(v, int) or not 0 <= v < n:
            return ("closure", (a, b))
    identities = [
        e for e in range(n) if all(mul[e][x] == x and mul[x][e] == x for x in range(n))
    ]
    if not identities:
        return ("identity", ())
    for a, b, c in product(range(n), repeat=3):
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            return ("associativity", (a, b, c))
    e = identities[0]
    for a in range(n):
        if not any(mul[a][b] == e and mul[b][a] == e for b in range(n)):
            return ("inverses", (a,))
    return None


def naive_right_stabilizer(G, T):
    T = set(T)
    return {h for h in range(G.order) if {G.mul[t][h] for t in T} == T}


def naive_kneser_fails(G, A, B):
    """|A*B| < |A| + |B| - |stab(A*B)|, stab the right stabilizer."""
    prod = naive_product(G, A, B)
    return len(prod) < len(set(A)) + len(set(B)) - len(naive_right_stabilizer(G, prod))


def naive_closure(G, gens):
    out = {G.identity} | set(gens)
    while True:
        grown = out | {G.mul[a][b] for a in out for b in out}
        if grown == out:
            return out
        out = grown


def is_subgroup_naive(G, H):
    H = set(H)
    if not H or G.identity not in H:
        return False
    return all(G.mul[a][b] in H for a in H for b in H)


def naive_subgroups(G):
    """All subgroups by checking every subset of G for closure."""
    n = G.order
    out = []
    for mask in range(1, 1 << n):
        H = {i for i in range(n) if (mask >> i) & 1}
        if is_subgroup_naive(G, H):
            out.append(frozenset(H))
    return out


def naive_petridis_minimizer(G, A, S):
    """(X, K): X minimizes K = |X*S|/|X| over nonempty X inside A, ties going
    to the larger X, then to the lexicographically smaller sorted tuple."""
    K, _, X = min(
        (Fraction(len(naive_product(G, X, S)), len(X)), -len(X), X)
        for size in range(1, len(A) + 1)
        for X in combinations(sorted(A), size)
    )
    return set(X), K


def full_table_petridis(G, X, S, K):
    """(checked, ok, equality_at_identity, first 16 violations) of the
    exhaustive check |C*X*S| <= K|C*X| over every nonempty C, as masks C in
    ascending order.  One plain-list table per factor F in (X, X*S): entry m
    is the OR of the masks of g*F over the set bits g of m."""
    n = G.order
    XS = naive_product(G, X, S)
    tables = []
    for F in (X, XS):
        table = [0]
        for g in range(n):
            row = sum(1 << y for y in naive_left_translate(G, g, F))
            table += [m | row for m in table]
        tables.append(table)
    cx, cxs = tables
    p, q = K.numerator, K.denominator
    violations = []
    for c in range(1, 1 << n):
        if q * cxs[c].bit_count() > p * cx[c].bit_count():
            violations.append(c)
            if len(violations) == 16:
                break
    equality = q * len(XS) == p * len(set(X))
    return (1 << n) - 1, equality and not violations, equality, violations


def naive_cost(G, S, K, A):
    if not A:
        return Fraction(0)
    return Fraction(len(naive_product(G, A, S))) - Fraction(K) * len(A)


def naive_connectivity(G, S, K):
    """(kappa, all fragments) by scanning every nonempty subset."""
    n = G.order
    best = None
    fragments = []
    for mask in range(1, 1 << n):
        A = frozenset(i for i in range(n) if (mask >> i) & 1)
        c = naive_cost(G, S, K, A)
        if best is None or c < best:
            best = c
            fragments = [A]
        elif c == best:
            fragments.append(A)
    return best, fragments


def naive_identity_atom(G, S, K):
    kappa, fragments = naive_connectivity(G, S, K)
    containing = [f for f in fragments if G.identity in f]
    smallest = min(len(f) for f in containing)
    atoms = [f for f in containing if len(f) == smallest]
    assert len(atoms) == 1, "theory guarantees a unique identity atom for K < 1"
    return kappa, atoms[0]


def subgroup_atom(G, S, K):
    """(kappa, identity atom) as the least cost over the subgroups of G, K < 1.

    The identity atom is a subgroup and a fragment, so the subgroup minimum
    attains kappa; among subgroups attaining it, the smallest is the identity
    atom because two identity-containing fragments intersect in a fragment.
    The package is imported here, so loading this module by path needs none.
    """
    from smalldoubling.groups import enumerate_subgroups
    from smalldoubling.setalg import product_mask

    p, q = K.numerator, K.denominator

    # Subgroups arrive by cardinality, so the first one to reach the least
    # cost is the smallest attaining it; `ties` counts those of its size.
    best = atom = None
    ties = 0
    for H in enumerate_subgroups(G):
        # cost(H) >= (1-K)|H|, so once that floor exceeds the best cost the
        # subgroup cannot matter (not even as an equal-cost tie).
        if best is not None and (q - p) * H.cardinality > best:
            continue
        size = product_mask(G, H.mask, S.mask).bit_count()
        val = q * size - p * H.cardinality
        if best is None or val < best:
            best, atom, ties = val, H, 1
        elif val == best and H.cardinality == atom.cardinality:
            ties += 1
    assert ties == 1, "theory guarantees a unique identity atom for K < 1"
    return Fraction(best, q), atom


def failing_partners(G, amask, limit, cards, stab):
    """The masks B in 1..limit, ascending, with |A*B| + |stab(A*B)| < |A| + |B|."""
    import numpy as np
    from smalldoubling.groups import image
    from smalldoubling.setalg import mask_table_from_rows

    rows = [image(col, amask) for col in G.cols]
    prod = mask_table_from_rows(rows)[1 : limit + 1]
    lhs = np.bitwise_count(prod) + stab[prod]
    return np.nonzero(lhs < cards[1 : limit + 1] + int(cards[amask]))[0] + 1


def kneser_prefix_walk(G, budget):
    """(pairs_checked, exhausted, failing pairs) over the first `budget` pairs
    (A, B) in mask order, A major, one full table row A*B per A; the pairs
    come in that order.  stab[m] = #{h : m*h = m} for every mask m."""
    import numpy as np
    from smalldoubling.setalg import mask_table_from_rows

    n = G.order
    size = 1 << n
    masks = np.arange(size, dtype=np.uint64)
    stab = np.zeros(size, dtype=np.uint8)
    for col in G.cols:
        stab += mask_table_from_rows([1 << y for y in col]) == masks
    cards = np.bitwise_count(masks)
    found = []
    pairs_checked = 0
    for amask in range(1, size):
        if pairs_checked >= budget:
            break
        limit = min(size - 1, budget - pairs_checked)
        partners = failing_partners(G, amask, limit, cards, stab)
        found.extend((amask, b) for b in partners.tolist())
        pairs_checked += limit
    return pairs_checked, pairs_checked >= (size - 1) ** 2, found


def naive_convolve(G, u, v):
    n = G.order
    out = [Fraction(0)] * n
    for x, y in product(range(n), repeat=2):
        out[x] += u[y] * v[G.mul[G.inv[y]][x]]
    return out


def naive_autocorrelation(G, A):
    A = set(A)
    return [
        Fraction(len(A & naive_left_translate(G, x, A)), len(A)) for x in range(G.order)
    ]


def naive_cycles(perm):
    """Cycle notation of a permutation of 0..n-1 on points 1..n, each cycle
    from its least point, cycles by least point, fixed points left out; "e"
    for the identity."""
    cycles = []
    for start in range(len(perm)):
        cycle = [start]
        while perm[cycle[-1]] != start:
            cycle.append(perm[cycle[-1]])
        if len(cycle) > 1 and min(cycle) == start:
            cycles.append("(" + " ".join(str(x + 1) for x in cycle) + ")")
    return "".join(cycles) or "e"


def naive_preset(preset, n):
    """(mul, labels, name, spec) of the cyclic, dihedral, quaternion or
    symmetric preset with parameter n, entry by entry from the formulas the
    presets were first built with: a + b mod n for Z_n, for D_n (m = n, t = 0)
    and Q_4n (m = 2n, t = n) four formulas on a^i (index i) and a^i b (index
    m + i), and for S_n the composition pq (q first) of the permutations in
    lexicographic order, point by point."""
    def power_label(i, tail):
        head = "" if i == 0 else ("a" if i == 1 else f"a{i}")
        return (head + tail) or "e"

    spec = {"preset": preset, "n": n}
    if preset == "symmetric":
        perms = list(permutations(range(n)))
        mul = [[perms.index(tuple(p[q[i]] for i in range(n))) for q in perms] for p in perms]
        labels = tuple(naive_cycles(p) for p in perms)
        return tuple(map(tuple, mul)), labels, f"S{n}", spec
    if preset == "cyclic":
        mul = [[(a + b) % n for b in range(n)] for a in range(n)]
        return tuple(map(tuple, mul)), tuple(map(str, range(n))), f"Z{n}", spec
    m, t = (n, 0) if preset == "dihedral" else (2 * n, n)
    mul = [[0] * (2 * m) for _ in range(2 * m)]
    for i in range(m):
        for j in range(m):
            mul[i][j] = (i + j) % m              # a^i a^j
            mul[i][j + m] = (i + j) % m + m      # a^i (a^j b)
            mul[i + m][j] = (i - j) % m + m      # (a^i b) a^j
            mul[i + m][j + m] = (i - j + t) % m  # (a^i b)(a^j b) = a^(i-j+t)
    if preset == "dihedral":
        labels, name = [f"r{i}" for i in range(n)] + [f"s{i}" for i in range(n)], f"D{n}"
    else:
        labels = [power_label(i, "") for i in range(m)] + [power_label(i, "b") for i in range(m)]
        name = f"Q{4 * n}"
    return tuple(map(tuple, mul)), tuple(labels), name, spec
