"""Plain-set reference groups for the benchmark's independent checks.

Cayley tables are rebuilt here from each group spec's defining formulas, with
the same element numbering as the package, and all algebra is done on Python
sets.  Nothing from `smalldoubling` is imported, so a fault in the package's
tables, bitsets or numpy code cannot hide itself from these checks.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, eq=False)
class PlainGroup:
    order: int
    mul: tuple
    identity: int
    inv: tuple
    labels: tuple
    name: str


def _finish(mul, identity, labels, name) -> PlainGroup:
    n = len(mul)
    inv = tuple(next(b for b in range(n) if mul[a][b] == identity) for a in range(n))
    return PlainGroup(n, tuple(tuple(r) for r in mul), identity, inv, tuple(labels), name)


def _cyclic(n):
    mul = [[(a + b) % n for b in range(n)] for a in range(n)]
    return _finish(mul, 0, [str(i) for i in range(n)], f"Z{n}")


def _dihedral(n):
    # r_i r_j = r_{i+j}, r_i s_j = s_{i+j}, s_i r_j = s_{i-j}, s_i s_j = r_{i-j}
    def elem(k):
        return (k % n, k >= n)

    def index(rot, refl):
        return rot % n + (n if refl else 0)

    mul = []
    for a in range(2 * n):
        i, sa = elem(a)
        row = []
        for b in range(2 * n):
            j, sb = elem(b)
            row.append(index(i - j if sa else i + j, sa != sb))
        mul.append(row)
    labels = [f"r{i}" for i in range(n)] + [f"s{i}" for i in range(n)]
    return _finish(mul, 0, labels, f"D{n}")


def _cycle_label(perm):
    seen, parts = set(), []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            seen.add(start)
            continue
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(str(x + 1))
            x = perm[x]
        parts.append("(" + " ".join(cycle) + ")")
    return "".join(parts) or "e"


def _symmetric(n):
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # pq applies q first, then p
    mul = [[index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]
    return _finish(mul, 0, [_cycle_label(p) for p in perms], f"S{n}")


def _quaternion(n):
    # <a, b | a^(2n) = e, b^2 = a^n, b a = a^-1 b>; index i is a^i, 2n + i is a^i b
    m = 2 * n

    def word(k):
        return (k % m, k >= m)

    mul = []
    for x in range(2 * m):
        i, bx = word(x)
        row = []
        for y in range(2 * m):
            j, by = word(y)
            if not bx:
                row.append((i + j) % m + (m if by else 0))
            elif not by:
                row.append((i - j) % m + m)
            else:
                row.append((i - j + n) % m)
        mul.append(row)

    def label(i, tail):
        head = "" if i == 0 else ("a" if i == 1 else f"a{i}")
        return (head + tail) or "e"

    labels = [label(i, "") for i in range(m)] + [label(i, "b") for i in range(m)]
    return _finish(mul, 0, labels, f"Q{4 * n}")


def _product(factors):
    radices = [g.order for g in factors]
    coords = list(itertools.product(*(range(r) for r in radices)))  # mixed radix, last fastest
    index = {c: i for i, c in enumerate(coords)}
    mul = [
        [index[tuple(g.mul[x][y] for g, x, y in zip(factors, ca, cb))] for cb in coords]
        for ca in coords
    ]
    labels = ["(" + ",".join(g.labels[x] for g, x in zip(factors, c)) + ")" for c in coords]
    return _finish(mul, 0, labels, "x".join(g.name for g in factors))


def _from_table(spec):
    table = [list(row) for row in spec["table"]]
    n = len(table)
    ok = all(len(r) == n and all(0 <= v < n for v in r) for r in table)
    ok = ok and all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n) for b in range(n) for c in range(n)
    )
    ids = [e for e in range(n) if all(table[e][a] == a == table[a][e] for a in range(n))]
    if not ok or not ids:
        raise ValueError("explicit table is not a group")
    labels = spec.get("labels") or [str(i) for i in range(n)]
    return _finish(table, ids[0], [str(x) for x in labels], spec.get("name", "table"))


_PRESETS = {"cyclic": _cyclic, "dihedral": _dihedral, "symmetric": _symmetric,
            "quaternion": _quaternion}


def build(spec: dict) -> PlainGroup:
    if "table" in spec:
        return _from_table(spec)
    if spec["preset"] == "direct_product":
        return _product([build(f) for f in spec["factors"]])
    return _PRESETS[spec["preset"]](spec["n"])


def explicit(spec: dict) -> dict:
    """The same group handed in as an explicit table, as a group file would."""
    G = build(spec)
    return {"table": [list(r) for r in G.mul], "labels": list(G.labels)}


# --- plain-set algebra ---------------------------------------------------------


def generated(G, gens) -> frozenset:
    """All words in `gens`: the subgroup they generate (finite group)."""
    out = {G.identity}
    queue = [G.identity]
    for x in queue:
        for s in gens:
            y = G.mul[x][s]
            if y not in out:
                out.add(y)
                queue.append(y)
    return frozenset(out)


def subgroups(G) -> list[frozenset]:
    """Every subgroup, grown from {e} one generator at a time.

    <H, g> = <H, hg> for h in H, so one g per right coset Hg suffices.
    """
    trivial = frozenset([G.identity])
    gens = {trivial: ()}
    frontier = [trivial]
    while frontier:
        grown = []
        for H in frontier:
            covered = set(H)
            for g in range(G.order):
                if g in covered:
                    continue
                covered |= {G.mul[h][g] for h in H}
                L = generated(G, gens[H] + (g,))
                if L not in gens:
                    gens[L] = gens[H] + (g,)
                    grown.append(L)
        frontier = grown
    return sorted(gens, key=lambda H: (len(H), sorted(H)))


def element_order(G, g) -> int:
    k, x = 1, g
    while x != G.identity:
        x = G.mul[x][g]
        k += 1
    return k


# --- closed forms for subgroup counts ------------------------------------------


def _tau(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def _sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def _f2_subspaces(k):
    # Gaussian binomials [k choose j]_2 summed over j
    total = 0
    for j in range(k + 1):
        num = den = 1
        for i in range(j):
            num *= 2 ** (k - i) - 1
            den *= 2 ** (i + 1) - 1
        total += num // den
    return total


def closed_form_subgroup_count(spec: dict):
    """Known subgroup counts, or None where only a stored count exists."""
    preset = spec.get("preset")
    if preset == "cyclic":
        return _tau(spec["n"])
    if preset == "dihedral":
        return _tau(spec["n"]) + _sigma(spec["n"])
    if preset == "quaternion":
        return _tau(2 * spec["n"]) + _sigma(spec["n"])
    if preset == "symmetric":
        return {1: 1, 2: 2, 3: 6, 4: 30}.get(spec["n"])
    if preset == "direct_product" and all(
        f == {"preset": "cyclic", "n": 2} for f in spec["factors"]
    ):
        return _f2_subspaces(len(spec["factors"]))
    return None


def spec_key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


def count_key(spec: dict, G: PlainGroup) -> str:
    """Name under which stored counts are kept; explicit tables all carry
    the name "table", so they are told apart by a digest of the table."""
    if "table" not in spec:
        return G.name
    digest = hashlib.sha256(spec_key(spec).encode()).hexdigest()[:12]
    return f"{G.name}-{G.order}-{digest}"


def rational(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"
