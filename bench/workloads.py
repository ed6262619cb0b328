"""Workload plans: which certificates each round issues.

A round is a fixed list of entries (command, group, set recipe).  The seed
only picks the sets and the search seeds inside each entry; the groups, set
sizes, budgets and the command mix never depend on it, so every run does the
same work.  Each round draws fresh sets, while the groups recur in every
round.  Plans are built with the plain-set groups of `plain.py`.
"""

from __future__ import annotations

import random
from fractions import Fraction

import plain

# The caps the command line writes into every config by default.
CAPS = {"order_cap": 64, "bruteforce_cap": 16, "subset_cap": 20}


def _cyc(n):
    return {"preset": "cyclic", "n": n}


def _dih(n):
    return {"preset": "dihedral", "n": n}


def _quat(n):
    return {"preset": "quaternion", "n": n}


def _sym(n):
    return {"preset": "symmetric", "n": n}


def _prod(*factors):
    return {"preset": "direct_product", "factors": list(factors)}


# --- set recipes -------------------------------------------------------------
# Each recipe takes (G, subgroups, rng), where subgroups() lists the subgroups
# of G, and returns the sets and options of one config.  Every recipe
# satisfies its command's hypotheses for every seed, so no operation is
# expected to fail.


def _sample(G, rng, k):
    return sorted(rng.sample(range(G.order), k))


def _power_run(G, g, k):
    out, x = [], G.identity
    for _ in range(k):
        out.append(x)
        x = G.mul[x][g]
    return out


def _left(G, x, X):
    return sorted({G.mul[x][a] for a in X})


def _right(G, X, y):
    return sorted({G.mul[a][y] for a in X})


def random_sets(*spec, **options):
    """Independent uniform sets of the given sizes, e.g. random_sets(("A", 4))."""

    def recipe(G, subs, rng):
        return {name: _sample(G, rng, k) for name, k in spec}, dict(options)

    return recipe


def progression(k, min_order):
    """A = x{e, g, ..., g^(k-1)} with ord(g) >= min_order, so |AA| < 2|A|;
    epsilon is the best rate 2 - |AA|/|A|."""

    def recipe(G, subs, rng):
        gens = [g for g in range(G.order) if plain.element_order(G, g) >= min_order]
        A = _left(G, rng.randrange(G.order), _power_run(G, rng.choice(gens), k))
        ratio = Fraction(len({G.mul[a][b] for a in A for b in A}), len(A))
        return {"A": A}, {"epsilon": plain.rational(2 - ratio)}

    return recipe


def single_coset(h):
    """Single-right-coset branch: A = xH0 and S a 3/4 part of a right coset
    H0g of a subgroup H0 of order h.  At epsilon = 2/3, H0 is the unique
    subgroup of least cost, so the atom is H0 and S lies in one coset of it."""

    def recipe(G, subs, rng):
        H0 = sorted(rng.choice([H for H in subs() if len(H) == h]))
        coset = _right(G, H0, rng.randrange(G.order))
        S = sorted(rng.sample(coset, 3 * h // 4))
        A = _left(G, rng.randrange(G.order), H0)
        return {"A": A, "S": S}, {"epsilon": "2/3"}

    return recipe


def multi_coset(order):
    """Multi-coset branch: S = {e, g, g^2}y and A = x{e, g, g^2} with
    ord(g) = order >= 13, so at epsilon = 1/3 the atom is trivial and S needs
    three cosets of it."""

    def recipe(G, subs, rng):
        gens = [g for g in range(G.order) if plain.element_order(G, g) == order]
        run = _power_run(G, rng.choice(gens), 3)
        S = _right(G, run, rng.randrange(G.order))
        A = _left(G, rng.randrange(G.order), run)
        return {"A": A, "S": S}, {"epsilon": "1/3"}

    return recipe


def search_seed(budget):
    def recipe(G, subs, rng):
        return {}, {"strategy": "random", "seed": rng.randrange(1 << 31), "budget": budget}

    return recipe


def exhaustive_scan(G, subs, rng):
    return {}, {"strategy": "exhaustive"}


def sampled_petridis(a, s, budget):
    def recipe(G, subs, rng):
        sets = {"A": _sample(G, rng, a), "S": _sample(G, rng, s)}
        return sets, {"mode": "sampled", "budget": budget, "seed": rng.randrange(1 << 31)}

    return recipe


def _connectivity(K, solver):
    return {"K": K, "solver": solver, "fragments": False}


_EXHAUSTIVE = {"mode": "exhaustive", "budget": 1 << 20}

# Entries are (command, group spec, recipe).
# certify: all ten commands on small groups; every third entry hands its group
# in as an explicit table.  Brute force, atoms and exhaustive Petridis stay at
# order <= 16, the rest at order <= 64.  Every entry costs 2-6 ms today.  The
# subgroup solver and theorem-main run at order <= 8, where enumerating the
# subgroups takes under 1 ms, so that a subgroup speed-up leaves this
# workload alone.
_CERTIFY = [
    ("doubling", _cyc(48), random_sets(("A", 6))),
    ("doubling", _dih(16), random_sets(("A", 5))),
    ("doubling", _dih(5), random_sets(("A", 4))),
    ("connectivity", _sym(3), random_sets(("S", 2), **_connectivity("2/3", "subgroup_restricted"))),
    ("connectivity", _prod(_cyc(2), _cyc(4)), random_sets(("S", 3), **_connectivity("3/4", "subgroup_restricted"))),
    ("connectivity", _dih(4), random_sets(("S", 3), **_connectivity("2/3", "brute_force"))),
    ("connectivity", _dih(8), random_sets(("S", 3), **_connectivity("1/2", "brute_force"))),
    ("atoms", _cyc(12), random_sets(("S", 2), K="1/2")),
    ("atoms", _quat(2), random_sets(("S", 3), K="2/3")),
    ("atoms", _dih(5), random_sets(("S", 3), K="3/5")),
    ("kneser", _cyc(20), random_sets(("A", 4), ("B", 3))),
    ("kneser", _prod(_cyc(4), _cyc(4)), random_sets(("A", 3), ("B", 3))),
    ("kneser", _prod(_cyc(2), _cyc(8)), random_sets(("A", 4), ("B", 2))),
    ("corollary-kn", _cyc(48), progression(5, 9)),
    ("corollary-kn", _cyc(20), progression(4, 7)),
    ("corollary-kn", _prod(_cyc(2), _cyc(8)), progression(4, 8)),
    ("theorem-main", _quat(2), single_coset(4)),
    ("theorem-main", _dih(4), single_coset(4)),
    ("theorem-main", _cyc(8), single_coset(4)),
    ("petridis", _dih(5), random_sets(("A", 5), ("S", 2), **_EXHAUSTIVE)),
    ("petridis", _sym(3), random_sets(("A", 4), ("S", 2), **_EXHAUSTIVE)),
    ("petridis", _quat(4), random_sets(("A", 6), ("S", 3), **_EXHAUSTIVE)),
    ("conv-gap", _cyc(48), random_sets(("A", 4))),
    ("conv-gap", _dih(8), random_sets(("A", 4))),
    ("conv-gap", _quat(4), random_sets(("A", 5))),
    ("conv-smooth", _cyc(20), random_sets(("A", 3), ("S", 2), threshold="1/3")),
    ("conv-smooth", _prod(_cyc(2), _cyc(8)), random_sets(("A", 3), ("S", 2), threshold="1/4")),
    ("conv-smooth", _dih(5), random_sets(("A", 3), ("S", 2), threshold="1/3")),
    ("search-kneser-failure", _sym(3), search_seed(150)),
    ("search-kneser-failure", _quat(2), search_seed(100)),
]

_S4, _Q32, _D16 = _sym(4), _quat(8), _dih(16)
_D4Z4 = _prod(_dih(4), _cyc(4))
_Q8Z2Z2 = _prod(_quat(2), _cyc(2), _cyc(2))
_Z2_5 = _prod(*[_cyc(2)] * 5)

# lattice: every certificate walks the subgroup lattice of an order-24..32
# group; both theorem-main branches and the subgroup-restricted connectivity
# solver.  Subgroup enumeration costs today, on the slower of the machine's
# two speeds: S4 75 ms, Q32 140, Q8xZ2xZ2 220, D4xZ4 240, D16 310, (Z2)^5
# 750; the median is the mean of the Q8xZ2xZ2 and D4xZ4 entries, inside the
# 220-310 ms tier.
_LATTICE = [
    ("theorem-main", _S4, single_coset(4)),
    ("theorem-main", _Q32, multi_coset(16)),
    ("connectivity", _Q8Z2Z2, random_sets(("S", 4), **_connectivity("3/4", "subgroup_restricted"))),
    ("theorem-main", _D4Z4, single_coset(8)),
    ("theorem-main", _D16, multi_coset(16)),
    ("theorem-main", _Z2_5, single_coset(8)),
]

# powerset: whole-powerset tables, the minimizer loop and the Kneser scan;
# subgroup enumeration is never called.  Light tier (3-35 ms): brute force,
# atoms, the order-8 scan.  Middle tier (0.25-0.45 s): three Petridis
# certificates with |A| = 20, two exhaustive over all 2^20 - 1 sets C in
# order 20, one sampled in order 64.  Heavy: the D6 scan (0.8-1.3 s).  The
# median is the fourth of seven entries, the cheapest of the middle tier.
_POWERSET = [
    ("connectivity", _prod(_cyc(4), _cyc(4)), random_sets(("S", 3), **_connectivity("2/3", "brute_force"))),
    ("atoms", _dih(8), random_sets(("S", 3), K="2/3")),
    ("search-kneser-failure", _dih(4), exhaustive_scan),
    ("petridis", _cyc(20), random_sets(("A", 20), ("S", 3), **_EXHAUSTIVE)),
    ("petridis", _dih(10), random_sets(("A", 20), ("S", 3), **_EXHAUSTIVE)),
    ("petridis", _prod(_dih(8), _cyc(4)), sampled_petridis(20, 3, 200)),
    ("search-kneser-failure", _dih(6), exhaustive_scan),
]

WORKLOADS = {
    # name: (entries, explicit-table stride, nominal seconds to issue and
    # recheck one round)
    "certify": (_CERTIFY, 3, 0.24),
    "lattice": (_LATTICE, 0, 3.5),
    "powerset": (_POWERSET, 0, 4.8),
}


def _entries(name):
    entries, stride, _ = WORKLOADS[name]
    out = []
    for i, (command, spec, recipe) in enumerate(entries):
        table = stride and i % stride == stride - 1
        out.append((command, plain.explicit(spec) if table else spec, recipe))
    return out


def timed_rounds(name: str, seconds: float) -> int:
    """Rounds that fill `seconds` at the reference speed; fixed for a given
    --seconds, so the work never depends on how fast the code runs."""
    return max(1, round(seconds / WORKLOADS[name][2]))


def group_specs(name: str) -> list[dict]:
    """Every distinct group spec of the workload, in first-use order."""
    seen, out = set(), []
    for _, spec, _ in _entries(name):
        key = plain.spec_key(spec)
        if key not in seen:
            seen.add(key)
            out.append(spec)
    return out


def build_plan(name: str, seed: int, rounds: int, oracle) -> list[list[dict]]:
    """rounds + 1 rounds of operations; round 0 is the warm-up round.

    `oracle` is the checks' `Oracle`, so plan and checks share its cached
    plain-set groups and subgroup lists.
    """
    plan = []
    for r in range(rounds + 1):
        ops = []
        for i, (command, spec, recipe) in enumerate(_entries(name)):
            rng = random.Random(f"{name}/{seed}/{r}/{i}")
            sets, options = recipe(
                oracle.group(spec), lambda spec=spec: oracle.subgroups(spec), rng
            )
            config = {"group": spec, "caps": dict(CAPS)}
            if sets:
                config["sets"] = sets
            config.update(options)
            ops.append({"command": command, "config": config})
        plan.append(ops)
    return plan
