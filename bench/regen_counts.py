"""Regenerate expected_counts.json from the plain-set definitions.

Two kinds of counts have no closed form here and are kept as a stored copy:

* the number of subgroups of each workload group that is neither cyclic,
  dihedral, generalized quaternion, symmetric nor elementary abelian;
* the number of pairs (A, B) of nonempty sets with
  |AB| < |A| + |B| - |stab(AB)| in each group that a workload scans
  exhaustively for Kneser failures.

Usage (from the repository root; the D6 scan takes about 20 s):

    python3 bench/regen_counts.py
"""

from __future__ import annotations

import json
import sys
from itertools import combinations

import plain
import workloads
from checks import HERE, load_oracles


def kneser_failures(G, naive) -> int:
    """Pairs of nonempty sets failing Kneser's bound, by plain-set search.

    B grows one element at a time in increasing order, so every nonempty B is
    visited once and AB is the union of the right translates Ab, b in B.
    """
    n = G.order
    stab_size: dict = {}
    count = 0
    elements = list(range(n))
    for k in range(1, n + 1):
        for A in combinations(elements, k):
            rows = [frozenset(G.mul[a][b] for a in A) for b in elements]
            stack = [(0, 0, frozenset())]
            while stack:
                start, size, prod = stack.pop()
                for j in range(start, n):
                    AB = prod | rows[j]
                    sizes = k + size + 1  # |A| + |B|
                    if len(AB) < sizes - 1:  # |stab(AB)| >= 1, so nothing fails above
                        if AB not in stab_size:
                            stab_size[AB] = len(naive.naive_right_stabilizer(G, AB))
                        if len(AB) < sizes - stab_size[AB]:
                            count += 1
                    stack.append((j + 1, size + 1, AB))
    return count


def main() -> int:
    root = HERE.parent
    naive = load_oracles(root)
    subgroups, failures = {}, {}
    for name in workloads.WORKLOADS:
        for spec in workloads.group_specs(name):
            G = plain.build(spec)
            if plain.closed_form_subgroup_count(spec) is None:
                subgroups[plain.count_key(spec, G)] = len(plain.subgroups(G))
        for command, spec, recipe in workloads.WORKLOADS[name][0]:
            if recipe is workloads.exhaustive_scan:
                G = plain.build(spec)
                print(f"scanning {G.name} ...", file=sys.stderr, flush=True)
                failures[G.name] = kneser_failures(G, naive)
    out = {"subgroups": dict(sorted(subgroups.items())),
           "kneser_failures": dict(sorted(failures.items()))}
    (HERE / "expected_counts.json").write_text(json.dumps(out, indent=2) + "\n")
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
