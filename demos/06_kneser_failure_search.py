"""Hunting for nonabelian failures of Kneser's inequality.

In abelian groups |A+B| >= |A| + |B| - |H| is a theorem (H the symmetry
group of the sumset).  In nonabelian groups it can fail, so the toolkit
ships an exhaustive and a seeded, re-verifying search.  The exhaustive scan
runs one table row per orbit of A -> x*A*z and recovers the failures of
every other A from its orbit representative.
"""

from smalldoubling import dihedral, kneser_violation_scan, quaternion, symmetric


def show(G, subset):
    return "{" + ", ".join(G.labels[i] for i in subset.elements()) + "}"


D6 = dihedral(6)
print("Exhaustive search over every nonempty pair (A, B):")
for G in (symmetric(3), dihedral(4), quaternion(2), D6):
    rep = kneser_violation_scan(G, "exhaustive")
    print(
        f"  {G.name:3} order {G.order:2}: {rep.pairs_checked:>10} pairs, "
        f"{len(rep.findings)} failures"
    )

first = rep.findings[0]  # D6's; findings are sorted by |A|, |B|, then elements
print("\nSmallest failure in D6:")
print(f"  A = {show(D6, first.A)}")
print(f"  B = {show(D6, first.B)}")
print(
    f"  |A*B| = {first.lhs} < |A| + |B| - |stab(A*B)| = "
    f"{first.A.cardinality} + {first.B.cardinality} - {first.H.cardinality} = {first.rhs}"
)

print("\nSeeded random search in the same group, replayable from its seed:")
rep = kneser_violation_scan(D6, "random", seed=2026, budget=20_000)
print(
    f"  D6: {rep.pairs_checked} sampled pairs, {len(rep.findings)} failures "
    f"(seed {rep.seed})"
)
print("Every reported failure was recomputed independently before being listed.")
