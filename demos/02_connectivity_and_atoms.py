"""Connectivity: the cost functional, its minimizers, and their structure.

For a fixed nonempty S and a rate K < 1, the cost of a set A is
c(A) = |A*S| - K|A|.  The minimum over nonempty A is the connectivity
kappa; minimum-cost sets are fragments, smallest fragments are atoms.
The punchline: the atoms are exactly the left cosets of one subgroup,
and two independent solvers agree on it.
"""

from fractions import Fraction

from smalldoubling import (
    connectivity_bruteforce,
    connectivity_subgroup_solver,
    cost,
    cyclic,
    symmetric,
    verify_atom_proposition,
)

Z8 = cyclic(8)
S = Z8.subset([0, 1])
K = Fraction(1, 2)

print(f"Costs in Z8 with S = {S.elements()}, K = 1/2")
for elems in ([0], [0, 1], [0, 1, 2], [0, 4], list(range(8))):
    A = Z8.subset(elems)
    print(f"  c({str(elems):24}) = {cost(Z8, S, K, A)}")

brute = connectivity_bruteforce(Z8, S, K, collect_fragments=True)
print(f"\nBrute force over all 255 nonempty subsets:")
print(f"  kappa = {brute.kappa}")
print(f"  identity atom = {brute.identity_atom.elements()}")
print(f"  fragments = {[f.elements() for f in brute.fragments]}")

sub = connectivity_subgroup_solver(Z8, S, K)
print(f"Subgroup-restricted solver: kappa = {sub.kappa}, atom = {sub.identity_atom.elements()}")
assert (brute.kappa, brute.identity_atom) == (sub.kappa, sub.identity_atom)

print("\nAtoms are the left cosets of the identity atom:")
for G, s_elems in ((cyclic(6), [0, 3]), (symmetric(3), [0, 2]), (Z8, [0, 1])):
    rep = verify_atom_proposition(G, G.subset(s_elems), Fraction(1, 2))
    atoms = [a.elements() for a in rep.atoms]
    print(f"  {G.name}, S = {tuple(s_elems)}: H = {rep.identity_atom.elements()}, atoms = {atoms}")
    assert rep.ok
