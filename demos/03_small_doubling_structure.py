"""Structure theorems for sets of small doubling, with certificates.

Abelian case: if |A+A| <= (2-e)|A|, the symmetry group H of A+A has
|H| <= (2-e)|A| and A+A is covered by at most 2/e - 1 cosets of H; the
progression {0..N-1} with e = 1/N shows the count 2/e - 1 is sharp.

General case: if |A| >= |S| and |A*S| <= (2-e)|S|, then S lives in one
right coset of a subgroup H with |H| <= (2/e)|S|, or is covered by at
most 2/e - 1 right cosets of an H no bigger than S.
"""

from fractions import Fraction

from smalldoubling import (
    cyclic,
    kneser_check,
    kneser_corollary_check,
    symmetric,
    weak_kneser_check,
)

print("Kneser's inequality |A+B| >= |A| + |B| - |H| in Z6")
Z6 = cyclic(6)
for a_elems, b_elems in (([0, 3], [0, 3]), ([0, 1], [0, 1]), ([0, 2], [0, 3])):
    rep = kneser_check(Z6, Z6.subset(a_elems), Z6.subset(b_elems))
    tag = "equality" if rep.equality else "strict"
    print(f"  A={tuple(a_elems)} B={tuple(b_elems)}: {rep.lhs} >= {rep.rhs} ({tag})")

print("\nSharpness of the covering corollary: A = {0..N-1} in Z(4N), e = 1/N")
for N in (3, 5, 8):
    G = cyclic(4 * N)
    rep = kneser_corollary_check(G, G.subset(range(N)), Fraction(1, N))
    print(
        f"  N={N}: |H| = {rep.H.cardinality}, cover uses {rep.cover.count} cosets, "
        f"bound 2/e - 1 = {rep.cover_bound}"
    )

print("\nWeak Kneser-type theorem in a nonabelian group")
S3 = symmetric(3)
H = S3.subset([0, 2])  # {e, (1 2)}
rep = weak_kneser_check(S3, H, H, Fraction(1))
print(f"  S3, A = S = {{e, (1 2)}}, e = 1: branch {rep.branch}")
print(f"    atom H = {rep.atom.elements()}, |H| = {rep.atom.cardinality} <= {rep.bound_H_size}")

print("\nMulti-coset branch: a short progression in Z6, e = 1/2")
Z6 = cyclic(6)
S = Z6.subset([0, 1])
eps = Fraction(1, 2)
rep = weak_kneser_check(Z6, S, S, eps)
print(f"  branch {rep.branch}: atom {rep.atom.elements()}, kappa {rep.kappa}")
print(
    f"  cover of S by right cosets: representatives {rep.cover.representatives} "
    f"(count {rep.cover.count} <= 2/e - 1 = {2 / eps - 1})"
)

print("\nIn a finite ambient group the whole group competes for the atom:")
Z20 = cyclic(20)
S = Z20.subset(range(5))
rep = weak_kneser_check(Z20, S, S, Fraction(1, 5))
print(f"  Z20, A = S = {{0..4}}, e = 1/5: atom has size {rep.atom.cardinality} (all of Z20),")
print(f"  so S sits in a single coset; |H| = 20 <= (2/e)|S| = {rep.bound_H_size}")
