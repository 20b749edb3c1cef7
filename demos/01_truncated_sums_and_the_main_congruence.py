"""
Truncated q-hypergeometric sums and the main congruence
=======================================================

A walk through the core objects: exact Laurent polynomials in q,
truncated basic hypergeometric sums kept as rational functions with
structurally factored denominators, and the verdicts obtained by exact
division modulo a cyclotomic square.  No floating point anywhere.
"""

from qcongruence import (
    cyclotomic,
    derive_instance,
    phi21_truncated,
    verify_theorem,
)

# The sum under study, for a parameter triple (n, d, r) with gcd(n, d) = 1:
#
#     S(n, d, r) = sum_{k=0}^{n-1} (q^r; q^d)_k (q^{d-r}; q^d)_k
#                                  / ((q^d; q^d)_k)^2
#
# The claim is that S(n, d, r) is congruent to a single signed monomial
# (-1)^a q^e modulo Phi_n(q)^2, where a, e are derived from (n, d, r).

n, d, r = 5, 3, 1
inst = derive_instance(n, d, r)
print(f"instance (n, d, r) = ({n}, {d}, {r})")
print(f"  residue index a = {inst.a}   (a d + r = {inst.a * d + r} = "
      f"{(inst.a * d + r) // n} * n)")
print(f"  predicted value: {'-' if inst.sign < 0 else ''}q^{inst.e}")

# The sum itself, as an exact rational function.  The denominator is a
# product of binomials (1 - q^m), kept as the sorted tuple of the
# exponents m, so coprimality with Phi_n is a purely arithmetic check
# (n divides no exponent m).
lhs = phi21_truncated(r, d - r, d, d, 0, n)
print(f"\nnumerator degree: {lhs.num.degree}")
print(f"denominator factors (1 - q^m) for m in: {lhs.factors}")

# The modulus: Phi_5(q)^2 = (1 + q + q^2 + q^3 + q^4)^2.
print(f"\nPhi_{n}(q) = {cyclotomic(n)}")

# The verdict comes from cross multiplication and exact polynomial
# division; a holding congruence means literally zero remainder.
verdict = verify_theorem(n, d, r)
print(f"\nS({n}, {d}, {r}) == {'-' if inst.sign < 0 else ''}q^{inst.e} "
      f"(mod Phi_{n}^2)?  {verdict.holds}")

# The statement is false in general for even n.  The smallest
# counterexample with n > 2 is (4, 3, 1); the witness is the nonzero
# remainder.
v = verify_theorem(4, 3, 1)
print(f"\nS(4, 3, 1) verdict: {v.holds}")
print(f"  witness remainder mod Phi_4^2: {v.witness}")

# The exact failure pattern on a small grid: even n with odd (a d + r)/n.
print("\nfailure pattern (n <= 8, d <= 5, r < d):")
from math import gcd
for nn in range(2, 9):
    for dd in range(2, 6):
        if gcd(nn, dd) != 1:
            continue
        for rr in range(1, dd):
            ii = derive_instance(nn, dd, rr)
            m = (ii.a * dd + rr) // nn
            holds = verify_theorem(nn, dd, rr).holds
            marker = "" if holds else "   <-- even n, odd (a d + r)/n"
            if not holds or (nn % 2 == 0):
                print(f"  ({nn}, {dd}, {rr}): holds={holds}, "
                      f"(a d + r)/n = {m}{marker}")
