"""
Named special cases and the classical q -> 1 congruences
========================================================

For d in {2, 3, 4, 6} and r = 1 the main congruence at n = p prime has a
closed form: the sign is a Legendre symbol and the exponent is a fixed
rational multiple of 1 - p^2.  Sending q -> 1 recovers the classical
truncated-hypergeometric congruences modulo p^2, which are checked here
directly with arbitrary-precision rationals.
"""

from fractions import Fraction

from qcongruence import (
    SPECIAL_CASES,
    derive_classical,
    derive_instance,
    f21_truncated_classical,
    verify_classical,
    verify_special_case,
)
from qcongruence.congruence import legendre
from qcongruence.theorems import special_case_primes

# q-side special cases: sign = Legendre(m | p), e = coef * (1 - p^2).
print("special cases at small primes:")
for label, (d, leg_arg, coef) in sorted(SPECIAL_CASES.items()):
    verdicts = []
    for p in special_case_primes(label, 23):
        inst = derive_instance(p, d, 1)
        assert inst.sign == legendre(leg_arg, p)
        assert inst.e == coef * (1 - p * p)
        verdicts.append((p, verify_special_case(label, p).holds))
    print(f"  {label} (d={d}, sign=({leg_arg}|p), e={coef}*(1-p^2)): "
          f"{verdicts}")

# Classical side: the truncated 2F1 at alpha, 1 - alpha of length p is
# congruent to (-1)^{<-alpha>_p} modulo p^2.
print("\nclassical limit:")
for alpha in [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 6)]:
    row = []
    for p in (5, 7, 11, 13, 17, 19, 23):
        inst = derive_classical(alpha, p)
        row.append((p, inst.a_classical, verify_classical(alpha, p).holds))
    print(f"  alpha = {alpha}: (p, <-alpha>_p, holds) = {row}")

# A spot value, fully visible: alpha = 1/2, p = 5.
alpha, p = Fraction(1, 2), 5
s = f21_truncated_classical(alpha, p)
a = derive_classical(alpha, p).a_classical
diff = s - (-1) ** a
print(f"\nspot value alpha=1/2, p=5:")
print(f"  truncated sum   = {s}")
print(f"  sum - (-1)^{a}    = {diff}")
print(f"  numerator       = {diff.numerator} = 3^2 * 5^2 * 41")
print(f"  5-adic valuation of the numerator is exactly 2: "
      f"{diff.numerator % 25 == 0 and diff.numerator % 125 != 0}")
