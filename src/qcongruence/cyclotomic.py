"""Cyclotomic polynomials, built exactly and cached.

Phi_n is obtained by dividing q^n - 1 by the product of Phi_d over the
proper divisors d of n.  Every intermediate value is an honest integer
polynomial, so no Laurent-rational bookkeeping is needed.  The memo is
``functools.lru_cache``, which is thread-safe, so concurrent sweeps can
share it.
"""

from __future__ import annotations

from functools import lru_cache

from .polyring import LaurentPoly


def euler_totient(n: int) -> int:
    """Count of 1 <= k <= n with gcd(k, n) = 1."""
    if n < 1:
        raise ValueError("totient requires n >= 1")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> LaurentPoly:
    """The n-th cyclotomic polynomial Phi_n(q), memoized globally."""
    if n < 1:
        raise ValueError("cyclotomic polynomial requires n >= 1")
    num = LaurentPoly.from_dict({n: 1, 0: -1})  # q^n - 1
    for d in range(1, n):
        if n % d == 0:
            num, rem = num.divrem(cyclotomic(d))
            if not rem.is_zero:
                raise ArithmeticError(
                    f"inexact cyclotomic division at n={n}, d={d}")
    return num
