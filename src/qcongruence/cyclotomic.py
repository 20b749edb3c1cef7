"""Cyclotomic polynomials, built exactly and cached.

Phi_n is obtained by dividing q^n - 1 by the product of Phi_d over the
proper divisors d of n.  Every intermediate value is an honest integer
polynomial, so no Laurent-rational bookkeeping is needed.  The cache is
append-only and guarded by a lock, so concurrent sweeps can share it.
"""

from __future__ import annotations

import threading
from math import gcd

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


class CyclotomicCache:
    """Thread-safe memo table n -> Phi_n."""

    def __init__(self):
        self._table: dict[int, LaurentPoly] = {}
        self._lock = threading.Lock()

    def get(self, n: int) -> LaurentPoly:
        if n < 1:
            raise ValueError("cyclotomic polynomial requires n >= 1")
        poly = self._table.get(n)
        if poly is not None:
            return poly
        with self._lock:
            return self._build(n)

    def _build(self, n: int) -> LaurentPoly:
        # called with the lock held
        poly = self._table.get(n)
        if poly is not None:
            return poly
        # q^n - 1
        num = LaurentPoly.from_dict({n: 1, 0: -1})
        for d in range(1, n):
            if n % d == 0:
                quo, rem = num.divrem(self._build(d))
                if not rem.is_zero:
                    raise ArithmeticError(
                        f"inexact cyclotomic division at n={n}, d={d}")
                num = quo
        self._table[n] = num
        return num


_shared = CyclotomicCache()


def cyclotomic(n: int) -> LaurentPoly:
    """The n-th cyclotomic polynomial Phi_n(q), memoized globally."""
    return _shared.get(n)
