from math import gcd

import pytest

from qcongruence.cyclotomic import cyclotomic, euler_totient
from qcongruence.polyring import LaurentPoly


def test_totient_examples():
    assert euler_totient(1) == 1
    assert euler_totient(12) == 4  # {1, 5, 7, 11}
    for p in (2, 3, 5, 7, 11, 13):
        assert euler_totient(p) == p - 1
    assert euler_totient(12) == sum(1 for k in range(1, 13) if gcd(k, 12) == 1)


def test_totient_rejects_nonpositive():
    with pytest.raises(ValueError):
        euler_totient(0)


def test_prime_is_q_integer():
    for p in (2, 3, 5, 7, 11):
        assert cyclotomic(p) == LaurentPoly(0, [1] * p)


def test_small_values():
    assert cyclotomic(1) == LaurentPoly.from_dict({1: 1, 0: -1})
    assert cyclotomic(6) == LaurentPoly.from_dict({2: 1, 1: -1, 0: 1})


def test_product_over_divisors():
    for n in range(1, 61):
        prod = LaurentPoly.one()
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == LaurentPoly.from_dict({n: 1, 0: -1}), n


def test_degree_is_totient():
    for n in range(1, 80):
        assert cyclotomic(n).degree == euler_totient(n)


def test_value_at_one_prime_power_law():
    for n in range(2, 201):
        m, p = n, None
        f = 2
        while f * f <= m:
            if m % f == 0:
                p = f
                while m % f == 0:
                    m //= f
                break
            f += 1
        if p is None:
            expected = n  # n prime
        elif m == 1:
            expected = p  # prime power
        else:
            expected = 1
        assert cyclotomic(n)(1) == expected, n


def coefficient(p: LaurentPoly, exp: int) -> int:
    """The coefficient of q^exp in p."""
    i = exp - p.low
    return p.coeffs[i] if 0 <= i < len(p.coeffs) else 0


def test_constant_term_is_one():
    for n in range(2, 80):
        assert coefficient(cyclotomic(n), 0) == 1


def test_palindromic_coefficients():
    for n in range(2, 80):
        cs = cyclotomic(n).coeffs
        assert cs == tuple(reversed(cs)), n


def test_cache_is_consistent_across_threads():
    import concurrent.futures

    cyclotomic.cache_clear()
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(cyclotomic, [30] * 16 + [105] * 16))
    assert all(r == cyclotomic(30) for r in results[:16])
    assert all(r == cyclotomic(105) for r in results[16:])
