from fractions import Fraction

import pytest

from qcongruence import theorems
from qcongruence.congruence import CongruenceDomainError
from qcongruence.theorems import (
    derive_classical,
    f21_truncated_classical,
    verify_classical,
)

HALF = Fraction(1, 2)


class TestDeriveClassical:
    def test_residue_of_minus_half(self):
        # <-1/2>_p = (p-1)/2
        for p in (3, 5, 7, 11, 13):
            assert derive_classical(HALF, p).a_classical == (p - 1) // 2

    def test_residue_of_minus_third(self):
        assert derive_classical(Fraction(1, 3), 7).a_classical == 2
        assert derive_classical(Fraction(1, 3), 5).a_classical == 3

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            derive_classical(HALF, 9)

    def test_rejects_p_dividing_denominator(self):
        with pytest.raises(CongruenceDomainError):
            derive_classical(Fraction(1, 5), 5)


class TestTruncatedSum:
    def test_length_one(self):
        assert f21_truncated_classical(HALF, 1) == 1

    def test_hand_value(self):
        # 1 + (1/2)^2 + (1/2 * 3/2 / 2)^2 = 1 + 1/4 + 9/64
        assert f21_truncated_classical(HALF, 3) == Fraction(89, 64)

    def test_integer_alpha_terminates(self):
        # alpha = -2: (alpha)_k vanishes for k >= 3, sum is a finite value
        assert f21_truncated_classical(-2, 10) == f21_truncated_classical(-2, 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            f21_truncated_classical(HALF, 0)


class TestVerifyClassical:
    def test_spot_valuation(self):
        # alpha = 1/2, p = 5: sum - (-1)^2 = 9225/16384 and
        # 9225 = 3^2 * 5^2 * 41, so the 5-adic valuation is exactly 2
        diff = f21_truncated_classical(HALF, 5) - 1
        assert diff == Fraction(9225, 16384)
        assert diff.numerator % 25 == 0 and diff.numerator % 125 != 0

    def test_half_all_small_primes(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            assert verify_classical(HALF, p).holds, p

    def test_standard_alphas(self):
        alphas = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
                  Fraction(1, 4), Fraction(3, 4), Fraction(1, 6),
                  Fraction(5, 6), Fraction(1, 12), Fraction(5, 12)]
        for alpha in alphas:
            for p in (5, 7, 11, 13, 17, 19):
                if alpha.denominator % p == 0:
                    continue
                assert verify_classical(alpha, p).holds, (alpha, p)

    def test_failure_is_reported_not_raised(self):
        # alpha = 1/3 at p = 3 is out of domain, not a false verdict
        with pytest.raises(CongruenceDomainError):
            verify_classical(Fraction(1, 3), 3)

    def test_failure_carries_reason_not_witness(self, monkeypatch):
        # real inputs always hold, so the sum is replaced by one that is
        # off by 1/2 from (-1)^<-alpha>_p
        monkeypatch.setattr(theorems, "f21_truncated_classical",
                            lambda alpha, N: Fraction(3, 2))
        v = verify_classical(HALF, 5)
        assert not v.holds and v.witness is None
        assert "5" in v.reason and "1/2" in v.reason
