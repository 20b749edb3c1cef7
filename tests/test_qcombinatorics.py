from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from qcongruence.polyring import LaurentPoly
from qcongruence.qcombinatorics import (
    QRat,
    binom_rational_index,
    gauss_binomial,
    poch_to_binom_check,
    q_pochhammer,
    qchu_check,
)


def P(d):
    return LaurentPoly.from_dict(d)


#: the zero rational function (no denominator)
QZERO = QRat(LaurentPoly.zero())


def q_integer(m: int, b: int = 1) -> QRat:
    """[m]_{q^b} = (1 - q^{mb}) / (1 - q^b) for nonzero integer m."""
    if m == 0:
        raise ValueError("q_integer is undefined at m = 0; use a zero QRat")
    return QRat(P({0: 1, m * b: -1}), (b,))


def value(f: QRat, x) -> Fraction:
    """f at a rational point where its denominator does not vanish."""
    den = Fraction(1)
    for m in f.factors:
        den *= 1 - Fraction(x) ** m
    if den == 0:
        raise ZeroDivisionError(f"denominator vanishes at q={x}")
    return Fraction(f.num(x)) / den


class TestQInteger:
    def test_base_one(self):
        assert q_integer(3, 1) == QRat(P({0: 1, 1: 1, 2: 1}))

    def test_unit(self):
        assert q_integer(1, 4) == QRat(LaurentPoly.constant(1))

    def test_base_three(self):
        assert q_integer(2, 3) == QRat(P({0: 1, 3: 1}))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            q_integer(0, 1)


class TestPochhammer:
    def test_vanishing_first_factor(self):
        assert q_pochhammer(0, 3, 2).is_zero

    def test_empty_product(self):
        assert q_pochhammer(17, 5, 0) == LaurentPoly.one()

    def test_hand_expansion(self):
        # (q; q)_2 = (1-q)(1-q^2)
        assert q_pochhammer(1, 1, 2) == P({0: 1, 1: -1, 2: -1, 3: 1})

    def test_negative_start_is_laurent(self):
        f = q_pochhammer(-2, 1, 2)
        assert f.low == -3  # (1-q^-2)(1-q^-1)


class TestGaussBinomial:
    def test_four_choose_two(self):
        assert gauss_binomial(4, 2) == P({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})

    def test_choose_zero(self):
        assert gauss_binomial(-7, 0, 3) == LaurentPoly.one()
        assert gauss_binomial(12, 0) == LaurentPoly.one()

    def test_too_large_k(self):
        assert gauss_binomial(3, 5).is_zero

    def test_negative_one_closed_form(self):
        # [-1 choose a] in base q^d equals (-1)^a q^{-d a(a+1)/2}
        for d in (1, 2, 3, 5):
            for a in range(0, 6):
                expected = LaurentPoly.monomial(
                    -d * a * (a + 1) // 2, (-1) ** a)
                assert gauss_binomial(-1, a, d) == expected, (d, a)

    def test_pascal_recurrence(self):
        for N in range(1, 16):
            for k in range(0, N + 1):
                lhs = gauss_binomial(N, k)
                rhs = gauss_binomial(N - 1, k).shift(k) + \
                    gauss_binomial(N - 1, k - 1) if k >= 1 \
                    else gauss_binomial(N - 1, 0)
                assert lhs == rhs, (N, k)

    def test_q_to_one_is_binomial(self):
        def c(N, k):
            if N >= 0:
                return comb(N, k) if k <= N else 0
            # standard extension to negative upper index
            return (-1) ** k * comb(-N + k - 1, k)
        for N in range(-8, 13):
            for k in range(0, 13):
                assert gauss_binomial(N, k)(1) == c(N, k), (N, k)


class TestQRatArithmetic:
    def test_add_zero(self):
        f = q_integer(3, 2)
        assert f + QZERO == f

    def test_mul_one(self):
        f = q_integer(-2, 3)
        assert f * QRat(LaurentPoly.constant(1)) == f

    def test_harmonic_two_terms(self):
        # 1/[1] + 1/[2] = (1 - q^2 + 1 - q) / ((1-q)(1-q^2)) up to representation
        inv1 = QRat(LaurentPoly.one(), ())
        inv2 = QRat(P({0: 1, 1: -1}), (2,))
        total = inv1 + inv2
        expected = QRat(P({0: 2, 1: -1, 2: -1}),
                        (2,))
        assert total == expected

    def test_denominator_union_not_product(self):
        f = QRat(LaurentPoly.one(), (2, 3))
        g = QRat(LaurentPoly.one(), (3, 5))
        assert sorted((f + g).factors) == [2, 3, 5]

    @given(st.integers(min_value=2, max_value=7),
           st.integers(min_value=-5, max_value=5).filter(lambda m: m != 0),
           st.integers(min_value=-4, max_value=4).filter(lambda m: m != 0))
    def test_value_is_additive_and_multiplicative(self, x, m1, m2):
        f, g = q_integer(m1, 1), q_integer(m2, 2)
        assert value(f + g, x) == value(f, x) + value(g, x)
        assert value(f * g, x) == value(f, x) * value(g, x)


class TestQRatIntegerNumerators:
    """QRat numerators stay in Z[q, 1/q]: a rational scalar is refused,
    while evaluation at a rational point works."""

    def test_fraction_operand_raises(self):
        f, half = q_integer(3, 2), Fraction(1, 2)
        for op in (lambda: f * half, lambda: half * f,
                   lambda: f + half, lambda: half + f,
                   lambda: QRat(LaurentPoly.one()) + half):
            with pytest.raises(TypeError):
                op()

    def test_int_operand_still_works(self):
        f = q_integer(3, 2)
        assert f * 2 == 2 * f == f + f
        assert value(f + 1, 2) == value(f, 2) + 1

    def test_evaluation_at_rational_point(self):
        assert LaurentPoly.monomial(-2)(Fraction(2, 3)) == Fraction(9, 4)
        # [3]_{q^2} = 1 + q^2 + q^4 at q = 2/3
        assert value(q_integer(3, 2), Fraction(2, 3)) == Fraction(133, 81)


class TestRationalIndexBinomial:
    def test_reduces_to_integer_binomial(self):
        # -r/d integral: must agree with the ordinary Gaussian binomial
        for d in (1, 2, 3):
            for t in range(0, 4):
                for k in range(0, 5):
                    assert binom_rational_index(-t * d, d, k) == \
                        QRat(gauss_binomial(t, k, d)), (d, t, k)


class TestPochToBinom:
    def test_empty(self):
        assert poch_to_binom_check(1, 3, 0)

    def test_examples(self):
        assert poch_to_binom_check(1, 3, 2)
        assert poch_to_binom_check(5, 2, 3)

    def test_grid(self):
        for d in range(1, 7):
            for r in range(-6, 7):
                for k in range(0, 9):
                    assert poch_to_binom_check(r, d, k), (r, d, k)


class TestQChuVandermonde:
    def test_tiny(self):
        assert qchu_check(1, 1, 1, 1)  # 1+q = q + 1

    def test_k_zero(self):
        assert qchu_check(1, 4, 6, 0)
        assert qchu_check(2, 4, 6, 0)

    def test_example_form_two(self):
        assert qchu_check(2, 3, 2, 2)

    def test_grid(self):
        for form in (1, 2):
            for n in range(0, 9):
                for m in range(0, 9):
                    for k in range(0, n + m + 1):
                        assert qchu_check(form, n, m, k), (form, n, m, k)


class TestQRatInvariants:
    def test_rejects_nonpositive_exponent(self):
        for factors in ((0,), (2, -1), (-3,)):
            with pytest.raises(ValueError):
                QRat(LaurentPoly.one(), factors)

    def test_rejects_non_int_exponent(self):
        # a float fails only deep inside times_one_minus, and a bool would
        # be read as 1
        for factors in ((1.5,), (True,), (2, 2.0)):
            with pytest.raises(TypeError):
                QRat(LaurentPoly.one(), factors)

    def test_factors_are_a_sorted_tuple(self):
        p = P({0: 1, 2: -3})
        assert QRat(p, (3, 1, 2)).factors == (1, 2, 3)
        assert QRat(p, [3, 1, 2]).factors == (1, 2, 3)
        assert QRat(p).factors == ()
