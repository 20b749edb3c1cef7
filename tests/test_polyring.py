from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qcongruence.polyring import LaurentPoly, Q


def P(d):
    return LaurentPoly.from_dict(d)


coeffs = st.integers(min_value=-9, max_value=9)
polys = st.builds(
    lambda low, cs: LaurentPoly(low, cs),
    st.integers(min_value=-6, max_value=6),
    st.lists(coeffs, max_size=8),
)
# honest polynomials with leading coefficient +-1, the divisors divrem takes
unit_lead_polys = st.builds(
    lambda low, cs, lead: LaurentPoly(low, cs + [lead]),
    st.integers(min_value=0, max_value=6),
    st.lists(coeffs, max_size=7),
    st.sampled_from([1, -1]),
)


class TestAdd:
    def test_cancellation(self):
        assert P({1: 1, 0: -1}) + P({0: 1}) == Q

    def test_identity(self):
        f = P({-2: 3, 0: 1, 5: -2})
        assert f + LaurentPoly.zero() == f

    def test_disjoint_supports(self):
        assert P({0: 1, 1: 1}) + P({-1: 1}) == P({-1: 1, 0: 1, 1: 1})


class TestMul:
    def test_difference_of_squares(self):
        assert P({0: 1, 1: 1}) * P({0: 1, 1: -1}) == P({0: 1, 2: -1})

    def test_identity(self):
        f = P({-3: 2, 1: 5})
        assert f * LaurentPoly.one() == f

    def test_gaussian_binomial_product(self):
        # (1+q+q^2)(1+q^2) = [4 choose 2]_q, by hand expansion
        lhs = P({0: 1, 1: 1, 2: 1}) * P({0: 1, 2: 1})
        assert lhs == P({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})

    def test_low_exp_adds(self):
        f, g = P({-2: 1, 0: 3}), P({-1: 2, 4: 1})
        assert (f * g).low == f.low + g.low


class TestPow:
    @pytest.mark.parametrize("k", range(7))
    def test_square_and_multiply(self, monkeypatch, k):
        # x ** k is the k-fold product, and it squares only while bits of
        # k remain: at most 2 bit_length(k) - 1 multiplications
        x = P({0: 1, 1: -2, 3: 1})
        expected = LaurentPoly.one()
        for _ in range(k):
            expected = expected * x
        calls = []
        mul = LaurentPoly.__mul__

        def counting(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(LaurentPoly, "__mul__", counting)
        assert x ** k == expected
        assert len(calls) <= max(0, 2 * k.bit_length() - 1)


class TestShift:
    def test_down(self):
        assert P({0: 1, 1: 1}).shift(-1) == P({-1: 1, 0: 1})

    def test_zero(self):
        assert LaurentPoly.zero().shift(5) == LaurentPoly.zero()

    def test_to_constant(self):
        assert LaurentPoly.monomial(-2).shift(2) == LaurentPoly.one()


class TestDivrem:
    def test_exact(self):
        quo, rem = P({2: 1, 0: -1}).divrem(P({1: 1, 0: -1}))
        assert quo == P({1: 1, 0: 1}) and rem.is_zero

    def test_with_remainder(self):
        quo, rem = P({2: 1, 0: 1}).divrem(P({1: 1, 0: 1}))
        assert quo == P({1: 1, 0: -1}) and rem == P({0: 2})

    def test_small_dividend(self):
        f, g = P({1: 1, 0: 2}), P({3: 1})
        quo, rem = f.divrem(g)
        assert quo.is_zero and rem == f

    def test_rejects_laurent(self):
        with pytest.raises(ValueError):
            P({-1: 1}).divrem(P({0: 1, 1: 1}))

    def test_rejects_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            P({0: 1}).divrem(LaurentPoly.zero())

    def test_rejects_non_unit_leading_coefficient(self):
        for lead in (2, -3, Fraction(1, 2)):
            with pytest.raises(ValueError):
                P({3: 1, 0: 1}).divrem(P({1: lead, 0: 1}))


class TestEval:
    def test_q_integer(self):
        assert P({0: 1, 1: 1, 2: 1})(1) == 3

    def test_negative_exponent(self):
        assert LaurentPoly.monomial(-1)(2) == Fraction(1, 2)

    def test_phi6_at_one(self):
        assert P({2: 1, 1: -1, 0: 1})(1) == 1

    def test_zero_point_with_negative_low(self):
        with pytest.raises(ZeroDivisionError):
            LaurentPoly.monomial(-1)(0)


class TestIntegerCoefficients:
    """The ring takes int and LaurentPoly operands only; a rational point
    is still fine for evaluation."""

    def test_fraction_operand_raises(self):
        f, half = P({-1: 2, 0: 1, 3: -1}), Fraction(1, 2)
        for op in (lambda: f * half, lambda: half * f,
                   lambda: f + half, lambda: half + f,
                   lambda: f - half, lambda: half - f,
                   lambda: LaurentPoly.one() * half,
                   lambda: half - LaurentPoly.one()):
            with pytest.raises(TypeError):
                op()

    def test_int_operand_still_works(self):
        f = P({-1: 2, 0: 1})
        assert f * 3 == 3 * f == P({-1: 6, 0: 3})
        assert f + 1 == 1 + f == P({-1: 2, 0: 2})
        assert 1 - f == -(f - 1) == P({-1: -2})

    def test_evaluation_at_rational_point(self):
        assert LaurentPoly.monomial(-2)(Fraction(2, 3)) == Fraction(9, 4)
        assert P({0: 1, 1: -1})(Fraction(2, 3)) == Fraction(1, 3)


class TestCanonicalForm:
    def test_zero_unique(self):
        assert LaurentPoly(7, (0, 0)) == LaurentPoly.zero()
        assert LaurentPoly(7, (0, 0)).low == 0

    def test_trimming(self):
        f = LaurentPoly(-1, (0, 3, 0, 0))
        assert f.low == 0 and f.coeffs == (3,)


@given(polys, polys)
def test_add_commutes(f, g):
    assert f + g == g + f


@given(polys, polys, polys)
def test_mul_associates_and_distributes(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(polys, st.integers(min_value=-10, max_value=10))
def test_shift_roundtrip(f, t):
    assert f.shift(t).shift(-t) == f


@given(polys, polys, st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0))
def test_eval_is_ring_homomorphism(f, g, x):
    assert (f * g)(x) == Fraction(f(x)) * Fraction(g(x))
    assert (f + g)(x) == Fraction(f(x)) + Fraction(g(x))


@given(polys, unit_lead_polys)
def test_divrem_roundtrip(f, g):
    f = f.shift(-f.low) if f.low < 0 else f
    quo, rem = f.divrem(g)
    assert quo * g + rem == f
    if not rem.is_zero:
        assert rem.degree < g.degree


@given(polys, st.integers(min_value=-8, max_value=8).filter(lambda m: m != 0))
def test_one_minus_roundtrip(f, m):
    g = f.times_one_minus(m)
    assert g == f - f.shift(m)
    assert g.div_one_minus(m) == f


@given(polys, st.integers(min_value=1, max_value=8),
       st.integers(min_value=-6, max_value=6), coeffs.filter(lambda c: c != 0))
def test_div_one_minus_rejects_non_multiple(f, m, e, c):
    # (1 - q^m) divides f (1 - q^m) but no monomial
    with pytest.raises(ArithmeticError):
        (f.times_one_minus(m) + LaurentPoly.monomial(e, c)).div_one_minus(m)


nonzero_polys = polys.filter(lambda f: not f.is_zero)
nonzero_m = st.integers(min_value=-8, max_value=8).filter(lambda m: m != 0)


@given(nonzero_polys, nonzero_polys, nonzero_m, coeffs.filter(lambda c: c != 0))
def test_untrimmed_results_are_canonical(f, g, m, c):
    """The operations that skip the trim scan on nonzero operands give what
    the trimming constructor gives on the same coefficients."""
    for r in (f.times_one_minus(m), f.shift(m), -f, f * g, f * c, c * f,
              f.times_one_minus(m).div_one_minus(m)):
        assert type(r.coeffs) is tuple
        assert r == LaurentPoly(r.low, list(r.coeffs))
        assert r.coeffs[0] and r.coeffs[-1]


def test_one_minus_by_hand():
    assert (1 + Q).times_one_minus(2) == P({0: 1, 1: 1, 2: -1, 3: -1})
    assert P({0: 1, 3: -1}).div_one_minus(1) == P({0: 1, 1: 1, 2: 1})
    assert LaurentPoly.zero().div_one_minus(3).is_zero
    assert Q.times_one_minus(0).is_zero
    with pytest.raises(ZeroDivisionError):
        Q.div_one_minus(0)
