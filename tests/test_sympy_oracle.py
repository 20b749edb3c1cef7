"""The polynomial kernels against sympy, an independent implementation.

Skipped when sympy is not installed.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcongruence.cyclotomic import cyclotomic
from qcongruence.polyring import LaurentPoly
from qcongruence.qcombinatorics import gauss_binomial

sympy = pytest.importorskip("sympy")
q = sympy.Symbol("q")


def to_sympy(p: LaurentPoly):
    """An honest polynomial as a sympy Poly."""
    return sympy.Poly(sum(c * q ** e for e, c in p.terms().items()), q)


def from_sympy(poly) -> LaurentPoly:
    return LaurentPoly.from_dict({m[0]: Fraction(int(c.p), int(c.q))
                                  for m, c in poly.terms() if c})


def test_cyclotomic_matches_sympy():
    for n in range(1, 61):
        assert from_sympy(sympy.Poly(sympy.cyclotomic_poly(n, q), q)) == \
            cyclotomic(n), n


coeffs = st.lists(st.integers(min_value=-9, max_value=9), max_size=9)
honest = st.builds(lambda cs: LaurentPoly(0, cs), coeffs)
# leading coefficient +-1, the only divisors divrem takes
unit_lead = st.builds(lambda cs, lead: LaurentPoly(0, cs + [lead]),
                      coeffs, st.sampled_from([1, -1]))


@settings(deadline=None)
@given(honest, unit_lead)
def test_divrem_matches_sympy(f, g):
    quo, rem = f.divrem(g)
    squo, srem = sympy.div(to_sympy(f), to_sympy(g), domain="QQ")
    assert quo == from_sympy(squo)
    assert rem == from_sympy(srem)


def test_gauss_binomial_matches_sympy_quotient():
    """[N choose k]_{q^b} = prod_{i=1}^{k} (1 - q^{b(N-i+1)}) / (1 - q^{b i}),
    negative top index included, as sympy's exact polynomial quotient."""
    for N in range(-6, 7):
        for k in range(0, 6):
            for b in (1, 2, 3):
                num, den, shift = sympy.Integer(1), sympy.Integer(1), 0
                for i in range(1, k + 1):
                    e = b * (N - i + 1)
                    # 1 - q^e = (q^{-e} - 1) / q^{-e} for e < 0
                    num *= (1 - q ** e) if e >= 0 else (q ** -e - 1)
                    shift += -e if e < 0 else 0
                    den *= 1 - q ** (b * i)
                quo, rem = sympy.div(sympy.Poly(num, q), sympy.Poly(den, q))
                assert rem.is_zero, (N, k, b)
                assert gauss_binomial(N, k, b).shift(shift) == from_sympy(quo), \
                    (N, k, b)
