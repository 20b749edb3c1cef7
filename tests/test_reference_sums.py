"""The proof-step sums against their term-by-term QRat construction.

The package builds every proof-step sum as one numerator over its
denominator, known in advance, by Horner's rule (``theorems._horner``),
adds QRats over the max-multiplicity union of their denominators
(``union_sum``), and builds every Gaussian binomial by one-factor exact
division.  This module keeps the slow constructions as
the reference: each sum added one QRat at a time with ``ref_add``, the
plain definition of a sum over the union denominator with multiplied-out
factors, and each Gaussian binomial as the long-division quotient of two
Pochhammer products multiplied out term by term.  Over a
fixed denominator the numerator is unique, so the two must agree exactly,
numerators and denominators, and every verdict must match witness and all.
"""

from collections import Counter
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, strategies as st

from qcongruence import theorems
from qcongruence.congruence import congruent_mod_phi
from qcongruence.cyclotomic import cyclotomic
from qcongruence.polyring import LaurentPoly
from qcongruence.qcombinatorics import (
    QRat, binom_rational_index, gauss_binomial, gauss_binomial_row, union_sum)

ONE = LaurentPoly.one()
#: the zero rational function (no denominator)
QZERO = QRat(LaurentPoly.zero())


# -- reference constructions -----------------------------------------------

def ref_den_product(exponents):
    """prod over m of (1 - q^m), multiplied out one full product at a time."""
    acc = ONE
    for m in exponents:
        acc = acc * (ONE - LaurentPoly.monomial(m))
    return acc


def ref_pochhammer(u, b, k):
    """(q^u; q^b)_k multiplied out one full product at a time."""
    return ref_den_product(u + j * b for j in range(k))


def ref_add(f, g):
    """f + g over the max-multiplicity union of the two denominators."""
    fc, gc = Counter(f.factors), Counter(g.factors)
    union = fc | gc
    num = (f.num * ref_den_product((union - fc).elements())
           + g.num * ref_den_product((union - gc).elements()))
    return QRat(num, tuple(union.elements()))


@lru_cache(maxsize=None)
def ref_gauss_binomial(N, k, b=1):
    """[N choose k]_{q^b} as the exact quotient of two Pochhammer products."""
    if k == 0:
        return ONE
    if 0 <= N < k:
        return LaurentPoly.zero()
    num = ref_pochhammer(b * (N - k + 1), b, k)
    shift = -num.low if num.low < 0 else 0
    quo, rem = num.shift(shift).divrem(ref_pochhammer(b, b, k))
    if not rem.is_zero:
        raise ArithmeticError("inexact Gaussian binomial division")
    return quo.shift(-shift)


def ref_binom_rational_index(r, d, k):
    sign = -1 if k % 2 else 1
    monomial = LaurentPoly.monomial(-r * k - d * (k * (k - 1) // 2), sign)
    return QRat(monomial * ref_pochhammer(r, d, k),
                tuple(d * j for j in range(1, k + 1)))


def ref_chu_tail(d, k, head, row):
    tail = QZERO
    for j in range(1, k + 1):
        exp = -d * j * (k - j) - d * (j * (j - 1) // 2)
        tail = ref_add(tail, QRat(head.shift(exp) * row[k - j] * (-1) ** j,
                                  (j * d,)))
    return tail


def ref_harmonic(d, terms):
    one_minus_qd = ONE - LaurentPoly.monomial(d)
    total = QZERO
    for j, e in terms:
        total = ref_add(total, QRat(one_minus_qd.shift(e), (j * d,)))
    return total


def ref_harmonic_tail(d, a, js):
    return ref_harmonic(d, ((j, -d * (a + 1) * (a - 2 * j) // 2) for j in js))


@lru_cache(maxsize=None)  # step_final2 and the direct check share it
def ref_double_sum(n, d, outer_top, inner_top):
    inner_row = [ref_gauss_binomial(inner_top, i, d) for i in range(n - 1)]
    head = ONE - LaurentPoly.monomial(d)
    total = QZERO
    for k in range(1, n):
        inner = ref_chu_tail(d, k, head, inner_row)
        total = ref_add(
            total, (inner * ref_gauss_binomial(outer_top, k, d)).shift(d * k * k))
    return total


def ref_step_binom_shift(n, d, r, k):
    inst = theorems.derive_instance(n, d, r)
    row = [ref_gauss_binomial(inst.a, i, d) for i in range(k + 1)]
    head = ONE - LaurentPoly.monomial(inst.sdn)
    rhs = ref_add(QRat(row[k].shift(inst.sdn * k)),
                  -ref_chu_tail(d, k, head, row))
    return congruent_mod_phi(ref_binom_rational_index(r, d, k), rhs, n, 2)


def ref_step_final2(n, d, a):
    rhs = ref_harmonic_tail(d, a, range(1, a + 1))
    return ref_add(ref_double_sum(n, d, a, -1 - a),
                   rhs if a % 2 else -rhs).num.is_zero


def ref_step_final3_final4(n, d, r):
    a = theorems.derive_instance(n, d, r).a
    rhs = ref_harmonic_tail(d, a, range(a + 1, n))
    return congruent_mod_phi(ref_double_sum(n, d, -1 - a, a),
                             rhs if a % 2 else -rhs, n, 1)


def ref_harmonic_full(n, d):
    lhs = ref_harmonic(d, ((j, 0) for j in range(1, n)))
    rhs = QRat(LaurentPoly.from_dict({0: n - 1, d: 1 - n}))
    return congruent_mod_phi(lhs * 2, rhs, n, 1)


def ref_harmonic_twisted(n, d, a):
    lhs = ref_harmonic(d, ((j, d * (a + 1) * j) for j in range(1, n)))
    c2 = 2 * a + 1 - n
    rhs = QRat(LaurentPoly.from_dict({0: c2, d: -c2}))
    return congruent_mod_phi(lhs * 2, rhs, n, 1)


def ref_step_expansion(n, d, r):
    inst = theorems.derive_instance(n, d, r)
    a, sdn = inst.a, inst.sdn
    e_exp = sdn * (n - 1 - 2 * a) // 2
    c2 = 2 * a + 1 - n
    rhs = LaurentPoly.constant(2 + c2) - LaurentPoly.monomial(sdn, c2)
    return congruent_mod_phi(QRat.monomial(e_exp, 2), QRat(rhs), n, 2)


def ref_equivalent_form_sum(n, d, r):
    acc = QZERO
    for k in range(n):
        term = ref_binom_rational_index(r, d, k) * ref_binom_rational_index(d - r, d, k)
        acc = ref_add(acc, term.shift(d * k * k))
    return acc


def same(x, y):
    """Equal numerator and equal factored denominator, not just equal value."""
    return x.num == y.num and x.factors == y.factors


# -- the proof-step grid ---------------------------------------------------

@pytest.mark.parametrize("n", range(2, 13))
def test_proof_steps_match_reference(n):
    """Every verdict, witness included, on n = 2..12, d = 2..6 coprime,
    r = 1..2d, and the private sums themselves, numerator and denominator."""
    for d in range(2, 7):
        if gcd(n, d) != 1:
            continue
        full = tuple(d * j for j in range(1, n))  # (q^d;q^d)_{n-1}
        assert theorems.harmonic_full(n, d) == ref_harmonic_full(n, d), (n, d)
        for r in range(1, 2 * d + 1):
            where = (n, d, r)
            inst = theorems.derive_instance(n, d, r)
            a = inst.a
            for k in range(n):
                assert theorems.step_binom_shift(n, d, r, k) == \
                    ref_step_binom_shift(n, d, r, k), where + (k,)
            assert theorems.step_final2(n, d, a) == ref_step_final2(n, d, a), where
            if not inst.degenerate:
                assert theorems.step_final3_final4(n, d, r) == \
                    ref_step_final3_final4(n, d, r), where
            assert theorems.harmonic_twisted(n, d, a) == \
                ref_harmonic_twisted(n, d, a), where
            assert theorems.step_expansion(n, d, r) == \
                ref_step_expansion(n, d, r), where
            assert same(QRat(theorems._double_sum(n, d, a), full),
                        ref_double_sum(n, d, a, -1 - a)), where
            assert same(QRat(theorems._harmonic_tail(n, d, a, range(a + 1, n)), full),
                        ref_add(ref_harmonic_tail(d, a, range(a + 1, n)),
                                QRat(LaurentPoly.zero(), full))), where
            if n <= 8:
                assert same(theorems.equivalent_form_sum(n, d, r),
                            ref_equivalent_form_sum(n, d, r)), where


def grid_instances(n):
    """The non-degenerate (d, r, inst) of the proof-step grid at n."""
    for d in range(2, 7):
        if gcd(n, d) == 1:
            for r in range(1, 2 * d + 1):
                inst = theorems.derive_instance(n, d, r)
                if not inst.degenerate:
                    yield d, r, inst


@pytest.mark.parametrize("n", range(2, 13))
def test_loose_binom_shift_witnesses_match_union_sum(n, monkeypatch):
    """No binomial-shift check fails on the grid, so drop the head monomial
    q^{sdn k}: the loose shift holds mod Phi_n and fails mod Phi_n^2.  The
    Horner path must give the witness of congruent_mod_phi on union_sum."""
    real_rows = theorems._proof_rows
    failed = 0
    for d, r, inst in grid_instances(n):
        for k in range(n):
            row = gauss_binomial_row(inst.a, k, d)
            # the head is row[k] times q^{sdn k}; the tail never reads row[k]
            loose_row = row[:-1] + [row[k].shift(-inst.sdn * k)]
            monkeypatch.setattr(theorems, "_proof_rows", lambda d, a: real_rows(
                d, a)._replace(up=loose_row))
            got = theorems.step_binom_shift(n, d, r, k)
            tail = [(num, (m,)) for num, m in theorems._chu_tail(d, k, inst.sdn, row, -1)]
            expected = congruent_mod_phi(binom_rational_index(r, d, k),
                                         union_sum([(row[k], ()), *tail]), n, 2)
            assert got == expected, (n, d, r, k)
            if not got.holds:
                failed += 1
                assert got.witness.divrem(cyclotomic(n))[1].is_zero, (n, d, r, k)
    assert failed


@pytest.mark.parametrize("n", range(2, 13))
def test_flipped_final3_final4_witnesses_match_union_sum(n, monkeypatch):
    """step_final3_final4 with the right side's sign flipped: the Horner
    path must give the witness of congruent_mod_phi on union_sum."""
    real_tail = theorems._harmonic_tail
    monkeypatch.setattr(theorems, "_harmonic_tail", lambda *args: -real_tail(*args))
    failed = 0
    for d, r, inst in grid_instances(n):
        a = inst.a
        rhs = ref_harmonic_tail(d, a, range(a + 1, n))
        lhs = QRat(theorems._double_sum(n, d, a, companion=True),
                   tuple(d * j for j in range(1, n)))
        expected = congruent_mod_phi(lhs, -rhs if a % 2 else rhs, n, 1)
        got = theorems.step_final3_final4(n, d, r)
        assert got == expected, (n, d, r)
        failed += not got.holds
    assert failed


@pytest.mark.parametrize("n", range(2, 13))
def test_equivalent_form_sum_matches_reference(n):
    """The running-numerator binomial products against the term-by-term
    Pochhammer rewrite, numerator and denominator, on d = 2..7 coprime to
    n and r = 0..2d, the degenerate r = 0, d, 2d included."""
    for d in range(2, 8):
        if gcd(n, d) != 1:
            continue
        for r in range(0, 2 * d + 1):
            assert same(theorems.equivalent_form_sum(n, d, r),
                        ref_equivalent_form_sum(n, d, r)), (n, d, r)


def test_equivalent_form_sum_at_30_7_2():
    assert theorems.equivalent_form_sum(30, 7, 2) == \
        theorems.phi21_truncated(2, 5, 7, 7, 0, 30)


# -- the union-denominator sum and the Gaussian binomial kernel ------------

small_polys = st.builds(
    lambda low, cs: LaurentPoly(low, cs),
    st.integers(min_value=-6, max_value=6),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=6),
)
# few distinct exponents, so that repeated factors are common
factor_lists = st.lists(st.integers(min_value=1, max_value=4), max_size=4)


@given(st.lists(st.tuples(small_polys, factor_lists), max_size=6))
def test_union_sum_is_term_by_term_qrat_sum(terms):
    expected = QZERO
    for num, factors in terms:
        expected = ref_add(expected, QRat(num, tuple(factors)))
    assert same(union_sum(terms), expected)


distinct_factors = st.lists(st.integers(min_value=1, max_value=9), unique=True,
                            max_size=5)


@given(small_polys, distinct_factors, st.data())
def test_horner_single_factor_sum_is_union_sum(head, ms, data):
    """acc + sum num_j / (1 - q^{m_j}): the Horner loop with its running
    prefix product against union_sum, numerator and denominator."""
    nums = data.draw(st.lists(small_polys, min_size=len(ms), max_size=len(ms)))
    expected = union_sum([(head, ()), *((num, (m,)) for num, m in zip(nums, ms))])
    got = QRat(theorems._horner(zip(nums, ms), head), tuple(ms))
    assert same(got, expected)


@given(small_polys, distinct_factors, st.data())
def test_horner_nested_prefix_sum_is_union_sum(head, ms, data):
    """acc + sum num_j / prod_{i<=j} (1 - q^{m_i}): the nested Horner loop
    against union_sum, numerator and denominator."""
    nums = data.draw(st.lists(small_polys, min_size=len(ms), max_size=len(ms)))
    expected = union_sum([(head, ()), *((num, tuple(ms[:j + 1]))
                                        for j, num in enumerate(nums))])
    got = QRat(theorems._horner(zip(nums, ms), head, nested=True),
               tuple(ms))
    assert same(got, expected)


def test_gauss_binomial_matches_pochhammer_quotient():
    for N in range(-8, 9):
        for k in range(0, 9):
            for b in range(1, 4):
                assert gauss_binomial(N, k, b) == ref_gauss_binomial(N, k, b), \
                    (N, k, b)
