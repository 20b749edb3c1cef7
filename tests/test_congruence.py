from collections import Counter
from fractions import Fraction
from math import gcd
from operator import add, sub

import pytest
from hypothesis import given, strategies as st

from qcongruence.congruence import (
    CongruenceDomainError,
    Residue,
    Verdict,
    congruent_mod_phi,
    fold_mod_binomial_power,
    is_odd_prime,
    legendre,
    residue_index,
)
from qcongruence.cyclotomic import cyclotomic
from qcongruence.polyring import LaurentPoly
from qcongruence.qcombinatorics import QRat


def P(d):
    return LaurentPoly.from_dict(d)


#: the zero rational function (no denominator)
QZERO = QRat(LaurentPoly.zero())


def den_product(exponents):
    """prod over m of (1 - q^m), multiplied out one full product at a time."""
    acc = LaurentPoly.one()
    for m in exponents:
        acc = acc * P({0: 1, m: -1})
    return acc


class TestResidueIndex:
    def test_integer(self):
        assert residue_index(7, 5) == 2
        assert residue_index(-1, 5) == 4

    def test_fraction(self):
        # -1/3 mod 7: 3 * 2 = 6 = -1 mod 7
        assert residue_index(Fraction(-1, 3), 7) == 2
        # -1/3 mod 5: 3 * 3 = 9 = -1 mod 5
        assert residue_index(Fraction(-1, 3), 5) == 3

    def test_noninvertible_denominator(self):
        with pytest.raises(CongruenceDomainError):
            residue_index(Fraction(1, 3), 6)

    @given(st.integers(min_value=-30, max_value=30),
           st.integers(min_value=1, max_value=20).filter(lambda d: d % 7 != 0))
    def test_defining_property(self, num, den):
        a = residue_index(Fraction(num, den), 7)
        assert 0 <= a < 7
        assert (den * a - num) % 7 == 0


class TestPrimality:
    def test_known(self):
        assert [p for p in range(2, 30) if is_odd_prime(p)] == \
            [3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_nonprimes(self):
        for m in (-3, 0, 1, 2, 9, 15, 21, 25, 49, 91):
            assert not is_odd_prime(m), m


class TestLegendre:
    def test_residues_mod_7(self):
        assert [legendre(m, 7) for m in range(1, 7)] == [1, 1, -1, 1, -1, -1]

    def test_zero(self):
        assert legendre(14, 7) == 0

    def test_euler_criterion(self):
        for p in (3, 5, 7, 11, 13):
            squares = {(x * x) % p for x in range(1, p)}
            for m in range(1, p):
                assert legendre(m, p) == (1 if m in squares else -1), (m, p)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            legendre(2, 9)


class TestDenCoprime:
    def test_structural_rule(self):
        coprime = QRat(LaurentPoly.one(), (2, 3, 7))
        assert congruent_mod_phi(coprime, coprime, 5, 1).holds
        shared = QRat(LaurentPoly.one(), (2, 10))
        with pytest.raises(CongruenceDomainError, match="left denominator"):
            congruent_mod_phi(shared, QZERO, 5, 1)
        with pytest.raises(CongruenceDomainError, match="right denominator"):
            congruent_mod_phi(QZERO, shared, 5, 1)

    def test_agrees_with_polynomial_gcd(self):
        # Phi_n | (1 - q^m) iff n | m; verify by actual division
        for n in range(2, 9):
            for m in range(1, 20):
                factor = P({0: 1, m: -1})
                _, rem = (-factor).divrem(cyclotomic(n))
                assert (rem.is_zero) == (m % n == 0), (n, m)


class TestFolding:
    @given(st.integers(min_value=-8, max_value=30),
           st.integers(min_value=2, max_value=7),
           st.sampled_from([1, 2, 3]))
    def test_monomial_residue_preserved(self, exp, n, k):
        folded = fold_mod_binomial_power(LaurentPoly.monomial(exp), n, k)
        diff = folded.poly() - LaurentPoly.monomial(exp)
        shifted = diff.shift(-diff.low) if diff.low < 0 else diff
        if shifted.is_zero:
            return
        # modulo the ring's modulus (q^N - eps)^k
        _, rem = shifted.divrem(P({folded.N: 1, 0: -folded.eps}) ** k)
        assert rem.is_zero

    def test_ring_modulus_is_a_multiple_of_phi_power(self):
        # the verdict reads the remainder mod Phi_n^k of a ring element,
        # so Phi_n^k must divide the ring's modulus (q^N - eps)^k
        for n in range(1, 61):
            for k in (1, 2, 3):
                ring = fold_mod_binomial_power(LaurentPoly.one(), n, k)
                modulus = P({ring.N: 1, 0: -ring.eps}) ** k
                _, rem = modulus.divrem(cyclotomic(n) ** k)
                assert rem.is_zero, (n, k)

    def test_even_n_vectors_have_half_length(self):
        # (N, eps) = (n/2, -1) for even n, (n, 1) for odd n
        for n, N, eps in ((2, 1, -1), (12, 6, -1), (30, 15, -1), (5, 5, 1), (9, 9, 1)):
            folded = fold_mod_binomial_power(P({0: 1, 3 * n + 1: -2}), n, 2)
            assert (folded.N, folded.eps) == (N, eps), n
            assert [len(row) for row in folded.c] == [N, N], n

    def test_degree_bound(self):
        f = P({0: 1, 37: 2, 100: -3})
        assert fold_mod_binomial_power(f, 5, 1).poly().degree < 5
        assert fold_mod_binomial_power(f, 5, 2).poly().degree < 10
        assert fold_mod_binomial_power(f, 5, 3).poly().degree < 15

    @given(st.data(), st.integers(min_value=1, max_value=40),
           st.sampled_from([1, 2, 3]))
    def test_strided_fold_matches_horner_fold(self, data, n, k):
        low = data.draw(st.integers(min_value=-3 * n, max_value=3 * n))
        coeffs = data.draw(st.lists(st.integers(min_value=-50, max_value=50),
                                    max_size=12 * n))
        p = LaurentPoly(low, coeffs)
        assert fold_mod_binomial_power(p, n, k).c == _horner_fold(p, n, k).c

    def test_fold_of_a_constant_is_the_constant(self):
        for n in (2, 7, 400, 401):
            folded = fold_mod_binomial_power(LaurentPoly.constant(3), n, 2)
            assert folded.c == [[3] + [0] * (folded.N - 1), [0] * folded.N]

    def test_closing_step_powers_on_the_criterion_1_grid(self):
        """The two t-linear identities behind the signed closing step:
        with m = (a d + r)/n, sdn = -m n and E = sdn (n-1-2a)/2, q^E and
        q^{sdn} are whole blocks (q^N)^M, M of either sign for q^E and
        negative for q^{sdn}, and fold to eps^M (1 + M eps t):

            even n:  q^E -> (-1)^{m(n-1)} (1 + m(n-1-2a) t),
                     1 - q^{sdn} -> -2m t;
            odd n:   q^E -> 1 - m h t, h = (n-1-2a)/2,
                     1 - q^{sdn} -> m t.

        So the signed right side (-1)^{m(n-1)} (1 + (2a+1-n)/2 (1 - q^{sdn}))
        is q^E modulo Phi_n^2 for every instance, and the literal one
        differs from it exactly for even n and odd m."""
        total = 0
        for n in range(2, 41):
            for d in range(2, 11):
                if gcd(n, d) != 1:
                    continue
                for r in range(1, 2 * d + 1):
                    if r % d == 0:
                        continue
                    total += 1
                    a = (-r * pow(d, -1, n)) % n
                    m = (a * d + r) // n
                    sdn = -m * n
                    E = sdn * (n - 1 - 2 * a) // 2
                    if n % 2 == 0:
                        sign = (-1) ** (m * (n - 1))
                        head, t_e, t_s = sign, sign * m * (n - 1 - 2 * a), -2 * m
                    else:
                        head, t_e, t_s = 1, -m * (n - 1 - 2 * a) // 2, m
                    zeros = [0] * ((n if n % 2 else n // 2) - 1)  # N - 1
                    got_e = fold_mod_binomial_power(LaurentPoly.monomial(E), n, 2)
                    got_s = fold_mod_binomial_power(P({0: 1, sdn: -1}), n, 2)
                    assert got_e.c == [[head] + zeros, [t_e] + zeros], (n, d, r)
                    assert got_s.c == [[0] + zeros, [t_s] + zeros], (n, d, r)
        assert total == 1984


def _horner_fold(p, n, k):
    """The fold by Horner's rule in q^n over blocks of n coefficients,
    from the multiple of n at or below p.low; a block lo + q^N hi enters
    as (lo + eps hi) + t hi, hi being empty for odd n.  The oracle for
    ``fold_mod_binomial_power``."""
    big, s = divmod(p.low, n)
    coeffs = [0] * s + list(p.coeffs)
    coeffs += [0] * (-len(coeffs) % n)
    acc = Residue(n, k, [])
    N = acc.N
    acc.c = [[0] * N for _ in range(k)]
    for start in reversed(range(0, len(coeffs), n)):
        c = acc._times_q(n)[1]  # q^n = (eps + t)^(n/N) has sign +1
        lo, hi = coeffs[start:start + N], coeffs[start + N:start + n]
        c[0] = list(map(add, c[0], lo))
        if hi:  # even n, eps = -1
            c[0] = list(map(sub, c[0], hi))
            if k > 1:
                c[1] = list(map(add, c[1], hi))
        acc.c = c
    return acc.shift(big * n)


_laurent = st.builds(
    LaurentPoly,
    st.integers(min_value=-8, max_value=8),
    st.lists(st.integers(min_value=-4, max_value=4), max_size=6))


def _qrat(n):
    """QRats whose denominators are coprime to Phi_n."""
    dens = st.lists(st.integers(min_value=1, max_value=12).filter(
        lambda m: m % n), max_size=3)
    return st.builds(QRat, _laurent, dens)


class TestResidueRingDifferential:
    @given(st.data(), st.integers(min_value=2, max_value=9),
           st.sampled_from([1, 2, 3]))
    def test_matches_unfolded_division(self, data, n, k):
        f, g = data.draw(_qrat(n)), data.draw(_qrat(n))
        if data.draw(st.booleans()):
            # g - f a multiple of Phi_n^k, so that both verdicts occur
            g = QRat(f.num + data.draw(_laurent) * cyclotomic(n) ** k, f.factors)
        verdict = congruent_mod_phi(f, g, n, k)
        # the numerator of f - g over the max-multiplicity union denominator
        fc, gc = Counter(f.factors), Counter(g.factors)
        union = fc | gc
        delta = (f.num * den_product((union - fc).elements())
                 - g.num * den_product((union - gc).elements()))
        shift = -delta.low if delta.low < 0 else 0
        modulus = cyclotomic(n) ** k
        _, rem = delta.shift(shift).divrem(modulus)
        assert verdict.holds == rem.is_zero
        if not verdict.holds:
            # the witness is the same residue up to the unit q^shift
            _, diff = (verdict.witness.shift(shift) - rem).divrem(modulus)
            assert diff.is_zero


class TestCongruentModPhi:
    def test_qn_is_one_mod_phi(self):
        # q^n == 1 mod Phi_n, but not mod Phi_n^2 for n > 1
        for n in (2, 3, 4, 6, 12):
            f = QRat.monomial(n)
            one = QRat(LaurentPoly.constant(1))
            assert congruent_mod_phi(f, one, n, 1).holds
            assert not congruent_mod_phi(f, one, n, 2).holds

    def test_qhalf_n_is_minus_one(self):
        for n in (2, 4, 6, 10):
            assert congruent_mod_phi(
                QRat.monomial(n // 2), QRat(LaurentPoly.constant(-1)), n, 1).holds

    def test_q_integer_of_multiple_vanishes(self):
        # [2n] / [2] has Phi_n as a factor
        f = QRat(P({0: 1, 10: -1}), (2,))
        assert congruent_mod_phi(f, QZERO, 5, 1).holds

    def test_second_power_example(self):
        # q^(2n) == 2 q^n - 1 mod (q^n-1)^2 hence mod Phi_n^2
        n = 5
        f = QRat.monomial(2 * n)
        g = QRat(P({n: 2, 0: -1}))
        assert congruent_mod_phi(f, g, n, 2).holds

    def test_witness_is_over_the_union_denominator(self):
        # 1/(1-q) - q/(1-q) = 1: over the shared denominator the numerator
        # is 1 - q, not the cross product (1 - q)^2, whose remainder mod
        # Phi_3 = 1 + q + q^2 is -3q
        one_over = QRat(LaurentPoly.one(), (1,))
        q_over = QRat(LaurentPoly.monomial(1), (1,))
        v = congruent_mod_phi(one_over, q_over, 3, 1)
        assert not v.holds and v.witness == P({0: 1, 1: -1})

    def test_failure_carries_witness(self):
        v = congruent_mod_phi(QRat.monomial(1), QRat(LaurentPoly.constant(1)), 5, 1)
        assert not v.holds and v.witness is not None
        assert not bool(v)

    def test_rejects_bad_denominator(self):
        f = QRat(LaurentPoly.one(), (10,))
        with pytest.raises(CongruenceDomainError):
            congruent_mod_phi(f, QZERO, 5, 1)

    def test_negative_exponents_are_units(self):
        # q^-1 == q^(n-1) mod Phi_n
        assert congruent_mod_phi(
            QRat.monomial(-1), QRat.monomial(6), 7, 1).holds

    def test_denominator_participates(self):
        # [n]/[1] = 1 + q + ... + q^(n-1) == n mod Phi_n? No: it IS Phi_n
        # times a unit only for prime n; for n = 5 it vanishes mod Phi_5.
        q5 = QRat(P({0: 1, 5: -1}), (1,))
        assert congruent_mod_phi(q5, QZERO, 5, 1).holds
        assert not congruent_mod_phi(q5, QZERO, 5, 2).holds


class TestVerdict:
    def test_invariant(self):
        with pytest.raises(ValueError):
            Verdict(True, 1, LaurentPoly.one())
        with pytest.raises(ValueError):
            Verdict(False, 1, None)

    def test_reason_instead_of_witness(self):
        # a failure without a residue names why it fails
        v = Verdict(False, 2, reason="sign disagrees")
        assert not v and v.witness is None and v.reason == "sign disagrees"
        assert Verdict(False, 2, LaurentPoly.one(), "both").reason == "both"
        with pytest.raises(ValueError):
            Verdict(True, 2, reason="sign disagrees")
        assert Verdict(True, 2).reason is None
