"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

The literal main congruence is false for even n whenever (a d + r)/n is
odd, and the failure traces to the closing expansion step.  Criteria 1
and 5 therefore check every verdict against that rule, computed here
from (n, d, r) alone, and pin the exact counterexample sets: a wrong
verdict in either direction fails them.  The rule itself is backed by a
hand check of the smallest counterexample and by an independent sympy
computation of the literal congruence, the two tests that are not
criteria.
"""

import hashlib
from fractions import Fraction
from math import gcd

import pytest

from qcongruence.congruence import legendre
from qcongruence.cyclotomic import cyclotomic, euler_totient
from qcongruence.polyring import LaurentPoly
from qcongruence.qcombinatorics import (
    QRat,
    poch_to_binom_check,
    qchu_check,
)
from qcongruence.theorems import (
    SPECIAL_CASES,
    derive_instance,
    equivalent_form_sum,
    f21_truncated_classical,
    harmonic_full,
    harmonic_twisted,
    phi21_truncated,
    step_binom_shift,
    step_expansion,
    step_final2,
    step_final3_final4,
    verify_classical,
    verify_special_case,
    verify_theorem,
)


def _report(number, name, failures, total, expected=()):
    """Print the criterion line and assert that the failures are exactly
    the expected ones; the count shows how many checks hold."""
    mismatches = ([f for f in failures if f not in expected]
                  + [f for f in expected if f not in failures])
    status = "PASS" if not mismatches else "FAIL"
    line = f"criterion {number} ({name}): {status} [{total - len(failures)}/{total}]"
    if expected:
        line += f" expected failures: {len(expected)}"
    if mismatches:
        line += f" first mismatches: {mismatches[:5]}"
    print(line)
    assert not mismatches, line


def _literal_holds(n, d, r):
    """The documented verdict of the literal main congruence: it fails
    exactly when n is even and m = (a d + r)/n is odd, a = <-r/d>_n.
    Computed from (n, d, r) alone, sharing no code with the library."""
    a = (-r * pow(d, -1, n)) % n
    m, rem = divmod(a * d + r, n)
    assert rem == 0
    return not (n % 2 == 0 and m % 2 == 1)


def _primes(lo, hi):
    return [p for p in range(lo, hi + 1)
            if p > 2 and all(p % f for f in range(2, int(p ** 0.5) + 1))]


def _criterion_1_grid(n_max):
    for n in range(2, n_max + 1):
        for d in range(2, 11):
            if gcd(n, d) != 1:
                continue
            for r in range(1, 2 * d + 1):
                if r % d != 0:
                    yield n, d, r


def test_criterion_1_main_congruence_sweep():
    failures, expected, total = [], [], 0
    witnesses = hashlib.sha256()
    for n, d, r in _criterion_1_grid(40):
        total += 1
        verdict = verify_theorem(n, d, r)
        if not verdict.holds:
            failures.append((n, d, r))
            w = verdict.witness
            witnesses.update(repr((n, d, r, w.low, w.coeffs)).encode())
        if not _literal_holds(n, d, r):
            expected.append((n, d, r))
    _report(1, "main congruence sweep", failures, total, expected)
    assert total == 1984 and len(failures) == 306
    assert (2, 3, 2) in failures and (4, 3, 1) in failures
    # each witness is the remainder mod Phi_n^2 of the numerator of
    # S - (-1)^a q^e over S's denominator, whatever ring decides it
    assert witnesses.hexdigest()[:16] == "fb73de72aef38223"


def test_smallest_counterexample_by_hand():
    # (2, 3, 2): a = 0, e = -1, so the claim is S == q^-1 (mod Phi_2^2).
    # At q = -1, the root of Phi_2, the k = 1 term carries 1 - q^2 = 0
    # while no denominator vanishes, so S(-1) = 1 but q^-1 = -1: the
    # claim fails even modulo Phi_2.
    def s(q):
        return 1 + (1 - q ** 2) * (1 - q) / (1 - q ** 3) ** 2

    q = Fraction(-1)
    assert s(q) == 1 and q ** -1 == -1
    assert not _literal_holds(2, 3, 2)
    assert not verify_theorem(2, 3, 2).holds


def _sympy_literal_holds(sympy, n, d, r):
    """The literal congruence S(n, d, r) == (-1)^a q^e (mod Phi_n^2),
    decided with sympy polynomials over ZZ and no library arithmetic."""
    q = sympy.Symbol("q")

    def poly(expr):
        return sympy.Poly(expr, q, domain="ZZ")

    def one_minus(c):
        # 1 - q^c == q^-shift * factor with factor a polynomial
        if c >= 0:
            return poly(1 - q ** c), 0
        return poly(q ** -c - 1), -c

    a = (-r * pow(d, -1, n)) % n
    adr = a * d + r
    e = (2 * a * adr - adr * (n - 1) - d * a * (a + 1)) // 2
    # term k of S is q^-shifts[k] * nums[k] / dens[k]
    nums, shifts, dens = [poly(1)], [0], [poly(1)]
    for k in range(1, n):
        f1, s1 = one_minus(r + d * (k - 1))
        f2, s2 = one_minus(d - r + d * (k - 1))
        nums.append(nums[-1] * f1 * f2)
        shifts.append(shifts[-1] + s1 + s2)
        dens.append(dens[-1] * one_minus(d * k)[0] ** 2)
    top, den = max(shifts), dens[-1]
    num = poly(0)
    for k in range(n):
        num += nums[k] * den.exquo(dens[k]) * poly(q ** (top - shifts[k]))
    # S = num / (q^top den); cross-multiply with (-1)^a q^e
    x = top + e
    delta = num * poly(q ** max(0, -x)) \
        - den * poly((-1) ** a * q ** max(0, x))
    return delta.rem(poly(sympy.cyclotomic_poly(n, q) ** 2)).is_zero


def test_sympy_oracle_agrees_with_rule():
    sympy = pytest.importorskip("sympy")
    failures, total = [], 0
    for n, d, r in _criterion_1_grid(6):
        total += 1
        holds = _sympy_literal_holds(sympy, n, d, r)
        assert holds == _literal_holds(n, d, r), (n, d, r)
        if not holds:
            failures.append((n, d, r))
    assert total == 224 and len(failures) == 45
    assert (2, 3, 2) in failures and (4, 3, 1) in failures


def test_criterion_2_special_cases():
    failures, total = [], 0
    for label, (d, leg_arg, coef) in sorted(SPECIAL_CASES.items()):
        primes = _primes(5, 37)
        if label == "qmor2":
            primes = [3] + primes
        for p in primes:
            if gcd(p, d) != 1:
                continue
            total += 1
            inst = derive_instance(p, d, 1)
            ok = (verify_special_case(label, p).holds
                  and inst.e == int(coef * (1 - p * p))
                  and inst.sign == legendre(leg_arg, p))
            if not ok:
                failures.append((label, p))
    _report(2, "special cases", failures, total)


def test_criterion_3_classical_limit():
    # spot value first, re-derived by direct rational summation
    term, total_sum = Fraction(1), Fraction(0)
    for k in range(5):
        total_sum += term
        term *= (Fraction(1, 2) + k) * (Fraction(1, 2) + k) \
            / Fraction((k + 1) * (k + 1))
    spot = total_sum - 1
    assert spot == Fraction(83025, 147456)
    assert spot.numerator % 25 == 0 and spot.numerator % 125 != 0
    assert f21_truncated_classical(Fraction(1, 2), 5) == total_sum

    alphas = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4),
              Fraction(3, 4), Fraction(1, 6), Fraction(5, 6), Fraction(1, 5),
              Fraction(2, 5)]
    failures, total = [], 0
    for alpha in alphas:
        for p in _primes(5, 97):
            if alpha.denominator % p == 0:
                continue
            total += 1
            if not verify_classical(alpha, p).holds:
                failures.append((str(alpha), p))
    _report(3, "classical limit", failures, total)


def test_criterion_4_identity_suites():
    failures, total = [], 0
    for form in (1, 2):
        for n in range(0, 9):
            for m in range(0, 9):
                for k in range(0, n + m + 1):
                    total += 1
                    if not qchu_check(form, n, m, k):
                        failures.append(("qchu", form, n, m, k))
    for d in range(1, 7):
        for r in range(-6, 7):
            for k in range(0, 9):
                total += 1
                if not poch_to_binom_check(r, d, k):
                    failures.append(("poch", r, d, k))
    for n in range(2, 13):
        for d in range(2, 9):
            if gcd(n, d) != 1:
                continue
            for r in range(1, d):
                total += 1
                if equivalent_form_sum(n, d, r) != \
                        phi21_truncated(r, d - r, d, d, 0, n):
                    failures.append(("equiv", n, d, r))
    _report(4, "identity suites", failures, total)


def _proof_step_audit(ns):
    """Run the six proof-step checks on n in ns, d = 2..6 coprime to n,
    r = 1..d-1; returns (failures, expected, total, even_n_seen, digest),
    digest hashing every verdict's holds and repr(witness), the binomial
    shift at each k on its own."""
    failures, expected, total = [], [], 0
    even_n_seen = 0
    digest = hashlib.sha256()
    for n in ns:
        for d in range(2, 7):
            if gcd(n, d) != 1:
                continue
            for r in range(1, d):
                if n % 2 == 0:
                    even_n_seen += 1
                inst = derive_instance(n, d, r)
                shifts = [step_binom_shift(n, d, r, k) for k in range(n)]
                verdicts = {
                    "final2": step_final2(n, d, inst.a),
                    "final3_final4": step_final3_final4(n, d, r),
                    "harmonic_full": harmonic_full(n, d),
                    "harmonic_twisted": harmonic_twisted(n, d, inst.a),
                    "expansion": step_expansion(n, d, r),
                }
                for v in shifts + list(verdicts.values()):
                    # step_final2 is an identity and returns a plain bool
                    digest.update(repr((n, d, r, bool(v), repr(
                        getattr(v, "witness", None)))).encode())
                checks = {"binom_shift": all(shifts)}
                checks.update((k, bool(v)) for k, v in verdicts.items())
                for name, ok in checks.items():
                    total += 1
                    if not ok:
                        failures.append((n, d, r, name))
                # only the closing expansion inherits the literal failures
                if not _literal_holds(n, d, r):
                    expected.append((n, d, r, "expansion"))
    return failures, expected, total, even_n_seen, digest.hexdigest()[:16]


def test_criterion_5_proof_step_audit():
    failures, expected, total, even_n_seen, digest = \
        _proof_step_audit(range(2, 13))
    assert even_n_seen >= 3
    _report(5, "proof-step audit", failures, total, expected)
    assert total == 510 and len(failures) == 14
    assert (2, 3, 2, "expansion") in failures
    assert (4, 3, 1, "expansion") in failures
    # every verdict and witness, whichever way residues are folded
    assert digest == "09d6e242457f69db"


def test_proof_step_audit_to_n_20():
    # the criterion-5 audit continued over n = 13..20: 67 instances
    failures, expected, total, _, digest = _proof_step_audit(range(13, 21))
    _report(5, "proof-step audit, n = 13..20", failures, total, expected)
    assert total == 402
    assert sorted(failures) == [
        (14, 3, 2, "expansion"), (14, 5, 2, "expansion"),
        (14, 5, 4, "expansion"), (16, 3, 1, "expansion"),
        (16, 5, 1, "expansion"), (16, 5, 3, "expansion"),
        (18, 5, 3, "expansion"), (18, 5, 4, "expansion"),
        (20, 3, 2, "expansion")]
    assert digest == "ed3e8e2eec73f2d9"


def _den_product(exponents):
    """prod over m of (1 - q^m), multiplied out one full product at a time."""
    acc = LaurentPoly.one()
    for m in exponents:
        acc = acc * LaurentPoly.from_dict({0: 1, m: -1})
    return acc


def test_criterion_6_degenerate_boundary():
    # brute-force oracle: cross-multiplied divisibility by (1+q)^2,
    # built without the congruence engine
    inst = derive_instance(2, 3, 3)
    assert inst.degenerate
    lhs = phi21_truncated(3, 0, 3, 3, 0, 2)
    rhs = QRat.monomial(inst.e, inst.sign)
    delta = lhs.num * _den_product(rhs.factors) \
        - rhs.num * _den_product(lhs.factors)
    modulus = LaurentPoly.from_dict({0: 1, 1: 1}) ** 2
    _, rem = delta.shift(max(0, -delta.low)).divrem(modulus)
    oracle_holds = rem.is_zero
    engine_holds = verify_theorem(2, 3, 3).holds
    agreement = engine_holds == oracle_holds
    failures = [] if agreement else [("engine", engine_holds,
                                      "oracle", oracle_holds)]
    _report(6, "degenerate boundary (engine/oracle agreement)", failures, 1)
    # the expected (recorded) verdict: the literal statement fails here
    assert engine_holds is False


def test_criterion_7_cyclotomic_units():
    failures, total = [], 0
    for n in range(1, 121):
        total += 1
        prod = LaurentPoly.one()
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        if prod != LaurentPoly.from_dict({n: 1, 0: -1}):
            failures.append(("product", n))
    for n in range(2, 201):
        total += 1
        m = n
        p = None
        f = 2
        while f * f <= m:
            if m % f == 0:
                p = f
                while m % f == 0:
                    m //= f
                break
            f += 1
        if p is None:
            expected = n
        elif m == 1:
            expected = p
        else:
            expected = 1
        if cyclotomic(n)(1) != expected:
            failures.append(("value-at-1", n))
    total += 1
    if -2 not in cyclotomic(105).coeffs:
        failures.append(("phi105",))
    total += 1
    if cyclotomic(105).degree != euler_totient(105):
        failures.append(("phi105-degree",))
    _report(7, "cyclotomic units", failures, total)
