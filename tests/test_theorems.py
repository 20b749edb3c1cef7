import copy
import hashlib
import pickle
import threading
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qcongruence import theorems
from qcongruence.congruence import (
    Residue,
    Verdict,
    congruent_mod_phi,
    fold_mod_binomial_power,
    residue_index,
)
from qcongruence.cyclotomic import cyclotomic
from qcongruence.polyring import LaurentPoly
from qcongruence.qcombinatorics import QRat
from conftest import clear_memos
from qcongruence.theorems import (
    SPECIAL_CASES,
    _double_sum,
    _folded_verdict,
    derive_instance,
    equivalent_form_sum,
    harmonic_full,
    harmonic_twisted,
    phi21_truncated,
    step_binom_shift,
    step_expansion,
    step_final2,
    step_final3_final4,
    verify_proof_consistent_form,
    verify_special_case,
    verify_theorem,
)


def grid(n_max, d_max, r_max, include_degenerate=False):
    for n in range(2, n_max + 1):
        for d in range(2, d_max + 1):
            if gcd(n, d) != 1:
                continue
            for r in range(1, r_max + 1):
                if r % d == 0 and not include_degenerate:
                    continue
                yield n, d, r


class TestDeriveInstance:
    @pytest.mark.parametrize("n,d,r,a,e,sign", [
        (5, 3, 1, 3, -8, -1),
        (5, 2, 1, 2, -6, 1),
        (5, 4, 1, 1, -9, -1),
        (7, 6, 1, 1, -20, -1),
        (3, 2, 1, 1, -2, -1),
        (2, 3, 4, 0, -2, 1),
    ])
    def test_known_values(self, n, d, r, a, e, sign):
        inst = derive_instance(n, d, r)
        assert (inst.a, inst.e, inst.sign) == (a, e, sign)

    def test_e_splits_at_the_closing_right_side(self):
        # e = E - d a(a+1)/2 with E = sdn (n-1-2a)/2: q^e is the q^E of
        # step_expansion times the q^{-d a(a+1)/2} of the corrected form,
        # which both meet at the closing right side; criterion-1 grid with
        # every r = 0..2d, so d | r included
        seen = 0
        for n, d, _ in grid(40, 10, 1):
            for r in range(2 * d + 1):
                inst = derive_instance(n, d, r)
                a, twice_E = inst.a, inst.sdn * (n - 1 - 2 * inst.a)
                assert twice_E % 2 == 0, (n, d, r)
                assert inst.e == twice_E // 2 - d * (a * (a + 1) // 2), (n, d, r)
                seen += 1
        assert seen == 2587

    def test_sdn_relation(self):
        for n, d, r in grid(9, 7, 7, include_degenerate=True):
            inst = derive_instance(n, d, r)
            assert inst.sdn == -(inst.a * d + r)
            assert (inst.a * d + r) % n == 0
            assert inst.sign == (-1) ** inst.a

    def test_degenerate_flag(self):
        assert derive_instance(2, 3, 3).degenerate
        assert derive_instance(2, 3, 3).a == 1
        assert derive_instance(2, 3, 3).e == 0
        assert not derive_instance(5, 3, 1).degenerate

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError, match=r"^gcd\(6, 3\) != 1$") as exc:
            derive_instance(6, 3, 1)
        assert type(exc.value) is ValueError

    def test_a_is_the_residue_index_on_the_criterion_1_grid(self):
        # a = -r d^{-1} mod n, as residue_index(-r/d, n) defines it
        seen = 0
        for n, d, r in grid(40, 10, 20):
            if r <= 2 * d:
                assert derive_instance(n, d, r).a == \
                    residue_index(Fraction(-r, d), n), (n, d, r)
                seen += 1
        assert seen == 1984

    def test_rejects_small_parameters(self):
        with pytest.raises(ValueError):
            derive_instance(1, 2, 1)
        with pytest.raises(ValueError):
            derive_instance(3, 1, 1)


class TestPhi21Truncated:
    def test_single_term(self):
        assert phi21_truncated(1, 2, 3, 3, 0, 1) == QRat(LaurentPoly.constant(1))

    def test_degenerate_sum_is_one(self):
        # u a multiple of the base: every k >= 1 term vanishes
        for n in (2, 3, 5):
            assert phi21_truncated(3, 0, 3, 3, 0, n) == QRat(LaurentPoly.constant(1))

    def test_value_against_direct_summation(self):
        # independent term-by-term Fraction evaluation at a rational point
        def direct(u, v, w, b, c, N, x):
            total = Fraction(0)
            term = Fraction(1)
            for k in range(N):
                total += term * x ** (c * k)
                term *= (1 - x ** (u + k * b)) * (1 - x ** (v + k * b))
                term /= (1 - x ** (w + k * b)) * (1 - x ** (b + k * b))
            return total

        x = Fraction(2, 3)
        for (u, v, w, b, c, N) in [(1, 2, 3, 3, 0, 4), (1, 1, 2, 2, 1, 5),
                                   (2, 3, 5, 5, 2, 3), (1, 4, 5, 5, 0, 6)]:
            f = phi21_truncated(u, v, w, b, c, N)
            den = Fraction(1)
            for m in f.factors:
                den *= 1 - x ** m
            assert f.num(x) / den == direct(u, v, w, b, c, N, x), \
                (u, v, w, b, c, N)

    def test_rejects_vanishing_denominator(self, monkeypatch):
        with pytest.raises(ValueError):
            phi21_truncated(1, 2, 0, 3, 0, 2)
        # the bad exponent is caught before any factor is multiplied in
        counted = []
        times_one_minus = LaurentPoly.times_one_minus

        def counting(self, m):
            counted.append(m)
            return times_one_minus(self, m)

        monkeypatch.setattr(LaurentPoly, "times_one_minus", counting)
        with pytest.raises(ValueError, match="exponents must be >= 1"):
            phi21_truncated(1, 2, -3, 1, 0, 400)
        assert counted == []


class TestEquivalentForm:
    def test_identical_not_just_congruent(self):
        for n, d, r in grid(7, 5, 5):
            assert equivalent_form_sum(n, d, r) == \
                phi21_truncated(r, d - r, d, d, 0, n), (n, d, r)


class TestMainTheorem:
    def test_known_holding_instances(self):
        for n, d, r in [(3, 2, 1), (5, 2, 1), (5, 3, 1), (5, 4, 1),
                        (7, 6, 1), (11, 3, 2), (13, 5, 3), (2, 3, 4)]:
            assert verify_theorem(n, d, r).holds, (n, d, r)

    @staticmethod
    def _folded_and_exact(n, d, r):
        """Both forms, each decided on the folded path and on the exact
        oracle: the sum as a rational function, decided by
        congruent_mod_phi, against the literal and the corrected
        right-hand side.  The denominator of phi21_truncated is
        ((q^d;q^d)_{n-1})^2, the one the folded accumulator carries, so
        both paths reduce the same ring element: witnesses agree too."""
        inst = derive_instance(n, d, r)
        lhs = phi21_truncated(r, d - r, d, d, 0, n)
        literal = QRat.monomial(inst.e, inst.sign)
        folded = verify_theorem(n, d, r)
        exact = congruent_mod_phi(lhs, literal, n, 2)
        assert (folded.holds, folded.witness) == \
            (exact.holds, exact.witness), (n, d, r)
        # the corrected form, both sides times 2
        c2 = 2 * inst.a + 1 - n
        corrected = LaurentPoly.from_dict({0: 2 + c2}) \
            - LaurentPoly.monomial(inst.sdn, c2)
        corrected = corrected.shift(-d * (inst.a * (inst.a + 1) // 2))
        folded_c = verify_proof_consistent_form(n, d, r)
        exact_c = congruent_mod_phi(
            QRat(lhs.num * 2, lhs.factors),
            QRat(corrected * inst.sign), n, 2)
        assert (folded_c.holds, folded_c.witness) == \
            (exact_c.holds, exact_c.witness), (n, d, r)
        return folded.holds, folded_c.holds

    def test_folded_and_exact_paths_agree(self):
        for n, d, r in grid(9, 6, 6, include_degenerate=True):
            self._folded_and_exact(n, d, r)

    @pytest.mark.parametrize("n,d,r", [
        (24, 7, 2), (24, 5, 2), (22, 7, 3), (22, 5, 1), (20, 7, 4), (22, 3, 1)])
    def test_folded_and_exact_paths_agree_even_n(self, n, d, r):
        # the folded path stops updating the term once it vanishes, past
        # max(a, n-1-a), here far from n-1; the literal form fails and
        # the corrected one holds on these instances
        a = derive_instance(n, d, r).a
        assert n - 1 - max(a, n - 1 - a) >= 7
        assert self._folded_and_exact(n, d, r) == (False, True)

    @pytest.mark.parametrize("n", [97, 98, 100, 128])
    def test_large_n_follows_even_n_rule(self, n):
        # the folded path well beyond the n <= 40 acceptance grid: the
        # literal form against the even-n rule, the corrected form always
        for d in (3, 5, 7):
            if gcd(n, d) != 1:
                continue
            for r in (1, 2, d + 1):
                inst = derive_instance(n, d, r)
                m = (inst.a * d + r) // n
                expected = not (n % 2 == 0 and m % 2 == 1)
                assert verify_theorem(n, d, r).holds == expected, (n, d, r)
                assert verify_proof_consistent_form(n, d, r).holds, (n, d, r)

    def test_failure_pattern_even_n_odd_multiplier(self):
        # the congruence fails exactly when n is even and (a d + r)/n is
        # odd; on those instances the corrected proof-consistent form
        # still holds, pinning the failure to the closing expansion
        for n, d, r in grid(12, 7, 7):
            inst = derive_instance(n, d, r)
            m = (inst.a * d + r) // n
            expected = not (n % 2 == 0 and m % 2 == 1)
            assert verify_theorem(n, d, r).holds == expected, (n, d, r)

    def test_smallest_counterexample(self):
        # (4, 3, 1): a = 1, m = 1; the smallest counterexample with n > 2
        # (the smallest overall, (2, 3, 2), is checked by hand in the
        # acceptance suite)
        v = verify_theorem(4, 3, 1)
        assert not v.holds and v.witness is not None

    def test_degenerate_instance_engine_matches_brute_force(self):
        # d | r collapses the sum to 1; with a odd the predicted value is
        # -q^e, so the verdict is a genuine failure, reproduced here from
        # first principles
        inst = derive_instance(2, 3, 3)
        lhs = phi21_truncated(3, 0, 3, 3, 0, 2)
        assert lhs == QRat(LaurentPoly.constant(1))
        rhs = QRat.monomial(inst.e, inst.sign)
        brute = congruent_mod_phi(lhs, rhs, 2, 2)
        assert verify_theorem(2, 3, 3).holds == brute.holds == False  # noqa: E712

    @staticmethod
    def _count_ring_factors(monkeypatch):
        """Count Residue.times_one_minus calls: two per Horner step for
        the accumulator, two more while the term is nonzero."""
        calls = []
        times_one_minus = Residue.times_one_minus

        def counting(self, m):
            calls.append(m)
            return times_one_minus(self, m)

        monkeypatch.setattr(Residue, "times_one_minus", counting)
        return calls

    @pytest.mark.parametrize("verify,n,r,holds,k1,k2", [
        pytest.param(verify_theorem, 400, 1, False, 134, 267, id="1-False"),
        pytest.param(verify_theorem, 400, 2, True, 134, 267, id="2-True"),
        pytest.param(verify_proof_consistent_form, 62, 1, True, 21, 42,
                     id="corrected-62-1"),
        pytest.param(verify_proof_consistent_form, 62, 2, True, 21, 42,
                     id="corrected-62-2"),
        pytest.param(verify_proof_consistent_form, 80, 1, True, 27, 54,
                     id="corrected-80-1"),
        pytest.param(verify_proof_consistent_form, 80, 2, True, 27, 54,
                     id="corrected-80-2"),
    ])
    def test_verdict_returns_at_natural_truncation(
            self, monkeypatch, verify, n, r, holds, k1, k2):
        # at d = 3 the term is first divisible by Phi_n at step
        # k1 = min(a, n-1-a) + 1 and vanishes in the ring after step
        # k2 = max(a, n-1-a) + 1; at n = 400, r = 1 (a = 133) and r = 2
        # (a = 266).  The failing literal r = 1 returns at k1, the holding
        # verdicts of both forms at k2; reading the failure's witness
        # resumes the loop to k2 and multiplies in the unit factors to
        # k = n - 1, once.  n = 62 and 80 are the corrected-form sizes of
        # the benchmark's large_n workload
        calls = self._count_ring_factors(monkeypatch)
        inst = derive_instance(n, 3, r)
        assert (min(inst.a, n - 1 - inst.a) + 1,
                max(inst.a, n - 1 - inst.a) + 1) == (k1, k2)
        v = verify(n, 3, r)
        assert v.holds == holds and len(calls) == 4 * (k2 if holds else k1)
        if holds:
            assert v.witness is None and len(calls) == 4 * k2
            return
        w = v.witness
        assert isinstance(w, LaurentPoly) and not w.is_zero
        assert len(calls) == 2 * (n - 1) + 2 * k2
        assert v.witness is w and len(calls) == 2 * (n - 1) + 2 * k2

    @staticmethod
    def _record_verdicts(monkeypatch):
        """Record (k, holds, exactly zero) of every Residue.verdict; a
        k = 1 verdict is the test of the first digit c0 = acc mod t."""
        seen = []
        verdict = Residue.verdict

        def recording(self):
            out = verdict(self)
            seen.append((self.k, out.holds, not any(map(any, self.c))))
            return out

        monkeypatch.setattr(Residue, "verdict", recording)
        return seen

    @pytest.mark.parametrize("n,d,r,j,seen,holds", [
        pytest.param(9, 5, 1, 1, [(1, True, False), (2, False, False)], False,
                     id="9-5-1"),
        pytest.param(12, 5, 3, 1, [(1, True, False), (2, False, False)],
                     False, id="12-5-3"),
        pytest.param(9, 5, 1, 2, [(1, True, False), (2, True, True)], True,
                     id="9-5-1-phi2"),
        pytest.param(12, 5, 3, 2, [(1, True, False), (2, True, True)], True,
                     id="12-5-3-phi2"),
        pytest.param(15, 2, 1, 1, [(2, False, False)], False, id="15-2-1"),
        pytest.param(10, 3, 2, 1, [(2, False, False)], False, id="10-3-2"),
    ])
    def test_first_digit_divisible_by_phi_keeps_both_digits(
            self, monkeypatch, n, d, r, j, seen, holds):
        # rhs shifted by Phi_n^j, folded, on holding instances, so that
        # every exit of the loop is reached.  At (9, 5, 1) and (12, 5, 3)
        # (k1 = 2 and 3) c0 at k1 is a nonzero multiple of Phi_n, so the
        # loop runs on with both digits to k = n - 1 and decides at once:
        # it fails for j = 1 and holds for j = 2.  At (15, 2, 1) and
        # (10, 3, 2) the factors of D up to k1 supply the other factors
        # of t, so c0 = 0 and the verdict fails at the natural truncation
        inst, phi = derive_instance(n, d, r), cyclotomic(n) ** j
        one = fold_mod_binomial_power(LaurentPoly.one(), n, 2)
        rhs = one.shift(inst.e) * inst.sign + fold_mod_binomial_power(phi, n, 2)
        recorded = self._record_verdicts(monkeypatch)
        v = _folded_verdict(one, rhs, d, r)
        assert recorded == seen
        exact = congruent_mod_phi(
            phi21_truncated(r, d - r, d, d, 0, n),
            QRat(LaurentPoly.monomial(inst.e, inst.sign) + phi), n, 2)
        assert v.holds == exact.holds == holds
        assert v.witness == exact.witness

    @settings(deadline=None)
    @given(st.data(), st.integers(min_value=2, max_value=14),
           st.sampled_from([0, 1, 2]))
    def test_folded_verdict_matches_exact_on_shifted_rhs(self, data, n, j):
        # R = (-1)^a q^e + Phi_n^j X against the exact sum: j = 0 moves
        # R off the prediction by anything, j = 1 keeps it modulo Phi_n
        # and j = 2 modulo Phi_n^2
        d = data.draw(st.sampled_from(
            [d for d in range(2, 8) if gcd(n, d) == 1]))
        r = data.draw(st.integers(min_value=1, max_value=2 * d).filter(
            lambda r: r % d))
        x = data.draw(st.builds(
            LaurentPoly, st.integers(min_value=-6, max_value=6),
            st.lists(st.integers(min_value=-3, max_value=3), max_size=5)))
        inst = derive_instance(n, d, r)
        rhs = LaurentPoly.monomial(inst.e, inst.sign) + cyclotomic(n) ** j * x
        one = fold_mod_binomial_power(LaurentPoly.one(), n, 2)
        v = _folded_verdict(one, fold_mod_binomial_power(rhs, n, 2), d, r)
        exact = congruent_mod_phi(
            phi21_truncated(r, d - r, d, d, 0, n), QRat(rhs), n, 2)
        assert (v.holds, v.witness) == (exact.holds, exact.witness)

    def test_first_digit_decides_on_the_criterion_1_grid(self, monkeypatch):
        # both forms, n <= 40, d <= 10, r <= 2d, d not dividing r: every
        # holding verdict finds c0 = 0 at k1, goes on with one vector and
        # ends on an accumulator that is exactly zero; every failing one
        # stops at k1 on a c0 that Phi_n does not divide
        seen = self._record_verdicts(monkeypatch)
        held = 0
        for n, d, r in grid(40, 10, 20):
            if r > 2 * d:
                continue
            for verify in (verify_theorem, verify_proof_consistent_form):
                seen.clear()
                if verify(n, d, r).holds:
                    held += 1
                    assert seen == [(2, True, True)], (n, d, r, verify)
                else:
                    assert seen[0] == (1, False, False), (n, d, r, verify)
        assert held == 1678 + 1984

    def test_deferred_witness_is_read_once_and_compares_equal(self, monkeypatch):
        calls = self._count_ring_factors(monkeypatch)
        v = verify_theorem(98, 3, 2)
        before = len(calls)
        assert not bool(v) and not v.holds and v.modulus_power == 2
        assert len(calls) == before  # neither bool nor holds reads it
        w = v.witness
        assert len(calls) > before
        assert v.witness == w and v == Verdict(False, 2, w)
        assert verify_theorem(98, 3, 2) == Verdict(False, 2, w)
        assert hash(v) == hash(Verdict(False, 2, w))

    def test_concurrent_first_reads_of_a_witness_agree(self):
        # two threads released together both read the deferred witness
        # of one fresh failing verdict; neither may fail and both agree
        v = verify_theorem(400, 3, 1)
        barrier, results, errors = threading.Barrier(2), [], []

        def read():
            try:
                barrier.wait(timeout=60)
                results.append((v.witness, hash(v)))
            except Exception as exc:  # reported below, in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=read) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and len(results) == 2
        assert results[0] == results[1] and results[0][0] is not None

    @pytest.mark.parametrize("dup", [
        lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    @pytest.mark.parametrize("make", [
        lambda: LaurentPoly(-2, [3, 0, -1]),
        lambda: phi21_truncated(1, 2, 3, 3, 0, 4),
        lambda: verify_theorem(5, 3, 1),
        lambda: verify_theorem(98, 3, 2),  # its witness not yet read
        lambda: Verdict(False, 2, reason="no residue"),
    ], ids=["laurent_poly", "qrat", "holding", "deferred", "reason_only"])
    def test_round_trips_through_pickle_and_copy(self, make, dup):
        original, twin = make(), dup(make())
        assert type(twin) is type(original) and twin == original
        if isinstance(original, QRat):  # the same representation, not only value
            assert (twin.num, twin.factors) == (original.num, original.factors)
        if isinstance(original, Verdict):
            assert twin.witness == original.witness and hash(twin) == hash(original)

    def test_both_forms_digest_with_degenerate_r(self):
        # every verdict and witness of both forms on n = 2..30, d = 2..8
        # coprime, r = 1..3d (d | r included), pinned across rewrites of
        # the Horner loop
        def w(v):
            return None if v.witness is None else (v.witness.low, v.witness.coeffs)

        digest, count = hashlib.sha256(), 0
        for n, d, r in grid(30, 8, 24, include_degenerate=True):
            if r > 3 * d:
                continue
            v = verify_theorem(n, d, r)
            u = verify_proof_consistent_form(n, d, r)
            digest.update(repr((n, d, r, v.holds, w(v), u.holds, w(u))).encode())
            count += 1
        assert count == 1791
        assert digest.hexdigest()[:16] == "d5d02aa87b8739de"

    def test_proof_consistent_form_holds_everywhere(self):
        for n, d, r in grid(10, 6, 6):
            assert verify_proof_consistent_form(n, d, r).holds, (n, d, r)


class TestProofSteps:
    SAMPLE = [(3, 2, 1), (5, 3, 1), (5, 4, 3), (7, 2, 1), (7, 5, 2),
              (4, 3, 1), (8, 3, 2), (13, 3, 1), (16, 3, 1), (16, 5, 2),
              (17, 4, 1)]

    def test_binom_shift_all_k(self):
        for n, d, r in self.SAMPLE:
            for k in range(n):
                assert step_binom_shift(n, d, r, k).holds, (n, d, r, k)

    @pytest.mark.parametrize("step,args,calls", [
        # row 6 + Pochhammer 6 + tail terms 6 + accumulator 6 + prefix 5
        (step_binom_shift, (7, 5, 2, 6), 29),
        # rows 5 + 6, per outer k: tail terms k, accumulator k, prefix k - 1;
        # outer accumulator 6; right side 5 + 4 + 1 and one missing factor
        (step_final3_final4, (7, 5, 2), 85),
        # rows 5 + 6; [1, k] = 0 for k > 1, so outer k = 1 alone: tail term
        # 1, accumulator 1; outer accumulator 6; right side 1 + 1 and five
        # missing factors
        (step_final2, (7, 5, 1), 26),
    ])
    def test_laurent_factor_count(self, monkeypatch, step, args, calls):
        """Count LaurentPoly.times_one_minus calls on a cold memo, so that
        a product formed and never read fails here."""
        counted = self._count_factors(monkeypatch)
        assert bool(step(*args))  # step_final2 returns a plain bool
        assert len(counted) == calls

    def test_laurent_factor_count_after_the_previous_k(self, monkeypatch):
        # k = 5 left [a, 0..5], (q^r;q^d)_0..5 and (q^d;q^d)_0..4 in the
        # memo, so k = 6 adds row 1 + Pochhammer 1 + prefix 1 to its own
        # tail terms 6 + accumulator 6
        assert step_binom_shift(7, 5, 2, 5)
        counted = self._count_factors(monkeypatch)
        assert step_binom_shift(7, 5, 2, 6)
        assert len(counted) == 15

    @staticmethod
    def _count_factors(monkeypatch):
        counted = []
        times_one_minus = LaurentPoly.times_one_minus

        def counting(self, m):
            counted.append(m)
            return times_one_minus(self, m)

        monkeypatch.setattr(LaurentPoly, "times_one_minus", counting)
        return counted

    def test_binom_shift_rejects_bad_k(self):
        with pytest.raises(ValueError):
            step_binom_shift(5, 3, 1, 5)

    def test_final2_exact_identity(self):
        for n, d, r in self.SAMPLE:
            assert step_final2(n, d, derive_instance(n, d, r).a), (n, d, r)

    def test_final3_final4(self):
        for n, d, r in self.SAMPLE:
            assert step_final3_final4(n, d, r).holds, (n, d, r)

    def test_final3_final4_rejects_degenerate(self):
        with pytest.raises(ValueError):
            step_final3_final4(2, 3, 3)

    def test_harmonic_full(self):
        for n in range(2, 12):
            for d in range(2, 8):
                if gcd(n, d) == 1:
                    assert harmonic_full(n, d).holds, (n, d)

    def test_harmonic_twisted(self):
        for n, d, r in self.SAMPLE:
            a = derive_instance(n, d, r).a
            assert harmonic_twisted(n, d, a).holds, (n, d, a)

    def test_expansion_holds_on_odd_n(self):
        for n, d, r in self.SAMPLE:
            if n % 2 == 1:
                assert step_expansion(n, d, r).holds, (n, d, r)

    def test_expansion_fails_exactly_on_even_n_odd_multiplier(self):
        for n, d, r in self.SAMPLE:
            inst = derive_instance(n, d, r)
            m = (inst.a * d + inst.r) // n
            expected = not (n % 2 == 0 and m % 2 == 1)
            assert step_expansion(n, d, r).holds == expected, (n, d, r)

    def test_expansion_holds_at_r_zero(self):
        # r = 0 gives a = 0 and sdn = 0: both sides of the expansion are 2,
        # and the main sum collapses to 1 = q^0
        for n in range(2, 13):
            for d in range(2, 7):
                if gcd(n, d) == 1:
                    assert step_expansion(n, d, 0).holds, (n, d)
                    assert verify_theorem(n, d, 0).holds, (n, d)


def _audit(n, d, r):
    """Every proof-step result of one instance, in the order of criterion
    5, the numerators of both double sums included."""
    a = derive_instance(n, d, r).a
    calls = [lambda k=k: step_binom_shift(n, d, r, k) for k in range(n)]
    calls += [lambda: step_final2(n, d, a),
              lambda: _double_sum(n, d, a),
              lambda: step_final3_final4(n, d, r),
              lambda: _double_sum(n, d, a, companion=True),
              lambda: harmonic_full(n, d),
              lambda: harmonic_twisted(n, d, a),
              lambda: step_expansion(n, d, r)]
    return calls


class TestSharedRows:
    """The proof steps of one instance share its rows, Pochhammer prefixes
    and (q^d;q^d)_i, built on first read; results must not depend on what
    earlier calls left in the memo."""

    GRID = [(n, d, r) for n in range(2, 10) for d in range(2, 7)
            if gcd(n, d) == 1 for r in range(1, d)]

    def test_cold_and_warm_results_agree(self):
        # a failing witness would compare too: Verdict equality reads it
        for n, d, r in self.GRID:
            calls = _audit(n, d, r)
            cold = []
            for call in calls:
                clear_memos()
                cold.append(call())
            clear_memos()
            in_order = [call() for call in calls]  # filled as the audit runs
            warm = [call() for call in calls]  # every read from the memo
            assert cold == in_order == warm, (n, d, r)

    def test_memo_holds_the_last_instance_only(self):
        for n, d, r in [(7, 5, 2), (9, 4, 3)]:
            for call in _audit(n, d, r):
                call()
        a = derive_instance(9, 4, 3).a
        for memo, key in ((theorems._proof_rows, (4, a)),
                          (theorems._rising_rows, (3, 4))):
            before = memo.cache_info()
            assert before.currsize == 1
            memo(*key)
            after = memo.cache_info()
            assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        # built as far as read: [a, n-1] and [-1-a, n-1] by the binomial
        # shift and the outer double sum, (q^d;q^d)_{n-2} by k = n - 1
        rows = theorems._proof_rows(4, a)
        assert [len(p._built) for p in rows] == [9, 9, 8]

    def test_two_threads_agree_with_one(self):
        instances = [(9, 5, 2), (8, 3, 1)]
        expected = [[call() for call in _audit(*inst)] for inst in instances]
        clear_memos()
        barrier, results, errors = threading.Barrier(2), {}, []

        def work(inst):
            try:
                barrier.wait(timeout=60)
                # repeated, so that the two instances evict each other
                results[inst] = [[call() for call in _audit(*inst)]
                                 for _ in range(5)]
            except Exception as exc:  # reported below, in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(inst,))
                   for inst in instances]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads) and errors == []
        for inst, want in zip(instances, expected):
            assert results[inst] == [want] * 5, inst


class TestSpecialCases:
    def test_case_table(self):
        assert set(SPECIAL_CASES) == {"qmor2", "qmor3", "qmor4", "qmor6"}

    def test_qmor2_small_primes(self):
        for p in (3, 5, 7, 11, 13, 17, 19):
            assert verify_special_case("qmor2", p).holds, p

    def test_qmor3_small_primes(self):
        for p in (5, 7, 11, 13):
            assert verify_special_case("qmor3", p).holds, p

    def test_qmor4_small_primes(self):
        for p in (5, 7, 11, 13):
            assert verify_special_case("qmor4", p).holds, p

    def test_qmor6_small_primes(self):
        for p in (5, 7, 11, 13):
            assert verify_special_case("qmor6", p).holds, p

    def test_closed_forms_match_derivation(self):
        # exponent coef * (1 - p^2) and sign as a Legendre symbol
        from qcongruence.congruence import legendre
        for label, (d, leg_arg, coef) in SPECIAL_CASES.items():
            min_p = 3 if label == "qmor2" else 5
            for p in (3, 5, 7, 11, 13, 17, 19, 23):
                if p < min_p or gcd(p, d) != 1:
                    continue
                inst = derive_instance(p, d, 1)
                assert inst.e == int(coef * (1 - p * p)), (label, p)
                assert inst.sign == legendre(leg_arg, p), (label, p)

    @pytest.mark.parametrize("entry,named,other", [
        ((3, 3, Fraction(1, 3)), "sign", "exponent"),
        ((3, -3, Fraction(1, 6)), "exponent", "sign"),
    ])
    def test_closed_form_mismatch_carries_reason(self, monkeypatch, entry,
                                                 named, other):
        # the congruence itself holds at p = 7; only one closed form is
        # made to disagree, so there is no residue to show
        monkeypatch.setitem(SPECIAL_CASES, "qmor3", entry)
        v = verify_special_case("qmor3", 7)
        assert verify_theorem(7, 3, 1).holds
        assert not v.holds and v.witness is None
        assert named in v.reason and other not in v.reason

    def test_rejects_out_of_range_prime(self):
        with pytest.raises(ValueError):
            verify_special_case("qmor3", 3)
        with pytest.raises(ValueError):
            verify_special_case("qmor2", 9)
        with pytest.raises(ValueError):
            verify_special_case("nope", 5)
