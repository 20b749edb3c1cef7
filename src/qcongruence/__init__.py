"""Exact computer algebra for truncated (q-)hypergeometric congruences.

The package builds truncated basic hypergeometric sums as exact rational
functions of q and decides congruences modulo powers of cyclotomic
polynomials, together with the classical q -> 1 statements modulo p^2.
No floating point is used anywhere.
"""

from .polyring import LaurentPoly
from .cyclotomic import cyclotomic, euler_totient
from .qcombinatorics import (
    QRat,
    gauss_binomial,
    poch_to_binom_check,
    q_pochhammer,
    qchu_check,
)
from .congruence import CongruenceDomainError, Verdict, congruent_mod_phi
from .theorems import (
    SPECIAL_CASES,
    ClassicalInstance,
    TheoremInstance,
    derive_classical,
    derive_instance,
    f21_truncated_classical,
    harmonic_full,
    harmonic_twisted,
    phi21_truncated,
    step_binom_shift,
    step_expansion,
    step_final2,
    step_final3_final4,
    verify_classical,
    verify_proof_consistent_form,
    verify_special_case,
    verify_theorem,
)
from .report import Report, ReportItem

__version__ = "0.1.0"
