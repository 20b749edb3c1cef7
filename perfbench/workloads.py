"""Seeded inputs, expected verdicts and the verdict runner for each workload.

An instance is a tuple (kind, n, d, r):

- ``literal``: the main congruence as stated, through ``derive_instance`` and
  ``verify_theorem`` (the folded path);
- ``audit``: the six proof-step verifiers of one (n, d, r), as criterion 5
  of the acceptance suite runs them;
- ``corrected``: the corrected congruence, ``verify_proof_consistent_form``
  (the exact rational-function path).

A workload is an endless stream of passes; a pass is one list of instances
and plays the part of one CLI invocation (fresh import, one rendered report).
The same seed always gives the same stream.  Expected verdicts come from a
closed-form rule, never from stored answers or from the package itself.
"""

from __future__ import annotations

import random
from math import gcd

WORKLOADS = ("sweep", "audit", "large_n")

# criterion-1 shape: every coprime (n, d) cell, r in 1..2d with d not dividing r
SWEEP_N = range(2, 41)
SWEEP_D = range(2, 11)
# criterion-5 shape, sliced to n <= 7 so that a pass takes a few seconds
AUDIT_N = range(2, 8)
AUDIT_D = range(2, 7)
# large_n slots: (kind, n, expected literal verdict or None).  n and
# d are fixed because the verdict cost follows n, phi(n) and d; the seed
# draws r and the order.  With five slots the median falls inside one slot.
LARGE_N_D = 3
LARGE_N_SLOTS = (("literal", 400, False), ("literal", 400, True),
                 ("literal", 401, True), ("corrected", 62, None),
                 ("corrected", 80, None))

AUDIT_STEPS = ("binom_shift", "final2", "final3_final4",
               "harmonic_full", "harmonic_twisted", "expansion")
COLUMNS = ["kind", "n", "d", "r", "a", "e", "sign"]


def residue_a(n: int, d: int, r: int) -> int:
    """a = <-r/d>_n, the residue of -r/d modulo n."""
    return (-r * pow(d, -1, n)) % n


def literal_holds(n: int, d: int, r: int) -> bool:
    """The literal statement (and the expansion step) fail exactly when n is
    even and (a d + r)/n is odd."""
    a = residue_a(n, d, r)
    return not (n % 2 == 0 and (a * d + r) // n % 2 == 1)


def expected_checks(kind: str, n: int, d: int, r: int) -> dict:
    if kind == "literal":
        return {"theorem": literal_holds(n, d, r)}
    if kind == "audit":
        checks = dict.fromkeys(AUDIT_STEPS, True)
        checks["expansion"] = literal_holds(n, d, r)
        return checks
    if kind == "corrected":
        return {"proof_consistent_form": True}
    raise ValueError(f"unknown instance kind {kind!r}")


def _r_values(d: int, r_max: int) -> list:
    return [r for r in range(1, r_max + 1) if r % d]


def _sweep_pass(rng: random.Random) -> list:
    # one r drawn per (n, d) cell keeps every pass the same shape
    batch = [("literal", n, d, rng.choice(_r_values(d, 2 * d)))
             for n in SWEEP_N for d in SWEEP_D if gcd(n, d) == 1]
    rng.shuffle(batch)
    return batch


def _audit_pass(rng: random.Random) -> list:
    # the whole slice: audit cost varies 3x between r values of one (n, d)
    # cell, so drawing r would let the seed, not the code, set the timings
    batch = [("audit", n, d, r)
             for n in AUDIT_N for d in AUDIT_D if gcd(n, d) == 1
             for r in _r_values(d, d - 1)]
    rng.shuffle(batch)
    return batch


def _large_n_pass(rng: random.Random) -> list:
    d = LARGE_N_D
    batch = []
    for kind, n, holds in LARGE_N_SLOTS:
        if kind == "literal":
            rs = [r for r in _r_values(d, 2 * d) if literal_holds(n, d, r) == holds]
        else:
            rs = _r_values(d, d - 1)
        batch.append((kind, n, d, rng.choice(rs)))
    rng.shuffle(batch)
    return batch


_PASS_MAKERS = {"sweep": _sweep_pass, "audit": _audit_pass,
                "large_n": _large_n_pass}


def passes(workload: str, seed: int):
    """Endless, seed-determined stream of passes for one workload."""
    make = _PASS_MAKERS[workload]
    rng = random.Random(seed)
    while True:
        yield make(rng)


def first_pass(workload: str, seed: int) -> list:
    return next(passes(workload, seed))


def run_instance(qc, instance) -> tuple:
    """Run one verdict through the public API of package ``qc``.

    Returns (fields, checks) for the report item.
    """
    kind, n, d, r = instance
    inst = qc.derive_instance(n, d, r)
    fields = {"kind": kind, "n": n, "d": d, "r": r,
              "a": inst.a, "e": inst.e, "sign": inst.sign}
    if kind == "literal":
        checks = {"theorem": qc.verify_theorem(n, d, r).holds}
    elif kind == "audit":
        a = inst.a
        checks = {
            "binom_shift": all(qc.step_binom_shift(n, d, r, k).holds
                               for k in range(n)),
            "final2": qc.step_final2(n, d, a),
            "final3_final4": qc.step_final3_final4(n, d, r).holds,
            "harmonic_full": qc.harmonic_full(n, d).holds,
            "harmonic_twisted": qc.harmonic_twisted(n, d, a).holds,
            "expansion": qc.step_expansion(n, d, r).holds,
        }
    elif kind == "corrected":
        checks = {"proof_consistent_form":
                  qc.verify_proof_consistent_form(n, d, r).holds}
    else:
        raise ValueError(f"unknown instance kind {kind!r}")
    return fields, checks


def verdict_correct(instance, fields: dict, checks: dict) -> bool:
    kind, n, d, r = instance
    a = residue_a(n, d, r)
    return (checks == expected_checks(kind, n, d, r)
            and fields["a"] == a and fields["sign"] == (-1) ** a)
