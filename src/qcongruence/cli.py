"""Command-line front end: single-instance verification, grid sweeps,
proof-step audits and classical-limit checks.

Exit codes: 0 all verdicts hold, 1 at least one verification failed,
2 usage or precondition error.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from math import gcd

from . import theorems
from .congruence import is_odd_prime
from .cyclotomic import cyclotomic, euler_totient
from .report import Report, ReportItem

THEOREM_COLUMNS = ["n", "d", "r", "a", "e", "sign"]


def _elapsed(start: int) -> dict:
    ns = time.perf_counter_ns() - start
    return {"ms": ns // 1_000_000, "ns": ns}


def _theorem_item(n: int, d: int, r: int, steps: bool) -> ReportItem:
    start = time.perf_counter_ns()
    inst = theorems.derive_instance(n, d, r)
    checks = {"theorem": theorems.verify_theorem(n, d, r).holds}
    if steps:
        # one denominator on both sides, so equal numerators mean equal sums
        lhs = theorems.phi21_truncated(r, d - r, d, d, 0, n)
        rhs = theorems.equivalent_form_sum(n, d, r)
        checks["equivalent_form"] = (lhs.factors, lhs.num) == (rhs.factors, rhs.num)
        checks["binom_shift"] = all(
            theorems.step_binom_shift(n, d, r, k).holds for k in range(n))
        checks["final2"] = theorems.step_final2(n, d, inst.a)
        if not inst.degenerate:
            checks["final3_final4"] = theorems.step_final3_final4(n, d, r).holds
        checks["harmonic_full"] = theorems.harmonic_full(n, d).holds
        checks["harmonic_twisted"] = theorems.harmonic_twisted(n, d, inst.a).holds
        checks["expansion"] = theorems.step_expansion(n, d, r).holds
    flags = ["degenerate"] if inst.degenerate else []
    fields = {"n": n, "d": d, "r": r, "a": inst.a, "e": inst.e, "sign": inst.sign}
    return ReportItem(fields, checks, flags, **_elapsed(start))


def cmd_verify(args) -> Report:
    report = Report(THEOREM_COLUMNS)
    report.items.append(_theorem_item(args.n, args.d, args.r, args.steps))
    return report


def cmd_sweep(args) -> Report:
    if args.n_max < 2 or args.d_max < 2 or args.r_max < 1:
        raise ValueError("sweep bounds: need --n-max >= 2, --d-max >= 2, --r-max >= 1")
    report = Report(THEOREM_COLUMNS)
    for n in range(2, args.n_max + 1):
        for d in range(2, args.d_max + 1):
            if gcd(n, d) != 1:
                continue
            for r in range(1, args.r_max + 1):
                if r % d == 0 and not args.include_degenerate:
                    continue
                report.items.append(_theorem_item(n, d, r, args.steps))
    return report


def cmd_classical(args) -> Report:
    alphas = []
    for chunk in args.alpha:
        for part in chunk.split(","):
            try:
                alphas.append(Fraction(part.strip()))
            except ZeroDivisionError as exc:
                raise ValueError(f"alpha {part.strip()} has denominator 0") from exc
    alphas = sorted(set(alphas))
    report = Report(["alpha", "p", "a"])
    primes = [p for p in range(3, args.p_max + 1) if is_odd_prime(p)]
    for alpha in alphas:
        for p in primes:
            # p = 3 is only within the stated range for alpha = 1/2
            if p == 3 and alpha != Fraction(1, 2):
                continue
            start = time.perf_counter_ns()
            if alpha.denominator % p == 0:
                report.items.append(ReportItem(
                    {"alpha": str(alpha), "p": p, "a": ""},
                    {}, [], **_elapsed(start), skipped=True))
                continue
            inst = theorems.derive_classical(alpha, p)
            verdict = theorems.verify_classical(alpha, p)
            report.items.append(ReportItem(
                {"alpha": str(alpha), "p": p, "a": inst.a_classical},
                {"classical": verdict.holds}, [], **_elapsed(start)))
    return report


def cmd_special(args) -> Report:
    d, _, _ = theorems.SPECIAL_CASES[args.case]
    report = Report(["case", "p", "a", "e", "sign"])
    for p in theorems.special_case_primes(args.case, args.p_max):
        start = time.perf_counter_ns()
        inst = theorems.derive_instance(p, d, 1)
        verdict = theorems.verify_special_case(args.case, p)
        report.items.append(ReportItem(
            {"case": args.case, "p": p, "a": inst.a, "e": inst.e,
             "sign": inst.sign},
            {"special": verdict.holds}, [], **_elapsed(start)))
    return report


def cmd_cyclotomic(args) -> Report:
    start = time.perf_counter_ns()
    poly = cyclotomic(args.n)
    report = Report(["n", "degree", "coefficients"])
    report.items.append(ReportItem(
        {"n": args.n, "degree": poly.degree,
         "coefficients": "[" + " ".join(str(c) for c in poly.coeffs) + "]"},
        {"degree_is_totient": poly.degree == euler_totient(args.n)},
        [], **_elapsed(start)))
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcongruence",
        description="Exact verification of truncated (q-)hypergeometric "
                    "congruences modulo cyclotomic powers and modulo p^2.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["text", "json", "csv"],
                       default="text")

    p = sub.add_parser("verify", help="verify one (n, d, r) instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--steps", action="store_true",
                   help="also audit every intermediate proof step")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="verify a whole (n, d, r) grid")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--include-degenerate", action="store_true")
    p.add_argument("--steps", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("classical", help="check the q -> 1 congruences mod p^2")
    p.add_argument("--alpha", action="append", required=True,
                   help="rational alpha, e.g. 1/2 (repeatable or comma "
                        "list); write a negative one as --alpha=-1/2")
    p.add_argument("--p-max", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_classical)

    p = sub.add_parser("special", help="check one named special case for all "
                                       "primes up to a bound")
    p.add_argument("--case", choices=sorted(theorems.SPECIAL_CASES),
                   required=True)
    p.add_argument("--p-max", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_special)

    p = sub.add_parser("cyclotomic", help="print Phi_n as a coefficient list")
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_cyclotomic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        report = args.func(args)
    except ValueError as exc:  # CongruenceDomainError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.render(args.format))
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
