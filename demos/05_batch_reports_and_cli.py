"""
Batch verification and machine-readable reports
===============================================

The same report objects that back the command-line interface can be
driven from Python: sweep a parameter grid, collect per-instance
verdicts and derived data, and render the result as a text table, JSON,
or CSV.
"""

import json
from math import gcd

from qcongruence import Report, ReportItem, derive_instance, verify_theorem

# Build a report over a small grid by hand.
report = Report(["n", "d", "r", "a", "e", "sign"])
for n in range(2, 8):
    for d in range(2, 5):
        if gcd(n, d) != 1:
            continue
        for r in range(1, d):
            inst = derive_instance(n, d, r)
            report.items.append(ReportItem(
                fields={"n": n, "d": d, "r": r, "a": inst.a, "e": inst.e,
                        "sign": inst.sign},
                checks={"theorem": verify_theorem(n, d, r).holds},
                flags=["degenerate"] if inst.degenerate else [],
            ))

# Text rendering: one aligned row per instance plus a summary line.
print(report.to_text())

# JSON rendering round-trips through the standard library.
obj = json.loads(report.to_json())
print(f"JSON summary: {obj['summary']}")

# CSV rendering for spreadsheets and downstream tooling.
print("\nfirst three CSV rows:")
for line in report.to_csv().splitlines()[:4]:
    print(f"  {line}")

# The installed console script exposes the same functionality:
#
#   qcongruence verify --n 5 --d 3 --r 1
#   qcongruence verify --n 7 --d 5 --r 2 --steps --format json
#   qcongruence sweep  --n-max 12 --d-max 6 --r-max 5 --format csv
#   qcongruence classical --alpha 1/2,1/3 --p-max 37
#   qcongruence special --case qmor3 --p-max 37
#   qcongruence cyclotomic --n 105
#
# Exit status: 0 when every verdict holds, 1 when any fails, 2 on a
# usage or precondition error.
