"""Machine-readable run reports: text table, JSON, and CSV renderings.

All values are exact (ints, exact rational strings, booleans); the only
nondeterministic fields are the per-item timings: ms, and ns in JSON.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class ReportItem:
    """One row: identity ``fields``, ``checks`` (name -> verdict), timings."""

    def __init__(self, fields: Dict[str, Any], checks: Dict[str, bool],
                 flags: Optional[List[str]] = None, ms: int = 0,
                 skipped: bool = False, ns: int = 0):
        self.fields, self.checks, self.ms, self.ns = fields, checks, ms, ns
        self.skipped, self.flags = skipped, [] if flags is None else flags

    @property
    def passed(self) -> bool:
        return not self.skipped and all(self.checks.values())


class Report:
    """Items under the names of their identity columns."""

    def __init__(self, columns: List[str], items: Optional[list] = None):
        self.columns = columns
        self.items = [] if items is None else items

    @property
    def summary(self) -> Dict[str, int]:
        passed = sum(1 for it in self.items if it.passed)
        skipped = sum(1 for it in self.items if it.skipped)
        failed = len(self.items) - passed - skipped
        return {"total": len(self.items), "passed": passed,
                "failed": failed, "skipped": skipped}

    @property
    def failed(self) -> int:
        return self.summary["failed"]

    # -- renderings --------------------------------------------------------

    def to_obj(self) -> Dict[str, Any]:
        items = []
        for it in self.items:
            obj = dict(it.fields)
            obj["flags"] = (it.flags + (["skipped"] if it.skipped else []))
            obj["checks"] = dict(it.checks)
            obj["ms"] = it.ms
            obj["ns"] = it.ns
            items.append(obj)
        return {"summary": self.summary, "items": items}

    def to_json(self) -> str:
        import json  # loaded on first use, not with the package
        return json.dumps(self.to_obj(), indent=2) + "\n"

    def _table(self, ok: str, fail: str, sep: str, failed: str):
        """Header and rows of the text and CSV tables: ok and fail mark a
        check, sep joins the checks, failed is a failed item's status."""
        header = self.columns + ["flags", "checks", "ms", "status"]
        rows = []
        for it in self.items:
            flags = ";".join(it.flags + (["skipped"] if it.skipped else []))
            checks = sep.join(k + (ok if v else fail) for k, v in it.checks.items())
            status = "skip" if it.skipped else ("pass" if it.passed else failed)
            rows.append([str(it.fields.get(c, "")) for c in self.columns]
                        + [flags, checks, str(it.ms), status])
        return header, rows

    def to_csv(self) -> str:
        header, rows = self._table("=pass", "=fail", ";", "fail")
        return "".join(",".join(row) + "\n" for row in [header] + rows)

    def to_text(self) -> str:
        header, rows = self._table(":ok", ":FAIL", " ", "FAIL")
        widths = [max(map(len, column)) for column in zip(header, *rows)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                 for row in [header] + rows]
        s = self.summary
        lines.append(f"total {s['total']}  passed {s['passed']}  "
                     f"failed {s['failed']}  skipped {s['skipped']}")
        return "".join(line + "\n" for line in lines)

    def render(self, fmt: str) -> str:
        if fmt == "text":
            return self.to_text()
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise ValueError(f"unknown format {fmt!r}")
