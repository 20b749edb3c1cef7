import csv
import io
import json

import pytest

from qcongruence import congruence, qcombinatorics, theorems
from qcongruence.cli import main
from qcongruence.polyring import LaurentPoly
from qcongruence.report import Report, ReportItem


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_holding_instance_exits_zero(self, capsys):
        code, out, err = run(capsys, "verify", "--n", "5", "--d", "3", "--r", "1")
        assert code == 0 and err == ""
        assert "pass" in out

    def test_failing_instance_exits_one(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4", "--d", "3", "--r", "1")
        assert code == 1
        assert "FAIL" in out

    def test_precondition_error_exits_two(self, capsys):
        code, out, err = run(capsys, "verify", "--n", "6", "--d", "3", "--r", "1")
        assert code == 2 and out == ""
        assert "error:" in err

    def test_missing_argument_exits_two(self, capsys):
        code, _, _ = run(capsys, "verify", "--n", "5", "--d", "3")
        assert code == 2

    def test_json_fields(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "5", "--d", "3", "--r", "1",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["summary"] == {"total": 1, "passed": 1, "failed": 0,
                                  "skipped": 0}
        item = obj["items"][0]
        assert (item["n"], item["d"], item["r"]) == (5, 3, 1)
        assert (item["a"], item["e"], item["sign"]) == (3, -8, -1)
        assert item["checks"] == {"theorem": True}
        # the item's time in ns beside the whole ms it rounds down to
        assert isinstance(item["ns"], int) and item["ns"] > 0
        assert item["ms"] == item["ns"] // 1_000_000


class TestSteps:
    def test_all_step_checks_present(self, capsys):
        _, out, _ = run(capsys, "verify", "--n", "5", "--d", "3", "--r", "1",
                        "--steps", "--format", "json")
        checks = json.loads(out)["items"][0]["checks"]
        assert set(checks) == {"theorem", "equivalent_form", "binom_shift",
                               "final2", "final3_final4", "harmonic_full",
                               "harmonic_twisted", "expansion"}
        assert all(checks.values())

    def test_r_zero_passes_every_step(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "5", "--d", "3",
                           "--r", "0", "--steps")
        assert code == 0 and "FAIL" not in out

    def test_each_row_is_divided_out_once(self, capsys, monkeypatch):
        # the memo starts empty (conftest): the steps build [a, 1..n-1] and
        # [-1-a, 1..n-1] once, one exact division each, 2(n - 1) = 58 at
        # n = 30 (549 if every step call built its rows anew)
        divisions = []
        div_one_minus = LaurentPoly.div_one_minus

        def counting(self, m):
            divisions.append(m)
            return div_one_minus(self, m)

        monkeypatch.setattr(LaurentPoly, "div_one_minus", counting)
        code, out, _ = run(capsys, "verify", "--n", "30", "--d", "7",
                           "--r", "2", "--steps")
        assert code == 1 and "binom_shift:ok" in out  # the literal form fails
        assert len(divisions) == 2 * (30 - 1)

    def test_failing_instance_localizes_to_expansion(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4", "--d", "3", "--r", "1",
                           "--steps", "--format", "json")
        assert code == 1
        checks = json.loads(out)["items"][0]["checks"]
        failed = {k for k, v in checks.items() if not v}
        assert failed == {"theorem", "expansion"}

    @pytest.fixture
    def no_oracle(self, monkeypatch):
        """Make the exact oracle (union_sum, QRat sums and equality,
        congruent_mod_phi) raise, so that a command reaching it fails."""
        def oracle(*args):
            raise AssertionError("the exact oracle was called")

        for owner, name in ((qcombinatorics, "union_sum"),
                            (congruence, "union_sum"),
                            (qcombinatorics.QRat, "__add__"),
                            (qcombinatorics.QRat, "__eq__"),
                            (congruence, "congruent_mod_phi")):
            monkeypatch.setattr(owner, name, oracle)
        assert not hasattr(theorems, "union_sum")

    @pytest.mark.parametrize("n,d,r,code,failed", [
        (7, 5, 2, 0, set()),
        (4, 3, 1, 1, {"theorem", "expansion"}),
        (5, 3, 0, 0, set()),
    ])
    def test_audit_never_reaches_the_oracle(self, capsys, no_oracle,
                                            n, d, r, code, failed):
        got, out, err = run(capsys, "verify", "--n", str(n), "--d", str(d),
                            "--r", str(r), "--steps", "--format", "json")
        assert (got, err) == (code, "")
        checks = json.loads(out)["items"][0]["checks"]
        assert len(checks) == (7 if r % d == 0 else 8)
        assert {k for k, v in checks.items() if not v} == failed

    def test_sweep_audit_never_reaches_the_oracle(self, capsys, no_oracle):
        code, out, err = run(capsys, "sweep", "--n-max", "5", "--d-max", "3",
                             "--r-max", "3", "--steps", "--include-degenerate",
                             "--format", "json")
        assert (code, err) == (1, "")
        failing = []
        for it in json.loads(out)["items"]:
            failed = {k for k, v in it["checks"].items() if not v}
            if failed:
                failing.append((it["n"], it["d"], it["r"]))
                assert failed == {"theorem", "expansion"}
        # even n with odd (a d + r)/n, the degenerate d | r included
        assert failing == [(2, 3, 2), (2, 3, 3), (4, 3, 1), (4, 3, 3)]


class TestSweep:
    def test_small_grid(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n-max", "5", "--d-max", "4",
                           "--r-max", "3", "--format", "json")
        obj = json.loads(out)
        assert obj["summary"]["total"] > 0
        # failures are exactly the even-n instances with odd (a d + r)/n
        failed = [(it["n"], it["d"], it["r"]) for it in obj["items"]
                  if not it["checks"]["theorem"]]
        expected = [(it["n"], it["d"], it["r"]) for it in obj["items"]
                    if it["n"] % 2 == 0
                    and ((it["a"] * it["d"] + it["r"]) // it["n"]) % 2 == 1]
        assert failed == expected and failed
        assert code == 1

    def test_degenerate_flagging(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n-max", "2", "--d-max", "3",
                           "--r-max", "3", "--include-degenerate",
                           "--format", "json")
        assert code == 1  # (2, 3, 3) is the known degenerate failure
        items = json.loads(out)["items"]
        flagged = [it for it in items if "degenerate" in it["flags"]]
        assert [(it["n"], it["d"], it["r"]) for it in flagged] == [(2, 3, 3)]

    def test_bad_bounds_exit_two(self, capsys):
        code, _, err = run(capsys, "sweep", "--n-max", "1", "--d-max", "4",
                           "--r-max", "3")
        assert code == 2 and "error:" in err


class TestClassical:
    def test_comma_list_and_skips(self, capsys):
        code, out, _ = run(capsys, "classical", "--alpha", "1/2,1/5",
                           "--p-max", "13", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["summary"]["failed"] == 0
        skipped = [it for it in obj["items"] if "skipped" in it["flags"]]
        # p = 5 divides the denominator of 1/5
        assert [(it["alpha"], it["p"]) for it in skipped] == [("1/5", 5)]

    def test_repeatable_alpha(self, capsys):
        code, out, _ = run(capsys, "classical", "--alpha", "1/2", "--alpha",
                           "3/4", "--p-max", "7", "--format", "json")
        assert code == 0
        alphas = {it["alpha"] for it in json.loads(out)["items"]}
        assert alphas == {"1/2", "3/4"}

    def test_bad_alpha_exits_two(self, capsys):
        for alpha in ("1/0", "x"):
            code, out, err = run(capsys, "classical", "--alpha", alpha,
                                 "--p-max", "7")
            assert code == 2 and out == "", alpha
            assert err.startswith("error:"), alpha


class TestSpecial:
    def test_each_case(self, capsys):
        for case in ("qmor2", "qmor3", "qmor4", "qmor6"):
            code, out, _ = run(capsys, "special", "--case", case,
                               "--p-max", "13", "--format", "json")
            assert code == 0, case
            assert json.loads(out)["summary"]["failed"] == 0, case

    def test_qmor2_includes_three(self, capsys):
        _, out, _ = run(capsys, "special", "--case", "qmor2", "--p-max", "13",
                        "--format", "json")
        assert [it["p"] for it in json.loads(out)["items"]] == [3, 5, 7, 11, 13]


class TestCyclotomic:
    def test_phi_six(self, capsys):
        code, out, _ = run(capsys, "cyclotomic", "--n", "6", "--format", "json")
        assert code == 0
        item = json.loads(out)["items"][0]
        assert item["degree"] == 2
        assert item["coefficients"] == "[1 -1 1]"

    def test_phi_105_has_coefficient_minus_two(self, capsys):
        _, out, _ = run(capsys, "cyclotomic", "--n", "105", "--format", "json")
        coeffs = json.loads(out)["items"][0]["coefficients"]
        assert " -2 " in coeffs


class TestDeterminism:
    def test_json_byte_identical_modulo_timing(self, capsys):
        argv = ("sweep", "--n-max", "5", "--d-max", "3", "--r-max", "2",
                "--format", "json")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)

        def normalize(s):
            obj = json.loads(s)
            for it in obj["items"]:
                it["ms"] = it["ns"] = 0
            return json.dumps(obj, indent=2)

        assert normalize(out1) == normalize(out2)


class TestRenderings:
    def test_csv_parses_with_header(self, capsys):
        _, out, _ = run(capsys, "verify", "--n", "5", "--d", "3", "--r", "1",
                        "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "d", "r", "a", "e", "sign", "flags", "checks",
                           "ms", "status"]
        assert rows[1][:6] == ["5", "3", "1", "3", "-8", "-1"]
        assert rows[1][-1] == "pass"

    def test_text_has_summary_line(self, capsys):
        _, out, _ = run(capsys, "verify", "--n", "5", "--d", "3", "--r", "1")
        assert out.splitlines()[-1] == \
            "total 1  passed 1  failed 0  skipped 0"


class TestReportObjects:
    def test_skipped_item_counts(self):
        rep = Report(["x"])
        rep.items.append(ReportItem({"x": 1}, {"c": True}))
        rep.items.append(ReportItem({"x": 2}, {}, skipped=True))
        rep.items.append(ReportItem({"x": 3}, {"c": False}))
        assert rep.summary == {"total": 3, "passed": 1, "failed": 1,
                               "skipped": 1}
        assert rep.failed == 1

    def test_text_and_csv_rendering(self):
        rep = Report(["n", "d", "r"])
        rep.items.append(ReportItem({"n": 5, "d": 3, "r": 1},
                                    {"theorem": True, "expansion": True}, ms=2))
        rep.items.append(ReportItem({"n": 4, "d": 3, "r": 1},
                                    {"theorem": False, "expansion": True}, ms=17))
        rep.items.append(ReportItem({"n": 6, "d": 5}, {}, ["degenerate"],
                                    skipped=True))
        rep.items.append(ReportItem({"n": 10, "d": 3, "r": 3}, {"theorem": True},
                                    ["degenerate"]))
        assert rep.to_text() == (
            "n   d  r  flags               checks                     ms  status\n"
            "5   3  1                      theorem:ok expansion:ok    2   pass\n"
            "4   3  1                      theorem:FAIL expansion:ok  17  FAIL\n"
            "6   5     degenerate;skipped                             0   skip\n"
            "10  3  3  degenerate          theorem:ok                 0   pass\n"
            "total 4  passed 2  failed 1  skipped 1\n")
        assert rep.to_csv() == (
            "n,d,r,flags,checks,ms,status\n"
            "5,3,1,,theorem=pass;expansion=pass,2,pass\n"
            "4,3,1,,theorem=fail;expansion=pass,17,fail\n"
            "6,5,,degenerate;skipped,,0,skip\n"
            "10,3,3,degenerate,theorem=pass,0,pass\n")

    def test_json_carries_ns_beside_ms(self):
        rep = Report(["x"])
        rep.items.append(ReportItem({"x": 1}, {"c": True}, ms=3))
        rep.items.append(ReportItem({"x": 2}, {"c": True}, ms=0, ns=41_000))
        assert [(it["ms"], it["ns"]) for it in rep.to_obj()["items"]] == \
            [(3, 0), (0, 41_000)]
        assert "ns" not in rep.to_csv() and "ns" not in rep.to_text()

    def test_empty_report_rendering(self):
        assert Report(["x"]).to_text() == (
            "x  flags  checks  ms  status\n"
            "total 0  passed 0  failed 0  skipped 0\n")
        assert Report(["x"]).to_csv() == "x,flags,checks,ms,status\n"

    def test_unknown_format_rejected(self):
        import pytest
        with pytest.raises(ValueError):
            Report(["x"]).render("yaml")
