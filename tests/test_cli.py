"""End-to-end CLI behavior: record lines, exit codes, reports, overrides."""

import json
import math
import re

import pytest

from frullani.cli import main
from frullani.expr import MAX_DEPTH
from frullani.series import gr_4_324_2_closed

RECORD_RE = re.compile(
    r"^entry=\S+ params=\S* expected=\S+ numeric=\S+ "
    r"abs_err=(\d\.\d{3}e[+-]\d{2,}|nan) status=[A-Z_]+$"
)


def fields(line):
    """Split a record line into its key=value fields."""
    out = {}
    for tok in line.split():
        key, _, val = tok.partition("=")
        out[key] = val
    return out


class TestList:
    def test_twenty_rows(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 20
        assert lines[0].startswith("GR-3.434.2")
        assert all(("smooth-decay" in ln or "finite-interval" in ln or "oscillatory" in ln) for ln in lines)


class TestVerify:
    def test_single_binding_record_line(self, capsys):
        rc = main(["verify", "GR-3.434.2", "--params", "a=1,b=2"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert len(out) == 1
        assert RECORD_RE.match(out[0]), out[0]
        f = fields(out[0])
        assert f["entry"] == "GR-3.434.2"
        assert f["params"] == "a=1.0;b=2.0"
        assert f["expected"] == repr(math.log(2.0))
        assert f["status"] == "PASS"

    def test_default_grid_runs_three_bindings(self, capsys):
        rc = main(["verify", "R-3.1"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert len(out) == 3
        assert all(RECORD_RE.match(ln) for ln in out)

    def test_params_print_in_declaration_order(self, capsys):
        main(["verify", "R-3.2", "--params", "a=1,b=2,p=2,q=1"])
        f = fields(capsys.readouterr().out.splitlines()[0])
        assert f["params"] == "p=2.0;q=1.0;a=1.0;b=2.0"

    def test_undeclared_params_are_not_printed(self, capsys):
        rc = main(["verify", "R-3.4", "--params", "a=1,c=2"])
        captured = capsys.readouterr()
        assert rc == 0
        f = fields(captured.out.splitlines()[0])
        assert f["params"] == "a=1.0"
        assert f["status"] == "CONSTRAINT_VIOLATION"
        assert "missing b; unexpected c" in captured.err

    def test_unknown_entry_is_usage_error(self, capsys):
        rc = main(["verify", "GR-9.999"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: unknown catalog entry")

    @pytest.mark.parametrize("bad", ["a=oops,b=2", "a", ","])
    def test_malformed_params(self, bad, capsys):
        rc = main(["verify", "GR-3.434.2", "--params", bad])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_constraint_violation_skips_with_detail(self, capsys):
        rc = main(["verify", "R-3.6", "--params", "p=1,q=3"])
        captured = capsys.readouterr()
        assert rc == 0
        assert fields(captured.out.splitlines()[0])["status"] == "CONSTRAINT_VIOLATION"
        assert captured.err.startswith("  p > q")

    def test_unreachable_tolerance_fails_run(self, capsys):
        rc = main(["verify", "R-3.4", "--params", "a=1,b=2", "--tol", "1e-14"])
        captured = capsys.readouterr()
        assert rc == 1
        status = fields(captured.out.splitlines()[0])["status"]
        assert status in ("FAIL", "ORACLE_FAILED")
        assert captured.err.strip()

    def test_nonpositive_tolerance_is_usage_error(self, capsys):
        rc = main(["verify", "GR-3.434.2", "--params", "a=1,b=2", "--tol", "-1"])
        assert rc == 2


class TestExplicitTolerance:
    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "exp(-x)", "--a", "1", "--b", "2"],
            ["verify", "GR-3.434.2", "--params", "a=1,b=2"],
            ["verify-all"],
        ],
        ids=["eval", "verify", "verify-all"],
    )
    def test_invalid_flag_is_usage_error(self, argv, tol, capsys):
        rc = main(argv + ["--tol", tol])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: --tol must be a positive number, got ")
        assert captured.err.count("\n") == 1


class TestEnvironmentTolerance:
    def test_env_fills_in_when_flag_absent(self, capsys, monkeypatch):
        monkeypatch.setenv("FRULLANI_TOL", "1e-3")
        rc = main(["verify", "R-3.4", "--params", "a=1,b=2"])
        assert rc == 0

    def test_explicit_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FRULLANI_TOL", "1e-14")
        rc = main(["verify", "R-3.4", "--params", "a=1,b=2", "--tol", "1e-4"])
        assert rc == 0

    @pytest.mark.parametrize("env", ["abc", "-0.5", "0", "inf"])
    def test_invalid_env_is_usage_error(self, env, capsys, monkeypatch):
        monkeypatch.setenv("FRULLANI_TOL", env)
        rc = main(["verify", "GR-3.434.2", "--params", "a=1,b=2"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "FRULLANI_TOL" in captured.err


class TestVerifyAll:
    def test_full_sweep_text(self, capsys):
        rc = main(["verify-all"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert len(out) == 61
        assert all(RECORD_RE.match(ln) for ln in out[:-1])
        assert out[-1] == "total=60 pass=60 fail=0 skipped=0"
        # records come out sorted by entry id
        ids = [fields(ln)["entry"] for ln in out[:-1]]
        assert ids == sorted(ids)

    def test_json_report(self, capsys):
        rc = main(["verify-all", "--format", "json"])
        body = capsys.readouterr().out
        assert rc == 0
        records = json.loads(body)
        assert len(records) == 60
        assert all(r["status"] == "PASS" for r in records)
        assert set(records[0]) == {"entry", "params", "expected", "numeric", "abs_err", "status"}
        by_id = {r["entry"]: r for r in records}
        # parameter order inside each object follows the declaration
        assert list(by_id["GR-3.476.1"]["params"]) == ["v", "u", "p"]

    def test_json_is_deterministic(self, capsys):
        main(["verify-all", "--format", "json"])
        first = capsys.readouterr().out
        main(["verify-all", "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_report_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        rc = main(["verify-all", "--format", "json", "--report", str(path)])
        assert rc == 0
        assert path.read_text(encoding="utf-8") == capsys.readouterr().out

    def test_grid_override_replaces_entry_grid(self, capsys, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("R-3.6 p=1 q=3\nR-3.6 p=5 q=2\n", encoding="utf-8")
        rc = main(["verify-all", "--grid", str(grid)])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        # 60 defaults - 3 replaced + 2 overrides, one of which is skipped
        assert out[-1] == "total=59 pass=58 fail=0 skipped=1"

    def test_missing_grid_file(self, capsys):
        rc = main(["verify-all", "--grid", "/no/such/file"])
        assert rc == 2
        assert "cannot read grid file" in capsys.readouterr().err

    def test_malformed_grid_file(self, capsys, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("R-3.6 p=5\n", encoding="utf-8")
        rc = main(["verify-all", "--grid", str(grid)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "line 1" in err and "missing parameters q" in err


class TestEval:
    def test_pipeline_pass(self, capsys):
        rc = main(["eval", "exp(-x)", "--a", "1", "--b", "2"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        f = fields(out[0])
        assert f["entry"] == "eval"
        assert f["params"] == "a=1.0;b=2.0;power=1.0"
        assert f["status"] == "PASS"
        assert float(f["numeric"]) == pytest.approx(math.log(2.0), abs=1e-6)

    def test_power_scales_the_result(self, capsys):
        rc = main(["eval", "exp(-x)", "--a", "1", "--b", "16", "--power", "2"])
        f = fields(capsys.readouterr().out.splitlines()[0])
        assert rc == 0
        assert f["status"] == "PASS"
        assert float(f["expected"]) == pytest.approx(0.5 * math.log(16.0), abs=1e-6)

    def test_inapplicable_kernel_is_skipped(self, capsys):
        rc = main(["eval", "cos(x)", "--a", "1", "--b", "2"])
        captured = capsys.readouterr()
        assert rc == 0
        assert fields(captured.out.splitlines()[0])["status"] == "NOT_APPLICABLE"
        assert "no-limit" in captured.err

    def test_bad_expression(self, capsys):
        rc = main(["eval", "exp(", "--a", "1", "--b", "2"])
        assert rc == 2
        assert "bad expression" in capsys.readouterr().err

    def test_foreign_variable(self, capsys):
        rc = main(["eval", "exp(-y)", "--a", "1", "--b", "2"])
        assert rc == 2

    def test_overflowing_literal_is_bad_expression(self, capsys):
        rc = main(["eval", "atan(1e999)+exp(-x)", "--a", "1", "--b", "2"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: bad expression: ")

    def test_mapped_abscissa_reaching_one_is_named(self, capsys):
        rc = main(["eval", "exp(-x)", "--a", "1", "--b", "2", "--power", "0.05"])
        captured = capsys.readouterr()
        assert rc == 1
        assert fields(captured.out.splitlines()[0])["status"] == "ORACLE_FAILED"
        assert captured.err.rstrip().endswith(
            "oracle raised: integrand was not evaluated: "
            "the map x = t/(1-t) reached t = 1, at x = inf"
        )

    def test_non_convergence_names_the_panel_cap(self, capsys):
        rc = main(["eval", "cos(x)/(1+x)", "--a", "1", "--b", "2"])
        captured = capsys.readouterr()
        assert rc == 1
        assert fields(captured.out.splitlines()[0])["status"] == "ORACLE_FAILED"
        assert captured.err.rstrip().endswith(
            "oracle did not converge: panel cap of 2000 panels reached"
        )

    def test_long_sum_is_bad_expression(self, capsys):
        rc = main(["eval", "+".join(["x"] * 3000), "--a", "1", "--b", "2"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: bad expression: ")


class TestSeries:
    def test_closed_partial_residual(self, capsys):
        rc = main(["series", "--a", "0.5", "--p", "1", "--q", "2", "--terms", "200"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[0] == f"closed={gr_4_324_2_closed(0.5, 1.0, 2.0)!r}"
        assert out[1].startswith("partial=")
        closed = float(out[0].partition("=")[2])
        partial = float(out[1].partition("=")[2])
        assert closed == pytest.approx(0.5620939930012151, abs=1e-15)
        assert partial == pytest.approx(closed, abs=1e-12)
        assert re.match(r"^residual=\d\.\d{3}e[+-]\d{2,}$", out[2])

    def test_terms_must_be_positive(self, capsys):
        rc = main(["series", "--a", "0.5", "--p", "1", "--q", "2", "--terms", "0"])
        assert rc == 2
        assert "--terms" in capsys.readouterr().err

    def test_domain_errors_are_usage_errors(self, capsys):
        rc = main(["series", "--a", "-1", "--p", "1", "--q", "2", "--terms", "10"])
        assert rc == 2
        rc = main(["series", "--a", "0.5", "--p", "0", "--q", "2", "--terms", "10"])
        assert rc == 2


class TestLimits:
    def test_applicable_kernel(self, capsys):
        rc = main(["limits", "(1 + 1/x)^x"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[0].startswith("at 0+: finite(")
        assert out[1].startswith("at infinity: finite(")
        assert out[2] == "applicable: yes"

    def test_oscillatory_kernel(self, capsys):
        rc = main(["limits", "cos(x)"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert "no-limit" in out[1]
        assert out[2] == "applicable: no"

    def test_foreign_variable(self, capsys):
        rc = main(["limits", "exp(-x) + y"])
        assert rc == 2
        assert "found y" in capsys.readouterr().err

    def test_bad_expression(self, capsys):
        rc = main(["limits", "1 +"])
        assert rc == 2

    @pytest.mark.parametrize("expr", ["1e999*x", "x + 2e308"])
    def test_overflowing_literal_is_bad_expression(self, expr, capsys):
        # the literal used to parse as inf and report diverges(+inf)
        rc = main(["limits", expr])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: bad expression: ")

    def test_deep_parentheses_are_bad_expression(self, capsys):
        rc = main(["limits", "(" * 1200 + "x" + ")" * 1200])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: bad expression: ")

    def test_parentheses_at_the_depth_limit_parse(self, capsys):
        rc = main(["limits", "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[0].startswith("at 0+: finite(")


class TestTopLevel:
    def test_no_command_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2
