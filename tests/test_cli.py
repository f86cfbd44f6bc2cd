"""End-to-end CLI behavior: record lines, exit codes, reports, overrides."""

import contextlib
import io
import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from frullani import catalog
from frullani.cli import main
from frullani.expr import MAX_DEPTH
from frullani.records import STATUSES
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
        assert all(("smooth-decay" in ln or "oscillatory" in ln) for ln in lines)


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

    @pytest.mark.parametrize("entry, binding, cause", [
        ("GR-3.232", "a=1,b=2,c=0.001,mu=200", "math range error"),
        ("GR-4.297.7", "b=1e10,a=1e300", "-inf"),
        ("GR-4.297.7", "a=1e200,b=1e200", "nan"),
    ])
    def test_closed_form_off_the_doubles_is_a_constraint_violation(
        self, entry, binding, cause, capsys
    ):
        # each binding passes its constraints, but its closed form overflows,
        # leaves its domain or is nan in floating point
        rc = main(["verify", entry, "--params", binding])
        captured = capsys.readouterr()
        assert rc == 0
        assert fields(captured.out.splitlines()[0])["status"] == "CONSTRAINT_VIOLATION"
        assert captured.err == (
            f"  closed form is not a finite double at this binding: {cause}\n"
        )

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

    @pytest.mark.parametrize("entry,params", [
        # a true identity (value 0) that the common grid judged FAIL
        ("R-3.8", "a=1.5,b=2.121320343"),
        # the common grid returned -0.0746 against ln(1.414213562)
        ("R-3.4", "a=1,b=1.414213562"),
    ])
    def test_incommensurate_scales_pass(self, entry, params, capsys):
        rc = main(["verify", entry, "--params", params])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        f = fields(out[0])
        assert f["status"] == "PASS"
        assert float(f["abs_err"]) <= 1e-5

    def test_fast_scale_near_zero_passes(self, capsys):
        # at a = 161.893 the kernel ((x+p)/(x+q))^n of the a term turns over
        # near x = p/a = 0.0018, which is t = 0.0018 under x = t/(1-t) but
        # t = 0.042 under x = t^2/(1-t); the first map gave a confident FAIL
        # here (true error 2.2e-6 against an estimate of 4.3e-8)
        rc = main([
            "verify", "R-3.3", "--params",
            "a=161.893,b=1.51977,p=0.292235,q=3.20716,n=1.04603", "--tol", "1.74573e-7",
        ])
        f = fields(capsys.readouterr().out.splitlines()[0])
        assert rc == 0
        assert f["status"] == "PASS"
        assert float(f["abs_err"]) <= 1e-9

    def test_split_tail_names_the_pieces_that_stopped(self, capsys):
        # a tolerance below the rounding of the head's integral over
        # (0, pi/1e6] and of the kernel's over (alpha c, beta c) = (pi, pi/1e6)
        rc = main(["verify", "R-3.4", "--params", "a=1e6,b=1", "--tol", "1e-17"])
        captured = capsys.readouterr()
        assert rc == 1
        assert fields(captured.out.splitlines()[0])["status"] == "ORACLE_FAILED"
        assert captured.err.strip() == (
            "oracle did not converge: head on (0, 3.1415926535897933e-06]: "
            "tolerance 1.000e-18 is below the rounding floor 1.830e-16 of the panel sum; "
            "kernel on (3.141592653589793, 3.1415926535897933e-06): "
            "panel error sum rounded above tolerance"
        )

    @pytest.mark.parametrize("tol", ["1e-8", "1e-10"])
    def test_split_scales_pass_at_tight_tolerances(self, tol, capsys):
        rc = main(["verify", "R-3.4", "--params", "a=1,b=1.414213562", "--tol", tol])
        assert rc == 0
        assert fields(capsys.readouterr().out.splitlines()[0])["status"] == "PASS"

    def test_repeated_param_is_usage_error(self, capsys):
        rc = main(["verify", "GR-3.434.2", "--params", "a=1,a=5,b=2"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: duplicate parameter 'a' in --params\n"


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

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_report_is_usage_error(self, where, capsys, tmp_path):
        path = tmp_path / "missing" / "r.txt" if where == "missing directory" else tmp_path
        rc = main(["verify-all", "--report", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        # the report still reaches stdout before the write fails
        assert captured.out.endswith("total=60 pass=60 fail=0 skipped=0\n")
        assert captured.err.startswith("error: cannot write report: ")
        assert str(path) in captured.err

    def test_json_writes_missing_values_as_null(self, capsys, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("GR-3.232 a=1 b=2 c=0.001 mu=200\nGR-3.434.2 a=inf b=1\n", encoding="utf-8")
        rc = main(["verify-all", "--grid", str(grid), "--format", "json"])
        assert rc == 0

        def refuse(name):
            raise ValueError(f"not strict JSON: {name}")

        records = json.loads(capsys.readouterr().out, parse_constant=refuse)
        skipped = [r for r in records if r["status"] == "CONSTRAINT_VIOLATION"]
        assert [r["params"] for r in skipped] == [
            {"a": 1.0, "b": 2.0, "c": 0.001, "mu": 200.0}, {"a": None, "b": 1.0}
        ]
        assert all(r["expected"] is r["numeric"] is r["abs_err"] is None for r in skipped)

    def test_grid_override_replaces_entry_grid(self, capsys, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("R-3.6 p=1 q=3\nR-3.6 p=5 q=2\n", encoding="utf-8")
        rc = main(["verify-all", "--grid", str(grid)])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        # 60 defaults - 3 replaced + 2 overrides, one of which is skipped
        assert out[-1] == "total=59 pass=58 fail=0 skipped=1"

    def test_closed_form_off_the_doubles_in_a_grid_file(self, capsys, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("GR-3.232 a=1 b=2 c=0.001 mu=200\n", encoding="utf-8")
        rc = main(["verify-all", "--grid", str(grid)])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[-1] == "total=58 pass=57 fail=0 skipped=1"
        assert [ln for ln in out if "CONSTRAINT_VIOLATION" in ln] == [
            "entry=GR-3.232 params=a=1.0;b=2.0;c=0.001;mu=200.0 expected=nan "
            "numeric=nan abs_err=nan status=CONSTRAINT_VIOLATION"
        ]

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

    def test_underflowed_oracle_tolerance_is_named(self, capsys):
        # tol*power/4 = 2.5e-331 rounds to 0.0, below the least subnormal
        rc = main(["eval", "exp(-x)", "--a", "1", "--b", "2",
                   "--tol", "1e-30", "--power", "1e-300"])
        captured = capsys.readouterr()
        assert rc == 1
        assert fields(captured.out.splitlines()[0])["status"] == "ORACLE_FAILED"
        assert ("oracle raised: oracle tolerance tol*power/4 = 1e-30*1e-300/4 "
                "underflows to 0.0") in captured.err
        assert "tol must be positive" not in captured.err

    @pytest.mark.parametrize("power", ["0.05", "0.2", "0.5", "2", "5"])
    def test_power_is_divided_out_after_integrating(self, power, capsys):
        # the integrand used to raise x to the power, which sent the
        # adaptive nodes of the x = t/(1-t) map to t = 1 at power 0.05
        rc = main(["eval", "exp(-x)", "--a", "1", "--b", "2", "--power", power])
        f = fields(capsys.readouterr().out.splitlines()[0])
        assert rc == 0
        assert f["status"] == "PASS"
        assert float(f["numeric"]) == pytest.approx(
            math.log(2.0) / float(power), abs=1e-6
        )

    def test_square_root_kernel_at_half_power_passes(self, capsys):
        # [f(ax) - f(bx)]/x behaves like x^(-1/2) at 0, which the graded map
        # turns into a constant; the map x = t/(1-t) reached t = 1 here
        rc = main([
            "eval", "sqrt(x)/(1+sqrt(x))",
            "--a", "2.49255", "--b", "0.595583", "--power", "0.5",
        ])
        f = fields(capsys.readouterr().out.splitlines()[0])
        assert rc == 0
        assert f["status"] == "PASS"
        assert float(f["abs_err"]) <= 1e-7

    @pytest.mark.parametrize("kernel, a, b, power", [
        # each reached t = 1 or stopped early on the decaying map, before
        # the oracle took f(inf) from the tree
        ("sqrt(x)/(1+sqrt(x))", "0.764035", "2.74109", "0.225619"),
        ("cos(x)/(1+x)", "1", "2", "1"),
        ("abs(sin(x))/x", "1", "2", "1"),
    ])
    def test_tree_limit_takes_frullanis_substitution(self, kernel, a, b, power, capsys):
        rc = main(["eval", kernel, "--a", a, "--b", b, "--power", power])
        captured = capsys.readouterr()
        assert rc == 0
        assert fields(captured.out.splitlines()[0])["status"] == "PASS"
        assert captured.err == ""

    def test_mapped_abscissa_reaching_one_is_named(self, capsys):
        # (1+1/x)^x leaves f(inf) to the decaying map, which reaches t = 1
        # on this kernel as it did on sqrt(x)/(1+sqrt(x)) alone
        rc = main([
            "eval", "(1+1/x)^x*sqrt(x)/(1+sqrt(x))",
            "--a", "0.764035", "--b", "2.74109", "--power", "0.225619",
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert fields(captured.out.splitlines()[0])["status"] == "ORACLE_FAILED"
        assert "oracle=decaying map (tree undetermined)" in captured.err
        assert captured.err.rstrip().endswith(
            "oracle raised: integrand was not evaluated: "
            "the map x = t^2/(1-t) reached t = 1, at x = inf"
        )

    def test_non_convergence_names_the_panel_cap(self, capsys):
        # the mapped integrand oscillates without limit at t = 1, so the
        # oracle spends its 2000 panels and says so
        rc = main(["eval", "cos(x)*(1+1/x)^x/(1+x)", "--a", "1", "--b", "2"])
        captured = capsys.readouterr()
        assert rc == 1
        assert fields(captured.out.splitlines()[0])["status"] == "ORACLE_FAILED"
        assert captured.err.rstrip().endswith(
            "oracle did not converge: panel cap of 2000 panels reached"
        )

    def test_tolerance_below_the_rounding_floor_is_named(self, capsys):
        # the tolerance is absolute, and one rounding unit of -6.9e199 is
        # about 1e184: both pieces of the oracle name the floor
        rc = main(["eval", "1e200*x/(1+x)", "--a", "1", "--b", "2"])
        captured = capsys.readouterr()
        assert rc == 1
        assert fields(captured.out.splitlines()[0])["status"] == "ORACLE_FAILED"
        assert "oracle=frullani M=1e+200 (tree)" in captured.err
        for piece in ("head on (0, 1.5707963267948966]: ",
                      "kernel on (1.5707963267948966, 3.141592653589793): "):
            assert f"{piece}tolerance " in captured.err
        assert captured.err.count("below the rounding floor") == 2
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("kernel, a, b, power, cause", [
        ("exp(-x)", "1e300", "1e-300", "1e-306", "-inf"),
        ("atan(x)", "1e200", "1e-200", "1e-306", "inf"),
    ])
    def test_closed_form_off_the_doubles_is_a_constraint_violation(
        self, kernel, a, b, power, cause, capsys
    ):
        # the same rule as verify: ln(b/a) is finite, but not its quotient
        # by a tiny power
        rc = main(["eval", kernel, "--a", a, "--b", b, "--power", power])
        captured = capsys.readouterr()
        assert rc == 0
        f = fields(captured.out.splitlines()[0])
        assert f["status"] == "CONSTRAINT_VIOLATION"
        assert f["expected"] == "nan"
        assert captured.err == (
            f"  closed form is not a finite double at this binding: {cause}\n"
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

    def test_frequency_ratio_off_the_doubles(self, capsys):
        # q/p = 1e320 overflows; the closed form takes ln q - ln p
        rc = main(["series", "--a", "0.5", "--p", "1e-320", "--q", "1", "--terms", "3"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[0] == "closed=597.5154737697984"
        assert math.isfinite(float(out[1].partition("=")[2]))
        assert out[2] == "residual=1.942e-01"

    def test_terms_must_be_positive(self, capsys):
        rc = main(["series", "--a", "0.5", "--p", "1", "--q", "2", "--terms", "0"])
        assert rc == 2
        assert "--terms" in capsys.readouterr().err

    def test_domain_errors_are_usage_errors(self, capsys):
        rc = main(["series", "--a", "-1", "--p", "1", "--q", "2", "--terms", "10"])
        assert rc == 2
        rc = main(["series", "--a", "0.5", "--p", "0", "--q", "2", "--terms", "10"])
        assert rc == 2

    def test_infinite_frequency_is_named(self, capsys):
        # the closed form used to take ln(q/p) = ln(0) first
        rc = main(["series", "--a", "0.5", "--p", "inf", "--q", "2", "--terms", "3"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: p must be positive and finite\n"

    def test_terms_above_the_limit_are_refused(self, capsys):
        rc = main(["series", "--a", "0.5", "--p", "1", "--q", "2",
                   "--terms", "100000000000"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: --terms must be at most 10000000\n"


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

    @pytest.mark.parametrize("argv", [
        ["limits", "ln(x - 1)"],
        ["eval", "ln(x - 1)", "--a", "1", "--b", "2"],
    ], ids=["limits", "eval"])
    def test_probe_failure_is_usage_error(self, argv, capsys):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (
            "error: probe evaluation failed at x = 1.0: ln undefined at argument 0.0\n"
        )


class TestTopLevel:
    def test_no_command_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2


def _run_quietly(argv):
    """main(argv) with stdout and stderr captured: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue()


def _assert_documented_outcome(rc, out):
    assert rc in (0, 1, 2)
    for line in out.splitlines():
        assert RECORD_RE.match(line), line
        assert fields(line)["status"] in STATUSES, line


@st.composite
def _magnitudes(draw):
    """+-10^U[-300, 300] or +-10^U[-3, 3], negative one time in four so
    that most bindings pass the catalog's positivity constraints."""
    span = draw(st.sampled_from((300.0, 3.0)))
    value = 10.0 ** draw(st.floats(-span, span))
    return -value if draw(st.integers(0, 3)) == 0 else value


_FUZZ_KERNELS = (
    "2",
    "3 + 2*exp(-x)",
    "atan(x)",
    "ln(1 + exp(-x))",
    "1/(1 + x)^2",
    "(1 + x)^(-0.5)",
    "1/(1 + x^0.1)",
    "(1 + 2/x)^x",
    "sqrt(x)/(1 + sqrt(x))",
    "sin(x)",
    "1/x",
    "exp(x)",
)


class TestFuzz:
    """Random inputs through main end in a record with a documented status
    or a usage error, never in a traceback."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_verify_random_binding(self, data):
        entry = catalog.get_entry(data.draw(st.sampled_from(catalog.entry_ids())))
        params = {name: data.draw(_magnitudes()) for name in entry.param_names}
        if entry.scale_params is not None and data.draw(st.booleans()):
            first, second = entry.scale_params
            params[second] = params[first]
        binding = ",".join(f"{k}={v!r}" for k, v in params.items())
        _assert_documented_outcome(
            *_run_quietly(["verify", entry.entry_id, "--params", binding])
        )

    @settings(max_examples=150, deadline=None)
    @given(
        kernel=st.sampled_from(_FUZZ_KERNELS),
        a=st.floats(-3.0, 3.0),
        b=st.floats(-3.0, 3.0),
        power=st.floats(-1.3, 0.7),
    )
    def test_eval_random_kernel(self, kernel, a, b, power):
        argv = [
            "eval", kernel, "--a", repr(10.0**a), "--b", repr(10.0**b),
            "--power", repr(10.0**power),
        ]
        _assert_documented_outcome(*_run_quietly(argv))
