"""Command-line interface: schemas, exit codes, determinism, config handling."""

import json
import math

import pytest

from hsob.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def strict_json(text):
    """json.loads that refuses NaN and +-Infinity, which strict JSON lacks."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


class TestKernelCommands:
    def test_eval_json(self, capsys):
        code, out = run_cli(capsys, "kernel", "eval", "--n", "1", "--z", "1", "--w", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["schema"] == 1
        assert abs(payload["value_re"] - 2 * math.log(2)) < 1e-12
        assert payload["value_im"] == 0.0
        assert payload["method"] == "closed_form"

    @pytest.mark.parametrize("argv", [
        ("--n", "1", "--z", "1e7", "--w", "1"),
        ("--n", "9", "--z", "1+1i", "--w", "2"),
    ])
    def test_eval_auto_falls_back_to_quadrature(self, capsys, argv):
        # |z|/|w| past the closed form's auto window, and an order without one
        code, out = run_cli(capsys, "kernel", "eval", *argv)
        payload = json.loads(out)
        assert code == 0
        assert payload["method"] == "quadrature"
        assert math.isfinite(payload["value_re"])

    def test_eval_complex_arguments(self, capsys):
        code, out = run_cli(capsys, "kernel", "eval", "--n", "2", "--z", "1+2i", "--w", "0.5-0.1i")
        assert code == 0
        payload = json.loads(out)
        assert math.isfinite(payload["value_re"])

    def test_norm_includes_bounds(self, capsys):
        code, out = run_cli(capsys, "kernel", "norm", "--n", "1", "--z", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["lower_bound"] <= payload["norm"] <= payload["upper_bound"]

    def test_sweep_csv_schema(self, capsys):
        code, out = run_cli(capsys, "kernel", "sweep", "--n", "1",
                            "--grid", "0.1,10,3,0.1,3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,abs_z,arg_z,kernel_diag,lower_bound,norm,upper_bound"
        assert len(lines) == 1 + 9
        for line in lines[1:]:
            n, abs_z, arg_z, diag, lo, norm, hi = (float(x) for x in line.split(","))
            assert lo <= norm <= hi
            assert abs(norm**2 - diag) < 1e-9

    def test_gram_seeded(self, capsys):
        code, out = run_cli(capsys, "kernel", "gram", "--n", "1", "--count", "4", "--seed", "3")
        payload = json.loads(out)
        assert code == 0
        assert payload["min_eigenvalue"] >= -1e-8
        assert len(payload["gram_re"]) == 4

    def test_gram_explicit_points(self, capsys):
        code, out = run_cli(capsys, "kernel", "gram", "--n", "0", "--points", "1,2+1i")
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["gram_re"][0][0] - 0.5) < 1e-12


class TestVerifyCommands:
    def test_paley_wiener_anchor(self, capsys):
        code, out = run_cli(capsys, "verify", "paley-wiener", "--n", "0", "--samples", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["pass"] is True
        assert payload["max_residual"] <= 1e-8
        assert abs(payload["cases"][0]["norm_exact"] - 1 / math.sqrt(2)) < 1e-12

    def test_failure_exit_code(self, capsys):
        code, out = run_cli(capsys, "verify", "paley-wiener", "--n", "1",
                            "--samples", "2", "--tol", "1e-30")
        payload = json.loads(out)
        assert code == 1
        assert payload["pass"] is False

    @pytest.mark.parametrize("suite", ["paley-wiener", "inner-product", "reproduce",
                                       "cayley", "hardy-ineq"])
    def test_zero_cases_do_not_pass(self, capsys, suite):
        code, out = run_cli(capsys, "verify", suite, "--samples", "0")
        payload = json.loads(out)
        assert code == 1
        assert payload["pass"] is False
        assert payload["cases"] == []

    @pytest.mark.parametrize("argv", [
        ("hardy-ineq", "--samples", "0"),
        ("bounds", "--grid", "0.1,10,0,0.1,3"),
        ("paley-wiener", "--samples", "0"),
    ])
    def test_zero_cases_report_null_residual(self, capsys, argv):
        code, out = run_cli(capsys, "verify", *argv)
        payload = strict_json(out)
        assert code == 1
        assert payload["pass"] is False
        assert payload["max_residual"] is None

    @pytest.mark.parametrize("suite, n", [("bounds", 1), ("reproduce", 1), ("hardy-ineq", 1),
                                          ("paley-wiener", 0), ("inner-product", 0)])
    def test_reports_order_used(self, capsys, suite, n):
        # without --n, the order-1 suites run (and now report) n = 1
        _, out = run_cli(capsys, "verify", suite, "--samples", "1", "--grid", "0.5,2,1,0.1,1")
        assert json.loads(out)["n"] == n

    def test_inner_product_suite(self, capsys):
        code, out = run_cli(capsys, "verify", "inner-product", "--n", "2", "--samples", "5")
        assert code == 0

    def test_bounds_suite(self, capsys):
        code, out = run_cli(capsys, "verify", "bounds", "--n", "2",
                            "--grid", "0.1,10,3,0.1,3")
        payload = json.loads(out)
        assert code == 0
        assert payload["max_residual"] <= 0

    def test_reproduce_suite(self, capsys):
        code, _ = run_cli(capsys, "verify", "reproduce", "--n", "2", "--samples", "4")
        assert code == 0

    def test_cayley_suite(self, capsys):
        code, _ = run_cli(capsys, "verify", "cayley", "--samples", "4")
        assert code == 0

    def test_hardy_suite(self, capsys):
        code, _ = run_cli(capsys, "verify", "hardy-ineq", "--n", "2", "--samples", "10")
        assert code == 0

    def test_seed_determinism(self, capsys):
        _, out1 = run_cli(capsys, "verify", "reproduce", "--n", "1", "--samples", "3", "--seed", "5")
        _, out2 = run_cli(capsys, "verify", "reproduce", "--n", "1", "--samples", "3", "--seed", "5")
        assert out1 == out2

    def test_json_round_trip(self, capsys):
        _, out = run_cli(capsys, "verify", "inner-product", "--n", "1", "--samples", "3")
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload


class TestSymbolCommands:
    def test_parse_report(self, capsys):
        code, out = run_cli(capsys, "symbol", "parse", "z + sqrt(z) + 1")
        payload = json.loads(out)
        assert code == 0
        assert payload["ast"]["node"] == "add"

    def test_classify_affine(self, capsys):
        code, out = run_cli(capsys, "symbol", "classify", "--n", "2", "2*z+1")
        payload = json.loads(out)
        assert code == 0
        assert payload["verdict_Hn"] == "sufficient-passed"
        assert abs(payload["phi_prime_infinity"] - 0.5) < 1e-6

    def test_classify_infinite_field_round_trips(self, capsys):
        _, out = run_cli(capsys, "symbol", "classify", "--n", "1", "z+i")
        payload = json.loads(out)
        assert payload["radial_sup"] == math.inf

    def test_jury(self, capsys):
        code, out = run_cli(capsys, "symbol", "jury", "--n", "0", "--m", "0.5",
                            "--points", "1,2,0.5+0.2i", "4*z+1")
        payload = json.loads(out)
        assert code == 0
        assert payload["psd"] is True

    def test_parse_error_is_reported(self, capsys):
        code = main(["symbol", "parse", "2*z +"])
        captured = capsys.readouterr()
        assert code == 1
        assert "position" in captured.err


class TestPlumbing:
    @pytest.mark.parametrize("argv", [
        ("kernel", "eval", "--z", "1e400", "--w", "1"),
        ("kernel", "eval", "--z", "1", "--w", "nan"),
        ("kernel", "eval", "--z", "1+1e999i", "--w", "1"),
        ("kernel", "gram", "--points", "1,2+1e400i"),
        ("kernel", "gram", "--points", ","),
        ("symbol", "jury", "--m", "1", "--points", "inf", "z"),
        ("verify", "bounds", "--tol", "nan"),
        ("verify", "bounds", "--tol", "-1"),
        ("verify", "bounds", "--tol", "inf"),
        ("kernel", "norm", "--n", "-1", "--z", "1"),
        ("verify", "reproduce", "--samples", "-2"),
        ("verify", "reproduce", "--samples", "two"),
        ("kernel", "gram", "--count", "0"),
        ("symbol", "jury", "--m", "1", "--count", "0", "z"),
    ])
    def test_bad_arguments_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        assert "error" in capsys.readouterr().err

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as info:
            main(["kernel", "eval", "--z", "1"])  # missing --w
        assert info.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["kernel", "eval", "--n", "1", "--z", "1", "--w", "1",
                     "--out", str(target)])
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["schema"] == 1

    def test_config_file_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "quad.cfg"
        cfg.write_text("abs_tol = 1e-8\nnodes_per_cell = 9  # comment\n")
        code, out = run_cli(capsys, "kernel", "eval", "--n", "1", "--z", "1", "--w", "1",
                            "--config", str(cfg))
        assert code == 0
        assert abs(json.loads(out)["value_re"] - 2 * math.log(2)) < 1e-8

    def test_config_file_rejects_unknown_key(self, tmp_path):
        cfg = tmp_path / "quad.cfg"
        for line in ("warp_factor = 9\n", "grading_ratio = 0.5\n"):
            cfg.write_text(line)
            with pytest.raises(SystemExit):
                main(["kernel", "eval", "--n", "1", "--z", "1", "--w", "1", "--config", str(cfg)])

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_config_file_rejects_nonfinite_truncation(self, tmp_path, capsys, value):
        cfg = tmp_path / "quad.cfg"
        cfg.write_text(f"halfline_truncation = {value}\n")
        code = main(["verify", "paley-wiener", "--n", "1", "--samples", "1",
                     "--config", str(cfg)])
        assert code == 1
        assert "halfline_truncation" in capsys.readouterr().err

    def test_verify_reports_sample_terms(self, capsys):
        from hsob import ExpPoly

        _, out = run_cli(capsys, "verify", "paley-wiener", "--n", "1", "--samples", "2")
        payload = json.loads(out)
        f = ExpPoly.from_triples(payload["cases"][1]["terms"])
        assert not f.is_zero
