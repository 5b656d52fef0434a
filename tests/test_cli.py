"""Command-line interface: schemas, exit codes, determinism, config handling."""

import json
import math
import os
import re
import shlex
import sys
import warnings
from pathlib import Path

import pytest

from hsob import cli, kernel, kernel_diag, verify
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
        ("--n", "16", "--z", "1e7", "--w", "1"),
        ("--n", "16", "--z", "1+1i", "--w", "2"),
    ])
    def test_eval_auto_takes_closed_form_through_the_cap(self, capsys, argv):
        # the closed form's highest order, at a large ratio and at O(1)
        code, out = run_cli(capsys, "kernel", "eval", *argv)
        payload = json.loads(out)
        assert code == 0
        assert payload["method"] == "closed_form"
        assert math.isfinite(payload["value_re"]) and payload["value_re"] > 0

    @pytest.mark.parametrize("method", ("auto", "closed_form"))
    def test_eval_past_the_cap_exits_one(self, capsys, method):
        # no silent fallback: only --method quadrature takes n = 17
        code = main(["kernel", "eval", "--n", "17", "--z", "1", "--w", "1", "--method", method])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("error [kernel]: the closed form covers n <= 16, got n = 17; "
                                "only the quadrature route takes higher orders\n")
        code, out = run_cli(capsys, "kernel", "eval", "--n", "17", "--z", "1", "--w", "1",
                            "--method", "quadrature")
        assert code == 0 and json.loads(out)["method"] == "quadrature"

    @pytest.mark.parametrize("z, value_re", [("1e7", 8.309048124669643e-07),
                                             ("1e-320", 368.66362044548695)])
    def test_eval_auto_takes_closed_form_at_any_ratio(self, capsys, z, value_re):
        # at a large ratio and at a subnormal z, against the 30-digit Duffy
        # integral rounded to a double
        code, out = run_cli(capsys, "kernel", "eval", "--n", "2", "--z", z, "--w", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["method"] == "closed_form"
        assert abs(payload["value_re"] - value_re) <= 1e-15 * value_re

    @pytest.mark.parametrize("argv", [("--method", "quadrature", "--n", "2"),
                                      ("--method", "quadrature", "--n", "9")])
    def test_quadrature_refuses_subnormal_ratio(self, capsys, argv):
        code = main(["kernel", "eval", *argv, "--z", "1e-320", "--w", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error [kernel]: the quadrature route cannot take |z|/|w| = 1e-320")
        assert "overflows" in captured.err

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

    def test_nonfinite_report_field_exits_one(self, capsys):
        # the diagonal overflows at a subnormal |z| (the norm, 1.2e160, does
        # not): no "diag": Infinity on stdout
        code = main(["kernel", "norm", "--z", "1e-320"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error [kernel]: report field diag is not a finite number")

    def test_grid_rows_take_one_diagonal_call(self, monkeypatch):
        # |z| K_n(z, z) depends on arg z alone: a 7 x 9 grid makes one diagonal
        # call on its 9 angles at unit modulus, and each row matches the
        # per-point diagonal
        calls = []

        def counting(n, z, *args, **kwargs):
            calls.append(z)
            return kernel_diag(n, z, *args, **kwargs)

        monkeypatch.setattr(kernel, "kernel_diag", counting)
        for n in (1, 2, 5, 9, 16):
            calls.clear()
            grid = cli._parse_grid("1e-3,1e3,7,0.05,9")
            rows = list(verify.grid_rows(n, grid))
            assert len(rows) == 63 and len(calls) == 1 and len(calls[0]) == 9
            assert all(abs(abs(u) - 1.0) < 1e-15 for u in calls[0])
            for z, _, diag, _, _ in rows:
                want = kernel_diag(n, z, theta_margin=grid.theta_margin * 0.5)
                assert abs(diag - want) <= 1e-14 * want

    def test_empty_grid_takes_no_quadrature(self, monkeypatch):
        # no radius or no angle: no diagonal call at all
        monkeypatch.setattr(kernel, "kernel_diag", lambda *a, **k: pytest.fail("diagonal call"))
        for grid in ("0.1,10,0,0.1,3", "0.1,10,3,0.1,0"):
            assert list(verify.grid_rows(1, cli._parse_grid(grid))) == []

    def test_gram_seeded(self, capsys):
        code, out = run_cli(capsys, "kernel", "gram", "--n", "1", "--count", "4", "--seed", "3")
        payload = json.loads(out)
        assert code == 0
        assert payload["min_eigenvalue"] >= -1e-8
        assert len(payload["gram_re"]) == 4

    def test_gram_overflowing_entry_exits_one(self, capsys):
        # K_1(z, z) passes the largest double at z = 1e-310: one line naming
        # the point, and no numpy warning before it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["kernel", "gram", "--n", "1", "--points", "1e-310,1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error [kernel]: kernel value at point (1e-310+0j) overflows\n"

    def test_gram_explicit_points(self, capsys):
        code, out = run_cli(capsys, "kernel", "gram", "--n", "0", "--points", "1,2+1i")
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["gram_re"][0][0] - 0.5) < 1e-12


class TestVerifyCommands:
    @pytest.mark.parametrize("suite", verify.SUITES)
    def test_prints_library_report(self, capsys, suite):
        # the command adds the schema field to verify.run's report, and nothing else
        code, out = run_cli(capsys, "verify", suite, "--n", "2", "--seed", "5", "--samples", "3")
        report = verify.run(suite, 2, seed=5, samples=3)
        assert out == json.dumps({"schema": 1, **report}, indent=2, allow_nan=False) + "\n"
        assert code == (0 if report["pass"] else 1)

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

    def test_bounds_grid_equal_to_symbol_default(self, capsys):
        # this --grid spells out GridSpec()'s fields; it must not fall back to 7 x 9
        code, out = run_cli(capsys, "verify", "bounds", "--grid", "1e-4,1e6,41,0.001,33")
        assert code == 0
        assert json.loads(out)["samples"] == 41 * 33

    @pytest.mark.parametrize("argv, rows", [
        (("kernel", "sweep"), lambda out: len(out.strip().splitlines()) - 1),
        (("verify", "bounds"), lambda out: json.loads(out)["samples"]),
    ])
    def test_default_grid_is_seven_by_nine(self, capsys, argv, rows):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert rows(out) == 7 * 9

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

    @pytest.mark.parametrize("text", ["z+i", "sqrt(z)"])
    def test_classify_divergent_suprema_are_strict_json(self, capsys, text):
        # a divergent supremum is the number 1e999, which reads back as infinity
        code, out = run_cli(capsys, "symbol", "classify", "--n", "1", text)
        payload = strict_json(out)
        assert code == 0
        assert math.inf in (payload["phi_prime_infinity"], payload["radial_sup"])
        assert "1e999" in out

    @pytest.mark.parametrize("grid", ["0.1,10,0,0.1,3", "0.1,10,3,0.1,0"])
    def test_classify_empty_grid_exits_one(self, capsys, grid):
        code, out = run_cli(capsys, "symbol", "classify", "--grid", grid, "z")
        assert code == 1
        assert out == ""

    def test_jury(self, capsys):
        code, out = run_cli(capsys, "symbol", "jury", "--n", "0", "--m", "0.5",
                            "--points", "1,2,0.5+0.2i", "4*z+1")
        payload = json.loads(out)
        assert code == 0
        assert payload["psd"] is True

    @pytest.mark.parametrize("argv", [("parse", "1e999"), ("classify", "--n", "1", "1e999*z")])
    def test_overflowing_literal_exits_one(self, capsys, argv):
        # refused at parse time, before any analysis runs
        code = main(["symbol", *argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "number overflows a double (at position 0)" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (("jury", "--n", "1", "--m", "1", "--points", "1e200,1", "z*z"),
         "image of point (1e+200+0j) is not finite"),
        (("jury", "--n", "1", "--m", "1", "--points", "1e200,1", "z^2"),
         "image of point (1e+200+0j) is not finite"),
        (("classify", "--n", "1", "(1e300*z)^3"),
         "phi took no finite value at any base-grid point"),
    ])
    def test_nonfinite_symbol_values_exit_one_silently(self, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["symbol", *argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error [symbol]: {message}\n"

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
        ("verify", "bounds", "--grid", "1,2,3"),
        ("verify", "bounds", "--grid", "0.1,10,3,0.1,3,7"),
        ("verify", "bounds", "--grid", "0,10,3,0.1,3"),
        ("verify", "bounds", "--grid", "0.1,inf,3,0.1,3"),
        ("verify", "bounds", "--grid", "0.1,10,-1,0.1,3"),
        ("verify", "bounds", "--grid", "0.1,10,3,0.1,2.5"),
        ("kernel", "sweep", "--grid", "0.1,10,3,2,3"),
        ("kernel", "sweep", "--grid", "0.1,10,3,0,3"),
        ("symbol", "classify", "--grid", "1,2,3,4,5", "z"),
        ("kernel", "gram", "--seed", "-1"),
        ("verify", "reproduce", "--seed", "-1"),
        ("symbol", "jury", "--m", "nan", "--points", "1", "z"),
        ("symbol", "jury", "--m", "-1", "--points", "1", "z"),
        ("kernel", "sweep", "--n", "0"),
    ])
    def test_bad_arguments_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("kernel", "sweep", "--format", "json"),
        ("kernel", "eval", "--z", "1", "--w", "1", "--tol", "1e-3"),
        ("kernel", "gram", "--samples", "3"),
        ("symbol", "parse", "--n", "2", "z"),
        ("symbol", "classify", "--config", "q.cfg", "z"),
        ("symbol", "jury", "--m", "1", "--grid", "0.1,10,3,0.1,3", "z"),
        # the kernel's closed form reads no quadrature setting
        ("kernel", "norm", "--z", "1", "--config", "q.cfg"),
        ("kernel", "sweep", "--config", "q.cfg"),
        ("kernel", "gram", "--config", "q.cfg"),
        ("symbol", "jury", "--m", "1", "--config", "q.cfg", "z"),
    ])
    def test_unread_option_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("kernel", "eval", "--n", "1", "--z", "1", "--w", "1", "--out", "{tmp}/missing/x.json"),
        ("kernel", "eval", "--n", "1", "--z", "1", "--w", "1", "--config", "{tmp}/missing.cfg"),
        ("kernel", "eval", "--n", "200", "--z", "1", "--w", "1"),
    ])
    def test_failures_exit_one_without_traceback(self, tmp_path, capsys, argv):
        code = main([arg.format(tmp=tmp_path) for arg in argv])
        assert code == 1
        assert capsys.readouterr().err.startswith("error [kernel]: ")

    @pytest.mark.parametrize("argv", [("symbol", "classify", "--n", "1", "z*z"),
                                      ("kernel", "gram", "--n", "12", "--count", "3")])
    def test_closed_pipe_exits_one_silently(self, capsys, monkeypatch, argv):
        # the reader has gone, as behind `| head -c 10`: status 1, nothing on
        # stderr, and closing stdout afterwards raises nothing
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", encoding="utf-8") as stream:
            monkeypatch.setattr(sys, "stdout", stream)
            assert main(list(argv)) == 1
        assert capsys.readouterr().err == ""

    def test_parser_built_once_parses_like_fresh_parsers(self, capsys, monkeypatch):
        # one parser serves every call, failed ones included, and prints the
        # bytes that a fresh parser per call prints
        sequence = [
            ["kernel", "eval", "--n", "2", "--z", "1+2i", "--w", "0.5"],
            ["kernel", "eval", "--z", "1"],
            ["verify", "hardy-ineq", "--n", "2", "--samples", "2", "--seed", "4"],
            ["kernel", "norm", "--z", "1e-320"],
            ["symbol", "jury", "--m", "0.8", "--points", "1,2", "2*z+1"],
            ["kernel", "eval", "--n", "2", "--z", "1+2i", "--w", "0.5"],
            ["verify", "bounds", "--grid", "0.5,2,2,0.1,2"],
            ["symbol", "parse", "z+"],
            ["verify", "hardy-ineq", "--n", "2", "--samples", "2", "--seed", "4"],
        ]

        def run_all():
            outputs = []
            for argv in sequence:
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = ("exit", exc.code)
                captured = capsys.readouterr()
                outputs.append((code, captured.out, captured.err))
            return outputs

        shared = run_all()
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert run_all() == shared
        assert [o[0] for o in shared] == [0, ("exit", 2), 0, 1, 0, 0, 0, 1, 0]

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
        # the half-line split is a fixed constant: a large one converged falsely
        cfg = tmp_path / "quad.cfg"
        for line in ("warp_factor = 9\n", "grading_ratio = 0.5\n",
                     "halfline_truncation = 30\n"):
            cfg.write_text(line)
            key = line.split()[0]
            for argv in (["kernel", "eval", "--n", "1", "--z", "1", "--w", "1"],
                         ["verify", "paley-wiener", "--n", "1", "--samples", "1"]):
                with pytest.raises(SystemExit, match=f"unknown quadrature option '{key}'"):
                    main([*argv, "--config", str(cfg)])

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_config_file_rejects_nonfinite_truncation(self, tmp_path, value):
        # no longer a field: a non-finite split is refused by name before any quadrature
        cfg = tmp_path / "quad.cfg"
        cfg.write_text(f"halfline_truncation = {value}\n")
        with pytest.raises(SystemExit, match="unknown quadrature option 'halfline_truncation'"):
            main(["verify", "paley-wiener", "--n", "1", "--samples", "1",
                  "--config", str(cfg)])

    def test_verify_reports_sample_terms(self, capsys):
        from hsob import ExpPoly

        _, out = run_cli(capsys, "verify", "paley-wiener", "--n", "1", "--samples", "2")
        payload = json.loads(out)
        f = ExpPoly.from_triples(payload["cases"][1]["terms"])
        assert not f.is_zero


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_commands():
    """The ``hsob ...`` lines of the sh block under README's ``## CLI``, as argv lists."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("hsob ")]


@pytest.mark.parametrize("argv", readme_cli_commands(), ids=" ".join)
def test_readme_cli_commands_run(tmp_path, argv):
    # a later --out wins, so the report of every line lands in tmp_path
    target = tmp_path / "report"
    assert main([*argv, "--out", str(target)]) == 0
    assert target.read_text(encoding="utf-8")
