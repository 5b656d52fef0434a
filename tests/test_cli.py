"""Command-line interface: schemas, exit codes, determinism, option tables."""

import argparse
import importlib
import inspect
import json
import math
import os
import re
import shlex
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hsob import QuadratureError, cli, kernel, kernel_diag, verify
from hsob.cli import main
from oracles import exppoly_from_triples


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


#: a small value of each verify input: one sample, one grid point
SMALL_INPUTS = {"seed": "0", "samples": "1", "grid": "0.5,2,1,0.1,1"}


def small_suite_options(suite):
    """The options of a one-case run of a verify suite: one per input it reads."""
    return [arg for name in verify.SUITES[suite][1] for arg in (f"--{name}", SMALL_INPUTS[name])]


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
        assert captured.err.startswith("error [kernel]: the quadrature route cannot take "
                                       "min(|z|, |w|)/max(|z|, |w|) = 1e-320")
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
        # a report is checked before a byte is written: the first NaN or
        # infinite field, nested or not, is named and nothing reaches stdout
        for payload, field in (({"norm": 1.0, "diag": math.inf}, "diag"),
                               ({"rows": [[1.0, math.nan]], "x": math.inf}, "rows.0.1")):
            with pytest.raises(ValueError, match=f"^report field {field} is not a finite number$"):
                cli._emit_json(None, payload)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("n", [1, 8, 16])
    def test_norm_past_diagonal_overflow(self, capsys, n):
        # the norm at |z| = 1e-320 (1.2e160 at n = 1) is finite where its
        # square is not; the report holds the norm and its bounds alone
        code, out = run_cli(capsys, "kernel", "norm", "--n", str(n), "--z", "1e-320")
        payload = strict_json(out)
        assert code == 0
        assert set(payload) == {"schema", "n", "z", "norm", "lower_bound", "upper_bound"}
        assert payload["norm"] == kernel.kernel_norm(n, 1e-320)
        assert payload["lower_bound"] <= payload["norm"] <= payload["upper_bound"]

    def test_norm_past_the_largest_double(self, capsys):
        # |z| itself overflows here; the norm is ||K_{z/4}||/2
        code, out = run_cli(capsys, "kernel", "norm", "--n", "1", "--z", "1.5e308+1.5e308i")
        payload = strict_json(out)
        assert code == 0
        assert payload["norm"] == 8.687046884787415e-155
        assert payload["lower_bound"] <= payload["norm"] <= payload["upper_bound"]

    @pytest.mark.parametrize("n, z", [(8, "1e-310"), (12, "5e-324")])
    def test_eval_at_subnormal_scale(self, capsys, n, z):
        # K_n(z, z) = K_n(1, 1)/z (5.13e301 at n = 8, z = 1e-310): finite, and
        # no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(capsys, "kernel", "eval", "--n", str(n), "--z", z, "--w", z)
        want = kernel_diag(n, 1.0) / float(z)
        assert code == 0
        assert abs(json.loads(out)["value_re"] - want) <= 1e-15 * want

    @pytest.mark.parametrize("argv", [("--n", "0", "--z", "1e-320", "--w", "1e-320"),
                                      ("--n", "3", "--z", "1e-320", "--w", "1e-320"),
                                      ("--n", "0", "--z", "1e-320", "--w", "1e-320",
                                       "--method", "quadrature")])
    def test_eval_overflow_exits_one_silently(self, capsys, argv):
        # K_n past the largest double: one error line naming the point
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["kernel", "eval", *argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error [kernel]: kernel value at point (1e-320+0j) overflows\n"

    @pytest.mark.parametrize("argv", [("kernel", "sweep"), ("verify", "bounds")])
    def test_grid_diagonal_overflow_exits_one(self, capsys, argv):
        # K_1(z, z) overflows on the subnormal radii: one error line naming
        # the first such point, no numpy warning and no inf on stdout
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, "--n", "1", "--grid", "1e-320,1e-310,3,0.01,5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (f"error [{argv[0]}]: K_1(z, z) overflows at grid point"
                                " z = (1e-322-1e-320j)\n")

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
                want = kernel_diag(n, z)
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
        inputs = {name: value for name, value in (("seed", 5), ("samples", 3))
                  if name in verify.SUITES[suite][1]}
        options = [arg for name, value in inputs.items() for arg in (f"--{name}", str(value))]
        code, out = run_cli(capsys, "verify", suite, "--n", "2", *options)
        report = verify.run(suite, 2, **inputs)
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
        _, out = run_cli(capsys, "verify", suite, *small_suite_options(suite))
        assert json.loads(out)["n"] == n

    @pytest.mark.parametrize("suite, module", [("paley-wiener", "freqspace"),
                                               ("reproduce", "kernel")])
    def test_quadrature_failure_exits_one_with_report(self, capsys, monkeypatch, suite, module):
        # a QuadratureError from a suite's half-line rule is a one-field
        # report on stdout and status 1, with nothing on stderr
        def failing(*args, **kwargs):
            raise QuadratureError("interval rule did not converge")

        monkeypatch.setattr(importlib.import_module(f"hsob.{module}"), "integrate_halfline", failing)
        code = main(["verify", suite, "--n", "1", "--samples", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        assert strict_json(captured.out) == {
            "schema": 1, "suite": suite,
            "error": "quadrature failure: interval rule did not converge"}

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
        # the 41 x 33 grid that symbol classify once sampled; it must not fall back to 7 x 9
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

    def test_classify_takes_the_highest_order(self, capsys):
        # n = 16, where S_16 is about 3.9e10 and only a k!-scaled cap keeps
        # a bounded map's sufficient condition
        code, out = run_cli(capsys, "symbol", "classify", "--n", "16", "z+sqrt(z)+1")
        payload = strict_json(out)
        assert code == 0
        assert payload["verdict_Hn"] == "sufficient-passed"
        assert len(payload["nbc"]) == 16

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

    def test_jury(self, capsys):
        # the report is the least admissible M of jury_min_m, below the
        # operator norm 0.5 of 4*z+1 on three points
        code, out = run_cli(capsys, "symbol", "jury", "--n", "0",
                            "--points", "1,2,0.5+0.2i", "4*z+1")
        payload = strict_json(out)
        min_m = payload.pop("min_m")
        assert code == 0
        assert payload == {"schema": 1, "expression": "4*z+1", "n": 0,
                           "points": ["(1+0j)", "(2+0j)", "(0.5+0.2j)"]}
        assert abs(min_m - 0.480415) <= 1e-6

    def test_jury_bound_does_not_depend_on_scale(self, capsys):
        # K_0 is homogeneous of degree -1: on two points of size 1e8 the
        # bound of 2*z+1 is its norm 2^(-1/2), where an absolute eigenvalue
        # cut-off of 1e-8 took M = 0.5 as admissible
        code, out = run_cli(capsys, "symbol", "jury", "--n", "0",
                            "--points", "1e8,2e8+1e8i", "2*z+1")
        assert code == 0
        assert abs(strict_json(out)["min_m"] - 0.70710678) <= 1e-6

    @pytest.mark.parametrize("n, min_m", [(3, 92.5962036), (4, 574.3488877), (5, None)])
    def test_jury_on_near_axis_points(self, capsys, n, min_m):
        # ROADMAP direction 5's reproduction: 12 seeded points and 8 near -2i;
        # from n = 5 base is numerically singular, no M passes below 1e12,
        # and the bound jury_min_m returns, inf, is refused as a report field
        rng = np.random.default_rng(1)
        x, y = rng.uniform(0.05, 3.0, 12), rng.uniform(-3.0, 3.0, 12)
        near = np.logspace(-3.0, -0.5, 8) + 1j * (-2.0 + np.linspace(-0.3, 0.3, 8))
        points = ",".join(str(complex(z)).strip("()") for z in [*(x + 1j * y), *near])
        code = main(["symbol", "jury", "--n", str(n), "--points", points, "z+(0.3+2i)"])
        captured = capsys.readouterr()
        if min_m is None:
            assert code == 1
            assert captured.out == ""
            assert captured.err == "error [symbol]: report field min_m is not a finite number\n"
        else:
            assert code == 0
            assert abs(strict_json(captured.out)["min_m"] - min_m) <= 1e-6 * min_m

    @pytest.mark.parametrize("argv", [("parse", "1e999"), ("classify", "--n", "1", "1e999*z")])
    def test_overflowing_literal_exits_one(self, capsys, argv):
        # refused at parse time, before any analysis runs
        code = main(["symbol", *argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "number overflows a double (at position 0)" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (("jury", "--n", "1", "--points", "1e200,1", "z*z"),
         "image of point (1e+200+0j) is not finite"),
        (("jury", "--n", "1", "--points", "1e200,1", "z^2"),
         "image of point (1e+200+0j) is not finite"),
        (("classify", "--n", "1", "(1e300*z)^3"),
         "phi took no finite value at any sweep point"),
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
        ("symbol", "jury", "--points", "inf", "z"),
        ("verify", "bounds", "--tol", "nan"),
        ("verify", "bounds", "--tol", "-1"),
        ("verify", "bounds", "--tol", "inf"),
        ("kernel", "norm", "--n", "-1", "--z", "1"),
        ("verify", "reproduce", "--samples", "-2"),
        ("verify", "reproduce", "--samples", "two"),
        ("kernel", "gram", "--count", "0"),
        ("symbol", "jury", "--count", "0", "z"),
        ("verify", "bounds", "--grid", "1,2,3"),
        ("verify", "bounds", "--grid", "0.1,10,3,0.1,3,7"),
        ("verify", "bounds", "--grid", "0,10,3,0.1,3"),
        ("verify", "bounds", "--grid", "0.1,inf,3,0.1,3"),
        ("verify", "bounds", "--grid", "0.1,10,-1,0.1,3"),
        ("verify", "bounds", "--grid", "0.1,10,3,0.1,2.5"),
        ("kernel", "sweep", "--grid", "0.1,10,3,2,3"),
        ("kernel", "sweep", "--grid", "0.1,10,3,0,3"),
        ("symbol", "classify", "--n", "1.5", "z"),
        ("kernel", "gram", "--seed", "-1"),
        ("verify", "reproduce", "--seed", "-1"),
        ("symbol", "jury", "--points", "1,nan", "z"),
        ("symbol", "jury", "--seed", "-1", "z"),
        ("kernel", "sweep", "--n", "0"),
        # the two routes are closed_form and quadrature
        ("kernel", "eval", "--z", "1", "--w", "1", "--method", "auto"),
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
        ("symbol", "jury", "--grid", "0.1,10,3,0.1,3", "z"),
        # no command reads a quadrature setting
        ("kernel", "norm", "--z", "1", "--config", "q.cfg"),
        ("kernel", "sweep", "--config", "q.cfg"),
        ("kernel", "gram", "--config", "q.cfg"),
        ("symbol", "jury", "--config", "q.cfg", "z"),
        ("kernel", "eval", "--z", "1", "--w", "1", "--config", "q.cfg"),
        *(("verify", suite, "--config", "q.cfg") for suite in verify.SUITES),
        # bounds checks grid points and draws no samples; the sampled suites
        # read no grid
        ("verify", "bounds", "--seed", "1"),
        ("verify", "bounds", "--samples", "3"),
        *(("verify", suite, "--grid", "0.5,2,1,0.1,1")
          for suite in verify.SUITES if suite != "bounds"),
        # classify samples the imaginary axis and the real ray, not a grid
        ("symbol", "classify", "--grid", "1e-4,1e6,41,0.001,33", "z"),
        # jury reports the least admissible M and takes no candidate M
        ("symbol", "jury", "--m", "1", "z"),
        ("symbol", "jury", "--n", "0", "--points", "1", "--m", "0.5", "z"),
    ])
    def test_unread_option_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("kernel", "eval", "--n", "1", "--z", "1", "--w", "1", "--out", "{tmp}/missing/x.json"),
        ("kernel", "eval", "--n", "0", "--z", "1e-320", "--w", "1e-320", "--method", "quadrature"),
        ("kernel", "eval", "--n", "2", "--z", "1e-320", "--w", "1", "--method", "quadrature"),
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
            ["kernel", "eval", "--n", "0", "--z", "1e-320", "--w", "1e-320"],
            ["symbol", "jury", "--points", "1,2", "2*z+1"],
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

    def test_verify_reports_sample_terms(self, capsys):
        _, out = run_cli(capsys, "verify", "paley-wiener", "--n", "1", "--samples", "2")
        payload = json.loads(out)
        f = exppoly_from_triples(payload["cases"][1]["terms"])
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


def readme_option_table():
    """Subcommand -> set of options, from the table under README's ``## CLI``;
    the ``verify <suite>`` row stands for every suite without a row of its own."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    rows = {row.group(1): set(re.findall(r"`(--[a-z-]+)`", row.group(2)))
            for row in map(re.compile(r"\| `([a-z <>]+)` \| (.*) \|").fullmatch,
                           section.splitlines()) if row}
    suites = rows.pop("verify <suite>")
    return {**{f"verify {suite}": suites for suite in verify.SUITES}, **rows}


def parser_options():
    """Subcommand -> set of the options ``build_parser()`` declares for it."""
    def choices(parser):
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    return {f"{group} {name}": {flag for a in sub._actions for flag in a.option_strings
                                if flag.startswith("--") and flag != "--help"}
            for group, parser in choices(cli.build_parser()).items()
            for name, sub in choices(parser).items()}


#: a valid invocation without --n of each subcommand that takes --n; kernel
#: eval once per method
ORDER_ARGV = [
    ("kernel", "eval", "--z", "1", "--w", "1", "--method", "closed_form"),
    ("kernel", "eval", "--z", "1", "--w", "1", "--method", "quadrature"),
    ("kernel", "norm", "--z", "1"),
    ("kernel", "sweep"),
    ("kernel", "gram", "--count", "2"),
    *(("verify", suite, *small_suite_options(suite)) for suite in verify.SUITES),
    ("symbol", "classify", "z"),
    ("symbol", "jury", "z"),
]


def test_every_order_option_refuses_past_the_warranty(capsys):
    # --n 17 is one usage error, worded by the library's one order check,
    # in every subcommand that takes --n
    takes_n = {name for name, options in parser_options().items() if "--n" in options}
    assert {" ".join(argv[:2]) for argv in ORDER_ARGV} == takes_n
    messages = set()
    for argv in ORDER_ARGV:
        with pytest.raises(SystemExit) as info:
            main([*argv, "--n", "17"])
        assert info.value.code == 2
        prefix = f"hsob {argv[0]} {argv[1]}: error: "
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(prefix), argv
        messages.add(last.removeprefix(prefix))
    assert messages == {"argument --n: the order must lie in 0..16, got 17"}


@pytest.mark.parametrize("suite", verify.SUITES)
def test_verify_options_are_the_suite_inputs(suite):
    # a verify subcommand declares an option for each input its suite reads,
    # and the suite's check takes exactly those inputs after the order
    check, inputs = verify.SUITES[suite][:2]
    assert parser_options()[f"verify {suite}"] == {"--n", "--tol", "--out",
                                                   *(f"--{name}" for name in inputs)}
    assert list(inspect.signature(check).parameters) == ["n", *inputs]
    assert set(inputs) <= set(inspect.signature(verify.run).parameters)


@pytest.mark.parametrize("suite", verify.SUITES)
def test_run_refuses_inputs_the_suite_does_not_read(suite):
    # bounds reads only its grid and the sampled suites only seed and
    # samples: any other input is one error naming the suite and the input
    read = verify.SUITES[suite][1]
    for name, value in (("seed", 5), ("samples", 3), ("grid", verify.SWEEP_GRID)):
        if name not in read:
            with pytest.raises(ValueError, match=f"^suite {suite} does not read {name}$"):
                verify.run(suite, 2, **{name: value})
    if suite == "bounds":
        with pytest.raises(ValueError, match="^suite bounds does not read seed or samples$"):
            verify.run(suite, 2, seed=5, samples=3)


def test_readme_option_table_matches_parser():
    # each row lists exactly the options that subcommand declares, and every
    # subcommand has a row
    assert readme_option_table() == parser_options()
