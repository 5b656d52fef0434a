"""Command-line front end: kernel evaluation, verification suites, symbol analysis.

Subcommands
    kernel eval|norm|sweep|gram
    verify paley-wiener|inner-product|bounds|reproduce|cayley|hardy-ineq
    symbol parse|classify|jury

Each subcommand declares only the options it reads; any other option is a
usage error.  The six verify suites share one option set (``--n --tol --seed
--samples --grid --config --out``) and print :func:`hsob.verify.run`'s report.
Arguments are validated here, once:
``--grid`` is ``r_min,r_max,num_r,theta_margin,num_theta`` with finite
positive radii, counts >= 0 and ``0 < theta_margin < pi/2``.

Reports are machine-readable (JSON, or CSV for sweeps), versioned with a
``schema: 1`` field.  JSON reports are strict: a NaN or infinite field is an
error, except a divergent supremum of ``symbol classify``, written as the
number ``1e999``.  Exit status: 0 on success, 1 when any verification
residual exceeds its tolerance (or a numeric routine or a file fails, or a
report field is not finite), 2 on usage errors.  Randomised suites take
``--seed`` (default 0) and are reproducible.

A plain-text config file of ``key = value`` lines (``--config``) overrides
the quadrature defaults for the verify suites and ``kernel eval``.  A reader
that closes the pipe early (``| head``) ends the command with status 1 and
nothing on stderr.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__, verify
from .kernel import KernelPoint, gram_matrix, kernel_eval, kernel_norm, min_eigenvalue, norm_bounds
from .quadrature import QuadConfig, QuadratureError
from .symbols import GridSpec, classify, jury_min_eig, parse as parse_symbol

SCHEMA = 1


def _parse_complex(text: str) -> complex:
    try:
        value = complex(text.strip().replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from None
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"complex number {text!r} is not finite")
    return value


def _parse_points(text: str) -> list[complex]:
    points = [_parse_complex(part) for part in text.split(",") if part.strip()]
    if not points:
        raise argparse.ArgumentTypeError("expected at least one point")
    return points


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as an invalid int value
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite nonnegative tolerance, got {text!r}")
    return value


def _parse_grid(text: str) -> GridSpec:
    """An argparse type: the log-polar grid 'r_min,r_max,num_r,theta_margin,num_theta'."""
    fields = text.split(",")
    if len(fields) != 5:
        raise argparse.ArgumentTypeError("expected r_min,r_max,num_r,theta_margin,num_theta")
    try:
        r_min, r_max, margin = float(fields[0]), float(fields[1]), float(fields[3])
        num_r, num_theta = int(fields[2]), int(fields[4])
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse grid {text!r}") from None
    if not (0.0 < r_min < math.inf and 0.0 < r_max < math.inf):
        raise argparse.ArgumentTypeError("r_min and r_max must be finite and positive")
    if num_r < 0 or num_theta < 0:
        raise argparse.ArgumentTypeError("num_r and num_theta must be >= 0")
    if not 0.0 < margin < math.pi / 2:
        raise argparse.ArgumentTypeError("theta_margin must lie strictly between 0 and pi/2")
    return GridSpec(log10_r_min=math.log10(r_min), log10_r_max=math.log10(r_max),
                    num_r=num_r, theta_margin=margin, num_theta=num_theta)


def _load_quad_config(path: str | None) -> QuadConfig:
    if path is None:
        return QuadConfig()
    overrides = {}
    defaults = {f.name: f.default for f in dataclasses.fields(QuadConfig)}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SystemExit(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in defaults:
                raise SystemExit(f"{path}:{lineno}: unknown quadrature option {key!r}")
            overrides[key] = type(defaults[key])(value)
    return QuadConfig(**overrides)


def _emit(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


#: stands in for a supremum that escaped past the divergence cap until the
#: report is serialised; it is then written as the JSON number 1e999, larger
#: than any double, which readers of doubles take as infinity
_DIVERGENT = "\0divergent"


def _divergent(value: float):
    return _DIVERGENT if value == math.inf else value


def _nonfinite_field(value, path: str) -> str | None:
    """The path of the first NaN or infinite number in a report, if any."""
    if isinstance(value, float) and not math.isfinite(value):
        return path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, (list, tuple)) else ())
    for key, item in items:
        found = _nonfinite_field(item, f"{path}.{key}" if path else str(key))
        if found:
            return found
    return None


def _emit_json(path: str | None, payload: dict) -> None:
    """Write a report as strict JSON; a NaN or infinite field is an error."""
    payload = {"schema": SCHEMA, **payload}
    bad = _nonfinite_field(payload, "")
    if bad:
        raise ValueError(f"report field {bad} is not a finite number")
    text = json.dumps(payload, indent=2, allow_nan=False)
    _emit(path, text.replace(json.dumps(_DIVERGENT), "1e999"))


def _seeded_points(seed: int, count: int, re_min: float) -> list[complex]:
    """``count`` seeded points with Re z in [re_min, 4) and Im z in [-2, 2)."""
    rng = np.random.default_rng(seed)
    return [complex(r, y) for r, y in zip(rng.uniform(re_min, 4.0, count),
                                          rng.uniform(-2.0, 2.0, count))]


# ---------------------------------------------------------------------------
# kernel subcommands


def _cmd_kernel_eval(args) -> int:
    point = KernelPoint(args.n, args.z, args.w, args.method, _load_quad_config(args.config))
    value = kernel_eval(point)
    _emit_json(args.out, {
        "n": args.n,
        "z": str(args.z),
        "w": str(args.w),
        "value_re": value.real,
        "value_im": value.imag,
        "method": point.route,
    })
    return 0


def _cmd_kernel_norm(args) -> int:
    norm = kernel_norm(args.n, args.z)
    payload = {"n": args.n, "z": str(args.z), "norm": norm, "diag": norm * norm}
    if args.n >= 1:
        lo, hi = norm_bounds(args.n, args.z)
        payload.update(lower_bound=lo, upper_bound=hi)
    _emit_json(args.out, payload)
    return 0


def _cmd_kernel_sweep(args) -> int:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "abs_z", "arg_z", "kernel_diag", "lower_bound", "norm", "upper_bound"])
    for z, _, diag, lo, hi in verify.grid_rows(args.n, args.grid):
        writer.writerow((args.n, abs(z), math.atan2(z.imag, z.real), diag, lo, math.sqrt(diag), hi))
    _emit(args.out, buf.getvalue())
    return 0


def _cmd_kernel_gram(args) -> int:
    pts = args.points or _seeded_points(args.seed, args.count, 0.2)
    G = gram_matrix(args.n, pts)
    _emit_json(args.out, {
        "n": args.n,
        "points": [str(p) for p in pts],
        "gram_re": G.real.tolist(),
        "gram_im": G.imag.tolist(),
        "min_eigenvalue": min_eigenvalue(G),
    })
    return 0


# ---------------------------------------------------------------------------
# verify subcommands


def _cmd_verify(args) -> int:
    quad = _load_quad_config(args.config)
    try:
        report = verify.run(args.suite, args.n, seed=args.seed, samples=args.samples,
                            grid=args.grid, tol=args.tol, cfg=quad)
    except QuadratureError as exc:
        _emit_json(args.out, {"suite": args.suite, "error": f"quadrature failure: {exc}"})
        return 1
    _emit_json(args.out, report)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# symbol subcommands


def _ast_dict(node) -> dict:
    from . import symbols as sym

    if isinstance(node, sym.Var):
        return {"node": "var"}
    if isinstance(node, sym.Const):
        return {"node": "const", "re": node.value.real, "im": node.value.imag}
    if isinstance(node, sym.Pow):
        return {"node": "pow", "alpha": node.alpha, "base": _ast_dict(node.base_expr)}
    if isinstance(node, sym.Log1p):
        return {"node": "log1p", "arg": _ast_dict(node.arg)}
    name = {sym.Add: "add", sym.Sub: "sub", sym.Mul: "mul", sym.Div: "div"}[type(node)]
    return {"node": name, "left": _ast_dict(node.left), "right": _ast_dict(node.right)}


def _cmd_symbol_parse(args) -> int:
    expr = parse_symbol(args.expression)
    _emit_json(args.out, {"expression": args.expression, "text": expr.to_text(),
                          "ast": _ast_dict(expr)})
    return 0


def _cmd_symbol_classify(args) -> int:
    expr = parse_symbol(args.expression)
    report = classify(expr, args.n, args.grid).to_dict()
    for key in ("phi_prime_infinity", "radial_sup"):
        report[key] = _divergent(report[key])
    report["nbc"] = [_divergent(v) for v in report["nbc"]]
    _emit_json(args.out, report)
    return 0


def _cmd_symbol_jury(args) -> int:
    expr = parse_symbol(args.expression)
    pts = args.points or _seeded_points(args.seed, args.count, 0.3)
    eig = jury_min_eig(expr, args.n, args.m, pts)
    _emit_json(args.out, {
        "expression": args.expression,
        "n": args.n,
        "m": args.m,
        "points": [str(p) for p in pts],
        "min_eigenvalue": eig,
        "psd": eig >= -1e-8,
    })
    return 0


# ---------------------------------------------------------------------------
# argument wiring

#: options that several subcommands read; each subcommand declares the ones it
#: reads, and sets its own defaults with ``set_defaults``
_OPTIONS = {
    "--n": {"type": _int_at_least(0), "default": 1, "help": "space order"},
    "--tol": {"type": _tolerance, "help": "tolerance override"},
    "--seed": {"type": _int_at_least(0), "default": 0, "help": "RNG seed for sampled points"},
    "--samples": {"type": _int_at_least(0), "default": 20, "help": "sample count for suites"},
    "--grid": {"type": _parse_grid, "default": verify.SWEEP_GRID,
               "help": "log-polar grid: r_min,r_max,num_r,theta_margin,num_theta"},
    "--config": {"help": "quadrature config file of 'key = value' lines"},
    "--out": {"help": "write the report to a file"},
}


def _add_options(p, *flags) -> None:
    for flag in flags:
        p.add_argument(flag, **_OPTIONS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsob",
        description="Hardy-Sobolev spaces on the half-plane: kernels, isometries, symbols",
    )
    parser.add_argument("--version", action="version", version=f"hsob {__version__}")
    top = parser.add_subparsers(dest="command", required=True)

    kernel = top.add_parser("kernel", help="reproducing-kernel computations")
    ksub = kernel.add_subparsers(dest="subcommand", required=True)

    p = ksub.add_parser("eval", help="evaluate K_n(z, w)")
    _add_options(p, "--n", "--config", "--out")
    p.add_argument("--z", type=_parse_complex, required=True)
    p.add_argument("--w", type=_parse_complex, required=True)
    p.add_argument("--method", choices=("auto", "closed_form", "quadrature"), default="auto")
    p.set_defaults(func=_cmd_kernel_eval)

    p = ksub.add_parser("norm", help="kernel norm and bounds at a point")
    _add_options(p, "--n", "--out")
    p.add_argument("--z", type=_parse_complex, required=True)
    p.set_defaults(func=_cmd_kernel_norm)

    p = ksub.add_parser("sweep", help="CSV sweep of diagonal, norm and bounds")
    p.add_argument("--n", type=_int_at_least(1), default=1, help="space order (bounds need n >= 1)")
    _add_options(p, "--grid", "--out")
    p.set_defaults(func=_cmd_kernel_sweep)

    p = ksub.add_parser("gram", help="Gram matrix and least eigenvalue")
    _add_options(p, "--n", "--seed", "--out")
    p.add_argument("--points", type=_parse_points, default=None,
                   help="comma-separated complex points, e.g. '1,2+1i,0.5-0.2i'")
    p.add_argument("--count", type=_int_at_least(1), default=8,
                   help="seeded point count when --points absent")
    p.set_defaults(func=_cmd_kernel_gram)

    verify_cmd = top.add_parser("verify", help="numeric verification suites")
    vsub = verify_cmd.add_subparsers(dest="suite", required=True)
    for name, (suite, *_) in verify.SUITES.items():
        p = vsub.add_parser(name, help=suite.__doc__)
        _add_options(p, "--n", "--tol", "--seed", "--samples", "--grid", "--config", "--out")
        p.set_defaults(func=_cmd_verify, n=0)

    symbol = top.add_parser("symbol", help="composition-operator symbol analysis")
    ssub = symbol.add_subparsers(dest="subcommand", required=True)

    p = ssub.add_parser("parse", help="parse a symbol expression to an AST report")
    _add_options(p, "--out")
    p.add_argument("expression")
    p.set_defaults(func=_cmd_symbol_parse)

    p = ssub.add_parser("classify", help="boundedness evidence for a symbol")
    _add_options(p, "--n", "--grid", "--out")
    p.add_argument("expression")
    p.set_defaults(func=_cmd_symbol_classify, grid=GridSpec())

    p = ssub.add_parser("jury", help="kernel-inequality eigenvalue certificate")
    _add_options(p, "--n", "--seed", "--out")
    p.add_argument("expression")
    p.add_argument("--m", type=_tolerance, required=True,
                   help="candidate operator-norm bound M (finite, >= 0)")
    p.add_argument("--points", type=_parse_points, default=None)
    p.add_argument("--count", type=_int_at_least(1), default=6)
    p.set_defaults(func=_cmd_symbol_jury, n=0)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of the process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone: send what is left to devnull, as Python's docs
        # advise, so the flush at exit raises nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (QuadratureError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
