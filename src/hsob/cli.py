"""Command-line front end: kernel evaluation, verification suites, symbol analysis.

Subcommands
    kernel eval|norm|sweep|gram
    verify paley-wiener|inner-product|bounds|reproduce|cayley|hardy-ineq
    symbol parse|classify|jury

Reports are machine-readable (JSON, or CSV for sweeps), versioned with a
``schema: 1`` field.  Exit status: 0 on success, 1 when any verification
residual exceeds its tolerance (or a numeric routine fails), 2 on usage
errors.  Randomised suites take ``--seed`` (default 0) and are reproducible.

A plain-text config file of ``key = value`` lines (``--config``) overrides
the quadrature defaults.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .cayley import norm_equality_check
from .expfamily import ExpPoly, inner_product_n, laplace, sample_exppoly
from .freqspace import hn_norm, paley_wiener_residual
from .kernel import (
    KernelPoint,
    gram_matrix,
    kernel_diag,
    kernel_eval,
    kernel_norm,
    min_eigenvalue,
    norm_bounds,
    reproduce_check,
)
from .quadrature import QuadConfig, QuadratureError
from .symbols import GridSpec, classify, jury_min_eig, parse as parse_symbol
from .timespace import hardy_constant, w_minus_exp

SCHEMA = 1


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from None


def _parse_points(text: str) -> list[complex]:
    return [_parse_complex(part) for part in text.split(",") if part.strip()]


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Resolved common options for one CLI invocation."""

    n: int
    tol: float | None
    seed: int
    samples: int
    fmt: str
    out: str | None
    quad: QuadConfig
    grid: GridSpec


def _load_quad_config(path: str | None) -> QuadConfig:
    if path is None:
        return QuadConfig()
    overrides = {}
    fields = {f.name: f.type for f in dataclasses.fields(QuadConfig)}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SystemExit(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in fields:
                raise SystemExit(f"{path}:{lineno}: unknown quadrature option {key!r}")
            caster = int if key in ("max_subdiv", "nodes_per_cell") else float
            overrides[key] = caster(value)
    return QuadConfig(**overrides)


def _parse_grid(text: str | None) -> GridSpec:
    """Grid flag: 'r_min,r_max,num_r,theta_margin,num_theta' (log-polar)."""
    if text is None:
        return GridSpec()
    parts = text.split(",")
    if len(parts) != 5:
        raise SystemExit("--grid expects r_min,r_max,num_r,theta_margin,num_theta")
    r_min, r_max = float(parts[0]), float(parts[1])
    return GridSpec(
        log10_r_min=math.log10(r_min),
        log10_r_max=math.log10(r_max),
        num_r=int(parts[2]),
        theta_margin=float(parts[3]),
        num_theta=int(parts[4]),
    )


def _resolve(args) -> RunConfig:
    return RunConfig(
        n=getattr(args, "n", 0),
        tol=getattr(args, "tol", None),
        seed=getattr(args, "seed", 0),
        samples=getattr(args, "samples", 20),
        fmt=getattr(args, "format", "json"),
        out=getattr(args, "out", None),
        quad=_load_quad_config(getattr(args, "config", None)),
        grid=_parse_grid(getattr(args, "grid", None)),
    )


def _emit(rc: RunConfig, text: str) -> None:
    if rc.out:
        with open(rc.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(rc: RunConfig, payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    _emit(rc, json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# kernel subcommands


def _cmd_kernel_eval(args) -> int:
    rc = _resolve(args)
    point = KernelPoint(rc.n, args.z, args.w, args.method, rc.quad)
    value = kernel_eval(point)
    _emit_json(rc, {
        "n": rc.n,
        "z": str(args.z),
        "w": str(args.w),
        "value_re": value.real,
        "value_im": value.imag,
        "method": point.route,
    })
    return 0


def _cmd_kernel_norm(args) -> int:
    rc = _resolve(args)
    norm = kernel_norm(rc.n, args.z, rc.quad)
    payload = {"n": rc.n, "z": str(args.z), "norm": norm, "diag": norm * norm}
    if rc.n >= 1:
        lo, hi = norm_bounds(rc.n, args.z)
        payload.update(lower_bound=lo, upper_bound=hi)
    _emit_json(rc, payload)
    return 0


def _cmd_kernel_sweep(args) -> int:
    rc = _resolve(args)
    grid = rc.grid if args.grid else GridSpec(log10_r_min=-3, log10_r_max=3, num_r=7,
                                              theta_margin=0.05, num_theta=9)
    points = [complex(r * math.cos(t), r * math.sin(t))
              for r in grid.radii() for t in grid.angles()]

    def row(z):
        diag = kernel_diag(rc.n, z, rc.quad, theta_margin=grid.theta_margin * 0.5)
        lo, hi = norm_bounds(rc.n, z)
        return (rc.n, abs(z), math.atan2(z.imag, z.real), diag, lo, math.sqrt(diag), hi)

    rows = [row(z) for z in points]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "abs_z", "arg_z", "kernel_diag", "lower_bound", "norm", "upper_bound"])
    writer.writerows(rows)
    _emit(rc, buf.getvalue())
    return 0


def _cmd_kernel_gram(args) -> int:
    rc = _resolve(args)
    if args.points:
        pts = _parse_points(args.points)
    else:
        rng = np.random.default_rng(rc.seed)
        pts = [complex(r, y) for r, y in zip(rng.uniform(0.2, 4.0, args.count),
                                             rng.uniform(-2.0, 2.0, args.count))]
    G = gram_matrix(rc.n, pts, cfg=rc.quad)
    _emit_json(rc, {
        "n": rc.n,
        "points": [str(p) for p in pts],
        "gram_re": G.real.tolist(),
        "gram_im": G.imag.tolist(),
        "min_eigenvalue": min_eigenvalue(G),
    })
    return 0


# ---------------------------------------------------------------------------
# verify subcommands: each returns (cases, max_residual)


def _suite_samples(rc: RunConfig, level: int = 0) -> list[ExpPoly]:
    rng = np.random.default_rng(rc.seed)
    samples = [ExpPoly.exponential(1.0)]
    while len(samples) < rc.samples:
        samples.append(sample_exppoly(rng, level=level))
    return samples[: rc.samples]


def _verify_paley_wiener(rc: RunConfig):
    tol = rc.tol if rc.tol is not None else 1e-6
    cases = []
    worst = 0.0
    for i, f in enumerate(_suite_samples(rc, rc.n)):
        res = paley_wiener_residual(f, rc.n, rc.quad)
        report = hn_norm(laplace(f), rc.n, rc.quad)
        worst = max(worst, res)
        cases.append({"sample": i, "terms": f.to_triples(), "residual": res,
                      **report.to_dict()})
    return cases, worst, tol


def _verify_inner_product(rc: RunConfig):
    tol = rc.tol if rc.tol is not None else 1e-9
    samples = _suite_samples(rc, rc.n)
    cases = []
    worst = 0.0
    for i, f in enumerate(samples):
        g = samples[(i + 1) % len(samples)]
        lhs = inner_product_n(f, g, rc.n)
        rhs = inner_product_n(f.times_power(rc.n).derivative(rc.n),
                              g.times_power(rc.n).derivative(rc.n), 0)
        res = abs(lhs - rhs) / max(abs(lhs), 1e-30)
        worst = max(worst, res)
        cases.append({"sample": i, "terms": f.to_triples(), "residual": res,
                      "lhs_re": lhs.real, "lhs_im": lhs.imag})
    return cases, worst, tol


def _verify_bounds(rc: RunConfig):
    tol = rc.tol if rc.tol is not None else 0.0
    grid = rc.grid if rc.grid != GridSpec() else GridSpec(
        log10_r_min=-3, log10_r_max=3, num_r=7, theta_margin=0.05, num_theta=9)
    n = max(rc.n, 1)
    cases = []
    worst = -math.inf
    for r in grid.radii():
        for t in grid.angles():
            z = complex(r * math.cos(t), r * math.sin(t))
            nrm = kernel_norm(n, z, rc.quad, theta_margin=grid.theta_margin * 0.5)
            lo, hi = norm_bounds(n, z)
            violation = max(lo - nrm, nrm - hi)
            worst = max(worst, violation)
            cases.append({"abs_z": abs(z), "arg_z": t, "norm": nrm,
                          "lower": lo, "upper": hi, "violation": violation})
    return cases, worst, tol


def _verify_reproduce(rc: RunConfig):
    tol = rc.tol if rc.tol is not None else 1e-6
    n = max(rc.n, 1)
    rng = np.random.default_rng(rc.seed)
    cases = []
    worst = 0.0
    for i in range(rc.samples):
        f = sample_exppoly(rng, level=n)
        w = complex(rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0))
        res = reproduce_check(n, f, w, rc.quad)
        scaled = res / (1.0 + abs(laplace(f)(w)))
        worst = max(worst, scaled)
        cases.append({"sample": i, "terms": f.to_triples(), "w": str(w), "residual": scaled})
    return cases, worst, tol


def _verify_cayley(rc: RunConfig):
    tol = rc.tol if rc.tol is not None else 1e-7
    rng = np.random.default_rng(rc.seed)
    cases = []
    worst = 0.0
    for i in range(rc.samples):
        F = laplace(sample_exppoly(rng, max_terms=3, max_power=2, level=1))
        lhs, rhs, res = norm_equality_check(F, rc.quad)
        worst = max(worst, res)
        cases.append({"sample": i, "lhs": lhs, "rhs": rhs, "residual": res})
    return cases, worst, tol


def _verify_hardy_ineq(rc: RunConfig):
    tol = rc.tol if rc.tol is not None else 0.0
    rng = np.random.default_rng(rc.seed)
    m = max(rc.n, 1)
    cases = []
    worst = -math.inf
    for i in range(rc.samples):
        # positive function: positive coefficients, real decay rates
        terms = tuple(
            (float(rng.uniform(0.1, 2.0)), int(rng.integers(0, 3)), float(rng.uniform(0.3, 3.0)))
            for _ in range(int(rng.integers(1, 4)))
        )
        phi = ExpPoly(terms)
        lhs_fn = w_minus_exp(phi, m)
        lhs = (lhs_fn * lhs_fn).integral().real
        weighted = phi.times_power(m)
        rhs = hardy_constant(m) ** 2 * (weighted * weighted).integral().real
        violation = lhs - rhs
        worst = max(worst, violation)
        cases.append({"sample": i, "lhs": lhs, "rhs": rhs, "violation": violation})
    return cases, worst, tol


_VERIFY_SUITES = {
    "paley-wiener": _verify_paley_wiener,
    "inner-product": _verify_inner_product,
    "bounds": _verify_bounds,
    "reproduce": _verify_reproduce,
    "cayley": _verify_cayley,
    "hardy-ineq": _verify_hardy_ineq,
}


def _cmd_verify(args) -> int:
    rc = _resolve(args)
    try:
        cases, worst, tol = _VERIFY_SUITES[args.suite](rc)
    except QuadratureError as exc:
        _emit_json(rc, {"suite": args.suite, "error": f"quadrature failure: {exc}"})
        return 1
    # a suite that checked nothing has shown nothing
    passed = bool(cases) and worst <= tol
    _emit_json(rc, {
        "suite": args.suite,
        "n": rc.n,
        "seed": rc.seed,
        "samples": len(cases),
        "tolerance": tol,
        "max_residual": worst,
        "pass": passed,
        "cases": cases,
    })
    return 0 if passed else 1


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
    rc = _resolve(args)
    expr = parse_symbol(args.expression)
    _emit_json(rc, {"expression": args.expression, "text": expr.to_text(), "ast": _ast_dict(expr)})
    return 0


def _cmd_symbol_classify(args) -> int:
    rc = _resolve(args)
    expr = parse_symbol(args.expression)
    report = classify(expr, rc.n, rc.grid)
    _emit_json(rc, report.to_dict())
    return 0


def _cmd_symbol_jury(args) -> int:
    rc = _resolve(args)
    expr = parse_symbol(args.expression)
    if args.points:
        pts = _parse_points(args.points)
    else:
        rng = np.random.default_rng(rc.seed)
        pts = [complex(r, y) for r, y in zip(rng.uniform(0.3, 4.0, args.count),
                                             rng.uniform(-2.0, 2.0, args.count))]
    eig = jury_min_eig(expr, rc.n, args.m, pts, cfg=rc.quad)
    _emit_json(rc, {
        "expression": args.expression,
        "n": rc.n,
        "m": args.m,
        "points": [str(p) for p in pts],
        "min_eigenvalue": eig,
        "psd": eig >= -1e-8,
    })
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(p, n_default=0):
    p.add_argument("--n", type=int, default=n_default, help="space order")
    p.add_argument("--tol", type=float, default=None, help="tolerance override")
    p.add_argument("--seed", type=int, default=0, help="RNG seed for sampled suites")
    p.add_argument("--samples", type=int, default=20, help="sample count for suites")
    p.add_argument("--grid", type=str, default=None,
                   help="log-polar grid: r_min,r_max,num_r,theta_margin,num_theta")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", type=str, default=None, help="write the report to a file")
    p.add_argument("--config", type=str, default=None,
                   help="quadrature config file of 'key = value' lines")


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
    _add_common(p, n_default=1)
    p.add_argument("--z", type=_parse_complex, required=True)
    p.add_argument("--w", type=_parse_complex, required=True)
    p.add_argument("--method", choices=("auto", "closed_form", "quadrature"), default="auto")
    p.set_defaults(func=_cmd_kernel_eval)

    p = ksub.add_parser("norm", help="kernel norm and bounds at a point")
    _add_common(p, n_default=1)
    p.add_argument("--z", type=_parse_complex, required=True)
    p.set_defaults(func=_cmd_kernel_norm)

    p = ksub.add_parser("sweep", help="CSV sweep of diagonal, norm and bounds")
    _add_common(p, n_default=1)
    p.set_defaults(func=_cmd_kernel_sweep, format="csv")

    p = ksub.add_parser("gram", help="Gram matrix and least eigenvalue")
    _add_common(p, n_default=1)
    p.add_argument("--points", type=str, default=None,
                   help="comma-separated complex points, e.g. '1,2+1i,0.5-0.2i'")
    p.add_argument("--count", type=int, default=8, help="seeded point count when --points absent")
    p.set_defaults(func=_cmd_kernel_gram)

    verify = top.add_parser("verify", help="numeric verification suites")
    vsub = verify.add_subparsers(dest="suite", required=True)
    for name, helptext in (
        ("paley-wiener", "time norm vs boundary norm on random samples"),
        ("inner-product", "weighted inner product vs derivative form, exact algebra"),
        ("bounds", "kernel-norm sandwich on a log-polar grid"),
        ("reproduce", "reproducing identity via time-side quadrature"),
        ("cayley", "disc-transfer norm equality"),
        ("hardy-ineq", "iterated-integral inequality on positive samples"),
    ):
        p = vsub.add_parser(name, help=helptext)
        _add_common(p)
        p.set_defaults(func=_cmd_verify)

    symbol = top.add_parser("symbol", help="composition-operator symbol analysis")
    ssub = symbol.add_subparsers(dest="subcommand", required=True)

    p = ssub.add_parser("parse", help="parse a symbol expression to an AST report")
    _add_common(p)
    p.add_argument("expression")
    p.set_defaults(func=_cmd_symbol_parse)

    p = ssub.add_parser("classify", help="boundedness evidence for a symbol")
    _add_common(p, n_default=1)
    p.add_argument("expression")
    p.set_defaults(func=_cmd_symbol_classify)

    p = ssub.add_parser("jury", help="kernel-inequality eigenvalue certificate")
    _add_common(p, n_default=0)
    p.add_argument("expression")
    p.add_argument("--m", type=float, required=True, help="candidate operator-norm bound M")
    p.add_argument("--points", type=str, default=None)
    p.add_argument("--count", type=int, default=6)
    p.set_defaults(func=_cmd_symbol_jury)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QuadratureError, ValueError, ZeroDivisionError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
