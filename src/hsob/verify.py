"""The verification suites: one seeded driver per identity of the paper.

:func:`run` draws a suite's samples from ``seed`` and returns its report, which
``hsob verify <suite>`` prints as JSON.  No suite takes a quadrature setting:
each identity is checked at the integrators' one default tolerance.  Layer
functions are called through their modules (``freqspace.hn_norm``, not a
``from .freqspace import`` binding), so a caller that replaces a module
attribute, as a tracer does, sees every call.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass

import numpy as np

from . import expfamily, freqspace, kernel, timespace
from .specfun import _check_order

# the package exports a function named cayley, which shadows the module
_cayley_module = importlib.import_module(f"{__package__}.cayley")


@dataclass(frozen=True)
class GridSpec:
    """Log-polar sampling grid on C+, the five fields of ``--grid``.

    Moduli run geometrically over ``10**log10_r_min .. 10**log10_r_max``;
    arguments stay ``theta_margin`` away from +-pi/2.
    """

    log10_r_min: float
    log10_r_max: float
    num_r: int
    theta_margin: float
    num_theta: int

    def radii(self) -> np.ndarray:
        return np.logspace(self.log10_r_min, self.log10_r_max, self.num_r)

    def angles(self) -> np.ndarray:
        half = math.pi / 2 - self.theta_margin
        return np.linspace(-half, half, self.num_theta)


#: the 7 x 9 grid of ``kernel sweep`` and the verify suites
SWEEP_GRID = GridSpec(log10_r_min=-3, log10_r_max=3, num_r=7, theta_margin=0.05, num_theta=9)


def grid_rows(n: int, grid: GridSpec):
    """Yield (z, grid angle, K_n(z, z), lower, upper) over a log-polar grid.

    |z| K_n(z, z) depends on arg z alone, so the grid's angles take one
    diagonal call at unit modulus and each radius r divides it by r.  A grid
    point whose K_n(z, z) overflows raises ValueError.
    """
    radii, angles = grid.radii(), grid.angles()
    if not (len(radii) and len(angles)):
        return
    points = np.array([complex(math.cos(t), math.sin(t)) for t in angles])
    unit = kernel.kernel_diag(n, points).tolist()
    # Python floats, whose quotient overflows to inf without a numpy warning
    for r in radii.tolist():
        for t, unit_diag in zip(angles, unit):
            z = complex(r * math.cos(t), r * math.sin(t))
            diag = unit_diag / r
            if math.isinf(diag):
                raise ValueError(f"K_{n}(z, z) overflows at grid point z = {z}")
            yield (z, t, diag, *kernel.norm_bounds(n, z))


# ---------------------------------------------------------------------------
# suites: each takes the order and its inputs and yields (residual, case)


def _samples(seed: int, count: int, level: int) -> list[expfamily.ExpPoly]:
    """e^{-t} followed by seeded samples at ``level``, ``count`` in all."""
    rng = np.random.default_rng(seed)
    samples = [expfamily.ExpPoly.exponential(1.0)]
    while len(samples) < count:
        samples.append(expfamily.sample_exppoly(rng, level=level))
    return samples[:count]


def _paley_wiener(n, seed, samples):
    """exact time norm vs boundary-quadrature norm on random samples"""
    for i, f in enumerate(_samples(seed, samples, n)):
        report = freqspace.hn_norm(expfamily.laplace(f), n)
        res = report.residual
        yield res, {"sample": i, "terms": f.to_triples(), "residual": res, **report.to_dict()}


def _inner_product(n, seed, samples):
    """weighted inner product vs derivative form, exact algebra"""
    fs = _samples(seed, samples, n)
    for i, f in enumerate(fs):
        g = fs[(i + 1) % len(fs)]
        lhs = expfamily.inner_product_n(f, g, n)
        rhs = expfamily.inner_product_n(f.times_power(n).derivative(n),
                                        g.times_power(n).derivative(n), 0)
        res = abs(lhs - rhs) / max(abs(lhs), 1e-30)
        yield res, {"sample": i, "terms": f.to_triples(), "residual": res,
                    "lhs_re": lhs.real, "lhs_im": lhs.imag}


def _bounds(n, grid):
    """kernel-norm sandwich on a log-polar grid"""
    for z, t, diag, lo, hi in grid_rows(n, grid):
        nrm = math.sqrt(diag)
        violation = max(lo - nrm, nrm - hi)
        yield violation, {"abs_z": abs(z), "arg_z": t, "norm": nrm,
                          "lower": lo, "upper": hi, "violation": violation}


def _reproduce(n, seed, samples):
    """reproducing identity via time-side quadrature"""
    rng = np.random.default_rng(seed)
    for i in range(samples):
        f = expfamily.sample_exppoly(rng, level=n)
        w = complex(rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0))
        res = kernel.reproduce_check(n, f, w)
        scaled = res / (1.0 + abs(expfamily.laplace(f)(w)))
        yield scaled, {"sample": i, "terms": f.to_triples(), "w": str(w), "residual": scaled}


def _cayley(n, seed, samples):
    """disc-transfer norm equality"""
    rng = np.random.default_rng(seed)
    for i in range(samples):
        F = expfamily.laplace(expfamily.sample_exppoly(rng, max_terms=3, max_power=2, level=1))
        lhs, rhs, res = _cayley_module.norm_equality_check(F)
        yield res, {"sample": i, "lhs": lhs, "rhs": rhs, "residual": res}


def _hardy_ineq(n, seed, samples):
    """iterated-integral inequality on positive samples"""
    rng = np.random.default_rng(seed)
    for i in range(samples):
        # positive function: positive coefficients, real decay rates
        terms = tuple(
            (float(rng.uniform(0.1, 2.0)), int(rng.integers(0, 3)), float(rng.uniform(0.3, 3.0)))
            for _ in range(int(rng.integers(1, 4)))
        )
        phi = expfamily.ExpPoly(terms)
        lhs_fn = timespace.w_minus_exp(phi, n)
        lhs = (lhs_fn * lhs_fn).integral().real
        weighted = phi.times_power(n)
        rhs = timespace.hardy_constant(n) ** 2 * (weighted * weighted).integral().real
        violation = lhs - rhs
        yield violation, {"sample": i, "lhs": lhs, "rhs": rhs, "violation": violation}


#: each suite (its docstring is its help), the inputs it reads besides the
#: order (the keywords of :func:`run` it passes on, and the options of
#: ``hsob verify <suite>``), the least order it runs at, its default
#: tolerance, and the floor of its largest residual: 0 for the nonnegative
#: residuals, -inf for the signed violations of an inequality
SUITES = {
    "paley-wiener": (_paley_wiener, ("seed", "samples"), 0, 1e-6, 0.0),
    "inner-product": (_inner_product, ("seed", "samples"), 0, 1e-9, 0.0),
    "bounds": (_bounds, ("grid",), 1, 0.0, -math.inf),
    "reproduce": (_reproduce, ("seed", "samples"), 1, 1e-6, 0.0),
    "cayley": (_cayley, ("seed", "samples"), 0, 1e-7, 0.0),
    "hardy-ineq": (_hardy_ineq, ("seed", "samples"), 1, 0.0, -math.inf),
}


def run(suite: str, n: int = 0, *, seed: int | None = None, samples: int | None = None,
        grid: GridSpec | None = None, tol: float | None = None) -> dict:
    """Run one suite and return its report.

    The suite runs at order max(n, its least order) on the inputs ``SUITES``
    names for it: ``samples`` samples drawn from ``seed`` (defaults 20 and 0),
    or for ``bounds`` the points of ``grid`` (default ``SWEEP_GRID``).  An
    input the suite does not read is refused with a ``ValueError``.  The
    suite passes when it checked at least one case and its largest residual
    is at most ``tol`` (the suite's default when None).  A quadrature failure
    raises :class:`hsob.QuadratureError`; an n outside 0..16 is refused.
    """
    _check_order(n)
    check, inputs, min_n, default_tol, worst = SUITES[suite]
    given = {name: value for name, value in (("seed", seed), ("samples", samples), ("grid", grid))
             if value is not None}
    unread = [name for name in given if name not in inputs]
    if unread:
        raise ValueError(f"suite {suite} does not read {' or '.join(unread)}")
    given = {"seed": 0, "samples": 20, "grid": SWEEP_GRID, **given}
    tol = default_tol if tol is None else tol
    n = max(n, min_n)
    cases = []
    for residual, case in check(n, **{name: given[name] for name in inputs}):
        worst = max(worst, residual)
        cases.append(case)
    # a suite that checked nothing has shown nothing
    passed = bool(cases) and worst <= tol
    return {
        "suite": suite,
        "n": n,
        # 0 for bounds, which draws no samples
        "seed": given["seed"],
        "samples": len(cases),
        "tolerance": tol,
        "max_residual": worst if cases else None,
        "pass": passed,
        "cases": cases,
    }
