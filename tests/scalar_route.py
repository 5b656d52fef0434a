"""The per-point route of the symbol analysis, kept as the tests' oracle.

The library evaluates symbols and their Taylor jets on point arrays, all the
passes of a sampled supremum in three array calls.  This module is the
straightforward reading it replaced: a tuple-based :class:`Jet` of Python
complex numbers, evaluation of the AST one point at a time with an exception
at each branch cut or vanishing denominator, and supremum sweeps that try one
point of the axis and the real ray after the other.  It shares nothing with
the library but the AST node classes, the report type and the estimates'
policy constants, so agreement between the two is evidence for both.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import factorial

import numpy as np

from hsob.symbols import (
    ANGULAR_CAP,
    AXIS_RE,
    DIVERGE_CAP,
    REFINE_PASSES,
    REFINE_POINTS,
    SWEEP_LOG10_RANGE,
    SWEEP_PER_DECADE,
    Add,
    BranchViolation,
    Const,
    Div,
    Log1p,
    Mul,
    Pow,
    Sub,
    SymbolReport,
    Var,
)


class JetDomainError(ArithmeticError):
    """Division by a zero constant term, or a power/log branch violation."""


@dataclass(frozen=True)
class Jet:
    """Taylor coefficients (c_0, ..., c_order) at one base point."""

    coeffs: tuple[complex, ...]

    @staticmethod
    def variable(z: complex, order: int) -> "Jet":
        coeffs = [complex(z)] + [0j] * order
        if order >= 1:
            coeffs[1] = 1.0 + 0j
        return Jet(tuple(coeffs))

    @staticmethod
    def constant(value: complex, order: int) -> "Jet":
        return Jet((complex(value),) + (0j,) * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self) -> complex:
        return self.coeffs[0]

    def derivative(self, k: int) -> complex:
        return factorial(k) * self.coeffs[k]

    def __add__(self, other):
        return Jet(tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return Jet(tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        n = self.order
        out = [0j] * (n + 1)
        for i, x in enumerate(self.coeffs):
            if x == 0:
                continue
            for j in range(n + 1 - i):
                out[i + j] += x * other.coeffs[j]
        return Jet(tuple(out))

    def __truediv__(self, other):
        if other.coeffs[0] == 0:
            raise JetDomainError("division by a jet with zero constant term")
        n = self.order
        out = [0j] * (n + 1)
        for k in range(n + 1):
            acc = self.coeffs[k]
            for j in range(1, k + 1):
                acc -= other.coeffs[j] * out[k - j]
            out[k] = acc / other.coeffs[0]
        return Jet(tuple(out))

    def power(self, alpha: float) -> "Jet":
        g0 = self.coeffs[0]
        if g0 == 0 or (g0.real <= 0 and g0.imag == 0):
            raise JetDomainError("power base touches the principal branch cut")
        n = self.order
        out = [0j] * (n + 1)
        out[0] = g0**alpha
        for k in range(1, n + 1):
            acc = 0j
            for j in range(1, k + 1):
                acc += ((alpha + 1) * j - k) * self.coeffs[j] * out[k - j]
            out[k] = acc / (k * g0)
        return Jet(tuple(out))

    def log1p(self) -> "Jet":
        q0 = 1.0 + self.coeffs[0]
        if q0 == 0 or (q0.real <= 0 and q0.imag == 0):
            raise JetDomainError("log1p argument touches the principal branch cut")
        n = self.order
        out = [0j] * (n + 1)
        out[0] = cmath.log(q0)
        for k in range(1, n + 1):
            acc = k * self.coeffs[k]
            for j in range(1, k):
                acc -= j * out[j] * self.coeffs[k - j]
            out[k] = acc / (k * q0)
        return Jet(tuple(out))


def scalar_eval(e, z: complex) -> complex:
    """phi(z) at one point; raises at a branch cut or a vanishing denominator."""
    if isinstance(e, Var):
        return z
    if isinstance(e, Const):
        return complex(e.value)
    if isinstance(e, Add):
        return scalar_eval(e.left, z) + scalar_eval(e.right, z)
    if isinstance(e, Sub):
        return scalar_eval(e.left, z) - scalar_eval(e.right, z)
    if isinstance(e, Mul):
        return scalar_eval(e.left, z) * scalar_eval(e.right, z)
    if isinstance(e, Div):
        denom = scalar_eval(e.right, z)
        if denom == 0:
            raise ZeroDivisionError("symbol denominator vanished")
        return scalar_eval(e.left, z) / denom
    if isinstance(e, Pow):
        b = scalar_eval(e.base_expr, z)
        if b == 0 or (b.real <= 0 and b.imag == 0):
            raise BranchViolation("power base on the principal branch cut")
        return b**e.alpha
    if isinstance(e, Log1p):
        a = 1.0 + scalar_eval(e.arg, z)
        if a == 0 or (a.real <= 0 and a.imag == 0):
            raise BranchViolation("log1p argument on the principal branch cut")
        return cmath.log(a)
    raise TypeError(f"unknown node {type(e).__name__}")


def scalar_jet(e, z: complex, order: int) -> Jet:
    """The order-``order`` jet of phi at one point, node by node."""
    if isinstance(e, Var):
        return Jet.variable(z, order)
    if isinstance(e, Const):
        return Jet.constant(e.value, order)
    if isinstance(e, Add):
        return scalar_jet(e.left, z, order) + scalar_jet(e.right, z, order)
    if isinstance(e, Sub):
        return scalar_jet(e.left, z, order) - scalar_jet(e.right, z, order)
    if isinstance(e, Mul):
        return scalar_jet(e.left, z, order) * scalar_jet(e.right, z, order)
    try:
        if isinstance(e, Div):
            return scalar_jet(e.left, z, order) / scalar_jet(e.right, z, order)
        if isinstance(e, Pow):
            return scalar_jet(e.base_expr, z, order).power(e.alpha)
        if isinstance(e, Log1p):
            return scalar_jet(e.arg, z, order).log1p()
    except JetDomainError as exc:
        raise (ZeroDivisionError if isinstance(e, Div) else BranchViolation)(str(exc)) from None
    raise TypeError(f"unknown node {type(e).__name__}")


def sweep_points():
    """The lower half of the imaginary axis, the upper half, the real ray."""
    lo, hi = SWEEP_LOG10_RANGE
    count = round((hi - lo) * SWEEP_PER_DECADE) + 1
    t = [10.0 ** (lo + (hi - lo) * j / (count - 1)) for j in range(count)]
    return ([complex(AXIS_RE, -y) for y in reversed(t)] + [complex(AXIS_RE, y) for y in t]
            + [complex(x, 0.0) for x in t])


def safe_ratio(fn, z) -> float:
    try:
        val = fn(z)
    except (BranchViolation, ZeroDivisionError, OverflowError):
        return math.nan
    if val is None or isinstance(val, complex):
        return math.nan
    return val


def supremum_estimate(fn, cap: float) -> float:
    """Running max of ``fn`` point by point over the sweep, then each
    refinement pass around the argmax; infinite past ``cap``."""
    best, best_z = -math.inf, 0j

    def sweep(points):
        nonlocal best, best_z
        for z in points:
            v = safe_ratio(fn, z)
            if not math.isnan(v) and v > best:
                best, best_z = v, z

    sweep(sweep_points())
    if best == -math.inf:
        return math.nan
    width = 1.0 / SWEEP_PER_DECADE
    for _ in range(REFINE_PASSES):
        sweep([best_z * s for s in np.logspace(-width, width, REFINE_POINTS).tolist()])
        width *= 2.0 / (REFINE_POINTS - 1)
    return math.inf if best > cap else best


def is_selfmap(e) -> bool:
    """Whether Re phi > 0 at every sweep point; a point that raises, or where
    phi is nan, violates."""
    for z in sweep_points():
        try:
            if not scalar_eval(e, z).real > 0:
                return False
        except (BranchViolation, ZeroDivisionError, OverflowError):
            return False
    return True


def angular_derivative(e) -> float:
    def ratio(z):
        denom = scalar_eval(e, z).real
        if denom <= 0:
            return math.nan
        return z.real / denom

    return supremum_estimate(ratio, ANGULAR_CAP)


def radial_sup(e) -> float:
    def ratio(z):
        denom = abs(scalar_eval(e, z))
        if denom == 0:
            return math.inf
        return abs(z) / denom

    return supremum_estimate(ratio, DIVERGE_CAP)


def nbc_suprema(e, n: int) -> list[float]:
    """A fresh order-k jet at every point for each k = 1..n."""
    out = []
    for k in range(1, n + 1):
        def ratio(z, k=k):
            jet = scalar_jet(e, z, k)
            phi = jet.value
            if phi == 0:
                return math.inf
            # |z|^k k! |c_k| / |phi|, as the array route forms it from
            # moduli; a ratio that overflows is a point to skip, as where phi does
            ratio = abs(z)**k * (factorial(k) * abs(jet.coeffs[k]) / abs(phi))
            return ratio if math.isfinite(ratio) else math.nan

        out.append(supremum_estimate(ratio, DIVERGE_CAP * factorial(k)))
    return out


def classify(e, n: int) -> SymbolReport:
    ok = is_selfmap(e)
    phi_inf = angular_derivative(e)
    rad = radial_sup(e)
    nbc = tuple(nbc_suprema(e, n)) if n >= 1 else ()

    verdict_h2 = "bounded" if math.isfinite(phi_inf) else "unbounded"
    if not ok:
        verdict_h2 = verdict_hn = "selfmap-unwitnessed"
    elif n >= 1:
        if math.isinf(rad):
            verdict_hn = "necessary-failed"
        elif math.isfinite(phi_inf) and all(math.isfinite(v) for v in nbc):
            verdict_hn = "sufficient-passed"
        else:
            verdict_hn = "inconclusive"
    else:
        verdict_hn = "sufficient-passed" if verdict_h2 == "bounded" else "necessary-failed"

    return SymbolReport(
        text=e.to_text(), n=n, selfmap_witnessed=ok, phi_prime_infinity=phi_inf,
        radial_sup=rad, nbc=nbc, verdict_H2=verdict_h2, verdict_Hn=verdict_hn,
        h2_norm=math.sqrt(phi_inf) if ok and math.isfinite(phi_inf) else None,
    )
