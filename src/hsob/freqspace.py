"""Frequency-domain norms on the right half-plane and the Laplace isometry.

The order-n space collects analytic F with z^k F^(k) square-integrable on the
imaginary axis for k = 0..n, normed by ||z^n F^(n)||_2.  For rational
combinations (Laplace images of exponential polynomials) the boundary values
are explicit, so the supremum over vertical lines is realised by the boundary
integral and never searched.

Three independent routes to the same norm are reported side by side:

* ``norm_exact``    -- the exact weighted inner product in the time algebra,
* ``norm_boundary`` -- imaginary-axis quadrature of |z^n F^(n)|^2,
* ``norm_time``     -- half-line quadrature of |t^n f^(n)|^2.

Their agreement is the working form of the extended Paley-Wiener isometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, gamma

import numpy as np

from .expfamily import ExpPoly, RationalComb, inner_product_n, laplace
from .quadrature import DEFAULT_CONFIG, QuadConfig, integrate_halfline

__all__ = [
    "h2_norm",
    "HnNormReport",
    "hn_norm",
    "laplace_derivative_identity_check",
    "paley_wiener_residual",
    "point_bound_check",
]


def h2_norm(F, decay_scale: float | None = None, cfg: QuadConfig = DEFAULT_CONFIG) -> float:
    """Boundary norm (1/2pi int_R |F(it)|^2 dt)^(1/2).

    Accepts a RationalComb or any callable defined on the imaginary axis with
    square-integrable boundary values; the two half-axes are folded into one
    half-line integral.
    """
    if isinstance(F, RationalComb):
        if F.is_zero:
            return 0.0
        scale = F.pole_scale()
    else:
        scale = decay_scale if decay_scale is not None else 1.0

    def integrand(t):
        t = np.asarray(t, dtype=float)
        up = np.asarray(F(1j * t), dtype=complex)
        down = np.asarray(F(-1j * t), dtype=complex)
        return np.abs(up) ** 2 + np.abs(down) ** 2

    val = integrate_halfline(integrand, scale, cfg).value
    return float(np.sqrt(max(val.real, 0.0) / (2.0 * np.pi)))


@dataclass(frozen=True)
class HnNormReport:
    """One norm, three routes, and their worst pairwise disagreement."""

    n: int
    norm_exact: float
    norm_boundary: float
    norm_time: float

    @property
    def paley_wiener_residual(self) -> float:
        """Relative gap |norm_time - norm_boundary| / norm_time between the two
        quadrature routes of the isometry; the absolute gap when norm_time is 0."""
        if self.norm_time == 0.0:
            return float(abs(self.norm_boundary))
        return float(abs(self.norm_time - self.norm_boundary) / self.norm_time)

    @property
    def max_pairwise_rel_err(self) -> float:
        vals = (self.norm_exact, self.norm_boundary, self.norm_time)
        scale = max(max(vals), 1e-300)
        return float((max(vals) - min(vals)) / scale)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "norm_exact": self.norm_exact,
            "norm_boundary": self.norm_boundary,
            "norm_time": self.norm_time,
            "max_pairwise_rel_err": self.max_pairwise_rel_err,
        }


def hn_norm(F: RationalComb, n: int, cfg: QuadConfig = DEFAULT_CONFIG) -> HnNormReport:
    """Order-n norm of a rational combination by all three routes.

    Exact derivatives are available in closed form on both sides of the
    transform, so no numerical differentiation is ever performed.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if F.is_zero:
        return HnNormReport(n, 0.0, 0.0, 0.0)
    f = F.inverse_laplace()

    exact = float(np.sqrt(max(inner_product_n(f, f, n).real, 0.0)))

    Fn = F.derivative(n)
    pole_scale = F.pole_scale()

    def boundary_integrand(t):
        t = np.asarray(t, dtype=float)
        up = np.asarray(Fn(1j * t), dtype=complex)
        down = np.asarray(Fn(-1j * t), dtype=complex)
        return t ** (2 * n) * (np.abs(up) ** 2 + np.abs(down) ** 2)

    bval = integrate_halfline(boundary_integrand, pole_scale, cfg).value
    boundary = float(np.sqrt(max(bval.real, 0.0) / (2.0 * np.pi)))

    fn = f.derivative(n)

    def time_integrand(t):
        t = np.asarray(t, dtype=float)
        return t ** (2 * n) * np.abs(np.asarray(fn(t), dtype=complex)) ** 2

    tval = integrate_halfline(time_integrand, 0.5 * f.decay_scale(), cfg).value
    time = float(np.sqrt(max(tval.real, 0.0)))

    return HnNormReport(n, exact, boundary, time)


def laplace_derivative_identity_check(f: ExpPoly, n: int, k: int, z: complex) -> float:
    """Residual of the two derivative-exchange identities at a point of C+.

    Forward:  (-1)^k z^k (Lf)^(k)(z) = sum_j binom(k,j) (k!/j!) L(t^j f^(j))(z).
    Inverted: (-1)^k L(t^k f^(k))(z) = sum_j binom(k,j) (k!/j!) z^j (Lf)^(j)(z).

    Every side is assembled from exact term algebra and only evaluated at z,
    so the residuals sit at rounding level.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if not complex(z).real > 0:
        raise ValueError("z must lie in the right half-plane")
    F = laplace(f)

    lhs_fwd = (-1) ** k * z**k * F.derivative(k)(z)
    rhs_fwd = sum(
        comb(k, j) * factorial(k) // factorial(j) * laplace(f.derivative(j).times_power(j))(z)
        for j in range(k + 1)
    )

    lhs_inv = (-1) ** k * laplace(f.derivative(k).times_power(k))(z)
    rhs_inv = sum(
        comb(k, j) * factorial(k) // factorial(j) * z**j * F.derivative(j)(z)
        for j in range(k + 1)
    )
    return float(max(abs(lhs_fwd - rhs_fwd), abs(lhs_inv - rhs_inv)))


def paley_wiener_residual(f: ExpPoly, n: int, cfg: QuadConfig = DEFAULT_CONFIG) -> float:
    """:attr:`HnNormReport.paley_wiener_residual` of the transform of f."""
    return hn_norm(laplace(f), n, cfg).paley_wiener_residual


def point_bound_check(F: RationalComb, n: int, z: complex, cfg: QuadConfig = DEFAULT_CONFIG) -> float:
    """Margin pi ||F||^2_(n) / (Gamma(n)^2 n |z|) - |F(z)|^2, nonnegative on success."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not complex(z).real > 0:
        raise ValueError("z must lie in the right half-plane")
    f = F.inverse_laplace()
    norm_sq = inner_product_n(f, f, n).real
    bound = np.pi * norm_sq / (gamma(n) ** 2 * n * abs(z))
    return float(bound - abs(F(z)) ** 2)
