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

Their agreement is the working form of the extended Paley-Wiener isometry;
at n = 0 they are the plain Hardy-space norm.  The derivative-exchange
identities between z^k F^(k) and the transforms of t^j f^(j) are checked at
points of C+ from exact term algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expfamily import ExpPoly, RationalComb, inner_product_n, laplace
from .kernel import _require_halfplane
from .quadrature import integrate_halfline
from .specfun import cn_coefficient

__all__ = [
    "HnNormReport",
    "hn_norm",
    "laplace_derivative_identity_check",
]


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


def hn_norm(F: RationalComb, n: int) -> HnNormReport:
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
        # both half-axes in one evaluation
        both = np.abs(np.asarray(Fn(np.concatenate((1j * t, -1j * t))), dtype=complex)) ** 2
        return t ** (2 * n) * (both[:t.size] + both[t.size:])

    bval = integrate_halfline(boundary_integrand, pole_scale).value
    boundary = float(np.sqrt(max(bval.real, 0.0) / (2.0 * np.pi)))

    fn = f.derivative(n)

    def time_integrand(t):
        t = np.asarray(t, dtype=float)
        return t ** (2 * n) * np.abs(np.asarray(fn(t), dtype=complex)) ** 2

    tval = integrate_halfline(time_integrand, 0.5 * f.decay_scale()).value
    time = float(np.sqrt(max(tval.real, 0.0)))

    return HnNormReport(n, exact, boundary, time)


def laplace_derivative_identity_check(f: ExpPoly, n: int, k: int, z: complex) -> float:
    """Residual of the two derivative-exchange identities at a point of C+.

    Forward:  (-1)^k z^k (Lf)^(k)(z) = sum_j c_{k,j} L(t^j f^(j))(z).
    Inverted: (-1)^k L(t^k f^(k))(z) = sum_j c_{k,j} z^j (Lf)^(j)(z),

    with c_{k,j} = binom(k,j) k!/j! (:func:`hsob.specfun.cn_coefficient`).

    Every side is assembled from exact term algebra and only evaluated at z,
    so the residuals sit at rounding level.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    z = _require_halfplane(z, "z")
    F = laplace(f)

    lhs_fwd = (-1) ** k * z**k * F.derivative(k)(z)
    rhs_fwd = sum(
        cn_coefficient(k, j) * laplace(f.derivative(j).times_power(j))(z) for j in range(k + 1)
    )

    lhs_inv = (-1) ** k * laplace(f.derivative(k).times_power(k))(z)
    rhs_inv = sum(cn_coefficient(k, j) * z**j * F.derivative(j)(z) for j in range(k + 1))
    return float(max(abs(lhs_fwd - rhs_fwd), abs(lhs_inv - rhs_inv)))

