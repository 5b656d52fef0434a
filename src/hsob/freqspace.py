"""Frequency-domain norms on the right half-plane and the Laplace isometry.

The order-n space collects analytic F with z^k F^(k) square-integrable on the
imaginary axis for k = 0..n, normed by ||z^n F^(n)||_2.  For rational
combinations (Laplace images of exponential polynomials) the boundary values
are explicit, so the supremum over vertical lines is realised by the boundary
integral and never searched.

Two independent routes to the same norm are reported side by side:

* ``norm_exact``    -- the exact weighted inner product in the time algebra,
* ``norm_boundary`` -- imaginary-axis quadrature of |z^n F^(n)|^2.

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
    """One norm by its two routes, and their disagreement."""

    n: int
    norm_exact: float
    norm_boundary: float

    @property
    def residual(self) -> float:
        """Relative gap |norm_exact - norm_boundary| / norm_exact between the
        time and frequency sides of the isometry; |norm_boundary| when
        norm_exact is 0."""
        if self.norm_exact == 0.0:
            return float(abs(self.norm_boundary))
        return float(abs(self.norm_exact - self.norm_boundary) / self.norm_exact)

    def to_dict(self) -> dict:
        return {"n": self.n, "norm_exact": self.norm_exact, "norm_boundary": self.norm_boundary}


def hn_norm(F: RationalComb, n: int) -> HnNormReport:
    """Order-n norm of a rational combination by both routes.

    Exact derivatives are available in closed form on both sides of the
    transform, so no numerical differentiation is ever performed.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if F.is_zero:
        return HnNormReport(n, 0.0, 0.0)
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
    return HnNormReport(n, exact, boundary)


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

