"""Transfer between the right half-plane and the unit disc.

The Cayley map gamma(lam) = (1+lam)/(1-lam) carries the disc onto C+.  A
half-plane function F pulls back to F_D(lam) = F(gamma(lam)); membership of F
in the order-1 half-plane space is equivalent to F_D in (1-lam)H2(D) together
with F_D' in (1+lam)^{-1}H2(D), with the norm equality

    sqrt(2) ||F||_(1) = ||(1+lam) F_D'(lam)||_{H2(D)}.

Disc norms are computed by trapezoid sums over circles at radii approaching 1,
with a short Richardson extrapolation in 1-r standing in for the monotone
supremum over radii.  The sums are sized from the poles.  A term
k!/(z+lam_j)^(k+1) of F pulls back to a pole of order k+1 at
-(1+lam_j)/(1-lam_j), outside the closed disc, so the function g being normed
is analytic on |lam| < 1/rho with rho = max_j |(1-lam_j)/(1+lam_j)| < 1, and
its Taylor coefficients are O(m^(p-1) rho^m) for p the highest pole order of
g.  An N-point trapezoid sum of |g|^2 on a circle of radius r <= 1 then
differs from the mean square by aliased products c_m conj(c_(m+N)) r^(2m+N),
of relative size O(rho^N N^(p-1)) (Trefethen and Weideman, SIAM Review 56,
2014).  N is the least power of two, at least 64, with rho^N N^(p-1) <= 2^-53,
capped at :data:`DISC_NODES`; poles near the circle get the capped rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .expfamily import RationalComb, inner_product_n
from .kernel import _require_halfplane

__all__ = [
    "cayley",
    "cayley_inverse",
    "DiscFunction",
    "disc_h2_norm",
    "norm_equality_check",
    "disc_membership_report",
]

#: trapezoid nodes on each circle of :func:`disc_h2_norm` for an opaque
#: callable, and the most that a rule sized from the poles takes
DISC_NODES = 4096
#: the fewest nodes of a rule sized from the poles
MIN_DISC_NODES = 64
#: the circles have radii 1 - DISC_OFFSET * {1, 2, 4}
DISC_OFFSET = 1e-6


def cayley(lam):
    """gamma(lam) = (1+lam)/(1-lam), disc onto right half-plane, at a point or
    elementwise on an array."""
    lam = complex(lam) if np.isscalar(lam) else np.asarray(lam, dtype=complex)
    return (1.0 + lam) / (1.0 - lam)


def cayley_inverse(z: complex) -> complex:
    """gamma^{-1}(z) = (z-1)/(z+1), from a finite point with Re z > 0 into the disc."""
    z = _require_halfplane(z, "z")
    return (z - 1.0) / (z + 1.0)


@dataclass(frozen=True)
class DiscFunction:
    """The disc pullback F_D of a half-plane rational combination F."""

    F: RationalComb

    def __call__(self, lam):
        return self.F(cayley(lam))

    def derivative(self, lam):
        """F_D'(lam) = F'(gamma(lam)) * 2/(1-lam)^2."""
        return self.F.derivative(1)(cayley(lam)) * 2.0 / (1.0 - lam) ** 2

    def second_derivative(self, lam):
        """F_D''(lam) = 4 F''(gamma)/(1-lam)^4 + 4 F'(gamma)/(1-lam)^3."""
        g = cayley(lam)
        return (
            4.0 * self.F.derivative(2)(g) / (1.0 - lam) ** 4
            + 4.0 * self.F.derivative(1)(g) / (1.0 - lam) ** 3
        )


#: node counts whose circles stay cached: the seven powers of two from
#: MIN_DISC_NODES to DISC_NODES that a sized rule takes, and one more
CIRCLE_CACHE_SIZE = 8


@lru_cache(maxsize=CIRCLE_CACHE_SIZE)
def _circle_points(nodes: int) -> np.ndarray:
    """The ``nodes`` trapezoid nodes on each of the three circles, one after
    another, built once per count.

    Every caller shares the array, so it is read-only.
    """
    angles = 2.0 * np.pi * np.arange(nodes) / nodes
    unit = np.exp(1j * angles)
    s = DISC_OFFSET
    points = np.concatenate([(1.0 - s) * unit, (1.0 - 2 * s) * unit, (1.0 - 4 * s) * unit])
    points.flags.writeable = False
    return points


def _sized_nodes(F: RationalComb, derivatives: int) -> int:
    """Trapezoid nodes for a disc norm of the ``derivatives``-th derivative of
    F_D (times factors analytic on the closed disc): the least power of two N,
    at least MIN_DISC_NODES, with rho^N N^(p-1) <= 2^-53, capped at DISC_NODES.

    rho is the largest |(1-lam_j)/(1+lam_j)| over the terms of F (0 when F_D
    has no pole), and p = k_max + 1 + derivatives the highest pole order.
    """
    rho = max((abs((1.0 - lam) / (1.0 + lam)) for _, _, lam in F.terms), default=0.0)
    p = max((k for _, k, _ in F.terms), default=0) + 1 + derivatives
    nodes = MIN_DISC_NODES
    while nodes < DISC_NODES and rho**nodes * nodes ** (p - 1) > 2.0**-53:
        nodes *= 2
    return nodes


def disc_h2_norm(g, nodes: int = DISC_NODES) -> float:
    """H2(D) norm of a callable by circle quadrature with a radial limit.

    Mean-square values over circles of radius 1 - DISC_OFFSET * {1, 2, 4} are
    combined by quadratic Richardson extrapolation toward r = 1; the mean over
    each circle is a trapezoid sum of ``nodes`` points, and ``g`` is called
    once, on the points of all three circles.  For g analytic on
    |lam| < 1/rho with poles of order at most p there, the sum's aliasing error
    is O(rho^nodes nodes^(p-1)) relative (exact outright for polynomials of
    degree below ``nodes``); :func:`norm_equality_check` and
    :func:`disc_membership_report` size ``nodes`` from the poles so that this
    is below 2^-53.  An opaque callable gets DISC_NODES.
    """
    if nodes < 1:
        raise ValueError("a circle rule needs at least one node")
    points = _circle_points(nodes)
    squares = np.abs(np.asarray(g(points), dtype=complex)) ** 2
    v1, v2, v4 = (float(np.mean(squares[i * nodes:(i + 1) * nodes])) for i in range(3))
    # quadratic in s through (s, 2s, 4s), evaluated at s = 0
    extrapolated = (8.0 * v1 - 6.0 * v2 + v4) / 3.0
    return float(np.sqrt(max(extrapolated, 0.0)))


def norm_equality_check(F: RationalComb) -> tuple[float, float, float]:
    """Both sides of sqrt(2) ||F||_(1) = ||(1+lam) F_D'||_{H2(D)} and their gap.

    The left side uses the exact inner-product route; the right side circle
    quadrature on the disc, sized from the poles of (1+lam) F_D'.
    """
    if F.is_zero:
        return (0.0, 0.0, 0.0)
    f = F.inverse_laplace()
    lhs = float(np.sqrt(2.0 * inner_product_n(f, f, 1).real))
    FD = DiscFunction(F)
    rhs = disc_h2_norm(lambda lam: (1.0 + lam) * FD.derivative(lam), _sized_nodes(F, 1))
    return (lhs, rhs, abs(lhs - rhs))


def disc_membership_report(F: RationalComb) -> dict[str, float]:
    """Numeric evidence for the disc-side memberships at orders 1 and 2.

    Finite values of the three disc norms witness F_D in (1-lam)H2(D),
    F_D' in (1+lam)^{-1} H2(D) and (1+lam)^2 (1-lam) F_D'' in H2(D); the
    order-2 entry is a membership check only, no norm identity attached.
    Each circle rule is sized from the poles of its integrand.
    """
    FD = DiscFunction(F)
    return {
        "quotient": disc_h2_norm(lambda lam: FD(lam) / (1.0 - lam), _sized_nodes(F, 0)),
        "weighted_derivative": disc_h2_norm(
            lambda lam: (1.0 + lam) * FD.derivative(lam), _sized_nodes(F, 1)
        ),
        "weighted_second_derivative": disc_h2_norm(
            lambda lam: (1.0 + lam) ** 2 * (1.0 - lam) * FD.second_derivative(lam),
            _sized_nodes(F, 2),
        ),
    }
