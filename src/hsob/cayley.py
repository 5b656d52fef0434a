"""Transfer between the right half-plane and the unit disc.

The Cayley map gamma(lam) = (1+lam)/(1-lam) carries the disc onto C+.  A
half-plane function F pulls back to F_D(lam) = F(gamma(lam)); membership of F
in the order-1 half-plane space is equivalent to F_D in (1-lam)H2(D) together
with F_D' in (1+lam)^{-1}H2(D), with the norm equality

    sqrt(2) ||F||_(1) = ||(1+lam) F_D'(lam)||_{H2(D)}.

Disc norms are computed by trapezoid sums over circles (spectrally accurate
for these analytic integrands) at radii approaching 1, with a short Richardson
extrapolation in 1-r standing in for the monotone supremum over radii.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expfamily import RationalComb, inner_product_n

__all__ = [
    "cayley",
    "cayley_inverse",
    "DiscFunction",
    "disc_h2_norm",
    "norm_equality_check",
    "disc_membership_report",
]

#: trapezoid nodes on each circle of :func:`disc_h2_norm`
DISC_NODES = 4096
#: the circles have radii 1 - DISC_OFFSET * {1, 2, 4}
DISC_OFFSET = 1e-6


def cayley(lam: complex) -> complex:
    """gamma(lam) = (1+lam)/(1-lam), disc onto right half-plane."""
    lam = complex(lam)
    return (1.0 + lam) / (1.0 - lam)


def cayley_inverse(z: complex) -> complex:
    """gamma^{-1}(z) = (z-1)/(z+1), right half-plane onto disc."""
    z = complex(z)
    return (z - 1.0) / (z + 1.0)


@dataclass(frozen=True)
class DiscFunction:
    """The disc pullback F_D of a half-plane rational combination F."""

    F: RationalComb

    def __call__(self, lam):
        return self.F(_gamma(lam))

    def derivative(self, lam):
        """F_D'(lam) = F'(gamma(lam)) * 2/(1-lam)^2."""
        lam = np.asarray(lam, dtype=complex) if not np.isscalar(lam) else complex(lam)
        return self.F.derivative(1)(_gamma(lam)) * 2.0 / (1.0 - lam) ** 2

    def second_derivative(self, lam):
        """F_D''(lam) = 4 F''(gamma)/(1-lam)^4 + 4 F'(gamma)/(1-lam)^3."""
        lam = np.asarray(lam, dtype=complex) if not np.isscalar(lam) else complex(lam)
        g = _gamma(lam)
        return (
            4.0 * self.F.derivative(2)(g) / (1.0 - lam) ** 4
            + 4.0 * self.F.derivative(1)(g) / (1.0 - lam) ** 3
        )


def _gamma(lam):
    lam = np.asarray(lam, dtype=complex) if not np.isscalar(lam) else complex(lam)
    return (1.0 + lam) / (1.0 - lam)


def disc_h2_norm(g) -> float:
    """H2(D) norm of a callable by circle quadrature with a radial limit.

    Mean-square values over circles of radius 1 - DISC_OFFSET * {1, 2, 4} are
    combined by quadratic Richardson extrapolation toward r = 1; the mean over
    each circle is a trapezoid sum, exact up to spectral accuracy for analytic
    integrands (and exact outright for polynomials).
    """
    angles = 2.0 * np.pi * np.arange(DISC_NODES) / DISC_NODES
    unit = np.exp(1j * angles)

    def mean_square(r: float) -> float:
        vals = np.asarray(g(r * unit), dtype=complex)
        return float(np.mean(np.abs(vals) ** 2))

    s = DISC_OFFSET
    v1, v2, v4 = mean_square(1.0 - s), mean_square(1.0 - 2 * s), mean_square(1.0 - 4 * s)
    # quadratic in s through (s, 2s, 4s), evaluated at s = 0
    extrapolated = (8.0 * v1 - 6.0 * v2 + v4) / 3.0
    return float(np.sqrt(max(extrapolated, 0.0)))


def norm_equality_check(F: RationalComb) -> tuple[float, float, float]:
    """Both sides of sqrt(2) ||F||_(1) = ||(1+lam) F_D'||_{H2(D)} and their gap.

    The left side uses the exact inner-product route; the right side circle
    quadrature on the disc.
    """
    if F.is_zero:
        return (0.0, 0.0, 0.0)
    f = F.inverse_laplace()
    lhs = float(np.sqrt(2.0 * inner_product_n(f, f, 1).real))
    FD = DiscFunction(F)
    rhs = disc_h2_norm(lambda lam: (1.0 + lam) * FD.derivative(lam))
    return (lhs, rhs, abs(lhs - rhs))


def disc_membership_report(F: RationalComb) -> dict[str, float]:
    """Numeric evidence for the disc-side memberships at orders 1 and 2.

    Finite values of the three disc norms witness F_D in (1-lam)H2(D),
    F_D' in (1+lam)^{-1} H2(D) and (1+lam)^2 (1-lam) F_D'' in H2(D); the
    order-2 entry is a membership check only, no norm identity attached.
    """
    FD = DiscFunction(F)
    return {
        "quotient": disc_h2_norm(lambda lam: FD(lam) / (1.0 - lam)),
        "weighted_derivative": disc_h2_norm(lambda lam: (1.0 + lam) * FD.derivative(lam)),
        "weighted_second_derivative": disc_h2_norm(
            lambda lam: (1.0 + lam) ** 2 * (1.0 - lam) * FD.second_derivative(lam)
        ),
    }
