"""Independent routes the tests check the library against.

Nothing here is needed by a command, a demo or the benchmark; each function
is a second computation of a quantity of the paper that checks a production
route:

* the exchange matrices built from :func:`hsob.specfun.cn_coefficient`, the
  coefficients of ``laplace_derivative_identity_check``;
* the time function g_{w,n} from its defining double integral, against the
  reproducing kernel and the weighted derivative ``exp_series_remainder``;
* W^-n of a callable by quadrature, against ``w_minus_exp``;
* the pointwise bounds implied by the order-n norms ``norm_n`` and
  ``inner_product_n``;
* the angular factor I(theta) in closed form, against the quadrature engine;
* the kernel's closed form with one ``Q_m`` sum per argument order, against
  the production form that takes both orders in one array pass, bit for bit;
* the Laguerre polynomials (Rodrigues' formula, against ``ExpPoly``
  differentiation) and the Legendre polynomials (whose zeros are the nodes of
  the quadrature engine's Gauss-Legendre rules).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gamma, pi

import numpy as np

from hsob import (
    ExpPoly,
    QuadConfig,
    RationalComb,
    exp_series_remainder,
    inner_product_n,
    integrate_halfline,
    norm_n,
    w_minus_exp,
)
from hsob.kernel import _modulus, _q_sum
from hsob.quadrature import DEFAULT_CONFIG
from hsob.specfun import cn_coefficient


# ---------------------------------------------------------------------------
# Orthogonal polynomials by their three-term recurrences


def laguerre(n: int, x):
    """Laguerre polynomial L_n(x) via (k+1)L_{k+1} = (2k+1-x)L_k - k L_{k-1}."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        return 1.0 + 0.0 * x
    prev, cur = 1.0 + 0.0 * x, 1.0 - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
    return cur


def legendre(n: int, x):
    """Legendre polynomial P_n(x) via (k+1)P_{k+1} = (2k+1)x P_k - k P_{k-1}."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        return 1.0 + 0.0 * x
    prev, cur = 1.0 + 0.0 * x, x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return cur


def legendre_leading_coefficient(n: int) -> Fraction:
    """Exact leading coefficient (2n)! / (2^n (n!)^2) of P_n."""
    return Fraction(factorial(2 * n), 2**n * factorial(n) ** 2)


# ---------------------------------------------------------------------------
# Derivative-exchange matrices


@dataclass(frozen=True)
class CnMatrix:
    """Lower-triangular (n+1)-square integer matrix with entries binom(i,j) i!/j!.

    These coefficients exchange n-fold differentiation with multiplication by
    t^n: (t^n f)^(n) = sum_k c_{n,k} t^k f^(k).  The inverse simply alternates
    signs, and the row sums 1, 2, 7, 34, 209, ... count partial permutation
    matchings (OEIS A002720).
    """

    n: int
    entries: tuple[tuple[int, ...], ...]

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.entries)

    def multiply(self, other: "CnMatrix") -> "CnMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        m = self.n + 1
        prod = tuple(
            tuple(sum(self.entries[i][k] * other.entries[k][j] for k in range(m)) for j in range(m))
            for i in range(m)
        )
        return CnMatrix(self.n, prod)


def cn_matrix(n: int) -> CnMatrix:
    if n < 0:
        raise ValueError("n must be nonnegative")
    return CnMatrix(n, tuple(tuple(cn_coefficient(i, j) for j in range(n + 1))
                             for i in range(n + 1)))


def cn_inverse(n: int) -> CnMatrix:
    if n < 0:
        raise ValueError("n must be nonnegative")
    return CnMatrix(
        n,
        tuple(
            tuple((-1) ** (i + j) * cn_coefficient(i, j) for j in range(n + 1))
            for i in range(n + 1)
        ),
    )


# ---------------------------------------------------------------------------
# Repeated integration and the kernel-generating time function


def w_minus(f, n: int, t: float, decay_scale: float | None = None,
            cfg: QuadConfig = DEFAULT_CONFIG) -> complex:
    """Value of (W^-n f)(t): exact for ExpPoly, quadrature for callables.

    Callables must decay at least algebraically of order > 1 on the given
    scale; insufficient decay shows up as quadrature non-convergence.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if isinstance(f, ExpPoly):
        return complex(w_minus_exp(f, n)(t))
    scale = decay_scale if decay_scale is not None else 1.0

    def integrand(u):
        u = np.asarray(u, dtype=float)
        return u ** (n - 1) * np.asarray(f(t + u), dtype=complex) / factorial(n - 1)

    return complex(integrate_halfline(integrand, scale, cfg).value)


@dataclass(frozen=True)
class GFunction:
    """The kernel-generating time function g_{w,n}, Re w > 0, n >= 1.

    g_{w,n} = W^-n applied to t^-n * int_0^1 (1-x)^(n-1)/(n-1)! exp(-t x w) dx.
    Satisfies ||g_{w,n}||_(n) <= 2 log 2 / sqrt(Re w) and Laplace-transforms to
    the reproducing kernel at conj(w).
    """

    w: complex
    n: int

    def __post_init__(self):
        if not complex(self.w).real > 0:
            raise ValueError("w must lie in the right half-plane")
        if self.n < 1:
            raise ValueError("n must be at least 1")

    def weighted_derivative(self, t):
        """t^n g^(n)(t) from the closed form (-1)^n E_n(w t); stable for n <= 8."""
        return (-1) ** self.n * exp_series_remainder(self.n, self.w * np.asarray(t))

    def __call__(self, t: float, cfg: QuadConfig = DEFAULT_CONFIG) -> complex:
        """g_{w,n}(t) from the defining double integral.

        The inner unit-interval integral is the exact E_n form; the outer
        integral over (t, inf) is quadrature with algebraic decay.
        """
        if t <= 0:
            raise ValueError("t must be positive")
        n, w = self.n, self.w

        def integrand(u):
            u = np.asarray(u, dtype=float)
            s = t + u
            return u ** (n - 1) / s**n * exp_series_remainder(n, s * w) / factorial(n - 1)

        scale = max(t, 1.0, 1.0 / abs(w))
        return complex(integrate_halfline(integrand, scale, cfg).value)

    def norm(self, cfg: QuadConfig = DEFAULT_CONFIG) -> float:
        """||g_{w,n}||_(n) via the single-integral form of the weighted derivative."""

        def integrand(t):
            v = exp_series_remainder(self.n, self.w * np.asarray(t))
            return np.abs(v) ** 2

        scale = 1.0 / self.w.real
        val = integrate_halfline(integrand, scale, cfg).value
        return float(np.sqrt(max(val.real, 0.0)))


# ---------------------------------------------------------------------------
# Pointwise bounds from the order-n norms


def point_estimate_constant(n: int, k: int) -> float:
    """Constant C with |f^(k)(t)| <= C t^(-k-1/2) ||f||_(n), 0 <= k <= n-1.

    Cauchy-Schwarz on the W^-(n-k) representation of f^(k) gives
    C = sqrt(B(2(n-k)-1, 2k+1)) / (n-k-1)!, with B the Beta function at
    integer arguments.
    """
    if not 0 <= k <= n - 1:
        raise ValueError("need 0 <= k <= n-1")
    a, b = 2 * (n - k) - 1, 2 * k + 1
    beta = Fraction(factorial(a - 1) * factorial(b - 1), factorial(a + b - 1))
    return float(np.sqrt(float(beta))) / factorial(n - k - 1)


def point_estimate_check(f: ExpPoly, n: int, k: int, t: float) -> float:
    """Margin C t^(-k-1/2) ||f||_(n) - |f^(k)(t)|, nonnegative when the bound holds."""
    if t <= 0:
        raise ValueError("t must be positive")
    bound = point_estimate_constant(n, k) * t ** (-k - 0.5) * norm_n(f, n)
    return float(bound - abs(f.derivative(k)(t)))


def point_bound_check(F: RationalComb, n: int, z: complex) -> float:
    """Margin pi ||F||^2_(n) / (Gamma(n)^2 n |z|) - |F(z)|^2, nonnegative on success."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not complex(z).real > 0:
        raise ValueError("z must lie in the right half-plane")
    f = F.inverse_laplace()
    norm_sq = inner_product_n(f, f, n).real
    bound = pi * norm_sq / (gamma(n) ** 2 * n * abs(z))
    return float(bound - abs(F(z)) ** 2)


# ---------------------------------------------------------------------------
# The angular factor of the kernel diagonal


def i_theta(theta: float) -> float:
    """The angular factor I(theta) = theta / (2 sin theta) on (-pi/2, pi/2).

    Equals int_0^1 cos(theta) / (t^2 + 1 + 2 t cos(2 theta)) dt; the removable
    singularity at 0 is handled by series, and 1/2 <= I <= pi/4 on the range.
    """
    if not abs(theta) < pi / 2:
        raise ValueError("theta must lie in (-pi/2, pi/2)")
    if abs(theta) < 1e-4:
        t2 = theta * theta
        return 0.5 * (1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0)
    return 0.5 * theta / np.sin(theta)


# ---------------------------------------------------------------------------
# The kernel's closed form, one argument order per call


def closed_form_two_calls(n: int, z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """K_n(z, w) at v = conj(w) for 1 <= n <= 16 as one ``Q_m`` sum for each
    argument order, at max(|z|, |w|) = 1; every operation is elementwise, so
    it equals the one-pass production form bit for bit."""
    mz, mv = _modulus(z), _modulus(v)
    scale = np.maximum(mz, mv)
    a, b = z / scale, v / scale
    return (_q_sum(n, a, b, mv <= 0.5 * mz) + _q_sum(n, b, a, mz <= 0.5 * mv)) / scale
