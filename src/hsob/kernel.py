"""The reproducing kernel of the order-n Hardy-Sobolev space on C+.

For n >= 1 the kernel is the double integral

    K_n(z, w) = 1/((n-1)!)^2 * int_0^1 int_0^1
                (1-t)^(n-1) (1-s)^(n-1) / (z t + s conj(w)) ds dt,

reducing to 1/(z + conj(w)) at n = 0.  Duffy's split of the unit square into
the triangles s <= t and s > t, with s = t u on the first and t = s u on the
second, takes the 1/r corner singularity out and leaves one smooth integral

    K_n(z, w) = 1/Gamma(n)^2 * int_0^1 p_n(u) (1/(z + u v) + 1/(v + u z)) du,
                                                        v = conj(w),

with p_n the polynomial int_0^1 (1-y)^(n-1) (1-yu)^(n-1) dy.  Two evaluation
paths are provided and cross-checked:

* adaptive 1-D quadrature of the split integral (any n),
* closed forms: the explicit low-order displays for n = 1, 2, 3, and for
  n <= 8 a form derived by expanding p_n and integrating term by term, which
  collapses to

      K_n(z, w) = sum_{m=0}^{n-1} (-1)^m / ((n-1-m)! (n+m)!)
                  * (Q_m(z, v) + Q_m(v, z)),

  with Q_m(a, b) = int_0^1 x^m/(a + b x) dx elementary (the coefficient is
  binom(n-1,m)/Gamma(n)^2 times the Beta integral B(m+1, n) picked up by the
  triangle substitution).

The diagonal z = w of the same integral is the nonsingular trigonometric form

      K_n(z, z) = 2 cos(theta) / (Gamma(n)^2 |z|)
                  * int_0^1 (1+t) p_n(t) / (t^2 + 1 + 2 t cos(2 theta)) dt,

which makes the homogeneity |z| K_n(z, z) = G_n(theta) manifest.

Principal logarithm branches are safe throughout: z, conj(w) and their sum
all have positive real part.  Evaluation close to the imaginary axis
(|arg z| within ``theta_margin`` of pi/2) is refused for the diagonal form
and is out of warranty in general.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gamma, pi

import numpy as np

from .expfamily import ExpPoly, laplace
from .quadrature import DEFAULT_CONFIG, QuadConfig, integrate_halfline, integrate_interval
from .timespace import exp_series_remainder

__all__ = [
    "CancellationWarning",
    "KernelPoint",
    "kernel_eval",
    "kernel_eval_closed",
    "kernel_eval_quadrature",
    "i_theta",
    "kernel_diag",
    "kernel_norm",
    "norm_bounds",
    "gram_matrix",
    "min_eigenvalue",
    "reproduce_check",
]

CLOSED_FORM_MAX_N = 8
DEFAULT_THETA_MARGIN = 1e-3

#: |z/w| range outside which closed forms lose digits to cancellation
CANCELLATION_SAFE_RATIO = 1e8


class CancellationWarning(UserWarning):
    """Closed-form kernel evaluation at an extreme |z|/|w| ratio."""


def _require_halfplane(z: complex, name: str) -> complex:
    z = complex(z)
    if not z.real > 0:
        raise ValueError(f"{name} must lie in the open right half-plane")
    return z


@dataclass(frozen=True)
class KernelPoint:
    """A kernel evaluation request: order, arguments, method and tolerances."""

    n: int
    z: complex
    w: complex
    method: str = "auto"
    cfg: QuadConfig = field(default_factory=QuadConfig)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        _require_halfplane(self.z, "z")
        _require_halfplane(self.w, "w")
        if self.method not in ("auto", "quadrature", "closed_form"):
            raise ValueError("method must be auto, quadrature or closed_form")

    @property
    def route(self) -> str:
        """The method an evaluation takes: ``closed_form`` or ``quadrature``.

        ``auto`` prefers the closed form whenever it exists and the |z|/|w|
        ratio is cancellation-safe, and falls back to quadrature otherwise.
        """
        if self.method != "auto":
            return self.method
        ratio = abs(self.z) / abs(self.w)
        if self.n <= CLOSED_FORM_MAX_N and 1e-6 <= ratio <= 1e6:
            return "closed_form"
        return "quadrature"


def _q_integral(m: int, a: complex, b: complex) -> complex:
    """Q_m(a, b) = int_0^1 x^m / (a + b x) dx, elementary and branch-safe.

    A geometric series in b/a is used when |b| <= |a|/2; the closed form with
    the principal log otherwise.  Both a and b sit in the right half-plane, so
    (a+b)/a never crosses the cut.
    """
    if abs(b) <= 0.5 * abs(a):
        ratio = -b / a
        total = 0j
        power = 1.0 + 0j
        for r in range(300):
            term = power / (m + r + 1)
            total += term
            power *= ratio
            if abs(power) < 1e-18 * (m + r + 2):
                break
        return total / a
    total = (-a) ** m / b ** (m + 1) * cmath.log((a + b) / a)
    for p in range(1, m + 1):
        total += comb(m, p) * (-a) ** (m - p) * ((a + b) ** p - a**p) / (p * b ** (m + 1))
    return total


@lru_cache(maxsize=None)
def _derived_coefficients(n: int) -> tuple[float, ...]:
    # binom(n-1,m)/Gamma(n)^2 * (-1)^m * B(m+1, n), reduced exactly
    return tuple(
        float(Fraction((-1) ** m, factorial(n - 1 - m) * factorial(n + m)))
        for m in range(n)
    )


def _closed_derived(n: int, z: complex, v: complex) -> complex:
    coeffs = _derived_coefficients(n)
    return sum(
        c * (_q_integral(m, z, v) + _q_integral(m, v, z)) for m, c in enumerate(coeffs)
    )


def _closed_low_order(n: int, z: complex, v: complex) -> complex:
    """The explicit displays for n = 1, 2, 3."""
    l1 = cmath.log((v + z) / v)
    l2 = cmath.log((v + z) / z)
    if n == 1:
        return l1 / z + l2 / v
    if n == 2:
        return (
            -1 / (6 * z)
            + (3 * z + v) / (6 * z**2) * l1
            - 1 / (6 * v)
            + (3 * v + z) / (6 * v**2) * l2
        )
    if n == 3:
        return (
            -(9 * z + 2 * v) / (240 * z**2)
            + (10 * z**2 + 5 * z * v + v**2) / (120 * z**3) * l1
            - (9 * v + 2 * z) / (240 * v**2)
            + (10 * v**2 + 5 * z * v + z**2) / (120 * v**3) * l2
        )
    raise ValueError("low-order displays cover n = 1, 2, 3 only")


def kernel_eval_closed(n: int, z: complex, w: complex) -> complex:
    """Closed-form K_n(z, w) for 0 <= n <= 8.

    n = 1..3 use the explicit displays; n = 4..8 the derived Q_m combination
    (quadrature-validated in the test suite).  The displays subtract nearly
    equal logarithmic terms once |z| and |w| differ by orders of magnitude, so
    outside a moderate ratio window the evaluation switches to the derived
    combination, whose geometric-series branch is immune.  A
    :class:`CancellationWarning` is emitted when |z|/|w| leaves [1e-8, 1e8],
    beyond which even that loses digits.
    """
    z = _require_halfplane(z, "z")
    w = _require_halfplane(w, "w")
    if n == 0:
        return 1.0 / (z + w.conjugate())
    if n > CLOSED_FORM_MAX_N:
        raise ValueError(f"closed forms are available for n <= {CLOSED_FORM_MAX_N}")
    ratio = abs(z) / abs(w)
    if not (1.0 / CANCELLATION_SAFE_RATIO <= ratio <= CANCELLATION_SAFE_RATIO):
        warnings.warn(
            f"|z|/|w| = {ratio:.2e} is outside the cancellation-safe range",
            CancellationWarning,
            stacklevel=2,
        )
    v = w.conjugate()
    if n <= 3 and 1e-3 <= ratio <= 1e3:
        return _closed_low_order(n, z, v)
    return _closed_derived(n, z, v)


@lru_cache(maxsize=None)
def _p_coeffs(n: int) -> tuple[float, ...]:
    # p_n(u) = int_0^1 (1-y)^(n-1) (1-yu)^(n-1) dy expanded in powers of u
    return tuple(
        float(Fraction((-1) ** k * comb(n - 1, k) * factorial(k) * factorial(n - 1), factorial(n + k)))
        for k in range(n)
    )


def _p_eval(n: int, u: np.ndarray) -> np.ndarray:
    """p_n at the nodes ``u`` by Horner's rule."""
    p = np.zeros_like(u)
    for c in reversed(_p_coeffs(n)):
        p = p * u + c
    return p


def kernel_eval_quadrature(n: int, z: complex, w: complex, cfg: QuadConfig = DEFAULT_CONFIG) -> complex:
    """K_n(z, w) by adaptive quadrature of the Duffy-split 1-D integral.

    The integral runs at max(|z|, |w|) = 1 through K_n(cz, cw) = K_n(z, w)/c,
    so ``cfg.abs_tol`` stays small against the value whatever the size of
    the arguments.
    """
    z = _require_halfplane(z, "z")
    w = _require_halfplane(w, "w")
    if n == 0:
        return 1.0 / (z + w.conjugate())
    scale = max(abs(z), abs(w))
    a = z / scale
    b = w.conjugate() / scale

    def integrand(u):
        u = np.asarray(u, dtype=float)
        return _p_eval(n, u) * (1.0 / (a + u * b) + 1.0 / (b + u * a))

    value = integrate_interval(integrand, 0.0, 1.0, cfg).value
    return complex(value / (factorial(n - 1) ** 2 * scale))


def kernel_eval(p: KernelPoint) -> complex:
    """Evaluate a :class:`KernelPoint` by the method :attr:`KernelPoint.route` names."""
    if p.route == "closed_form":
        return kernel_eval_closed(p.n, p.z, p.w)
    return kernel_eval_quadrature(p.n, p.z, p.w, p.cfg)


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


def kernel_diag(n: int, z: complex, cfg: QuadConfig = DEFAULT_CONFIG,
                theta_margin: float = DEFAULT_THETA_MARGIN) -> float:
    """K_n(z, z) = ||K_{n,z}||^2, real positive, via the trigonometric form.

    Requires |arg z| <= pi/2 - theta_margin; the integrand's denominator
    degenerates only as the argument approaches the imaginary axis.
    """
    z = _require_halfplane(z, "z")
    if n == 0:
        return 1.0 / (2.0 * z.real)
    theta = np.angle(z)
    if abs(theta) > pi / 2 - theta_margin:
        raise ValueError(f"|arg z| must stay below pi/2 - {theta_margin:g}")
    cos2t = np.cos(2.0 * theta)

    def integrand(t):
        t = np.asarray(t, dtype=float)
        return (1.0 + t) * _p_eval(n, t) / (t * t + 1.0 + 2.0 * t * cos2t)

    val = integrate_interval(integrand, 0.0, 1.0, cfg).value.real
    return 2.0 * np.cos(theta) / (gamma(n) ** 2 * abs(z)) * val


def kernel_norm(n: int, z: complex, cfg: QuadConfig = DEFAULT_CONFIG,
                theta_margin: float = DEFAULT_THETA_MARGIN) -> float:
    """||K_{n,z}|| = sqrt(K_n(z, z)); 1/sqrt(2 Re z) at n = 0."""
    return float(np.sqrt(kernel_diag(n, z, cfg, theta_margin)))


def norm_bounds(n: int, z: complex) -> tuple[float, float]:
    """Lower/upper bounds for ||K_{n,z}||: the sandwich

    1/(Gamma(n) sqrt(2n-1)) / sqrt|z|  <=  ||K_{n,z}||  <=  sqrt(pi)/(Gamma(n) sqrt(n)) / sqrt|z|.
    """
    if n < 1:
        raise ValueError("the bounds hold for n >= 1")
    z = complex(z)
    root = np.sqrt(abs(z))
    lower = 1.0 / (gamma(n) * np.sqrt(2 * n - 1)) / root
    upper = np.sqrt(pi) / (gamma(n) * np.sqrt(n)) / root
    return float(lower), float(upper)


def gram_matrix(n: int, points, method: str = "auto", cfg: QuadConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Hermitian Gram matrix G[i, j] = K_n(z_i, z_j) over points of C+."""
    pts = [_require_halfplane(z, "point") for z in points]
    m = len(pts)
    G = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(i + 1):
            val = kernel_eval(KernelPoint(n, pts[i], pts[j], method, cfg))
            G[i, j] = val
            G[j, i] = val.conjugate()
    return G


def min_eigenvalue(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix (Hermitised against rounding)."""
    H = 0.5 * (matrix + matrix.conj().T)
    return float(np.linalg.eigvalsh(H)[0])


def reproduce_check(n: int, f: ExpPoly, w: complex, cfg: QuadConfig = DEFAULT_CONFIG) -> float:
    """Residual of the reproducing identity at w for the transform of f.

    Compares (Lf)(w) with the weighted time-side pairing of f against the
    kernel-generating function at conj(w), evaluated by half-line quadrature
    against the stable closed form of its weighted derivative.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    w = _require_halfplane(w, "w")
    target = laplace(f)(w)
    if f.is_zero:
        return float(abs(target))
    fn = f.derivative(n)
    sign = (-1) ** n

    def integrand(t):
        t = np.asarray(t, dtype=float)
        # conj(t^n g_{conj(w),n}^(n)(t)) = (-1)^n E_n(t w)
        return t**n * np.asarray(fn(t), dtype=complex) * sign * exp_series_remainder(n, w * t)

    inner = integrate_halfline(integrand, 0.5 * f.decay_scale(), cfg).value
    return float(abs(target - inner))
