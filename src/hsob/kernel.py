"""The reproducing kernel of the order-n Hardy-Sobolev space on C+.

For n >= 1 the kernel is the double integral

    K_n(z, w) = 1/((n-1)!)^2 * int_0^1 int_0^1
                (1-t)^(n-1) (1-s)^(n-1) / (z t + s conj(w)) ds dt,

reducing to 1/(z + conj(w)) at n = 0.  Duffy's split of the unit square into
the triangles s <= t and s > t, with s = t u on the first and t = s u on the
second, takes the 1/r corner singularity out and leaves one smooth integral

    K_n(z, w) = 1/Gamma(n)^2 * int_0^1 p_n(u) (1/(z + u v) + 1/(v + u z)) du,
                                                        v = conj(w),

with p_n the polynomial int_0^1 (1-y)^(n-1) (1-yu)^(n-1) dy.  For n <= 16 the
one production route is a closed form, derived by expanding p_n and
integrating term by term, which collapses to

      K_n(z, w) = sum_{m=0}^{n-1} (-1)^m / ((n-1-m)! (n+m)!)
                  * (Q_m(z, v) + Q_m(v, z)),

  with Q_m(a, b) = int_0^1 x^m/(a + b x) dx elementary (the coefficient is
  binom(n-1,m)/Gamma(n)^2 times the Beta integral B(m+1, n) picked up by the
  triangle substitution).  It is evaluated elementwise on numpy arrays, at
  unit scale, so it holds at every ratio |z|/|w| down to subnormal ones and on
  the diagonal; a scalar call is a one-element batch.

Adaptive 1-D quadrature of the split integral is its independent check, and
the route when ``quadrature`` is asked for; it alone takes orders past 16.
Every other entry point refuses them.

The diagonal K_n(z, z) is real and nonsingular, and |z| K_n(z, z) depends on
arg z alone.  Principal logarithms are safe throughout: z, conj(w) and their
sum lie in C+.  Evaluation within ``theta_margin`` of the imaginary axis is
refused for the diagonal.
"""

from __future__ import annotations

import cmath
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gamma, pi, sqrt

import numpy as np

from .expfamily import ExpPoly, laplace
from .quadrature import DEFAULT_CONFIG, QuadConfig, integrate_halfline, integrate_interval
from .timespace import exp_series_remainder

__all__ = [
    "KernelPoint",
    "kernel_eval",
    "kernel_eval_closed",
    "kernel_eval_quadrature",
    "kernel_diag",
    "kernel_norm",
    "norm_bounds",
    "gram_matrix",
    "min_eigenvalue",
    "reproduce_check",
]

CLOSED_FORM_MAX_N = 16
DEFAULT_THETA_MARGIN = 1e-3

#: terms of the series for Q_m, a power of two; its ratio is at most 1/2 in modulus
SERIES_TERMS = 64


def _require_halfplane(z: complex, name: str) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"{name} must be finite, got {z}")
    if not z.real > 0:
        raise ValueError(f"{name} must lie in the open right half-plane")
    return z


def _check_order(n: int, closed: bool = True) -> None:
    """Refuse a negative order, and past CLOSED_FORM_MAX_N one that the closed
    form is asked to take."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if closed and n > CLOSED_FORM_MAX_N:
        raise ValueError(f"the closed form covers n <= {CLOSED_FORM_MAX_N}, got n = {n}; "
                         "only the quadrature route takes higher orders")


@dataclass(frozen=True)
class KernelPoint:
    """A kernel evaluation request: order, arguments, method and tolerances."""

    n: int
    z: complex
    w: complex
    method: str = "auto"
    cfg: QuadConfig = field(default_factory=QuadConfig)

    def __post_init__(self):
        if self.method not in ("auto", "quadrature", "closed_form"):
            raise ValueError("method must be auto, quadrature or closed_form")
        _check_order(self.n, closed=self.method != "quadrature")
        _require_halfplane(self.z, "z")
        _require_halfplane(self.w, "w")

    @property
    def route(self) -> str:
        """The method an evaluation takes: ``quadrature`` when asked for, else
        ``closed_form`` (construction refuses an order past its cap)."""
        return "quadrature" if self.method == "quadrature" else "closed_form"


def _modulus(z):
    """|z| for a number or an array, rounded as Python's abs rounds it."""
    return np.hypot(z.real, z.imag)


@lru_cache(maxsize=None)
def _derived_coefficients(n: int) -> tuple[float, ...]:
    # binom(n-1,m)/Gamma(n)^2 * (-1)^m * B(m+1, n), reduced exactly
    return tuple(
        float(Fraction((-1) ** m, factorial(n - 1 - m) * factorial(n + m)))
        for m in range(n)
    )


def _series(n: int, t: np.ndarray) -> np.ndarray:
    """sum_{r < SERIES_TERMS} t^r / (n + r) by Estrin's scheme on coefficient-major
    1-D arrays, in which numpy computes each element as it computes a lone one."""
    p = np.repeat(1.0 / (n + np.arange(SERIES_TERMS, dtype=complex)), len(t))
    powers = [np.tile(t, SERIES_TERMS // 2)]
    while len(powers) < SERIES_TERMS.bit_length() - 1:
        powers.append(powers[-1] * powers[-1])
    while len(p) > len(t):
        half = len(p) // 2
        p = p[:half] + p[half:] * powers.pop()[:half]
    return p


def _q_sum_series(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    coeffs = _derived_coefficients(n)
    q = _series(n, -b / a) / a
    total = coeffs[n - 1] * q
    for m in reversed(range(n - 1)):
        q = (1.0 / (m + 1) - b * q) / a
        total = total + coeffs[m] * q
    return total


def _q_sum_log(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    coeffs = _derived_coefficients(n)
    q = (np.log(a + b) - np.log(a)) / b
    total = coeffs[0] * q
    for m in range(1, n):
        q = (1.0 / m - a * q) / b
        total = total + coeffs[m] * q
    return total


def _q_sum(n: int, a: np.ndarray, b: np.ndarray, series: np.ndarray) -> np.ndarray:
    """sum_{m<n} c_m Q_m(a, b) elementwise, with the derived coefficients c_m.

    By a Q_m + b Q_{m+1} = 1/(m+1): where |b| <= |a|/2 (``series``), Q_{n-1}
    is the series in -b/a to a fixed SERIES_TERMS terms, so no element depends
    on its batch, and the lower m follow downward, stably there; elsewhere
    Q_0 = (log(a+b) - log(a))/b (principal logs, no quotient to overflow at
    subnormal a) and the higher m follow upward, each branch on its elements.
    """
    out = np.empty_like(a)
    for branch, mask in ((_q_sum_series, series), (_q_sum_log, ~series)):
        if mask.all():
            return branch(n, a, b)
        if mask.any():
            out[mask] = branch(n, a[mask], b[mask])
    return out


def _closed_form(n: int, z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """K_n(z, w) at v = conj(w) for 1-D complex arrays, each element on its own and
    at max(|z|, |w|) = 1 through K_n(cz, cw) = K_n(z, w)/c."""
    if n == 0:
        return 1.0 / (z + v)
    mz, mv = _modulus(z), _modulus(v)
    scale = np.maximum(mz, mv)
    a, b = z / scale, v / scale
    # Q_m(a, b) and Q_m(b, a) in one pass over the 2N elements: each element
    # comes out as it would alone, so the halves are the two argument orders
    q = _q_sum(n, np.concatenate((a, b)), np.concatenate((b, a)),
               np.concatenate((mv <= 0.5 * mz, mz <= 0.5 * mv)))
    return (q[:len(z)] + q[len(z):]) / scale


def kernel_eval_closed(n: int, z: complex, w: complex) -> complex:
    """Closed-form K_n(z, w) for 0 <= n <= 16, bitwise as :func:`gram_matrix` gives it."""
    _check_order(n)
    z = _require_halfplane(z, "z")
    w = _require_halfplane(w, "w")
    return complex(_closed_form(n, np.array([z]), np.array([w.conjugate()]))[0])


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
    the arguments.  There the integrand reaches max(|z|, |w|)/min(|z|, |w|),
    so a ratio at which that overflows is refused.
    """
    z = _require_halfplane(z, "z")
    w = _require_halfplane(w, "w")
    if n == 0:
        return 1.0 / (z + w.conjugate())
    scale = max(abs(z), abs(w))
    ratio = min(abs(z), abs(w)) / scale
    if ratio * sys.float_info.max < 1.0:
        raise ValueError(f"the quadrature route cannot take |z|/|w| = {abs(z) / abs(w):.3g}: "
                         "at unit scale its integrand reaches max(|z|, |w|)/min(|z|, |w|), "
                         "which overflows")
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


def kernel_diag(n: int, z, theta_margin: float = DEFAULT_THETA_MARGIN):
    """K_n(z, z) = ||K_{n,z}||^2, real positive, at a point or elementwise over a
    1-D array of points: the closed form in one array call, for n <= 16.

    There the Duffy integrand is 2 cos(theta) (1 + u) p_n(u) / (u^2 + 1 + 2 u cos(2 theta)),
    theta = arg z, whose denominator degenerates only as |theta| nears pi/2:
    for n >= 1, |arg z| <= pi/2 - theta_margin is required.
    """
    _check_order(n)
    zs = np.array([_require_halfplane(u, "z") for u in np.atleast_1d(z)], dtype=complex)
    if n > 0 and (np.abs(np.angle(zs)) > pi / 2 - theta_margin).any():
        raise ValueError(f"|arg z| must stay below pi/2 - {theta_margin:g}")
    diag = _closed_form(n, zs, zs.conj()).real
    return diag if np.ndim(z) else float(diag[0])


def kernel_norm(n: int, z: complex) -> float:
    """||K_{n,z}|| = sqrt(K_n(z, z)); 1/sqrt(2 Re z) at n = 0; n <= 16.

    For n >= 1 it is taken at unit scale, sqrt(K_n(u, u)) / sqrt|z| with
    u = z/|z| (K_n(cz, cz) = K_n(z, z)/c), so the norm stays finite where
    K_n(z, z) itself overflows, as it does below |z| of about 1e-308.
    """
    z = _require_halfplane(z, "z")
    if n == 0:
        return 1.0 / (sqrt(2.0) * sqrt(z.real))  # 2 Re z would overflow past 9e307
    r = abs(z)
    return sqrt(kernel_diag(n, z / r)) / sqrt(r)


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


class _KernelOverflow(ValueError):
    """A Gram matrix entry that overflows, raised at the first point whose row holds one."""

    def __init__(self, point: complex):
        super().__init__(f"kernel value at point {point} overflows")
        self.point = point


def gram_matrix(n: int, points) -> np.ndarray:
    """Hermitian Gram matrix G[i, j] = K_n(z_i, z_j) over points of C+, n <= 16.

    Each lower-triangle entry is :func:`kernel_eval` bit for bit: all of them
    come from one closed-form array call.
    Each entry above the diagonal is exactly the conjugate of its mirror
    entry, and the diagonal is real, so ``G == G.conj().T`` holds bit for bit.
    A point next to 0, where K_n(z, z) passes the largest double, raises a
    ``ValueError`` naming it, with numpy's warnings kept off.
    """
    _check_order(n)
    pts = np.array([_require_halfplane(z, "point") for z in points], dtype=complex)
    rows, cols = np.nonzero(np.tri(len(pts), dtype=bool))
    G = np.empty((len(pts), len(pts)), dtype=complex)
    with np.errstate(all="ignore"):
        lower = _closed_form(n, pts[rows], pts[cols].conj())
    G[rows, cols] = lower
    G[cols, rows] = lower.conj()
    if not np.isfinite(lower).all():
        raise _KernelOverflow(complex(pts[np.argmax(~np.isfinite(G).all(axis=1))]))
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
