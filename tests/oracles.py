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
* the disc norm with one integrand call per circle, against
  ``disc_h2_norm``'s one call on all three circles, bit for bit;
* the kernel inequality's two Gram matrices from one ``gram_matrix`` call
  each, against the jury's one closed-form array call over both, bit for bit;
* the least admissible M of the kernel inequality by 80 eigenvalue bisection
  steps, each on a rebuilt matrix, against ``jury_min_m`` to its resolution;
* jet composition by Horner substitution, against the n-th derivative of a
  composition from the partition table ``bell_partitions`` (``faa_di_bruno``),
  which no production path evaluates yet;
* an ``ExpPoly`` read back from the term list of a verify case record;
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
    Jet,
    RationalComb,
    bell_partitions,
    exp_series_remainder,
    gram_matrix,
    inner_product_n,
    integrate_halfline,
    min_eigenvalue,
    norm_n,
    w_minus_exp,
)
from hsob.cayley import DISC_NODES, DISC_OFFSET
from hsob.kernel import _modulus, _q_sum
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


def w_minus(f, n: int, t: float, decay_scale: float | None = None) -> complex:
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

    return complex(integrate_halfline(integrand, scale).value)


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

    def __call__(self, t: float) -> complex:
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
        return complex(integrate_halfline(integrand, scale).value)

    def norm(self) -> float:
        """||g_{w,n}||_(n) via the single-integral form of the weighted derivative."""

        def integrand(t):
            v = exp_series_remainder(self.n, self.w * np.asarray(t))
            return np.abs(v) ** 2

        scale = 1.0 / self.w.real
        val = integrate_halfline(integrand, scale).value
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


# ---------------------------------------------------------------------------
# Disc norm circle by circle


def disc_norm_per_circle(g, nodes: int = DISC_NODES) -> float:
    """``disc_h2_norm`` with one call of ``g`` per circle."""
    unit = np.exp(1j * (2.0 * np.pi * np.arange(nodes) / nodes))

    def mean_square(r: float) -> float:
        return float(np.mean(np.abs(np.asarray(g(r * unit), dtype=complex)) ** 2))

    s = DISC_OFFSET
    v1, v2, v4 = mean_square(1.0 - s), mean_square(1.0 - 2 * s), mean_square(1.0 - 4 * s)
    return float(np.sqrt(max((8.0 * v1 - 6.0 * v2 + v4) / 3.0, 0.0)))


# ---------------------------------------------------------------------------
# The kernel inequality, rebuilt on every bisection step


def jury_matrices_two_calls(e, n: int, points) -> tuple[np.ndarray, np.ndarray]:
    """``(base, moved)`` of the kernel inequality from one ``gram_matrix`` call
    on the points and one on their images, the images from one array
    evaluation as the library's; each closed-form lane is computed on its
    own, so the jury's one call over both sets gives these bit for bit."""
    pts = np.array([complex(z) for z in points])
    return gram_matrix(n, pts), gram_matrix(n, e.eval(pts))


def jury_matrix(e, n: int, M: float, points) -> np.ndarray:
    """M^2 K_n(z_i, z_j) - K_n(phi(z_i), phi(z_j)), filled entry by entry from
    the lower triangle with each mirror entry its conjugate."""
    # gram_matrix is bit for bit the scalar kernel_eval_closed of each entry
    # (TestGram in test_kernel.py)
    base, moved = jury_matrices_two_calls(e, n, points)
    m = len(base)
    A = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(i + 1):
            val = M**2 * base[i, j] - moved[i, j]
            A[i, j] = val
            A[j, i] = val.conjugate()
    return A


def jury_min_m_bisection(e, n: int, points, tol: float) -> float:
    """Least M with min_eigenvalue(jury_matrix) >= -tol: doubling from 1, then
    80 bisection steps, down to adjacent doubles and on, each step on a
    rebuilt matrix; ``inf`` past 1e12.  ``jury_min_m``'s slack is
    tol = JURY_TOL * max_i moved_ii."""
    def feasible(M):
        return min_eigenvalue(jury_matrix(e, n, M, points)) >= -tol

    lo, hi = 0.0, 1.0
    while not feasible(hi):
        hi *= 2.0
        if hi > 1e12:
            return float("inf")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Jet composition


def compose(outer: Jet, inner: Jet) -> Jet:
    """The jet of outer o inner; outer must be based at inner's value.

    Substitutes the zero-constant part of ``inner`` into the series of
    ``outer`` by Horner evaluation in truncated arithmetic.
    """
    if inner.order != outer.order:
        raise ValueError("jet orders must match")
    if outer.base is not None and np.any(
            np.abs(outer.base - inner.value) > 1e-9 * (1.0 + np.abs(outer.base))):
        raise ValueError("outer jet is not based at the inner jet's value")
    n = outer.order
    shifted = inner.coeffs.copy()
    shifted[0] = 0
    shifted = Jet(shifted, inner.base)
    result = Jet.constant(outer.coeffs[n], n, base=inner.base)
    for k in range(n - 1, -1, -1):
        result = result * shifted + Jet.constant(outer.coeffs[k], n, base=inner.base)
    return result


def faa_di_bruno(fjet: Jet, phijet: Jet, n: int) -> complex:
    """(f o phi)^(n)(z) from the partition table.

    ``fjet`` must be based at phi(z) (= phijet.value) and both jets must carry
    at least order n.
    """
    if fjet.order < n or phijet.order < n:
        raise ValueError("jets must have order at least n")
    if fjet.base is not None and np.any(
            np.abs(fjet.base - phijet.value) > 1e-9 * (1.0 + np.abs(phijet.value))):
        raise ValueError("outer jet is not based at the inner jet's value")
    total = 0j
    for coeff, k, multi in bell_partitions(n).entries:
        prod = complex(coeff) * fjet.derivative(k)
        for j, mj in enumerate(multi, start=1):
            if mj:
                prod *= phijet.derivative(j) ** mj
        total += prod
    return total


# ---------------------------------------------------------------------------
# Verify case records


def exppoly_from_triples(triples) -> ExpPoly:
    """The ``ExpPoly`` whose ``to_triples()`` is ``triples``."""
    return ExpPoly(tuple(
        (complex(ar, ai), int(k), complex(lr, li)) for ar, ai, k, lr, li in triples
    ))
