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
  the diagonal; a scalar call is a one-element batch.  Each sum over m is
  int_0^1 P_n(x)/(a + b x) dx with P_n = sum_m c_m x^m.  Where |b| <= |a|/2
  it is a fixed 12-point Gauss-Legendre rule with weights w_j P_n(x_j): the
  pole -a/b lies at least 2 from 0, so the rule errs by O(rho^-24) with
  rho = 3 + 2 sqrt(2), about 2^-61 (:func:`_q_sum` derives the size).
  Elsewhere Q_0 is a difference of logs and the higher Q_m follow by
  recurrence.  The lanes are split between the two branches once, by integer
  index, and each lane comes out as it would alone, whatever its batch: so
  :func:`gram_matrix` takes all its entries, and the kernel inequality both
  its matrices, from one array call.

Adaptive 1-D quadrature of the split integral, :func:`kernel_eval_quadrature`,
is its independent check.  At unit scale one of its two terms has a pole at
distance rho = min(|z|, |w|)/max(|z|, |w|) from u = 0.  Below rho = c/2, with
c = 1/4, the route splits (0, 1) at u = c and maps the head (0, c)
logarithmically, u = rho expm1(s log1p(c/rho)) for s in (0, 1), so each
decade between rho and c gets the same share of s; at rho >= c/2 it is one
adaptive integral in u.  On the rule's elements both routes integrate the
same integrand, the one by a fixed rule and the other adaptively, so there
the independent check is the accuracy map against 30-digit mpmath
references.  Every entry point takes the package's one order warranty
n = 0..16 (:mod:`hsob.specfun`).  A caller picks a route by calling
its function, and the quadrature runs at the integrators' default tolerances.

The diagonal K_n(z, z) is real and nonsingular, and |z| K_n(z, z) depends on
arg z alone.  Principal logarithms are safe throughout: z, conj(w) and their
sum lie in C+.  Here, in freqspace, in cayley_inverse and in the jury, a point
is taken when it is finite with Re z > 0, up to the axis (:func:`_in_halfplane`).
"""

from __future__ import annotations

import cmath
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, expm1, factorial, gamma, log1p, pi, sqrt

import numpy as np

from .expfamily import ExpPoly, laplace
from .quadrature import integrate_halfline, integrate_interval
from .specfun import _check_order
from .timespace import exp_series_remainder

__all__ = [
    "kernel_eval_closed",
    "kernel_eval_quadrature",
    "kernel_diag",
    "kernel_norm",
    "norm_bounds",
    "gram_matrix",
    "min_eigenvalue",
    "reproduce_check",
]

def _in_halfplane(z):
    """Whether z is a finite point with Re z > 0: a bool at a complex number,
    elementwise on an array (a point stays off numpy, whose scalar calls cost
    microseconds)."""
    if isinstance(z, np.ndarray):
        return np.isfinite(z) & (z.real > 0)
    return cmath.isfinite(z) and z.real > 0


def _require_halfplane(z, name: str):
    """A point, or a 1-D array or list of points, as complex when :func:`_in_halfplane`
    holds at every point; else one ``ValueError`` naming ``name`` and its first bad
    value, or its shape when it has more than one dimension."""
    many = isinstance(z, (list, tuple, np.ndarray))
    z = np.asarray(z, dtype=complex) if many else complex(z)
    if many and z.ndim > 1:
        raise ValueError(f"{name} must be a point or a 1-D array of points, got shape {z.shape}")
    ok = _in_halfplane(z)
    if not (ok.all() if many else ok):
        bad = complex(np.ravel(z)[np.argmin(ok)])
        rule = "lie in the open right half-plane" if cmath.isfinite(bad) else "be finite"
        raise ValueError(f"{name} must {rule}, got {bad}")
    return z


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


#: (node, weight) of the 12-point Gauss-Legendre rule on [0, 1], each correctly
#: rounded from 50-digit Newton iterates on the Legendre three-term recurrence;
#: its error on the closed form's elements with |b| <= |a|/2 is derived in _q_sum
_RULE = (
    (0.009219682876640375, 0.023587668193255914),
    (0.04794137181476257, 0.05346966299765921),
    (0.11504866290284765, 0.08003916427167311),
    (0.2063410228566913, 0.10158371336153296),
    (0.3160842505009099, 0.1167462682691774),
    (0.43738329574426554, 0.12457352290670139),
    (0.5626167042557345, 0.12457352290670139),
    (0.6839157494990901, 0.1167462682691774),
    (0.7936589771433087, 0.10158371336153296),
    (0.8849513370971523, 0.08003916427167311),
    (0.9520586281852375, 0.05346966299765921),
    (0.9907803171233597, 0.023587668193255914),
)
_RULE_NODES = np.array([x for x, _ in _RULE])
_RULE_NODES.flags.writeable = False


@lru_cache(maxsize=None)
def _rule_weights(n: int) -> np.ndarray:
    """W_n[j] = w_j P_n(x_j), P_n = sum_m c_m x^m, each exact and rounded once; read-only.

    (2n-1)! c_m = (-1)^m binom(2n-1, n+m), so at a node x = p/q Horner's rule
    runs on integers, and one correctly rounded integer quotient gives W_n[j].
    """
    weights = []
    for x, w in _RULE:
        p, q = x.as_integer_ratio()
        num = 0
        for m in reversed(range(n)):
            num = num * p + (-1) ** m * comb(2 * n - 1, n + m) * q ** (n - 1 - m)
        wp, wq = w.as_integer_ratio()
        weights.append(wp * num / (wq * factorial(2 * n - 1) * q ** (n - 1)))
    out = np.array(weights)
    out.flags.writeable = False
    return out


def _q_sum_rule(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # the row sum runs along the contiguous axis, the same for every row
    return (_rule_weights(n) / (a[:, None] + b[:, None] * _RULE_NODES)).sum(axis=1)


def _q_sum_log(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    coeffs = _derived_coefficients(n)
    q = (np.log(a + b) - np.log(a)) / b
    total = coeffs[0] * q
    for m in range(1, n):
        q = (1.0 / m - a * q) / b
        total = total + coeffs[m] * q
    return total


def _q_sum(n: int, a: np.ndarray, b: np.ndarray, by_rule: np.ndarray) -> np.ndarray:
    """sum_{m<n} c_m Q_m(a, b) = int_0^1 P_n(x)/(a + b x) dx elementwise, with
    P_n = sum_m c_m x^m on the derived coefficients c_m; each branch takes its
    elements, at a fixed cost, so no element depends on its batch.

    Where |b| <= |a|/2 (``by_rule``) it is the 12-point Gauss-Legendre rule
    sum_j W_n[j]/(a + b x_j), W_n[j] = w_j P_n(x_j).  There the pole -a/b has
    modulus at least 2, so it lies on or outside the Bernstein ellipse of
    [0, 1] with rho = 3 + 2 sqrt(2): that ellipse (centre 1/2, semi-axes 3/2
    and sqrt(2)) has |x| = (3 + cos theta)/2 on its boundary and touches the
    circle |x| = 2 at x = 2 alone.  An N-point Gauss rule errs there by
    O(rho^-2N) relative (Trefethen, "Is Gauss quadrature better than
    Clenshaw-Curtis?", SIAM Review 50, 2008), and rho^-2N <= 2^-60 takes
    N >= 12, which leaves 2^7 for the bound's constant below a double's
    2^-53.  At poles of modulus 2 in six directions, against 40-digit
    integrals over n = 1..16: 9.1e-16 relative at N = 10, 2.2e-16
    (rounding) at N = 12.

    Elsewhere, by a Q_m + b Q_{m+1} = 1/(m+1), Q_0 = (log(a+b) - log(a))/b
    (principal logs, no quotient to overflow at subnormal a) and the higher m
    follow upward.
    """
    rule = np.flatnonzero(by_rule)
    if len(rule) == len(a):
        return _q_sum_rule(n, a, b)
    if not len(rule):
        return _q_sum_log(n, a, b)
    log = np.flatnonzero(~by_rule)
    out = np.empty_like(a)
    out[rule] = _q_sum_rule(n, a[rule], b[rule])
    out[log] = _q_sum_log(n, a[log], b[log])
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


class _KernelOverflow(ValueError):
    """A kernel value past the largest double, raised naming the point (or,
    with ``name``, the image) whose value it is."""

    def __init__(self, point: complex, name: str = "point"):
        super().__init__(f"kernel value at {name} {point} overflows")


#: the factor that lifts a lane out of the subnormal range, or its inverse,
#: which brings one down from past the largest double; a power of two, so
#: that it changes no bit
_LIFT = 2.0**600


def _kernel_values(n: int, z: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, bool]:
    """:func:`_closed_form` with numpy's warnings off, and whether every value
    is finite; a value that is not is a K_n past the largest double.

    numpy divides a complex array by way of the divisor's reciprocal, so a
    lane whose max(|z|, |w|) is subnormal comes out nan once 1/scale
    overflows, and a lane whose |z| or |w| passes the largest double comes
    out nan once scale is inf.  At n = 0 a lane near the top of the double
    range comes out 0 once z + conj(w), or a product inside numpy's division
    by it, overflows; 1/(z + conj(w)) is never 0 for finite z and w, since
    |z + conj(w)| < 2^1026.  Such a lane is redone through
    K_n(z, w) = c K_n(cz, cw), at c = 2^600 when max(|z|, |w|) <= 1 and at
    c = 2^-600 above.  Every other lane of the first pass is kept as it is,
    and a batch with no lane to redo costs one check at n >= 1, two at n = 0.
    """
    with np.errstate(all="ignore"):
        values = _closed_form(n, z, v)
        kept = np.isfinite(values) if n else np.isfinite(values) & (values != 0)
        if kept.all():
            return values, True
        redo = ~kept
        z, v = z[redo], v[redo]
        lift = np.where(np.maximum(_modulus(z), _modulus(v)) <= 1.0, _LIFT, 1.0 / _LIFT)
        values[redo] = _closed_form(n, z * lift, v * lift) * lift
    return values, bool(np.isfinite(values).all())


def kernel_eval_closed(n: int, z: complex, w: complex) -> complex:
    """Closed-form K_n(z, w) for 0 <= n <= 16, bitwise as :func:`gram_matrix` gives it.

    A value past the largest double raises the ``ValueError`` of
    :func:`gram_matrix`, naming z.
    """
    _check_order(n)
    z = _require_halfplane(z, "z")
    w = _require_halfplane(w, "w")
    values, finite = _kernel_values(n, np.array([z]), np.array([w.conjugate()]))
    if not finite:
        raise _KernelOverflow(z)
    return complex(values[0])


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


#: where the quadrature route splits (0, 1) when it maps the head logarithmically;
#: it maps at ratios below half of it
_SPLIT = 0.25


def kernel_eval_quadrature(n: int, z: complex, w: complex) -> complex:
    """K_n(z, w) by adaptive quadrature of the Duffy-split 1-D integral, 0 <= n <= 16.

    The integral runs at max(|z|, |w|) = 1 through K_n(cz, cw) = K_n(z, w)/c,
    so the absolute tolerance stays small against the value whatever the
    size of the arguments.  There one of 1/(a + u b) and 1/(b + u a) has its
    pole at distance rho = min(|z|, |w|)/max(|z|, |w|) from u = 0; call its
    arguments small (modulus rho) and big (modulus 1).  At rho >= c/2, with
    c = 1/4, (0, 1) is one adaptive integral in u.  Below, (0, 1) splits at
    u = c, and each part is one adaptive integral: the tail (c, 1) in u, and
    the head (0, c) in s on (0, 1) through the geometrically graded map

        u = rho t,  t = expm1(s L),  L = log1p(c/rho),  du = L (u + rho) ds,

    which spreads the pole's neighbourhood, from u = 0 to u = c, evenly over
    s (Schwab, Computing 53, 1994).  There the near-pole term times the
    Jacobian is L (t + 1)/(small/rho + t big), with small/rho of unit
    modulus, so no factor 1/rho is formed.  Its pole sits at
    t = -small/(rho big), and t is measured from the node s_p where t passes
    the pole's real part, t = t_p + (t_p + 1) expm1((s - s_p) L), so that
    small/rho + t big keeps its relative precision next to the pole: two
    arguments near the same half of the imaginary axis put the pole close to
    the real line.  A ratio below 1/DBL_MAX, about 5.6e-309, is refused; the
    c/rho of L overflows from c/DBL_MAX, about 1.4e-309, down.  At n = 0
    there is no integral, K_0(z, w) = 1/(z + conj(w)), and the two routes
    coincide: this is :func:`kernel_eval_closed`, its value and its errors.
    """
    _check_order(n)
    if n == 0:
        return kernel_eval_closed(0, z, w)
    z = _require_halfplane(z, "z")
    w = _require_halfplane(w, "w")
    scale = max(abs(z), abs(w))
    ratio = min(abs(z), abs(w)) / scale
    if ratio * sys.float_info.max < 1.0:
        raise ValueError(f"the quadrature route cannot take min(|z|, |w|)/max(|z|, |w|) = "
                         f"{ratio:.3g}, below 1/DBL_MAX (about 5.6e-309): its head map's "
                         "log1p(c/ratio), c = 1/4, overflows from about 1.4e-309 down")
    a = z / scale
    b = w.conjugate() / scale

    def integrand(u):
        u = np.asarray(u, dtype=float)
        return _p_eval(n, u) * (1.0 / (a + u * b) + 1.0 / (b + u * a))

    if ratio >= _SPLIT / 2:
        value = integrate_interval(integrand, 0.0, 1.0).value
    else:
        small, big = (a, b) if abs(z) <= abs(w) else (b, a)
        unit = small / ratio
        span = log1p(_SPLIT / ratio)
        # t - t_pole from s - s_pole, exact next to s_pole; the pole has |t| = 1
        s_pole = log1p(max((-unit / big).real, 0.0)) / span
        t_pole = expm1(s_pole * span)
        near = unit + t_pole * big

        def head(s):
            d = (t_pole + 1.0) * np.expm1((np.asarray(s, dtype=float) - s_pole) * span)
            t = t_pole + d
            u = ratio * t
            return span * _p_eval(n, u) * ((t + 1.0) / (near + d * big)
                                           + (u + ratio) / (big + u * small))

        value = (integrate_interval(head, 0.0, 1.0).value
                 + integrate_interval(integrand, _SPLIT, 1.0).value)
    return complex(value / (factorial(n - 1) ** 2 * scale))


def kernel_diag(n: int, z):
    """K_n(z, z) = ||K_{n,z}||^2, real positive, at a point or elementwise over a
    1-D array of points: the closed form at w = z in one array call, for n <= 16.

    No margin from the imaginary axis is needed: at unit scale, a = z/|z|, the
    closed form takes its log branch, whose log(a + conj(a)) = log(2 Re a) is
    finite wherever Re z > 0; at n = 1 the value tends to pi/|z| at the axis.
    """
    _check_order(n)
    zs = np.atleast_1d(_require_halfplane(z, "z"))
    diag, finite = _kernel_values(n, zs, zs.conj())
    if not finite:
        raise _KernelOverflow(complex(zs[np.argmax(~np.isfinite(diag))]))
    return diag.real if np.ndim(z) else float(diag[0].real)


def kernel_norm(n: int, z: complex) -> float:
    """||K_{n,z}|| = sqrt(K_n(z, z)); 1/sqrt(2 Re z) at n = 0; n <= 16.

    For n >= 1 it is taken at unit scale, sqrt(K_n(u, u)) / sqrt|z| with
    u = z/|z| (K_n(cz, cz) = K_n(z, z)/c), so the norm stays finite where
    K_n(z, z) itself overflows, as it does below |z| of about 1e-308.  Past
    the largest double, where |z| itself overflows, it is ||K_{n,z/4}||/2.
    """
    z = _require_halfplane(z, "z")
    if n == 0:
        return 1.0 / (sqrt(2.0) * sqrt(z.real))  # 2 Re z would overflow past 9e307
    try:
        r = abs(z)
    except OverflowError:  # |z| past the largest double: ||K_{4z}|| = ||K_z||/2
        return kernel_norm(n, z / 4) / 2
    return sqrt(kernel_diag(n, z / r)) / sqrt(r)


def norm_bounds(n: int, z: complex) -> tuple[float, float]:
    """Lower/upper bounds for ||K_{n,z}||: the sandwich

    1/(Gamma(n) sqrt(2n-1)) / sqrt|z|  <=  ||K_{n,z}||  <=  sqrt(pi)/(Gamma(n) sqrt(n)) / sqrt|z|.
    """
    if n < 1:
        raise ValueError("the bounds hold for n >= 1")
    z = _require_halfplane(z, "z")
    try:
        root = np.sqrt(abs(z))
    except OverflowError:  # |z| past the largest double: sqrt|4z| = 2 sqrt|z|
        root = 2 * np.sqrt(abs(z / 4))
    lower = 1.0 / (gamma(n) * np.sqrt(2 * n - 1)) / root
    upper = np.sqrt(pi) / (gamma(n) * np.sqrt(n)) / root
    return float(lower), float(upper)


#: Gram matrices of up to this many points keep their lower-triangle indices
#: between calls, four index arrays of m(m + 1)/2 entries for m points: 66 kB
#: at 64 points, 1.5 MB if every size up to 64 were used.  A larger set builds
#: its indices afresh and drops them after the call
_TRIANGLE_CACHE_MAX = 64


def _triangle(m: int) -> tuple[np.ndarray, ...]:
    """(rows, cols, below, above) of the lower triangle of an m x m matrix,
    row by row: each entry's row and column, and its flat index and its
    mirror's; cached read-only up to ``_TRIANGLE_CACHE_MAX`` points."""
    return _cached_triangle(m) if m <= _TRIANGLE_CACHE_MAX else _build_triangle(m)


def _build_triangle(m: int) -> tuple[np.ndarray, ...]:
    rows, cols = np.nonzero(np.tri(m, dtype=bool))
    return rows, cols, rows * m + cols, cols * m + rows


@lru_cache(maxsize=None)
def _cached_triangle(m: int) -> tuple[np.ndarray, ...]:
    indices = _build_triangle(m)
    for index in indices:
        index.flags.writeable = False
    return indices


def _gram_matrices(n: int, *point_sets: tuple[str, np.ndarray]) -> list[np.ndarray]:
    """The Gram matrix of each ``(name, points)`` set, points a validated 1-D
    complex array, from one closed-form array call over the lower-triangle
    lanes of all the sets.

    Each lane comes out as it would alone, so every matrix is bit for bit the
    one its set would give on its own.  The sets are checked in order: the
    first whose matrix has a value past the largest double raises the
    ``ValueError`` naming its first such point by the set's name.
    """
    triangles = [_triangle(len(points)) for _, points in point_sets]
    z = np.concatenate([points[t[0]] for (_, points), t in zip(point_sets, triangles)])
    v = np.concatenate([points[t[1]] for (_, points), t in zip(point_sets, triangles)]).conj()
    lower, finite = _kernel_values(n, z, v)
    matrices, start = [], 0
    for (name, points), (rows, _, below, above) in zip(point_sets, triangles):
        part = lower[start:start + len(rows)]
        start += len(rows)
        G = np.empty((len(points), len(points)), dtype=complex)
        flat = G.reshape(-1)
        flat[below] = part
        flat[above] = part.conj()
        if not finite:
            overflow = ~np.isfinite(G).all(axis=1)
            if overflow.any():
                raise _KernelOverflow(complex(points[np.argmax(overflow)]), name)
        matrices.append(G)
    return matrices


def gram_matrix(n: int, points) -> np.ndarray:
    """Hermitian Gram matrix G[i, j] = K_n(z_i, z_j) over points of C+, n <= 16.

    Each lower-triangle entry is :func:`kernel_eval_closed` bit for bit: all
    of them come from one closed-form array call, which the kernel
    inequality's two matrices share (:func:`hsob.symbols.jury_min_m`).
    Each entry above the diagonal is exactly the conjugate of its mirror
    entry, and the diagonal is real, so ``G == G.conj().T`` holds bit for bit.
    A point next to 0, where K_n(z, z) passes the largest double, raises a
    ``ValueError`` naming it, with numpy's warnings kept off.
    """
    _check_order(n)
    return _gram_matrices(n, ("point", _require_halfplane(points, "point")))[0]


def min_eigenvalue(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix (Hermitised against rounding)."""
    H = 0.5 * (matrix + matrix.conj().T)
    return float(np.linalg.eigvalsh(H)[0])


def reproduce_check(n: int, f: ExpPoly, w: complex) -> float:
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

    inner = integrate_halfline(integrand, 0.5 * f.decay_scale()).value
    return float(abs(target - inner))
