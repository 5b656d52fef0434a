"""Truncated Taylor jets: exact series arithmetic for higher derivatives.

A :class:`Jet` holds the Taylor coefficients c_0..c_order of an analytic
function at a base point (so the k-th derivative is k! * c_k), or at a 1-D
array of base points at once: then ``coeffs`` has shape (order + 1, m) and
every operation runs row by row on arrays of m lanes.  Addition,
multiplication, division, real powers and log(1+.) are all exact
truncated-series operations; no finite differencing anywhere.

At a scalar base a division by a zero constant term, or a power or log1p on
the principal branch cut, raises :class:`JetDomainError`, and a power that
overflows raises ``OverflowError`` as Python's complex power does.  On an
array those lanes are masked instead: the operation runs on the placeholder 1
there, so numpy warns of nothing, and every coefficient of the lane comes out
nan.  A nan lane stays nan through every later operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .specfun import MAX_ORDER, _check_order

__all__ = ["Jet", "JetDomainError"]


class JetDomainError(ArithmeticError):
    """Division by a zero constant term, or a power/log branch violation."""


def guard(x, bad, error: type[Exception], message: str):
    """``x`` ready for an operation that fails where ``bad`` holds.

    At a scalar ``x`` a failing point raises ``error``.  On an array the
    failing lanes and the nan lanes become the placeholder 1; returns the
    placeholder-filled array and the lanes that :func:`masked` must set to
    nan in the result.
    """
    if np.ndim(x) == 0:
        if bad:
            raise error(message)
        return x, False
    skip = bad | np.isnan(x)
    return np.where(skip, 1.0, x), skip


def masked(x, skip):
    """``x`` with the lanes in ``skip`` set to nan; ``skip`` broadcasts on the last axis."""
    if not np.any(skip):
        return x
    return np.where(skip, complex(np.nan, np.nan), x)


def on_cut(g):
    """Where g lies on the principal branch cut (-inf, 0] of powers and logarithms."""
    return (g == 0) | ((g.real <= 0) & (g.imag == 0))


def principal_power(g, alpha: float):
    """g**alpha on lanes off the cut: returns (power, overflowing lanes).

    At a scalar base an overflow raises ``OverflowError``, as Python's
    complex power does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        p = g**alpha
    return guard(p, ~np.isfinite(p), OverflowError, "complex exponentiation")


@dataclass(frozen=True, eq=False)
class Jet:
    """Taylor coefficients ``coeffs[k]`` = c_k of an analytic map at ``base``.

    ``coeffs`` has shape (order + 1,) at a scalar base and (order + 1, m) at
    a 1-D array of m base points.
    """

    coeffs: np.ndarray
    base: complex | np.ndarray | None = None

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.ndim == 0 or len(coeffs) == 0:
            raise ValueError("a jet needs at least the constant coefficient")
        if len(coeffs) - 1 > MAX_ORDER:  # inline: every jet operation builds a Jet
            _check_order(len(coeffs) - 1)
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def variable(z, order: int) -> "Jet":
        """The identity map z + h as a jet of the given order."""
        _check_order(order)
        z = np.asarray(z, dtype=complex)
        coeffs = np.zeros((order + 1,) + z.shape, dtype=complex)
        coeffs[0] = z
        if order >= 1:
            coeffs[1] = 1.0
        return Jet(coeffs, base=z if z.ndim else complex(z))

    @staticmethod
    def constant(value, order: int, base=None) -> "Jet":
        """The constant ``value`` as a jet, with one lane per point of ``base``."""
        _check_order(order)
        lanes = np.broadcast_shapes(np.shape(value), np.shape(base))
        coeffs = np.zeros((order + 1,) + lanes, dtype=complex)
        coeffs[0] = value
        return Jet(coeffs, base=base)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self):
        return self.coeffs[0]

    def derivative(self, k: int):
        """The k-th derivative value k! * c_k."""
        if not 0 <= k <= self.order:
            raise ValueError("derivative order exceeds the jet order")
        return factorial(k) * self.coeffs[k]

    def _match(self, other) -> "Jet":
        if not isinstance(other, Jet):
            coeffs = np.zeros_like(self.coeffs)
            coeffs[0] = other
            other = Jet(coeffs, self.base)
        if other.order != self.order:
            raise ValueError("jet orders must match")
        return other

    def _base_with(self, other: "Jet"):
        return self.base if self.base is not None else other.base

    def __add__(self, other):
        b = self._match(other)
        return Jet(self.coeffs + b.coeffs, self._base_with(b))

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.coeffs, self.base)

    def __sub__(self, other):
        b = self._match(other)
        return Jet(self.coeffs - b.coeffs, self._base_with(b))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        b = self._match(other)
        a, c = self.coeffs, b.coeffs
        n = self.order
        out = np.zeros(np.broadcast_shapes(a.shape, c.shape), dtype=complex)
        for i in range(n + 1):
            if not a[i].any():
                continue  # a zero row adds nothing and no 0 * inf; nan lanes are masked below
            out[i:] += a[i] * c[: n + 1 - i]
        return Jet(masked(out, np.isnan(a[0]) | np.isnan(c[0])), self._base_with(b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._match(other)
        b0, skip = guard(b.coeffs[0], b.coeffs[0] == 0, JetDomainError,
                         "division by a jet with zero constant term")
        n = self.order
        out = np.zeros(np.broadcast_shapes(self.coeffs.shape, b.coeffs.shape), dtype=complex)
        for k in range(n + 1):
            acc = self.coeffs[k]
            for j in range(1, k + 1):
                acc = acc - b.coeffs[j] * out[k - j]
            out[k] = acc / b0
        return Jet(masked(out, skip), self._base_with(b))

    def __rtruediv__(self, other):
        return self._match(other).__truediv__(self)

    def power(self, alpha: float) -> "Jet":
        """Principal-branch real power g^alpha via p' g = alpha g' p."""
        c = self.coeffs
        g0, skip = guard(c[0], on_cut(c[0]), JetDomainError,
                         "power base touches the principal branch cut")
        p0, over = principal_power(g0, alpha)
        n = self.order
        out = np.zeros_like(c)
        out[0] = p0
        for k in range(1, n + 1):
            acc = 0j
            for j in range(1, k + 1):
                acc = acc + ((alpha + 1) * j - k) * c[j] * out[k - j]
            out[k] = acc / (k * g0)
        return Jet(masked(out, skip | over), self.base)

    def log1p(self) -> "Jet":
        """log(1 + g) with the principal branch, via L' (1+g) = g'."""
        c = self.coeffs
        q0 = 1.0 + c[0]
        q0, skip = guard(q0, on_cut(q0), JetDomainError,
                         "log1p argument touches the principal branch cut")
        n = self.order
        out = np.zeros_like(c)
        out[0] = np.log(q0)
        for k in range(1, n + 1):
            acc = k * c[k]
            for j in range(1, k):
                acc = acc - j * out[j] * c[k - j]
            out[k] = acc / (k * q0)
        return Jet(masked(out, skip), self.base)
