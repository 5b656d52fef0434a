"""Exact algebra of exponential polynomials and their Laplace images.

An :class:`ExpPoly` is a finite combination sum a * t^k * exp(-lam*t) with
Re lam > 0.  The family is closed under products, derivatives, integration
over (0, inf) and the Laplace transform, whose image is a
:class:`RationalComb`: a combination sum a * k!/(z+lam)^(k+1) with all poles
in the left half-plane.

The weighted inner products

    <f, g>_n = int_0^inf f^(n)(t) conj(g^(n)(t)) t^(2n) dt

are evaluated exactly.  For pure exponentials the value is
(2n)! (lam*conj(mu))^n / (lam+conj(mu))^(2n+1); powers of t are handled by
symbolic parameter differentiation of that rational function (each d/dlam
brings down one factor -t), which keeps everything in a small family
c * lam^p * nu^q * (lam+nu)^(-m) with integer coefficients.  The complex-
parameter form (conjugation on the second slot) is the unique analytic
extension of the positive-parameter formula and is cross-checked against
quadrature in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

__all__ = ["ExpPoly", "RationalComb", "laplace", "inner_product_n", "norm_n", "sample_exppoly"]


def _canonical(terms) -> tuple[tuple[complex, int, complex], ...]:
    merged: dict[tuple[int, complex], complex] = {}
    for a, k, lam in terms:
        a = complex(a)
        lam = complex(lam)
        if k < 0 or int(k) != k:
            raise ValueError("power of t must be a nonnegative integer")
        if not lam.real > 0:
            raise ValueError("decay rates must have positive real part")
        merged[(int(k), lam)] = merged.get((int(k), lam), 0j) + a
    out = tuple(
        (a, k, lam) for (k, lam), a in sorted(merged.items(), key=lambda kv: (kv[0][0], kv[0][1].real, kv[0][1].imag)) if a != 0
    )
    return out


@dataclass(frozen=True)
class ExpPoly:
    """Finite combination sum a * t^k * exp(-lam*t), Re lam > 0."""

    terms: tuple[tuple[complex, int, complex], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", _canonical(self.terms))

    @staticmethod
    def exponential(lam: complex, a: complex = 1.0) -> "ExpPoly":
        """The function a * exp(-lam*t)."""
        return ExpPoly(((a, 0, lam),))

    @staticmethod
    def monomial(a: complex, k: int, lam: complex) -> "ExpPoly":
        return ExpPoly(((a, k, lam),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        return ExpPoly(self.terms + other.terms)

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, ExpPoly):
            return ExpPoly(
                tuple(
                    (a * b, j + k, lam + mu)
                    for a, j, lam in self.terms
                    for b, k, mu in other.terms
                )
            )
        return ExpPoly(tuple((a * complex(other), k, lam) for a, k, lam in self.terms))

    __rmul__ = __mul__

    def conjugate(self) -> "ExpPoly":
        """Complex conjugate, valid as a function of real t (conjugates lam)."""
        return ExpPoly(tuple((a.conjugate(), k, lam.conjugate()) for a, k, lam in self.terms))

    def times_power(self, m: int) -> "ExpPoly":
        """Multiply by t^m."""
        if m < 0:
            raise ValueError("power must be nonnegative")
        return ExpPoly(tuple((a, k + m, lam) for a, k, lam in self.terms))

    def derivative(self, m: int = 1) -> "ExpPoly":
        """Exact m-th derivative, still an ExpPoly."""
        if m < 0:
            raise ValueError("derivative order must be nonnegative")
        f = self
        for _ in range(m):
            new = []
            for a, k, lam in f.terms:
                if k > 0:
                    new.append((a * k, k - 1, lam))
                new.append((-a * lam, k, lam))
            f = ExpPoly(tuple(new))
        return f

    def __call__(self, t):
        t = np.asarray(t, dtype=float) if not np.isscalar(t) else t
        total = 0j if np.isscalar(t) else np.zeros(np.shape(t), dtype=complex)
        for a, k, lam in self.terms:
            total = total + a * t**k * np.exp(-lam * t)
        return total

    def integral(self) -> complex:
        """Exact int_0^inf f(t) dt via the moments k!/lam^(k+1)."""
        return sum((a * factorial(k) / lam ** (k + 1) for a, k, lam in self.terms), 0j)

    def decay_scale(self) -> float:
        """Slowest decay scale 1/min(Re lam), or 1.0 for the zero function."""
        if self.is_zero:
            return 1.0
        return 1.0 / min(lam.real for _, _, lam in self.terms)

    def to_triples(self) -> list[list]:
        """JSON-ready term list [[re a, im a, k, re lam, im lam], ...]."""
        return [[a.real, a.imag, k, lam.real, lam.imag] for a, k, lam in self.terms]


@dataclass(frozen=True)
class RationalComb:
    """Finite combination sum a * k!/(z+lam)^(k+1) with Re lam > 0.

    Exactly the Laplace transforms of :class:`ExpPoly`, sharing the same
    (a, k, lam) term encoding.
    """

    terms: tuple[tuple[complex, int, complex], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", _canonical(self.terms))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "RationalComb") -> "RationalComb":
        return RationalComb(self.terms + other.terms)

    def __mul__(self, other) -> "RationalComb":
        return RationalComb(tuple((a * complex(other), k, lam) for a, k, lam in self.terms))

    __rmul__ = __mul__

    def derivative(self, m: int = 1) -> "RationalComb":
        """Exact m-th z-derivative: k!/(z+lam)^(k+1) -> -(k+1)!/(z+lam)^(k+2)."""
        terms = self.terms
        for _ in range(m):
            terms = tuple((-a, k + 1, lam) for a, k, lam in terms)
        return RationalComb(terms)

    def __call__(self, z):
        if np.isscalar(z):
            return sum((a * factorial(k) / (z + lam) ** (k + 1) for a, k, lam in self.terms), 0j)
        z = np.asarray(z, dtype=complex)
        total = np.zeros(z.shape, dtype=complex)
        for a, k, lam in self.terms:
            total += a * factorial(k) / (z + lam) ** (k + 1)
        return total

    def inverse_laplace(self) -> ExpPoly:
        return ExpPoly(self.terms)

    def pole_scale(self) -> float:
        """Largest pole magnitude (at least 1), a natural frequency scale."""
        if self.is_zero:
            return 1.0
        return max(1.0, max(abs(lam) for _, _, lam in self.terms))


def laplace(f: ExpPoly) -> RationalComb:
    """Exact Laplace transform: t^k exp(-lam t) -> k!/(z+lam)^(k+1)."""
    return RationalComb(f.terms)


@lru_cache(maxsize=None)
def _pair_table(n: int, j: int, k: int) -> tuple[tuple[int, int, int, int], ...]:
    """Symbolic (-1)^(j+k) d^j/dlam^j d^k/dnu^k of (2n)! lam^n nu^n (lam+nu)^-(2n+1).

    Entries (c, p, q, m) stand for c * lam^p * nu^q * (lam+nu)^(-m); the
    coefficients stay integers throughout.
    """
    table: dict[tuple[int, int, int], int] = {(n, n, 2 * n + 1): factorial(2 * n)}

    def diff(tab, slot):
        out: dict[tuple[int, int, int], int] = {}
        for (p, q, m), c in tab.items():
            power = p if slot == 0 else q
            if power > 0:
                key = (p - 1, q, m) if slot == 0 else (p, q - 1, m)
                out[key] = out.get(key, 0) + c * power
            key = (p, q, m + 1)
            out[key] = out.get(key, 0) - c * m
        return out

    for _ in range(j):
        table = diff(table, 0)
    for _ in range(k):
        table = diff(table, 1)
    sign = (-1) ** (j + k)
    return tuple((sign * c, p, q, m) for (p, q, m), c in table.items())


def inner_product_n(f: ExpPoly, g: ExpPoly, n: int) -> complex:
    """Exact <f, g>_n = int_0^inf f^(n)(t) conj(g^(n)(t)) t^(2n) dt."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = 0j
    for a, j, lam in f.terms:
        for b, k, mu in g.terms:
            nu = mu.conjugate()
            val = 0j
            for c, p, q, m in _pair_table(n, j, k):
                val += c * lam**p * nu**q / (lam + nu) ** m
            total += a * b.conjugate() * val
    return total


def norm_n(f: ExpPoly, n: int) -> float:
    """Norm sqrt(<f, f>_n); the inner product is real nonnegative up to rounding."""
    val = inner_product_n(f, f, n)
    return float(np.sqrt(max(val.real, 0.0)))


def sample_exppoly(rng: np.random.Generator, max_terms: int = 4, max_power: int = 3,
                   min_norm: float = 1e-2, level: int = 0) -> ExpPoly:
    """Draw a random ExpPoly for seeded verification suites.

    Coefficients are complex on the unit box, decay rates have real part in
    [0.3, 2.5] and imaginary part in [-2, 2].  Samples with ||f||_(level)
    below ``min_norm`` are redrawn so that relative residuals stay meaningful.
    That floor is the only bound on the norm: ||f||_(level) is not kept O(1),
    and it grows fast with ``level``.
    """
    while True:
        nterms = int(rng.integers(1, max_terms + 1))
        terms = []
        for _ in range(nterms):
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            k = int(rng.integers(0, max_power + 1))
            lam = complex(rng.uniform(0.3, 2.5), rng.uniform(-2.0, 2.0))
            terms.append((a, k, lam))
        f = ExpPoly(tuple(terms))
        if norm_n(f, level) >= min_norm:
            return f
