"""The weighted time-domain space: repeated integration, Hardy constants, and
the weighted derivative of the kernel-generating family.

W^-n integrates n times from t to infinity,

    (W^-n f)(t) = 1/(n-1)! * int_t^inf (s-t)^(n-1) f(s) ds,

and inverts n-fold differentiation up to sign: (-1)^n (W^-n f)^(n) = f.  For
exponential polynomials the integral stays inside the algebra and is computed
exactly (``w_minus_exp``); ``hardy_constant`` bounds it in Hardy's inequality.

The time-side preimage g_{w,n} of the reproducing kernel enters the library
only through its weighted derivative, which has the stable closed form

    t^n g_{w,n}^(n)(t) = (-1)^n E_n(w t),
    E_n(x) = sum_{m>=0} (-x)^m/(n+m)!  =  (-x)^-n (exp(-x) - sum_{j<n} (-x)^j/j!)
           = int_0^1 (1-s)^(n-1)/(n-1)! exp(-x s) ds,

an exponential-series remainder; for small |x| the integral form, by a fixed
Gauss-Legendre rule, dodges the cancellation in the remainder form.  The
kernel's reproducing check (:func:`hsob.kernel.reproduce_check`) pairs with it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .expfamily import ExpPoly
from .quadrature import _gl_rule

__all__ = [
    "w_minus_exp",
    "hardy_constant",
    "exp_series_remainder",
]


def w_minus_exp(f: ExpPoly, n: int) -> ExpPoly:
    """Exact W^-n f for an exponential polynomial (the result is one too).

    Substituting s = t + u turns each term a t^k exp(-lam t) into a binomial
    sum of moment integrals in u, so the image keeps the same decay rates.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    terms = []
    for a, k, lam in f.terms:
        for r in range(k + 1):
            coeff = a * comb(k, r) * factorial(n - 1 + r) / (factorial(n - 1) * lam ** (n + r))
            terms.append((coeff, k - r, lam))
    return ExpPoly(tuple(terms))


def hardy_constant(m: int) -> float:
    """The constant Gamma(1/2)/Gamma(m+1/2) = 4^m m!/(2m)! of Hardy's inequality.

    Its square bounds int (W^-m phi)^2 by the weighted integral int (t^m phi)^2
    for positive phi.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    return float(Fraction(4**m * factorial(m), factorial(2 * m)))


#: |x| up to which E_n is the Gauss-Legendre rule of its integral form
E_N_RULE_RADIUS = 12.0
#: nodes of that rule: its truncation error at |x| = 12 is below a double's
#: rounding, but numpy's leggauss weights at 32 nodes are off by up to 5.8e-14
#: relative, which leaves a floor of about 2e-15 relative on E_n
E_N_RULE_NODES = 32


@lru_cache(maxsize=None)
def _e_n_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s_k on [0, 1] and weights w_k (1 - s_k)^(n-1)/(n-1)!, read-only."""
    nodes, weights = _gl_rule(E_N_RULE_NODES)
    weighted = weights * (1.0 - nodes) ** (n - 1) / factorial(n - 1)
    weighted.flags.writeable = False
    return nodes, weighted


def exp_series_remainder(n: int, x):
    """E_n(x) = sum_{m>=0} (-x)^m / (n+m)!, vectorised over complex x.

    E_n(x) = int_0^1 (1-s)^(n-1)/(n-1)! exp(-x s) ds for n >= 1 (Tricomi's
    entire incomplete gamma, DLMF 8.2 and 8.7.1), evaluated at a fixed cost:

    * n = 1: -expm1(-x)/x, free of cancellation at the zeros x = 2 pi i k;
    * n >= 2, |x| <= 12: one 32-node Gauss-Legendre rule of the integral, one
      ``exp`` of a (points x 32) array and one matrix-vector product;
    * otherwise (and n = 0): the remainder form
      (-x)^-n (exp(-x) - sum_{j<n} (-x)^j/j!), whose terms grow with j there.

    On |arg x| <= pi/2 - 1e-3, 1e-3 <= |x| <= 1e3 and n = 1..16 the relative
    error against a 40-digit reference is below 1e-14.
    """
    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    if n == 1:
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(x == 0, 1.0, -np.expm1(-x) / x)
    else:
        out = np.empty(x.shape, dtype=complex)
        by_rule = np.abs(x) <= E_N_RULE_RADIUS if n >= 2 else np.zeros(x.shape, dtype=bool)
        for branch, mask in ((_e_n_by_rule, by_rule), (_e_n_remainder, ~by_rule)):
            if mask.all():
                out = branch(n, x)
                break
            if mask.any():
                out[mask] = branch(n, x[mask])
    return complex(out[0]) if scalar else out


def _e_n_by_rule(n: int, x: np.ndarray) -> np.ndarray:
    nodes, weights = _e_n_rule(n)
    # numpy takes a one-row product as a dot product, which rounds
    # differently from the matrix-vector product of two or more rows;
    # doubling a lone row gives each point the value it gets in any batch
    rows = x if len(x) > 1 else np.repeat(x, 2)
    return (np.exp(-np.multiply.outer(rows, nodes)) @ weights)[:len(x)]


def _e_n_remainder(n: int, x: np.ndarray) -> np.ndarray:
    partial = np.zeros_like(x)
    for j in range(n):
        partial += (-x) ** j / factorial(j)
    return (np.exp(-x) - partial) / (-x) ** n

