"""Adaptive quadrature for finite intervals and half-lines.

Two integrators share one configuration object:

* ``integrate_interval`` -- globally adaptive Gauss-Legendre on a finite interval,
* ``integrate_halfline`` -- decaying integrands on (0, inf), tail mapped to (0, 1).

Both integrators accept complex-valued integrands and return a :class:`QuadResult`
whose ``error`` field is a best-effort estimate (difference of successive
refinements), not a rigorous bound.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadConfig",
    "QuadResult",
    "QuadratureError",
    "integrate_interval",
    "integrate_halfline",
]


class QuadratureError(Exception):
    """Raised when an integral cannot be resolved within the configured budget."""


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and mesh parameters shared by all quadrature routines.

    abs_tol, rel_tol
        Convergence targets; a result is accepted once the error estimate
        drops below ``max(abs_tol, rel_tol * |value|)``.
    max_subdiv
        Budget of interval subdivisions before giving up.
    halfline_truncation
        The half-line splits at T = halfline_truncation * decay_scale.
    nodes_per_cell
        Gauss-Legendre nodes per cell.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdiv: int = 4000
    halfline_truncation: float = 30.0
    nodes_per_cell: int = 15

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.max_subdiv < 1:
            raise ValueError("max_subdiv must be at least 1")
        if not 0 < self.halfline_truncation < math.inf:
            raise ValueError("halfline_truncation must be positive and finite")
        if self.nodes_per_cell < 2:
            raise ValueError("nodes_per_cell must be at least 2")


DEFAULT_CONFIG = QuadConfig()


@dataclass(frozen=True)
class QuadResult:
    """Value of an integral together with a best-effort error estimate."""

    value: complex
    error: float
    subdivisions: int

    def __complex__(self) -> complex:
        return complex(self.value)


@lru_cache(maxsize=None)
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], built once per order.

    Every caller shares the arrays, so they are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _eval_nodes(f, xs: np.ndarray) -> np.ndarray:
    """Evaluate ``f`` on an array of nodes, falling back to a scalar loop.

    Overflow is deliberately silent here: a non-finite value is converted to
    a :class:`QuadratureError`, which is how divergent tails surface.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            ys = np.asarray(f(xs), dtype=complex)
            if ys.shape != xs.shape:
                raise TypeError
        except (TypeError, ValueError):
            ys = np.array([f(float(x)) for x in xs], dtype=complex)
    if not np.all(np.isfinite(ys.view(float))):
        raise QuadratureError("integrand returned a non-finite value")
    return ys


def _gl_cell(f, a: float, b: float, nodes: np.ndarray, weights: np.ndarray) -> complex:
    xs = a + (b - a) * nodes
    return complex((b - a) * np.dot(weights, _eval_nodes(f, xs)))


#: unit roundoff of a double, for the rounding slack of the running totals
_UNIT_ROUNDOFF = sys.float_info.epsilon / 2


def integrate_interval(f, a: float, b: float, cfg: QuadConfig = DEFAULT_CONFIG) -> QuadResult:
    """Integrate ``f`` over the finite interval (a, b).

    Globally adaptive: the worst cell (by the coarse-vs-bisected difference) is
    bisected until the summed error estimate meets the tolerance.  Raises
    :class:`QuadratureError` after ``cfg.max_subdiv`` bisections, which usually
    signals a singular or highly oscillatory integrand beyond the budget.

    The stopping test compares the sums of the cells' values and errors, in
    heap order.  Running totals stand in for those sums while they clear the
    tolerance by more than their rounding drift; otherwise the heap is summed,
    so the value, error and bisection count are those of summing the heap on
    every step.
    """
    if not b > a:
        raise ValueError("integration bounds must satisfy a < b")
    nodes, weights = _gl_rule(cfg.nodes_per_cell)

    def make_cell(lo: float, hi: float, coarse: complex):
        mid = 0.5 * (lo + hi)
        left = _gl_cell(f, lo, mid, nodes, weights)
        right = _gl_cell(f, mid, hi, nodes, weights)
        fine = left + right
        err = abs(coarse - fine)
        return (-err, lo, hi, fine, left, right)

    heap = [make_cell(a, b, _gl_cell(f, a, b, nodes, weights))]
    nsub = 1
    # running sums of the cells' values, errors and |values|; drift and
    # drift_err sum the magnitudes their updates rounded, each update three
    # roundings of numbers no larger than the heap's sums before and after it
    total, total_err, total_abs = heap[0][3], -heap[0][0], abs(heap[0][3])
    drift = drift_err = 0.0
    while True:
        # the running sums and the heap sums each stray from the exact sums by
        # at most u (drift + cells * magnitude); four times that is the slack
        cells = len(heap)
        slack = 4 * _UNIT_ROUNDOFF * (drift_err + cells * total_err
                                      + cfg.rel_tol * (drift + cells * total_abs))
        if not total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total)) + slack:
            total = sum(c[3] for c in heap)
            total_err = sum(-c[0] for c in heap)
            if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
                return QuadResult(total, total_err, nsub)
            total_abs = sum(abs(c[3]) for c in heap)
            drift = drift_err = 0.0
        if nsub >= cfg.max_subdiv:
            total_err = sum(-c[0] for c in heap)
            raise QuadratureError(
                f"interval rule did not converge after {nsub} subdivisions "
                f"(error estimate {total_err:.3e})"
            )
        neg_err, lo, hi, fine, left, right = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        first, second = make_cell(lo, mid, left), make_cell(mid, hi, right)
        heapq.heappush(heap, first)
        heapq.heappush(heap, second)
        total += first[3] + second[3] - fine
        total_err += neg_err - first[0] - second[0]
        total_abs += abs(first[3]) + abs(second[3]) - abs(fine)
        drift += 3 * (total_abs + abs(fine))
        drift_err += 3 * (total_err - neg_err)
        nsub += 2


def integrate_halfline(f, decay_scale: float = 1.0, cfg: QuadConfig = DEFAULT_CONFIG) -> QuadResult:
    """Integrate ``f`` over (0, inf) assuming decay on the given scale.

    The line is split at ``T = cfg.halfline_truncation * decay_scale``; the tail
    is pulled back to (0, 1) through ``t = T + u/(1-u)``, which regularises
    exponential decay and algebraic decay of order > 1.  A tail that fails to
    settle (decay slower than assumed) surfaces as a :class:`QuadratureError`.
    """
    if decay_scale <= 0:
        raise ValueError("decay_scale must be positive")
    T = cfg.halfline_truncation * decay_scale
    head = integrate_interval(f, 0.0, T, cfg)

    def tail_integrand(u):
        u = np.asarray(u, dtype=float)
        t = T + u / (1.0 - u)
        return np.asarray(f(t), dtype=complex) / (1.0 - u) ** 2

    tail = integrate_interval(tail_integrand, 0.0, 1.0, cfg)
    return QuadResult(
        head.value + tail.value,
        head.error + tail.error,
        head.subdivisions + tail.subdivisions,
    )

