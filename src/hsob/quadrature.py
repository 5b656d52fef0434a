"""Adaptive quadrature for finite intervals and half-lines.

Two integrators, both at the one setting of the module constants ``ABS_TOL``,
``REL_TOL``, ``MAX_SUBDIV`` and ``NODES_PER_CELL``:

* ``integrate_interval`` -- globally adaptive Gauss-Legendre on a finite interval,
* ``integrate_halfline`` -- decaying integrands on (0, inf), tail mapped to (0, 1).

Both integrators accept complex-valued integrands and return a :class:`QuadResult`
whose ``error`` field is a best-effort estimate (difference of successive
refinements), not a rigorous bound.

One engine runs both.  Each refinement step makes one call of the integrand
on every node the step needs: the coarse cell and both its halves at the
start, then the four quarters of each bisected cell.  The half-line is two
pieces, the head on (0, T) and the tail pulled back to (0, 1), refined in
lockstep with one call per step for both; each piece keeps its own cells and
stopping test, which sums the cells' values and errors on every step.  An
integrand whose value at a node does not depend on the other nodes of the
call gets, cell for cell, the values, error estimates and bisection counts of
one call per cell and one piece at a time.
An integrand maps an array of nodes to an array of values of the same shape;
one that does not is a ``TypeError``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadResult",
    "QuadratureError",
    "integrate_interval",
    "integrate_halfline",
]


class QuadratureError(Exception):
    """Raised when an integral cannot be resolved within the bisection budget."""


#: a result is accepted once its error estimate is at most
#: max(ABS_TOL, REL_TOL * |value|); read when a refinement runs
ABS_TOL = 1e-10
REL_TOL = 1e-9
#: budget of bisections of one piece before a QuadratureError
MAX_SUBDIV = 4000
#: Gauss-Legendre nodes per cell
NODES_PER_CELL = 15

#: the half-line splits at T = HALFLINE_TRUNCATION * decay_scale; a split far
#: out on the decay scale lets the first cells' nodes miss the integrand's
#: mass near 0, and the refinement then settles on a wrong value
HALFLINE_TRUNCATION = 30.0


@dataclass(frozen=True)
class QuadResult:
    """Value of an integral together with a best-effort error estimate."""

    value: complex
    error: float
    subdivisions: int


@lru_cache(maxsize=None)
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], built once per order.

    Every caller shares the arrays, so they are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _step_values(f, tails: list, xs: list) -> list:
    """Each piece's integrand at its nodes ``xs[i]``, from one call of ``f``.

    ``tails[i]`` is None for a piece that integrates ``f`` itself and T for
    the tail of ``f`` beyond T pulled back to (0, 1) through t = T + u/(1-u):
    its nodes are mapped and its values divided by (1-u)^2.  ``f`` must map
    an array of nodes to an array of the same shape; an ``f`` that does not
    is a ``TypeError``, and an exception of ``f``'s own propagates.

    Overflow is deliberately silent here: the caller turns a non-finite value
    into a :class:`QuadratureError`, which is how divergent tails surface.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        flat = np.concatenate([x if T is None else T + x / (1.0 - x) for x, T in zip(xs, tails)])
        ys = np.asarray(f(flat), dtype=complex)
        if ys.shape != flat.shape:
            raise TypeError(f"the integrand must map an array of nodes to an array of the "
                            f"same shape: got shape {ys.shape} for nodes of shape {flat.shape}")
        values, start = [], 0
        for x, T in zip(xs, tails):
            y = ys[start:start + len(x)]
            values.append(y if T is None else y / (1.0 - x) ** 2)
            start += len(x)
    return values


def _refine(a: float, b: float):
    """Globally adaptive refinement of one piece (a, b), as a generator.

    Each step yields the cells whose rule values it needs, as (lo, hi) pairs,
    and is sent back their values: first the coarse cell (a, b) and its two
    halves, then the four quarters of the worst cell, which is bisected.  The
    generator returns the :class:`QuadResult`, or raises
    :class:`QuadratureError` after ``MAX_SUBDIV`` bisections.

    The stopping test sums the cells' values and errors, in heap order, on
    every step.
    """
    mid = 0.5 * (a + b)
    coarse, left, right = yield ((a, b), (a, mid), (mid, b))
    fine = left + right
    heap = [(-abs(coarse - fine), a, b, fine, left, right)]
    nsub = 1
    while True:
        total = sum(c[3] for c in heap)
        total_err = sum(-c[0] for c in heap)
        if total_err <= max(ABS_TOL, REL_TOL * abs(total)):
            return QuadResult(total, total_err, nsub)
        if nsub >= MAX_SUBDIV:
            raise QuadratureError(
                f"interval rule did not converge after {nsub} subdivisions "
                f"(error estimate {total_err:.3e})"
            )
        _, lo, hi, _, left, right = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        q1, q2 = 0.5 * (lo + mid), 0.5 * (mid + hi)
        ll, lr, rl, rr = yield ((lo, q1), (q1, mid), (mid, q2), (q2, hi))
        first_fine, second_fine = ll + lr, rl + rr
        heapq.heappush(heap, (-abs(left - first_fine), lo, mid, first_fine, ll, lr))
        heapq.heappush(heap, (-abs(right - second_fine), mid, hi, second_fine, rl, rr))
        nsub += 2


def _lockstep(f, pieces: list) -> list:
    """Refine the pieces side by side, with one call of ``f`` per step.

    A piece is ``(a, b, T)``: ``f`` on (a, b) when T is None, else the tail
    of ``f`` beyond T pulled back to (a, b).  Each piece keeps its own heap
    and stopping test, and one that fails stops on its own.  The first
    failure in piece order is raised as soon as every piece before it has
    converged, which is the failure that running the pieces one after another
    would raise.  Returns the pieces' results in order.
    """
    for a, b, _ in pieces:
        if not b > a:
            raise ValueError("integration bounds must satisfy a < b")
    nodes, weights = _gl_rule(NODES_PER_CELL)
    n = len(nodes)
    runs = [_refine(a, b) for a, b, _ in pieces]
    wants = [next(run) for run in runs]
    outcomes = [None] * len(runs)
    while True:
        live = [i for i, out in enumerate(outcomes) if out is None]
        xs = []
        for i in live:
            bounds = np.array(wants[i], dtype=float)
            lo = bounds[:, :1]
            xs.append((lo + (bounds[:, 1:] - lo) * nodes).ravel())
        for i, ys in zip(live, _step_values(f, [pieces[i][2] for i in live], xs)):
            if not np.isfinite(ys).all():
                outcomes[i] = QuadratureError("integrand returned a non-finite value")
                continue
            values = [complex((hi - lo) * np.dot(weights, ys[k * n:(k + 1) * n]))
                      for k, (lo, hi) in enumerate(wants[i])]
            try:
                wants[i] = runs[i].send(values)
            except StopIteration as stop:
                outcomes[i] = stop.value
            except QuadratureError as exc:
                outcomes[i] = exc
        for out in outcomes:
            if out is None:
                break
            if isinstance(out, QuadratureError):
                raise out
        else:
            return outcomes


def integrate_interval(f, a: float, b: float) -> QuadResult:
    """Integrate ``f`` over the finite interval (a, b).

    Globally adaptive: the worst cell (by the coarse-vs-bisected difference) is
    bisected until the summed error estimate meets the tolerance.  Raises
    :class:`QuadratureError` after ``MAX_SUBDIV`` bisections, which usually
    signals a singular or highly oscillatory integrand beyond the budget.
    """
    return _lockstep(f, [(a, b, None)])[0]


def integrate_halfline(f, decay_scale: float = 1.0) -> QuadResult:
    """Integrate ``f`` over (0, inf) assuming decay on the given scale.

    The line is split at ``T = HALFLINE_TRUNCATION * decay_scale``; the tail
    is pulled back to (0, 1) through ``t = T + u/(1-u)``, which regularises
    exponential decay and algebraic decay of order > 1.  A tail that fails to
    settle (decay slower than assumed) surfaces as a :class:`QuadratureError`.
    The head on (0, T) and the tail are refined in lockstep, each to its own
    tolerance; a failing head is reported before a failing tail.
    """
    if decay_scale <= 0:
        raise ValueError("decay_scale must be positive")
    T = HALFLINE_TRUNCATION * decay_scale
    head, tail = _lockstep(f, [(0.0, T, None), (0.0, 1.0, T)])
    return QuadResult(
        head.value + tail.value,
        head.error + tail.error,
        head.subdivisions + tail.subdivisions,
    )
