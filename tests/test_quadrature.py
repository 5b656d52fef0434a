"""Quadrature engine: anchors from antiderivative oracles, then properties.

The integrators run at the module constants of ``hsob.quadrature``; a test
that needs another setting patches them, and the reference loops here read
them too.
"""

import heapq
import math

import numpy as np
import pytest

from hsob import (
    QuadratureError,
    integrate_halfline,
    integrate_interval,
    quadrature,
)
from hsob.expfamily import sample_exppoly
from hsob.kernel import _p_eval
from hsob.quadrature import HALFLINE_TRUNCATION, _gl_rule
from hsob.timespace import exp_series_remainder

# Oracle: d/dt [ (arctan t - t/(1+t^2)) / 2 ] = t^2/(1+t^2)^2, so the
# half-line integral is the limit pi/4.
HALFLINE_RATIONAL = math.pi / 4


def set_constants(monkeypatch, cfg):
    """Patch the module constants in ``cfg``, e.g. ``{"ABS_TOL": 1e-12}``, for
    the rest of the test."""
    for name, value in cfg.items():
        monkeypatch.setattr(quadrature, name, value)


class TestInterval:
    def test_constant(self):
        r = integrate_interval(lambda t: np.ones_like(t), 0.0, 1.0)
        assert abs(r.value - 1.0) < 1e-12

    def test_sine(self):
        r = integrate_interval(np.sin, 0.0, math.pi)
        assert abs(r.value - 2.0) < 1e-12

    def test_rational_tail_oracle(self):
        f = lambda t: t**2 / (1 + t**2) ** 2
        r = integrate_halfline(f, 1.0)
        assert abs(r.value - HALFLINE_RATIONAL) < 1e-10

    def test_error_estimate_honoured(self, monkeypatch):
        set_constants(monkeypatch, {"ABS_TOL": 1e-12, "REL_TOL": 1e-12})
        r = integrate_interval(lambda t: np.exp(-t) * np.sin(7 * t), 0.0, 10.0)
        exact = 7.0 / 50.0 * (1.0 - math.exp(-10) * (math.cos(70) + math.sin(70) / 7.0))
        assert abs(r.value - exact) <= 1e-10

    def test_complex_integrand(self):
        r = integrate_interval(lambda t: np.exp(1j * t), 0.0, math.pi / 2)
        assert abs(r.value - (1.0 + 1j)) < 1e-12

    def test_zero_error_estimate_is_positive_zero(self):
        # every cell of sin over (0, pi) estimates 0: report +0.0, not -0.0
        r = integrate_interval(np.sin, 0.0, math.pi)
        assert math.copysign(1.0, r.error) == 1.0

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            integrate_interval(np.sin, 1.0, 0.0)

    def test_nan_integrand(self):
        with pytest.raises(QuadratureError):
            integrate_interval(lambda t: np.full_like(t, np.nan), 0.0, 1.0)

    def test_nonconvergence_signal(self, monkeypatch):
        set_constants(monkeypatch, {"MAX_SUBDIV": 9, "ABS_TOL": 1e-14, "REL_TOL": 1e-14})
        with pytest.raises(QuadratureError):
            integrate_interval(lambda t: 1.0 / np.sqrt(t), 1e-300, 1.0)


def _gl_cell(f, a, b, nodes, weights):
    """One Gauss-Legendre cell, evaluated by a call of ``f`` of its own."""
    xs = a + (b - a) * nodes
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ys = np.asarray(f(xs), dtype=complex)
    if not np.all(np.isfinite(ys.view(float))):
        raise QuadratureError("integrand returned a non-finite value")
    return complex((b - a) * np.dot(weights, ys))


def resumming_integrate(f, a, b):
    """The adaptive loop that sums every cell's value and error on each step.

    A test-only reference for :func:`integrate_interval`, which evaluates all
    the cells of a step in one call; that may change no value, error or
    bisection count by a bit.  Here each cell is one call of ``f``.  It reads
    the module constants when it runs, as the engine does.
    """
    nodes, weights = _gl_rule(quadrature.NODES_PER_CELL)

    def make_cell(lo, hi, coarse):
        mid = 0.5 * (lo + hi)
        left = _gl_cell(f, lo, mid, nodes, weights)
        right = _gl_cell(f, mid, hi, nodes, weights)
        fine = left + right
        return (-abs(coarse - fine), lo, hi, fine, left, right)

    heap = [make_cell(a, b, _gl_cell(f, a, b, nodes, weights))]
    nsub = 1
    while True:
        total = sum(c[3] for c in heap)
        total_err = sum(-c[0] for c in heap)
        if total_err <= max(quadrature.ABS_TOL, quadrature.REL_TOL * abs(total)):
            return total, total_err, nsub
        if nsub >= quadrature.MAX_SUBDIV:
            raise QuadratureError(
                f"interval rule did not converge after {nsub} subdivisions "
                f"(error estimate {total_err:.3e})"
            )
        _, lo, hi, _, left, right = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        heapq.heappush(heap, make_cell(lo, mid, left))
        heapq.heappush(heap, make_cell(mid, hi, right))
        nsub += 2


def _halfline_pieces(f, decay_scale):
    """(integrand, a, b) of the half-line's head on (0, T) and of its tail
    pulled back to (0, 1) through t = T + u/(1-u)."""
    T = HALFLINE_TRUNCATION * decay_scale

    def tail(u):
        u = np.asarray(u, dtype=float)
        return np.asarray(f(T + u / (1.0 - u)), dtype=complex) / (1.0 - u) ** 2

    return (f, 0.0, T), (tail, 0.0, 1.0)


def sequential_halfline(f, decay_scale):
    """The half-line as :func:`resumming_integrate` on the head, then on the
    tail.  A test-only reference for :func:`integrate_halfline`, which refines
    the two in lockstep and must raise the failure this order raises."""
    (hv, he, hn), (tv, te, tn) = (resumming_integrate(g, a, b)
                                  for g, a, b in _halfline_pieces(f, decay_scale))
    return hv + tv, he + te, hn + tn


def _outcome(integrate, *args):
    """(value, error, subdivisions), or the failure message, as a string."""
    try:
        r = integrate(*args)
    except QuadratureError as exc:
        return str(exc)
    return repr(tuple(r) if isinstance(r, tuple) else (r.value, r.error, r.subdivisions))


def _kernel_integrand(n, a, b):
    # kernel_eval_quadrature's Duffy integrand at unit scale
    return lambda u: _p_eval(n, u) * (1.0 / (a + u * b) + 1.0 / (b + u * a))


def _shallow(t):
    return np.exp(3j * t) / (0.05 + (t - 0.4) ** 2)


def _wide(t):
    # on (0, 50) it spends MAX_SUBDIV with about two thousand cells in the heap
    return np.cos(3000.0 * t) * np.exp(t)


class TestRunningTotals:
    """The engine against :func:`resumming_integrate`, outcome for outcome."""

    @pytest.mark.parametrize("cfg, f, b", [
        pytest.param({}, _shallow, 2.0, id="cfg0"),
        pytest.param({"ABS_TOL": 1e-14, "REL_TOL": 1e-14}, _shallow, 2.0, id="cfg1"),
        pytest.param({"ABS_TOL": 1e-6, "REL_TOL": 1e-3, "NODES_PER_CELL": 7}, _shallow, 2.0,
                     id="cfg2"),
        pytest.param({"ABS_TOL": 1e-15, "REL_TOL": 1e-15, "MAX_SUBDIV": 3}, _shallow, 2.0,
                     id="cfg3"),
        pytest.param({}, _wide, 50.0, id="wide_heap_failure"),
    ])
    def test_shallow_integrand_matches_resumming_loop(self, monkeypatch, cfg, f, b):
        set_constants(monkeypatch, cfg)
        want = _outcome(resumming_integrate, f, 0.0, b)
        assert _outcome(integrate_interval, f, 0.0, b) == want

    def test_deep_kernel_integrand_matches_resumming_loop(self):
        # the Duffy integrand of K_8(1e-300, 1) at unit scale, unmapped over
        # (0, 1): about a thousand bisections, a deeper heap than
        # kernel_eval_quadrature builds, since it maps the head logarithmically
        f = _kernel_integrand(8, complex(1e-300), complex(1.0).conjugate())
        value, error, nsub = resumming_integrate(f, 0.0, 1.0)
        assert nsub > 500
        assert _outcome(integrate_interval, f, 0.0, 1.0) == repr((value, error, nsub))


class _Counting:
    """An integrand that counts its calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, t):
        self.calls += 1
        return self.f(t)


def _steps(nsub):
    # the first step evaluates three cells, each later one bisects a cell
    return 1 + (nsub - 1) // 2


class TestLockstep:
    """One integrand call per step, and the outcomes of one call per cell."""

    @pytest.mark.parametrize("cfg", [
        {},
        {"ABS_TOL": 1e-14, "REL_TOL": 1e-14},
        {"ABS_TOL": 1e-6, "REL_TOL": 1e-3, "NODES_PER_CELL": 7},
    ])
    def test_interval_calls_f_once_per_step(self, monkeypatch, cfg):
        set_constants(monkeypatch, cfg)
        f = _Counting(lambda t: np.exp(3j * t) / (0.05 + (t - 0.4) ** 2))
        r = integrate_interval(f, 0.0, 2.0)
        assert r.subdivisions > 3
        assert f.calls == _steps(r.subdivisions)

    def test_halfline_calls_f_once_per_lockstep_step(self):
        g = lambda t: np.cos(3 * t) / (1 + t**2) ** 2
        head, tail = (resumming_integrate(*piece) for piece in _halfline_pieces(g, 1.0))
        f = _Counting(g)
        r = integrate_halfline(f, 1.0)
        assert r.subdivisions == head[2] + tail[2]
        assert _steps(head[2]) != _steps(tail[2])
        assert f.calls == max(_steps(head[2]), _steps(tail[2]))

    # seeds 48, 53, 104, 137 and 144 each put a lone node of some cell into
    # E_n's rule branch: the reference evaluates that cell alone, the engine
    # evaluates it with the rest of its step
    @pytest.mark.parametrize("seed", [0, 1, 2, 48, 53, 104, 137, 144])
    def test_seeded_exppoly_halflines_match_sequential_runs(self, seed):
        rng = np.random.default_rng(seed)
        for n in (2, 3, 4):
            f = sample_exppoly(rng, level=n)
            w = complex(rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0))
            fn, scale = f.derivative(n), 0.5 * f.decay_scale()
            # a time-side norm integrand and the time side of verify reproduce
            for g in (lambda t: t ** (2 * n) * np.abs(fn(t)) ** 2,
                      lambda t: t**n * fn(t) * (-1) ** n * exp_series_remainder(n, w * t)):
                want = _outcome(sequential_halfline, g, scale)
                assert _outcome(integrate_halfline, g, scale) == want

    @pytest.mark.parametrize("f, failing", [
        # a singular head exhausts its budget while the exponential tail settles
        (lambda t: np.exp(-t) / np.sqrt(t), "head"),
        # a smooth head settles while the slowly decaying tail does not
        (lambda t: (1.0 + t) ** -1.1, "tail"),
    ])
    def test_one_failing_piece_matches_sequential_runs(self, monkeypatch, f, failing):
        set_constants(monkeypatch, {"MAX_SUBDIV": 15})
        head, tail = (_outcome(resumming_integrate, *piece) for piece in _halfline_pieces(f, 1.0))
        fails = {"head": head, "tail": tail}[failing]
        settles = {"head": tail, "tail": head}[failing]
        assert fails.startswith("interval rule did not converge")
        assert settles.startswith("(")
        assert _outcome(integrate_halfline, f, 1.0) == fails
        assert _outcome(sequential_halfline, f, 1.0) == fails

    def test_head_failure_wins_over_non_finite_tail(self, monkeypatch):
        # the head exhausts its budget; exp overflows on the tail's first step
        f = lambda t: 1.0 / np.sqrt(t) + np.exp(t - 40.0)
        set_constants(monkeypatch, {"MAX_SUBDIV": 9})
        head, tail = (_outcome(resumming_integrate, *piece) for piece in _halfline_pieces(f, 1.0))
        assert tail == "integrand returned a non-finite value"
        assert head.startswith("interval rule did not converge")
        assert _outcome(integrate_halfline, f, 1.0) == head

    @pytest.mark.parametrize("f", [lambda t: 1.0, lambda t: np.ones(3), lambda t: t[:-1],
                                   lambda t: np.ones((len(t), 1))])
    def test_integrand_of_another_shape_is_a_type_error(self, f):
        # no node-by-node retry: one TypeError that names the contract
        for integrate, args in ((integrate_interval, (0.0, 2.0)), (integrate_halfline, (1.0,))):
            with pytest.raises(TypeError, match="same shape"):
                integrate(f, *args)

    @pytest.mark.parametrize("error", [TypeError, ValueError, ZeroDivisionError])
    def test_integrand_exception_propagates_after_one_call(self, error):
        # the integrand's own exception reaches the caller from its first
        # call, which is on an array, and is not retried
        calls = []

        def f(t):
            calls.append(np.shape(t))
            raise error("from the integrand")

        for integrate, args in ((integrate_interval, (0.0, 2.0)), (integrate_halfline, (1.0,))):
            calls.clear()
            with pytest.raises(error, match="from the integrand"):
                integrate(f, *args)
            assert len(calls) == 1 and calls[0] != ()


class TestRules:
    def test_rules_are_cached_and_read_only(self):
        nodes, weights = _gl_rule(15)
        assert _gl_rule(15)[0] is nodes
        for arr in (nodes, weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestHalfline:
    def test_exponential(self):
        r = integrate_halfline(lambda t: np.exp(-2 * t), 0.5)
        assert abs(r.value - 0.5) < 1e-11

    def test_gamma_moment(self):
        # Gamma(3)/2^3
        r = integrate_halfline(lambda t: t**2 * np.exp(-2 * t), 0.5)
        assert abs(r.value - 0.25) < 1e-11

    def test_folded_lorentzian(self):
        # (1/2pi) * full-line 1/(1+t^2) = 1/2, arctan oracle, folded
        r = integrate_halfline(lambda t: 1.0 / (1 + t**2) / math.pi, 1.0)
        assert abs(r.value - 0.5) < 1e-10

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            integrate_halfline(lambda t: np.exp(-t), 0.0)


class TestProperties:
    def test_linearity(self):
        f = lambda t: np.exp(-t)
        g = lambda t: t / (1 + t**2) ** 2
        a, b = 2.5, -1.25 + 0.5j
        lhs = integrate_halfline(lambda t: a * f(t) + b * g(t), 1.0)
        rhs = a * integrate_halfline(f, 1.0).value + b * integrate_halfline(g, 1.0).value
        tol = 10 * max(quadrature.ABS_TOL, quadrature.REL_TOL * abs(rhs))
        assert abs(lhs.value - rhs) <= tol

    @pytest.mark.parametrize("integrand", [
        lambda t: np.sin(3 * t),
        lambda t: t**2 / (1 + t**2) ** 2,
    ])
    def test_refinement_monotonicity(self, monkeypatch, integrand):
        # halving ABS_TOL never increases the reported error estimate
        errs = []
        for tol in (1e-6, 5e-7, 2.5e-7, 1.25e-7):
            set_constants(monkeypatch, {"ABS_TOL": tol, "REL_TOL": 1e-15})
            errs.append(integrate_interval(integrand, 0.0, 20.0).error)
        assert all(e2 <= e1 * (1 + 1e-12) for e1, e2 in zip(errs, errs[1:]))

