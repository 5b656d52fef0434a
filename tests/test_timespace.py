"""Repeated integration, the Hardy-type inequality, the g family, point bounds.

The g family, W^-n of a callable and the point bounds are test oracles
(``oracles.py``).
"""

import math

import numpy as np
import pytest

from hsob import (
    ExpPoly,
    exp_series_remainder,
    hardy_constant,
    kernel_eval_closed,
    norm_n,
    verify,
    w_minus_exp,
)
from hsob.timespace import _e_n_rule
from oracles import GFunction, point_estimate_check, point_estimate_constant, w_minus


class TestWMinus:
    def test_single_integration_of_exponential(self):
        e1 = ExpPoly.exponential(1.0)
        for t in (0.0, 0.5, 2.0):
            assert abs(w_minus(e1, 1, t) - math.exp(-t)) < 1e-14

    def test_double_integration_at_zero(self):
        # int_0^inf s e^{-s} ds = Gamma(2) = 1
        assert abs(w_minus(ExpPoly.exponential(1.0), 2, 0.0) - 1.0) < 1e-14

    def test_derivative_relation(self):
        # (W^-2 f)' = -W^-1 f at sampled t
        f = ExpPoly(((1.0, 1, 1.5), (0.5, 0, 0.7)))
        lhs = w_minus_exp(f, 2).derivative()
        rhs = -1.0 * w_minus_exp(f, 1)
        for t in (0.1, 1.0, 4.0):
            assert abs(lhs(t) - rhs(t)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 5))
    def test_inverts_differentiation(self, n):
        # (-1)^n (W^-n phi)^(n) = phi, exact in the algebra
        phi = ExpPoly(((2.0, 2, 1.0), (1.0 - 0.5j, 0, 2.0 + 1.0j)))
        recovered = (-1.0) ** n * w_minus_exp(phi, n).derivative(n)
        diff = recovered - phi
        for t in (0.2, 1.0, 3.0):
            assert abs(diff(t)) < 1e-10

    def test_callable_route_matches_exact(self):
        f = ExpPoly.monomial(1.0, 1, 2.0)
        exact = w_minus(f, 2, 0.5)
        numeric = w_minus(lambda t: t * np.exp(-2 * t), 2, 0.5, decay_scale=0.5)
        assert abs(exact - numeric) < 1e-9

    def test_insufficient_decay_signals(self):
        from hsob import QuadratureError

        with pytest.raises(QuadratureError):
            w_minus(lambda t: 1.0 / (1.0 + t), 2, 0.5, decay_scale=1.0)


class TestHardyInequality:
    def test_constants(self):
        assert hardy_constant(1) == 2.0
        # Gamma(5/2) = 3 sqrt(pi)/4
        assert abs(hardy_constant(2) - 4 / 3) < 1e-15

    def test_exponential_example(self):
        # int (W^-1 e^{-t})^2 = 1/2 <= 4 int (t e^{-t})^2 = 1
        phi = ExpPoly.exponential(1.0)
        w1 = w_minus_exp(phi, 1)
        lhs = (w1 * w1).integral().real
        rhs = hardy_constant(1) ** 2 * (phi.times_power(1) * phi.times_power(1)).integral().real
        assert abs(lhs - 0.5) < 1e-14
        assert abs(rhs - 1.0) < 1e-14
        assert lhs <= rhs

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_random_positive_samples(self, m):
        # the violation is lhs - rhs, so a pass holds the inequality without slack
        report = verify.run("hardy-ineq", m, seed=40 + m, samples=50)
        assert report["samples"] == 50 and report["max_residual"] <= 0.0


class TestGFunction:
    def test_weighted_derivative_low_order(self):
        # t g'_{w,1}(t) = -(1 - e^{-wt})/(wt); oracle: integral of e^{-s} on (0,1)
        g = GFunction(1.0, 1)
        assert abs(g.weighted_derivative(1.0) - (-(1 - math.exp(-1)))) < 1e-14

    def test_series_vs_remainder_forms(self):
        # both sides of the E_n switchover agree (oracle: long direct series)
        for n in (1, 3, 6):
            for x in (11.5 + 0.5j, 12.5 - 1.0j, 11.9, 12.1):
                series = sum((-x) ** m / math.factorial(n + m) for m in range(120))
                assert abs(exp_series_remainder(n, x) - series) < 1e-10 * abs(series)

    def test_accuracy_map_against_mpmath(self):
        # E_n(x) = int_0^1 (1-s)^(n-1)/(n-1)! e^(-xs) ds = 1F1(1; n+1; -x)/n!
        # (Kummer's integral), by mpmath at 40 digits, over the whole range the
        # kernel side reaches, both sides of |x| = 12, and the zeros x = 2 pi i k
        # of E_1 approached from the right half-plane
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for n, x in ((1, 3 + 4j), (4, 0.5 + 11.9j), (8, 30 - 20j)):
                integral = mp.quad(lambda s: (1 - s) ** (n - 1) * mp.exp(-mp.mpc(x) * s),
                                   mp.linspace(0, 1, 9)) / mp.factorial(n - 1)
                assert abs(mp.hyp1f1(1, n + 1, -x) / mp.factorial(n) - integral) < 1e-30
            moduli = np.concatenate((np.geomspace(1e-3, 1e3, 25),
                                     [11.99, 12.0, 12.01, 2 * math.pi, 4 * math.pi]))
            half = math.pi / 2 - 1e-3
            args = np.concatenate((np.linspace(-half, half, 11), [-half + 1e-4, half - 1e-4]))
            xs = (moduli[:, None] * np.exp(1j * args)[None, :]).ravel()
            for n in range(1, 17):
                ref = np.array([complex(mp.hyp1f1(1, n + 1, -mp.mpc(x)) / mp.factorial(n))
                                for x in xs])
                rel = np.abs(exp_series_remainder(n, xs) - ref) / np.abs(ref)
                assert rel.max() <= 5e-14, (n, xs[rel.argmax()], rel.max())

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_value_does_not_depend_on_the_batch(self, n):
        # a quadrature evaluates E_n on cells of any size, mixing points on both
        # sides of |x| = 12, so a lone point of the rule branch must not round
        # otherwise than a point among others
        rng = np.random.default_rng(n)
        xs = rng.uniform(0.0, 24.0, 90) * np.exp(1j * rng.uniform(-1.5, 1.5, 90))
        batch = exp_series_remainder(n, xs)
        for size in (1, 2, 7, 15):
            parts = [exp_series_remainder(n, xs[i:i + size]) for i in range(0, len(xs), size)]
            assert np.array_equal(np.concatenate(parts), batch)
        assert [exp_series_remainder(n, x) for x in xs] == list(batch)

    def test_rule_weights_are_cached_and_read_only(self):
        nodes, weights = _e_n_rule(3)
        assert _e_n_rule(3)[1] is weights
        assert not nodes.flags.writeable and not weights.flags.writeable
        # the weights integrate (1-s)^(n-1)/(n-1)! exactly: E_n(0) = 1/n!
        assert abs(weights.sum() - 1 / 6) < 1e-15

    def test_norm_bound_on_log_polar_grid(self):
        for r in (0.1, 1.0, 10.0):
            for theta in (-1.2, 0.0, 1.2):
                w = r * complex(math.cos(theta), math.sin(theta))
                for n in (1, 2, 3, 4):
                    g = GFunction(w, n)
                    assert g.norm() * math.sqrt(w.real) <= 2 * math.log(2) * (1 + 1e-9)

    def test_eval_matches_integration_operator(self):
        # g = W^-n applied to the inner-profile; cross-check one point
        n, w, t = 2, 1.5, 0.8
        g = GFunction(w, n)
        profile = lambda s: s ** (-n) * exp_series_remainder(n, s * w)
        direct = w_minus(profile, n, t, decay_scale=2.0)
        assert abs(g(t) - direct) < 1e-9

    def test_laplace_transform_hits_kernel(self):
        # int_0^inf g_{1,1}(t) e^{-t} dt equals the order-1 kernel at (1, 1).
        # Each g(t) is a half-line quadrature; the outer integral takes the
        # exp-sinh rule t = exp(pi/2 sinh s) (Takahasi-Mori), step 1/8 on
        # s in [-3.5, 3], whose 53 nodes absorb g's log singularity at 0
        # that defeats Gauss-Laguerre (3e-11 off; integrate_halfline as the
        # outer rule, at its one tolerance, takes 1590 calls of g)
        g = GFunction(1.0, 1)
        s = np.arange(-28, 25) / 8
        t = np.exp(math.pi / 2 * np.sinh(s))
        weights = math.pi / 16 * np.cosh(s) * t * np.exp(-t)
        val = sum(w * g(float(tt)) for w, tt in zip(weights, t))
        assert abs(val - kernel_eval_closed(1, 1.0, 1.0)) < 1e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            GFunction(-1.0, 1)
        with pytest.raises(ValueError):
            GFunction(1.0, 0)


class TestPointEstimate:
    def test_constant_low_orders(self):
        # B(1, 1) = 1 at (n, k) = (1, 0)
        assert point_estimate_constant(1, 0) == 1.0
        with pytest.raises(ValueError):
            point_estimate_constant(2, 2)

    def test_bound_holds_on_examples(self):
        e1 = ExpPoly.exponential(1.0)
        for t in (0.1, 1.0, 10.0):
            assert point_estimate_check(e1, 1, 0, t) >= 0
        f = ExpPoly.monomial(1.0, 1, 2.0)
        assert point_estimate_check(f, 2, 1, 0.5) >= 0

    def test_bound_holds_on_random_samples(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            f = ExpPoly(tuple(
                (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), int(rng.integers(0, 3)),
                 complex(rng.uniform(0.4, 2.0), rng.uniform(-1.0, 1.0)))
                for _ in range(2)
            ))
            n = int(rng.integers(1, 5))
            k = int(rng.integers(0, n))
            t = float(rng.uniform(0.05, 20.0))
            assert point_estimate_check(f, n, k, t) >= -1e-12

    def test_scaling_exponent(self):
        # the bound scales exactly like t^(-k-1/2): log-log slope test
        f = ExpPoly.exponential(1.0)
        n, k = 3, 1
        c = point_estimate_constant(n, k) * norm_n(f, n)
        t1, t2 = 0.5, 50.0
        slope = (math.log(c * t2 ** (-k - 0.5)) - math.log(c * t1 ** (-k - 0.5))) / (
            math.log(t2) - math.log(t1)
        )
        assert abs(slope - (-k - 0.5)) < 1e-12
