"""Boundary norms, the transform isometry, derivative identities, point bounds.

The point bound is a test oracle (``oracles.py``).
"""

import math

import numpy as np
import pytest

from hsob import (
    ExpPoly,
    HnNormReport,
    RationalComb,
    freqspace,
    hardy_constant,
    hn_norm,
    integrate_halfline,
    laplace,
    laplace_derivative_identity_check,
    sample_exppoly,
    verify,
)
from oracles import point_bound_check


class TestH2Norm:
    """The plain Hardy-space norm: the boundary route of the order-0 norm."""

    def test_kernel_function_norms(self):
        # ||1/(z+w)||_2 = 1/sqrt(2 Re w)
        e1, e2 = ExpPoly.exponential(1.0), ExpPoly.exponential(2.0)
        assert abs(hn_norm(laplace(e1), 0).norm_boundary - 1 / math.sqrt(2)) < 1e-9
        assert abs(hn_norm(laplace(e2), 0).norm_boundary - 0.5) < 1e-9

    def test_zero(self):
        assert hn_norm(RationalComb(), 0).norm_boundary == 0.0


class TestHnNorm:
    def test_order_one_arctan_oracle(self):
        # (1/2pi) int t^2/(1+t^2)^2 dt over R = 1/4, so the norm is 1/2,
        # matching the exact exponential-norm formula
        rep = hn_norm(laplace(ExpPoly.exponential(1.0)), 1)
        assert abs(rep.norm_exact - 0.5) < 1e-14
        assert abs(rep.norm_boundary - 0.5) < 1e-8
        assert rep.residual < 1e-8

    def test_order_zero_is_plain_norm(self):
        rep = hn_norm(laplace(ExpPoly.exponential(1.0)), 0)
        assert abs(rep.norm_exact - 1 / math.sqrt(2)) < 1e-14

    def test_double_pole_time_oracle(self):
        # ||t e^{-2t}||_0 = sqrt(Gamma(3)/4^3)
        rep = hn_norm(laplace(ExpPoly.monomial(1.0, 1, 2.0)), 0)
        assert abs(rep.norm_exact - math.sqrt(2 / 64)) < 1e-14
        assert rep.residual < 1e-7

    def test_zero_function(self):
        rep = hn_norm(RationalComb(), 3)
        assert rep.norm_exact == rep.norm_boundary == rep.residual == 0.0


class TestDerivativeIdentities:
    def test_k0_trivial(self):
        f = ExpPoly.exponential(1.0)
        assert laplace_derivative_identity_check(f, 2, 0, 1.5 + 0.5j) == 0.0

    def test_k1_example(self):
        # -z (Lf)'(z) at z=1 is 1/4; the expansion gives 1/2 - 1/4
        f = ExpPoly.exponential(1.0)
        F = laplace(f)
        assert abs(-1.0 * F.derivative()(1.0) - 0.25) < 1e-15
        assert abs(laplace(f)(1.0) + laplace(f.derivative().times_power(1))(1.0) - 0.25) < 1e-15
        assert laplace_derivative_identity_check(f, 1, 1, 1.0) < 1e-15

    def test_random_residuals_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            f = sample_exppoly(rng)
            n = int(rng.integers(0, 4))
            k = int(rng.integers(0, n + 1))
            z = complex(rng.uniform(0.2, 3.0), rng.uniform(-3.0, 3.0))
            assert laplace_derivative_identity_check(f, n, k, z) <= 1e-12

    def test_domain_checks(self):
        f = ExpPoly.exponential(1.0)
        with pytest.raises(ValueError):
            laplace_derivative_identity_check(f, 1, 2, 1.0)
        with pytest.raises(ValueError):
            laplace_derivative_identity_check(f, 1, 1, -1.0)

    @pytest.mark.parametrize("z", [complex(1, math.nan), complex(math.nan, 1), complex(1, math.inf),
                                   math.inf, 0.0, 1j])
    def test_point_off_the_halfplane_is_refused(self, z):
        # 1+nanj passes a bare Re z > 0 test and would return a nan residual
        f = ExpPoly.exponential(1.0)
        with pytest.raises(ValueError, match="z must"):
            laplace_derivative_identity_check(f, 1, 1, z)


class TestPaleyWiener:
    def test_anchor_cases(self):
        F = laplace(ExpPoly.exponential(1.0))
        assert hn_norm(F, 1).residual <= 1e-8
        assert hn_norm(F, 0).residual <= 1e-8

    def test_mixed_sample(self):
        f = ExpPoly.exponential(1.0) + 2.0 * ExpPoly.monomial(1.0, 1, 3.0)
        assert hn_norm(laplace(f), 2).residual <= 1e-6

    @pytest.mark.parametrize("n", range(5))
    def test_random_isometry(self, n):
        report = verify.run("paley-wiener", n, seed=200 + n, samples=10)
        assert report["samples"] == 10 and report["max_residual"] <= 1e-6

    def test_residual_is_the_relative_gap_of_the_two_routes(self):
        rng = np.random.default_rng(19)
        for n in range(4):
            rep = hn_norm(laplace(sample_exppoly(rng, level=n)), n)
            assert rep.residual == abs(rep.norm_exact - rep.norm_boundary) / rep.norm_exact
        # the zero function: no relative gap, so the boundary norm itself
        assert hn_norm(RationalComb(), 2).residual == 0.0
        assert HnNormReport(2, 0.0, 3e-17).residual == 3e-17

    @pytest.mark.parametrize("n", [0, 3])
    def test_one_halfline_run_per_nonzero_sample(self, monkeypatch, n):
        # the time side is exact algebra; only the boundary norm integrates
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate_halfline(*args, **kwargs)

        monkeypatch.setattr(freqspace, "integrate_halfline", counting)
        report = verify.run("paley-wiener", n, seed=7, samples=6)
        assert len(calls) == sum(1 for case in report["cases"] if case["terms"]) == 6
        assert {key for case in report["cases"] for key in case} == {
            "sample", "terms", "residual", "n", "norm_exact", "norm_boundary"}


class TestMonotoneEmbedding:
    def test_boundary_norms_respect_level_constants(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            f = sample_exppoly(rng)
            F = laplace(f)
            norms = [hn_norm(F, n).norm_exact for n in range(5)]
            for n in range(5):
                for k in range(n + 1):
                    c = hardy_constant(n - k) if n > k else 1.0
                    assert norms[k] <= c * norms[n] * (1 + 1e-12)


class TestPointBound:
    def test_order_one_margin(self):
        F = laplace(ExpPoly.exponential(1.0))
        # bound pi/4 against |F(1)|^2 = 1/4
        margin = point_bound_check(F, 1, 1.0)
        assert abs(margin - (math.pi / 4 - 0.25)) < 1e-12

    def test_far_point(self):
        F = laplace(ExpPoly.exponential(1.0))
        margin = point_bound_check(F, 1, 100.0)
        assert margin >= 0
        assert abs(margin - (math.pi * 0.25 / 100 - abs(1 / 101.0) ** 2)) < 1e-12

    def test_order_two_analogue(self):
        # 2/(z+1)^3 is the transform of t^2 e^{-t}
        F = laplace(ExpPoly.monomial(1.0, 2, 1.0))
        for z in (0.5, 1.0, 2.0 + 1.0j, 30.0):
            assert point_bound_check(F, 2, z) >= 0

    def test_random_margins(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            f = sample_exppoly(rng)
            n = int(rng.integers(1, 5))
            z = complex(rng.uniform(0.1, 5.0), rng.uniform(-4.0, 4.0))
            assert point_bound_check(laplace(f), n, z) >= -1e-12
