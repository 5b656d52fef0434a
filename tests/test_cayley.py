"""Disc transfer: the conformal map, circle norms, the order-1 norm equality."""

import math

import numpy as np
import pytest

from hsob import (
    DiscFunction,
    ExpPoly,
    RationalComb,
    cayley,
    cayley_inverse,
    disc_h2_norm,
    disc_membership_report,
    laplace,
    norm_equality_check,
    sample_exppoly,
    verify,
)


class TestCayleyMap:
    def test_fixed_values(self):
        assert cayley(0.0) == 1.0
        assert cayley_inverse(1.0) == 0.0
        assert abs(cayley(0.5) - 3.0) < 1e-15
        # boundary-to-boundary: i maps to i
        assert abs(cayley(1j) - 1j) < 1e-15

    def test_mutual_inverse(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            lam = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            if abs(lam) >= 1:
                continue
            z = cayley(lam)
            assert z.real > 0
            assert abs(cayley_inverse(z) - lam) < 1e-12


class TestDiscNorm:
    def test_constant(self):
        assert abs(disc_h2_norm(lambda lam: np.ones_like(lam)) - 1.0) < 1e-10

    def test_linear_oracle(self):
        # (1/2pi) int |1 + e^{i a}|^2 da = 2
        assert abs(disc_h2_norm(lambda lam: 1.0 + lam) - math.sqrt(2)) < 1e-10

    @pytest.mark.parametrize("k", (1, 3, 8))
    def test_monomials_orthonormal(self, k):
        assert abs(disc_h2_norm(lambda lam: lam**k) - 1.0) < 1e-9


class TestNormEquality:
    def test_closed_form_case(self):
        # F = 1/(z+1): F_D = (1-lam)/2, so both sides are sqrt(2)/2 exactly
        F = laplace(ExpPoly.exponential(1.0))
        FD = DiscFunction(F)
        assert abs(FD(0.25) - (1 - 0.25) / 2) < 1e-14
        lhs, rhs, res = norm_equality_check(F)
        assert abs(lhs - math.sqrt(2) / 2) < 1e-12
        assert abs(rhs - math.sqrt(2) / 2) < 1e-12
        assert res < 1e-12

    def test_shifted_pole(self):
        _, _, res = norm_equality_check(laplace(ExpPoly.exponential(2.0)))
        assert res <= 1e-8

    def test_zero(self):
        assert norm_equality_check(RationalComb()) == (0.0, 0.0, 0.0)

    def test_random_samples(self):
        report = verify.run("cayley", seed=14, samples=20)
        assert report["samples"] == 20 and report["max_residual"] <= 1e-7


class TestMembershipTransfer:
    def test_rational_images_stay_in_disc_space(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            F = laplace(sample_exppoly(rng, max_terms=2, max_power=1, level=1))
            report = disc_membership_report(F)
            for value in report.values():
                assert math.isfinite(value)

    def test_derivative_chain_rule(self):
        # F_D'(lam) = F'(gamma(lam)) * 2/(1-lam)^2, spot-checked numerically
        F = laplace(ExpPoly.monomial(1.0, 1, 1.5))
        FD = DiscFunction(F)
        lam = 0.3 + 0.2j
        h = 1e-6
        fd = (FD(lam + h) - FD(lam - h)) / (2 * h)
        assert abs(FD.derivative(lam) - fd) < 1e-7

    def test_second_derivative_chain_rule(self):
        F = laplace(ExpPoly.monomial(1.0, 1, 1.5))
        FD = DiscFunction(F)
        lam = 0.2 - 0.25j
        h = 1e-4
        fd = (FD(lam + h) - 2 * FD(lam) + FD(lam - h)) / h**2
        assert abs(FD.second_derivative(lam) - fd) < 1e-5
