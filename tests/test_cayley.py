"""Disc transfer: the conformal map, circle norms, the order-1 norm equality."""

import importlib
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
from hsob.cayley import CIRCLE_CACHE_SIZE, DISC_NODES, MIN_DISC_NODES, _sized_nodes
from oracles import disc_norm_per_circle

# the package exports a function named cayley, which shadows the module
cayley_module = importlib.import_module("hsob.cayley")


def _weighted_derivative(F):
    FD = DiscFunction(F)
    return lambda lam: (1.0 + lam) * FD.derivative(lam)


def _verify_draws(seed, count):
    """``count`` rational images of verify cayley's sample distribution."""
    rng = np.random.default_rng(seed)
    return [laplace(sample_exppoly(rng, max_terms=3, max_power=2, level=1)) for _ in range(count)]


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

    def test_array_is_elementwise(self):
        lam = np.array([0.0, 0.5, 1j, -0.3 + 0.4j])
        z = cayley(lam)
        assert z.dtype == complex and z.shape == lam.shape
        # numpy's complex division may round differently from Python's
        assert np.allclose(z, [cayley(complex(p)) for p in lam], rtol=1e-15, atol=0)
        assert cayley(0.5) == 3.0 and isinstance(cayley(0.5), complex)


class TestDiscNorm:
    def test_constant(self):
        assert abs(disc_h2_norm(lambda lam: np.ones_like(lam)) - 1.0) < 1e-10

    def test_linear_oracle(self):
        # (1/2pi) int |1 + e^{i a}|^2 da = 2
        assert abs(disc_h2_norm(lambda lam: 1.0 + lam) - math.sqrt(2)) < 1e-10

    @pytest.mark.parametrize("k", (1, 3, 8))
    def test_monomials_orthonormal(self, k):
        assert abs(disc_h2_norm(lambda lam: lam**k) - 1.0) < 1e-9

    @pytest.mark.parametrize("nodes", (0, -64))
    def test_rejects_empty_rule(self, nodes):
        with pytest.raises(ValueError, match="at least one node"):
            disc_h2_norm(lambda lam: 1.0 + lam, nodes)

    def test_circle_cache_is_bounded(self):
        # a caller passing many counts keeps at most CIRCLE_CACHE_SIZE circles
        for nodes in range(3, 40):
            disc_h2_norm(lambda lam: 1.0 + lam, nodes)
        info = cayley_module._circle_points.cache_info()
        assert info.maxsize == CIRCLE_CACHE_SIZE and info.currsize <= CIRCLE_CACHE_SIZE
        # the sized rule's seven counts fit
        assert DISC_NODES == MIN_DISC_NODES * 2 ** (CIRCLE_CACHE_SIZE - 2)


class TestSizedRule:
    """The circle rule sized from the poles against the DISC_NODES rule."""

    def test_verify_draws_match_the_full_rule(self):
        worst, sizes = 0.0, set()
        for F in _verify_draws(17, 1000):
            rhs = norm_equality_check(F)[1]
            full = disc_h2_norm(_weighted_derivative(F), DISC_NODES)
            worst = max(worst, abs(rhs - full) / full)
            sizes.add(_sized_nodes(F, 1))
        assert worst <= 1e-14
        assert min(sizes) == MIN_DISC_NODES and max(sizes) < DISC_NODES

    def test_pole_near_the_circle_takes_the_cap_bit_for_bit(self):
        F = laplace(ExpPoly(((0.8 - 0.3j, 2, 0.01 + 0.7j), (0.5, 0, 1.3 - 0.4j))))
        assert _sized_nodes(F, 1) == DISC_NODES
        assert norm_equality_check(F)[1] == disc_norm_per_circle(_weighted_derivative(F))

    def test_single_call_matches_per_circle_calls(self):
        for F in _verify_draws(18, 20):
            g = _weighted_derivative(F)
            for nodes in (MIN_DISC_NODES, 256, DISC_NODES):
                assert disc_h2_norm(g, nodes) == disc_norm_per_circle(g, nodes)

    def test_pole_free_pullback_takes_the_floor(self, monkeypatch):
        # F = 1/(z+1) pulls back to the polynomial (1-lam)/2
        F = laplace(ExpPoly.exponential(1.0))
        assert _sized_nodes(F, 1) == MIN_DISC_NODES
        seen = []
        original = cayley_module.disc_h2_norm

        def spy(g, nodes=DISC_NODES):
            seen.append(nodes)
            return original(g, nodes)

        # norm_equality_check calls disc_h2_norm through the module, as a tracer sees it
        monkeypatch.setattr(cayley_module, "disc_h2_norm", spy)
        norm_equality_check(F)
        disc_membership_report(F)
        assert seen == [MIN_DISC_NODES] * 4

    def test_membership_norms_match_the_full_rule(self):
        for F in _verify_draws(19, 60):
            FD = DiscFunction(F)
            full = {
                "quotient": disc_h2_norm(lambda lam: FD(lam) / (1.0 - lam)),
                "weighted_derivative": disc_h2_norm(_weighted_derivative(F)),
                "weighted_second_derivative": disc_h2_norm(
                    lambda lam: (1.0 + lam) ** 2 * (1.0 - lam) * FD.second_derivative(lam)),
            }
            report = disc_membership_report(F)
            assert report.keys() == full.keys()
            for key, value in full.items():
                assert abs(report[key] - value) <= 1e-14 * value, key


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
