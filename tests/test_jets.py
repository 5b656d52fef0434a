"""Jet arithmetic: exact truncated series against hand derivatives."""

import math

import numpy as np
import pytest

import scalar_route
from hsob import Jet, JetDomainError
from oracles import compose


class TestBasics:
    def test_variable_jet(self):
        j = Jet.variable(2.0, 3)
        assert j.value == 2.0
        assert j.derivative(1) == 1.0
        assert j.derivative(2) == 0.0

    def test_square(self):
        j = Jet.variable(1.0, 2)
        sq = j * j
        assert [sq.derivative(k) for k in range(3)] == [1.0, 2.0, 2.0]

    def test_add_scalar(self):
        j = Jet.variable(1.0, 2) + 3.0
        assert j.value == 4.0

    def test_order_cap(self):
        # the package's one order warranty, 0..16, and its one message
        assert Jet.variable(1.0, 16).order == 16
        for make in (lambda: Jet.variable(1.0, 17), lambda: Jet.constant(2.0, 17),
                     lambda: Jet(np.zeros(18))):
            with pytest.raises(ValueError, match=r"^the order must lie in 0\.\.16, got 17$"):
                make()

    def test_negative_order_rejected(self):
        from hsob import parse

        for make in (lambda: Jet.variable(1.0, -1), lambda: Jet.constant(2.0, -1),
                     lambda: parse("z").jet(1.0, -1), lambda: parse("2").jet(1.0, -1)):
            with pytest.raises(ValueError, match=r"^the order must lie in 0\.\.16, got -1$"):
                make()


class TestDivision:
    def test_reciprocal_derivatives(self):
        # 1/(1+z) at z=1: derivatives (-1)^k k!/2^(k+1)
        j = 1.0 / (Jet.variable(1.0, 4) + 1.0)
        for k in range(5):
            expected = (-1) ** k * math.factorial(k) / 2 ** (k + 1)
            assert abs(j.derivative(k) - expected) < 1e-14

    def test_zero_denominator(self):
        with pytest.raises(JetDomainError):
            1.0 / (Jet.variable(1.0, 2) - 1.0)


class TestPower:
    def test_sqrt_at_four(self):
        j = Jet.variable(4.0, 2).power(0.5)
        assert abs(j.derivative(0) - 2.0) < 1e-14
        assert abs(j.derivative(1) - 0.25) < 1e-14
        assert abs(j.derivative(2) + 1 / 32) < 1e-14

    def test_fractional_power_derivatives(self):
        # (z^0.3)''' at z = 2: 0.3*(-0.7)*(-1.7) * 2^(0.3-3)
        j = Jet.variable(2.0, 3).power(0.3)
        expected = 0.3 * (-0.7) * (-1.7) * 2.0 ** (0.3 - 3)
        assert abs(j.derivative(3) - expected) < 1e-14

    def test_branch_guard(self):
        with pytest.raises(JetDomainError):
            Jet.variable(-1.0, 2).power(0.5)


class TestLog1p:
    def test_derivatives_at_one(self):
        # log(1+z): k-th derivative (-1)^(k-1) (k-1)!/(1+z)^k at z = 1
        j = Jet.variable(1.0, 4).log1p()
        assert abs(j.value - math.log(2.0)) < 1e-15
        for k in range(1, 5):
            expected = (-1) ** (k - 1) * math.factorial(k - 1) / 2**k
            assert abs(j.derivative(k) - expected) < 1e-14

    def test_branch_guard(self):
        with pytest.raises(JetDomainError):
            (Jet.variable(-3.0, 2)).log1p()


class TestCompose:
    def test_exp_like_composition(self):
        # f(u) = 1/(1+u) composed with phi(z) = z^2 at z = 1: 1/(1+z^2)
        phi = Jet.variable(1.0, 4) * Jet.variable(1.0, 4)
        f = 1.0 / (Jet.variable(phi.value, 4) + 1.0)
        composed = compose(f, phi)
        # direct derivatives of 1/(1+z^2) at 1: value 1/2, first -1/2, second 1/2
        assert abs(composed.derivative(0) - 0.5) < 1e-14
        assert abs(composed.derivative(1) + 0.5) < 1e-14
        assert abs(composed.derivative(2) - 0.5) < 1e-14

    def test_base_mismatch_rejected(self):
        phi = Jet.variable(1.0, 3)
        f = Jet.variable(5.0, 3)  # based at 5, phi(1) = 1
        with pytest.raises(ValueError):
            compose(f, phi)

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            compose(Jet.variable(1.0, 2), Jet.variable(1.0, 3))


class TestArrayLanes:
    """A jet at m base points is m jets, one lane each; failing lanes are nan."""

    Z = np.array([1.0, 2.0 + 1.0j, -3.0, 0.5 - 4.0j, 1e3j + 1.0])

    @staticmethod
    def build(z, order, jet_type):
        zj = jet_type.variable(z, order)
        one = jet_type.constant(1.0, order) if jet_type is scalar_route.Jet else 1.0
        return ((zj * zj + one) / (zj + one + one)).power(0.3) - (zj * zj).log1p()

    def test_lanes_match_scalar_jets(self):
        j = self.build(self.Z, 4, Jet)
        assert j.coeffs.shape == (5, len(self.Z))
        for i, z in enumerate(self.Z):
            try:
                want = self.build(complex(z), 4, scalar_route.Jet)
            except scalar_route.JetDomainError:
                assert np.isnan(j.coeffs[:, i]).all()
                continue
            for k in range(5):
                assert abs(j.coeffs[k, i] - want.coeffs[k]) <= 1e-14 * abs(want.coeffs[0])

    def test_failing_lanes_are_masked_and_scalars_raise(self):
        z = np.array([1.0, 2.0, -1.0, 0.0])
        q = 1.0 / (Jet.variable(z, 2) - 1.0)
        assert np.isnan(q.coeffs[:, 0]).all() and np.isfinite(q.coeffs[:, 1:]).all()
        assert q.derivative(1)[1] == -1.0
        p = Jet.variable(z, 2).power(0.5)
        assert np.isnan(p.coeffs[:, 2:]).all() and np.isfinite(p.coeffs[:, :2]).all()
        lg = (Jet.variable(z, 2) - 1.0).log1p()
        assert np.isnan(lg.coeffs[:, 2:]).all() and np.isfinite(lg.coeffs[:, :2]).all()
        # a nan lane stays nan through later divisions, with no numpy warning
        assert np.isnan((1.0 / q).coeffs[:, 0]).all()
        with pytest.raises(JetDomainError):
            Jet.variable(0.0, 2).power(0.5)

    def test_power_overflow(self):
        j = Jet.variable(np.array([1e10, 2.0]), 1).power(40.0)
        assert np.isnan(j.coeffs[:, 0]).all() and j.value[1] == 2.0**40
        with pytest.raises(OverflowError):
            Jet.variable(1e10, 1).power(40.0)

    def test_array_composition(self):
        z = np.array([1.0, 0.5 + 2.0j])
        phi = Jet.variable(z, 3) * Jet.variable(z, 3)
        f = 1.0 / (Jet.variable(phi.value, 3) + 1.0)
        composed = compose(f, phi)
        for i, zi in enumerate(z):
            want = (1.0 / (Jet.variable(zi, 3) * Jet.variable(zi, 3) + 1.0)).coeffs
            assert np.allclose(composed.coeffs[:, i], want, rtol=1e-14, atol=0)
