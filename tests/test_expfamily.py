"""Exponential-polynomial algebra: transforms, derivatives, weighted products."""

import math

import numpy as np
import pytest

from hsob import (
    ExpPoly,
    RationalComb,
    hardy_constant,
    inner_product_n,
    integrate_halfline,
    laplace,
    norm_n,
    sample_exppoly,
    verify,
)
from oracles import exppoly_from_triples


class TestAlgebra:
    def test_canonical_merging(self):
        f = ExpPoly(((1.0, 0, 1.0), (2.0, 0, 1.0), (-3.0, 0, 1.0)))
        assert f.is_zero

    def test_rejects_bad_decay(self):
        with pytest.raises(ValueError):
            ExpPoly(((1.0, 0, -1.0),))
        with pytest.raises(ValueError):
            ExpPoly(((1.0, 0, 1j),))

    def test_derivative_examples(self):
        e1 = ExpPoly.exponential(1.0)
        assert e1.derivative().terms == ((-1 + 0j, 0, 1 + 0j),)
        # d/dt (t e^{-t}) = (1 - t) e^{-t}
        d = ExpPoly.monomial(1.0, 1, 1.0).derivative()
        assert d.terms == ((1 + 0j, 0, 1 + 0j), (-1 + 0j, 1, 1 + 0j))
        # second derivative of e^{-3t}
        d2 = ExpPoly.exponential(3.0).derivative(2)
        assert d2.terms == ((9 + 0j, 0, 3 + 0j),)

    def test_product_stays_inside(self):
        f = ExpPoly.monomial(2.0, 1, 1.0) * ExpPoly.monomial(0.5, 2, 2.0)
        assert f.terms == ((1 + 0j, 3, 3 + 0j),)

    def test_evaluation_vectorised(self):
        f = ExpPoly.monomial(1.0, 2, 1.5)
        ts = np.linspace(0.1, 3.0, 7)
        assert np.allclose(f(ts), ts**2 * np.exp(-1.5 * ts))

    def test_triple_serialisation_round_trip(self):
        f = ExpPoly(((1.5 - 0.5j, 2, 1.0 + 0.25j), (2.0, 0, 0.75)))
        assert exppoly_from_triples(f.to_triples()) == f


class TestLaplace:
    def test_basic_transforms(self):
        assert laplace(ExpPoly.exponential(1.0)).terms == ((1 + 0j, 0, 1 + 0j),)
        F = laplace(ExpPoly.monomial(1.0, 1, 2.0))
        assert abs(F(0.0) - 0.25) < 1e-15  # 1/(z+2)^2 at 0

    def test_numeric_cross_check(self):
        # quadrature of int t e^{-2t} e^{-t} dt = Gamma(2)/3^2
        F = laplace(ExpPoly.monomial(1.0, 1, 2.0))
        quad = integrate_halfline(lambda t: t * np.exp(-3 * t), 1.0).value
        assert abs(F(1.0) - quad) < 1e-11
        assert abs(F(1.0) - 1 / 9) < 1e-14

    def test_round_trip(self):
        f = ExpPoly(((1.5, 2, 1.0 + 0.5j), (-0.25j, 0, 2.0)))
        assert laplace(f).inverse_laplace() == f

    def test_rational_derivative(self):
        F = RationalComb(((1.0, 0, 1.0),))
        assert abs(F.derivative()(1.0) + 0.25) < 1e-15  # -1/(z+1)^2 at 1


class TestInnerProduct:
    def test_exponential_anchor(self):
        e1 = ExpPoly.exponential(1.0)
        assert inner_product_n(e1, e1, 1) == 0.25
        assert abs(inner_product_n(e1, e1, 0) - 0.5) < 1e-15

    def test_cross_level_oracle(self):
        # direct half-line quadrature of t^4 * e^{-t} * 4 e^{-2t}
        e1, e2 = ExpPoly.exponential(1.0), ExpPoly.exponential(2.0)
        val = inner_product_n(e1, e2, 2)
        assert abs(val - 96 / 243) < 1e-14
        quad = integrate_halfline(lambda t: t**4 * np.exp(-t) * 4 * np.exp(-2 * t), 1.0).value
        assert abs(val - quad) < 1e-10

    def test_norm_examples(self):
        e1 = ExpPoly.exponential(1.0)
        assert norm_n(e1, 1) == 0.5
        assert abs(norm_n(e1, 0) - 1 / math.sqrt(2)) < 1e-15
        # |1+i| = sqrt(2), real part 1
        assert abs(norm_n(ExpPoly.exponential(1 + 1j), 1) - 0.5 * math.sqrt(2)) < 1e-14

    def test_exponential_norm_formula(self):
        # ((2n)!/2^(2n+1))^(1/2) |lam|^n / (Re lam)^(n+1/2)
        rng = np.random.default_rng(3)
        for _ in range(10):
            lam = complex(rng.uniform(0.2, 3.0), rng.uniform(-3.0, 3.0))
            n = int(rng.integers(0, 5))
            expected = (
                math.sqrt(math.factorial(2 * n) / 2 ** (2 * n + 1))
                * abs(lam) ** n / lam.real ** (n + 0.5)
            )
            assert abs(norm_n(ExpPoly.exponential(lam), n) - expected) < 1e-12 * expected

    @pytest.mark.parametrize("n", range(5))
    def test_matches_quadrature(self, n):
        rng = np.random.default_rng(n)
        f = sample_exppoly(rng)
        g = sample_exppoly(rng)
        exact = inner_product_n(f, g, n)
        fn, gn = f.derivative(n), g.derivative(n)
        quad = integrate_halfline(
            lambda t: fn(t) * np.conj(gn(t)) * t ** (2 * n),
            max(f.decay_scale(), g.decay_scale()),
        ).value
        assert abs(exact - quad) <= 1e-8 * (1 + abs(exact))

    def test_conjugate_symmetry_and_positivity(self):
        rng = np.random.default_rng(11)
        for n in range(4):
            f, g = sample_exppoly(rng), sample_exppoly(rng)
            a = inner_product_n(f, g, n)
            b = inner_product_n(g, f, n)
            assert abs(a - b.conjugate()) <= 1e-12 * (1 + abs(a))
            assert inner_product_n(f, f, n).real >= 0
            assert abs(inner_product_n(f, f, n).imag) <= 1e-12 * (1 + abs(a))


class TestIntegrationByParts:
    """L(f^(k))(z) = z^k Lf(z) - sum_j z^(k-1-j) f^(j)(0), exact termwise."""

    def test_first_derivative(self):
        f = ExpPoly.exponential(2.0)
        z = 1.5 + 0.5j
        lhs = laplace(f.derivative())(z)
        rhs = z * laplace(f)(z) - f(0.0)
        assert abs(lhs - rhs) < 1e-15

    def test_higher_orders_random(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            f = sample_exppoly(rng)
            k = int(rng.integers(1, 4))
            z = complex(rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0))
            lhs = laplace(f.derivative(k))(z)
            rhs = z**k * laplace(f)(z) - sum(
                z ** (k - 1 - j) * f.derivative(j)(0.0) for j in range(k)
            )
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


class TestDerivativeFormIdentity:
    """<f,g>_n equals the order-0 product of the n-th weighted derivatives."""

    @pytest.mark.parametrize("n", range(5))
    def test_random_pairs(self, n):
        report = verify.run("inner-product", n, seed=100 + n, samples=8)
        assert report["samples"] == 8 and report["max_residual"] <= 1e-9


class TestEmbedding:
    def test_level_monotonicity_constants(self):
        # ||f||_(k) <= sqrt(pi)/Gamma(n-k+1/2) ||f||_(n); the constant equals
        # the iterated-integral inequality constant at order n-k
        rng = np.random.default_rng(21)
        for _ in range(10):
            f = sample_exppoly(rng)
            for n in range(5):
                for k in range(n + 1):
                    c = hardy_constant(n - k) if n > k else 1.0
                    assert norm_n(f, k) <= c * norm_n(f, n) * (1 + 1e-12)
