"""Polynomial recurrences, derivative-exchange matrices, partition tables.

The recurrences and the matrices are test oracles (``oracles.py``); the
Laguerre and Legendre classes also check ``ExpPoly`` differentiation and the
quadrature engine's Gauss-Legendre nodes against them.
"""

import math

import numpy as np
import pytest

from hsob import ExpPoly, bell_partitions
from hsob.quadrature import _gl_rule
from hsob.specfun import MAX_ORDER
from oracles import cn_inverse, cn_matrix, laguerre, legendre, legendre_leading_coefficient


class TestLaguerre:
    def test_degree_zero(self):
        assert laguerre(0, 3.7) == 1.0
        assert laguerre(0, 2 + 1j) == 1.0

    def test_degree_one_oracle(self):
        # L_1(x) = 1 - x straight from the recurrence
        assert laguerre(1, 2.0) == -1.0

    def test_derivative_identity(self):
        # (t e^{-t})' = 1! L_1(t) e^{-t}; both sides vanish at t = 1
        f = ExpPoly.monomial(1.0, 1, 1.0).derivative()
        assert abs(f(1.0)) < 1e-15
        assert abs(laguerre(1, 1.0) * math.exp(-1.0)) < 1e-15

    @pytest.mark.parametrize("x", [0.0, 0.5, 2.0, -1.0, 1.5 + 0.5j])
    def test_low_degree_closed_forms(self, x):
        assert abs(laguerre(2, x) - (1 - 2 * x + x**2 / 2)) < 1e-12
        assert abs(laguerre(3, x) - (1 - 3 * x + 1.5 * x**2 - x**3 / 6)) < 1e-12
        assert abs(laguerre(4, x) - (1 - 4 * x + 3 * x**2 - (2 / 3) * x**3 + x**4 / 24)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rodrigues_formula_checks_exppoly_derivative(self, n):
        # L_n(t) e^{-t} = (t^n e^{-t})^(n) / n!, the left side by the recurrence
        f = ExpPoly.monomial(1.0 / math.factorial(n), n, 1.0).derivative(n)
        for t in (0.0, 0.3, 1.0, 2.5, 7.0):
            want = laguerre(n, t) * math.exp(-t)
            assert abs(f(t) - want) <= 1e-13 * max(1.0, abs(laguerre(n, t)))


class TestLegendre:
    @pytest.mark.parametrize("n", range(8))
    def test_value_at_one(self, n):
        assert abs(legendre(n, 1.0) - 1.0) < 1e-14

    def test_degree_two_oracle(self):
        # P_2(x) = (3x^2 - 1)/2
        assert legendre(2, 0.0) == -0.5

    @pytest.mark.parametrize("x", [0.0, 0.3, -0.7, 1.0, 0.2 + 0.1j])
    def test_low_degree_closed_forms(self, x):
        assert abs(legendre(3, x) - (2.5 * x**3 - 1.5 * x)) < 1e-12
        assert abs(legendre(4, x) - ((35 * x**4 - 30 * x**2 + 3) / 8)) < 1e-12

    def test_leading_coefficient(self):
        assert legendre_leading_coefficient(3) == 20 / 8 == 2.5
        # consistency with the recurrence at large argument
        x = 1e6
        assert abs(legendre(3, x) / x**3 - 2.5) < 1e-5

    @pytest.mark.parametrize("order", (2, 5, 15, 32))
    def test_gauss_rule_nodes_are_zeros(self, order):
        # the quadrature engine's nodes on [0, 1] map to the zeros of P_order
        nodes, weights = _gl_rule(order)
        x = 2.0 * nodes - 1.0
        assert np.all(np.abs(legendre(order, x)) < 1e-13)
        assert abs(weights.sum() - 1.0) < 1e-14


class TestCnMatrix:
    def test_n2_entries(self):
        # c_{i,j} = binom(i,j) i!/j! by hand
        assert cn_matrix(2).entries == ((1, 0, 0), (1, 1, 0), (2, 4, 1))

    @pytest.mark.parametrize("n", range(13))
    def test_inverse_exact(self, n):
        prod = cn_matrix(n).multiply(cn_inverse(n))
        expected = tuple(
            tuple(1 if i == j else 0 for j in range(n + 1)) for i in range(n + 1)
        )
        assert prod.entries == expected

    def test_lower_triangular_unit_diagonal(self):
        m = cn_matrix(6)
        for i in range(7):
            assert m.entries[i][i] == 1
            for j in range(i + 1, 7):
                assert m.entries[i][j] == 0

    def test_row_sums_sequence(self):
        # direct summation; the values count partial permutation matchings
        assert cn_matrix(5).row_sums() == (1, 2, 7, 34, 209, 1546)


class TestDerivativeExchange:
    """Both exchange identities on exponential polynomials, sampled in t."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_weighted_derivative_expansion(self, n):
        rng = np.random.default_rng(7)
        c = cn_matrix(n).entries
        for _ in range(5):
            f = ExpPoly(tuple(
                (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), int(rng.integers(0, 3)),
                 complex(rng.uniform(0.3, 2.0), rng.uniform(-1.5, 1.5)))
                for _ in range(3)
            ))
            for t in (0.25, 1.0, 3.0):
                lhs = f.times_power(n).derivative(n)(t)
                rhs = sum(c[n][k] * t**k * f.derivative(k)(t) for k in range(n + 1))
                assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_inverted_expansion(self, n):
        rng = np.random.default_rng(8)
        c = cn_matrix(n).entries
        for _ in range(5):
            f = ExpPoly(tuple(
                (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), int(rng.integers(0, 3)),
                 complex(rng.uniform(0.3, 2.0), rng.uniform(-1.5, 1.5)))
                for _ in range(3)
            ))
            for t in (0.25, 1.0, 3.0):
                lhs = t**n * f.derivative(n)(t)
                rhs = sum(
                    (-1) ** (k + n) * c[n][k] * f.times_power(k).derivative(k)(t)
                    for k in range(n + 1)
                )
                assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)


class TestBellPartitions:
    def test_n0(self):
        # (f o phi)^(0) = f(phi): one entry, k = 0, no derivative of phi
        assert bell_partitions(0).entries == ((1, 0, ()),)

    def test_n1(self):
        table = bell_partitions(1)
        assert table.entries == ((1, 1, (1,)),)

    def test_n2_chain_rule_oracle(self):
        # (f o phi)'' = f'' (phi')^2 + f' phi'': multi-indices (2,0) and (0,1)
        table = bell_partitions(2)
        assert set(table.entries) == {(1, 2, (2, 0)), (1, 1, (0, 1))}

    def test_n3_coefficients(self):
        table = bell_partitions(3)
        by_multi = {multi: (coeff, k) for coeff, k, multi in table.entries}
        assert by_multi == {(3, 0, 0): (1, 3), (1, 1, 0): (3, 2), (0, 0, 1): (1, 1)}

    @pytest.mark.parametrize("n", range(1, MAX_ORDER + 1))
    def test_constraints_exact(self, n):
        for coeff, k, multi in bell_partitions(n).entries:
            assert sum((j + 1) * m for j, m in enumerate(multi)) == n
            assert sum(multi) == k
            assert coeff > 0

    @pytest.mark.parametrize("n", [-1, MAX_ORDER + 1])
    def test_range_errors(self, n):
        with pytest.raises(ValueError, match=rf"^the order must lie in 0\.\.16, got {n}$"):
            bell_partitions(n)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_total_count_is_bell_number(self, n):
        # sum of the coefficients over all entries counts all set partitions
        bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]
        assert sum(coeff for coeff, _, _ in bell_partitions(n).entries) == bell[n]
