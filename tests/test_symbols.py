"""Symbol parsing, jets of expressions, sampled suprema, kernel certificates."""

import math

import numpy as np
import pytest

from hsob import (
    BranchViolation,
    GridSpec,
    Jet,
    SymbolSyntaxError,
    angular_derivative,
    caughran_lower_bound,
    classify,
    eval_jet,
    faa_di_bruno,
    gram_matrix,
    jury_min_eig,
    jury_min_m,
    min_eigenvalue,
    nbc_suprema,
    parse,
    radial_sup,
    selfmap_witness,
)
from hsob.symbols import DEFAULT_GRID, Add, Div, Log1p, Pow, _supremum_estimate

#: the symbols of acceptance criterion 12's classification table
CRITERION_12_ROWS = ("2*z+1", "z+i", "z+sqrt(z)+1", "z+log1p(z)", "sqrt(z)", "1/(z+1)")


# Reference routes for the symbol analysis, kept as oracles: they rebuild every
# kernel value on each bisection step and a fresh order-k jet for each k, the
# straightforward reading of the definitions that the library hoists.

def _oracle_jury_matrix(e, n, M, points, psi=None):
    # gram_matrix is bit for bit the scalar kernel_eval of each entry
    # (TestGram in test_kernel.py), so rebuilding with it keeps the oracle exact
    pts = [complex(z) for z in points]
    images = [e.eval(z) for z in pts]
    weight = (lambda z: 1.0 + 0j) if psi is None else psi
    base, moved = gram_matrix(n, pts), gram_matrix(n, images)
    m = len(pts)
    A = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(i + 1):
            val = M**2 * base[i, j] - np.conj(weight(pts[i])) * weight(pts[j]) * moved[i, j]
            A[i, j] = val
            A[j, i] = val.conjugate()
    return A


def _oracle_jury_min_m(e, n, points, tol=1e-10):
    def feasible(M):
        return min_eigenvalue(_oracle_jury_matrix(e, n, M, points)) >= -tol

    lo, hi = 0.0, 1.0
    while not feasible(hi):
        hi *= 2.0
        if hi > 1e12:
            return math.inf
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _oracle_nbc_suprema(e, n, grid=DEFAULT_GRID):
    out = []
    for k in range(1, n + 1):
        def ratio(z, k=k):
            jet = e.jet(z, k)
            phi = jet.value
            if phi == 0:
                return math.inf
            return abs(z**k * jet.derivative(k) / phi)

        out.append(_supremum_estimate(ratio, grid)[0])
    return out


def _jury_points(rng, m):
    return [complex(rng.uniform(0.3, 4.0), rng.uniform(-2.0, 2.0)) for _ in range(m)]


class TestParser:
    def test_affine(self):
        e = parse("2*z + 1")
        assert isinstance(e, Add)
        assert e(3.0) == 7.0

    def test_power_family(self):
        e = parse("z + sqrt(z) + 1")
        assert e(4.0) == 7.0

    def test_log_map(self):
        e = parse("z + log1p(z)")
        assert isinstance(e.right, Log1p)
        assert abs(e(1.0) - (1 + math.log(2))) < 1e-15

    def test_complex_literals(self):
        assert parse("z + i")(1.0) == 1 + 1j
        assert parse("2i")(0.5) == 2j
        assert parse("1.5e2")(0.0) == 150.0

    def test_rational(self):
        e = parse("1/(z+1)")
        assert isinstance(e, Div)
        assert e(1.0) == 0.5

    def test_explicit_exponent(self):
        e = parse("z^0.5")
        assert isinstance(e, Pow)
        assert abs(e(4.0) - 2.0) < 1e-15
        assert abs(parse("(z+1)^2")(2.0) - 9.0) < 1e-15

    def test_precedence(self):
        assert parse("2*z+3*z")(1.0) == 5.0
        assert parse("2*z^2")(3.0) == 18.0

    def test_syntax_errors_carry_position(self):
        with pytest.raises(SymbolSyntaxError) as info:
            parse("2*z + ")
        assert info.value.position == 6
        with pytest.raises(SymbolSyntaxError):
            parse("sqrt(z")
        with pytest.raises(SymbolSyntaxError):
            parse("z + q")

    def test_nonpositive_exponent_rejected(self):
        with pytest.raises(SymbolSyntaxError):
            parse("z^-2")
        with pytest.raises(SymbolSyntaxError):
            parse("z^0")

    def test_round_trip_text(self):
        e = parse("z + sqrt(z) + 1")
        assert parse(e.to_text())(2.3 + 0.4j) == e(2.3 + 0.4j)


class TestEvalJet:
    def test_square(self):
        j = eval_jet(parse("z^2"), 1.0, 2)
        assert [j.derivative(k) for k in range(3)] == [1.0, 2.0, 2.0]

    def test_log_map_second_derivative(self):
        # phi = z + log(1+z): phi'' = -1/(1+z)^2, so -1/4 at z = 1
        j = eval_jet(parse("z + log1p(z)"), 1.0, 2)
        assert abs(j.derivative(2) + 0.25) < 1e-14

    def test_sqrt_jet(self):
        j = eval_jet(parse("sqrt(z)"), 4.0, 2)
        assert abs(j.derivative(0) - 2.0) < 1e-14
        assert abs(j.derivative(1) - 0.25) < 1e-14
        assert abs(j.derivative(2) + 1 / 32) < 1e-14

    def test_branch_violation_surfaces(self):
        with pytest.raises(BranchViolation):
            eval_jet(parse("sqrt(z-10)"), 1.0, 2)

    def test_division_by_zero_jet(self):
        with pytest.raises(ZeroDivisionError):
            eval_jet(parse("1/(z-1)"), 1.0, 2)


class TestSelfmapWitness:
    def test_translation(self):
        ok, witness = selfmap_witness(parse("z+1"))
        assert ok and witness is None

    def test_left_shift_fails(self):
        ok, witness = selfmap_witness(parse("z-10"))
        assert not ok
        assert witness is not None
        assert (witness - 10).real <= 0

    def test_imaginary_shift(self):
        assert selfmap_witness(parse("z+i"))[0]


class TestSuprema:
    def test_angular_affine(self):
        assert abs(angular_derivative(parse("2*z+1")) - 0.5) < 1e-6

    def test_angular_power_mix(self):
        assert abs(angular_derivative(parse("z + sqrt(z) + 1")) - 1.0) < 1e-3

    def test_angular_sqrt_diverges(self):
        assert math.isinf(angular_derivative(parse("sqrt(z)")))

    def test_angular_bounded_map_diverges(self):
        assert math.isinf(angular_derivative(parse("1/(z+1)")))

    def test_radial_translation(self):
        v = radial_sup(parse("z+1"))
        assert 0.999 <= v <= 1.0 + 1e-9

    def test_radial_imaginary_shift_diverges(self):
        assert math.isinf(radial_sup(parse("z+i")))

    def test_radial_affine(self):
        assert abs(radial_sup(parse("2*z+1")) - 0.5) < 1e-6

    def test_nbc_affine(self):
        vals = nbc_suprema(parse("2*z+1"), 2)
        assert abs(vals[0] - 1.0) < 1e-6
        assert vals[1] == 0.0

    @pytest.mark.parametrize("text", CRITERION_12_ROWS)
    def test_nbc_matches_per_order_oracle_exactly(self, text):
        # one order-n jet per point gives bit for bit the per-k jets' suprema
        e = parse(text)
        for n in (1, 2, 3):
            assert nbc_suprema(e, n) == _oracle_nbc_suprema(e, n)

    def test_nbc_log_map_finite(self):
        vals = nbc_suprema(parse("z + log1p(z)"), 2)
        assert all(math.isfinite(v) for v in vals)

    def test_ordering_angular_below_radial(self):
        # the real-part supremum never exceeds the modulus supremum when the
        # latter is finite; grid estimates agree up to sampling slack
        for text in ("2*z+1", "z+1", "z+sqrt(z)+1", "z+log1p(z)", "z+1+10i"):
            e = parse(text)
            rad = radial_sup(e)
            ang = angular_derivative(e)
            assert math.isfinite(rad)
            assert ang <= rad + 1e-6 * (1 + rad)

    def test_refinement_monotonicity(self):
        # pure base-grid estimates over nested grids never decrease
        def bare(num_r, num_theta):
            return GridSpec(num_r=num_r, num_theta=num_theta, refine_passes=0,
                            boundary_passes=0, log10_r_extend=6.0)

        for text in ("2*z+1", "z+sqrt(z)+1", "z+log1p(z)"):
            e = parse(text)

            def ratio(z):
                return abs(z) / abs(e.eval(z))

            coarse, _ = _supremum_estimate(ratio, bare(11, 9))
            fine, _ = _supremum_estimate(ratio, bare(21, 17))
            assert fine >= coarse - 1e-15


class TestFaaDiBruno:
    def test_chain_rule(self):
        phi = eval_jet(parse("z^2"), 2.0, 1)
        f = 1.0 / (Jet.variable(phi.value, 1) + 1.0)
        assert abs(faa_di_bruno(f, phi, 1) - f.derivative(1) * phi.derivative(1)) < 1e-14

    def test_second_order_example(self):
        # f = 1/(u+1), phi = z^2 at z = 1: (f o phi)'' = 1/2
        phi = eval_jet(parse("z^2"), 1.0, 2)
        f = 1.0 / (Jet.variable(phi.value, 2) + 1.0)
        assert abs(faa_di_bruno(f, phi, 2) - 0.5) < 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_jet_composition(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(8):
            z = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
            a = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
            b = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
            zj = Jet.variable(z, n)
            phi = a * zj + b + 1.0 / (zj + 2.0)
            uj = Jet.variable(phi.value, n)
            f = 1.0 / (uj + 1.5) + 0.5 * uj
            direct = f.compose(phi).derivative(n)
            partition = faa_di_bruno(f, phi, n)
            assert abs(direct - partition) <= 1e-9 * max(abs(direct), 1e-12)

    def test_order_guard(self):
        phi = eval_jet(parse("z^2"), 1.0, 1)
        f = Jet.variable(phi.value, 1)
        with pytest.raises(ValueError):
            faa_di_bruno(f, phi, 2)


class TestJury:
    POINTS = [0.5 + 0.2j, 1.0, 2.0 - 1.0j, 4.0 + 3.0j, 10.0, 0.3 - 0.1j]

    def test_identity_symbol_zero_matrix(self):
        assert abs(jury_min_eig(parse("z"), 0, 1.0, self.POINTS)) < 1e-14

    def test_affine_certificate(self):
        # phi = 4z+1 on the plain Hardy space: norm is sqrt(1/4) = 0.5
        assert jury_min_eig(parse("4*z+1"), 0, 0.5, self.POINTS) >= -1e-8

    def test_sqrt_with_large_m_still_fails(self):
        pts = [1.0, 100.0, 1e4, 1e6]
        assert jury_min_eig(parse("sqrt(z)"), 0, 10.0, pts) < 0

    def test_min_m_matches_operator_norm(self):
        pts = self.POINTS + [1e2, 1e3, 1e4]
        m_star = jury_min_m(parse("4*z+1"), 0, pts)
        assert m_star <= 0.5 + 1e-6
        assert m_star >= 0.49

    def test_caughran_bound_below_jury_bound(self):
        # on one point set, the kernel-ratio bound never exceeds the least
        # admissible M (the 1x1 principal minors already enforce it)
        for n in (0, 1, 2):
            pts = [0.5, 1.0 + 0.5j, 3.0, 20.0]
            e = parse("2*z+1")
            lower = caughran_lower_bound(e, n, pts)
            m_star = jury_min_m(e, n, pts)
            assert lower <= m_star + 1e-8

    def test_weighted_certificate(self):
        # psi = 2 and phi = identity: M^2 K - 4 K is PSD exactly when M >= 2
        pts = [0.5, 1.0 + 0.5j, 3.0]
        assert jury_min_eig(parse("z"), 0, 2.0, pts, psi=lambda z: 2.0) >= -1e-12
        assert jury_min_eig(parse("z"), 0, 1.5, pts, psi=lambda z: 2.0) < 0

    def test_weight_as_symbol_expression(self):
        pts = [1.0, 2.0]
        val = jury_min_eig(parse("z"), 1, 3.0, pts, psi=parse("1/(z+1)"))
        assert val >= 0  # |psi| < 1 on these points, so M = 3 dominates easily

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            jury_min_eig(parse("z"), 0, 1.0, [-1.0])

    def test_min_m_margin_validation(self):
        with pytest.raises(ValueError):
            jury_min_m(parse("z"), 0, [1.0, -1.0])
        with pytest.raises(ValueError):
            jury_min_m(parse("z-10"), 1, [1.0, 2.0])  # images leave C+

    def test_weighted_min_m(self):
        # psi = 2 and phi = identity: (M^2 - 4) K is PSD exactly when M >= 2
        m_star = jury_min_m(parse("z"), 0, [0.5, 1.0 + 0.5j, 3.0], psi=parse("2"))
        assert abs(m_star - 2.0) < 1e-9

    @pytest.mark.parametrize("text", CRITERION_12_ROWS)
    def test_min_m_matches_rebuilding_oracle_exactly(self, text):
        # Gram matrices built once give bit for bit the per-step rebuilt bound
        rng = np.random.default_rng(sum(map(ord, text)))
        e = parse(text)
        for n in (0, 1, 2):
            for m in (6, 12):
                pts = _jury_points(rng, m)
                assert jury_min_m(e, n, pts) == _oracle_jury_min_m(e, n, pts)

    @pytest.mark.parametrize("text", CRITERION_12_ROWS)
    def test_weighted_min_eig_matches_oracle(self, text):
        # numpy forms the weights conj(psi_i) psi_j elementwise, which may move
        # entries by an ulp: the eigenvalue agrees to rounding of the matrix
        rng = np.random.default_rng(sum(map(ord, text)) + 1)
        e, psi = parse(text), parse("1/(z+1)")
        for n in (0, 1, 2):
            pts = _jury_points(rng, 7)
            for M in (0.3, 1.0, 2.5):
                A = _oracle_jury_matrix(e, n, M, pts, psi)
                got = jury_min_eig(e, n, M, pts, psi=psi)
                assert abs(got - min_eigenvalue(A)) <= 1e-13 * np.linalg.norm(A, 2)


class TestClassify:
    @pytest.mark.parametrize("grid", [GridSpec(num_r=0), GridSpec(num_theta=0)])
    def test_empty_grid_refused(self, grid):
        # no sample is no evidence: not a NaN estimate, a "witnessed" self-map
        # and an "unbounded" verdict
        e = parse("z")
        for call in (lambda: classify(e, 1, grid), lambda: selfmap_witness(e, grid),
                     lambda: angular_derivative(e, grid), lambda: radial_sup(e, grid),
                     lambda: nbc_suprema(e, 2, grid)):
            with pytest.raises(ValueError, match="no points"):
                call()

    def test_affine_all_orders(self):
        for n in (1, 2, 3, 4):
            r = classify(parse("2*z+1"), n)
            assert r.verdict_H2 == "bounded"
            assert abs(r.phi_prime_infinity - 0.5) < 1e-6
            assert abs(r.h2_norm - math.sqrt(0.5)) < 1e-6
            assert r.verdict_Hn == "sufficient-passed"

    def test_imaginary_shift(self):
        r = classify(parse("z+i"), 1)
        assert r.verdict_H2 == "bounded"
        assert math.isinf(r.radial_sup)
        assert r.verdict_Hn == "necessary-failed"

    def test_power_mix(self):
        r = classify(parse("z+sqrt(z)+1"), 2)
        assert abs(r.phi_prime_infinity - 1.0) < 1e-3
        assert r.verdict_Hn == "sufficient-passed"

    def test_log_map(self):
        r = classify(parse("z+log1p(z)"), 2)
        assert r.verdict_Hn == "sufficient-passed"

    def test_sqrt_unbounded(self):
        r = classify(parse("sqrt(z)"), 1)
        assert r.verdict_H2 == "unbounded"
        assert r.h2_norm is None

    def test_bounded_range_map(self):
        r = classify(parse("1/(z+1)"), 1)
        assert r.verdict_H2 == "unbounded"
        assert r.verdict_Hn == "necessary-failed"

    def test_report_serialises(self):
        import json

        r = classify(parse("z+i"), 1)
        payload = json.loads(r.to_json())
        assert payload["schema"] == 1
        assert payload["radial_sup"] == math.inf
        assert payload["disclaimer"]
