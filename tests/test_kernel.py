"""Reproducing-kernel evaluation: closed forms, quadrature, norms, Gram matrices."""

import cmath
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hsob
from hsob import (
    ExpPoly,
    gram_matrix,
    integrate_interval,
    jury_min_m,
    kernel_diag,
    kernel_eval_closed,
    kernel_eval_quadrature,
    kernel_norm,
    laplace,
    min_eigenvalue,
    norm_bounds,
    parse,
    reproduce_check,
    verify,
)
from hsob.kernel import (_RULE, _RULE_NODES, _TRIANGLE_CACHE_MAX, _cached_triangle, _closed_form,
                         _derived_coefficients, _p_eval, _rule_weights)
from hsob.specfun import MAX_ORDER
from oracles import closed_form_two_calls, i_theta, legendre

ROOT = Path(__file__).resolve().parent.parent

LN2 = math.log(2.0)
EPS = np.finfo(float).eps
#: arguments within 1e-6 of the imaginary axis
MARGIN = math.pi / 2 - 1e-6


def graded_square(g, levels=40, order=12):
    """Tensor Gauss-Legendre rule over the unit square on a fixed mesh halved toward (0, 0).

    A test-only oracle for integrands with a 1/r singularity at the corner: it
    evaluates the kernel's defining double integral with neither Duffy's split
    nor the polynomial p_n.  The uncovered corner cell has side 2^-levels.
    """
    x, wx = np.polynomial.legendre.leggauss(order)
    breaks = np.concatenate(([0.0], 0.5 ** np.arange(levels, -1, -1)))
    widths = np.diff(breaks)
    nodes = (breaks[:-1, None] + widths[:, None] * 0.5 * (x + 1.0)).ravel()
    weights = (widths[:, None] * 0.5 * wx).ravel()
    return complex(weights @ g(nodes[:, None], nodes[None, :]) @ weights)


def displays(n, z, v):
    """The paper's printed closed forms for n = 1, 2, 3 at v = conj(w), as a test-only oracle."""
    l1 = cmath.log((v + z) / v)
    l2 = cmath.log((v + z) / z)
    if n == 1:
        return l1 / z + l2 / v
    if n == 2:
        return (
            -1 / (6 * z)
            + (3 * z + v) / (6 * z**2) * l1
            - 1 / (6 * v)
            + (3 * v + z) / (6 * v**2) * l2
        )
    return (
        -(9 * z + 2 * v) / (240 * z**2)
        + (10 * z**2 + 5 * z * v + v**2) / (120 * z**3) * l1
        - (9 * v + 2 * z) / (240 * v**2)
        + (10 * v**2 + 5 * z * v + z**2) / (120 * v**3) * l2
    )


def duffy_reference(n, z, w, mp):
    """K_n(z, w) as the Duffy integral in mpmath at unit scale, a test-only reference.

    The integrand peaks near u = low = min(|a|, |b|) and is smooth on the
    scale of u above it: [0, low] is integrated in u, and [low, 1] in s = log u
    with a breakpoint every 23 e-folds, so every ratio down to subnormal ones
    is resolved.  At n = 0 it is 1/(z + conj(w)) in mpmath.
    """
    z, w = mp.mpc(z), mp.mpc(w)
    if n == 0:
        return 1 / (z + mp.conj(w))
    c = max(abs(z), abs(w))
    a, b = z / c, mp.conj(w) / c
    coeffs = [mp.mpf((-1) ** k * math.comb(n - 1, k) * math.factorial(k) * math.factorial(n - 1))
              / math.factorial(n + k) for k in range(n)]

    def integrand(u):
        return mp.polyval(coeffs[::-1], u) * (1 / (a + u * b) + 1 / (b + u * a))

    low = min(abs(a), abs(b))
    value = mp.quad(integrand, [0, low])
    if low < 1:
        s0 = mp.log(low)
        steps = int(mp.ceil(-s0 / 23))
        value += mp.quad(lambda s: integrand(mp.exp(s)) * mp.exp(s), mp.linspace(s0, 0, steps + 1))
    return value / (math.factorial(n - 1) ** 2 * c)


#: (|z|/|w|, arg z, arg w) of the accuracy map at every order: near 1 on both
#: sides of the closed form's rule/log switch at 1/2, down to 1e-8, and with
#: a + u b nearly vanishing at u = |z|/|w| (both arguments at the margin)
MAP_CASES = ((1.0, -1.05, 1.05), (0.55, -1.05, 1.05), (0.45, -1.05, 1.05), (0.1, -1.05, 1.05),
             (1e-8, -1.05, 1.05), (0.45, MARGIN, MARGIN), (1e-4, MARGIN, MARGIN))
#: the map's cases on the switch itself, where the closed form's rule meets
#: its nearest poles: at distance 1 from [0, 1] (both arguments at +-MARGIN)
#: and oblique.  They map the closed form alone: the quadrature route, whose
#: tolerance is rel_tol = 1e-9, reads up to 7.2e-12 at the first two
RULE_POLE_CASES = ((0.5, MARGIN, MARGIN), (0.5, -MARGIN, -MARGIN), (0.5, 1.2, -1.2))
#: one extreme |z|/|w| per order (all of them at n = 0, whose reference is
#: free), 1e-320 (subnormal) at 1, 8, 15 and 16
MAP_EXTREMES = {0: (1e-16, 1e-50, 1e-100, 1e-200, 1e-300, 1e-320), 1: (1e-320,), 2: (1e-300,),
                3: (1e-200,), 4: (1e-100,), 5: (1e-50,), 6: (1e-16,), 7: (1e-30,), 8: (1e-320,),
                9: (1e-16,), 10: (1e-30,), 11: (1e-50,), 12: (1e-100,), 13: (1e-200,),
                14: (1e-300,), 15: (1e-320,), 16: (1e-320,)}
#: relative error bound of the map: the worst measured was 9.2e-16 (n = 14,
#: |z| = |w|, args -1.05 and 1.05), with 30-digit references.  The band
#: 1/2 < |z|/|w| < 1, which the map does not sample, breaks it from n = 7 on
#: (1.0e-15 there, 3.4e-15 at n = 16): see ``test_accuracy_band``
MAP_TOL = 1e-15
#: (|z|/|w|, arg z, arg w) of the band 1/2 < |z|/|w| < 1, where both argument
#: orders take the log branch of ``_q_sum``
BAND_CASES = tuple((r, tz, tw) for r in (0.54, 0.6, 0.75, 0.88)
                   for tz, tw in ((1.2, -1.2), (-1.05, 1.05)))
#: worst relative error over BAND_CASES of each order that breaks MAP_TOL, measured
#: against 30- and 40-digit references alike; the excess comes from evaluating
#: Q_m on the log branch, not from the final sum (condition about 2)
BAND_WORST = {7: 1.02e-15, 8: 1.37e-15, 9: 1.35e-15, 10: 1.77e-15, 11: 1.85e-15, 12: 2.18e-15,
              13: 2.29e-15, 14: 2.49e-15, 15: 3.03e-15, 16: 3.36e-15}
#: bound on the quadrature route's relative error on the map's cases, a
#: figure sampled there and not the route's accuracy, which is its rel_tol of
#: 1e-9: the worst measured was 3.07e-12 (n = 11, the diagonal at arg z =
#: -(pi/2 - 1e-6)); the cases within 1e-6 of the axis read 2.6e-12 to
#: 3.1e-12 at n >= 1 where the route integrates (0, 1) in one piece
#: (|z|/|w| = 0.45 and the diagonal) and 6.3e-13 to 6.9e-13 at 1e-4, where it
#: maps the head; the others at most 4.6e-13 (n = 5, |z|/|w| = 1e-50).  Off
#: the cases it reads more: at n = 1 with both arguments at arg MARGIN, 6.0e-12
#: at |z|/|w| = 0.25, 6.7e-12 at 0.5 and 2.6e-11 at 0.501.  The route refuses
#: the subnormal ratio 1e-320 (the extreme at n = 1, 8, 15 and 16), below its
#: floor of 1/DBL_MAX
QUAD_MAP_TOL = 4e-12
#: min(|z|, |w|)/max(|z|, |w|) of the route-agreement grid: just under the
#: quadrature route's switch at 1/8, down to its refusal at about 5.6e-309
ROUTE_RATIOS = (0.124, 1e-3, 1e-8, 1e-100, 1e-300, 1e-305, 5.6e-309)
#: the quadrature diagonal checks the closed-form one to its own accuracy: over
#: n = 1..8 and |arg z| <= pi/2 - 1e-3 it is off by up to 2.1e-13 (n = 2,
#: |arg z| = 1.452), where the closed form is within 1e-16 of the reference
DIAG_TOL = 1e-12


class TestAnchors:
    def test_order_zero(self):
        assert kernel_eval_closed(0, 1.0, 1.0) == 0.5
        assert kernel_eval_closed(0, 1.0, 1 + 1j) == 1.0 / (1.0 + (1 - 1j))

    def test_order_zero_against_exact_rationals(self):
        # K_0(z, w) = 1/(z + conj(w)), exact on the doubles given; at n = 0
        # the quadrature route is the closed form, so this is the order's
        # independent check.  Points from 1e-320 to 1.5e308, next to the axis
        # and on it up to 5e-324.  Every value is within 2 eps of the exact
        # one, normwise, or within two subnormal steps 2^-1074 where that is
        # larger, as for subnormal results (measured: 0.76 eps, and 0.67
        # steps); a value past the largest double raises, and only such a value
        moduli = (1e-320, 1e-310, 1e-300, 1e-8, 1.0, 1e8, 1e300, 1.5e308)
        args = (-1.0, math.pi / 2 - 1e-9, -(math.pi / 2 - 1e-12))
        pts = [complex(r) for r in moduli] + [r * cmath.exp(1j * t) for r in moduli for t in args]
        pts += [1e-300 + 1j, 5e-324 + 1e-5j, 1e-200 - 1e200j, 5e-324 - 1j, 1e-10 + 1.5e308j]
        pts = [z for z in pts if z.real > 0]  # next to the axis, a tiny Re z rounds to 0
        huge = Fraction(sys.float_info.max)

        def units(x):
            # a double as an exact integer count of the subnormal step 2^-1074
            return int(Fraction(x) * 2**1074)

        def sum_units(z, w):
            # z + conj(w) = (a + ib) 2^-1074, in Gaussian integers
            return units(z.real) + units(w.real), units(z.imag) - units(w.imag)

        def close(got, z, w):
            # 1/(z + conj(w)) = (a - ib) 2^1074 / d with d = a^2 + b^2, so
            # err = (|got - K_0| d 2^1074)^2 and |K_0|^2 = 2^2148 / d
            a, b = sum_units(z, w)
            d = a * a + b * b
            err = (units(got.real) * d - a * 2**2148) ** 2 + (units(got.imag) * d + b * 2**2148) ** 2
            return err <= 4 * max(Fraction(EPS) ** 2 * 2**4296 * d, d * d)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in pts:
                for w in pts:
                    a, b = sum_units(z, w)
                    if 2**2148 > huge**2 * (a * a + b * b):
                        with pytest.raises(ValueError, match="overflows$"):
                            kernel_eval_closed(0, z, w)
                    else:
                        assert close(kernel_eval_closed(0, z, w), z, w), (z, w)
            # K_0(z, z) = 1/(2 Re z) is finite on these, and so is every entry
            # between two of them: |z + conj(w)| >= Re z + Re w
            inner = [z for z in pts if 2 * Fraction(z.real) * huge >= 1]
            G = gram_matrix(0, inner)
            diag = kernel_diag(0, np.array(inner))
            for i, z in enumerate(inner):
                assert close(complex(diag[i]), z, z), z
                for j, w in enumerate(inner):
                    assert close(G[i, j], z, w), (z, w)

    def test_k1_diagonal(self):
        assert abs(kernel_eval_closed(1, 1.0, 1.0) - 2 * LN2) < 1e-14
        assert abs(kernel_eval_quadrature(1, 1.0, 1.0) - 2 * LN2) < 1e-9

    def test_k2_diagonal(self):
        expected = (4 * LN2 - 1) / 3
        assert abs(kernel_eval_closed(2, 1.0, 1.0) - expected) < 1e-14
        assert abs(kernel_eval_quadrature(2, 1.0, 1.0) - expected) < 1e-9

    def test_k1_off_diagonal(self):
        # (1/2) log 3 + log(3/2) by direct substitution
        expected = 0.5 * math.log(3.0) + math.log(1.5)
        assert abs(kernel_eval_closed(1, 2.0, 1.0) - expected) < 1e-14

    def test_k3_diagonal(self):
        expected = -11 / 120 + (4 / 15) * LN2
        assert abs(kernel_eval_closed(3, 1.0, 1.0) - expected) < 1e-14


class TestClosedForms:
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_displays_match_derived_combination(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            z = complex(rng.uniform(0.1, 5.0), rng.uniform(-4.0, 4.0))
            w = complex(rng.uniform(0.1, 5.0), rng.uniform(-4.0, 4.0))
            a = displays(n, z, w.conjugate())
            b = kernel_eval_closed(n, z, w)
            assert abs(a - b) <= 1e-12 * abs(a)

    @pytest.mark.parametrize("n", range(MAX_ORDER + 1))
    def test_accuracy_map(self, n):
        # the closed form against a 30-digit reference: |z|/|w| from 1 down
        # to 1e-320, both arguments within 1e-6 of the imaginary axis where
        # a + u b nearly vanishes, and the diagonal, there by kernel_diag;
        # |z|/|w| > 1 by Hermitian symmetry, against the same reference.
        # The quadrature route meets the same references to QUAD_MAP_TOL,
        # off RULE_POLE_CASES
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        cases = MAP_CASES + RULE_POLE_CASES + tuple((r, 0.3, -1.2) for r in MAP_EXTREMES[n])
        for r, tz, tw in cases:
            z, w = r * cmath.exp(1j * tz), cmath.exp(1j * tw)
            ref = duffy_reference(n, z, w, mp)
            for value in (kernel_eval_closed(n, z, w), kernel_eval_closed(n, w, z).conjugate()):
                assert abs(mp.mpc(value) - ref) <= MAP_TOL * abs(ref), (r, tz, tw)
            if (r, tz, tw) in RULE_POLE_CASES:
                continue
            quadrature = (lambda: kernel_eval_quadrature(n, z, w),
                          lambda: kernel_eval_quadrature(n, w, z).conjugate())
            for route in quadrature:
                if n and r == 1e-320:
                    with pytest.raises(ValueError, match="^the quadrature route cannot take"):
                        route()
                else:
                    assert abs(mp.mpc(route()) - ref) <= QUAD_MAP_TOL * abs(ref), (r, tz, tw)
        for z in (1.0, cmath.exp(-1j * MARGIN)):
            ref = duffy_reference(n, z, z, mp)
            assert abs(kernel_diag(n, z) - ref) <= MAP_TOL * abs(ref), z
            assert abs(kernel_eval_quadrature(n, z, z) - ref) <= QUAD_MAP_TOL * abs(ref), z

    @pytest.mark.parametrize("n", [
        pytest.param(n, marks=pytest.mark.xfail(
            strict=True, reason=f"log-branch Q_m: worst band error {BAND_WORST[n]:.3g}"))
        if n in BAND_WORST else n
        for n in range(MAX_ORDER + 1)])
    def test_accuracy_band(self, n):
        # the closed form against a 30-digit reference at 1/2 < |z|/|w| < 1,
        # both argument orders, to the map's bound
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for r, tz, tw in BAND_CASES:
            z, w = r * cmath.exp(1j * tz), cmath.exp(1j * tw)
            ref = duffy_reference(n, z, w, mp)
            for value in (kernel_eval_closed(n, z, w), kernel_eval_closed(n, w, z).conjugate()):
                assert abs(mp.mpc(value) - ref) <= MAP_TOL * abs(ref), (r, tz, tw)

    def test_one_pass_equals_two_calls_exactly(self):
        # both argument orders in one _q_sum pass give each element bit for
        # bit as one call per order does: the accuracy map's arguments in
        # both directions and its diagonals, as one batch per order and as
        # one-element batches
        for n in range(1, MAX_ORDER + 1):
            cases = MAP_CASES + RULE_POLE_CASES + tuple((r, 0.3, -1.2) for r in MAP_EXTREMES[n])
            zs = [r * cmath.exp(1j * tz) for r, tz, _ in cases]
            ws = [cmath.exp(1j * tw) for _, _, tw in cases]
            diag = [1.0, cmath.exp(-1j * MARGIN)]
            z = np.array(zs + ws + diag)
            v = np.array(ws + zs + diag).conj()
            want = closed_form_two_calls(n, z, v)
            assert _closed_form(n, z, v).tobytes() == want.tobytes(), n
            for i in range(len(z)):
                assert _closed_form(n, z[i:i + 1], v[i:i + 1]).tobytes() == want[i:i + 1].tobytes(), (n, i)

    @pytest.mark.parametrize("n", (1, 8))
    def test_reference_matches_asymptote(self, n):
        # K_n(z, 1) = log(1/z)/(n Gamma(n)^2) + O(1) as z -> 0: at z = 1e-300
        # the reference sits just above the leading term
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        lead = math.log(1e300) / (n * math.factorial(n - 1) ** 2)
        assert 1.0001 < duffy_reference(n, 1e-300, 1.0, mp).real / lead < 1.0015

    @pytest.mark.parametrize("n", (4, 5, 6, 7, 8, 12, 16))
    def test_derived_orders_match_quadrature(self, n):
        for z, w in ((1.0, 1.0), (1.5 + 0.7j, 0.8 - 0.4j), (0.3 - 0.2j, 2.5 + 1.0j)):
            c = kernel_eval_closed(n, z, w)
            q = kernel_eval_quadrature(n, z, w)
            assert abs(c - q) <= 1e-6 * abs(q)

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 5):
            z = complex(rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0))
            w = complex(rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0))
            a = kernel_eval_closed(n, z, w)
            b = kernel_eval_closed(n, w, z)
            assert abs(a - b.conjugate()) <= 1e-12 * abs(a)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            kernel_eval_closed(1, -1.0, 1.0)
        with pytest.raises(ValueError, match=r"^the order must lie in 0\.\.16, got 17$"):
            kernel_eval_closed(17, 1.0, 1.0)


#: bound of the closed form's rule's moments against exact rationals, in ulps of
#: sum_j |W_n[j] x_j^k|: the worst measured was 3.57 (n = 1, k = 23), where each
#: node's rounding enters the degree-23 power 23 times
RULE_MOMENT_ULPS = 6


class TestClosedFormRule:
    """The fixed Gauss-Legendre rule of the closed form's elements with |b| <= |a|/2."""

    def test_nodes_match_leggauss(self):
        t, _ = np.polynomial.legendre.leggauss(len(_RULE))
        assert np.abs(_RULE_NODES - 0.5 * (t + 1.0)).max() <= 2.0**-52

    def test_nodes_and_weights_are_correctly_rounded(self):
        # two Newton steps from each node on the oracle's recurrence at 40
        # digits find the root of P_N(2x - 1), and its weight
        # 1/((1 - t^2) P_N'(t)^2); both round to the table's entries
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        N = len(_RULE)

        def slope(t):
            return N * (t * legendre(N, t) - legendre(N - 1, t)) / (t * t - 1)

        for x, w in _RULE:
            t = 2 * mp.mpf(x) - 1
            for _ in range(2):
                t -= legendre(N, t) / slope(t)
            assert abs((1 + t) / 2 - x) <= math.ulp(x) / 2, x
            assert abs(1 / ((1 - t * t) * slope(t) ** 2) - w) <= math.ulp(w) / 2, x

    def test_weights_integrate_polynomials_exactly(self):
        # W_n[j] = w_j P_n(x_j) integrates P_n x^k exactly for k <= 2N - n,
        # in exact sums of the stored doubles; P_n's coefficients are the
        # derived ones of the log branch
        N = len(_RULE)
        for n in range(1, MAX_ORDER + 1):
            c = [Fraction((-1) ** m, math.factorial(n - 1 - m) * math.factorial(n + m))
                 for m in range(n)]
            assert tuple(map(float, c)) == _derived_coefficients(n)
            for k in range(2 * N - n + 1):
                exact = sum(cm / (m + k + 1) for m, cm in enumerate(c))
                terms = [Fraction(w) * Fraction(x) ** k
                         for w, x in zip(_rule_weights(n).tolist(), _RULE_NODES.tolist())]
                bound = RULE_MOMENT_ULPS * 2.0**-52 * sum(map(abs, terms))
                assert abs(sum(terms) - exact) <= bound, (n, k)

    def test_closed_form_never_imports_numpy_polynomial(self):
        # the rule's nodes are literals: numpy.polynomial would add about
        # 1.4 MB to every process that evaluates a kernel
        code = ("import sys, hsob\n"
                "hsob.gram_matrix(8, [1.0, 0.3 + 0.2j, 0.05 - 0.02j, 2.0 + 1.0j])\n"
                "hsob.kernel_eval_closed(8, 0.1, 1.0)\n"
                "assert sys.modules['hsob.kernel']._rule_weights.cache_info().currsize\n"
                "assert 'numpy.polynomial' not in sys.modules\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr


class TestQuadratureAgreement:
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_log_polar_grid(self, n):
        for rz in (0.01, 1.0, 100.0):
            for rw in (0.01, 1.0, 100.0):
                for tz, tw in ((math.pi / 3, -math.pi / 3), (-math.pi / 3, math.pi / 3)):
                    z = rz * cmath.exp(1j * tz)
                    w = rw * cmath.exp(1j * tw)
                    c = kernel_eval_closed(n, z, w)
                    q = kernel_eval_quadrature(n, z, w)
                    assert abs(c - q) <= 1e-7 * abs(c)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("w_large", (False, True))
    @pytest.mark.parametrize("modulus", (1e8, 1e9))
    def test_warranty_edge_ratio(self, n, modulus, w_large):
        # |z|/|w| = modulus^(+-1), with either argument the large one; the
        # value is ~1/modulus, far below abs_tol unless the quadrature
        # integrates at scale 1
        if w_large:
            z, w = cmath.exp(1j * 0.4), modulus * cmath.exp(-1j * math.pi / 3)
        else:
            z, w = modulus * cmath.exp(1j * math.pi / 3), cmath.exp(-1j * 0.4)
        c = kernel_eval_closed(n, z, w)
        q = kernel_eval_quadrature(n, z, w)
        assert abs(c - q) <= 1e-9 * abs(c)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("c", (1e6, 1e-6))
    def test_homogeneity(self, n, c):
        # K_n(cz, cw) = K_n(z, w)/c; at |z|/|w| ~ 1e3 the integrand has a
        # peak to resolve, so a stop on abs_tol at c = 1e6 would show
        z, w = 1.5 + 0.7j, 8e-4 - 4e-4j
        base = kernel_eval_quadrature(n, z, w)
        assert abs(c * kernel_eval_quadrature(n, c * z, c * w) - base) <= 1e-12 * abs(base)

    @pytest.mark.parametrize("n", (1, 8))
    def test_tiny_argument_converges(self, n):
        c = kernel_eval_closed(n, 1e-300, 1.0)
        q = kernel_eval_quadrature(n, 1e-300, 1.0)
        assert abs(c - q) <= 1e-9 * abs(c)

    @pytest.mark.parametrize("n", (1, 2, 5, 8))
    def test_subnormal_argument_stays_finite(self, n):
        # K_n(z, 1) = log(1/z)/(n Gamma(n)^2) + C_n + o(1) as z -> 0: a
        # subnormal z must give the same C_n as z = 1e-300
        def offset(z):
            value = kernel_eval_closed(n, z, 1.0)
            return value, value.real + math.log(z) / (n * math.factorial(n - 1) ** 2)

        value, c_tiny = offset(1e-320)
        _, c_small = offset(1e-300)
        assert abs(c_tiny - c_small) <= 1e-12 * abs(value)

    def test_route_functions(self):
        # each route is its own function through n = 16, and both refuse
        # n = 17 alike; no route falls back to the other
        assert abs(kernel_eval_closed(1, 1.0, 1.0) - 2 * LN2) < 1e-14
        assert abs(kernel_eval_quadrature(1, 1.0, 1.0) - 2 * LN2) < 1e-9
        for z, w in ((1.0, 1.0), (1e7, 1.0), (1.0, 1e7), (1e-320, 1.0)):
            assert math.isfinite(kernel_eval_closed(16, z, w).real)
        assert math.isfinite(kernel_eval_quadrature(16, 1.0, 1.0).real)
        for route in (kernel_eval_closed, kernel_eval_quadrature):
            with pytest.raises(ValueError, match=r"^the order must lie in 0\.\.16, got 17$"):
                route(17, 1.0, 1.0)

    @pytest.mark.parametrize("n", (1, 2, 9, 16))
    def test_quadrature_refuses_overflowing_ratio(self, n):
        # the route takes ratios down to 1/DBL_MAX, about 5.6e-309; c/ratio in
        # its head map's log1p(c/ratio) overflows from about 1.4e-309 down.
        # The refusal names the ratio min/max that it tested, in either
        # argument order
        for z, w, shown in ((1e-320, 1.0, "1e-320"), (1.0, 5e-309, "5e-309"),
                            (1e-300, 1e10, "1e-310")):
            for a, b in ((z, w), (w, z)):
                with pytest.raises(ValueError) as err:
                    kernel_eval_quadrature(n, a, b)
                assert str(err.value) == (
                    f"the quadrature route cannot take min(|z|, |w|)/max(|z|, |w|) = {shown}, "
                    "below 1/DBL_MAX (about 5.6e-309): its head map's log1p(c/ratio), c = 1/4, "
                    "overflows from about 1.4e-309 down")
        q = kernel_eval_quadrature(n, 5.6e-309, 1.0)
        assert abs(q - kernel_eval_closed(n, 5.6e-309, 1.0)) <= 1e-9 * abs(q)

    @pytest.mark.parametrize("n", (1, 2, 9, 16))
    def test_closed_form_refuses_ratio_below_the_smallest_subnormal(self, n):
        # min(|z|, |w|)/max(|z|, |w|) rounds to 0 below about 2.5e-324, so the
        # smaller unit-scale argument is 0 and the log branch reads log 0,
        # though K_1(1e300, 1e-30) is about 7.4e-298: a ValueError naming the
        # ratio, in either argument order, from kernel_eval_closed and
        # gram_matrix alike, not a value past the largest double.  At the
        # smallest subnormal ratio, and at 1e-323, the value is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z, w in ((1e300, 1e-30), (1e305 + 1e305j, 1e-22 + 1e-20j), (1e308, 1e-24 + 1e-16j)):
                for a, b in ((z, w), (w, z)):
                    want = (f"the closed form cannot take min(|z|, |w|)/max(|z|, |w|) = 0, below "
                            f"the smallest subnormal (about 4.9e-324), at points {complex(a)} "
                            f"and {complex(b)}")
                    for call in (lambda: kernel_eval_closed(n, a, b),
                                 lambda: gram_matrix(n, [a, b]),
                                 lambda: gram_matrix(n, [1.0, a, b])):
                        with pytest.raises(ValueError) as err:
                            call()
                        assert str(err.value) == want, (a, b)
            for z, w in ((1.0, 5e-324), (1e300, 1e-23), (2.0, 1e-323)):
                for a, b in ((z, w), (w, z)):
                    value = kernel_eval_closed(n, a, b)
                    assert cmath.isfinite(value) and value != 0
            assert gram_matrix(n, [1e300, 1e-23])[1, 0] == kernel_eval_closed(n, 1e-23, 1e300)
        if n == 1:
            assert abs(kernel_eval_closed(1, 1e300, 1e-23) - 7.447469247408213e-298) <= 1e-311

    def test_route_validation(self):
        # a negative order is refused by name on both routes, before any
        # factorial or quadrature, and so is a point off C+
        for route in (kernel_eval_closed, kernel_eval_quadrature):
            with pytest.raises(ValueError, match=r"^the order must lie in 0\.\.16, got -1$"):
                route(-1, 1.0, 1.0)
            with pytest.raises(ValueError, match="open right half-plane"):
                route(1, -1.0, 1.0)

    @pytest.mark.parametrize("bad", [complex(1, math.nan), complex(math.nan, 1),
                                     complex(math.inf, 0), complex(1, -math.inf)])
    def test_nonfinite_arguments_rejected(self, bad):
        # every entry point validates once, in the half-plane check
        for call in (lambda: kernel_eval_closed(1, bad, 1.0),
                     lambda: kernel_eval_closed(1, 1.0, bad),
                     lambda: kernel_eval_quadrature(2, bad, 1.0),
                     lambda: kernel_diag(1, bad)):
            with pytest.raises(ValueError, match="finite"):
                call()

    def test_nonfinite_gram_point_is_a_value_error(self):
        # not a QuadratureError from deep inside the integrator
        with pytest.raises(ValueError, match="finite"):
            gram_matrix(2, [math.inf, 1.0])

    @pytest.mark.parametrize("n", (1, 2, 8, 16))
    def test_routes_agree_down_to_the_refusal(self, n):
        # both routes at min(|z|, |w|)/max(|z|, |w|) from just under the
        # switch at 1/8 down to the refusal, at |arg| = pi/3, at the args
        # -1.05 and 1.05, and with both arguments within 1e-6 of the same
        # half of the axis, in both argument orders, to the route's rel_tol
        for r in ROUTE_RATIOS:
            for tz, tw in ((math.pi / 3, -math.pi / 3), (-1.05, 1.05), (MARGIN, MARGIN),
                           (-MARGIN, -MARGIN)):
                z, w = r * cmath.exp(1j * tz), cmath.exp(1j * tw)
                for a, b in ((z, w), (w, z)):
                    c = kernel_eval_closed(n, a, b)
                    assert abs(c - kernel_eval_quadrature(n, a, b)) <= 1e-9 * abs(c), (r, tz, tw)

    @pytest.mark.parametrize("n", (1, 8, 16))
    def test_tiny_ratios_next_to_the_axis(self, n):
        # at 1e-311 + 1e-305i against 1e-6 + i the pole of 1/(a + u b) lies
        # about 1e-305 from u = 0 and 1e-311 from the real line, so that term
        # would reach 1e311, and the mapped head never forms it; with both
        # arguments near +i the mapped head's pole lies about 1e-10 from the
        # real t-axis, closer than t = expm1(s L) resolves from s alone
        for z, w in ((1e-311 + 1e-305j, 1e-6 + 1j), (1e-15 + 1e-5j, 1e-15 + 1j),
                     (1e-16 + 1e-5j, 1e-16 + 1j)):
            for a, b in ((z, w), (w, z)):
                c = kernel_eval_closed(n, a, b)
                assert abs(c - kernel_eval_quadrature(n, a, b)) <= 1e-9 * abs(c), (a, b)
        if n == 1:
            want = 3.1422939420 + 703.28845022j
            q = kernel_eval_quadrature(1, 1e-311 + 1e-305j, 1e-6 + 1j)
            assert abs(q - want) <= 1e-10 * abs(want)

    def test_mapped_head_cost(self, monkeypatch):
        # integrand nodes per route call at |arg| <= pi/3, in both argument
        # orders: 90 at 1e-8 and 330-390 at 1e-300 with the mapped head,
        # where bisecting (0, 1) toward the pole took 1485 and 59625.  At the
        # switch 1/8 the route is one call on (0, 1), just below it two
        calls = []
        real = hsob.kernel.integrate_interval

        def counted(f, a, b):
            def g(x):
                calls[-1][2] += len(x)
                return f(x)

            calls.append([a, b, 0])
            return real(g, a, b)

        monkeypatch.setattr(hsob.kernel, "integrate_interval", counted)
        for r, bound in ((1e-8, 150), (1e-300, 600)):
            for n in (1, 2, 8, 16):
                for tz, tw in ((math.pi / 3, -math.pi / 3), (-1.05, 1.05)):
                    z, w = r * cmath.exp(1j * tz), cmath.exp(1j * tw)
                    for a, b in ((z, w), (w, z)):
                        calls.clear()
                        kernel_eval_quadrature(n, a, b)
                        assert [c[:2] for c in calls] == [[0.0, 1.0], [0.25, 1.0]]
                        assert sum(c[2] for c in calls) <= bound, (r, n, tz, tw)
        for r, pieces in ((0.125, [[0.0, 1.0]]), (0.1249, [[0.0, 1.0], [0.25, 1.0]])):
            calls.clear()
            kernel_eval_quadrature(3, r, 1.0)
            assert [c[:2] for c in calls] == pieces

    def test_order_zero_overflow_is_refused(self):
        # 1/(z + conj(w)) past the largest double raises the closed form's error
        for route in (kernel_eval_closed, kernel_eval_quadrature):
            with pytest.raises(ValueError) as err:
                route(0, 1e-320, 1e-320)
            assert str(err.value) == "kernel value at point (1e-320+0j) overflows"


class TestSquareOracle:
    """The graded square rule on known integrals, then against the Duffy route."""

    def test_constant(self):
        assert abs(graded_square(lambda t, s: np.ones(np.broadcast(t, s).shape)) - 1.0) < 1e-12

    def test_corner_log_oracle(self):
        # antiderivative pattern (x+y)log(x+y) gives exactly 2 log 2
        assert abs(graded_square(lambda t, s: 1.0 / (t + s)) - 2 * LN2) < 1e-10

    def test_kernel_integrand_instance(self):
        # (1-t)(1-s)/(t+s) equals the order-2 kernel at z = w = 1
        value = graded_square(lambda t, s: (1 - t) * (1 - s) / (t + s))
        assert abs(value - (4 * LN2 - 1) / 3) < 1e-10

    def test_agrees_with_interval_composition_on_smooth(self):
        # product integrand exp(-t-s): square rule vs two 1-D passes
        line = integrate_interval(lambda t: np.exp(-t), 0.0, 1.0)
        assert abs(graded_square(lambda t, s: np.exp(-t - s)) - line.value**2) < 1e-10

    @pytest.mark.parametrize("n", (1, 2, 3, 5, 8))
    def test_matches_duffy_route(self, n):
        scale = 1.0 / math.factorial(n - 1) ** 2
        for z, w in ((1.0, 1.0), (1.5 + 0.7j, 0.8 - 0.4j), (0.3 - 0.2j, 2.5 + 1.0j)):
            v = complex(w).conjugate()
            square = graded_square(
                lambda t, s: scale * (1 - t) ** (n - 1) * (1 - s) ** (n - 1) / (z * t + s * v))
            q = kernel_eval_quadrature(n, z, w)
            assert abs(square - q) <= 1e-10 * abs(q)


class TestAngularFactor:
    def test_center_value(self):
        assert i_theta(0.0) == 0.5

    def test_symmetry(self):
        for t in (0.3, 1.0, 1.5):
            assert i_theta(t) == i_theta(-t)

    def test_pi_third(self):
        assert abs(i_theta(math.pi / 3) - math.pi / (3 * math.sqrt(3))) < 1e-14

    def test_matches_defining_integral(self):
        for theta in np.linspace(-math.pi / 2 + 0.05, math.pi / 2 - 0.05, 15):
            quad = integrate_interval(
                lambda t, c=theta: math.cos(c) / (t**2 + 1 + 2 * t * math.cos(2 * c)),
                0.0, 1.0,
            ).value.real
            assert abs(i_theta(theta) - quad) < 1e-10

    def test_series_patch_matches_direct_formula(self):
        # inside the series window the direct ratio is still accurate enough
        # to compare against
        for theta in (0.99e-4, 5e-5, 1e-6):
            assert abs(i_theta(theta) - 0.5 * theta / math.sin(theta)) < 1e-14

    def test_range_and_domain(self):
        for t in np.linspace(-1.5, 1.5, 31):
            assert 0.5 <= i_theta(t) <= math.pi / 4 + 1e-12
        with pytest.raises(ValueError):
            i_theta(math.pi / 2)


class TestDiagonalAndBounds:
    def test_norm_anchors(self):
        assert abs(kernel_norm(1, 1.0) - math.sqrt(2 * LN2)) < 1e-10
        assert abs(kernel_norm(0, 4.0) - 1 / math.sqrt(8)) < 1e-15

    @pytest.mark.parametrize("n", (0, 1, 2, 5))
    def test_norm_ray_identity(self, n):
        # ||K_{n,ru}|| sqrt(r) = ||K_{n,u}||, also at subnormal |z|, where
        # K_n(z, z) itself overflows; powers of two keep r u exact
        for u in (1.0, 3 + 4j, 1 - 2j, 1 + 8j):
            want = kernel_norm(n, u)
            for r in (2.0**-1030, 2.0**-997, 1.0, 2.0**997):  # |z| ~ 1e-310, 1e-300, 1, 1e300
                got = kernel_norm(n, r * u) * math.sqrt(r)
                assert abs(got - want) <= 1e-14 * want

    def test_norm_past_diagonal_overflow(self):
        # K_1(z, z) = 2 log 2 / z overflows at z = 1e-310; the norm is 1.18e155
        assert abs(kernel_norm(1, 1e-310) * math.sqrt(1e-310) - math.sqrt(2 * LN2)) < 1e-10

    @pytest.mark.parametrize("n", range(MAX_ORDER + 1))
    def test_values_at_subnormal_scale(self, n):
        # K_n(z, z) = K_n(1, 1)/z at subnormal z, where 1/z overflows: every
        # entry point gives it to 1e-15 where it is finite (from n = 4 at
        # 1e-310, n = 12 at 5e-324), and one ValueError naming the point
        # where it is not, with numpy silent both ways
        routes = (lambda z: kernel_diag(n, z),
                  lambda z: kernel_diag(n, np.array([1.0, z]))[1],
                  lambda z: kernel_eval_closed(n, z, z).real,
                  lambda z: gram_matrix(n, [z, 1.0])[0, 0].real)
        unit = kernel_diag(n, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in (1e-310, 1e-315, 1e-320, 5e-324):
                want = unit / z
                for route in routes:
                    if math.isfinite(want):
                        assert abs(route(z) - want) <= 1e-15 * want, z
                    else:
                        with pytest.raises(ValueError) as err:
                            route(z)
                        assert str(err.value) == f"kernel value at point {complex(z)} overflows"

    def test_diag_matches_closed_form(self):
        # the diagonal is the closed form at w = z, real to the last bit; the
        # quadrature diagonal checks it, also at the default argument margin
        edge = math.pi / 2 - 1e-3
        for n in range(1, 9):
            for z in (1.0, 2.0 + 1.0j, 0.05 * cmath.exp(-1j * 1.3), cmath.exp(1j * edge),
                      1e3 * cmath.exp(-1j * edge)):
                d = kernel_diag(n, z)
                c = kernel_eval_closed(n, z, z)
                assert d == c.real and c.imag == 0.0
                q = kernel_eval_quadrature(n, z, z)
                assert abs(d - q.real) <= DIAG_TOL * d

    @pytest.mark.parametrize("n", (1, 8, 16))
    def test_diag_and_norm_up_to_the_axis(self, n):
        # no argument margin: within 1e-9 and 1e-14 of the imaginary axis the
        # diagonal and the norm keep the map's bound against the reference
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for z in (3.0 * cmath.exp(1j * (math.pi / 2 - 1e-9)),
                  0.5 * cmath.exp(-1j * (math.pi / 2 - 1e-14))):
            ref = duffy_reference(n, z, z, mp).real
            assert abs(kernel_diag(n, z) - ref) <= MAP_TOL * ref, z
            assert abs(kernel_norm(n, z) - mp.sqrt(ref)) <= MAP_TOL * mp.sqrt(ref), z

    @pytest.mark.parametrize("n", (0, 1, 5, 8, 9, 16))
    def test_diag_array_equals_scalar_calls(self, n):
        # an array of points is one call, each element as a lone point gives it
        rng = np.random.default_rng(n)
        pts = 10 ** rng.uniform(-3, 3, 12) * np.exp(1j * rng.uniform(-1.5, 1.5, 12))
        diag = kernel_diag(n, pts)
        assert diag.shape == (12,)
        assert diag.tolist() == [kernel_diag(n, z) for z in pts]
        assert kernel_diag(n, pts[:0]).shape == (0,)
        with pytest.raises(ValueError):
            kernel_diag(n, np.append(pts, 1j))

    @pytest.mark.parametrize("n", (1, 8, 16))
    def test_norm_past_the_largest_double(self, n):
        # |z| overflows at z = 1.5e308(1 + i), so its norm and bounds are
        # taken at z/4 through ||K_{4z}|| = ||K_z||/2, a halving that changes no bit
        z = 1.5e308 + 1.5e308j
        assert kernel_norm(n, z) == kernel_norm(n, z / 4) / 2
        assert norm_bounds(n, z) == tuple(bound / 2 for bound in norm_bounds(n, z / 4))
        if n == 1:
            assert kernel_norm(n, z) == 8.687046884787415e-155

    def test_values_past_the_largest_double(self):
        # |z| overflows at z = 1.5e308(1 + i), and the closed form's lanes
        # there are redone at 2^-600 times their arguments: the values
        # underflow, as K_n(4z, 4z) = K_n(z, z)/4 gives them, and none raises.
        # A Gram entry may sit one subnormal step off, where dividing by 4
        # rounds, and so may every value at n = 0, where z + conj(w) itself
        # overflows: there the first pass reads 0, as does numpy's division
        # by the finite z + 1 of the Gram entry
        z = 1.5e308 + 1.5e308j
        step = math.ulp(0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 0 < kernel_diag(2, z) < 1e-308
            assert kernel_eval_closed(0, 1e308, 1e308) == 5e-309
            assert abs(kernel_diag(0, z) - float(1 / (2 * Fraction(z.real)))) <= step
            for n in range(MAX_ORDER + 1):
                slack = 0.0 if n else step
                assert abs(kernel_diag(n, z) - kernel_diag(n, z / 4) / 4) <= slack, n
                assert abs(kernel_eval_closed(n, z, z)
                           - kernel_eval_closed(n, z / 4, z / 4) / 4) <= slack, n
                got, want = gram_matrix(n, [z, 1.0]), gram_matrix(n, [z / 4, 0.25]) / 4
                assert (np.abs(got - want) <= 1e-15 * np.abs(want) + 5e-324).all(), n

    def test_bounds_examples(self):
        lo, hi = norm_bounds(1, 1.0)
        assert (lo, hi) == (1.0, math.sqrt(math.pi))
        assert lo <= kernel_norm(1, 1.0) <= hi
        lo, hi = norm_bounds(2, 1.0)
        assert abs(lo - 1 / math.sqrt(3)) < 1e-15
        assert abs(hi - math.sqrt(math.pi / 2)) < 1e-15
        assert lo <= kernel_norm(2, 1.0) <= hi

    @pytest.mark.parametrize("z", [-1.0, 0.0, 1j, complex(math.nan, 1), complex(1, math.nan),
                                   math.inf, complex(1, -math.inf)])
    def test_bounds_refuse_points_off_the_halfplane(self, z):
        # a point outside C+ has no bounds: not a finite pair off the axis,
        # an infinite pair with overflow warnings at 0, or a nan pair
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="z must"):
                norm_bounds(1, z)

    def test_bounds_scaling(self):
        lo1, hi1 = norm_bounds(3, 1.0)
        lo4, hi4 = norm_bounds(3, 4.0)
        assert abs(lo4 - lo1 / 2) < 1e-15
        assert abs(hi4 - hi1 / 2) < 1e-15

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
    def test_sandwich_on_grid(self, n):
        for r in np.logspace(-3, 3, 5):
            for theta in np.linspace(-math.pi / 2 + 0.05, math.pi / 2 - 0.05, 7):
                z = r * cmath.exp(1j * theta)
                nrm = kernel_norm(n, z)
                lo, hi = norm_bounds(n, z)
                assert lo < nrm < hi

    def test_ray_invariance(self):
        for n in (1, 2, 4):
            z1 = cmath.exp(1j * math.pi / 6)
            z2 = 100.0 * z1
            v1 = abs(z1) * kernel_diag(n, z1)
            v2 = abs(z2) * kernel_diag(n, z2)
            assert abs(v1 - v2) <= 1e-6 * abs(v1)

    def test_inter_level_inequality(self):
        # K_n(z,z) <= K_{n-1}(z,z)/(n-1)^2
        for n in (2, 3, 4, 5):
            for z in (1.0, 0.1 + 0.3j, 20.0 * cmath.exp(-1j * 1.2)):
                assert kernel_diag(n, z) <= kernel_diag(n - 1, z) / (n - 1) ** 2 * (1 + 1e-12)

    def test_order_one_against_plain_kernel(self):
        # ||K_{1,z}||_(1) <= sqrt(2 pi) ||K_{0,z}||
        for z in (1.0, 0.2 + 0.1j, 50.0 * cmath.exp(1j * 1.4)):
            assert kernel_norm(1, z) <= math.sqrt(2 * math.pi) * kernel_norm(0, z) * (1 + 1e-12)

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 8))
    def test_diag_matches_trigonometric_form(self, n):
        # the Duffy integrand at w = z, divided by 2 cos(theta), integrated
        # on its own as a test-only oracle
        for theta in (0.0, 0.7, -1.2, math.pi / 2 - 1e-3):
            z = 3.0 * cmath.exp(1j * theta)
            trig = integrate_interval(
                lambda t: (1 + t) * _p_eval(n, t) / (t * t + 1 + 2 * t * math.cos(2 * theta)),
                0.0, 1.0).value.real
            expected = 2 * math.cos(theta) * trig / (math.factorial(n - 1) ** 2 * abs(z))
            assert abs(kernel_diag(n, z) - expected) <= 1e-12 * expected


class TestGram:
    @pytest.mark.parametrize("n", range(MAX_ORDER + 2))
    @pytest.mark.parametrize("method", ("closed_form", "quadrature"))
    def test_entries_equal_kernel_eval_exactly(self, n, method):
        # through n = 16 each entry is kernel_eval_closed bit for bit, and
        # within 1e-9 of kernel_eval_quadrature; |z_i|/|z_j| reaches 3.6e9, and
        # the batch mixes rule ratios from 3e-10 to 1/2; the diagonal holds
        # the conjugate, as every entry above it does.  Past the warranty the
        # matrix and either route refuse the order with one message
        pts = [1.0, 0.7 + 0.5j, 2e-4 - 1e-4j, 3e3 + 4e3j, 8e5 * cmath.exp(-0.3j),
               0.35 - 0.2j, 2.5 + 1.5j, 0.05 + 0.02j, 40.0 - 70.0j]
        route = {"closed_form": kernel_eval_closed, "quadrature": kernel_eval_quadrature}[method]
        if n > MAX_ORDER:
            for call in (lambda: gram_matrix(n, pts), lambda: route(n, 1.0, 1.0)):
                with pytest.raises(ValueError, match=r"^the order must lie in 0\.\.16, got 17$"):
                    call()
            return
        G = gram_matrix(n, pts)
        for i, z in enumerate(pts):
            for j in range(i + 1):
                value = route(n, z, pts[j])
                if method == "quadrature":
                    assert abs(G[i, j] - value) <= 1e-9 * abs(value)
                else:
                    assert G[j, i] == value.conjugate()
                    assert G[i, j] == (value if i > j else value.conjugate())

    @pytest.mark.parametrize("n", range(MAX_ORDER + 1))
    def test_closed_form_batch_equals_scalar_calls(self, n):
        # 780 entries in one batch: no element's value depends on the others
        rng = np.random.default_rng(90 + n)
        pts = 10 ** rng.uniform(-3, 3, 40) * np.exp(1j * rng.uniform(-1.5, 1.5, 40))
        G = gram_matrix(n, pts)
        for i, z in enumerate(pts):
            for j in range(i):
                assert G[i, j] == kernel_eval_closed(n, z, pts[j])

    def test_one_closed_form_call_per_matrix(self, monkeypatch):
        # one _kernel_values call per matrix, on each side of the index
        # cache's bound; past it the indices are built for the call and not
        # kept, and the entries are the closed form's lanes bit for bit
        calls, values = [], hsob.kernel._kernel_values
        monkeypatch.setattr(hsob.kernel, "_kernel_values",
                            lambda *args: calls.append(1) or values(*args))
        rng = np.random.default_rng(32)
        for m in (1, 8, _TRIANGLE_CACHE_MAX, _TRIANGLE_CACHE_MAX + 1, 200):
            pts = 10 ** rng.uniform(-3, 3, m) * np.exp(1j * rng.uniform(-1.5, 1.5, m))
            cached = _cached_triangle.cache_info().currsize
            calls.clear()
            G = gram_matrix(2, pts)
            assert len(calls) == 1
            if m > _TRIANGLE_CACHE_MAX:
                assert _cached_triangle.cache_info().currsize == cached
            rows, cols = np.tril_indices(m)
            want = closed_form_two_calls(2, pts[rows], pts[cols].conj())
            assert G[rows, cols].tobytes() == np.where(rows == cols, want.conj(), want).tobytes()
            assert G[cols, rows].tobytes() == want.conj().tobytes()

    def test_single_point(self):
        G = gram_matrix(1, [1.0])
        assert abs(G[0, 0] - 2 * LN2) < 1e-12
        assert min_eigenvalue(G) > 0

    def test_duplicated_points_singular(self):
        G = gram_matrix(1, [1.0 + 0.5j, 1.0 + 0.5j])
        assert abs(min_eigenvalue(G)) < 1e-12

    @pytest.mark.parametrize("n", (0, 1, 2, 3))
    def test_random_psd(self, n):
        rng = np.random.default_rng(60 + n)
        pts = [complex(rng.uniform(0.2, 5.0), rng.uniform(-3.0, 3.0)) for _ in range(8)]
        G = gram_matrix(n, pts)
        assert min_eigenvalue(G) >= -1e-8

    def test_hermitian(self):
        # exactly, not to rounding: the jury hands its matrices to eigvalsh
        # without a Hermitised copy on the strength of this
        rng = np.random.default_rng(47)
        for n in range(MAX_ORDER + 2):
            pts = 10 ** rng.uniform(-3, 3, 12) * np.exp(1j * rng.uniform(-1.5, 1.5, 12))
            if n > MAX_ORDER:
                with pytest.raises(ValueError, match=r"^the order must lie in 0\.\.16, got 17$"):
                    gram_matrix(n, pts)
                continue
            G = gram_matrix(n, pts)
            for i in range(len(pts)):
                for j in range(len(pts)):
                    assert G[j, i] == G[i, j].conjugate(), (n, i, j)
                assert G[i, i].imag == 0.0, (n, i)

    def test_overflowing_entry_names_its_point(self):
        # K_1(z, z) passes the largest double at z = 1e-310: an error naming
        # the point, not a nan entry, and numpy stays silent
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=r"^kernel value at point \(1e-310\+0j\) overflows$"):
                gram_matrix(1, [1e-310, 1.0])
            with pytest.raises(ValueError, match=r"^kernel value at point \(1e-320\+0j\) overflows$"):
                gram_matrix(3, [1.0, 2.0 + 1.0j, 1e-320])


class TestOneRoute:
    """The closed form is the only production route through n = 16, and every
    entry point refuses a higher order."""

    @pytest.mark.parametrize("call", [
        lambda n: gram_matrix(n, [1.0, 2.0 + 1.0j]),
        lambda n: kernel_diag(n, 1.0),
        lambda n: kernel_diag(n, np.array([1.0, 2.0 + 1.0j])),
        lambda n: kernel_norm(n, 2.0 + 1.0j),
    ], ids=("gram", "diag", "diag_array", "norm"))
    def test_orders_past_the_cap_are_refused(self, call):
        call(MAX_ORDER)
        with pytest.raises(ValueError, match=r"^the order must lie in 0\.\.16, got 17$"):
            call(MAX_ORDER + 1)

    def test_no_quadrature_below_the_cap(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("integrate_interval called")

        monkeypatch.setattr(hsob.kernel, "integrate_interval", refuse)
        monkeypatch.setattr(hsob.quadrature, "integrate_interval", refuse)
        pts = [1.0, 0.7 + 0.5j, 2e-4 - 1e-4j, 3e3 + 4e3j, 0.35 - 0.2j]
        for n in range(9, MAX_ORDER + 1):
            assert np.isfinite(gram_matrix(n, pts)).all()
            assert np.isfinite(kernel_diag(n, np.array(pts))).all()
            assert math.isfinite(kernel_norm(n, 0.7 + 0.5j))
            assert math.isfinite(jury_min_m(parse("2*z+1"), n, pts[:3]))
        with pytest.raises(AssertionError, match="integrate_interval called"):
            kernel_eval_quadrature(9, 1.0, 1.0)


class TestReproduce:
    def test_anchor(self):
        # (L e_1)(1) = 1/2 against the time-side pairing
        assert reproduce_check(1, ExpPoly.exponential(1.0), 1.0) <= 1e-7

    def test_complex_point(self):
        f = ExpPoly.exponential(2.0)
        w = 1 + 1j
        assert abs(laplace(f)(w) - 1.0 / (3 + 1j)) < 1e-15
        assert reproduce_check(2, f, w) <= 1e-7

    def test_zero_function(self):
        assert reproduce_check(1, ExpPoly(), 1.0) == 0.0

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_random_samples(self, n):
        # the residual is scaled by 1 + |(Lf)(w)|
        report = verify.run("reproduce", n, seed=80 + n, samples=5)
        assert report["samples"] == 5 and report["max_residual"] <= 1e-6
