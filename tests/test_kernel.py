"""Reproducing-kernel evaluation: closed forms, quadrature, norms, Gram matrices."""

import cmath
import math
import warnings

import numpy as np
import pytest

import hsob
from hsob import (
    ExpPoly,
    KernelPoint,
    gram_matrix,
    integrate_interval,
    jury_min_m,
    kernel_diag,
    kernel_eval,
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
from hsob.kernel import CLOSED_FORM_MAX_N, _closed_form, _p_eval
from oracles import closed_form_two_calls, i_theta

LN2 = math.log(2.0)
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
#: sides of the closed form's series/log switch at 1/2, down to 1e-8, and with
#: a + u b nearly vanishing at u = |z|/|w| (both arguments at the margin)
MAP_CASES = ((1.0, -1.05, 1.05), (0.55, -1.05, 1.05), (0.45, -1.05, 1.05), (0.1, -1.05, 1.05),
             (1e-8, -1.05, 1.05), (0.45, MARGIN, MARGIN), (1e-4, MARGIN, MARGIN))
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
#: the quadrature diagonal checks the closed-form one to its own accuracy: over
#: n = 1..8 and |arg z| <= pi/2 - 1e-3 it is off by up to 2.1e-13 (n = 2,
#: |arg z| = 1.452), where the closed form is within 1e-16 of the reference
DIAG_TOL = 1e-12


class TestAnchors:
    def test_order_zero(self):
        assert kernel_eval_closed(0, 1.0, 1.0) == 0.5
        assert kernel_eval_closed(0, 1.0, 1 + 1j) == 1.0 / (1.0 + (1 - 1j))

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

    @pytest.mark.parametrize("n", range(CLOSED_FORM_MAX_N + 1))
    def test_accuracy_map(self, n):
        # the closed form against a 30-digit reference: |z|/|w| from 1 down
        # to 1e-320, both arguments within 1e-6 of the imaginary axis where
        # a + u b nearly vanishes, and the diagonal, there by kernel_diag;
        # |z|/|w| > 1 by Hermitian symmetry, against the same reference
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        cases = MAP_CASES + tuple((r, 0.3, -1.2) for r in MAP_EXTREMES[n])
        for r, tz, tw in cases:
            z, w = r * cmath.exp(1j * tz), cmath.exp(1j * tw)
            ref = duffy_reference(n, z, w, mp)
            for value in (kernel_eval_closed(n, z, w), kernel_eval_closed(n, w, z).conjugate()):
                assert abs(mp.mpc(value) - ref) <= MAP_TOL * abs(ref), (r, tz, tw)
        for z in (1.0, cmath.exp(-1j * MARGIN)):
            ref = duffy_reference(n, z, z, mp)
            assert abs(kernel_diag(n, z, theta_margin=1e-7) - ref) <= MAP_TOL * abs(ref), z

    @pytest.mark.parametrize("n", [
        pytest.param(n, marks=pytest.mark.xfail(
            strict=True, reason=f"log-branch Q_m: worst band error {BAND_WORST[n]:.3g}"))
        if n in BAND_WORST else n
        for n in range(CLOSED_FORM_MAX_N + 1)])
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
        for n in range(1, CLOSED_FORM_MAX_N + 1):
            cases = MAP_CASES + tuple((r, 0.3, -1.2) for r in MAP_EXTREMES[n])
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
        with pytest.raises(ValueError, match=r"n <= 16, got n = 17"):
            kernel_eval_closed(17, 1.0, 1.0)


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

    def test_kernel_point_dispatch(self):
        p = KernelPoint(1, 1.0, 1.0, "closed_form")
        assert abs(kernel_eval(p) - 2 * LN2) < 1e-14
        p = KernelPoint(1, 1.0, 1.0, "quadrature")
        assert abs(kernel_eval(p) - 2 * LN2) < 1e-9
        p = KernelPoint(17, 1.0, 1.0, "quadrature")  # past the closed form's cap
        assert p.route == "quadrature"
        assert kernel_eval(p) == kernel_eval_quadrature(17, 1.0, 1.0)
        for method in ("auto", "closed_form"):
            # refused once, at construction
            with pytest.raises(ValueError, match=r"closed form covers n <= 16, got n = 17"):
                KernelPoint(17, 1.0, 1.0, method)

    def test_auto_route(self):
        # auto takes the closed form at every order through the cap, at any
        # ratio, and refuses an order past it rather than fall back
        for z, w in ((1.0, 1.0), (1e7, 1.0), (1.0, 1e7), (1e-320, 1.0)):
            assert KernelPoint(8, z, w).route == "closed_form"
            assert KernelPoint(16, z, w).route == "closed_form"
        with pytest.raises(ValueError, match="n <= 16"):
            KernelPoint(17, 1.0, 1.0)
        assert KernelPoint(1, 1e7, 1.0, "quadrature").route == "quadrature"

    @pytest.mark.parametrize("n", (1, 2, 9, 17))
    def test_quadrature_refuses_overflowing_ratio(self, n):
        # at unit scale the Duffy integrand reaches max(|z|, |w|)/min(|z|, |w|),
        # which overflows below a ratio of about 5.6e-309
        for z, w in ((1e-320, 1.0), (1.0, 5e-309), (1e-300, 1e10)):
            with pytest.raises(ValueError, match="overflows"):
                kernel_eval_quadrature(n, z, w)
        q = kernel_eval_quadrature(n, 5.6e-309, 1.0)
        if n <= CLOSED_FORM_MAX_N:
            assert abs(q - kernel_eval_closed(n, 5.6e-309, 1.0)) <= 1e-9 * abs(q)

    def test_kernel_point_validation(self):
        with pytest.raises(ValueError):
            KernelPoint(1, -1.0, 1.0)
        with pytest.raises(ValueError):
            KernelPoint(1, 1.0, 1.0, "newton")

    @pytest.mark.parametrize("bad", [complex(1, math.nan), complex(math.nan, 1),
                                     complex(math.inf, 0), complex(1, -math.inf)])
    def test_nonfinite_arguments_rejected(self, bad):
        # every entry point validates once, in the half-plane check
        for call in (lambda: kernel_eval_closed(1, bad, 1.0),
                     lambda: kernel_eval_closed(1, 1.0, bad),
                     lambda: kernel_eval_quadrature(2, bad, 1.0),
                     lambda: kernel_diag(1, bad),
                     lambda: KernelPoint(1, 1.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                call()

    def test_nonfinite_gram_point_is_a_value_error(self):
        # not a QuadratureError from deep inside the integrator
        with pytest.raises(ValueError, match="finite"):
            gram_matrix(2, [math.inf, 1.0])


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

    def test_bounds_examples(self):
        lo, hi = norm_bounds(1, 1.0)
        assert (lo, hi) == (1.0, math.sqrt(math.pi))
        assert lo <= kernel_norm(1, 1.0) <= hi
        lo, hi = norm_bounds(2, 1.0)
        assert abs(lo - 1 / math.sqrt(3)) < 1e-15
        assert abs(hi - math.sqrt(math.pi / 2)) < 1e-15
        assert lo <= kernel_norm(2, 1.0) <= hi

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

    def test_theta_margin_enforced(self):
        with pytest.raises(ValueError):
            kernel_diag(1, cmath.exp(1j * (math.pi / 2 - 1e-5)))


class TestGram:
    @pytest.mark.parametrize("n", range(CLOSED_FORM_MAX_N + 2))
    @pytest.mark.parametrize("method", ("auto", "closed_form", "quadrature"))
    def test_entries_equal_kernel_eval_exactly(self, n, method):
        # through the cap each entry is kernel_eval of the KernelPoint with
        # ``method`` bit for bit where that takes the closed form, and within
        # 1e-9 of the quadrature check; |z_i|/|z_j| reaches 3.6e9, and the
        # batch mixes series ratios from 3e-10 to 1/2; the diagonal holds the
        # conjugate, as every entry above it does.  Past the cap the matrix
        # and every closed-form point are refused
        pts = [1.0, 0.7 + 0.5j, 2e-4 - 1e-4j, 3e3 + 4e3j, 8e5 * cmath.exp(-0.3j),
               0.35 - 0.2j, 2.5 + 1.5j, 0.05 + 0.02j, 40.0 - 70.0j]
        if n > CLOSED_FORM_MAX_N:
            with pytest.raises(ValueError, match="n <= 16"):
                gram_matrix(n, pts)
            if method == "quadrature":
                assert KernelPoint(n, 1.0, 1.0, method).route == "quadrature"
            else:
                with pytest.raises(ValueError, match="n <= 16"):
                    KernelPoint(n, 1.0, 1.0, method)
            return
        G = gram_matrix(n, pts)
        for i, z in enumerate(pts):
            for j in range(i + 1):
                point = KernelPoint(n, z, pts[j], method)
                value = kernel_eval(point)
                if method == "quadrature":
                    assert abs(G[i, j] - value) <= 1e-9 * abs(value)
                else:
                    assert G[j, i] == value.conjugate()
                    assert G[i, j] == (value if i > j else value.conjugate())

    @pytest.mark.parametrize("n", range(CLOSED_FORM_MAX_N + 1))
    def test_closed_form_batch_equals_scalar_calls(self, n):
        # 780 entries in one batch: no element's value depends on the others
        rng = np.random.default_rng(90 + n)
        pts = 10 ** rng.uniform(-3, 3, 40) * np.exp(1j * rng.uniform(-1.5, 1.5, 40))
        G = gram_matrix(n, pts)
        for i, z in enumerate(pts):
            for j in range(i):
                assert G[i, j] == kernel_eval_closed(n, z, pts[j])

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
        for n in range(CLOSED_FORM_MAX_N + 2):
            pts = 10 ** rng.uniform(-3, 3, 12) * np.exp(1j * rng.uniform(-1.5, 1.5, 12))
            if n > CLOSED_FORM_MAX_N:
                with pytest.raises(ValueError, match="n <= 16"):
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
    entry point that would take it refuses a higher order."""

    @pytest.mark.parametrize("call", [
        lambda n: gram_matrix(n, [1.0, 2.0 + 1.0j]),
        lambda n: kernel_diag(n, 1.0),
        lambda n: kernel_diag(n, np.array([1.0, 2.0 + 1.0j])),
        lambda n: kernel_norm(n, 2.0 + 1.0j),
    ], ids=("gram", "diag", "diag_array", "norm"))
    def test_orders_past_the_cap_are_refused(self, call):
        call(CLOSED_FORM_MAX_N)
        with pytest.raises(ValueError, match=r"^the closed form covers n <= 16, got n = 17; "):
            call(CLOSED_FORM_MAX_N + 1)

    def test_no_quadrature_below_the_cap(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("integrate_interval called")

        monkeypatch.setattr(hsob.kernel, "integrate_interval", refuse)
        monkeypatch.setattr(hsob.quadrature, "integrate_interval", refuse)
        pts = [1.0, 0.7 + 0.5j, 2e-4 - 1e-4j, 3e3 + 4e3j, 0.35 - 0.2j]
        for n in range(9, CLOSED_FORM_MAX_N + 1):
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
