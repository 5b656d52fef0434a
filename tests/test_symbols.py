"""Symbol parsing, jets of expressions, sampled suprema, kernel certificates."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from hsob import kernel, symbols
from hsob import (
    BranchViolation,
    Jet,
    SymbolSyntaxError,
    caughran_lower_bound,
    classify,
    jury_min_m,
    kernel_norm,
    min_eigenvalue,
    parse,
)
from hsob.specfun import MAX_ORDER
from hsob.symbols import (
    DIVERGE_CAP,
    JURY_RESOLUTION,
    JURY_TOL,
    Add,
    Const,
    Div,
    Log1p,
    Mul,
    Pow,
    SWEEP,
    SymbolExpr,
    Var,
    _derivative_ratios,
    _jury_matrices,
    _supremum_estimate,
)

import scalar_route
from oracles import (compose, faa_di_bruno, jury_matrices_two_calls, jury_matrix,
                     jury_min_m_bisection)

EPS = np.finfo(float).eps
#: the symbols of acceptance criterion 12's classification table
CRITERION_12_ROWS = ("2*z+1", "z+i", "z+sqrt(z)+1", "z+log1p(z)", "sqrt(z)", "1/(z+1)")
#: the verdicts (H2, Hn) of the criterion-12 rows and two more symbols at
#: n = 12, which hold at every order of the warranty
WARRANTY_VERDICTS = {
    "2*z+1": ("bounded", "sufficient-passed"),
    "z+i": ("bounded", "necessary-failed"),
    "z+sqrt(z)+1": ("bounded", "sufficient-passed"),
    "z+log1p(z)": ("bounded", "sufficient-passed"),
    "sqrt(z)": ("unbounded", "necessary-failed"),
    "1/(z+1)": ("unbounded", "necessary-failed"),
    "z+1/(z+1)": ("bounded", "sufficient-passed"),
    "z*z": ("selfmap-unwitnessed", "selfmap-unwitnessed"),
}
#: affine maps a*z+b with Re b > 0, written as the benchmark writes them
AFFINE_MAPS = ("0.3981*z+1.2057-0.6612i", "3.1623*z+0.2000+1.9000i")
#: symbols with masked lanes on the sweep: a denominator exactly 0 at the
#: sweep point z = 1, branch cuts over part of the real ray, a power that
#: overflows far out on the axis and the ray, and a cut under a zero factor
MASKED_SYMBOLS = ("1/(z-1)", "sqrt(z-10)", "log1p(z-5)", "z^40", "z + 0*sqrt(z - 10)")
#: symbol -> its self-map flag, as the 2-D log-polar grid that the sweep
#: replaced read it: the rows above, four self-maps, four maps that leave C+
#: inside it, and three that are positive on the whole axis and leave C+ only
#: near the real ray
SELFMAP_WITNESS = {
    **{text: True for text in CRITERION_12_ROWS + AFFINE_MAPS},
    **{text: False for text in MASKED_SYMBOLS},
    "z+1": True, "z+1/(z+1)": True, "z+2/(z+0.5)": True, "z+(0.3+2i)": True,
    "z-10": False, "z*z": False, "(z+1)^0.5*z": False, "z+(0.1+5i)/(z+1)": False,
    "2+1/(z-1)": False, "2+1/(z-1.1)": False, "3+z/(z-2)": False,
}
#: affine maps a*z+b with Re b >= 0.1 |b|, among them the benchmark's
AFFINE_EXACT = AFFINE_MAPS + ("z+(0.3+2i)", "2*z+1", "0.5*z+2", "z+(1-3i)", "7*z+(0.5+0.5i)")


# Reference routes for the symbol analysis, kept as oracles: a fresh order-k
# jet for each k, the straightforward reading of the definitions that the
# library hoists.  The point-by-point route itself is in scalar_route.py, and
# the jury bisection on rebuilt matrices in oracles.py.

def _per_order_nbc_suprema(e, n):
    # a fresh order-k array jet for each k, and one supremum estimate each,
    # with the k-th divergence cap DIVERGE_CAP * k!
    out = []
    for k in range(1, n + 1):
        def ratio(z, k=k):
            return _derivative_ratios(z, e.jet(z, k), k)[k - 1:k]

        with np.errstate(over="ignore", invalid="ignore"):
            first = ratio(SWEEP)
        cap = DIVERGE_CAP * math.factorial(k)
        out.append(float(_supremum_estimate(ratio, [cap], first)[0]))
    return out


def _oracle_caughran(e, n, points):
    # one kernel_norm of each point and of its image, images from one array call
    pts = [complex(z) for z in points]
    return max(kernel_norm(n, complex(u)) / kernel_norm(n, z)
               for z, u in zip(pts, e.eval(np.array(pts, dtype=complex))))


@dataclasses.dataclass(frozen=True)
class _Counting(SymbolExpr):
    """A symbol that records the shape of every point array it is evaluated on."""

    inner: SymbolExpr
    calls: list = dataclasses.field(default_factory=list, compare=False)

    def eval(self, z):
        self.calls.append(("eval", np.shape(z)))
        return self.inner.eval(z)

    def jet(self, z, order):
        self.calls.append(("jet", np.shape(z)))
        return self.inner.jet(z, order)

    def to_text(self):
        return self.inner.to_text()


def _agree(got, want, rtol=1e-14):
    """Equal infinities and nans, finite values to ``rtol`` relative."""
    if math.isnan(want) or math.isinf(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= rtol * abs(want)


#: six points near 1, where c*z+c with large c gives tiny image kernel values
SCALE_POINTS = [1, 1.2 + 0.1j, 0.9 - 0.2j, 1.1, 1.05 + 0.05j, 0.95]


def _jury_points(rng, m):
    return [complex(rng.uniform(0.3, 4.0), rng.uniform(-2.0, 2.0)) for _ in range(m)]


def _near_axis_points():
    # 12 seeded points and 8 near -2i, where z + (0.3+2i) sends them next to
    # the imaginary axis: base is numerically singular on them from n = 5
    rng = np.random.default_rng(1)
    x, y = rng.uniform(0.05, 3.0, 12), rng.uniform(-3.0, 3.0, 12)
    near = np.logspace(-3.0, -0.5, 8) + 1j * (-2.0 + np.linspace(-0.3, 0.3, 8))
    return list(x + 1j * y) + list(near)


def _assert_within_resolution_of_oracle(e, n, pts, M):
    # the 80-step eigenvalue bisection on rebuilt matrices and the stopped
    # Cholesky bisection agree to the bracket, 2^-30 M, plus the rounding band
    # of the threshold: an error m * eps * ||S|| in the least eigenvalue of
    # S = M^2 * base - moved moves the root by that over d lambda / dM = 2 M s,
    # s = v^H base v for the least eigenvector v (first-order perturbation).
    # The returned M passes its certificate, and its least eigenvalue is
    # -tol to rounding, tol = JURY_TOL * max_i moved_ii
    base, moved = _jury_matrices(e, n, pts)
    tol = JURY_TOL * moved.diagonal().real.max()
    M_o = jury_min_m_bisection(e, n, pts, tol)
    if math.isinf(M_o):
        assert M == M_o
        return
    m = len(pts)
    S = M_o**2 * base - moved
    values, vectors = np.linalg.eigh(S)
    s = (vectors[:, 0].conj() @ base @ vectors[:, 0]).real
    band = m * EPS * np.abs(values).max()
    assert abs(M - M_o) <= JURY_RESOLUTION * M + band / (2 * M_o * s)
    S = M**2 * base - moved
    np.linalg.cholesky(S + tol * np.eye(m))
    assert min_eigenvalue(jury_matrix(e, n, M, pts)) >= -tol - m * EPS * np.linalg.norm(S, 2)


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

    @pytest.mark.parametrize("text, position",
                             [("1e999*z", 0), ("z^1e999", 2), ("1e999i", 0), ("z + 2e400", 4)])
    def test_overflowing_literal_rejected(self, text, position):
        with pytest.raises(SymbolSyntaxError, match="overflows a double") as info:
            parse(text)
        assert info.value.position == position

    def test_largest_literals_parse(self):
        assert parse("1e308*z")(1.0) == 1e308
        assert parse("z + 1e-999")(2.0) == 2.0  # an underflowing literal is a finite 0

    def test_nonpositive_exponent_rejected(self):
        with pytest.raises(SymbolSyntaxError):
            parse("z^-2")
        with pytest.raises(SymbolSyntaxError):
            parse("z^0")

    def test_round_trip_text(self):
        e = parse("z + sqrt(z) + 1")
        assert parse(e.to_text())(2.3 + 0.4j) == e(2.3 + 0.4j)

    @pytest.mark.parametrize("value", [-0.5, 1 - 2j, -3j, 2.5j, 0.1, -1 + 0.25j, 7.0])
    def test_constant_text_round_trips(self, value):
        # the grammar has no unary minus, so negative parts are subtracted
        for e in (Const(value), Add(Var(), Const(value)), Mul(Const(value), Var())):
            back = parse(e.to_text())
            for z in (1.0, 2.3 + 0.4j, 0.5 - 3j):
                assert back(z) == e(z)


class TestEvalJet:
    def test_square(self):
        j = parse("z^2").jet(1.0, 2)
        assert [j.derivative(k) for k in range(3)] == [1.0, 2.0, 2.0]

    def test_log_map_second_derivative(self):
        # phi = z + log(1+z): phi'' = -1/(1+z)^2, so -1/4 at z = 1
        j = parse("z + log1p(z)").jet(1.0, 2)
        assert abs(j.derivative(2) + 0.25) < 1e-14

    def test_sqrt_jet(self):
        j = parse("sqrt(z)").jet(4.0, 2)
        assert abs(j.derivative(0) - 2.0) < 1e-14
        assert abs(j.derivative(1) - 0.25) < 1e-14
        assert abs(j.derivative(2) + 1 / 32) < 1e-14

    def test_branch_violation_surfaces(self):
        with pytest.raises(BranchViolation):
            parse("sqrt(z-10)").jet(1.0, 2)

    def test_division_by_zero_jet(self):
        with pytest.raises(ZeroDivisionError):
            parse("1/(z-1)").jet(1.0, 2)


class TestSelfmapWitness:
    """The self-map flag of :func:`classify`: Re phi > 0 over the sweep."""

    def test_translation(self):
        assert classify(parse("z+1"), 0).selfmap_witnessed

    def test_left_shift_fails(self):
        assert not classify(parse("z-10"), 0).selfmap_witnessed

    def test_imaginary_shift(self):
        assert classify(parse("z+i"), 0).selfmap_witnessed

    @pytest.mark.parametrize("text, flag", SELFMAP_WITNESS.items(), ids=list(SELFMAP_WITNESS))
    def test_flag_as_the_grid_read_it(self, text, flag):
        # axis and real ray together: 2+1/(z-1) is positive on the axis
        e = parse(text)
        assert classify(e, 1).selfmap_witnessed is flag
        assert scalar_route.is_selfmap(e) is flag

    @pytest.mark.parametrize("text", ["z-10", "z*z", "(z+1)^0.5*z", "z+(0.1+5i)/(z+1)"])
    def test_unwitnessed_map_gets_no_verdict(self, text):
        # the criteria speak of self-maps: on the axis z-10 reads radial_sup
        # 1, which would pass the sufficient condition
        for n in range(4):
            r = classify(parse(text), n)
            assert (r.verdict_H2, r.verdict_Hn) == ("selfmap-unwitnessed",) * 2
            assert r.h2_norm is None


class TestArrayEvaluation:
    """One array call per point set: masked lanes where a point would raise."""

    POINTS = np.array([1.0, 2.0 + 1.0j, 10.0, 0.5 - 3.0j, 25.0 + 0.5j])

    @pytest.mark.parametrize("text", ["1/(z-10)", "sqrt(z-10)", "log1p(z-11)", "z^40", "(z+1)^2.5",
                                      "z + 0*sqrt(z - 10)"])
    def test_lanes_match_points(self, text):
        e = parse(text)
        values = e.eval(self.POINTS)
        jet = e.jet(self.POINTS, 3)
        for i, z in enumerate(self.POINTS):
            try:
                want = scalar_route.scalar_jet(e, complex(z), 3)
            except (BranchViolation, ZeroDivisionError):
                assert np.isnan(values[i]) and np.isnan(jet.coeffs[:, i]).all()
                with pytest.raises((BranchViolation, ZeroDivisionError)):
                    e(z)
                continue
            assert values[i] == jet.value[i]
            for k in range(4):
                assert abs(jet.coeffs[k, i] - want.coeffs[k]) <= 1e-14 * abs(want.coeffs[k])

    def test_power_overflow_is_masked(self):
        # Python's complex power raises OverflowError at 1e10^40: a masked lane
        e = parse("z^40")
        assert np.isnan(e.eval(np.array([1e10, 2.0]))[0])
        assert np.isnan(e.jet(np.array([1e10, 2.0]), 2).coeffs[:, 0]).all()
        with pytest.raises(OverflowError):
            e(1e10)

    def test_constant_symbol_gives_an_array(self):
        assert parse("2+i").eval(self.POINTS).shape == self.POINTS.shape


class TestSuprema:
    """The suprema that :func:`classify` reports."""

    def test_angular_affine(self):
        assert abs(classify(parse("2*z+1"), 0).phi_prime_infinity - 0.5) < 1e-6

    def test_angular_power_mix(self):
        assert abs(classify(parse("z + sqrt(z) + 1"), 0).phi_prime_infinity - 1.0) < 1e-3

    def test_angular_sqrt_diverges(self):
        assert math.isinf(classify(parse("sqrt(z)"), 0).phi_prime_infinity)

    def test_angular_bounded_map_diverges(self):
        assert math.isinf(classify(parse("1/(z+1)"), 0).phi_prime_infinity)

    def test_radial_translation(self):
        v = classify(parse("z+1"), 0).radial_sup
        assert 0.999 <= v <= 1.0 + 1e-9

    def test_radial_imaginary_shift_diverges(self):
        assert math.isinf(classify(parse("z+i"), 0).radial_sup)

    def test_radial_affine(self):
        assert abs(classify(parse("2*z+1"), 0).radial_sup - 0.5) < 1e-6

    def test_nbc_affine(self):
        vals = classify(parse("2*z+1"), 2).nbc
        assert abs(vals[0] - 1.0) < 1e-6
        assert vals[1] == 0.0

    @pytest.mark.parametrize("text", CRITERION_12_ROWS)
    def test_nbc_matches_per_order_oracle_exactly(self, text):
        # one order-n jet per pass gives bit for bit the per-k jets' suprema,
        # and the point-by-point route to rounding
        e = parse(text)
        for n in (1, 2, 3):
            got = list(classify(e, n).nbc)
            assert got == _per_order_nbc_suprema(e, n)
            assert all(map(_agree, got, scalar_route.nbc_suprema(e, n)))

    @pytest.mark.parametrize("a, b", [(2.0, 1.0), (0.3981, 1.2057), (3.1623, 0.2)])
    def test_affine_angular_and_nbc(self, a, b):
        # a*z+b: Re z / Re phi rises to 1/a at infinity, |z phi'/phi| to 1,
        # and every higher derivative vanishes
        for im in (0.0, -0.6612, 1.9):
            e = Add(Mul(Const(a), Var()), Const(complex(b, im)))
            assert abs(classify(e, 0).phi_prime_infinity - 1 / a) <= 1e-12 / a
        vals = classify(Add(Mul(Const(a), Var()), Const(b)), 3).nbc
        assert abs(vals[0] - 1.0) <= 1e-12
        assert vals[1:] == (0.0, 0.0)

    @pytest.mark.parametrize("text", AFFINE_EXACT)
    def test_affine_suprema_are_exact(self, text):
        # phi = a*z + b: by maximum modulus on the axis, |z/phi| peaks at
        # |b| / (a Re b) and |z phi'/phi| at |b| / Re b, S_k = 0 for k >= 2,
        # and x / phi(x) rises to phi'(inf) = 1/a
        e = parse(text)
        b = e(0.0)
        a = (e(1.0) - b).real
        want = [1 / a, abs(b) / (a * b.real), abs(b) / b.real]
        for n in range(1, MAX_ORDER + 1):
            r = classify(e, n)
            got = [r.phi_prime_infinity, r.radial_sup, r.nbc[0]]
            assert all(abs(g - w) <= 1e-6 * w for g, w in zip(got, want)), (n, got, want)
            assert r.nbc[1:] == (0.0,) * (n - 1)

    def test_overflowing_ratio_is_skipped(self):
        # z^2 phi''/phi overflows at z = 10 here: a point to skip, as where
        # the power itself overflows; phi = 0 is a pole of the ratio
        z = np.array([10.0, 2.0, 3.0])
        jet = Jet(np.array([[1e300, 0.0, 1.0], [0.0, 0.0, 0.0], [1e307, 1.0, 1.0]]), base=z)
        rows = _derivative_ratios(z, jet, 2)
        assert np.isnan(rows[1, 0]) and rows[1, 1] == math.inf and rows[1, 2] == 18.0

    def test_nbc_log_map_finite(self):
        vals = classify(parse("z + log1p(z)"), 2).nbc
        assert all(math.isfinite(v) for v in vals)

    def test_ordering_angular_below_radial(self):
        # the real-part supremum never exceeds the modulus supremum when the
        # latter is finite; grid estimates agree up to sampling slack
        for text in ("2*z+1", "z+1", "z+sqrt(z)+1", "z+log1p(z)", "z+1+10i"):
            r = classify(parse(text), 0)
            rad, ang = r.radial_sup, r.phi_prime_infinity
            assert math.isfinite(rad)
            assert ang <= rad + 1e-6 * (1 + rad)


class TestFaaDiBruno:
    def test_chain_rule(self):
        phi = parse("z^2").jet(2.0, 1)
        f = 1.0 / (Jet.variable(phi.value, 1) + 1.0)
        assert abs(faa_di_bruno(f, phi, 1) - f.derivative(1) * phi.derivative(1)) < 1e-14

    def test_second_order_example(self):
        # f = 1/(u+1), phi = z^2 at z = 1: (f o phi)'' = 1/2
        phi = parse("z^2").jet(1.0, 2)
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
            direct = compose(f, phi).derivative(n)
            partition = faa_di_bruno(f, phi, n)
            assert abs(direct - partition) <= 1e-9 * max(abs(direct), 1e-12)

    def test_order_guard(self):
        phi = parse("z^2").jet(1.0, 1)
        f = Jet.variable(phi.value, 1)
        with pytest.raises(ValueError):
            faa_di_bruno(f, phi, 2)


class TestJury:
    POINTS = [0.5 + 0.2j, 1.0, 2.0 - 1.0j, 4.0 + 3.0j, 10.0, 0.3 - 0.1j]

    def test_identity_symbol_zero_matrix(self):
        # the images are the points, so moved is base bit for bit and the
        # inequality matrix at M = 1 is zero: the bound is 1 to its resolution
        base, moved = _jury_matrices(parse("z"), 0, self.POINTS)
        assert np.array_equal(base, moved)
        assert abs(jury_min_m(parse("z"), 0, self.POINTS) - 1.0) <= JURY_RESOLUTION

    def test_affine_certificate(self):
        # phi = 4z+1 on the plain Hardy space: the norm sqrt(1/4) = 0.5 is
        # admissible on every point set, so the bound never exceeds it
        assert jury_min_m(parse("4*z+1"), 0, self.POINTS) <= 0.5 * (1.0 + JURY_RESOLUTION)

    def test_sqrt_with_large_m_still_fails(self):
        # sqrt(z) is unbounded on H2: already on four points M = 10 fails
        pts = [1.0, 100.0, 1e4, 1e6]
        assert jury_min_m(parse("sqrt(z)"), 0, pts) > 10.0

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

    @pytest.mark.parametrize("text", CRITERION_12_ROWS)
    def test_caughran_reads_the_jury_diagonals(self, text):
        # the diagonals of the jury's Gram matrices give the per-point kernel
        # norms' bound to rounding, and never more than the jury bound
        rng = np.random.default_rng(sum(map(ord, text)) + 1)
        e = parse(text)
        for n in (0, 1, 2):
            for m in (6, 12):
                pts = _jury_points(rng, m)
                lower, want = caughran_lower_bound(e, n, pts), _oracle_caughran(e, n, pts)
                assert abs(lower - want) <= 1e-15 * want
                assert lower <= jury_min_m(e, n, pts) * (1.0 + 1e-8)

    @pytest.mark.parametrize("text", ["3e8*z+3e8", "2e8*z+2e8", "1e12*z+1e12"])
    def test_caughran_below_jury_at_small_image_kernels(self, text):
        # the images' kernel values (at most 9e-10, 1.3e-9 and 2.6e-13 here)
        # are near JURY_TOL; an absolute slack put the jury bound below
        # Caughran's, and at 0 for 1e12*z+1e12
        e = parse(text)
        lower = caughran_lower_bound(e, 0, SCALE_POINTS)
        assert 0 < lower <= jury_min_m(e, 0, SCALE_POINTS) * (1.0 + 1e-8)

    def test_bound_scales_with_the_symbol(self):
        # K_n is homogeneous of degree -1, so the bound of c*z+c is c^(-1/2)
        # times that of z+1, for c = 1e-4..1e12, to the bisection's resolution
        scaled = [math.sqrt(c) * jury_min_m(parse(f"{c!r}*z+{c!r}"), 0, SCALE_POINTS)
                  for c in (10.0**k for k in range(-4, 13))]
        assert max(scaled) - min(scaled) <= 2e-8 * min(scaled)

    def test_bisection_stops_at_its_resolution(self, monkeypatch):
        # each step is one Cholesky test, and a call makes at most one
        # eigen-solve, for its estimate; from the diagonal bound the search
        # takes at most 40 tests, 12 on average over these 40 sets, and stops
        # once the bracket is 2^-30 of its upper end wide, within its
        # resolution of the 80-step bisection
        tested, eigen_solves, counts = [], [], []
        cholesky, eigvalsh = np.linalg.cholesky, np.linalg.eigvalsh

        def recording(A):
            step = A.copy()  # jury_min_m reuses its buffer
            try:
                factor = cholesky(A)
            except np.linalg.LinAlgError:
                tested.append((step, False))
                raise
            tested.append((step, True))
            return factor

        def counting(A):
            eigen_solves.append(1)
            return eigvalsh(A)

        monkeypatch.setattr(np.linalg, "cholesky", recording)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        rng = np.random.default_rng(14)
        for text in CRITERION_12_ROWS + AFFINE_MAPS:
            e = parse(text)
            for n, m in ((0, 6), (1, 6), (2, 6), (3, 12), (3, 20)):
                pts = _jury_points(rng, m)
                tested.clear()
                eigen_solves.clear()
                bound = jury_min_m(e, n, pts)
                assert 0 < len(tested) <= 40 and len(eigen_solves) <= 1
                counts.append(len(tested))
                # each tested M read back off the largest diagonal entry of its
                # matrix M^2 * base - moved + tol * I, to a few roundings
                base, moved = _jury_matrices(e, n, pts)
                tol = JURY_TOL * moved.diagonal().real.max()
                k = np.argmax(base.diagonal().real)
                failed = [math.sqrt((A[k, k].real - tol + moved[k, k].real) / base[k, k].real)
                          for A, ok in tested if not ok]
                if failed:
                    assert bound - max(failed) <= (JURY_RESOLUTION + 8 * EPS) * bound
                else:
                    assert len(tested) == 1  # the diagonal bound itself passed
                _assert_within_resolution_of_oracle(e, n, pts, bound)
        assert len(counts) == 40 and sum(counts) <= 12 * len(counts)

    @pytest.mark.parametrize("guess", [
        lambda est, lo, hi: lo,
        lambda est, lo, hi: hi,
        lambda est, lo, hi: est * (1.0 - 1e-3),
        lambda est, lo, hi: est * (1.0 + 1e-3),
        lambda est, lo, hi: math.nan,
    ], ids=("lo", "hi", "below", "above", "nan"))
    def test_estimate_only_guides_the_search(self, monkeypatch, guess):
        # every decision is a Cholesky test: an estimate at either end of the
        # bracket, 1e-3 off the threshold, outside the bracket or nan still
        # gives an admissible M within its resolution of the oracle
        estimate, guessed = symbols._threshold_estimate, []

        def guessing(base, factor, lo, hi):
            guessed.append(1)
            return guess(estimate(base, factor, lo, hi), lo, hi)

        monkeypatch.setattr(symbols, "_threshold_estimate", guessing)
        rng = np.random.default_rng(26)
        for text in CRITERION_12_ROWS + AFFINE_MAPS:
            e, pts = parse(text), _jury_points(rng, 12)
            _assert_within_resolution_of_oracle(e, 3, pts, jury_min_m(e, 3, pts))
        assert len(guessed) == 8

    @pytest.mark.parametrize("n", [
        n if n < 5 else pytest.param(n, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP direction 5: base is numerically singular on "
                                "these points, so jury_min_m returns inf"))
        for n in range(MAX_ORDER + 1)])
    def test_bound_finite_on_near_axis_points(self, n):
        # z + (0.3+2i) is bounded on every H_2^(n), with norm at most
        # 6.7413^n; on these points base is numerically singular from n = 5,
        # no M passes the Cholesky test below 1e12 and the bound is inf
        M = jury_min_m(parse("z+(0.3+2i)"), n, _near_axis_points())
        assert math.isfinite(M) and M <= 6.7413**n

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            jury_min_m(parse("z"), 0, [-1.0])

    def test_min_m_margin_validation(self):
        with pytest.raises(ValueError):
            jury_min_m(parse("z"), 0, [1.0, -1.0])
        with pytest.raises(ValueError):
            jury_min_m(parse("z-10"), 1, [1.0, 2.0])  # images leave C+

    def test_first_bad_point_is_named(self):
        # one array evaluation of the images, but the error is the one a
        # point-by-point check raises at the first bad point, the point
        # before its image
        with pytest.raises(ValueError, match=r"^image must lie in the open right half-plane, "
                                             r"got \(-9\+0j\)$"):
            jury_min_m(parse("z-10"), 0, [20.0, 1.0, 2.0])
        with pytest.raises(ValueError, match=r"^point must lie in the open right half-plane, "
                                             r"got \(-1\+0j\)$"):
            jury_min_m(parse("z-10"), 0, [20.0, -1.0, 1.0])
        with pytest.raises(ValueError, match=r"^point must be finite, got \(1\+nanj\)$"):
            jury_min_m(parse("z+1"), 1, [complex(1, math.nan), 1.0])
        with pytest.raises(BranchViolation):
            jury_min_m(parse("sqrt(z-10)"), 1, [20.0, 1.0, -1.0])
        with pytest.raises(ZeroDivisionError):
            caughran_lower_bound(parse("1/(z-1)"), 1, [2.0, 1.0])

    @pytest.mark.parametrize("text", ["z*z", "z^2", "z*z - z*z + z"])
    def test_overflowing_image_names_its_point(self, text):
        # the images overflow (inf, or nan where z^2 overflows) at 1e200;
        # numpy stays silent and the error names the point, not the image
        e = parse(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for bound in (lambda pts: jury_min_m(e, 1, pts),
                          lambda pts: caughran_lower_bound(e, 1, pts)):
                with pytest.raises(ValueError, match=r"^image of point \(1e\+200\+0j\) is not finite$"):
                    bound([1.0, 1e200, 2.0])

    @pytest.mark.parametrize("text, pts, message", [
        ("2*z+1", [1.0, 1e-310], r"^kernel value at point \(1e-310\+0j\) overflows$"),
        ("1e-300*z", [1.0, 1e-10], r"^kernel value at image \(1e-310\+0j\) overflows$"),
        ("1e-300*z+1e-320", [1e-10, 1e-310], r"^kernel value at point \(1e-310\+0j\) overflows$"),
    ])
    def test_overflowing_kernel_value_names_its_point(self, text, pts, message):
        # K_n(z, z) passes the largest double next to 0: an error, not a nan
        # bound or a wrong eigenvalue, and numpy stays silent.  Where a point
        # and an earlier point's image both overflow, the point is named
        e = parse(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for bound in (lambda: jury_min_m(e, 1, pts), lambda: caughran_lower_bound(e, 1, pts)):
                with pytest.raises(ValueError, match=message):
                    bound()

    @pytest.mark.parametrize("text", CRITERION_12_ROWS + AFFINE_MAPS)
    def test_min_m_matches_rebuilding_oracle_to_its_resolution(self, text):
        rng = np.random.default_rng(sum(map(ord, text)))
        e = parse(text)
        for n, m in ((0, 6), (0, 12), (1, 6), (1, 12), (2, 6), (2, 12), (3, 12), (3, 20)):
            pts = _jury_points(rng, m)
            _assert_within_resolution_of_oracle(e, n, pts, jury_min_m(e, n, pts))

    @pytest.mark.parametrize("text", CRITERION_12_ROWS)
    def test_min_eig_equals_hermitised_eigenvalue_exactly(self, text):
        # the inequality matrix that each Cholesky test reads one triangle of
        # is exactly Hermitian: it is the oracle's matrix, filled entry by
        # entry from its lower triangle, bit for bit, and its least eigenvalue
        # is min_eigenvalue's with no Hermitised copy
        rng = np.random.default_rng(sum(map(ord, text)))
        e = parse(text)
        for n in range(3):
            for m in (6, 12):
                pts = _jury_points(rng, m)
                base, moved = _jury_matrices(e, n, pts)
                for M in (0.5, 1.0, 1.7):
                    S = M**2 * base - moved
                    assert np.array_equal(S, jury_matrix(e, n, M, pts))
                    assert np.linalg.eigvalsh(S)[0] == min_eigenvalue(S)

    @pytest.mark.parametrize("bound", [
        lambda e: jury_min_m(e, 1, []),
        lambda e: caughran_lower_bound(e, 1, []),
    ], ids=("jury_min_m", "caughran_lower_bound"))
    def test_empty_point_set_refused(self, bound):
        # no point is no evidence: not an IndexError from eigvalsh, nor a bound of 0
        with pytest.raises(ValueError, match="^the kernel inequality needs at least one point$"):
            bound(parse("2*z+1"))

    @pytest.mark.parametrize("bound", [jury_min_m, caughran_lower_bound],
                             ids=("jury_min_m", "caughran_lower_bound"))
    def test_order_past_the_closed_form_refused(self, bound):
        # the one order warranty, as gram_matrix words it; n = 16 is served
        e, pts = parse("2*z+1"), [1.0, 2.0 + 1.0j]
        assert math.isfinite(bound(e, 16, pts))
        with pytest.raises(ValueError, match=r"^the order must lie in 0\.\.16, got 17$"):
            bound(e, 17, pts)


class TestJuryMatricesOnePass:
    """The jury's two Gram matrices come from one closed-form array call, bit
    for bit as one ``gram_matrix`` call for each."""

    @staticmethod
    def _sets(rng):
        # point sets drawn as the symbol workload draws them, one of each of
        # its sizes per symbol in turn; direction 5's near-axis points; sets
        # with |z| spread over 1e-8..1e8
        texts = CRITERION_12_ROWS + AFFINE_MAPS
        for i, text in enumerate(texts):
            yield parse(text), _jury_points(rng, (6, 7, 8, 12)[i % 4])
        yield parse("z+(0.3+2i)"), _near_axis_points()
        for text in texts:
            yield parse(text), list(10 ** rng.uniform(-8, 8, 12) * np.exp(1j * rng.uniform(-1.5, 1.5, 12)))

    @pytest.mark.parametrize("n", range(MAX_ORDER + 1))
    def test_one_pass_equals_two_gram_calls_exactly(self, n, monkeypatch):
        # the matrices by tobytes(), and both bounds exactly as the oracle's
        # matrices make them
        for e, pts in self._sets(np.random.default_rng(3200 + n)):
            got, want = _jury_matrices(e, n, pts), jury_matrices_two_calls(e, n, pts)
            assert [m.tobytes() for m in got] == [m.tobytes() for m in want]
            bounds = jury_min_m(e, n, pts), caughran_lower_bound(e, n, pts)
            with monkeypatch.context() as patched:
                patched.setattr(symbols, "_jury_matrices", jury_matrices_two_calls)
                assert (jury_min_m(e, n, pts), caughran_lower_bound(e, n, pts)) == bounds

    def test_one_closed_form_call_per_request(self, monkeypatch):
        # a later refactor cannot split the pass without failing here
        calls, values = [], kernel._kernel_values
        monkeypatch.setattr(kernel, "_kernel_values", lambda *args: calls.append(1) or values(*args))
        rng = np.random.default_rng(32)
        for text in CRITERION_12_ROWS + AFFINE_MAPS:
            for n in (0, 1, 2):
                for bound in (jury_min_m, caughran_lower_bound):
                    calls.clear()
                    bound(parse(text), n, _jury_points(rng, 8))
                    assert len(calls) == 1, (text, n, bound)


class TestClassify:
    @pytest.mark.parametrize("text", ["(1e300*z)^3", "z - z/0"])
    def test_nowhere_finite_symbol_refused(self, text):
        # after the sweep's one array call
        e = _Counting(parse(text))
        with pytest.raises(ValueError, match="^phi took no finite value at any sweep point$"):
            classify(e, 1)
        assert e.calls == [("jet", SWEEP.shape)]

    def test_sweep_is_read_only(self):
        # every classify call reads the one module-level array
        with pytest.raises(ValueError, match="read-only"):
            SWEEP[0] = 1.0

    @pytest.mark.parametrize("text", CRITERION_12_ROWS + AFFINE_MAPS + MASKED_SYMBOLS)
    def test_three_array_calls(self, text):
        # the sweep, then each refinement: one order-n jet each, and no
        # other evaluation; a refinement puts 81 points on each of the n + 2 rows
        for n in range(7):
            e = _Counting(parse(text))
            classify(e, n)
            assert e.calls == [("jet", SWEEP.shape)] + [("jet", ((n + 2) * 81,))] * 2, (n, e.calls)

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

    @pytest.mark.parametrize("text, verdicts", WARRANTY_VERDICTS.items(), ids=list(WARRANTY_VERDICTS))
    def test_verdicts_hold_through_the_warranty(self, text, verdicts):
        # the n = 12 verdicts at every order up to 16: the k-th divergence
        # cap grows like k!, as S_k does for a bounded map
        e = parse(text)
        for n in range(12, MAX_ORDER + 1):
            r = classify(e, n)
            assert (r.verdict_H2, r.verdict_Hn) == verdicts, n

    def test_derivative_suprema_of_a_pole_are_factorials(self):
        # phi = 1/(z+1): |z^k phi^(k)/phi| = k! |z/(z+1)|^k rises to k! at
        # infinity; past k = 11 that is above DIVERGE_CAP, but below k!'s cap
        nbc = classify(parse("1/(z+1)"), MAX_ORDER).nbc
        for k, s in enumerate(nbc, start=1):
            assert abs(s - math.factorial(k)) <= 1e-12 * math.factorial(k), k

    @pytest.mark.parametrize("text", CRITERION_12_ROWS + AFFINE_MAPS + MASKED_SYMBOLS)
    def test_matches_scalar_route(self, text):
        e = parse(text)
        for n in range(4):
            got, want = classify(e, n), scalar_route.classify(e, n)
            assert (got.verdict_H2, got.verdict_Hn) == (want.verdict_H2, want.verdict_Hn)
            assert got.selfmap_witnessed == want.selfmap_witnessed
            assert _agree(got.phi_prime_infinity, want.phi_prime_infinity)
            assert _agree(got.radial_sup, want.radial_sup)
            assert len(got.nbc) == len(want.nbc) == n
            assert all(map(_agree, got.nbc, want.nbc))

    @pytest.mark.parametrize("text, rtol", [("z^7*z^7*z^7", 1e-14),
                                            ("z^7*z^7*z^7 - z^7*z^7*z^7 + z", 1e-14),
                                            ("(z+1)^300", 1e-13)])
    def test_overflowing_symbols_match_scalar_route(self, text, rtol):
        # values and jet coefficients overflow far out on the axis and the ray,
        # silently, as Python's complex arithmetic does at one point; where
        # phi(z) or a ratio overflows, the point is skipped, and a nan value
        # fails the self-map flag.  (z+1)^300 is exp(300 log(z+1)) in both
        # routes, by different libraries, so their last-bit differences grow
        # 300-fold: the fields agree to 1.5e-14.
        e = parse(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pairs = []
            for n in range(4):
                got, want = classify(e, n), scalar_route.classify(e, n)
                assert (got.verdict_H2, got.verdict_Hn) == (want.verdict_H2, want.verdict_Hn)
                pairs += zip((got.phi_prime_infinity, got.radial_sup, *got.nbc),
                             (want.phi_prime_infinity, want.radial_sup, *want.nbc))
        assert all(_agree(a, b, rtol) for a, b in pairs)

    def test_report_serialises(self, capsys):
        import json

        from hsob.cli import main

        assert main(["symbol", "classify", "--n", "1", "z+i"]) == 0
        payload = json.loads(capsys.readouterr().out)  # radial_sup is the number 1e999
        assert payload["schema"] == 1
        assert payload["radial_sup"] == math.inf
        assert payload["disclaimer"]
