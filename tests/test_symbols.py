"""Symbol parsing, jets of expressions, sampled suprema, kernel certificates."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from hsob import (
    BranchViolation,
    GridSpec,
    Jet,
    SymbolSyntaxError,
    caughran_lower_bound,
    classify,
    faa_di_bruno,
    gram_matrix,
    jury_min_eig,
    jury_min_m,
    kernel_norm,
    min_eigenvalue,
    parse,
)
from hsob.cli import _parse_grid
from hsob.symbols import (
    DEFAULT_GRID,
    DIVERGE_CAP,
    Add,
    Const,
    Div,
    Log1p,
    Mul,
    Pow,
    Var,
    _base_points,
    _derivative_ratios,
    _supremum_estimate,
)

import scalar_route

#: the symbols of acceptance criterion 12's classification table
CRITERION_12_ROWS = ("2*z+1", "z+i", "z+sqrt(z)+1", "z+log1p(z)", "sqrt(z)", "1/(z+1)")
#: affine maps a*z+b with Re b > 0, written as the benchmark writes them
AFFINE_MAPS = ("0.3981*z+1.2057-0.6612i", "3.1623*z+0.2000+1.9000i")
#: symbols with masked lanes on the default grid: a denominator exactly 0 at
#: the grid point z = 1, branch cuts over part of the grid, and powers that
#: overflow along the outward rays
MASKED_SYMBOLS = ("1/(z-1)", "sqrt(z-10)", "log1p(z-5)", "z^40")


# Reference routes for the symbol analysis, kept as oracles: they rebuild every
# kernel value on each bisection step and a fresh order-k jet for each k, the
# straightforward reading of the definitions that the library hoists.  The
# point-by-point route itself is in scalar_route.py.

def _oracle_jury_matrix(e, n, M, points):
    # gram_matrix is bit for bit the scalar kernel_eval of each entry
    # (TestGram in test_kernel.py), so rebuilding with it keeps the oracle exact;
    # the images come from the same array evaluation as the library's
    pts = [complex(z) for z in points]
    images = e.eval(np.array(pts))
    base, moved = gram_matrix(n, pts), gram_matrix(n, images)
    m = len(pts)
    A = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(i + 1):
            val = M**2 * base[i, j] - moved[i, j]
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


def _per_order_nbc_suprema(e, n, grid=DEFAULT_GRID):
    # a fresh order-k array jet for each k, and one supremum estimate each
    out = []
    for k in range(1, n + 1):
        def ratio(z, k=k):
            return _derivative_ratios(z, e.jet(z, k), k)[k - 1:k]

        with np.errstate(over="ignore", invalid="ignore"):
            first = ratio(_base_points(grid))
        out.append(float(_supremum_estimate(ratio, grid, [DIVERGE_CAP], first)[0]))
    return out


def _oracle_caughran(e, n, points):
    # one kernel_norm of each point and of its image, images from one array call
    pts = [complex(z) for z in points]
    return max(kernel_norm(n, complex(u)) / kernel_norm(n, z)
               for z, u in zip(pts, e.eval(np.array(pts, dtype=complex))))


def _agree(got, want, rtol=1e-14):
    """Equal infinities and nans, finite values to ``rtol`` relative."""
    if math.isnan(want) or math.isinf(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= rtol * abs(want)


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
    """The self-map flag of :func:`classify`: Re phi > 0 over the base grid."""

    def test_translation(self):
        assert classify(parse("z+1"), 0).selfmap_witnessed

    def test_left_shift_fails(self):
        assert not classify(parse("z-10"), 0).selfmap_witnessed

    def test_imaginary_shift(self):
        assert classify(parse("z+i"), 0).selfmap_witnessed


class TestArrayEvaluation:
    """One array call per point set: masked lanes where a point would raise."""

    POINTS = np.array([1.0, 2.0 + 1.0j, 10.0, 0.5 - 3.0j, 25.0 + 0.5j])

    @pytest.mark.parametrize("text", ["1/(z-10)", "sqrt(z-10)", "log1p(z-11)", "z^40", "(z+1)^2.5"])
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
            direct = f.compose(phi).derivative(n)
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

    def test_bisection_stops_at_adjacent_doubles(self, monkeypatch):
        # once the bracket's midpoint is one of its ends no step can move it:
        # the bisection ends well before its 80 steps, on the oracle's bound
        # (each step is one eigvalsh call; the oracle's are not counted)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(A):
            calls.append(1)
            return eigvalsh(A)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        rng = np.random.default_rng(14)
        for text in CRITERION_12_ROWS + AFFINE_MAPS:
            for n, m in ((0, 6), (1, 6), (2, 6), (3, 12), (3, 20)):
                pts = _jury_points(rng, m)
                calls.clear()
                bound = jury_min_m(parse(text), n, pts)
                steps = len(calls)
                assert bound == _oracle_jury_min_m(parse(text), n, pts)
                assert 0 < steps <= 64

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            jury_min_eig(parse("z"), 0, 1.0, [-1.0])

    def test_min_m_margin_validation(self):
        with pytest.raises(ValueError):
            jury_min_m(parse("z"), 0, [1.0, -1.0])
        with pytest.raises(ValueError):
            jury_min_m(parse("z-10"), 1, [1.0, 2.0])  # images leave C+

    def test_first_bad_point_is_named(self):
        # one array evaluation of the images, but the error is the one a
        # point-by-point check raises at the first bad point
        with pytest.raises(ValueError, match=r"^image \(-9\+0j\) violates"):
            jury_min_eig(parse("z-10"), 0, 1.0, [20.0, 1.0, 2.0])
        with pytest.raises(ValueError, match=r"^point \(-1\+0j\) violates"):
            jury_min_eig(parse("z-10"), 0, 1.0, [20.0, -1.0, 1.0])
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
            for bound in (lambda pts: jury_min_eig(e, 1, 1.0, pts),
                          lambda pts: jury_min_m(e, 1, pts),
                          lambda pts: caughran_lower_bound(e, 1, pts)):
                with pytest.raises(ValueError, match=r"^image of point \(1e\+200\+0j\) is not finite$"):
                    bound([1.0, 1e200, 2.0])

    @pytest.mark.parametrize("text, pts, message", [
        ("2*z+1", [1.0, 1e-310], r"^kernel value at point \(1e-310\+0j\) overflows$"),
        ("1e-300*z", [1.0, 1e-10], r"^kernel value at image \(1e-310\+0j\) overflows$"),
    ])
    def test_overflowing_kernel_value_names_its_point(self, text, pts, message):
        # K_n(z, z) passes the largest double next to 0: an error, not a nan
        # bound or a wrong eigenvalue, and numpy stays silent
        e = parse(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for bound in (lambda: jury_min_eig(e, 1, 1.0, pts), lambda: jury_min_m(e, 1, pts),
                          lambda: caughran_lower_bound(e, 1, pts)):
                with pytest.raises(ValueError, match=message):
                    bound()

    @pytest.mark.parametrize("text", CRITERION_12_ROWS + AFFINE_MAPS)
    def test_min_m_matches_rebuilding_oracle_exactly(self, text):
        # Gram matrices built once, and each step's matrix handed to eigvalsh
        # without a Hermitised copy, give bit for bit the per-step rebuilt bound
        rng = np.random.default_rng(sum(map(ord, text)))
        e = parse(text)
        for n, m in ((0, 6), (0, 12), (1, 6), (1, 12), (2, 6), (2, 12), (3, 12), (3, 20)):
            pts = _jury_points(rng, m)
            assert jury_min_m(e, n, pts) == _oracle_jury_min_m(e, n, pts)

    @pytest.mark.parametrize("bound", [
        lambda e: jury_min_eig(e, 1, 1.0, []),
        lambda e: jury_min_m(e, 1, []),
        lambda e: caughran_lower_bound(e, 1, []),
    ], ids=("jury_min_eig", "jury_min_m", "caughran_lower_bound"))
    def test_empty_point_set_refused(self, bound):
        # no point is no evidence: not an IndexError from eigvalsh, nor a bound of 0
        with pytest.raises(ValueError, match="^the kernel inequality needs at least one point$"):
            bound(parse("2*z+1"))

    @pytest.mark.parametrize("bound", [
        lambda e, n, pts: jury_min_eig(e, n, 1.0, pts),
        jury_min_m,
        caughran_lower_bound,
    ], ids=("jury_min_eig", "jury_min_m", "caughran_lower_bound"))
    def test_order_past_the_closed_form_refused(self, bound):
        # the kernel's cap, as gram_matrix words it; n = 16 is served
        e, pts = parse("2*z+1"), [1.0, 2.0 + 1.0j]
        assert math.isfinite(bound(e, 16, pts))
        with pytest.raises(ValueError, match=r"^the closed form covers n <= 16, got n = 17; "):
            bound(e, 17, pts)


class TestClassify:
    @pytest.mark.parametrize("grid", [GridSpec(num_r=0), GridSpec(num_theta=0)])
    def test_empty_grid_refused(self, grid):
        # no sample is no evidence: not a NaN estimate, a "witnessed" self-map
        # and an "unbounded" verdict
        with pytest.raises(ValueError, match="no points"):
            classify(parse("z"), 1, grid)

    def test_grid_is_the_grid_option(self):
        # GridSpec holds the five fields of --grid and no policy; the report
        # prints them as they are
        fields = ["log10_r_min", "log10_r_max", "num_r", "theta_margin", "num_theta"]
        assert [f.name for f in dataclasses.fields(GridSpec)] == fields
        grid = _parse_grid("1e-2,1e2,11,0.01,7")
        assert dataclasses.astuple(grid) == (-2.0, 2.0, 11, 0.01, 7)
        report = classify(parse("2*z+1"), 1, grid).to_dict()
        assert report["grid"] == dataclasses.asdict(grid)
        assert list(report["grid"]) == fields

    @pytest.mark.parametrize("text", ["(1e300*z)^3", "z - z/0"])
    def test_nowhere_finite_symbol_refused(self, text):
        with pytest.raises(ValueError, match="^phi took no finite value at any base-grid point$"):
            classify(parse(text), 1)

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
        # values and jet coefficients overflow on the outer grid and the rays,
        # silently, as Python's complex arithmetic does at one point; where
        # phi(z) overflows to nan but phi'(z) stays finite, the ratio is
        # skipped.  (z+1)^300 is exp(300 log(z+1)) in both routes, by
        # different libraries, so their last-bit differences grow 300-fold:
        # the radial supremum agrees to 3.0e-14.  At n = 3 the per-point route
        # reads an overflowed coefficient as an infinite ratio, so n stops at 2.
        e = parse(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pairs = []
            for n in range(3):
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
