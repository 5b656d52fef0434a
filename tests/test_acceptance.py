"""Acceptance suite: one check per headline guarantee, one pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is seeded and finishes in well under five minutes.
"""

import cmath
import math

import numpy as np

from hsob import (
    ExpPoly,
    bell_partitions,
    gram_matrix,
    inner_product_n,
    integrate_interval,
    jury_min_m,
    kernel_diag,
    kernel_eval_closed,
    kernel_eval_quadrature,
    kernel_norm,
    laplace,
    min_eigenvalue,
    norm_bounds,
    norm_equality_check,
    norm_n,
    parse,
    sample_exppoly,
    verify,
)
from hsob.jets import Jet
from hsob.symbols import classify
from oracles import cn_inverse, cn_matrix, compose, faa_di_bruno, i_theta, point_bound_check


def _criterion(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {num:2d}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description} {suffix}"


def _suite_worst(suite: str, orders, seed: int, samples: int) -> float:
    """The largest residual of a verify suite over several orders."""
    return max(verify.run(suite, n, seed=seed, samples=samples)["max_residual"] for n in orders)


def test_criterion_01_paley_wiener_isometry():
    worst = _suite_worst("paley-wiener", range(5), seed=1, samples=100)
    anchor = norm_n(ExpPoly.exponential(1.0), 1)
    ok = worst <= 1e-6 and anchor == 0.5
    _criterion(1, "transform isometry, exact time norm vs boundary quadrature", ok,
               f"worst rel residual {worst:.2e}, anchor norm {anchor}")


def test_criterion_02_inner_product_identity():
    worst = _suite_worst("inner-product", range(5), seed=2, samples=100)
    anchor = inner_product_n(ExpPoly.exponential(1.0), ExpPoly.exponential(1.0), 1)
    ok = worst <= 1e-9 and anchor == 0.25
    _criterion(2, "weighted inner product equals derivative form", ok,
               f"worst rel residual {worst:.2e}, anchor {anchor}")


def test_criterion_03_reproducing_property():
    worst = _suite_worst("reproduce", range(1, 5), seed=3, samples=200)
    _criterion(3, "kernel reproduces transform values", worst <= 1e-6,
               f"worst scaled residual {worst:.2e}")


def test_criterion_04_closed_form_vs_quadrature():
    worst = 0.0
    for n in (1, 2, 3):
        for rz in (0.01, 1.0, 100.0):
            for rw in (0.01, 1.0, 100.0):
                for tz, tw in ((math.pi / 3, -math.pi / 3), (-math.pi / 3, math.pi / 3)):
                    z = rz * cmath.exp(1j * tz)
                    w = rw * cmath.exp(1j * tw)
                    c = kernel_eval_closed(n, z, w)
                    q = kernel_eval_quadrature(n, z, w)
                    worst = max(worst, abs(c - q) / abs(c))
    a1 = abs(kernel_eval_closed(1, 1.0, 1.0) - 2 * math.log(2))
    a2 = abs(kernel_eval_closed(2, 1.0, 1.0) - (4 * math.log(2) - 1) / 3)
    ok = worst <= 1e-7 and a1 < 1e-13 and a2 < 1e-13
    _criterion(4, "kernel closed forms match 1-D Duffy quadrature", ok,
               f"worst rel diff {worst:.2e}")


def test_criterion_05_norm_bounds_sandwich():
    strict = True
    for n in (1, 2, 3, 4, 5):
        for r in np.logspace(-3, 3, 7):
            for theta in np.linspace(-math.pi / 2 + 0.05, math.pi / 2 - 0.05, 9):
                z = r * cmath.exp(1j * theta)
                nrm = kernel_norm(n, z)
                lo, hi = norm_bounds(n, z)
                strict = strict and (lo < nrm < hi)
    ray_dev = 0.0
    for n in (1, 3, 5):
        z1 = cmath.exp(1j * math.pi / 6)
        v1 = abs(z1) * kernel_diag(n, z1)
        v2 = abs(100 * z1) * kernel_diag(n, 100 * z1)
        ray_dev = max(ray_dev, abs(v1 - v2) / abs(v1))
    ok = strict and ray_dev <= 1e-6
    _criterion(5, "kernel-norm sandwich strict on the grid, ray invariant", ok,
               f"ray deviation {ray_dev:.2e}")


def test_criterion_06_angular_factor():
    worst = 0.0
    for theta in np.linspace(-math.pi / 2 + 0.05, math.pi / 2 - 0.05, 50):
        quad = integrate_interval(
            lambda t, c=theta: math.cos(c) / (t**2 + 1 + 2 * t * math.cos(2 * c)), 0.0, 1.0
        ).value.real
        worst = max(worst, abs(i_theta(theta) - quad))
    in_range = all(
        0.5 <= i_theta(t) <= math.pi / 4
        for t in np.linspace(-math.pi / 2 + 1e-9, math.pi / 2 - 1e-9, 101)
    )
    ok = worst <= 1e-10 and i_theta(0.0) == 0.5 and in_range
    _criterion(6, "angular factor closed form vs defining integral", ok,
               f"worst abs diff {worst:.2e}")


def test_criterion_07_triangular_matrix_algebra():
    exact = True
    for n in range(13):
        prod = cn_matrix(n).multiply(cn_inverse(n))
        identity = tuple(tuple(int(i == j) for j in range(n + 1)) for i in range(n + 1))
        exact = exact and prod.entries == identity
    sums_ok = cn_matrix(5).row_sums() == (1, 2, 7, 34, 209, 1546)
    _criterion(7, "triangular matrix times inverse is exactly the identity", exact and sums_ok,
               "integer arithmetic, n <= 12; row sums 1,2,7,34,209,1546")


def test_criterion_08_higher_chain_rule():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 7))
        z = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        a = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
        b = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
        zj = Jet.variable(z, n)
        phi = a * zj + b + 1.0 / (zj + 2.0)
        uj = Jet.variable(phi.value, n)
        f = 1.0 / (uj + 1.5) + 0.25 * uj * uj
        direct = compose(f, phi).derivative(n)
        partition = faa_di_bruno(f, phi, n)
        worst = max(worst, abs(direct - partition) / max(abs(direct), 1e-12))
    constraints = all(
        sum((j + 1) * m for j, m in enumerate(multi)) == n and sum(multi) == k
        for n in range(1, 17)
        for _, k, multi in [(c, k, m) for c, k, m in bell_partitions(n).entries]
    )
    ok = worst <= 1e-9 and constraints
    _criterion(8, "partition-sum derivative equals jet composition", ok,
               f"worst rel diff {worst:.2e}")


def test_criterion_09_disc_norm_equality():
    lhs, rhs, res0 = norm_equality_check(laplace(ExpPoly.exponential(1.0)))
    anchor_ok = (
        abs(lhs - math.sqrt(0.5)) < 1e-12
        and abs(rhs - math.sqrt(0.5)) < 1e-12
        and res0 < 1e-12
    )
    worst = verify.run("cayley", seed=9, samples=20)["max_residual"]
    ok = anchor_ok and worst <= 1e-7
    _criterion(9, "disc-transfer norm equality", ok, f"worst residual {worst:.2e}")


def test_criterion_10_gram_positive_semidefinite():
    rng = np.random.default_rng(10)
    worst = math.inf
    for _ in range(20):
        pts = [complex(rng.uniform(0.15, 5.0), rng.uniform(-3.0, 3.0)) for _ in range(8)]
        for n in range(4):
            worst = min(worst, min_eigenvalue(gram_matrix(n, pts)))
    _criterion(10, "kernel Gram matrices positive semidefinite", worst >= -1e-8,
               f"least eigenvalue {worst:.2e}")


def test_criterion_11_jury_certificate_threshold():
    # the least admissible M of the kernel inequality on a point set is a
    # lower bound for the operator norm a^(-1/2) of a*z+b on H2, and it
    # approaches the norm as the set refines toward the boundary and infinity
    from hsob.symbols import Add, Const, Mul, Var

    rng = np.random.default_rng(11)
    coarse, refined_ratios = [], []
    for a in (0.5, 1.0, 4.0):
        b = complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0))
        phi = Add(Mul(Const(a), Var()), Const(b))
        norm = 1.0 / math.sqrt(a)
        pts = [complex(rng.uniform(0.3, 5.0), rng.uniform(-2.0, 2.0)) for _ in range(6)]
        coarse.append(jury_min_m(phi, 0, pts) / norm)
        refined_ratios.append(jury_min_m(phi, 0, pts + [50.0, 1e3, 1e4]) / norm)
    ok = max(coarse) <= 1.0 and min(refined_ratios) > 0.9
    _criterion(11, "kernel-inequality bound below the operator norm, near it on refined sets", ok,
               f"6-point bound/norm {min(coarse):.4f}..{max(coarse):.4f}, "
               f"refined {min(refined_ratios):.5f}..{max(refined_ratios):.5f}")


def test_criterion_12_symbol_classification_table():
    rows_ok = []
    r = classify(parse("2*z+1"), 4)
    rows_ok.append(
        r.verdict_H2 == "bounded"
        and abs(r.phi_prime_infinity - 0.5) < 1e-3
        and r.verdict_Hn == "sufficient-passed"
        and all(classify(parse("2*z+1"), n).verdict_Hn == "sufficient-passed"
                for n in (1, 2, 3))
    )
    r = classify(parse("z+i"), 1)
    rows_ok.append(r.verdict_H2 == "bounded" and math.isinf(r.radial_sup)
                   and r.verdict_Hn == "necessary-failed")
    r = classify(parse("z+sqrt(z)+1"), 2)
    rows_ok.append(abs(r.phi_prime_infinity - 1.0) < 1e-3
                   and r.verdict_Hn == "sufficient-passed")
    r = classify(parse("z+log1p(z)"), 2)
    rows_ok.append(r.verdict_Hn == "sufficient-passed")
    r = classify(parse("sqrt(z)"), 1)
    rows_ok.append(r.verdict_H2 == "unbounded")
    r = classify(parse("1/(z+1)"), 1)
    rows_ok.append(r.verdict_H2 == "unbounded")
    _criterion(12, "symbol classification table", all(rows_ok),
               "affine, shifts, power and log maps, bounded-range maps")


def test_criterion_13_hardy_inequality_and_point_bound():
    violation = _suite_worst("hardy-ineq", range(1, 4), seed=13, samples=50)
    rng = np.random.default_rng(13)
    margin_min = math.inf
    for _ in range(50):
        f = sample_exppoly(rng, min_norm=0.1)
        n = int(rng.integers(1, 5))
        z = complex(rng.uniform(0.1, 5.0), rng.uniform(-4.0, 4.0))
        margin_min = min(margin_min, point_bound_check(laplace(f), n, z))
    ok = violation <= 0.0 and margin_min >= 0
    _criterion(13, "iterated-integral inequality and point bound margins", ok,
               f"worst violation {violation:.2e}, least point-bound margin {margin_min:.2e}")
