"""Reproducing kernels of the order-n spaces: values, norms, positivity.

The kernel is a double integral over the unit square with a 1/r corner
singularity; Duffy's split turns it into one smooth integral over (0, 1), and
one closed form serves orders 0 to 16.  The diagonal K_n(z, z) is
the squared norm of the kernel function, scales like 1/|z| along rays, and is
sandwiched between explicit constants.
"""

import cmath
import math

import numpy as np

from hsob import (
    ExpPoly,
    gram_matrix,
    kernel_eval_closed,
    kernel_eval_quadrature,
    kernel_norm,
    laplace,
    min_eigenvalue,
    norm_bounds,
    reproduce_check,
)

print("== closed form vs 1-D Duffy quadrature ==")
for n in (1, 2, 3):
    z, w = 2.0 + 1.0j, 0.5 - 0.3j
    c = kernel_eval_closed(n, z, w)
    q = kernel_eval_quadrature(n, z, w)
    print(f"K_{n}({z}, {w}) = {c:.12f}   |closed - quad| = {abs(c-q):.1e}")

print()
print("== the diagonal: norms, bounds, ray scaling ==")
for n in (1, 2, 3):
    for r in (0.01, 1.0, 100.0):
        z = r * cmath.exp(1j * math.pi / 4)
        nrm = kernel_norm(n, z)
        lo, hi = norm_bounds(n, z)
        print(f"n={n} |z|={r:>6}:  {lo:.6f} < {nrm:.6f} < {hi:.6f}   sqrt|z|*norm = {math.sqrt(r)*nrm:.6f}")

print()
print("== positivity: Gram matrices of kernel values ==")
rng = np.random.default_rng(1)
pts = [complex(rng.uniform(0.2, 4.0), rng.uniform(-2.0, 2.0)) for _ in range(6)]
for n in (0, 1, 2):
    G = gram_matrix(n, pts)
    print(f"n={n}: least eigenvalue of the 6x6 Gram matrix = {min_eigenvalue(G):.3e}")

print()
print("== the kernel reproduces transform values ==")
f = ExpPoly.exponential(2.0)
for w in (1.0, 1 + 1j):
    res = reproduce_check(2, f, w)
    print(f"(Lf)({w}) = {laplace(f)(w):.10f}   pairing residual {res:.2e}")
