"""The extended transform isometry, verified by two independent routes.

For F = Lf the order-n norm ||z^n F^(n)||_2 can be computed (a) exactly in
the weighted time algebra, as the norm of f, (b) by quadrature on the
imaginary axis, as the norm of F.  The two agree to quadrature accuracy; that
agreement is what makes the Laplace transform an isometry between the
weighted time space and the Hardy-Sobolev space.
"""

from hsob import ExpPoly, hn_norm, laplace, laplace_derivative_identity_check, verify

f = ExpPoly.exponential(1.0) + 2.0 * ExpPoly.monomial(1.0, 1, 3.0)
F = laplace(f)

print("== one function, two norm routes ==")
for n in range(4):
    rep = hn_norm(F, n)
    print(f"n={n}:  exact {rep.norm_exact:.12f}  boundary {rep.norm_boundary:.12f}  "
          f"gap {rep.residual:.1e}")

print()
print("== derivative-exchange identities (exact, so residuals are rounding) ==")
for k in range(4):
    res = laplace_derivative_identity_check(f, 3, k, 1.5 + 0.5j)
    print(f"k={k}: residual {res:.2e}")

print()
print("== seeded random sweep ==")
worst = max(verify.run("paley-wiener", n, seed=0, samples=25)["max_residual"] for n in range(5))
print(f"worst relative isometry residual over 25 samples x 5 orders: {worst:.2e}")
