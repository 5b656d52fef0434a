"""Moving between the half-plane and the unit disc with the Cayley map.

The pullback F_D(lam) = F((1+lam)/(1-lam)) turns order-1 membership into two
disc-space memberships, with the exact norm identity
sqrt(2) ||F||_(1) = ||(1+lam) F_D'||_{H2(D)}.
"""

from hsob import (
    ExpPoly,
    cayley,
    cayley_inverse,
    disc_h2_norm,
    disc_membership_report,
    laplace,
    norm_equality_check,
    verify,
)

print("== the conformal map ==")
print("gamma(0)     =", cayley(0.0))
print("gamma(0.5)   =", cayley(0.5))
print("gamma^-1(3)  =", cayley_inverse(3.0))

print()
print("== circle norms on the disc ==")
print("||1 + lam||  =", disc_h2_norm(lambda lam: 1.0 + lam), " (exact sqrt 2)")
print("||lam^7||    =", disc_h2_norm(lambda lam: lam**7), " (exact 1)")

print()
print("== the norm equality, closed-form case ==")
F = laplace(ExpPoly.exponential(1.0))          # 1/(z+1), so F_D = (1-lam)/2
lhs, rhs, res = norm_equality_check(F)
print(f"sqrt2 ||F||_(1) = {lhs:.15f}")
print(f"disc side       = {rhs:.15f}")
print(f"gap             = {res:.1e}   (both sides are exactly 1/sqrt 2)")

print()
print("== seeded random samples ==")
worst = verify.run("cayley", seed=4, samples=10)["max_residual"]
print(f"worst equality gap over 10 samples: {worst:.2e}")

print()
print("== membership evidence on the disc side ==")
report = disc_membership_report(F)
for name, value in report.items():
    print(f"{name:28s} finite disc norm {value:.6f}")
