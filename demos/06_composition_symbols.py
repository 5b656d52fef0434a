"""Analytic self-maps of the half-plane as composition-operator symbols.

A symbol phi is parsed to an AST, differentiated by exact jet arithmetic, and
classified: the angular derivative at infinity decides boundedness on the
plain Hardy space (norm = its square root); an infinite radial supremum rules
out boundedness on every order n >= 1; finite derivative suprema certify it.
The least M with M^2 K >= K o phi on a point set is a lower bound for the
operator norm, which it approaches as the set refines.
"""

from hsob import classify, jury_min_m, parse

print("== jets of a parsed symbol ==")
phi = parse("z + log1p(z)")
jet = phi.jet(1.0, 3)
print("phi(1), phi'(1), phi''(1), phi'''(1):",
      [complex(round(jet.derivative(k).real, 6), round(jet.derivative(k).imag, 6))
       for k in range(4)])

print()
print("== the classification table ==")
table = [("2*z+1", 2), ("z+i", 1), ("z+sqrt(z)+1", 2),
         ("z+log1p(z)", 2), ("sqrt(z)", 1), ("1/(z+1)", 1)]
for text, n in table:
    r = classify(parse(text), n)
    nbc = ", ".join(f"{v:.3g}" for v in r.nbc)
    print(f"{text:14s} H2: {r.verdict_H2:9s}  order {n}: {r.verdict_Hn:17s} "
          f"phi'(inf)={r.phi_prime_infinity:<8.4g} radial={r.radial_sup:<8.4g} nbc=[{nbc}]")

print()
print("== the kernel-inequality bound approaches the norm ==")
phi = parse("4*z+1")
print("phi = 4z+1, operator norm on the plain Hardy space = sqrt(phi'(inf)) = 0.5")
pts = [1.0, 2.0, 0.5 + 0.2j]
for label, points in (("3 points", pts), ("refined toward infinity", pts + [10.0, 1e3, 1e5])):
    print(f"  least admissible M, {label}: {jury_min_m(phi, 0, points):.6f}")

print()
print("== suprema are sampled estimates, not proofs ==")
# classify's fields, labelled by the quantities they estimate
print("angular_derivative(2z+1) =", classify(parse("2*z+1"), 0).phi_prime_infinity)
print("radial_sup(z+i)          =", classify(parse("z+i"), 0).radial_sup, " (escapes to the boundary)")
