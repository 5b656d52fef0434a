"""Tour of the quadrature engine: finite intervals and half-lines.

Every integrator returns a value plus a best-effort error estimate (the
difference of two successive refinements), and all of them accept
complex-valued integrands.
"""

import math

import numpy as np

from hsob import integrate_halfline, integrate_interval

print("== finite intervals ==")
r = integrate_interval(np.sin, 0.0, math.pi)
print(f"int_0^pi sin t dt        = {r.value.real:.15f}   (exact 2, est. error {r.error:.1e})")

r = integrate_interval(lambda t: np.exp(1j * t), 0.0, math.pi / 2)
print(f"int_0^pi/2 e^(it) dt     = {r.value:.15f}   (exact 1+1j)")

print()
print("== half-lines: exponential and algebraic decay ==")
r = integrate_halfline(lambda t: t**2 * np.exp(-2 * t), decay_scale=0.5)
print(f"int_0^inf t^2 e^(-2t) dt = {r.value.real:.15f}   (exact Gamma(3)/8 = 0.25)")

# algebraic decay of order 2: the tail substitution t = T + u/(1-u) handles it
r = integrate_halfline(lambda t: t**2 / (1 + t**2) ** 2, decay_scale=1.0)
print(f"int_0^inf t^2/(1+t^2)^2  = {r.value.real:.15f}   (exact pi/4 = {math.pi/4:.15f})")
