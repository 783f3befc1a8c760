"""2D metrics with prescribed Ricci tensor via one scalar equation for a
conformal factor.

For a diagonal nondegenerate prescription r = diag(E, G), the ansatz g = h r
turns Ric_g = r into h K_g = 1 (in 2D Ric_g = K_g g). With h = c e^(2u),
c = h(0), the Kazdan-Warner identity K_g = (K_r - Delta_r u) / h makes that
the one scalar equation

    Delta_r u = K_r - 1,

linear in u. Multiplied by E it reads
(u)_11 = b - a (u)_22 + e (u)_1 + f (u)_2, with fixed entries in closed form
from the logarithmic derivatives u_i = E_i/E and v_i = G_i/G: a = E/G,
e = (u1 - v1)/2, f = a (v2 - u2)/2 and b = E (K_r - 1), with K_r from
Brioschi's formula. The builder solves it on the log-derivatives
p = (h)_1 / (2h) = (u)_1 and w = (h)_2 / (2h) = (u)_2 as the first-order CK
system (h)_1 = 2 p h, (p)_1 = b - a (w)_2 + e p + f w, (w)_1 = (p)_2, from
the slices phi, psi / (2 phi) and (phi)_2 / (2 phi): a polynomial map with no
reciprocal. For any coefficients, h = c e^(2u) solves
h Delta_r h - |dh|^2_r = 2 (K_r - 1) h^2 exactly when u solves the linear
equation, so h is the unique truncated solution of that equation with
h = phi, (h)_1 = psi on the initial line: bit for bit the h of a solve of
Ric_11 = r11. The solution is parametrized by two free functions of one
variable (h and its x1-derivative on the initial line).
"""

from math import factorial

from fractions import Fraction

from jetgeom import (
    Bilinear,
    Jet,
    SliceJet,
    build_metric_2d_prescribed_ricci,
    levi_civita,
    ricci,
    sectional_curvature_2d,
)

CAP = 6

print("== hyperbolic plane fixture ==")
e2x = Jet.from_terms(
    2, CAP, {(k, 0): Fraction(2**k, factorial(k)) for k in range(CAP + 1)}
)
r = Bilinear(
    2,
    {
        (1, 1): Jet.constant(-1, 2, CAP),
        (1, 2): Jet.zero(2, CAP),
        (2, 1): Jet.zero(2, CAP),
        (2, 2): -e2x,
    },
)
report = build_metric_2d_prescribed_ricci(
    r, SliceJet(Jet.constant(-1, 1, CAP)), SliceJet(Jet.zero(1, CAP))
)
h = report.outputs["conformal_factor"]
g = report.outputs["metric"]
print("conformal factor h:", h)
print("g11:", g.comp(1, 1))
print("g22:", g.comp(2, 2))
f = sectional_curvature_2d(g)
print("sectional curvature is the constant -1:",
      f.eq_up_to(Jet.constant(-1, 2, CAP), CAP - 2))

print()
print("== a wavier prescription ==")
r11 = Jet.from_terms(2, CAP, {(0, 0): 1, (1, 1): 1})
r22 = Jet.from_terms(2, CAP, {(0, 0): 2, (0, 2): -1})
r = Bilinear(
    2,
    {(1, 1): r11, (1, 2): Jet.zero(2, CAP), (2, 1): Jet.zero(2, CAP), (2, 2): r22},
)
phi = SliceJet(Jet.from_terms(1, CAP, {(0,): 1, (1,): Fraction(1, 2)}))
psi = SliceJet(Jet.from_terms(1, CAP, {(1,): 1}))
report = build_metric_2d_prescribed_ricci(r, phi, psi)
g = report.outputs["metric"]
res = ricci(levi_civita(g))
ok = all(
    (res.comp(i, j) - r.comp(i, j)).is_zero_up_to(CAP - 2)
    for i in (1, 2)
    for j in (1, 2)
)
print("Ricci of the built metric reproduces r to degree", CAP - 2, ":", ok)

print()
print("all 2D metric demos passed")
