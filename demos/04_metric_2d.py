"""2D metrics with prescribed Ricci tensor via one scalar equation for a
conformal factor.

For a diagonal nondegenerate prescription r = diag(E, G), the ansatz g = h r
turns Ric_g = r into h K_g = 1 (in 2D Ric_g = K_g g), that is the one scalar
equation

    h Delta_r h - |dh|^2_r = 2 (K_r - 1) h^2,

quadratic in h. Multiplied by E it reads
(h)_11 = (1/h) (p^2 + a (h)_2^2) + b h - a (h)_22 + e p + f (h)_2 with
p = (h)_1, and fixed entries in closed form: a = E/G,
e = (E_1/E - G_1/G)/2, f = (a G_2 - E_2)/(2G) and b = 2 K_r E - 2E, with
K_r from Brioschi's formula. The builder solves it as the first-order CK
system (h)_1 = p, (p)_1 = (h)_11. Ric_11 - r11 of g is E (h K_g - 1), so
this (h)_11 is the one Ric_11 = r11 gives, and h is the unique truncated
solution: bit for bit the h of a solve of Ric_11 = r11. The solution is
parametrized by two free functions of one variable (h and its x1-derivative
on the initial line).
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
