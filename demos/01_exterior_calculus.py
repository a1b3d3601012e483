"""Exterior calculus on a chart: jets, d, interior products, Courant brackets.

Everything evaluates through order-2 Taylor jets, so the classical
identities hold to rounding error rather than finite-difference error.
Run:  python demos/01_exterior_calculus.py
"""

import numpy as np

from gencontact import fields as F
from gencontact.charts import box
from gencontact.exprs import parse_scalar

ch = box(3)
pts = ch.sample(seed=11, count=50)

print("== scalar fields and exact jets ==")
f = parse_scalar("sin(x)*exp(y) + z^2", ch)
p = pts[0]
jet = f.at(p)
print(f"f at {np.round(p, 3)}: value {jet.value:.6f}")
print(f"grad = {np.round(jet.grad, 6)}")
print(f"finite-difference agreement: {F.jet_validate(f, p):.2e}")

print("\n== d, interior product, Lie derivative ==")
eta = F.one_form(ch, [parse_scalar(e, ch) for e in ("-y", "0", "1")])  # dz - y dx
deta = F.d(eta)
print("d(dz - y dx) components at a sample point (expect dx^dy):")
print(np.round(deta.values(p), 12))
reeb = F.basis_vector(ch, 2)
print("i_dz d(eta) =", np.round(F.interior(reeb, deta).values(p), 12))
print("L_dz eta =", np.round(F.lie_derivative(reeb, eta).values(p), 12))

dd = F.d(F.d(parse_scalar("x*y*sin(z)", ch)))
print("max |d(d f)| over 50 points:", max(np.abs(dd.values(q)).max() for q in pts))

print("\n== Courant bracket ==")
a = F.section(vec=F.basis_vector(ch, 0))  # d/dx
xdy = F.section(form=F.one_form(ch, [parse_scalar(e, ch) for e in ("0", "x", "0")]))
br = F.courant(a, xdy)
print("[[d/dx, x dy]] =", np.round(br.values(p), 12), "(expect dy)")

b = F.section(vec=F.basis_vector(ch, 2))
print("[[d/dz, dz - y dx]] =", np.round(F.courant(b, F.section(form=eta)).values(p), 12))

print("\n== e^B is a Courant automorphism iff dB = 0 ==")
u = F.section(
    vec=F.vector_field(ch, [parse_scalar(e, ch) for e in ("x*y", "sin(z)", "1")]),
    form=F.one_form(ch, [parse_scalar(e, ch) for e in ("z", "x^2", "y")]),
)
v = F.section(
    vec=F.vector_field(ch, [parse_scalar(e, ch) for e in ("exp(y)", "x", "z*z")]),
    form=F.one_form(ch, [parse_scalar(e, ch) for e in ("1", "x*y", "sin(x)")]),
)
for label, coeff in (("closed  B = x dx^dy", 0), ("twisted B = z dx^dy", 2)):
    bf = F.wedge11(F.coordinate(ch, coeff) * F.basis_form(ch, 0), F.basis_form(ch, 1))
    eb = F.b_endo(bf)
    lhs = F.courant(eb.apply(u), eb.apply(v))
    rhs = eb.apply(F.courant(u, v))
    dev = max(np.abs(lhs.values(q) - rhs.values(q)).max() for q in pts[:20])
    print(f"{label}: naturality deviation {dev:.3e}")
