"""Generalized f-almost contact structures and the K(kappa) deformations.

Run:  python demos/04_f_deformations.py
"""

from gencontact import deformations as D
from gencontact import fields as F
from gencontact import gallery
from gencontact import structures as S

darboux = gallery.build("darboux")
ch = darboux["chart"]
pts = ch.sample(seed=21, count=20)
s0 = darboux["gacs"]

print("== K-(dz) on the contact lift: f jumps to kappa(Reeb) = 1 ==")
dz = F.basis_form(ch, 2)
s1 = D.k_minus(s0, dz)
print(f"f value: {float(s1.f.values(pts[0])):.1f}")
print(D.fgacs_check(s1, pts).summary())

print("\n== the deformation algebra ==")
a = F.one_form(ch, [F.coordinate(ch, 1), F.constant(ch, 0), F.constant(ch, 1)])
b = F.one_form(ch, [F.constant(ch, 0.5), F.coordinate(ch, 2), F.constant(ch, 0)])
add = D.fgacs_deviation(D.k_minus(D.k_minus(s0, a), b), D.k_minus(s0, a + b), pts)
mixed = D.fgacs_deviation(D.k_plus(D.k_minus(s0, b), a), D.k_minus(D.k_plus(s0, a), b), pts)
print(f"K- additivity deviation: {add:.2e}")
print(f"mixed K+/K- order deviation: {mixed:.2e} (genuinely non-commutative)")
bf = F.wedge11(F.basis_form(ch, 0), F.basis_form(ch, 1))
print(D.b_commute_check(s0, dz, bf, pts).summary())

print("\n== normalization back to f = 0 ==")
gacs, alpha, beta = D.normalize(s1, pts)
print("recovered structure passes the plain axioms:")
print(S.gacs_check(gacs, pts).summary())

print("\n== cone B-fields of 2r dr ^ kappa realise K- ==")
print(D.cone_b_correspondence(s0, dz, pts[:4]).summary())

print("\n== K+ deformations are cross terms of the cone metric ==")
heis = gallery.build("heisenberg_sasakian")
hpts = heis["chart"].sample(seed=22, count=8)
alpha = 0.3 * F.basis_form(heis["chart"], 2)
_, rep = D.cross_term_metric_forward(heis["gacs"], alpha, hpts)
print(rep.summary())

print("\n== the deformed pair is generalized Kaehler on the cone ==")
print(D.cone_kahler_pair_check(heis["gacs"], 0.2 * F.basis_form(heis["chart"], 2), hpts[:5]).summary())

print("\n== f-Sasakian check (alpha = beta = 0 reduces to the metric verdict) ==")
k = gallery.build("kahler_interval")
zk = 0 * F.basis_form(k["chart"], 2)
print(D.f_sasakian_check(k["gacs"], zk, zk, k["chart"].sample(seed=23, count=4)).summary())
