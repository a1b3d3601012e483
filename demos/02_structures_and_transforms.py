"""Generalized almost contact structures: constructors, axioms, B-transforms.

Run:  python demos/02_structures_and_transforms.py
"""

import numpy as np

from gencontact import fields as F
from gencontact import gallery
from gencontact import structures as S

print("== lifting a classical almost contact metric structure ==")
heis = gallery.build("heisenberg_sasakian")
pts = heis["chart"].sample(seed=5, count=40)
print(S.acms_check(heis["acs"], pts).summary())

s = heis["gacs"]
print("\n== defining axioms for the lift ==")
print(S.gacs_check(s, pts).summary())
print(S.phi_kernel_check(s, pts).summary())

print("\n== the contact lift on the Darboux chart ==")
darboux = gallery.build("darboux")
print("Reeb field components:", np.round(darboux["gacs"].Eminus.values(pts[0]), 8))
print(S.gacs_check(darboux["gacs"], darboux["chart"].sample(seed=5, count=40)).summary())

print("\n== B-field transforms stay inside the axioms for any smooth B ==")
ch = s.chart
wild = F.wedge11(F.coordinate(ch, 2) * F.basis_form(ch, 0), F.basis_form(ch, 1))
moved = S.b_transform(s, wild)
print(S.gacs_check(moved, pts).summary())

print("\n== metric structures and the compatibility identity ==")
print(S.gacm_check(heis["gacs"], pts).summary())

print("\n== eigenframes and involutivity ==")
frame = S.eigenframe(s)
print(f"E^(1,0) frame fields: {len(frame.e10)} (pivot columns {frame.pivots})")
label, rep = S.involutivity_class(s, pts[:10])
print(f"Heisenberg classification: {label}")
label_d, rep_d = S.involutivity_class(darboux["gacs"], darboux["chart"].sample(seed=5, count=10))
print(f"Darboux contact lift classification: {label_d}")
print(rep_d.summary())
