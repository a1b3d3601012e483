"""The cone construction and the generalized Sasakian story.

The flagship computation: the warped Kaehler interval carries a
generalized almost contact metric structure whose two conjugated cone
structures are integrable, while neither classical structure passes the
pointwise Sasakian criterion.

Run:  python demos/03_cone_and_sasakian.py
"""

import numpy as np

from gencontact import cone as C
from gencontact import gallery
from gencontact import integrability as I

print("== cone lifts and the one-to-one correspondence ==")
heis = gallery.build("heisenberg_sasakian")
s = heis["gacs"]
j = C.i_prime(s)
cpts = C.cone_points(s.chart.sample(seed=9, count=10))
print(C.gacx_check(j, cpts).summary())
back = C.cone_decompose(j)
p = s.chart.sample(seed=10, count=1)[0]
roundtrip = np.abs(back.Phi.values(p) - s.Phi.values(p)).max()
print(f"decompose(cone(s)) deviation: {roundtrip:.3e}")

print("\n== conjugated-cone integrability: residual route vs direct brackets ==")
pts = s.chart.sample(seed=11, count=6)
print(I.conjugated_cone_residual(s, pts).summary())
print(I.cone_crosscheck(s, pts).summary())

print("\n== the Darboux contact lift is NOT normal: both routes agree on 1/8 ==")
darboux = gallery.build("darboux")
dpts = darboux["chart"].sample(seed=11, count=6)
print(I.conjugated_cone_residual(darboux["gacs"], dpts).summary())
print(I.cone_crosscheck(darboux["gacs"], dpts)["crosscheck.two_route_agreement"].max_residual)

print("\n== classical checks on the warped Kaehler interval ==")
k = gallery.build("kahler_interval")
kpts = k["chart"].sample(seed=12, count=10)
for tag, acs in zip("+-", k["acs_pair"]):
    nrm = I.normality_check(acs, kpts[:5]).max_residual
    sas = I.sasakian_criterion(acs, kpts).max_residual
    print(f"phi_{tag}: normality residual {nrm:.2e}, Sasakian criterion residual {sas:.3f}")
print("pair conditions:")
print(I.vaisman_conditions(*k["acs_pair"], kpts).summary())

print("\n== ... and yet the metric lift is generalized Sasakian ==")
print(I.generalized_sasakian_check(k["gacs"], kpts[:6]).summary())

print("\n== the criterion-vs-closure normalisation ==")
hck = gallery.build("heisenberg_cone_kahler")
hpts = hck["chart"].sample(seed=13, count=8)
sas = I.sasakian_criterion(hck["acs"], hpts).max_residual
gs = I.generalized_sasakian_check(hck["gacs"], hpts[:5])
print(f"cone-Kaehler Heisenberg: criterion residual {sas:.3f}, "
      f"generalized Sasakian max {gs.max_residual:.2e} (pass={gs.passed})")
sas1 = I.sasakian_criterion(heis["acs"], hpts).max_residual
gs1 = I.generalized_sasakian_check(heis["gacs"], hpts[:5])
print(f"theta = d eta Heisenberg:   criterion residual {sas1:.2e}, "
      f"generalized Sasakian max {gs1.max_residual:.3f} (pass={gs1.passed})")
