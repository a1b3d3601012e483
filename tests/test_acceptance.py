"""Acceptance suite: one test per criterion, each printing a verdict line.

Tolerances are pinned here and nowhere else; sample counts keep the whole
suite at desk scale.
"""

import json

import numpy as np

from gencontact import cone as C
from gencontact import deformations as D
from gencontact import fields as F
from gencontact import gallery
from gencontact import integrability as I
from gencontact import structures as S
from gencontact.cli import main
from gencontact.exprs import parse_scalar
from oracles import jac, l_plus

GALLERY = {name: gallery.build(name) for name in gallery.names()}
POINTS = {name: GALLERY[name]["chart"].sample(seed=2024, count=100)
          for name in gallery.names()}
INT_NAMES = ("darboux", "heisenberg_sasakian", "kahler_interval")


def verdict(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_axiom_suite():
    """Every gallery structure passes its axiom checks below 1e-8."""
    worst = 0.0
    for name, products in GALLERY.items():
        pts = POINTS[name]
        if "acs" in products:
            worst = max(worst, S.acms_check(products["acs"], pts).max_residual)
        if "acs_pair" in products:
            for acs in products["acs_pair"]:
                worst = max(worst, S.acms_check(acs, pts).max_residual)
        if "gacs" in products:
            worst = max(worst, S.gacs_check(products["gacs"], pts).max_residual)
            worst = max(
                worst, D.fgacs_check(products["gacs"], pts).max_residual
            )
            if products["gacs"].metric is not None:
                worst = max(worst, S.gacm_check(products["gacs"], pts).max_residual)
    verdict(1, worst < 1e-8, f"gallery axiom residual {worst:.3e} < 1e-8")


def test_criterion_02_phi_kernel_universality():
    """|Phi E+-| < 1e-8 on the gallery plus 50 random B/K descendants."""
    rng = np.random.default_rng(515)
    worst = 0.0
    cases = 0
    for name in INT_NAMES:
        s = GALLERY[name]["gacs"]
        ch = s.chart
        pts = ch.sample(seed=88, count=20)
        worst = max(worst, S.phi_kernel_check(s, pts).max_residual)

        def poly(coefs):
            x, y, z = (F.coordinate(ch, i) for i in range(3))
            return (
                F.constant(ch, coefs[0]) + coefs[1] * x + coefs[2] * y + coefs[3] * z
            )

        for _ in range(13):
            c = rng.normal(size=(3, 4))
            b = F.wedge11(
                poly(c[0]) * F.basis_form(ch, 0) + poly(c[1]) * F.basis_form(ch, 2),
                F.basis_form(ch, 1),
            )
            moved = S.b_transform(s, b)
            worst = max(worst, S.phi_kernel_check(moved, pts[:8]).max_residual)
            cases += 1
        # K descendants with f kept at zero (kappa paired away from E-+)
        for _ in range(4):
            c = rng.normal(size=(2, 4))
            kappa = poly(c[0]) * F.basis_form(ch, 0) + poly(c[1]) * F.basis_form(ch, 1)
            for k, fixed in ((D.k_minus, s.Eminus), (D.k_plus, s.Eplus)):
                out = k(s, kappa)
                fvals = max(abs(complex(out.f.values(p))) for p in pts[:4])
                if fvals < 1e-10:
                    worst = max(worst, S.phi_kernel_check(out, pts[:8]).max_residual)
                    cases += 1
    verdict(2, worst < 1e-8 and cases >= 50, f"{cases + 3} structures, max |Phi E| {worst:.3e}")


def test_criterion_03_courant_b_field_dichotomy():
    """Courant naturality of e^B holds iff dB = 0.

    Note: x dx^dy is closed on a chart (its exterior derivative is
    dx^dx^dy = 0), so the failing witness uses the z coefficient; the
    stated closed half is exercised with x dx^dy itself.
    """
    ch = GALLERY["darboux"]["chart"]
    pts = ch.sample(seed=99, count=20)
    x, z = F.coordinate(ch, 0), F.coordinate(ch, 2)

    def sec(vec, form):
        return F.section(
            vec=F.vector_field(ch, [parse_scalar(e, ch) for e in vec]),
            form=F.one_form(ch, [parse_scalar(e, ch) for e in form]),
        )

    a = sec(["x*y", "sin(z)", "1"], ["z", "x^2", "y"])
    b = sec(["exp(y)", "x", "z*z"], ["1", "x*y", "sin(x)"])

    def naturality(bfield):
        eb = F.b_endo(bfield)
        lhs = F.courant(eb.apply(a), eb.apply(b))
        rhs = eb.apply(F.courant(a, b))
        return max(float(np.abs(lhs.values(p) - rhs.values(p)).max()) for p in pts)

    closed = naturality(F.wedge11(x * F.basis_form(ch, 0), F.basis_form(ch, 1)))
    broken = naturality(F.wedge11(z * F.basis_form(ch, 0), F.basis_form(ch, 1)))
    ok = closed < 1e-8 and broken > 1e-3
    verdict(3, ok, f"closed B residual {closed:.3e}, non-closed witness {broken:.3e}")


def test_criterion_04_cone_algebra():
    worst_alg = 0.0
    worst_rt = 0.0
    for name in INT_NAMES:
        products = GALLERY[name]
        s = products["gacs"]
        cpts = C.cone_points(s.chart.sample(seed=61, count=12))
        j = C.i_prime(s)
        worst_alg = max(worst_alg, C.gacx_check(j, cpts).max_residual)
        out = C.cone_decompose(j)
        for p in s.chart.sample(seed=62, count=8):
            worst_rt = max(
                worst_rt,
                float(np.abs(out.Phi.values(p) - s.Phi.values(p)).max()),
                float(np.abs(out.Eplus.values(p) - s.Eplus.values(p)).max()),
                float(np.abs(out.Eminus.values(p) - s.Eminus.values(p)).max()),
            )
    ok = worst_alg < 1e-9 and worst_rt < 1e-10
    verdict(4, ok, f"cone algebra {worst_alg:.3e} < 1e-9, round trip {worst_rt:.3e} < 1e-10")


def test_criterion_05_two_route_agreement():
    worst = 0.0
    for name in INT_NAMES:
        products = GALLERY[name]
        s = products["gacs"]
        pts = s.chart.sample(seed=71, count=8)
        rep = I.cone_crosscheck(s, pts)
        for row in ("id1", "id2", "id3", "id4", "two_route_agreement"):
            worst = max(worst, rep[f"crosscheck.{row}"].max_residual)
    verdict(5, worst < 1e-7, f"identity and route agreement residual {worst:.3e} < 1e-7")


def test_criterion_06_flagship_kahler_interval():
    products = GALLERY["kahler_interval"]
    pts = products["chart"].sample(seed=81, count=8)
    gs = I.generalized_sasakian_check(products["gacs"], pts)
    p = np.array([0.4, -0.2, np.pi / 4])
    crit = min(
        float(np.abs((acs.theta - F.d(acs.eta)).values(p)).max())
        for acs in products["acs_pair"]
    )
    ok = gs.passed and gs.max_residual < 1e-7 and crit >= 0.9
    verdict(
        6,
        ok,
        f"generalized Sasakian residual {gs.max_residual:.3e} < 1e-7, "
        f"classical criterion {crit:.6f} >= 0.9 at z = pi/4",
    )


def test_criterion_07_vaisman_conditions():
    heis = GALLERY["heisenberg_sasakian"]
    pts_h = heis["chart"].sample(seed=91, count=30)
    rep_h = I.vaisman_conditions(heis["acs"], heis["acs"], pts_h)
    kahler = GALLERY["kahler_interval"]
    pts_k = kahler["chart"].sample(seed=92, count=30)
    rep_k = I.vaisman_conditions(*kahler["acs_pair"], pts_k)
    acs = heis["acs"]
    detuned = S.AlmostContactMetric(acs.chart, acs.phi, acs.xi, 2 * acs.eta, acs.g)
    rep_d = I.vaisman_conditions(acs, detuned, pts_h[:8])
    viol = rep_d["vaisman.criterion_defect_minus"].max_residual
    ok = rep_h.max_residual < 1e-8 and rep_k.max_residual < 1e-8 and viol > 1e-2
    verdict(
        7,
        ok,
        f"pairs residual {max(rep_h.max_residual, rep_k.max_residual):.3e} < 1e-8, "
        f"detuned criterion-defect violation {viol:.3e} > 1e-2",
    )


def test_criterion_08_k_algebra():
    ch = GALLERY["darboux"]["chart"]
    pts = ch.sample(seed=111, count=10)
    s0 = GALLERY["darboux"]["gacs"]
    rng = np.random.default_rng(7)

    def rand_form():
        coefs = rng.normal(size=(3, 2))
        combs = []
        for i in range(3):
            combs.append(
                F.constant(ch, coefs[i][0]) + coefs[i][1] * F.coordinate(ch, (i + 1) % 3)
            )
        return F.one_form(ch, combs)

    add = 0.0
    for _ in range(3):
        a, b = rand_form(), rand_form()
        add = max(add, D.fgacs_deviation(D.k_minus(D.k_minus(s0, a), b), D.k_minus(s0, a + b), pts))
        add = max(add, D.fgacs_deviation(D.k_plus(D.k_plus(s0, a), b), D.k_plus(s0, a + b), pts))
    bcom = D.b_commute_check(
        s0, rand_form(), F.wedge11(F.basis_form(ch, 0), F.basis_form(ch, 1)), pts
    ).max_residual
    a, b = rand_form(), rand_form()
    mixed = D.fgacs_deviation(D.k_plus(D.k_minus(s0, b), a), D.k_minus(D.k_plus(s0, a), b), pts)
    deformed = D.k_minus(s0, F.basis_form(ch, 2))
    gacs, _, _ = D.normalize(deformed, pts)
    fres = S.gacs_check(gacs, pts).max_residual
    ok = add < 1e-10 and bcom < 1e-10 and mixed > 1e-3 and fres < 1e-9
    verdict(
        8,
        ok,
        f"additivity {add:.2e} < 1e-10, B-commutation {bcom:.2e} < 1e-10, "
        f"mixed orders differ by {mixed:.2e} > 1e-3, normalization residual {fres:.2e} < 1e-9",
    )


def test_criterion_09_cross_term_metric_and_cone_pair():
    heis = GALLERY["heisenberg_sasakian"]
    ch = heis["chart"]
    pts = ch.sample(seed=121, count=8)
    alpha = 0.3 * F.basis_form(ch, 2)
    s, rep = D.cross_term_metric_forward(heis["gacs"], alpha, pts)
    fwd = rep.max_residual
    bad = D.cross_term_metric_check(
        D.k_plus(heis["gacs"], alpha + 0.1 * F.basis_form(ch, 0)),
        heis["gacs"].metric.g,
        alpha,
        pts[:5],
    )["cross_term.compatibility"].max_residual
    rep511 = D.cone_kahler_pair_check(heis["gacs"], 0.2 * F.basis_form(ch, 2), pts[:5])
    comm = rep511["cone_pair.commutator"].max_residual
    pos_ok = rep511["cone_pair.positivity"].max_residual == 0.0
    ok = fwd < 1e-8 and bad > 1e-3 and comm < 1e-9 and pos_ok
    verdict(
        9,
        ok,
        f"forward residual {fwd:.3e} < 1e-8, perturbed {bad:.3e} > 1e-3, "
        f"commutator {comm:.3e} < 1e-9, positivity probes all positive",
    )


def test_criterion_10_calculus_bedrock():
    ch = GALLERY["darboux"]["chart"]
    pts = ch.sample(seed=131, count=100)
    fd = max(
        F.jet_validate(parse_scalar(e, ch), pts[0])
        for e in ("x^2*y", "sin(2*z)", "exp(x)*log(2+y)")
    )
    omega = F.one_form(ch, [parse_scalar(e, ch) for e in ("x*y*z", "sin(y)+x^2", "exp(x)*z")])
    u = F.vector_field(ch, [parse_scalar(e, ch) for e in ("y*z", "x^2", "sin(y)")])
    dd = max(float(np.abs(F.d(F.d(omega)).values(p)).max()) for p in pts)
    cart = max(
        float(
            np.abs(
                F.d(F.lie_derivative(u, omega)).values(p)
                - F.lie_derivative(u, F.d(omega)).values(p)
            ).max()
        )
        for p in pts
    )
    # Nij / Jac co-vanishing on the involutive Heisenberg frames
    heis = GALLERY["heisenberg_sasakian"]
    frame = S.eigenframe(heis["gacs"])
    members = list(l_plus(frame))
    hpts = heis["chart"].sample(seed=132, count=10)
    nij_max, _ = S.max_nij_over_frame(members, hpts)
    jac_max = 0.0
    jacobiator = jac(members[0], members[1], members[2])
    for p in hpts:
        jac_max = max(jac_max, float(np.abs(jacobiator.values(p)).max()))
    ok = fd < 1e-6 and dd < 1e-10 and cart < 1e-10 and nij_max < 1e-9 and jac_max < 1e-9
    verdict(
        10,
        ok,
        f"fd {fd:.2e} < 1e-6, d^2 {dd:.2e} and Cartan {cart:.2e} < 1e-10, "
        f"Nij {nij_max:.2e} / Jac {jac_max:.2e} < 1e-9",
    )


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "gallery": "heisenberg_sasakian",
                "checks": ["gacs", "gacm", "sasakian"],
                "seed": 4242,
                "samples": 12,
            }
        ),
        encoding="utf-8",
    )
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    rc1 = main(["verify", str(cfg), "--out", str(out1)])
    rc2 = main(["verify", str(cfg), "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = rc1 == 0 and rc2 == 0 and identical
    verdict(11, ok, "two runs with the same seed are byte-identical")
