"""Involutivity, the conjugated-cone condition residuals, the cone
cross-check, normality, the pair conditions and the Sasakian criteria."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gencontact import cone as C
from gencontact import fields as F
from gencontact import gallery
from gencontact import integrability as I
from gencontact import structures as S
from gencontact.charts import ConeChart

DARBOUX = gallery.build("darboux")
HEIS = gallery.build("heisenberg_sasakian")
HEIS_CK = gallery.build("heisenberg_cone_kahler")
KAHLER = gallery.build("kahler_interval")


def pts(entry, n=6, seed=37):
    return entry["chart"].sample(seed=seed, count=n)


def test_plain_cone_heisenberg_strong():
    rep = I.plain_cone_check(HEIS["gacs"], pts(HEIS))
    assert rep.passed
    assert rep.max_residual < 1e-8


def test_plain_cone_darboux_verdicts_agree():
    rep = I.plain_cone_check(DARBOUX["gacs"], pts(DARBOUX))
    assert rep["plain_cone.verdict_agreement"].max_residual == 0.0
    # L+ fails, so the direct cone frame fails too
    assert rep["plain_cone.l_plus_nij"].max_residual > 1e-3
    assert rep["plain_cone.cone_frame_nij"].max_residual > 1e-3
    assert rep["plain_cone.e_plus_minus_bracket"].max_residual < 1e-10


def twisted_darboux():
    """Darboux twisted by the non-closed B = z dx ^ dy."""
    ch = DARBOUX["chart"]
    wild = F.wedge11(F.coordinate(ch, 2) * F.basis_form(ch, 0), F.basis_form(ch, 1))
    return S.b_transform(DARBOUX["gacs"], wild)


def test_plain_cone_perturbed_fails_both_routes():
    rep = I.plain_cone_check(twisted_darboux(), pts(DARBOUX, 4))
    assert rep["plain_cone.verdict_agreement"].max_residual == 0.0
    assert rep["plain_cone.l_minus_nij"].max_residual > 1e-3
    assert rep["plain_cone.cone_frame_nij"].max_residual > 1e-3


def test_conjugated_cone_rhs_vanishes_on_pure_e10_triples():
    """<E-, A> = 0 for frame members orthogonal to E+-, so the RHS drops."""
    frame = S.eigenframe(KAHLER["gacm"].gacs)
    for p in pts(KAHLER, 4):
        em = frame.eminus.at(p)
        for a in frame.e10:
            val = F.pair_jets(em, a.at(p)).value
            assert abs(val) < 1e-12


def test_rcone_condition_gallery_values():
    assert I.conjugated_cone_residual(HEIS["gacs"], pts(HEIS)).max_residual < 1e-7
    assert I.conjugated_cone_residual(KAHLER["gacm"].gacs, pts(KAHLER)).max_residual < 1e-7
    # Darboux's bivector lift is not normal; with the frame normalisation
    # (members are halves of e1 - i dy etc.) the residual per triple is
    # |Nij - RHS| = |(-1/2) - (-1)| / 4 = 1/8, straight from the brackets
    # [[A1, A2]] = -d/dz, [[A2, E+]] = -dx, [[E+, A1]] = -dy
    rep = I.conjugated_cone_residual(DARBOUX["gacs"], pts(DARBOUX))
    assert rep.max_residual == pytest.approx(0.125, abs=1e-9)


def test_crosscheck_identities_and_agreement():
    for entry in (DARBOUX, HEIS, KAHLER):
        s = entry.get("gacs") or entry["gacm"].gacs
        rep = I.cone_crosscheck(s, pts(entry, 5))
        for name in ("id1", "id2", "id3", "id4", "two_route_agreement"):
            assert rep[f"crosscheck.{name}"].max_residual < 1e-8, (entry, name)


def test_crosscheck_subframe_involutivity():
    rep = I.cone_crosscheck(HEIS["gacs"], pts(HEIS, 5))
    row = rep["crosscheck.subframe_nij"]
    assert row.tolerance is not None and row.passed


def test_crosscheck_computes_each_nij_once(monkeypatch):
    """One Nij_M table over the 5 base points and one Nij_C table over the
    5 x 3 cone points, each from one batched Courant bracket call, and
    nothing recomputed for the two-route or sub-frame rows."""
    calls = []
    original = F.courant_jets

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(F, "courant_jets", counting)
    s = gallery.heisenberg_sasakian()["gacs"]  # a fresh frame, with no table kept yet
    I.cone_crosscheck(s, pts(HEIS, 5))
    assert len(calls) == 2


def test_frame_checks_share_one_frame_and_one_table(monkeypatch):
    """involutivity, plain_cone and rcone_condition on one structure pivot its
    eigenframe once and bracket three tables: the frame's one table over
    e10 + (E+, E-), [[E+, E-]] and the cone frame."""
    calls = {"courant_jets": 0, "pivoted_frame": 0}
    for module, name in ((F, "courant_jets"), (S, "pivoted_frame")):
        def counting(*args, _original=getattr(module, name), _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    s = gallery.darboux()["gacs"]  # a fresh structure, with no frame built yet
    sample = pts(DARBOUX, 5)
    S.involutivity_class(s, sample)
    I.plain_cone_check(s, sample)
    I.conjugated_cone_residual(s, sample)
    assert calls == {"courant_jets": 3, "pivoted_frame": 1}


def shared_l_tables_exact(frame, points) -> bool:
    """The L+ and L- tables read from the frame's shared table equal
    frame_nij of l_plus and l_minus bit for bit."""
    n = frame.eplus.chart.dim
    for shared, members in zip(frame.l_nij(points), (frame.l_plus, frame.l_minus)):
        alone = S.frame_nij([m.jet(points, 1) for m in members], n)
        if shared.keys() != alone.keys():
            return False
        if not all(np.array_equal(shared[tri], alone[tri]) for tri in alone):
            return False
    return True


def frame_nij_gap(members, points) -> float:
    """Assert frame_nij equals the per-triple nij_jets loop to 1e-13 of the
    table's largest entry at every point; return that largest entry."""
    n = members[0].chart.dim
    largest = 0.0
    for p in points:
        jets = [m.at(p) for m in members]
        table = S.frame_nij(jets, n)
        ref = {
            (i, j, k): complex(F.nij_jets(jets[i], jets[j], jets[k], n).value)
            for i, j, k in combinations(range(len(jets)), 3)
        }
        assert table.keys() == ref.keys()
        scale = max(abs(v) for v in ref.values())
        for tri, v in ref.items():
            assert abs(table[tri] - v) <= 1e-13 * scale, (tri, table[tri], v)
        largest = max(largest, scale)
    return largest


def test_frame_nij_matches_the_per_triple_loop():
    darboux = S.eigenframe(DARBOUX["gacs"])
    assert frame_nij_gap(darboux.l_plus, pts(DARBOUX, 4)) > 0.1
    twisted = S.eigenframe(twisted_darboux())
    assert frame_nij_gap(twisted.l_minus, pts(DARBOUX, 4)) > 0.1
    for entry, nonzero in ((HEIS, False), (DARBOUX, True)):
        s = entry["gacs"]
        frame = S.eigenframe(s)
        members = C.cone_plus_frame(ConeChart.over(s.chart), frame.e10, s.Eplus,
                                    s.Eminus, conjugated=False)
        assert (frame_nij_gap(members, C.cone_points(pts(entry, 2))) > 0.1) == nonzero
    d3 = gallery.darboux(3)
    sample = d3["chart"].sample(seed=5, count=2)
    assert frame_nij_gap(S.eigenframe(d3["gacs"]).l_plus, sample) > 0.1
    assert all(shared_l_tables_exact(s.frame, s.chart.sample(seed=7, count=4)) for s in (
        DARBOUX["gacs"], HEIS["gacs"], HEIS_CK["gacm"].gacs, KAHLER["gacm"].gacs,
        twisted_darboux(), d3["gacs"]))


def _monomial(chart, a, b):
    one = F.constant(chart, 1)
    return (one if a < 0 else F.coordinate(chart, a)) * (one if b < 0 else F.coordinate(chart, b))


@st.composite
def perturbed_darboux(draw):
    """dz - sum y_i dx_i plus a few random monomials of degree <= 2 per slot."""
    k = draw(st.sampled_from([1, 2]))
    n = 2 * k + 1
    eta = gallery.darboux_eta(k)
    ch = eta.chart
    comps = [F.ScalarField(ch, lambda p, o, c=c: eta.at(p, o)[c]) for c in range(n)]
    terms = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(-1, n - 1), st.integers(-1, n - 1),
                  st.floats(-0.3, 0.3)),
        min_size=1, max_size=4))
    for c, a, b, coef in terms:
        comps[c] = comps[c] + coef * _monomial(ch, a, b)
    return F.one_form(ch, comps), draw(st.integers(0, 2**16))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(perturbed_darboux())
def test_frame_nij_matches_the_per_triple_loop_on_generated_forms(case):
    eta, seed = case
    sample = eta.chart.sample(seed=seed, count=2)
    try:
        s = S.gacs_from_contact(eta, check_points=sample)
        frame = S.eigenframe(s, sample_points=sample)
    except ValueError:
        assume(False)
    frame_nij_gap(frame.l_plus, sample)
    frame_nij_gap(frame.l_minus, sample)
    assert shared_l_tables_exact(frame, sample)


def test_crosscheck_verdict_ignores_the_rcone_condition():
    """On darboux the R-cone condition fails (residual 1/8) but the proof
    identities hold, so cone_crosscheck passes: its sub-frame row is ungated."""
    rep = I.cone_crosscheck(DARBOUX["gacs"], pts(DARBOUX, 5))
    assert "rcone_condition.residual" not in [r.name for r in rep.rows]
    assert rep["crosscheck.subframe_nij"].tolerance is None
    assert rep.passed


def test_generalized_sasakian_computes_each_nij_once(monkeypatch):
    """Per branch, the rcone_condition row comes from the Nij_M tables of the
    crosscheck, so no separate conjugated_cone_residual pass recomputes them:
    two branches of one Nij_M and one Nij_C table, one bracket call each."""
    calls = []
    original = F.courant_jets

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(F, "courant_jets", counting)
    m = gallery.heisenberg_sasakian()["gacm"]  # fresh frames, with no table kept yet
    rep = I.generalized_sasakian_check(m, pts(HEIS, 5))
    assert len(calls) == 2 * 2
    assert [r.name for r in rep.rows[:2]] == [
        "gsas.phi.rcone_condition.residual", "gsas.phi.crosscheck.id1"]


def bumped_heisenberg(bump=None):
    """The Heisenberg structure with phi perturbed by bump (default 0.1 dx (x) d/dy)."""
    ch = HEIS["chart"]
    if bump is None:
        bump = F.matrix_field(
            ch,
            [[F.constant(ch, 0)] * 3,
             [F.constant(ch, 0.1), F.constant(ch, 0), F.constant(ch, 0)],
             [F.constant(ch, 0)] * 3],
        )
    acs = HEIS["acs"]
    return S.AlmostContactMetric(ch, acs.phi + bump, acs.xi, acs.eta, acs.g)


def test_normality():
    assert I.normality_check(HEIS["acs"], pts(HEIS)).passed
    for acs in KAHLER["acs_pair"]:
        assert I.normality_check(acs, pts(KAHLER, 4)).passed
    # perturbing phi by 0.1 dx (x) d/dy destroys normality
    rep = I.normality_check(bumped_heisenberg(), pts(HEIS, 4))
    assert rep.max_residual > 1e-3


def per_pair_normality(acs, points):
    """N(e_a, e_b) from one Lie-bracket field per bracket, coordinate pair and point."""
    cone = ConeChart.over(acs.chart)
    imat = I.classical_cone_i(acs, cone)
    coords = [F.basis_vector(cone, i) for i in range(cone.dim)]
    icoords = [imat.apply(v) for v in coords]
    out = []
    for cp in C.cone_points(points, I.DEFAULT_TS):
        worst = 0.0
        for a, b in combinations(range(cone.dim), 2):
            t1 = F.lie_bracket(icoords[a], icoords[b]).at(cp)
            t2 = imat.at(cp)
            br_ab = F.lie_bracket(icoords[a], coords[b]).at(cp)
            br_ba = F.lie_bracket(coords[a], icoords[b]).at(cp)
            val = t1.value - t2.value @ br_ab.value - t2.value @ br_ba.value
            worst = max(worst, float(np.abs(val).max()))
        out.append(worst)
    return out


@st.composite
def phi_bumps(draw):
    """A few random monomials of degree <= 2 added to random entries of phi."""
    ch = HEIS["chart"]
    comps = [[F.constant(ch, 0) for _ in range(3)] for _ in range(3)]
    terms = draw(st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-1, 2),
                  st.integers(-1, 2), st.floats(-0.5, 0.5)),
        min_size=1, max_size=4))
    for r, c, a, b, coef in terms:
        comps[r][c] = comps[r][c] + coef * _monomial(ch, a, b)
    return F.matrix_field(ch, comps)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(phi_bumps())
@example(None)
def test_normality_matches_per_pair_brackets(bump):
    """One jet of I per cone point gives the per-pair Lie-bracket loop's
    residuals exactly; None is test_normality's 0.1 dx (x) d/dy bump."""
    acs = bumped_heisenberg(bump)
    sample = pts(HEIS, 3)
    vals, cpts = I.normality_residual(acs, sample)
    assert len(cpts) == 3 * len(sample)
    assert vals == per_pair_normality(acs, sample)
    if bump is None:
        assert max(vals) > 1e-3


def test_normality_reads_one_jet_per_cone_point(monkeypatch):
    """No bracket field per coordinate pair: a per-pair Lie-bracket loop builds
    3 per pair and cone point, 216 for 4 base points of a 3-dim chart."""
    built = []
    original = F.Field.__init__

    def counting(self, *args):
        built.append(type(self).__name__)
        original(self, *args)

    monkeypatch.setattr(F.Field, "__init__", counting)
    assert I.normality_check(KAHLER["acs_pair"][0], pts(KAHLER, 4)).passed
    assert len(built) <= 20


def test_normality_sign_flip_invariance():
    for acs in KAHLER["acs_pair"]:
        flipped = acs.flipped()
        a = I.normality_check(acs, pts(KAHLER, 3)).max_residual
        b = I.normality_check(flipped, pts(KAHLER, 3)).max_residual
        assert (a < 1e-8) == (b < 1e-8)


def test_sasakian_criterion():
    assert I.sasakian_criterion(HEIS["acs"], pts(HEIS)).max_residual < 1e-9
    # the warped interval: theta = sin(2z) omega', d eta = 0
    p = np.array([0.2, -0.3, np.pi / 4])
    acs = KAHLER["acs_pair"][0]
    diff = acs.theta - F.d(acs.eta)
    assert np.abs(diff.values(p)).max() == pytest.approx(1.0, abs=1e-12)
    assert I.sasakian_criterion(acs, pts(KAHLER)).max_residual > 0.5


def test_vaisman_conditions_pairs():
    rep = I.vaisman_conditions(HEIS["acs"], HEIS["acs"], pts(HEIS))
    assert rep.passed and rep.max_residual < 1e-8
    plus, minus = KAHLER["acs_pair"]
    rep2 = I.vaisman_conditions(plus, minus, pts(KAHLER))
    assert rep2.passed and rep2.max_residual < 1e-8


def test_vaisman_detuned_pair_violates_criterion_defect():
    ch = HEIS["chart"]
    acs = HEIS["acs"]
    detuned = S.AlmostContactMetric(ch, acs.phi, acs.xi, 2 * acs.eta, acs.g)
    rep = I.vaisman_conditions(acs, detuned, pts(HEIS, 4))
    assert rep["vaisman.criterion_defect_minus"].max_residual > 1e-2


def test_vaisman_requires_metric():
    bare = S.AlmostContactMetric(HEIS["chart"], HEIS["acs"].phi, HEIS["acs"].xi,
                                 HEIS["acs"].eta, None)
    with pytest.raises(ValueError, match="metric"):
        I.vaisman_conditions(bare, bare, pts(HEIS, 2))


def test_generalized_sasakian_kahler_interval():
    rep = I.generalized_sasakian_check(KAHLER["gacm"], pts(KAHLER, 5))
    assert rep.passed and rep.max_residual < 1e-7


def test_generalized_sasakian_cone_kahler_heisenberg():
    """The metric lift of a cone-Kaehler Sasakian structure passes both branches."""
    rep = I.generalized_sasakian_check(HEIS_CK["gacm"], pts(HEIS_CK, 5))
    assert rep.passed and rep.max_residual < 1e-7


def test_generalized_sasakian_needs_cone_kahler_normalisation():
    """With theta = d eta (determinant convention) the companion branch fails:
    closure of the cone 2-form needs 2 theta = d eta."""
    rep = I.generalized_sasakian_check(HEIS["gacm"], pts(HEIS, 4))
    assert rep["gsas.phi.rcone_condition.residual"].max_residual < 1e-8
    assert rep["gsas.gphi.rcone_condition.residual"].max_residual > 1e-2
    # the proof identities hold regardless: only the verdict differs
    assert rep["gsas.gphi.crosscheck.two_route_agreement"].max_residual < 1e-8


def test_generalized_sasakian_detuned_metric_fails():
    """Replacing the sin(2z) metric factor by 1 breaks the compatibility."""
    import gencontact.jets as JT

    ch = KAHLER["chart"]
    zero, one = F.constant(ch, 0), F.constant(ch, 1)
    z = F.coordinate(ch, 2)
    c2z = F.ScalarField(ch, lambda p, o: JT.cos(2 * z.at(p, o)))
    g1 = F.matrix_field(ch, [[one, zero, zero], [zero, one, zero], [zero, zero, one]])
    omega_prime = F.wedge11(F.basis_form(ch, 0), F.basis_form(ch, 1))
    metric = S.gmetric_from_gb(g1, -1 * (c2z * omega_prime))
    detuned = S.Gacm(KAHLER["gacm"].gacs, metric)
    assert not S.gacm_check(detuned, pts(KAHLER, 4)).passed
    rep = I.generalized_sasakian_check(detuned, pts(KAHLER, 3))
    assert rep.max_residual > 1e-3


def test_residuals_invariant_under_pivot_shuffle():
    """Verdicts do not depend on which independent columns the frame keeps."""
    for entry in (DARBOUX, HEIS):
        s = entry["gacs"]
        base = s.chart.sample(seed=0, count=1)[0]
        candidates = S.eigen_candidates(
            s.Phi, [S._project_out_kernel(s, u) for u in F.coordinate_sections(s.chart)])
        mat = np.stack([c.values(base) for c in candidates], axis=1)
        default = S._pivot_columns(mat, 2)
        shuffled = S._pivot_columns(mat[:, ::-1], 2)
        alt_cols = sorted(len(candidates) - 1 - c for c in shuffled)
        assert alt_cols != default  # genuinely different column choice
        sample = pts(entry, 4)
        verdicts = []
        for cols in (default, alt_cols):
            pinned = S.Gacs(s.chart, s.Phi, s.Eplus, s.Eminus)
            # the checks read the structure's frame: pin it to these columns
            vars(pinned)["frame"] = S.EigenFrame(
                e10=tuple(candidates[i] for i in cols),
                eplus=s.Eplus,
                eminus=s.Eminus,
                pivots=tuple(cols),
            )
            res = I.conjugated_cone_residual(pinned, sample).max_residual
            verdicts.append(res < 1e-7)
            label, _ = S.involutivity_class(pinned, sample)
            verdicts.append(label)
        assert verdicts[0] == verdicts[2] and verdicts[1] == verdicts[3]


def test_five_dimensional_darboux_full_stack():
    """dim 5 exercises the identity on pure eigenframe triples (id1), which
    needs at least three frame members and so never fires on 3-charts."""
    from gencontact import cone as C
    from gencontact import gallery as G

    d2 = G.darboux(2)
    ch = d2["chart"]
    sample = ch.sample(seed=3, count=3)
    assert S.gacs_check(d2["gacs"], sample).passed
    frame = S.eigenframe(d2["gacs"], sample_points=sample)
    assert len(frame.e10) == 4  # (2n - 2)/2 with n = 5
    label, _ = S.involutivity_class(d2["gacs"], sample)
    assert label == "contact(-)"
    out = C.cone_decompose(C.cone_gacx(d2["gacs"]))
    assert np.abs(out.Phi.values(sample[0]) - d2["gacs"].Phi.values(sample[0])).max() < 1e-10
    rep = I.cone_crosscheck(d2["gacs"], sample, ts=(-0.4, 0.3))
    assert rep["crosscheck.id1"].max_residual < 1e-8
    assert rep["crosscheck.two_route_agreement"].max_residual < 1e-8
