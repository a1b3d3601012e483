"""Involutivity, the conjugated-cone condition residuals, the cone
cross-check, normality, the pair conditions and the Sasakian criteria."""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gencontact import cone as C
from gencontact import fields as F
from gencontact import gallery
from gencontact import gta
from gencontact import integrability as I
from gencontact import jets as J
from gencontact import structures as S
from gencontact.charts import ConeChart
from gencontact.report import stack_values

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
    frame = S.eigenframe(KAHLER["gacs"])
    for p in pts(KAHLER, 4):
        em = frame.eminus.at(p)
        for a in frame.e10:
            val = F.pair_jets(em, a.at(p)).value
            assert abs(val) < 1e-12


def test_rcone_condition_gallery_values():
    assert I.conjugated_cone_residual(HEIS["gacs"], pts(HEIS)).max_residual < 1e-7
    assert I.conjugated_cone_residual(KAHLER["gacs"], pts(KAHLER)).max_residual < 1e-7
    # Darboux's bivector lift is not normal; with the frame normalisation
    # (members are halves of e1 - i dy etc.) the residual per triple is
    # |Nij - RHS| = |(-1/2) - (-1)| / 4 = 1/8, straight from the brackets
    # [[A1, A2]] = -d/dz, [[A2, E+]] = -dx, [[E+, A1]] = -dy
    rep = I.conjugated_cone_residual(DARBOUX["gacs"], pts(DARBOUX))
    assert rep.max_residual == pytest.approx(0.125, abs=1e-9)


def test_crosscheck_identities_and_agreement():
    for entry in (DARBOUX, HEIS, KAHLER):
        s = entry["gacs"]
        rep = I.cone_crosscheck(s, pts(entry, 5))
        for name in ("id1", "id2", "id3", "id4", "two_route_agreement"):
            assert rep[f"crosscheck.{name}"].max_residual < 1e-8, (entry, name)


def test_crosscheck_subframe_involutivity():
    rep = I.cone_crosscheck(HEIS["gacs"], pts(HEIS, 5))
    row = rep["crosscheck.subframe_nij"]
    assert row.tolerance is not None and row.passed


def record_brackets(monkeypatch) -> list:
    """Log every ``frame_nij`` table and every ``courant_jets`` call, in order.

    A table is logged as ``("table", m, pairs)``: ``pairs`` lists, per
    bracket call made inside it, the member pairs (p, q) that call brackets,
    found by matching its operands' member columns to the values of the
    table's m member jets (member axes broadcast as the call does).  A call
    outside any table is logged as ``("bracket", size)``, with its batch size.
    """
    log, inside = [], []
    nij, courant = S.frame_nij, F.courant_jets

    def members(jet, jets):
        return [next(r for r, j in enumerate(jets) if np.array_equal(jet.value[:, c], j.value))
                for c in range(jet.value.shape[1])]

    def recording_nij(jets, n):
        log.append(("table", len(jets), []))
        inside.append(jets)
        try:
            return nij(jets, n)
        finally:
            inside.pop()

    def recording_courant(ja, jb, n):
        if inside:
            left, right = np.broadcast_arrays(members(ja, inside[-1]), members(jb, inside[-1]))
            log[-1][2].append(list(zip(left.tolist(), right.tolist())))
        else:
            log.append(("bracket", int(np.prod(np.broadcast_shapes(ja.shape, jb.shape)[1:-1]))))
        return courant(ja, jb, n)

    monkeypatch.setattr(S, "frame_nij", recording_nij)
    monkeypatch.setattr(F, "courant_jets", recording_courant)
    return log


def bracket_sizes(log) -> list:
    """Per logged table the number of pairs it brackets, per outside call its
    batch size; asserts that each table brackets every pair p < q of its m
    members exactly once, in ``np.triu_indices`` order."""
    sizes = []
    for event in log:
        if event[0] == "bracket":
            sizes.append(event[1])
            continue
        _, m, calls = event
        triu = list(zip(*(a.tolist() for a in np.triu_indices(m, 1))))
        assert [pair for call in calls for pair in call] == triu, (m, calls)
        sizes.append(sum(len(call) for call in calls))
        assert sizes[-1] == m * (m - 1) // 2
    return sizes


def test_crosscheck_computes_each_nij_once(monkeypatch):
    """One Nij_M table over the 5 base points and one Nij_C table over the
    5 x 3 cone points, each one frame_nij call that brackets every member
    pair once, and nothing recomputed for the two-route or sub-frame rows."""
    log = record_brackets(monkeypatch)
    s = gallery.heisenberg_sasakian()["gacs"]  # a fresh frame, with no table kept yet
    I.cone_crosscheck(s, pts(HEIS, 5))
    assert [event[:2] for event in log] == [("table", 4), ("table", 4)]
    assert bracket_sizes(log) == [6, 6]


def test_frame_checks_share_one_frame_and_one_table(monkeypatch):
    """involutivity, plain_cone and rcone_condition on one structure pivot its
    eigenframe once and bracket two tables and one pair: the frame's one
    table over e10 + (E+, E-), [[E+, E-]] and the cone frame's table."""
    log = record_brackets(monkeypatch)
    pivots = []
    original = S.pivoted_frame

    def counting(*args):
        pivots.append(args)
        return original(*args)

    monkeypatch.setattr(S, "pivoted_frame", counting)
    s = gallery.darboux()["gacs"]  # a fresh structure, with no frame built yet
    sample = pts(DARBOUX, 5)
    S.involutivity_class(s, sample)
    I.plain_cone_check(s, sample)
    I.conjugated_cone_residual(s, sample)
    assert [event[0] for event in log] == ["table", "bracket", "table"]
    assert bracket_sizes(log) == [6, 1, 6]
    assert len(pivots) == 1


def test_eigenframe_is_one_projector_field(monkeypatch):
    """The 7-dim Darboux frame is one projector plus its six column views
    (196 fields as 14 candidate chains), pivoted from one projector value."""
    s = gallery.darboux(3)["gacs"]
    built, values = [], []
    init, read = F.Field.__init__, F.Field.values

    def counting_init(self, *args):
        built.append(type(self).__name__)
        init(self, *args)

    def counting_values(self, point):
        values.append(type(self).__name__)
        return read(self, point)

    monkeypatch.setattr(F.Field, "__init__", counting_init)
    monkeypatch.setattr(F.Field, "values", counting_values)
    frame = S.eigenframe(s)
    assert len(built) <= 10
    assert len(frame.e10) == 6
    assert values == ["GtEndoField"]


def shared_l_tables_exact(frame, points) -> bool:
    """The L+ and L- row masks of the frame's shared table equal frame_nij
    of l_plus and l_minus bit for bit."""
    n = frame.eplus.chart.dim
    table = frame.table.values(points)
    for rows, members in ((frame.plus_rows, frame.l_plus), (frame.minus_rows, frame.l_minus)):
        alone = S.frame_nij([m.jet(points, 1) for m in members], n)
        if table[rows].shape != alone.shape or not np.array_equal(table[rows], alone):
            return False
    return True


def nij_mismatches(table, ref, jets) -> list:
    """The entries where a Nijenhuis table and its reference differ by more than
    1e-13 of |value|^2 |grad| over the member jets, the size of a pairing of a
    bracket: the two sum different roundings of terms of that size."""
    scale = max(np.abs(j.value).max() for j in jets) ** 2 * max(np.abs(j.grad).max() for j in jets)
    return [t for t, v in enumerate(ref) if abs(table[t] - v) > 1e-13 * scale]


def frame_nij_gap(members, points) -> float:
    """Assert frame_nij equals the per-triple nij_jets loop at every point, up to
    ``nij_mismatches``; return the table's largest entry."""
    n = members[0].chart.dim
    largest = 0.0
    for p in points:
        jets = [m.at(p) for m in members]
        table = S.frame_nij(jets, n)
        triples = list(combinations(range(len(jets)), 3))
        ref = [complex(F.nij_jets(jets[i], jets[j], jets[k], n).value) for i, j, k in triples]
        assert table.shape == (len(ref),)
        bad = nij_mismatches(table, ref, jets)
        assert not bad, [(triples[t], table[t], ref[t]) for t in bad]
        largest = max(largest, max(abs(v) for v in ref))
    return largest


def test_frame_nij_oracle_sees_a_1e10_error():
    """The operand-scaled bound still refuses a table off by 1e-10 in any entry,
    on an involutive frame (a table of rounding noise) and on a non-involutive one."""
    for entry in (HEIS, DARBOUX):
        s = entry["gacs"]
        members = C.cone_plus_frame(ConeChart.over(s.chart), S.eigenframe(s).e10, s.Eplus,
                                    s.Eminus, conjugated=False)
        jets = [m.at(p) for m in members for p in C.cone_points(pts(entry, 1))[:1]]
        table = S.frame_nij(jets, members[0].chart.dim)
        assert nij_mismatches(table, table, jets) == []
        for t in range(len(table)):
            assert nij_mismatches(table + 1e-10 * (np.arange(len(table)) == t), table, jets) == [t]


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
        DARBOUX["gacs"], HEIS["gacs"], HEIS_CK["gacs"], KAHLER["gacs"],
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


def ordered_pairs_nij(jets, n):
    """The reference table: every ordered pair (p, q) bracketed on an (m, m) grid,
    and each triple summed as P[i, j, k] + P[j, k, i] + P[k, i, j]."""
    m = len(jets)
    frame = J.stack(jets, axis=1)
    brackets = F.courant_jets(frame[:, :, None], frame[:, None, :], n).value
    P = 0.5 * np.einsum("ipq...,ir...->pqr...", gta.swap(brackets, 0), frame.value)
    i, j, k = np.array(list(combinations(range(m), 3))).T
    return (1.0 / 3.0) * ((P[i, j, k] + P[j, k, i]) + P[k, i, j])


def frame_structures():
    """The four gallery Gacs, the dual-gacm companions of those with a metric, darboux(3)."""
    out = []
    for name in gallery.names():
        entry = gallery.build(name)
        out.append(entry["gacs"])
        if entry["gacs"].metric is not None:
            out.append(S.dual_gacm(entry["gacs"]))
    return out + [gallery.darboux(3)["gacs"]]


def nij_frames(s, points):
    """(members, points, n) of a structure's frame and of its two cone frames."""
    cone = ConeChart.over(s.chart)
    cpts = C.cone_points(points)
    return [(s.frame.members, points, s.chart.dim)] + [
        (C.cone_plus_frame(cone, s.frame.e10, s.Eplus, s.Eminus, conjugated=conj), cpts, cone.dim)
        for conj in (True, False)]


def test_pair_table_equals_the_ordered_pairs_table_bit_for_bit():
    """Bracketing each unordered pair once and reading <[[A_k, A_i]], A_j> as
    -<[[A_i, A_k]], A_j> gives the all-ordered-pairs table bit for bit on
    every frame of the fixtures: their exact terms negate exactly."""
    for s in frame_structures():
        for members, points, n in nij_frames(s, s.chart.sample(seed=3, count=4)):
            jets = [m.jet(points, 1) for m in members]
            table, ref = S.frame_nij(jets, n), ordered_pairs_nij(jets, n)
            assert table.shape == ref.shape
            for t, v in enumerate(ref):
                assert table[t].tobytes() == v.tobytes(), (s, n, t)


def nij_rounding_form():
    """dz - y1 dx1 - y2 dx2 + x1 x2 dy1 / 4.  At its seed-1 sample points L- is
    involutive, so its Nij entries are rounding noise (|Nij| < 4e-18), and
    the two tables' noise differs in one entry, by 2.9e-19."""
    eta = gallery.darboux_eta(2)
    ch = eta.chart
    comps = [F.ScalarField(ch, lambda p, o, c=c: eta.at(p, o)[c]) for c in range(5)]
    comps[2] = comps[2] + 0.25 * _monomial(ch, 0, 1)
    return F.one_form(ch, comps)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(perturbed_darboux())
@example((nij_rounding_form(), 1))
def test_pair_table_matches_the_ordered_pairs_table_on_generated_forms(case):
    """On generic data the bracket's exact term negates only up to
    association, so an entry may move by a rounding of it: 1e-13 of
    |value|^2 |grad|, the size of a pairing of a bracket, bounds that."""
    eta, seed = case
    sample = eta.chart.sample(seed=seed, count=2)
    try:
        s = S.gacs_from_contact(eta, check_points=sample)
        frame = S.eigenframe(s, sample_points=sample)
    except ValueError:
        assume(False)
    jets = [m.jet(sample, 1) for m in frame.members]
    scale = max(np.abs(j.value).max() for j in jets) ** 2 * max(np.abs(j.grad).max() for j in jets)
    table, ref = S.frame_nij(jets, s.chart.dim), ordered_pairs_nij(jets, s.chart.dim)
    assert table.shape == ref.shape
    for t, v in enumerate(ref):
        assert np.abs(table[t] - v).max() <= 1e-13 * scale, (t, table[t], v)


def gathered_pairs_nij(jets, n):
    """The reference table: frame_nij with gathered pair stacks, the left and
    right members of the m(m-1)/2 pairs p < q copied into two stacks along
    one pair axis and bracketed in one courant_jets call."""
    m = len(jets)
    first, second = np.triu_indices(m, 1)
    left = J.stack([jets[p] for p in first], axis=1)
    right = J.stack([jets[q] for q in second], axis=1)
    brackets = F.courant_jets(left, right, n).value
    frame = np.stack([j.value for j in jets], axis=1)
    P = 0.5 * np.einsum("ip...,ir...->pr...", gta.swap(brackets, 0), frame)
    at = np.zeros((m, m), dtype=int)
    at[first, second] = np.arange(len(first))
    i, j, k = np.array(list(combinations(range(m), 3))).T
    return (1.0 / 3.0) * ((P[at[i, j], k] + P[at[j, k], i]) - P[at[i, k], j])


def prefix_tables_exact(members, points, n) -> set:
    """Assert frame_nij of the first m members equals the gathered-pairs table
    bit for bit, for every m >= 3; return the sizes m checked."""
    jets = [mb.jet(points, 1) for mb in members]
    for m in range(3, len(jets) + 1):
        table, ref = S.frame_nij(jets[:m], n), gathered_pairs_nij(jets[:m], n)
        assert table.shape == ref.shape and np.array_equal(table, ref), (n, m)
    return set(range(3, len(jets) + 1))


def test_row_block_table_equals_the_gathered_pairs_table_on_darboux_frames():
    """darboux(1)-darboux(4): base frames and both cone frames of 4 to 10
    members, so every table size m = 3...10 is checked."""
    sizes = set()
    for k in (1, 2, 3, 4):
        s = gallery.darboux(k)["gacs"]
        for members, points, n in nij_frames(s, s.chart.sample(seed=3, count=3)):
            sizes |= prefix_tables_exact(members, points, n)
    assert sizes == set(range(3, 11))


def test_row_block_table_equals_the_gathered_pairs_table_on_the_gallery():
    """The gallery Gacs, the duals of those with a metric and their cone frames, plain and
    R-conjugated."""
    for s in frame_structures():
        for members, points, n in nij_frames(s, s.chart.sample(seed=3, count=4)):
            prefix_tables_exact(members, points, n)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(perturbed_darboux())
@example((nij_rounding_form(), 1))
def test_row_block_table_equals_the_gathered_pairs_table_on_generated_forms(case):
    eta, seed = case
    sample = eta.chart.sample(seed=seed, count=2)
    try:
        s = S.gacs_from_contact(eta, check_points=sample)
        frame = S.eigenframe(s, sample_points=sample)
    except ValueError:
        assume(False)
    for members in (frame.members, frame.l_plus, frame.l_minus):
        prefix_tables_exact(members, sample, s.chart.dim)


def test_frame_nij_peak_stays_under_2mb(peak_bytes):
    """darboux(3)'s plain cone table, 8 members at 8 base points x DEFAULT_TS:
    the stacked frame is the only copy of the members (gathered pair stacks
    peaked at 3.75 MB here, row blocks of views at about 1 MB)."""
    s = gallery.darboux(3)["gacs"]
    cone = ConeChart.over(s.chart)
    members = C.cone_plus_frame(cone, s.frame.e10, s.Eplus, s.Eminus, conjugated=False)
    jets = [m.jet(C.cone_points(s.chart.sample(seed=5, count=8), C.DEFAULT_TS), 1)
            for m in members]
    table, peak = peak_bytes(S.frame_nij, jets, cone.dim)
    assert table.shape == (56, 24)
    assert peak <= 2 * 10**6, peak


@pytest.mark.parametrize("build, batches", [
    (gallery.darboux, [6, 1, 6]),  # 4 frame members and 4 cone members: 16 ordered pairs each
    (lambda: gallery.darboux(3), [28, 1, 28]),  # 8 and 8 members: 64 ordered pairs each
])
def test_frame_checks_bracket_each_pair_once(monkeypatch, build, batches):
    """involutivity, plain_cone and rcone_condition bracket the frame's
    m(m-1)/2 pairs in one frame_nij table, [[E+, E-]] in one call and the
    cone frame's pairs in one table, each pair p < q once, in triu order."""
    log = record_brackets(monkeypatch)
    s = build()["gacs"]  # a fresh structure, with no frame built yet
    sample = s.chart.sample(seed=5, count=5)
    S.involutivity_class(s, sample)
    I.plain_cone_check(s, sample)
    I.conjugated_cone_residual(s, sample)
    assert [event[0] for event in log] == ["table", "bracket", "table"]
    assert bracket_sizes(log) == batches


def triple_cone_rhs(vals, em):
    """The reference right-hand side: six pairing calls per triple (a, b, c)."""
    a, b, c = vals
    pm, pe = gta.pair_minus, gta.pair
    return 2j * (pe(em, a) * pm(b, c) + pe(em, b) * pm(c, a) + pe(em, c) * pm(a, b))


def test_cone_rhs_from_the_pairing_tables_equals_the_per_triple_formula():
    for s in frame_structures():
        points = s.chart.sample(seed=3, count=4)
        rhs = I._rcone_gaps(s.frame, points)[2]
        vals = [stack_values(m, points) for m in s.frame.members]
        triples = list(combinations(range(len(vals)), 3))
        assert rhs.shape == (len(triples), len(points))
        for t, tri in enumerate(triples):
            ref = triple_cone_rhs([vals[i] for i in tri], vals[-1])
            assert rhs[t].tobytes() == ref.tobytes(), (s, tri)


def test_rcone_gaps_pairs_each_member_pair_once(monkeypatch):
    """darboux(3): 8 members, so one minus pairing call over the 28 pairs and
    one pairing call of E- with the 8 members, each over the 3 points."""
    calls = {"pair": [], "pair_minus": []}
    for name in calls:
        def recording(a, b, _original=getattr(gta, name), _name=name):
            calls[_name].append(np.broadcast_shapes(np.shape(a), np.shape(b))[:-1])
            return _original(a, b)

        monkeypatch.setattr(gta, name, recording)
    s = gallery.darboux(3)["gacs"]
    I._rcone_gaps(s.frame, s.chart.sample(seed=5, count=3))
    assert calls == {"pair": [(8, 3)], "pair_minus": [(28, 3)]}


@pytest.mark.parametrize("build", [
    lambda: gallery.darboux(3)["gacs"],  # 8 cone members, 56 triples
    lambda: KAHLER["gacs"],  # 4 cone members, 4 triples
], ids=["darboux3", "kahler_interval"])
def test_identity_masks_cover_each_cone_triple_once(build):
    """id1-id4 split the cone frame's triples by F+ (index m - 2) and F- (m - 1)."""
    s = build()
    members = C.cone_plus_frame(ConeChart.over(s.chart), s.frame.e10, s.Eplus, s.Eminus,
                                conjugated=True)
    m = len(members)
    triples = S.triples(m)
    assert [tuple(t) for t in triples] == list(combinations(range(m), 3))
    rows = I._identity_rows(m)
    assert all(mask.shape == (len(triples),) for mask in rows.values())
    assert (sum(mask.astype(int) for mask in rows.values()) == 1).all()
    plus, minus = (triples == m - 2).any(axis=1), (triples == m - 1).any(axis=1)
    for name, want in (("id1", ~plus & ~minus), ("id2", plus & ~minus),
                       ("id3", ~plus & minus), ("id4", plus & minus)):
        assert np.array_equal(rows[name], want), name


def test_frame_checks_build_the_base_table_once(monkeypatch):
    """involutivity, plain_cone and rcone_condition read one frame_nij table
    on the 7-dim base, through the frame's memo, and one on the 8-dim cone."""
    dims = []
    original = S.frame_nij

    def recording(jets, n):
        dims.append(n)
        return original(jets, n)

    monkeypatch.setattr(S, "frame_nij", recording)
    s = gallery.darboux(3)["gacs"]  # a fresh structure, with no frame built yet
    sample = s.chart.sample(seed=5, count=5)
    S.involutivity_class(s, sample)
    I.plain_cone_check(s, sample)
    I.conjugated_cone_residual(s, sample)
    assert dims == [7, 8]


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
    two branches of one Nij_M and one Nij_C table, one frame_nij call each,
    each bracketing every member pair once."""
    log = record_brackets(monkeypatch)
    m = gallery.heisenberg_sasakian()["gacs"]  # fresh frames, with no table kept yet
    rep = I.generalized_sasakian_check(m, pts(HEIS, 5))
    assert [event[:2] for event in log] == [("table", 4)] * (2 * 2)
    assert bracket_sizes(log) == [6] * (2 * 2)
    assert [r.name for r in rep.rows[:2]] == [
        "gsas.phi.rcone_condition.residual", "gsas.phi.crosscheck.id1"]


def test_generalized_sasakian_builds_the_dual_once(monkeypatch):
    """The dual structure is Gacs.dual, kept with the structure: two checks build
    one eigenframe per branch, not a new dual frame per check."""
    calls = []
    original = S.eigenframe

    def counting(s, *args):
        calls.append(s)
        return original(s, *args)

    monkeypatch.setattr(S, "eigenframe", counting)
    m = gallery.kahler_interval()["gacs"]  # fresh, with no frame or dual kept yet
    for _ in range(2):
        I.generalized_sasakian_check(m, pts(KAHLER, 4))
    assert len(calls) == 2
    assert m.dual is m.dual


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
    rep = I.generalized_sasakian_check(KAHLER["gacs"], pts(KAHLER, 5))
    assert rep.passed and rep.max_residual < 1e-7


def test_generalized_sasakian_cone_kahler_heisenberg():
    """The metric lift of a cone-Kaehler Sasakian structure passes both branches."""
    rep = I.generalized_sasakian_check(HEIS_CK["gacs"], pts(HEIS_CK, 5))
    assert rep.passed and rep.max_residual < 1e-7


def test_generalized_sasakian_needs_cone_kahler_normalisation():
    """With theta = d eta (determinant convention) the companion branch fails:
    closure of the cone 2-form needs 2 theta = d eta."""
    rep = I.generalized_sasakian_check(HEIS["gacs"], pts(HEIS, 4))
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
    detuned = replace(KAHLER["gacs"], metric=metric)
    assert not S.gacm_check(detuned, pts(KAHLER, 4)).passed
    rep = I.generalized_sasakian_check(detuned, pts(KAHLER, 3))
    assert rep.max_residual > 1e-3


def test_residuals_invariant_under_pivot_shuffle():
    """Verdicts do not depend on which independent columns the frame keeps."""
    for entry in (DARBOUX, HEIS):
        s = entry["gacs"]
        base = s.chart.sample(seed=0, count=1)[0]
        mat = S.eigen_projector(s.Phi, s.Eplus, s.Eminus).values(base)
        default = S._pivot_columns(mat, 2)
        shuffled = S._pivot_columns(mat[:, ::-1], 2)
        alt_cols = sorted(mat.shape[1] - 1 - c for c in shuffled)
        assert alt_cols != default  # genuinely different column choice
        sample = pts(entry, 4)
        verdicts = []
        for cols in (default, alt_cols):
            pinned = S.Gacs(s.chart, s.Phi, s.Eplus, s.Eminus)
            # the checks read the structure's frame: pin it to these columns
            vars(pinned)["frame"] = S.EigenFrame(S.eigen_projector(s.Phi, s.Eplus, s.Eminus, cols),
                                                 tuple(cols), s.Eplus, s.Eminus)
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
    out = C.cone_decompose(C.i_prime(d2["gacs"]))
    assert np.abs(out.Phi.values(sample[0]) - d2["gacs"].Phi.values(sample[0])).max() < 1e-10
    rep = I.cone_crosscheck(d2["gacs"], sample)
    assert rep["crosscheck.id1"].max_residual < 1e-8
    assert rep["crosscheck.two_route_agreement"].max_residual < 1e-8


# -- the eigenprojector against the per-candidate chain it replaced --------------------


def candidate_chain(endo, kernel=None):
    """The 2n projected coordinate sections, one field chain each: 0.5 (u - i P u)
    of u - 2<u,E->E+ - 2<u,E+>E- (of u itself without a kernel)."""
    ch = endo.chart
    coords = [F.section(vec=F.basis_vector(ch, i)) for i in range(ch.dim)]
    coords += [F.section(form=F.basis_form(ch, i)) for i in range(ch.dim)]
    out = []
    for u in coords:
        if kernel is not None:
            ep, em = kernel
            u = u - 2 * (F.pair_field(u, em) * ep) - 2 * (F.pair_field(u, ep) * em)
        out.append(0.5 * (u - 1j * endo.apply(u)))
    return out


def same_floats(a, b, subnormal: bool) -> bool:
    """a == b entry by entry; with ``subnormal``, parts that differ must both lie
    below the smallest normal float.

    The chain forms <u, E-> as 0.5 (...) and scales its product by 2, which
    is exact except where a product is subnormal: there the halving drops the
    last bit.  Generated forms draw such coefficients (about 1e-312).
    """
    if not subnormal:
        return np.array_equal(a, b)
    tiny = np.finfo(float).tiny
    for x, y in ((a.real, b.real), (a.imag, b.imag)):
        off = x != y
        if not (np.abs(x[off]) < tiny).all() or not (np.abs(y[off]) < tiny).all():
            return False
    return True


def jets_match(fields, refs, points, subnormal=False) -> bool:
    """Each field's jet equals its reference's exactly, at orders 0-2."""
    for order in (0, 1, 2):
        for p in (points, points[0]):
            for f, r in zip(fields, refs, strict=True):
                a, b = f.jet(p, order), r.jet(p, order)
                for part in ("value", "grad", "hess"):
                    x, y = getattr(a, part), getattr(b, part)
                    if (x is None) != (y is None):
                        return False
                    if x is not None and not same_floats(x, y, subnormal):
                        return False
    return True


def chain_pivots(chain, want):
    """The columns the chain's values at the default base point pivot to."""
    base = chain[0].chart.sample(seed=0, count=1)[0]
    return S._pivot_columns(np.stack([c.values(base) for c in chain], axis=1), want)


def eigenprojector_exact(s, points, subnormal=False) -> bool:
    """The projector's columns equal the chain, pivot to the same columns, and
    the frame's members equal the chain at those columns."""
    frame = S.eigenframe(s)
    chain = candidate_chain(s.Phi, (s.Eplus, s.Eminus))
    columns = S.projector_columns(S.eigen_projector(s.Phi, s.Eplus, s.Eminus), range(len(chain)))
    return (list(frame.pivots) == chain_pivots(chain, s.chart.dim - 1)
            and jets_match(columns, chain, points, subnormal)
            and jets_match(frame.e10, [chain[k] for k in frame.pivots], points, subnormal))


def test_eigenprojector_columns_equal_the_candidate_chain():
    structures = [twisted_darboux(), gallery.darboux(3)["gacs"]]
    for name in gallery.names():
        entry = gallery.build(name)
        structures.append(entry["gacs"])
        if entry["gacs"].metric is not None:
            structures.append(S.dual_gacm(entry["gacs"]))
    for s in structures:
        assert eigenprojector_exact(s, s.chart.sample(seed=11, count=3))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(perturbed_darboux())
def test_eigenprojector_columns_equal_the_candidate_chain_on_generated_forms(case):
    eta, seed = case
    sample = eta.chart.sample(seed=seed, count=2)
    try:
        s = S.gacs_from_contact(eta, check_points=sample)
    except ValueError:
        assume(False)
    assert eigenprojector_exact(s, sample, subnormal=True)


def test_pivot_column_fields_equal_the_full_projector_columns():
    """The frame members, computed on the pivot columns only, equal the full
    projector's pivot columns bit for bit at orders 0-2, on base and cone frames."""
    for s in frame_structures() + [gallery.darboux(2)["gacs"], gallery.darboux(4)["gacs"],
                                   twisted_darboux()]:
        points = s.chart.sample(seed=13, count=3)
        full = S.eigen_projector(s.Phi, s.Eplus, s.Eminus)
        assert jets_match(s.frame.e10, S.projector_columns(full, s.frame.pivots), points)
        for j in (C.i_prime(s), C.i_map(s)):
            cone = j.chart
            full = S.eigen_projector(j)
            cols = S.pivoted_frame(full, cone.sample(seed=0, count=1)[0], cone.dim, "{} < {}")
            assert jets_match(C.gacx_plus_frame(j), S.projector_columns(full, cols),
                              C.cone_points(points[:2]))


def test_cone_projector_columns_equal_the_candidate_chain():
    for entry in (DARBOUX, KAHLER):
        s = entry["gacs"]
        j = C.i_map(s)
        cone_pts = C.cone_points(pts(entry, 2), (-0.3, 0.4))
        chain = candidate_chain(j)
        columns = S.projector_columns(S.eigen_projector(j), range(len(chain)))
        assert jets_match(columns, chain, cone_pts)
        members = C.gacx_plus_frame(j)
        old = [chain[k] for k in chain_pivots(chain, j.chart.dim)]
        assert jets_match(members, old, cone_pts)
