import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipfem import geometry
from ipfem.cases import catalog
from ipfem.geometry import (
    Circle,
    Ellipse,
    MultiIntersection,
    OnInterface,
    TangencyUnresolved,
    UnresolvedTopology,
    VerticalLine,
    classify_elements,
    parse_curve,
    select_analysis_side,
    signed_side,
)
from ipfem.mesh import Rectangle, build_mesh

from oracles import brute_force_labels, scalar_boundary_chain

BIUNIT = Rectangle(-1.0, -1.0, 1.0, 1.0)


def test_labels_agree_with_brute_force():
    mesh = build_mesh(BIUNIT, 8, 8)
    curve = Circle(0.0, 0.0, 0.5)
    top = classify_elements(mesh, curve)
    expected = brute_force_labels(mesh, curve, per_element=256)
    assert np.array_equal(top.labels, expected)


def test_segment_count_equals_cut_count():
    mesh = build_mesh(BIUNIT, 8, 8)
    curve = Circle(0.0, 0.0, 0.5)
    top = classify_elements(mesh, curve)
    assert len(top.segments) == len(top.cut_elements)
    hosts = sorted(s.element for s in top.segments)
    assert hosts == sorted(top.cut_elements.tolist())


def test_arc_partition_of_unity():
    for curve, nx in [
        (Circle(0.0, 0.0, 0.5), 8),
        (Circle(0.05, -0.1, 0.6), 16),
        (Ellipse(0.1, -0.05, 0.55, 0.35), 16),
    ]:
        mesh = build_mesh(BIUNIT, nx, nx)
        top = classify_elements(mesh, curve)
        assert top.dropped_arclength == 0.0
        total = sum(s.t_hi - s.t_lo for s in top.segments)
        assert total == pytest.approx(curve.period, rel=1e-12)


def test_interior_loop_rejected():
    mesh = build_mesh(Rectangle(0.0, 0.0, 1.0, 1.0), 1, 1)
    with pytest.raises(UnresolvedTopology):
        classify_elements(mesh, Circle(0.5, 0.5, 0.2))


def test_curve_outside_domain_all_pure():
    mesh = build_mesh(BIUNIT, 4, 4)
    top = classify_elements(mesh, Circle(10.0, 10.0, 0.5))
    assert len(top.segments) == 0
    assert np.all(top.labels == 2)  # the whole domain is outside that circle
    top_in = classify_elements(mesh, Circle(0.0, 0.0, 50.0))
    assert np.all(top_in.labels == 1)


def test_curve_crossing_boundary_rejected():
    mesh = build_mesh(BIUNIT, 8, 8)
    with pytest.raises(UnresolvedTopology):
        classify_elements(mesh, Circle(0.9, 0.0, 0.5))


def test_multi_intersection_detected():
    mesh = build_mesh(BIUNIT, 2, 2)
    with pytest.raises(MultiIntersection):
        classify_elements(mesh, Circle(0.45, 0.45, 0.52))


def test_signed_side_basics():
    curve = Circle(0.0, 0.0, 0.5)
    assert signed_side((0.0, 0.0), curve) == 1
    assert signed_side((0.9, 0.9), curve) == 2
    p = curve.point(0.0) + 1e-6 * curve.normal(0.0)
    assert signed_side(p, curve) == 2
    q = curve.point(1.3) - 1e-6 * curve.normal(1.3)
    assert signed_side(q, curve) == 1
    with pytest.raises(OnInterface):
        signed_side((0.5, 0.0), curve, tol=1e-9)


def test_normal_consistent_with_inside_test():
    for curve in (Circle(0.2, -0.1, 0.45), Ellipse(0.0, 0.0, 0.6, 0.4)):
        ts = np.linspace(0.0, curve.period, 17, endpoint=False)
        pts = curve.point(ts)
        nrm = curve.normal(ts)
        eps = 1e-6
        outside = pts + eps * nrm
        inside = pts - eps * nrm
        assert np.all(curve.signed_distance(outside[:, 0], outside[:, 1]) > 0)
        assert np.all(curve.signed_distance(inside[:, 0], inside[:, 1]) < 0)


def test_label_stability_under_tiny_shift():
    curve = Circle(0.0, 0.0, 0.6)
    mesh = build_mesh(BIUNIT, 8, 8)
    top = classify_elements(mesh, curve)
    shift = 1e-9
    mesh2 = build_mesh(
        Rectangle(-1.0 + shift, -1.0 + shift, 1.0 + shift, 1.0 + shift), 8, 8
    )
    top2 = classify_elements(mesh2, curve)
    for e in range(mesh.n_elements):
        corners = mesh.vertices[mesh.elements[e]]
        dmin = np.min(np.abs(curve.signed_distance(corners[:, 0], corners[:, 1])))
        if dmin > 1e-8:
            assert top.labels[e] == top2.labels[e]


def test_far_corner_distance_at_least_half_min_side():
    for curve, nx in [(Circle(0.0, 0.0, 0.6), 8), (Ellipse(0.1, 0.0, 0.55, 0.35), 16)]:
        mesh = build_mesh(BIUNIT, nx, nx)
        top = classify_elements(mesh, curve)
        for seg in top.segments:
            tm = seg.t_mid
            p0 = curve.point(tm)
            d = curve.tangent(tm)
            d = d / np.linalg.norm(d)
            corners = mesh.vertices[mesh.elements[seg.element]]
            rel = corners - p0
            dist = np.abs(rel[:, 0] * d[1] - rel[:, 1] * d[0])
            assert dist.max() >= 0.5 * min(mesh.dx, mesh.dy) - 1e-12


def test_select_analysis_side_hand_case():
    mesh = build_mesh(BIUNIT, 8, 8)
    curve = Circle(0.0, 0.0, 0.5)
    top = classify_elements(mesh, curve)
    # element [0.25, 0.5] x [0, 0.25] is mostly inside the circle
    elem = mesh.element_index(5, 4)
    seg = top.segment_for(elem)
    assert seg is not None
    # hand oracle: farthest corner from the tangent at the midpoint
    tm = seg.t_mid
    p0 = curve.point(tm)
    d = curve.tangent(tm) / np.linalg.norm(curve.tangent(tm))
    corners = mesh.vertices[mesh.elements[elem]]
    dist = np.abs((corners - p0)[:, 0] * d[1] - (corners - p0)[:, 1] * d[0])
    far = corners[int(np.argmax(dist))]
    expected = 1 if curve.signed_distance(far[0], far[1]) < 0 else 2
    assert seg.analysis_side == expected == 1
    assert select_analysis_side(seg, mesh, curve) == expected


def test_all_segments_have_valid_side():
    mesh = build_mesh(BIUNIT, 16, 16)
    top = classify_elements(mesh, Ellipse(0.1, -0.05, 0.55, 0.35))
    assert all(s.analysis_side in (1, 2) for s in top.segments)


def test_fractions_match_sampling():
    mesh = build_mesh(BIUNIT, 8, 8)
    curve = Circle(0.0, 0.0, 0.6)
    top = classify_elements(mesh, curve)
    offs = (np.arange(512) + 0.5) / 512
    for e in top.cut_elements:
        x0, y0, x1, y1 = mesh.element_box(int(e))
        xs = x0 + offs * (x1 - x0)
        ys = y0 + offs * (y1 - y0)
        d = curve.signed_distance(xs[:, None], ys[None, :])
        frac = float(np.mean(d < 0))
        assert abs(frac - top.fractions[e, 0]) < 5e-3
    # fractions on each element sum to one
    assert np.allclose(top.fractions.sum(axis=1), 1.0, atol=1e-12)


def test_vertical_line_edge_topology():
    mesh = build_mesh(BIUNIT, 8, 8)
    top = classify_elements(mesh, VerticalLine(0.0, -1.0, 1.0))
    assert len(top.segments) == 8
    assert all(s.on_edge for s in top.segments)
    # hosts on the side-1 (left) column, neighbors on the right
    assert {s.element % 8 for s in top.segments} == {3}
    assert {s.neighbor % 8 for s in top.segments} == {4}
    assert {s.analysis_side for s in top.segments} == {1}
    assert len(top.cut_elements) == 0
    total = sum(s.t_hi - s.t_lo for s in top.segments)
    assert total == pytest.approx(2.0, rel=1e-12)


def test_vertex_tangent_circle_regression():
    # circle through four mesh vertices, tangent to grid lines there
    mesh = build_mesh(BIUNIT, 8, 8)
    top = classify_elements(mesh, Circle(0.0, 0.0, 0.5))
    assert len(top.segments) == 12
    assert np.all(top.fractions[top.labels == 0].min(axis=1) > 1e-3)


def test_parse_curve():
    c = parse_curve("circle:0.1,-0.2,0.5")
    assert isinstance(c, Circle)
    e = parse_curve("ellipse:0,0,0.6,0.4")
    assert isinstance(e, Ellipse)
    v = parse_curve("vline:0,-1,1")
    assert isinstance(v, VerticalLine)
    with pytest.raises(ValueError):
        parse_curve("astroid:1,2")


# ---------------------------------------------------------------------------
# Reference for the batched crossing search: the scalar search, one grid line
# at a time, one bisection + Newton polish per bracket.


def _scalar_refine(f, df, lo, hi, flo, xtol):
    a, b, fa = lo, hi, flo
    for _ in range(80):
        if b - a <= xtol:
            break
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            a = b = m
            break
        if (fa < 0.0) != (fm < 0.0):
            b = m
        else:
            a, fa = m, fm
    t = 0.5 * (a + b)
    for _ in range(3):
        d = df(t)
        if d == 0.0:
            break
        tn = t - f(t) / d
        if not (lo <= tn <= hi):
            break
        t = tn
    return t


def _scalar_line_crossings(curve, ts, pts, value, axis, xtol, tol_edge):
    g = pts[:, axis] - value
    if np.max(np.abs(g)) < tol_edge:
        return []

    def f(t):
        return float(curve.point(t)[axis] - value)

    def df(t):
        return float(curve.tangent(t)[axis])

    roots = []
    n = len(ts)
    for k in range(n if curve.closed else n - 1):
        k2 = (k + 1) % n
        a = ts[k]
        b = ts[0] + curve.period if k2 == 0 else ts[k2]
        if g[k] == 0.0:
            roots.append((a, abs(df(a))))
        elif (g[k] < 0.0) != (g[k2] < 0.0):
            t = _scalar_refine(f, df, a, b, g[k], xtol)
            roots.append((t, abs(df(t))))
    return roots


def _scalar_crossings(curve, ts, pts, xs, ys, xtol, tol_edge):
    roots = [r for v in xs for r in _scalar_line_crossings(curve, ts, pts, v, 0, xtol, tol_edge)]
    roots += [r for v in ys for r in _scalar_line_crossings(curve, ts, pts, v, 1, xtol, tol_edge)]
    return np.array([t for t, _ in roots]), np.array([s for _, s in roots])


def _topology_bits(top):
    segments = [
        (s.element, s.t_lo.hex(), s.t_hi.hex(), s.on_edge, s.neighbor, s.analysis_side)
        for s in top.segments
    ]
    return (top.labels.tobytes(), top.fractions.tobytes(), segments, float(top.dropped_arclength).hex())


# perfbench's h-sweep seed-1 ellipse
SEED1_ELLIPSE = Ellipse(0.0023643249400513433, 0.09009273926518707, 0.49324788381589013, 0.7067521161841098)
CROSSING_CASES = (
    [(c.name, c.curve, nx) for c in catalog().values() for nx in (8, 16, 32)]
    + [("vertex-tangent-circle", Circle(0.0, 0.0, 0.5), 8)]
    + [("perfbench-seed1-ellipse", SEED1_ELLIPSE, nx) for nx in (24, 64, 128)]
)


@pytest.mark.parametrize(
    "curve,nx", [(c, nx) for _, c, nx in CROSSING_CASES], ids=[f"{n}-{nx}" for n, _, nx in CROSSING_CASES]
)
def test_batched_crossings_match_scalar_search(monkeypatch, curve, nx):
    mesh = build_mesh(BIUNIT, nx, nx)
    top = classify_elements(mesh, curve)

    batched = geometry._grid_line_crossings
    calls = []

    def scalar(*args):
        t, s = batched(*args)
        t_ref, s_ref = _scalar_crossings(*args)
        calls.append((t.tobytes() == t_ref.tobytes(), s.tobytes() == s_ref.tobytes(), t.size))
        return t_ref, s_ref

    monkeypatch.setattr(geometry, "_grid_line_crossings", scalar)
    ref = classify_elements(mesh, curve)
    assert len(calls) == 1
    roots_equal, strengths_equal, n_roots = calls[0]
    assert n_roots > 0
    assert roots_equal and strengths_equal
    assert _topology_bits(top) == _topology_bits(ref)
    # pure labels: one scalar signed-distance call per element centre
    dom = mesh.domain
    for k in np.flatnonzero(top.labels != 0):
        i, j = mesh.element_cell(k)
        d = float(curve.signed_distance(dom.x0 + mesh.dx * (i + 0.5), dom.y0 + mesh.dy * (j + 0.5)))
        assert top.labels[k] == (1 if d < 0.0 else 2)
        assert top.fractions[k, top.labels[k] - 1] == 1.0


# ---------------------------------------------------------------------------
# Properties of every accepted classification of random circles and ellipses.


@st.composite
def conic_on_mesh(draw):
    """A circle or an axis-aligned ellipse and a mesh size; the centre range
    lets some curves leave the domain, and small axes or coarse meshes give
    cells that the curve meets more than twice."""
    a = draw(st.floats(0.08, 0.7))
    b = a if draw(st.booleans()) else draw(st.floats(0.08, 0.7))
    cx = draw(st.floats(-0.45, 0.45))
    cy = draw(st.floats(-0.45, 0.45))
    nx = draw(st.integers(2, 48))
    curve = Circle(cx, cy, a) if a == b else Ellipse(cx, cy, a, b)
    return curve, (a, b), nx


def _perimeter(curve):
    # trapezoidal rule: spectrally accurate for a smooth periodic integrand
    ts = np.linspace(0.0, curve.period, 4096, endpoint=False)
    return curve.period * float(np.mean(np.linalg.norm(curve.tangent(ts), axis=-1)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(conic_on_mesh())
def test_classification_invariants_on_random_conics(draw):
    curve, (a, b), nx = draw
    mesh = build_mesh(BIUNIT, nx, nx)
    try:
        top = classify_elements(mesh, curve)
    except (MultiIntersection, TangencyUnresolved, UnresolvedTopology):
        return
    segments = top.segments
    assert all(not s.on_edge for s in segments)
    # one segment per cut element
    assert sorted(s.element for s in segments) == top.cut_elements.tolist()
    assert np.all(top.fractions[top.cut_elements].min(axis=1) > 0.0)
    # the segment intervals tile [0, period), up to the dropped slivers
    P = curve.period
    assert segments[0].t_lo >= 0.0 and segments[-1].t_lo < P
    ends = [s.t_hi for s in segments]
    starts = [s.t_lo for s in segments[1:]] + [segments[0].t_lo + P]
    gaps = list(zip(ends, starts))
    assert all(s - e >= -1e-12 * P for e, s in gaps)
    gap_length = sum(curve.arclength(e, s) for e, s in gaps if s - e > 1e-12 * P)
    assert gap_length == pytest.approx(top.dropped_arclength, abs=1e-12)
    # side-1 area is the enclosed area
    area = float(top.fractions[:, 0].sum()) * mesh.dx * mesh.dy
    assert area == pytest.approx(np.pi * a * b, abs=1e-10)
    # segment arclengths and the dropped slivers add up to the perimeter
    length = sum(curve.arclength(s.t_lo, s.t_hi) for s in segments) + top.dropped_arclength
    assert length == pytest.approx(_perimeter(curve), rel=1e-10)


def test_arclength_over_long_segments_of_an_eccentric_ellipse():
    # at nx = 3 the two segments span 2.6 and 3.7 rad, where one Gauss rule
    # over the whole interval is off by ~6e-7 relative
    curve = Ellipse(-0.2, 0.0, 0.5, 0.125)
    top = classify_elements(build_mesh(BIUNIT, 3, 3), curve)
    assert max(s.t_hi - s.t_lo for s in top.segments) > 3.0
    length = sum(curve.arclength(s.t_lo, s.t_hi) for s in top.segments) + top.dropped_arclength
    assert length == pytest.approx(_perimeter(curve), rel=1e-12)


def _scan_segment(top, element):
    for seg in top.segments:
        if not seg.on_edge and seg.element == element:
            return seg
    return None


LOOKUP_CASES = [(c.curve, nx) for c in catalog().values() for nx in (8, 16, 32)] + [
    (SEED1_ELLIPSE, nx) for nx in (24, 128)
]


@pytest.mark.parametrize("curve,nx", LOOKUP_CASES)
def test_segment_lookup_matches_linear_scan(curve, nx):
    top = classify_elements(build_mesh(BIUNIT, nx, nx), curve)
    # a replaced topology builds its own index
    shuffled = dataclasses.replace(top, segments=top.segments[::-1])
    for t in (top, shuffled):
        for k in range(top.mesh.n_elements):
            assert t.segment_for(k) is _scan_segment(t, k)


def _scalar_side1_fraction(mesh, curve, seg, npts=32):
    """Green's theorem for one segment at a time (the per-segment loop the
    batched fractions replaced)."""
    box = mesh.element_box(seg.element)
    xg, wg = np.polynomial.legendre.leggauss(npts)
    tq = seg.t_mid + 0.5 * (seg.t_hi - seg.t_lo) * xg
    r = curve.point(tq)
    dr = curve.tangent(tq)
    cross = r[:, 0] * dr[:, 1] - r[:, 1] * dr[:, 0]
    area = 0.25 * (seg.t_hi - seg.t_lo) * float(np.dot(wg, cross))
    a_pt = curve.point(seg.t_lo)
    b_pt = curve.point(seg.t_hi)
    loop = [b_pt] + scalar_boundary_chain(box, b_pt, a_pt, 1e-9 * mesh.h) + [a_pt]
    for p, q in zip(loop[:-1], loop[1:]):
        area += 0.5 * (p[0] * q[1] - q[0] * p[1])
    elem_area = (box[2] - box[0]) * (box[3] - box[1])
    return min(max(area / elem_area, 0.0), 1.0)


@pytest.mark.parametrize(
    "curve,nx", [(c, nx) for _, c, nx in CROSSING_CASES], ids=[f"{n}-{nx}" for n, _, nx in CROSSING_CASES]
)
def test_batched_fractions_match_per_segment_green(curve, nx):
    mesh = build_mesh(BIUNIT, nx, nx)
    top = classify_elements(mesh, curve)
    for seg in top.segments:
        if not seg.on_edge:
            f1 = _scalar_side1_fraction(mesh, curve, seg)
            assert top.fractions[seg.element].tolist() == [f1, 1.0 - f1]
