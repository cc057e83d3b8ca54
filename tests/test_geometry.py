import dataclasses

import numpy as np
import pytest

from ipfem import geometry
from ipfem.cases import catalog
from ipfem.geometry import (
    Circle,
    Ellipse,
    GeometryError,
    MultiIntersection,
    OnInterface,
    TangencyUnresolved,
    UnresolvedTopology,
    VerticalLine,
    _analysis_sides,
    classify_elements,
    far_corners,
    parse_curve,
    signed_side,
)
from ipfem.mesh import Rectangle, build_mesh
from ipfem.quadrature import cut_cell_rule, cut_order, pass_order

from helpers import random_conic
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


def test_sliver_fraction_decides_which_cut_sides_are_dropped():
    # the circle reaches just past the corner (0.5, 0.5) of element 10 of the
    # nx = 4 mesh: by 3.5e-7 its side-1 part is about 4.9e-13 of the element,
    # below SLIVER_FRACTION, and by 1e-6 about 4.0e-12, above it
    mesh = build_mesh(BIUNIT, 4, 4)
    reach = np.hypot(0.1, 0.1)
    top = classify_elements(mesh, Circle(0.6, 0.6, reach + 3.5e-7))
    assert top.labels[10] == 2 and top.fractions[10].tolist() == [0.0, 1.0]
    assert top.dropped_arclength == pytest.approx(7.0e-7, rel=0.05)
    assert len(top.cut_elements) == 3
    top = classify_elements(mesh, Circle(0.6, 0.6, reach + 1e-6))
    assert top.labels[10] == 0
    assert top.fractions[10, 0] == pytest.approx(4.0e-12, rel=0.05)
    assert top.fractions[10, 0] > geometry.SLIVER_FRACTION
    rule = cut_cell_rule(top, 10, 1, cut_order(pass_order(1), 1))
    assert len(rule.weights) and np.all(rule.weights > 0.0)


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
    assert signed_side((0.0, 0.0), curve, tol=1e-12) == 1
    assert signed_side((0.9, 0.9), curve, tol=1e-12) == 2
    p = curve.point(0.0) + 1e-6 * curve.normal(0.0)
    assert signed_side(p, curve, tol=1e-12) == 2
    q = curve.point(1.3) - 1e-6 * curve.normal(1.3)
    assert signed_side(q, curve, tol=1e-12) == 1
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
            # the batched helper orders the corners the same way, farthest
            # first with ties by smallest corner index
            ordered = far_corners(mesh, curve, [seg.element], np.array([tm]))[0]
            assert np.array_equal(ordered, corners[np.argsort(-dist, kind="stable")])


def test_select_analysis_side_hand_case():
    mesh = build_mesh(BIUNIT, 8, 8)
    curve = Circle(0.0, 0.0, 0.5)
    top = classify_elements(mesh, curve)
    # element [0.25, 0.5] x [0, 0.25] is mostly inside the circle
    elem = mesh.element_index(5, 4)
    k = top.element_segment[elem]
    assert k >= 0
    seg = top.segments[k]
    # hand oracle: farthest corner from the tangent at the midpoint
    tm = seg.t_mid
    p0 = curve.point(tm)
    d = curve.tangent(tm) / np.linalg.norm(curve.tangent(tm))
    corners = mesh.vertices[mesh.elements[elem]]
    dist = np.abs((corners - p0)[:, 0] * d[1] - (corners - p0)[:, 1] * d[0])
    far = corners[int(np.argmax(dist))]
    expected = 1 if curve.signed_distance(far[0], far[1]) < 0 else 2
    assert seg.analysis_side == expected == 1
    assert _analysis_sides(mesh, curve, [seg.element], np.array([tm])).tolist() == [expected]


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


@pytest.mark.parametrize("curve", [Circle(0.0625, 0.0625, 0.0625), Circle(0.125, 0.125, 0.125)])
def test_loop_touching_only_its_element_boundary_rejected(curve):
    # both loops lie in element 36 = [0, 0.25]^2 and touch x = 0 and y = 0
    # (the larger one all four sides) tangentially; the grazing merge joins
    # the intervals between the touches into one host
    with pytest.raises(UnresolvedTopology, match="closed curve lies inside element 36, touching its boundary only"):
        classify_elements(build_mesh(BIUNIT, 8, 8), curve)


def test_touch_at_t0_merges_across_the_period():
    # the circle touches x = 0 at t = 0, so the intervals on either side of
    # t = 0 share a host and merge into one segment that runs across t = period
    curve = Circle(-0.3, 0.013, 0.3)
    top = classify_elements(build_mesh(BIUNIT, 4, 4), curve)
    segments = top.segments
    assert [s.element for s in segments] == [8, 4, 5, 9]
    assert segments[-1].t_lo < curve.period < segments[-1].t_hi
    # the four tile one period with no gap
    assert [s.t_hi for s in segments[:-1]] == [s.t_lo for s in segments[1:]]
    assert segments[-1].t_hi - curve.period == segments[0].t_lo
    assert top.dropped_arclength == 0.0


def test_open_curve_must_end_on_the_domain_boundary():
    mesh = build_mesh(BIUNIT, 8, 8)
    # both ends inside: the labels would split every row at x = 0 while the
    # segments couple the two sides only on half of the line
    for curve in (VerticalLine(0.0, -0.5, 0.5), VerticalLine(0.0, -1.0, 0.5)):
        with pytest.raises(UnresolvedTopology, match="not both on the domain boundary"):
            classify_elements(mesh, curve)
    assert len(classify_elements(mesh, VerticalLine(0.0, -1.0, 1.0)).segments) == 8


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


def _conics_on_meshes(seed=0, count=150):
    """Random conics (``helpers.random_conic``) and mesh sizes; small axes or
    coarse meshes give cells that the curve meets more than twice."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield random_conic(rng), int(rng.integers(2, 49))


def _perimeter(curve):
    # trapezoidal rule: spectrally accurate for a smooth periodic integrand
    ts = np.linspace(0.0, curve.period, 4096, endpoint=False)
    return curve.period * float(np.mean(np.linalg.norm(curve.tangent(ts), axis=-1)))


def test_classification_invariants_on_random_conics():
    for curve, nx in _conics_on_meshes():
        try:
            _check_classification(curve, nx)
        except AssertionError as exc:
            raise AssertionError(f"{curve.name} at nx = {nx}") from exc


def _check_classification(curve, nx):
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
    a, b = (curve.radius, curve.radius) if isinstance(curve, Circle) else (curve.a, curve.b)
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
            index = t.element_segment[k]
            assert (None if index < 0 else t.segments[index]) is _scan_segment(t, k)


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


# ---------------------------------------------------------------------------
# Reference for the array passes of classification: the same steps as one
# Python loop over roots, intervals and records, and the analysis side from a
# walk over the host corners, farthest from the midpoint tangent first.


def _corner_walk_side(seg, mesh, curve):
    p0 = curve.point(seg.t_mid)
    d = curve.tangent(seg.t_mid)
    d = d / np.linalg.norm(d)
    corners = mesh.vertices[mesh.elements[seg.element]]
    rel = corners - p0
    dist = np.abs(rel[:, 0] * d[1] - rel[:, 1] * d[0])
    for corner in corners[np.argsort(-dist, kind="stable")]:
        try:
            return signed_side(corner, curve, tol=1e-12 * mesh.h)
        except OnInterface:
            continue
    raise GeometryError("all host-element corners lie on the interface")


def _loop_classify(mesh, curve):
    dom = mesh.domain
    smin, smax = curve.speed_range()
    min_side = min(mesh.dx, mesh.dy)
    n_samp = int(min(max(1024, 16 * smax * curve.period / min_side), 2**18))
    ts = np.linspace(0.0, curve.period, n_samp, endpoint=not curve.closed)
    xtol = max(1e-14 * mesh.h / smin, 8 * np.finfo(float).eps * curve.period)
    tol_edge, tol_geo = 1e-10 * mesh.h, 1e-12 * mesh.h
    xs = dom.x0 + mesh.dx * np.arange(mesh.nx + 1)
    ys = dom.y0 + mesh.dy * np.arange(mesh.ny + 1)
    t_root, strength = geometry._grid_line_crossings(curve, ts, curve.point(ts), xs, ys, xtol, tol_edge)

    t_micro = max(2e-7 * curve.period, 4 * xtol)
    t_dedupe = max(1e-13 * curve.period, 2 * xtol)
    if curve.closed:
        t_root = t_root % curve.period
    merged, cluster = [], []
    for r, s in sorted(zip(t_root.tolist(), strength.tolist())):
        if cluster and r - cluster[-1][0] > t_micro:
            merged.append(max(cluster, key=lambda item: item[1])[0])
            cluster = []
        cluster.append((r, s))
    if cluster:
        merged.append(max(cluster, key=lambda item: item[1])[0])
    if curve.closed and len(merged) >= 2 and (merged[0] + curve.period) - merged[-1] <= t_micro:
        merged.pop()
    if curve.closed:
        ends = merged[1:] + [merged[0] + curve.period] if merged else [curve.period]
        intervals = list(zip(merged or [0.0], ends))
    else:
        knots = [0.0] + [r for r in merged if t_dedupe < r < curve.period - t_dedupe] + [curve.period]
        intervals = [(a, b) for a, b in zip(knots[:-1], knots[1:]) if b - a > t_dedupe]
    if not intervals:
        raise UnresolvedTopology("curve produced no parameter intervals")

    records = []  # (t_lo, t_hi, host, on_edge, neighbor)
    any_inside = any_outside = False
    for a, b in intervals:
        tm = 0.5 * (a + b)
        pm = curve.point(tm)
        if not bool(dom.contains(pm[0], pm[1], tol=-tol_geo)):
            any_outside = True
            continue
        any_inside = True
        p_check = curve.point(np.linspace(a, b, 7)[1:-1])
        dist_v = np.min(np.abs(p_check[:, 0][:, None] - xs[None, :]), axis=1)
        dist_h = np.min(np.abs(p_check[:, 1][:, None] - ys[None, :]), axis=1)
        long_enough = curve.arclength(a, b, npts=8) >= 0.1 * min_side
        if long_enough and (np.all(dist_v < tol_edge) or np.all(dist_h < tol_edge)):
            nrm = curve.normal(tm)
            p_host = pm - min_side / 3.0 * nrm
            p_nb = pm + min_side / 3.0 * nrm
            if not (dom.contains(p_host[0], p_host[1]) and dom.contains(p_nb[0], p_nb[1])):
                raise UnresolvedTopology("edge-aligned interface runs along the domain boundary")
            records.append((a, b, int(mesh.locate(*p_host)), True, int(mesh.locate(*p_nb))))
        else:
            host = int(mesh.locate(pm[0], pm[1]))
            box = mesh.element_box(host)
            pad = 10.0 * tol_geo + tol_edge
            ok = ((p_check[:, 0] >= box[0] - pad) & (p_check[:, 0] <= box[2] + pad)
                  & (p_check[:, 1] >= box[1] - pad) & (p_check[:, 1] <= box[3] + pad))
            if not np.all(ok):
                raise TangencyUnresolved(
                    f"interval [{a:.6g},{b:.6g}] leaves element {host} without a "
                    "bracketed crossing; refine the mesh"
                )
            records.append((a, b, host, False, host))
    if any_outside and any_inside:
        raise UnresolvedTopology("curve crosses the domain boundary; unsupported")
    if not any_inside:
        return geometry.CutTopology(mesh, curve, *geometry._label_by_centre(mesh, curve), ())
    if curve.closed and not merged:
        raise UnresolvedTopology(
            "closed curve never crosses a mesh line (interior loop inside one element); refine the mesh"
        )

    joined = []
    for rec in records:
        if joined and joined[-1][2:4] == rec[2:4] and abs(joined[-1][1] - rec[0]) <= t_dedupe:
            prev = joined.pop()
            rec = (prev[0], rec[1], prev[2], prev[3], prev[4])
        joined.append(rec)
    if curve.closed and len(joined) >= 2:
        first, last = joined[0], joined[-1]
        if first[2:4] == last[2:4] and abs((last[1] % curve.period) - first[0]) <= t_dedupe:
            joined = joined[1:-1] + [(last[0], last[1] + (first[1] - first[0]), last[2], last[3], last[4])]
    if curve.closed and len(joined) == 1:
        raise UnresolvedTopology(
            f"closed curve lies inside element {joined[0][2]}, touching its boundary only; refine the mesh"
        )
    seen = {}
    for rec in joined:
        seen[rec[2]] = seen.get(rec[2], 0) + 1
    bad = [k for k, c in seen.items() if c > 1]
    if bad:
        raise MultiIntersection(f"element(s) {bad} meet the curve in more than two boundary points; refine the mesh")

    labels, fractions = geometry._label_by_centre(mesh, curve)
    inner = [rec for rec in joined if not rec[3]]
    f_side1 = iter(geometry._side1_fractions(
        mesh, curve, np.array([r[0] for r in inner]), np.array([r[1] for r in inner]),
        np.array([r[2] for r in inner], dtype=np.int64)).tolist())
    segments, dropped = [], 0.0
    for a, b, host, on_edge, nb in joined:
        if not on_edge:
            f1 = next(f_side1)
            if f1 < geometry.SLIVER_FRACTION or (1.0 - f1) < geometry.SLIVER_FRACTION:
                dropped += curve.arclength(a, b)
                continue
            labels[host] = 0
            fractions[host] = (f1, 1.0 - f1)
        segments.append(geometry.InterfaceSegment(host, a, b, on_edge, nb))
    segments = tuple(dataclasses.replace(s, analysis_side=_corner_walk_side(s, mesh, curve)) for s in segments)
    if not curve.closed:
        for t in (0.0, curve.period):
            x, y = curve.point(t)
            if dom.contains(x, y, tol=-tol_geo) or not dom.contains(x, y, tol=tol_geo):
                ends = curve.point(np.array([0.0, curve.period]))
                raise UnresolvedTopology(
                    f"open curve ends at {ends[0].tolist()} and {ends[1].tolist()}, not both on the "
                    "domain boundary; unsupported"
                )
    return geometry.CutTopology(mesh, curve, labels, fractions, segments, dropped_arclength=dropped)


def _outcome(classify, curve, nx):
    try:
        return _topology_bits(classify(build_mesh(BIUNIT, nx, nx), curve))
    except GeometryError as exc:
        return type(exc).__name__, str(exc)


def _grid_tangent_conics(nx):
    """Circles touching each interior grid line from either side, and
    ellipses touching it from the left or from below: the inputs that reach
    the grazing merge and the merge across t = period."""
    for v in (-1.0 + 2.0 * np.arange(1, nx) / nx).tolist():
        for r, off in ((0.2, 0.0), (0.3, 0.013), (0.45, -0.021)):
            yield Circle(v - r, off, r), Circle(v + r, off, r), Ellipse(v - r, off, r, 0.7 * r)
            yield Circle(off, v - r, r), Circle(off, v + r, r), Ellipse(off, v - r, 0.8 * r, r)


LOOP_CASES = (
    [(c, nx) for _, c, nx in CROSSING_CASES[:10]]
    + [(Circle(0.0625, 0.0625, 0.0625), 8), (Circle(0.125, 0.125, 0.125), 8), (Circle(-0.3, 0.013, 0.3), 4)]
    + [(VerticalLine(x0, -1.0, 1.0), 8) for x0 in (-1.0, -1.0 + 1e-11, 0.25, 0.3, 1.0 - 1e-11)]
    + [(VerticalLine(0.0, -0.5, 0.5), 8), (VerticalLine(0.0, -1.0, 0.5), 8), (Circle(0.9, 0.0, 0.5), 8)]
    + [(c, nx) for nx in (4, 8) for group in _grid_tangent_conics(nx) for c in group]
)


def test_array_passes_match_the_interval_loop():
    outcomes = [(_outcome(classify_elements, c, nx), _outcome(_loop_classify, c, nx)) for c, nx in LOOP_CASES]
    assert [got for got, _ in outcomes] == [want for _, want in outcomes]
    kinds = {got[0] if isinstance(got[0], str) else "ok" for got, _ in outcomes}
    # every branch the inputs are there for is reached
    assert kinds == {"ok", "UnresolvedTopology", "MultiIntersection"}
