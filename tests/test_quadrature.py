import dataclasses

import numpy as np
import pytest

from ipfem.cases import catalog
from ipfem.geometry import (
    Circle,
    Ellipse,
    VerticalLine,
    boundary_chains_ccw,
    classify_elements,
)
from ipfem.mesh import Rectangle, build_mesh
from ipfem.quadrature import (
    DegenerateSliver,
    QuadratureError,
    _wrong_side,
    cut_cell_rule,
    gauss_1d,
    segment_rule,
    tensor_gauss,
)

from oracles import monomial_pairs, oracle_side_monomials, scalar_boundary_chain

BIUNIT = Rectangle(-1.0, -1.0, 1.0, 1.0)


def test_gauss_small_rules():
    g1 = gauss_1d(1)
    assert np.allclose(g1.points, [0.0])
    assert np.allclose(g1.weights, [2.0])
    g2 = gauss_1d(2)
    assert np.allclose(np.sort(g2.points), [-1 / np.sqrt(3), 1 / np.sqrt(3)])
    assert np.allclose(g2.weights, [1.0, 1.0])


def test_gauss_rules_are_leggauss_bits_and_self_tested(monkeypatch):
    import ipfem.quadrature as quadrature

    for n in range(1, 13):
        x, w = np.polynomial.legendre.leggauss(n)
        g = gauss_1d(n)
        assert g.points.tobytes() == x.tobytes() and g.weights.tobytes() == w.tobytes()
    # a wrong node set fails the rule's exactness self-test
    monkeypatch.setattr(quadrature, "_gauss_legendre", lambda n: (np.linspace(-0.9, 0.9, n), np.full(n, 2.0 / n)))
    with pytest.raises(QuadratureError, match="monomial"):
        gauss_1d.__wrapped__(4)


def test_gauss_exactness_degree_eight():
    g5 = gauss_1d(5)
    val = float(np.dot(g5.weights, g5.points**8))
    assert val == pytest.approx(2.0 / 9.0, abs=1e-14)


def test_rule_weight_sums():
    assert gauss_1d(7).weights.sum() == pytest.approx(2.0, rel=1e-14)
    assert tensor_gauss(4).weights.sum() == pytest.approx(4.0, rel=1e-14)


def test_invalid_requests():
    with pytest.raises(ValueError):
        gauss_1d(0)
    mesh = build_mesh(BIUNIT, 8, 8)
    top = classify_elements(mesh, Circle(0.0, 0.0, 0.6))
    pure = int(np.flatnonzero(top.labels != 0)[0])
    with pytest.raises(ValueError):
        cut_cell_rule(top, pure, 1, order=4)
    cut = int(top.cut_elements[0])
    with pytest.raises(ValueError):
        cut_cell_rule(top, cut, 3, order=4)


def test_degenerate_sliver_rejected():
    mesh = build_mesh(BIUNIT, 8, 8)
    top = classify_elements(mesh, Circle(0.0, 0.0, 0.6))
    cut = int(top.cut_elements[0])
    fr = top.fractions.copy()
    fr[cut] = (1e-15, 1.0 - 1e-15)
    doctored = dataclasses.replace(top, fractions=fr)
    with pytest.raises(DegenerateSliver):
        cut_cell_rule(doctored, cut, 1, order=4)


def test_disk_area_and_sides_partition():
    mesh = build_mesh(BIUNIT, 8, 8)
    curve = Circle(0.0, 0.0, 0.6)
    top = classify_elements(mesh, curve)
    area1 = 0.0
    for e in top.cut_elements:
        r1 = cut_cell_rule(top, int(e), 1, order=6)
        r2 = cut_cell_rule(top, int(e), 2, order=6)
        assert np.all(r1.weights > 0) and np.all(r2.weights > 0)
        cell_area = mesh.dx * mesh.dy
        assert r1.weights.sum() + r2.weights.sum() == pytest.approx(
            cell_area, rel=1e-12
        )
        area1 += r1.weights.sum()
    area1 += float((top.labels == 1).sum()) * mesh.dx * mesh.dy
    assert area1 == pytest.approx(np.pi * 0.36, rel=1e-10)


def test_points_inside_requested_side():
    mesh = build_mesh(BIUNIT, 16, 16)
    curve = Ellipse(0.1, -0.05, 0.55, 0.35)
    top = classify_elements(mesh, curve)
    for e in top.cut_elements:
        for side in (1, 2):
            rule = cut_cell_rule(top, int(e), side, order=4)
            d = curve.signed_distance(rule.points[:, 0], rule.points[:, 1])
            assert np.all(d < 0) if side == 1 else np.all(d > 0)
            x0, y0, x1, y1 = mesh.element_box(int(e))
            pad = 1e-8
            assert np.all(rule.points[:, 0] >= x0 - pad)
            assert np.all(rule.points[:, 0] <= x1 + pad)
            assert np.all(rule.points[:, 1] >= y0 - pad)
            assert np.all(rule.points[:, 1] <= y1 + pad)


def test_circumference_and_symmetry():
    mesh = build_mesh(BIUNIT, 8, 8)
    radius = 0.6
    curve = Circle(0.0, 0.0, radius)
    top = classify_elements(mesh, curve)
    circ = 0.0
    moment_x = 0.0
    for seg in top.segments:
        rule = segment_rule(seg, curve, 10)
        assert np.all(rule.weights > 0)
        circ += rule.weights.sum()
        moment_x += float(rule.weights @ rule.points[:, 0])
    assert circ == pytest.approx(2 * np.pi * radius, rel=1e-12)
    assert moment_x == pytest.approx(0.0, abs=1e-12)


def test_straight_edge_segment_exact_length():
    mesh = build_mesh(BIUNIT, 8, 8)
    top = classify_elements(mesh, VerticalLine(0.0, -1.0, 1.0))
    for seg in top.segments:
        rule = segment_rule(seg, top.curve, 4)
        assert rule.weights.sum() == pytest.approx(mesh.dy, rel=1e-14)


@pytest.mark.parametrize(
    "curve",
    [Circle(0.0, 0.0, 0.6), Ellipse(0.07, -0.06, 0.52, 0.33)],
    ids=["circle", "ellipse"],
)
@pytest.mark.parametrize("nx", [8, 16, 32])
def test_monomials_match_subdivision_oracle(curve, nx):
    mesh = build_mesh(BIUNIT, nx, nx)
    top = classify_elements(mesh, curve)
    pairs = monomial_pairs(2)
    for e in top.cut_elements:
        box = mesh.element_box(int(e))
        cell_area = mesh.dx * mesh.dy
        for side in (1, 2):
            rule = cut_cell_rule(top, int(e), side, order=6)
            want = oracle_side_monomials(curve, box, side, 2, depth=1)
            for a, b in pairs:
                got = float(rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b))
                scale = max(abs(want[(a, b)]), cell_area)
                assert abs(got - want[(a, b)]) <= 1e-9 * scale, (e, side, a, b)


def test_oracle_depth_stability():
    curve = Circle(0.0, 0.0, 0.6)
    mesh = build_mesh(BIUNIT, 8, 8)
    top = classify_elements(mesh, curve)
    e = int(top.cut_elements[3])
    box = mesh.element_box(e)
    shallow = oracle_side_monomials(curve, box, 1, 2, depth=1)
    deep = oracle_side_monomials(curve, box, 1, 2, depth=2)
    for key in shallow:
        assert abs(shallow[key] - deep[key]) <= 1e-12 * max(1.0, abs(deep[key]))


# ---------------------------------------------------------------------------
# The per-rule builder that the batched ``cut_cell_rule`` replaced, kept as
# the oracle: one (element, side) at a time, a linear segment search, the
# scalar boundary walk, and one loft object per sub-cell.


def _oracle_segment(topology, element):
    for seg in topology.segments:
        if not seg.on_edge and seg.element == element:
            return seg
    return None


class _Loft:
    def __init__(self, bottom, bottom_d, top0, top1):
        self.bottom = bottom
        self.bottom_d = bottom_d
        self.top0 = np.asarray(top0, dtype=float)
        self.top1 = np.asarray(top1, dtype=float)

    def map(self, s, u):
        b = self.bottom(s)
        top = np.outer(1.0 - s, self.top0) + np.outer(s, self.top1)
        return (1.0 - u)[:, None] * b + u[:, None] * top

    def jacobian_det(self, s, u):
        b = self.bottom(s)
        db = self.bottom_d(s)
        top = np.outer(1.0 - s, self.top0) + np.outer(s, self.top1)
        dxds = (1.0 - u)[:, None] * db + u[:, None] * (self.top1 - self.top0)[None, :]
        dxdu = top - b
        return dxds[:, 0] * dxdu[:, 1] - dxds[:, 1] * dxdu[:, 0]


def _straight(p0, p1):
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)

    def bottom(s):
        return np.outer(1.0 - s, p0) + np.outer(s, p1)

    def bottom_d(s):
        return np.broadcast_to(p1 - p0, (len(np.atleast_1d(s)), 2)).copy()

    return bottom, bottom_d


def _polygon_lofts(vertices):
    v = [np.asarray(p, dtype=float) for p in vertices]
    if len(v) < 3:
        return []
    if len(v) == 3:
        return [_Loft(*_straight(v[0], v[1]), v[2], v[2])]
    if len(v) == 4:
        return [_Loft(*_straight(v[0], v[1]), v[3], v[2])]
    raise QuadratureError(f"unexpected polygon with {len(v)} vertices")


def _sub_curve(gamma, gamma_d, s0, s1):
    def g(s):
        return gamma(s0 + np.asarray(s) * (s1 - s0))

    def gd(s):
        return gamma_d(s0 + np.asarray(s) * (s1 - s0)) * (s1 - s0)

    return g, gd


def _strip_lofts(gamma, gamma_d, start, end, chain):
    nodes = [np.asarray(start, float)] + [np.asarray(c, float) for c in reversed(chain)]
    nodes.append(np.asarray(end, float))
    lengths = np.array([np.linalg.norm(b - a) for a, b in zip(nodes[:-1], nodes[1:])])
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    total = cum[-1]
    cells = []
    for k in range(len(nodes) - 1):
        if lengths[k] == 0.0:
            continue
        g, gd = _sub_curve(gamma, gamma_d, cum[k] / total, cum[k + 1] / total)
        cells.append(_Loft(g, gd, nodes[k], nodes[k + 1]))
    return cells


def _region_decompositions(topology, element, side):
    mesh, curve = topology.mesh, topology.curve
    seg = _oracle_segment(topology, element)
    if seg is None:
        raise ValueError(f"element {element} is not cut")
    t0, t1 = (seg.t_lo, seg.t_hi) if side == 1 else (seg.t_hi, seg.t_lo)

    def gamma(s):
        return curve.point(t0 + np.asarray(s) * (t1 - t0))

    def gamma_d(s):
        return curve.tangent(t0 + np.asarray(s) * (t1 - t0)) * (t1 - t0)

    start = curve.point(t0)
    end = curve.point(t1)
    chain = scalar_boundary_chain(mesh.element_box(element), end, start, tol=1e-9 * mesh.h)
    m = len(chain)
    candidates = []
    if m == 0:
        candidates.append([_Loft(gamma, gamma_d, start, end)])
    elif m == 2:
        candidates.append([_Loft(gamma, gamma_d, chain[1], chain[0])])
    else:
        for shift in range(m):
            idx = ((m - 1) // 2 + shift) % m
            if idx + 2 > 4 or m - idx + 1 > 4:  # a straight part of 5 or more vertices
                continue
            anchor = chain[idx]
            cells = [_Loft(gamma, gamma_d, anchor, anchor)]
            cells += _polygon_lofts([end, *chain[:idx], anchor])
            cells += _polygon_lofts([anchor, *chain[idx + 1 :], start])
            candidates.append(cells)
    if m >= 1:
        candidates.append(_strip_lofts(gamma, gamma_d, start, end, chain))
    return candidates


def _oracle_verify_side(points, curve, side, h):
    d = np.asarray(curve.signed_distance(points[:, 0], points[:, 1]), dtype=float)
    near = np.abs(d) < 1e-13
    if np.any(near):
        gx, gy = curve.distance_gradient(points[near, 0], points[near, 1])
        shift = 1e-12 * h * (-1.0 if side == 1 else 1.0)
        points = points.copy()
        points[near, 0] += shift * gx
        points[near, 1] += shift * gy
        d = np.asarray(curve.signed_distance(points[:, 0], points[:, 1]), dtype=float)
    wrong = int(np.sum(d >= 0.0)) if side == 1 else int(np.sum(d <= 0.0))
    return points, wrong


def _oracle_rule(topology, element, side, order):
    """(points, weights, index of the candidate used) of one side."""
    if side not in (1, 2):
        raise ValueError(f"side must be 1 or 2, got {side}")
    if order < 1:
        raise ValueError("order must be >= 1")
    if topology.labels[element] != 0:
        raise ValueError(f"element {element} is pure, no cut rule to build")
    if topology.fractions[element, side - 1] < 1e-12:
        raise DegenerateSliver(
            f"element {element} side {side} fraction {topology.fractions[element, side - 1]:.3e}"
        )
    g = gauss_1d(order + 2)
    s01 = 0.5 * (g.points + 1.0)
    w01 = 0.5 * g.weights
    squ, uqu = np.meshgrid(s01, s01, indexing="ij")
    wq = np.outer(w01, w01).ravel()
    squ = squ.ravel()
    uqu = uqu.ravel()
    last_err = None
    for k, cells in enumerate(_region_decompositions(topology, element, side)):
        pts_all, w_all = [], []
        for cell in cells:
            detj = cell.jacobian_det(squ, uqu)
            if np.any(detj <= 0.0):
                last_err = "nonpositive jacobian in a sub-cell"
                break
            pts_all.append(cell.map(squ, uqu))
            w_all.append(wq * detj)
        else:
            points, bad = _oracle_verify_side(np.vstack(pts_all), topology.curve, side, topology.mesh.h)
            if not bad:
                return points, np.concatenate(w_all), k
            last_err = f"{bad} node(s) on the wrong side"
    raise QuadratureError(
        f"cut rule for element {element} side {side} failed: {last_err}; the "
        "curve is likely (near-)tangent to a mesh line inside this element, "
        "pinching the region -- refine or shift the mesh"
    )


def _positive_sides(top):
    pairs = [(int(e), s) for e in top.cut_elements for s in (1, 2) if top.fractions[e, s - 1] > 0.0]
    return np.array([e for e, _ in pairs], dtype=np.int64), np.array([s for _, s in pairs], dtype=np.int64)


def _first_oracle_error(top, elements, sides, order):
    for e, s in zip(elements, sides):
        try:
            _oracle_rule(top, e, s, order)
        except Exception as exc:  # noqa: BLE001 - the class is compared
            return type(exc), str(exc)
    return None


# perfbench's h-sweep seed-1 ellipse
SEED1_ELLIPSE = Ellipse(0.0023643249400513433, 0.09009273926518707, 0.49324788381589013, 0.7067521161841098)
# inputs whose rules take the strip fallback: (curve, nx, (element, side) pairs that do)
STRIP_CASES = [
    (Circle(0.21787212251359062, 0.22878430364261387, 0.40642390332618716), 3, [(4, 2)]),
    (
        Ellipse(-1.087053655260406e-05, 0.09763899171305929, 0.7736961651870667, 0.10419894914740759),
        27,
        [(381, 2), (401, 2)],
    ),
]
ORACLE_CASES = (
    [(f"{c.name}-{nx}", c.curve, nx) for c in catalog().values() for nx in (8, 16, 32)]
    + [(f"perfbench-seed1-ellipse-{nx}", SEED1_ELLIPSE, nx) for nx in (24, 64, 128)]
    + [(f"strip-{nx}", curve, nx) for curve, nx, _ in STRIP_CASES]
)


@pytest.mark.parametrize("curve,nx", [(c, nx) for _, c, nx in ORACLE_CASES], ids=[n for n, _, _ in ORACLE_CASES])
def test_batched_rules_match_per_rule_oracle(curve, nx):
    top = classify_elements(build_mesh(BIUNIT, nx, nx), curve)
    elements, sides = _positive_sides(top)
    strips = {(e, s) for c, n, pairs in STRIP_CASES if c is curve and n == nx for e, s in pairs}
    used_strip = set()
    for order in (3, 4, 5, 6):
        rules = cut_cell_rule(top, elements, sides, order) if len(elements) else ()
        assert len(rules) == len(elements)
        for rule, e, s in zip(rules, elements, sides):
            points, weights, k = _oracle_rule(top, e, s, order)
            assert (rule.element, rule.side) == (e, s)
            assert rule.points.tobytes() == points.tobytes()
            assert rule.weights.tobytes() == weights.tobytes()
            if k == len(_region_decompositions(top, e, s)) - 1 and k > 0:
                used_strip.add((int(e), int(s)))
        if len(elements):
            one = cut_cell_rule(top, int(elements[-1]), int(sides[-1]), order)
            assert one.points.tobytes() == rules[-1].points.tobytes()
            assert one.weights.tobytes() == rules[-1].weights.tobytes()
    assert used_strip == strips


def test_boundary_chains_match_scalar_walk():
    for curve, nx in [(Circle(0.0, 0.0, 0.6), 8), (SEED1_ELLIPSE, 24)] + [(c, n) for c, n, _ in STRIP_CASES]:
        mesh = build_mesh(BIUNIT, nx, nx)
        top = classify_elements(mesh, curve)
        segs = [s for s in top.segments if not s.on_edge]
        boxes = np.array([mesh.element_box(s.element) for s in segs])
        a = curve.point(np.array([s.t_lo for s in segs]))
        b = curve.point(np.array([s.t_hi for s in segs]))
        tol = 1e-9 * mesh.h
        for p_from, p_to in ((a, b), (b, a)):
            _check_chains(boxes, p_from, p_to, tol)
    # a full walk (equal end points), corners as end points, points on each edge
    box = np.array([[-0.5, 0.25, 0.75, 1.0]])
    on_edges = np.array([[0.1, 0.25], [0.75, 0.5], [0.0, 1.0], [-0.5, 0.3], [-0.5, 0.25], [0.75, 1.0]])
    p_from = np.repeat(on_edges, len(on_edges), axis=0)
    p_to = np.tile(on_edges, (len(on_edges), 1))
    _check_chains(np.repeat(box, len(p_from), axis=0), p_from, p_to, 1e-9)


def _check_chains(boxes, p_from, p_to, tol):
    corners, m = boundary_chains_ccw(boxes, p_from, p_to, tol)
    for k, box in enumerate(boxes):
        want = scalar_boundary_chain(tuple(box), p_from[k], p_to[k], tol)
        assert m[k] == len(want)
        assert corners[k, : m[k]].tobytes() == np.array(want).reshape(-1, 2).tobytes()


def test_side_check_nudges_like_the_oracle():
    curve = Circle(0.1, -0.2, 0.55)
    t = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
    on = curve.point(t)  # within ~1e-16 of the curve: nudged
    inward = 0.999 * (on - curve.center) + curve.center
    outward = 1.001 * (on - curve.center) + curve.center
    # four "rules" of 40 nodes: (side, nodes)
    rules = [(1, np.vstack([on[:20], inward[:20]])), (2, np.vstack([on[20:], outward[20:]])), (1, outward), (2, on)]
    x, y = np.vstack([nodes for _, nodes in rules]).T.copy()
    sides = np.repeat([side for side, _ in rules], 40)
    h = 0.1
    wrong = _wrong_side(x, y, curve, sides, h)
    points = np.column_stack([x, y])
    for k, (side, nodes) in enumerate(rules):
        want_points, want_wrong = _oracle_verify_side(nodes, curve, side, h)
        assert points[40 * k : 40 * (k + 1)].tobytes() == want_points.tobytes()
        assert int(wrong[40 * k : 40 * (k + 1)].sum()) == want_wrong
    assert [int(wrong[40 * k : 40 * (k + 1)].sum()) for k in range(4)] == [0, 0, 40, 0]


# inputs the builder rejects: a pinched cell (fan lofts fold over) and a
# pinched cell with a node on the wrong side
FAILING_CASES = [
    ("folded", Circle(0.05478693439592891, -0.43904253161810863, 0.18903662243193112), 8, 3),
    ("wrong-side", Circle(-0.19415298938842215, -0.27850958256949393, 0.27850551260515966), 6, 6),
]


@pytest.mark.parametrize("curve,nx,order", [c[1:] for c in FAILING_CASES], ids=[c[0] for c in FAILING_CASES])
def test_failing_batch_raises_the_first_oracle_error(curve, nx, order):
    top = classify_elements(build_mesh(BIUNIT, nx, nx), curve)
    elements, sides = _positive_sides(top)
    want = _first_oracle_error(top, elements, sides, order)
    assert want is not None and want[0] is QuadratureError
    with pytest.raises(QuadratureError) as info:
        cut_cell_rule(top, elements, sides, order)
    assert (type(info.value), str(info.value)) == want


def test_one_edge_cut_side_integrates():
    # the curve enters and leaves elements 6 and 10 through one edge, so side
    # 2 keeps all four corners: two compact candidates plus the strip
    curve = Circle(0.16197230836186927, 0.09978879811603719, 0.10927821626722603)
    mesh = build_mesh(BIUNIT, 4, 4)
    top = classify_elements(mesh, curve)
    elements, sides = np.array([6, 10]), np.array([2, 2])
    rules = cut_cell_rule(top, elements, sides, 4)
    for rule, e in zip(rules, elements):
        assert len(_region_decompositions(top, e, 2)) == 3
        x0, y0, x1, y1 = mesh.element_box(e)
        area = (x1 - x0) * (y1 - y0)
        assert abs(rule.weights.sum() - top.fractions[e, 1] * area) <= 1e-13 * area
        assert np.all(rule.weights > 0.0)
        points, weights, _ = _oracle_rule(top, e, 2, 4)
        assert rule.points.tobytes() == points.tobytes()
        assert rule.weights.tobytes() == weights.tobytes()


def test_doctored_sliver_in_a_batch_raises_like_the_oracle():
    mesh = build_mesh(BIUNIT, 8, 8)
    top = classify_elements(mesh, Circle(0.0, 0.0, 0.6))
    elements, sides = _positive_sides(top)
    fr = top.fractions.copy()
    fr[elements[5]] = (1e-15, 1.0 - 1e-15)
    doctored = dataclasses.replace(top, fractions=fr)
    want = _first_oracle_error(doctored, elements, sides, 4)
    assert want is not None and want[0] is DegenerateSliver
    with pytest.raises(DegenerateSliver) as info:
        cut_cell_rule(doctored, elements, sides, 4)
    assert str(info.value) == want[1]
    # a sliver requested after a pinched rule: the pinched rule's error wins
    pinched = classify_elements(build_mesh(BIUNIT, 8, 8), FAILING_CASES[0][1])
    e_p, s_p = (a[::-1] for a in _positive_sides(pinched))
    fr = pinched.fractions.copy()
    fr[e_p[-1]] = (1e-15, 1.0 - 1e-15)
    both = dataclasses.replace(pinched, fractions=fr)
    want = _first_oracle_error(both, e_p, s_p, 3)
    assert want[0] is QuadratureError
    with pytest.raises(QuadratureError) as info:
        cut_cell_rule(both, e_p, s_p, 3)
    assert (type(info.value), str(info.value)) == want


def _first_failing_monomial(points, weights, order):
    """Message of the first monomial, in (a, b) order, that a rule fails,
    from a loop over the monomials with one dot product each; None if none."""
    if points.ndim == 1:
        for k in range(order + 1):
            got = float(np.dot(weights, points**k))
            want = 0.0 if k % 2 else 2.0 / (k + 1)
            if abs(got - want) > 1e-13 * max(1.0, abs(want)):
                return f"1D rule fails monomial x^{k}: {got} vs {want}"
        return None
    x, y = points[:, 0], points[:, 1]
    for a in range(order + 1):
        for b in range(order + 1 - a):
            got = float(np.dot(weights, x**a * y**b))
            want = (0.0 if a % 2 else 2.0 / (a + 1)) * (0.0 if b % 2 else 2.0 / (b + 1))
            if abs(got - want) > 1e-13 * max(1.0, abs(want)):
                return f"tensor rule fails monomial x^{a} y^{b}: {got} vs {want}"
    return None


@pytest.mark.parametrize("rule", ["1d-4", "1d-22", "tensor-3", "tensor-12"])
@pytest.mark.parametrize("perturbation", ["scale", "x", "y", "random"])
def test_self_test_reports_the_first_monomial_a_perturbed_rule_fails(rule, perturbation):
    # weights perturbed by 1e-12 (relative) fail the exactness check; the
    # weighted-product check raises the message of the first failing monomial
    # of a monomial-by-monomial loop.  An x (y) perturbation keeps every
    # monomial of degree 0 in x (in y) exact, so the first failure is x^1
    # (x^0 y^1 in a tensor rule), later in (a, b) order.
    from ipfem.quadrature import QuadRule

    kind, n = rule.split("-")
    good = gauss_1d(int(n)) if kind == "1d" else tensor_gauss(int(n))
    points = np.array(good.points)
    x = points if kind == "1d" else points[:, 0]
    y = x if kind == "1d" else points[:, 1]
    factor = {
        "scale": np.ones(len(x)),
        "x": x,
        "y": y,
        "random": np.random.default_rng(int(n)).standard_normal(len(x)),
    }[perturbation]
    weights = good.weights * (1.0 + 1e-12 * factor)
    want = _first_failing_monomial(points, weights, good.order)
    assert want is not None
    with pytest.raises(QuadratureError) as info:
        QuadRule(points=points, weights=weights, order=good.order)
    assert str(info.value) == want
    assert _first_failing_monomial(points, np.array(good.weights), good.order) is None
