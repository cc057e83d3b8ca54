import dataclasses

import numpy as np
import pytest

from ipfem.geometry import Circle, Ellipse, VerticalLine, classify_elements
from ipfem.mesh import Rectangle, build_mesh
from ipfem.quadrature import (
    DegenerateSliver,
    cut_cell_rule,
    gauss_1d,
    segment_rule,
    tensor_gauss,
)

from oracles import monomial_pairs, oracle_side_monomials

BIUNIT = Rectangle(-1.0, -1.0, 1.0, 1.0)


def test_gauss_small_rules():
    g1 = gauss_1d(1)
    assert np.allclose(g1.points, [0.0])
    assert np.allclose(g1.weights, [2.0])
    g2 = gauss_1d(2)
    assert np.allclose(np.sort(g2.points), [-1 / np.sqrt(3), 1 / np.sqrt(3)])
    assert np.allclose(g2.weights, [1.0, 1.0])


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
