"""Reference Gauss rules, arc-length rules on interface segments, and
high-order quadrature on the curved parts of cut elements.

A cut element side is decomposed into at most three sub-cells: one cell with
the interface as a curved edge (a fan from an anchor corner, or a crescent
when both crossings sit on the same element edge) plus up to two straight
triangles/quadrilaterals.  Each sub-cell carries a blended (transfinite) map
pulling back a tensor Gauss rule, so geometric accuracy does not cap the hp
convergence the way straight sub-triangles would.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geometry import CutTopology, boundary_chain_ccw


class QuadratureError(Exception):
    """Cut-cell rule construction failed its own certification."""


class DegenerateSliver(QuadratureError):
    """Requested side of a cut element has (near-)zero area."""


@dataclass(frozen=True, eq=False)
class QuadRule:
    """Reference quadrature rule; weights sum to the reference measure."""

    points: np.ndarray  # (n,) for 1D rules, (n, 2) for tensor rules
    weights: np.ndarray
    order: int  # exactness degree

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)
        _self_test(self)

    @property
    def dim(self) -> int:
        return 1 if self.points.ndim == 1 else self.points.shape[1]


def _self_test(rule: QuadRule):
    """Verify exactness on monomials up to the declared order."""
    if rule.dim == 1:
        for k in range(rule.order + 1):
            got = float(np.dot(rule.weights, rule.points**k))
            want = 0.0 if k % 2 else 2.0 / (k + 1)
            if abs(got - want) > 1e-13 * max(1.0, abs(want)):
                raise QuadratureError(f"1D rule fails monomial x^{k}: {got} vs {want}")
    else:
        x, y = rule.points[:, 0], rule.points[:, 1]
        for a in range(rule.order + 1):
            for b in range(rule.order + 1 - a):
                got = float(np.dot(rule.weights, x**a * y**b))
                wa = 0.0 if a % 2 else 2.0 / (a + 1)
                wb = 0.0 if b % 2 else 2.0 / (b + 1)
                want = wa * wb
                if abs(got - want) > 1e-13 * max(1.0, abs(want)):
                    raise QuadratureError(
                        f"tensor rule fails monomial x^{a} y^{b}: {got} vs {want}"
                    )


@functools.lru_cache(maxsize=64)
def gauss_1d(n: int) -> QuadRule:
    """n-point Gauss-Legendre rule on [-1, 1], exact to degree 2n-1."""
    if n < 1:
        raise ValueError("point count must be >= 1")
    x, w = leggauss(n)
    return QuadRule(points=x, weights=w, order=2 * n - 1)


@functools.lru_cache(maxsize=64)
def tensor_gauss(n: int) -> QuadRule:
    """Tensor product of two n-point Gauss rules on [-1, 1]^2."""
    g = gauss_1d(n)
    xi, eta = np.meshgrid(g.points, g.points, indexing="ij")
    w = np.outer(g.weights, g.weights)
    pts = np.column_stack([xi.ravel(), eta.ravel()])
    return QuadRule(points=pts, weights=w.ravel(), order=2 * n - 1)


@dataclass(frozen=True, eq=False)
class SegmentRule:
    """Physical quadrature along one interface segment with arc-length weights."""

    params: np.ndarray  # curve parameters of the nodes
    points: np.ndarray  # (n, 2)
    weights: np.ndarray  # positive, sum ~ segment arc length
    normals: np.ndarray  # (n, 2) unit normals, side 1 -> side 2


def segment_rule(segment, curve, npoints: int) -> SegmentRule:
    """Gauss rule on r([t_lo, t_hi]) with weights w_g * |r'| * interval/2."""
    g = gauss_1d(int(npoints))
    half = 0.5 * (segment.t_hi - segment.t_lo)
    tq = segment.t_mid + half * g.points
    dr = curve.tangent(tq)
    speed = np.linalg.norm(dr, axis=-1)
    return SegmentRule(
        params=tq,
        points=curve.point(tq),
        weights=g.weights * speed * half,
        normals=curve.normal(tq),
    )


@dataclass(frozen=True, eq=False)
class CutCellRule:
    """Positive-weight rule over one side of a cut element, in physical space."""

    element: int
    side: int
    points: np.ndarray  # (n, 2)
    weights: np.ndarray


class _Loft:
    """Blended map on [0,1]^2 between a (possibly curved) bottom edge and a
    straight top edge; top may degenerate to a point (fan apex)."""

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


def _polygon_cells(vertices):
    """Straight cells for a small ccw polygon (3 or 4 vertices)."""
    v = [np.asarray(p, dtype=float) for p in vertices]
    if len(v) < 3:
        return []
    if len(v) == 3:
        b, bd = _straight(v[0], v[1])
        return [_Loft(b, bd, v[2], v[2])]
    if len(v) == 4:
        b, bd = _straight(v[0], v[1])
        return [_Loft(b, bd, v[3], v[2])]
    raise QuadratureError(f"unexpected polygon with {len(v)} vertices")


def _sub_curve(gamma, gamma_d, s0, s1):
    def g(s):
        return gamma(s0 + np.asarray(s) * (s1 - s0))

    def gd(s):
        return gamma_d(s0 + np.asarray(s) * (s1 - s0)) * (s1 - s0)

    return g, gd


def _strip_cells(gamma, gamma_d, start, end, chain):
    """Fallback decomposition: loft each curve sub-piece onto the matching
    edge of the straight boundary polyline (robust for thin regions hugging a
    strongly curved arc, where fans from a corner fold over)."""
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


def _region_decompositions(topology: CutTopology, element: int, side: int):
    """Candidate sub-cell decompositions of one side of a cut element, the
    compact one (curved cell plus at most two straight cells) first."""
    mesh, curve = topology.mesh, topology.curve
    seg = topology.segment_for(element)
    if seg is None:
        raise ValueError(f"element {element} is not cut")
    if side == 1:
        t0, t1 = seg.t_lo, seg.t_hi
    else:
        t0, t1 = seg.t_hi, seg.t_lo

    def gamma(s):
        return curve.point(t0 + np.asarray(s) * (t1 - t0))

    def gamma_d(s):
        return curve.tangent(t0 + np.asarray(s) * (t1 - t0)) * (t1 - t0)

    start = curve.point(t0)
    end = curve.point(t1)
    box = mesh.element_box(element)
    chain = boundary_chain_ccw(box, end, start, tol=1e-9 * mesh.h)
    m = len(chain)

    candidates = []
    if m == 0:
        candidates.append([_Loft(gamma, gamma_d, start, end)])
    elif m == 2:
        candidates.append([_Loft(gamma, gamma_d, chain[1], chain[0])])
    else:
        for shift in range(m):
            idx = ((m - 1) // 2 + shift) % m
            anchor = chain[idx]
            cells = [_Loft(gamma, gamma_d, anchor, anchor)]
            cells += _polygon_cells([end, *chain[:idx], anchor])
            cells += _polygon_cells([anchor, *chain[idx + 1 :], start])
            candidates.append(cells)
    if m >= 1:
        candidates.append(_strip_cells(gamma, gamma_d, start, end, chain))
    return candidates


def cut_cell_rule(topology: CutTopology, element: int, side: int, order: int) -> CutCellRule:
    """Quadrature over K ∩ Ω_side for a cut element.

    Uses (order+2)^2 Gauss points per sub-cell.  All weights are positive and
    every node is verified to lie strictly on the requested side (nodes within
    1e-13 of the curve are first nudged off it along the distance gradient).
    """
    mesh, curve = topology.mesh, topology.curve
    if side not in (1, 2):
        raise ValueError(f"side must be 1 or 2, got {side}")
    if order < 1:
        raise ValueError("order must be >= 1")
    if topology.labels[element] != 0:
        raise ValueError(f"element {element} is pure, no cut rule to build")
    if topology.fractions[element, side - 1] < 1e-12:
        raise DegenerateSliver(
            f"element {element} side {side} fraction "
            f"{topology.fractions[element, side - 1]:.3e}"
        )

    n1 = order + 2
    g = gauss_1d(n1)
    s01 = 0.5 * (g.points + 1.0)
    w01 = 0.5 * g.weights
    squ, uqu = np.meshgrid(s01, s01, indexing="ij")
    wq = np.outer(w01, w01).ravel()
    squ = squ.ravel()
    uqu = uqu.ravel()

    last_err = None
    for cells in _region_decompositions(topology, element, side):
        pts_all = []
        w_all = []
        ok = True
        for cell in cells:
            detj = cell.jacobian_det(squ, uqu)
            if np.any(detj <= 0.0):
                ok = False
                last_err = "nonpositive jacobian in a sub-cell"
                break
            pts_all.append(cell.map(squ, uqu))
            w_all.append(wq * detj)
        if not ok:
            continue
        points = np.vstack(pts_all)
        weights = np.concatenate(w_all)
        points, bad = _verify_side(points, curve, side, mesh.h)
        if bad:
            last_err = f"{bad} node(s) on the wrong side"
            continue
        return CutCellRule(element=element, side=side, points=points, weights=weights)
    raise QuadratureError(
        f"cut rule for element {element} side {side} failed: {last_err}; the "
        "curve is likely (near-)tangent to a mesh line inside this element, "
        "pinching the region -- refine or shift the mesh"
    )


def _verify_side(points, curve, side, h):
    """Nudge near-interface nodes off the curve, then check side membership."""
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

