"""Parametric interface curves and their interaction with a structured mesh.

The interface is a regular C^2 curve given by a parameterization r(t) together
with a scalar side function (negative inside the first subdomain).  A closed
curve must lie strictly inside the mesh domain; the one supported open curve is
a straight vertical line spanning the domain exactly (the edge-aligned
configuration), and an open curve whose ends r(0) and r(period) are not both
on the domain boundary is rejected.  Classification produces, per element, a
pure/cut label, the area fraction of each side, and at most one interface
segment whose parameter intervals tile the whole curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import starmap

import numpy as np
from numpy.polynomial.legendre import leggauss

from .mesh import Mesh


class GeometryError(Exception):
    """Base class for interface-geometry failures."""


class MultiIntersection(GeometryError):
    """The curve crosses one element's boundary at more than 2 points."""


class TangencyUnresolved(GeometryError):
    """An intersection with a mesh line could not be bracketed reliably."""


class UnresolvedTopology(GeometryError):
    """Curve topology outside the supported single-segment-per-element regime."""


class OnInterface(GeometryError):
    """A point queried for its side lies on the interface within tolerance."""


_ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])  # tangent -> outward normal of side 1


@cache
def _gauss_legendre(n: int):
    """Read-only n-point Gauss-Legendre nodes and weights on [-1, 1], built
    once per n; ``quadrature.gauss_1d`` wraps them in a checked rule."""
    x, w = leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


class InterfaceCurve:
    """Base class; subclasses provide point/tangent/signed_distance, and may
    provide coordinate/tangent_coordinate, one coordinate of each without the
    other (by default picked from point/tangent)."""

    name = "curve"
    closed = True
    period = 0.0
    curvature_bound = 0.0
    length_scale = 1.0

    def point(self, t):
        raise NotImplementedError

    def tangent(self, t):
        raise NotImplementedError

    def coordinate(self, t, axis: int):
        """Coordinate ``axis`` (0: x, 1: y) of r(t), the floats of point(t)[..., axis]."""
        return self.point(t)[..., axis]

    def tangent_coordinate(self, t, axis: int):
        """Coordinate ``axis`` of r'(t), the floats of tangent(t)[..., axis]."""
        return self.tangent(t)[..., axis]

    def signed_distance(self, x, y):
        """Approximate signed distance, negative on side 1."""
        raise NotImplementedError

    def distance_gradient(self, x, y):
        """Unit ascent direction of the signed distance (side 1 -> side 2)."""
        h = 1e-7 * max(1.0, self.length_scale)
        gx = (self.signed_distance(x + h, y) - self.signed_distance(x - h, y)) / (2 * h)
        gy = (self.signed_distance(x, y + h) - self.signed_distance(x, y - h)) / (2 * h)
        n = np.hypot(gx, gy)
        return gx / n, gy / n

    def normal(self, t):
        """Unit normal pointing from side 1 into side 2 (fixed rotation of r')."""
        tv = np.asarray(self.tangent(t), dtype=float)
        tv = tv / np.linalg.norm(tv, axis=-1, keepdims=True)
        return tv @ _ROT.T

    def arclength(self, t0: float, t1: float, npts: int = 32) -> float:
        """Length of r([t0, t1]) by the ``npts``-point Gauss rule on each of
        ceil(|t1 - t0| / (period / 64)) equal pieces: one rule over several
        radians of an eccentric ellipse is off by ~1e-7 relative."""
        xg, wg = _gauss_legendre(npts)
        pieces = max(1, int(np.ceil(abs(t1 - t0) / (self.period / 64))))
        knots = np.linspace(t0, t1, pieces + 1)
        half = 0.5 * (knots[1:] - knots[:-1])
        tm = 0.5 * (knots[:-1] + knots[1:])[:, None] + half[:, None] * xg
        speed = np.linalg.norm(self.tangent(tm), axis=-1)
        return float(np.dot(half, speed @ wg))

    def speed_range(self, nsamples: int = 512):
        ts = np.linspace(0.0, self.period, nsamples, endpoint=not self.closed)
        s = np.linalg.norm(self.tangent(ts), axis=-1)
        return float(s.min()), float(s.max())


class Circle(InterfaceCurve):
    def __init__(self, cx: float, cy: float, radius: float):
        if radius <= 0:
            raise ValueError("circle radius must be positive")
        self.center = np.array([cx, cy], dtype=float)
        self.radius = float(radius)
        self.name = f"circle({cx},{cy},{radius})"
        self.closed = True
        self.period = 2.0 * np.pi
        self.curvature_bound = 1.0 / radius
        self.length_scale = radius

    def point(self, t):
        return np.stack([self.coordinate(t, 0), self.coordinate(t, 1)], axis=-1)

    def tangent(self, t):
        return np.stack([self.tangent_coordinate(t, 0), self.tangent_coordinate(t, 1)], axis=-1)

    def coordinate(self, t, axis: int):
        t = np.asarray(t, dtype=float)
        return self.center[0] + self.radius * np.cos(t) if axis == 0 else self.center[1] + self.radius * np.sin(t)

    def tangent_coordinate(self, t, axis: int):
        t = np.asarray(t, dtype=float)
        return -self.radius * np.sin(t) if axis == 0 else self.radius * np.cos(t)

    def signed_distance(self, x, y):
        return np.hypot(np.asarray(x) - self.center[0], np.asarray(y) - self.center[1]) - self.radius

    def distance_gradient(self, x, y):
        dx = np.asarray(x) - self.center[0]
        dy = np.asarray(y) - self.center[1]
        r = np.maximum(np.hypot(dx, dy), 1e-300)
        return dx / r, dy / r


class Ellipse(InterfaceCurve):
    def __init__(self, cx: float, cy: float, a: float, b: float):
        if a <= 0 or b <= 0:
            raise ValueError("ellipse semi-axes must be positive")
        self.center = np.array([cx, cy], dtype=float)
        self.a = float(a)
        self.b = float(b)
        self.name = f"ellipse({cx},{cy},{a},{b})"
        self.closed = True
        self.period = 2.0 * np.pi
        self.curvature_bound = max(a / b**2, b / a**2)
        self.length_scale = min(a, b)

    def point(self, t):
        return np.stack([self.coordinate(t, 0), self.coordinate(t, 1)], axis=-1)

    def tangent(self, t):
        return np.stack([self.tangent_coordinate(t, 0), self.tangent_coordinate(t, 1)], axis=-1)

    def coordinate(self, t, axis: int):
        t = np.asarray(t, dtype=float)
        return self.center[0] + self.a * np.cos(t) if axis == 0 else self.center[1] + self.b * np.sin(t)

    def tangent_coordinate(self, t, axis: int):
        t = np.asarray(t, dtype=float)
        return -self.a * np.sin(t) if axis == 0 else self.b * np.cos(t)

    def signed_distance(self, x, y):
        # first-order accurate near the curve, which is all the side tests need
        u = (np.asarray(x) - self.center[0]) / self.a
        v = (np.asarray(y) - self.center[1]) / self.b
        q = u * u + v * v - 1.0
        gn = 2.0 * np.hypot(u / self.a, v / self.b)
        return q / np.maximum(gn, 1e-300)

    def distance_gradient(self, x, y):
        u = (np.asarray(x) - self.center[0]) / self.a
        v = (np.asarray(y) - self.center[1]) / self.b
        gx = 2.0 * u / self.a
        gy = 2.0 * v / self.b
        n = np.maximum(np.hypot(gx, gy), 1e-300)
        return gx / n, gy / n


class VerticalLine(InterfaceCurve):
    """Open straight interface x = x0 spanning [y_lo, y_hi]; side 1 is x < x0."""

    def __init__(self, x0: float, y_lo: float, y_hi: float):
        if y_hi <= y_lo:
            raise ValueError("vertical line needs y_hi > y_lo")
        self.x0 = float(x0)
        self.y_lo = float(y_lo)
        self.y_hi = float(y_hi)
        self.name = f"vline({x0})"
        self.closed = False
        self.period = y_hi - y_lo
        self.curvature_bound = 0.0
        self.length_scale = y_hi - y_lo

    def point(self, t):
        return np.stack([self.coordinate(t, 0), self.coordinate(t, 1)], axis=-1)

    def tangent(self, t):
        return np.stack([self.tangent_coordinate(t, 0), self.tangent_coordinate(t, 1)], axis=-1)

    def coordinate(self, t, axis: int):
        t = np.asarray(t, dtype=float)
        return np.full_like(t, self.x0) if axis == 0 else self.y_lo + t

    def tangent_coordinate(self, t, axis: int):
        t = np.asarray(t, dtype=float)
        return np.zeros_like(t) if axis == 0 else np.ones_like(t)

    def signed_distance(self, x, y):
        return np.asarray(x, dtype=float) - self.x0 + 0.0 * np.asarray(y)

    def distance_gradient(self, x, y):
        z = 0.0 * (np.asarray(x) + np.asarray(y))
        return 1.0 + z, z


def parse_curve(text: str) -> InterfaceCurve:
    """Parse 'circle:cx,cy,R' / 'ellipse:cx,cy,a,b' / 'vline:x0,ylo,yhi'."""
    kind, _, rest = text.partition(":")
    args = [float(v) for v in rest.split(",")] if rest else []
    kind = kind.strip().lower()
    if kind == "circle" and len(args) == 3:
        return Circle(*args)
    if kind == "ellipse" and len(args) == 4:
        return Ellipse(*args)
    if kind == "vline" and len(args) == 3:
        return VerticalLine(*args)
    raise ValueError(f"unknown curve descriptor {text!r}")


def signed_side(point, curve: InterfaceCurve, tol: float | None = None) -> int:
    """Side of the interface containing ``point``: 1 or 2.

    Raises OnInterface when the point is within ``tol`` of the curve.
    """
    if tol is None:
        tol = 1e-12 * max(1.0, curve.length_scale)
    d = float(curve.signed_distance(point[0], point[1]))
    if abs(d) <= tol:
        raise OnInterface(f"point {tuple(point)} lies on the interface (d={d:.3e})")
    return 1 if d < 0.0 else 2


@dataclass(frozen=True)
class InterfaceSegment:
    """Portion of the curve hosted by one element.

    For a segment lying on a shared mesh edge the host is the side-1 element
    and ``neighbor`` the side-2 element; otherwise ``neighbor == element``.
    """

    element: int
    t_lo: float
    t_hi: float
    on_edge: bool = False
    neighbor: int = -1
    analysis_side: int = 0  # i_e, filled during classification

    @property
    def t_mid(self) -> float:
        return 0.5 * (self.t_lo + self.t_hi)


@dataclass(frozen=True, eq=False)
class CutTopology:
    """Element classification against the interface plus the induced segments."""

    mesh: Mesh
    curve: InterfaceCurve
    labels: np.ndarray  # (n_elements,) 0 = cut, 1 = pure side 1, 2 = pure side 2
    fractions: np.ndarray  # (n_elements, 2) area fraction of each side
    segments: tuple
    dropped_arclength: float = 0.0

    @cached_property
    def element_segment(self) -> np.ndarray:
        """(n_elements,) index into ``segments`` of the cut segment each
        element hosts, -1 where it hosts none (on-edge segments excluded)."""
        index = np.full(self.mesh.n_elements, -1, dtype=np.int64)
        for k in reversed(range(len(self.segments))):
            if not self.segments[k].on_edge:
                index[self.segments[k].element] = k
        index.setflags(write=False)
        return index

    @property
    def cut_elements(self) -> np.ndarray:
        return np.flatnonzero(self.labels == 0)


# ---------------------------------------------------------------------------
# crossing detection
#
# Every grid line of both families is searched in one array pass.  The lines
# a sample interval [t_k, t_k+1] brackets follow from two binary searches of
# its end coordinates among the sorted line values, so work and memory grow
# with samples + crossings, never with lines x samples.  All brackets are then
# refined together by one masked bisection and up to three masked Newton
# steps; each bracket takes exactly the steps, in the same arithmetic, that a
# bisection of it alone would take, so the roots do not depend on batching.


def _family_coord(fn, t, idx, n_x):
    """The coordinate ``fn(t, axis)`` (``curve.coordinate`` or
    ``tangent_coordinate``) that the grid-line family of brackets ``idx``
    (ascending) fixes: x for the first n_x brackets (the x-lines), y after."""
    k = np.searchsorted(idx, n_x)
    return np.concatenate([fn(t[:k], 0), fn(t[k:], 1)])


def _line_hits(c, values, closed, tol_edge):
    """Grid lines ``values`` (ascending) met by the coordinate samples ``c``.

    Returns (line, k, on) in (line, k) order.  ``on`` marks sample k lying
    exactly on the line; otherwise the sample interval [k, k+1] changes sign
    across it: (c_k < v) != (c_k+1 < v), i.e. min < v <= max.  A line the
    whole curve lies on (max |c - v| < tol_edge) yields nothing.
    """
    n = len(c)
    k = np.arange(n if closed else n - 1)
    c0 = c[k]
    c1 = c[(k + 1) % n]

    first = np.searchsorted(values, np.minimum(c0, c1), side="right")
    count = np.searchsorted(values, np.maximum(c0, c1), side="right") - first
    # lines first, first + 1, ..., first + count - 1 of every interval
    offset = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    line_b = np.repeat(first, count) + offset
    k_b = np.repeat(k, count)
    keep = values[line_b] != c[k_b]  # sample k on the line is an exact zero

    line_z = np.minimum(np.searchsorted(values, c0), len(values) - 1)
    zero = values[line_z] == c0

    line = np.concatenate([line_b[keep], line_z[zero]])
    k = np.concatenate([k_b[keep], k[zero]])
    on = np.arange(line.size) >= int(keep.sum())  # the exact zeros come last
    # fl(c - v) is monotone in c, so max |c - v| is taken at c.max() or c.min()
    on_line = np.maximum(np.abs(c.max() - values), np.abs(c.min() - values)) < tol_edge
    sel = np.flatnonzero(~on_line[line])
    sel = sel[np.lexsort((k[sel], line[sel]))]
    return line[sel], k[sel], on[sel]


def _refine_brackets(curve, n_x, value, lo, hi, flo, xtol):
    """Roots of r(t)[axis] = value in the brackets [lo, hi], f(lo) = flo,
    where axis is 0 for the first ``n_x`` brackets and 1 for the rest.

    Bisection to ``xtol`` (at most 80 halvings, stopping early on an exact
    zero), then up to three Newton steps, each kept only inside the bracket.
    Only the bracket's own coordinate of r and r' is evaluated.
    """
    a, b, fa = lo.copy(), hi.copy(), flo.copy()
    live = np.ones(lo.size, dtype=bool)
    for _ in range(80):
        live &= ~(b - a <= xtol)
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        m = 0.5 * (a[idx] + b[idx])
        fm = _family_coord(curve.coordinate, m, idx, n_x) - value[idx]
        zero = fm == 0.0
        upper = ~zero & ((fa[idx] < 0.0) != (fm < 0.0))
        lower = ~zero & ~upper
        a[idx[zero]] = b[idx[zero]] = m[zero]
        live[idx[zero]] = False
        b[idx[upper]] = m[upper]
        a[idx[lower]] = m[lower]
        fa[idx[lower]] = fm[lower]
    t = 0.5 * (a + b)
    idx = np.arange(t.size)
    for _ in range(3):
        d = _family_coord(curve.tangent_coordinate, t[idx], idx, n_x)
        idx, d = idx[d != 0.0], d[d != 0.0]
        tn = t[idx] - (_family_coord(curve.coordinate, t[idx], idx, n_x) - value[idx]) / d
        inside = (lo[idx] <= tn) & (tn <= hi[idx])
        idx = idx[inside]
        t[idx] = tn[inside]
    return t


def _grid_line_crossings(curve, ts, pts, xs, ys, xtol, tol_edge):
    """Parameters where r(t) crosses a grid line x = xs[i] or y = ys[j], in
    (family, line, sample) order, and the transversality strength
    |d coord / dt| at each.

    Crossings beyond the grid line's physical extent are kept anyway; they are
    legitimate breakpoints when the curve leaves the domain and the caller
    filters intervals by their midpoints.  Tangential touches produce weak
    near-duplicate roots that the caller collapses by strength.
    """
    parts = []
    for ax, lines in ((0, xs), (1, ys)):
        line, k, on = _line_hits(pts[:, ax], lines, curve.closed, tol_edge)
        parts.append((np.full(line.size, ax), lines[line], k, on))
    axis, value, k, on = (np.concatenate(p) for p in zip(*parts))

    n = len(ts)
    t = ts[k]
    br = np.flatnonzero(~on)
    k2 = k[br] + 1
    hi = np.where(k2 == n, ts[0] + curve.period, ts[k2 % n])
    flo = pts[k[br], axis[br]] - value[br]
    n_x = int(np.count_nonzero(axis == 0))  # the x-lines' crossings come first
    t[br] = _refine_brackets(curve, np.searchsorted(br, n_x), value[br], t[br], hi, flo, xtol)
    return t, np.abs(_family_coord(curve.tangent_coordinate, t, np.arange(t.size), n_x))


def _cluster_roots(t, strength, t_micro):
    """One root per cluster of ``t`` whose consecutive roots, in (t, strength)
    order, lie at most t_micro apart: the first of greatest strength."""
    order = np.lexsort((strength, t))
    t, strength = t[order], strength[order]
    start = np.diff(t, prepend=-np.inf) > t_micro
    cluster = np.cumsum(start) - 1
    best = np.flatnonzero(strength == np.maximum.reduceat(strength, np.flatnonzero(start))[cluster])
    return t[best[np.diff(cluster[best], prepend=-1) != 0]]


def _near_line(c, lines, tol):
    """Whether each coordinate c lies within tol of one of the ascending
    ``lines``; the nearest line is a neighbour of c in their order."""
    i = np.clip(np.searchsorted(lines, c), 1, len(lines) - 1)
    return np.minimum(np.abs(c - lines[i - 1]), np.abs(c - lines[i])) < tol


def _clamp(v, hi):
    """min(max(v, 0.0), hi) elementwise, with Python's tie rules."""
    v = np.where(0.0 > v, 0.0, v)
    return np.where(hi < v, hi, v)


def _perimeter_coords(x0, y0, x1, y1, p, tol):
    """Counterclockwise arclength from (x0, y0) of the points p (n, 2) on the
    boundaries of the boxes, and whether each point lies on its boundary."""
    w, h = x1 - x0, y1 - y0
    x, y = p[:, 0], p[:, 1]
    bottom, right = np.abs(y - y0) <= tol, np.abs(x - x1) <= tol
    top, left = np.abs(y - y1) <= tol, np.abs(x - x0) <= tol
    s = np.where(top, w + h + _clamp(x1 - x, w), 2 * w + h + _clamp(y1 - y, h))
    s = np.where(right, w + _clamp(y - y0, h), s)
    s = np.where(bottom, _clamp(x - x0, w), s)
    return s, bottom | right | top | left


def boundary_chains_ccw(boxes, p_from, p_to, tol):
    """Element corners passed when walking each box's boundary
    counterclockwise from p_from to p_to (endpoints excluded).

    ``boxes`` is (n, 4) as (x_lo, y_lo, x_hi, y_hi), the points (n, 2).
    Returns the corners (n, 4, 2), the first m of each row in walk order,
    and m (n,).  Raises GeometryError for the first point off its boundary.
    """
    x0, y0, x1, y1 = boxes.T
    w, h = x1 - x0, y1 - y0
    perim = 2 * (w + h)
    s_a, on_a = _perimeter_coords(x0, y0, x1, y1, p_from, tol)
    s_b, on_b = _perimeter_coords(x0, y0, x1, y1, p_to, tol)
    if not (on_a.all() and on_b.all()):
        k = int(np.argmin(on_a & on_b))
        p = p_from[k] if not on_a[k] else p_to[k]
        raise GeometryError(f"point {p} not on the element boundary")
    span = (s_b - s_a) % perim
    span = np.where(span == 0.0, perim, span)
    s_c = np.stack([np.zeros_like(w), w, w + h, 2 * w + h], axis=1)
    d = (s_c - s_a[:, None]) % perim[:, None]
    passed = (tol < d) & (d < (span - tol)[:, None])
    walk = np.argsort(np.where(passed, d, np.inf), axis=1, kind="stable")
    corners = boxes[:, [[0, 1], [2, 1], [2, 3], [0, 3]]]  # ccw from (x_lo, y_lo)
    return np.take_along_axis(corners, walk[:, :, None], axis=1), passed.sum(axis=1)


def _side1_fractions(mesh, curve, t_lo, t_hi, hosts, npts: int = 32) -> np.ndarray:
    """Area fraction of the side-1 part of each host element, cut by the
    curve over [t_lo, t_hi], via Green's theorem: the curve part by an
    ``npts``-point Gauss rule, the boundary walk back as a polygon."""
    boxes = np.stack(mesh.element_box(hosts), axis=-1)
    tol = 1e-9 * mesh.h
    xg, wg = _gauss_legendre(npts)
    tq = (0.5 * (t_lo + t_hi))[:, None] + (0.5 * (t_hi - t_lo))[:, None] * xg
    r = curve.point(tq)
    dr = curve.tangent(tq)
    cross = r[..., 0] * dr[..., 1] - r[..., 1] * dr[..., 0]
    # one dot product per segment, as np.dot(wg, cross_k) takes it
    area = 0.25 * (t_hi - t_lo) * np.matmul(cross[:, None, :], wg[:, None])[:, 0, 0]
    ends = curve.point(np.concatenate([t_lo, t_hi]))
    a_pt, b_pt = ends[: len(hosts)], ends[len(hosts) :]
    corners, m = boundary_chains_ccw(boxes, b_pt, a_pt, tol)
    # the walk b_pt -> chain -> a_pt, edge k for k <= m
    loop = np.concatenate([b_pt[:, None], corners, corners[:, :1]], axis=1)
    loop[np.arange(len(hosts)), m + 1] = a_pt
    for k in range(5):
        p, q = loop[:, k], loop[:, k + 1]
        area = np.where(k <= m, area + 0.5 * (p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]), area)
    elem_area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    return _clamp(area / elem_area, 1.0)


def far_corners(mesh: Mesh, curve: InterfaceCurve, elements, t_mid) -> np.ndarray:
    """Corners (n, 4, 2) of each host element ``elements[i]``, ordered by
    distance from the tangent line at r(t_mid[i]), farthest first, ties by
    smallest corner index; the first is the far point P of the fan
    construction."""
    p0 = curve.point(t_mid)
    d = curve.tangent(t_mid)
    # |r'| as np.linalg.norm takes it for one vector: one dot product per row
    d = d / np.sqrt(np.matmul(d[:, None, :], d[:, :, None]))[:, 0]
    corners = mesh.vertices[mesh.elements[elements]]
    rel = corners - p0[:, None, :]
    dist = np.abs(rel[..., 0] * d[:, 1:] - rel[..., 1] * d[:, :1])
    return np.take_along_axis(corners, np.argsort(-dist, axis=1, kind="stable")[..., None], axis=1)


def _analysis_sides(mesh, curve, elements, t_mid) -> np.ndarray:
    """Side (1 or 2) of the first ``far_corners`` corner of each host that
    lies off the curve by more than 1e-12 h."""
    corners = far_corners(mesh, curve, elements, t_mid)
    d = curve.signed_distance(corners[..., 0], corners[..., 1])
    off = ~(np.abs(d) <= 1e-12 * mesh.h)
    if not off.any(axis=1).all():
        raise GeometryError("all host-element corners lie on the interface")
    return np.where(np.take_along_axis(d, off.argmax(axis=1)[:, None], axis=1)[:, 0] < 0.0, 1, 2)


def _label_by_centre(mesh, curve):
    """Labels (1 or 2) and full-side fractions of every element from the side
    of its centre, from one signed-distance evaluation on all centres."""
    dom = mesh.domain
    cx = dom.x0 + mesh.dx * (np.arange(mesh.nx) + 0.5)
    cy = dom.y0 + mesh.dy * (np.arange(mesh.ny) + 0.5)
    gx, gy = np.meshgrid(cx, cy, indexing="xy")  # row-major, like the elements
    labels = np.where(curve.signed_distance(gx.ravel(), gy.ravel()) < 0.0, 1, 2).astype(np.int8)
    fractions = np.zeros((labels.size, 2))
    fractions[labels == 1, 0] = 1.0
    fractions[labels == 2, 1] = 1.0
    return labels, fractions


def classify_elements(mesh: Mesh, curve: InterfaceCurve, cut_threshold: float = 1e-12) -> CutTopology:
    """Classify every element against the curve and extract interface segments.

    The curve is sampled densely in t; the crossings with all grid lines are
    found in one batched pass (binary searches of the sample coordinates among
    the line values, then one masked bisection + Newton polish of every
    bracket).  Every later step is one array pass over the parameter
    intervals (t_lo, t_hi, host, on_edge, neighbor): near-coincident roots
    collapse to the most transversal one of each cluster; the roots split the
    parameter range into intervals, each outside the domain, on a mesh edge
    (hosted by the side-1 element, ``neighbor`` the side-2 one) or inside
    one element; consecutive intervals with one host merge (grazing
    touches), across t = period too; hosts are counted; the side-1 area
    fraction of each cut host follows from Green's theorem, and slivers
    below ``cut_threshold`` are dropped; each segment's analysis side comes
    from ``far_corners``.  Every other element is pure, labelled by the side
    of its centre from one signed-distance evaluation on all element centres.

    Raises MultiIntersection when the curve meets one element's boundary in
    more than two points, TangencyUnresolved when a crossing cannot be
    bracketed, and UnresolvedTopology for interior loops (also one touching
    its element's boundary), curves leaving the domain, or an open curve that
    does not end on the domain boundary; all but the last indicate the mesh
    is too coarse for the curve.  The per-interval tests (an edge-aligned
    interval running along the domain boundary, an interval leaving its
    element) come first, and where several intervals fail them the first in
    t raises.  The whole-curve checks follow in this order: part of the curve
    outside the domain, a closed curve crossing no mesh line, a closed curve
    left with one host, a host met twice, a host with every corner on the
    curve, and the ends of an open curve.
    """
    dom = mesh.domain

    smin, smax = curve.speed_range()
    if smin <= 0.0:
        raise GeometryError("degenerate parameterization: |r'| vanishes")
    arclen = smax * curve.period
    min_side = min(mesh.dx, mesh.dy)
    n_samp = int(min(max(1024, 16 * arclen / min_side), 2**18))
    ts = np.linspace(0.0, curve.period, n_samp, endpoint=not curve.closed)
    pts = curve.point(ts)

    xtol = max(1e-14 * mesh.h / smin, 8 * np.finfo(float).eps * curve.period)
    tol_edge = 1e-10 * mesh.h
    tol_geo = 1e-12 * mesh.h

    xs = dom.x0 + mesh.dx * np.arange(mesh.nx + 1)
    ys = dom.y0 + mesh.dy * np.arange(mesh.ny + 1)
    t_root, strength = _grid_line_crossings(curve, ts, pts, xs, ys, xtol, tol_edge)

    # Tangential touches of a grid line leave weak duplicate roots a few 1e-9
    # apart; keeping the most transversal root of each cluster keeps true
    # crossings machine-accurate.
    t_micro = max(2e-7 * curve.period, 4 * xtol)
    t_dedupe = max(1e-13 * curve.period, 2 * xtol)
    if curve.closed:
        roots = _cluster_roots(t_root % curve.period, strength, t_micro)
        if roots.size >= 2 and (roots[0] + curve.period) - roots[-1] <= t_micro:
            roots = roots[:-1]
        knots = np.append(roots, roots[0] + curve.period) if roots.size else np.array([0.0, curve.period])
    else:
        roots = _cluster_roots(t_root, strength, t_micro)
        roots = roots[(t_dedupe < roots) & (roots < curve.period - t_dedupe)]
        knots = np.concatenate([[0.0], roots, [curve.period]])
    wide = knots[1:] - knots[:-1] > t_dedupe
    t_lo, t_hi = knots[:-1][wide], knots[1:][wide]
    if not t_lo.size:
        raise UnresolvedTopology("curve produced no parameter intervals")

    # each interval: outside the domain / on a mesh edge / inside one element
    t_mid = 0.5 * (t_lo + t_hi)
    p_mid = curve.point(t_mid)
    inside = dom.contains(p_mid[:, 0], p_mid[:, 1], tol=-tol_geo)
    p_check = curve.point(np.linspace(t_lo, t_hi, 7, axis=1)[:, 1:-1])
    on_line = [_near_line(p_check[..., ax], lines, tol_edge).all(axis=1) for ax, lines in ((0, xs), (1, ys))]
    on_edge = inside & (on_line[0] | on_line[1])
    for k in np.flatnonzero(on_edge):
        on_edge[k] = curve.arclength(t_lo[k], t_hi[k], npts=8) >= 0.1 * min_side
    # an edge interval is hosted on side 1 and neighboured on side 2
    shift = np.zeros_like(p_mid)
    shift[on_edge] = min_side / 3.0 * curve.normal(t_mid[on_edge])
    p_host, p_nb = p_mid - shift, p_mid + shift
    host = mesh.locate(p_host[:, 0], p_host[:, 1])
    neighbor = mesh.locate(p_nb[:, 0], p_nb[:, 1])

    pad = 10.0 * tol_geo + tol_edge
    x_lo, y_lo, x_hi, y_hi = (v[:, None] for v in mesh.element_box(host))
    px, py = p_check[..., 0], p_check[..., 1]
    in_box = ((px >= x_lo - pad) & (px <= x_hi + pad) & (py >= y_lo - pad) & (py <= y_hi + pad)).all(axis=1)
    in_domain = dom.contains(p_host[:, 0], p_host[:, 1]) & dom.contains(p_nb[:, 0], p_nb[:, 1])
    failed = np.flatnonzero(inside & np.where(on_edge, ~in_domain, ~in_box))
    if failed.size:
        k = failed[0]
        if on_edge[k]:
            raise UnresolvedTopology("edge-aligned interface runs along the domain boundary")
        raise TangencyUnresolved(
            f"interval [{t_lo[k]:.6g},{t_hi[k]:.6g}] leaves element {host[k]} without a "
            "bracketed crossing; refine the mesh"
        )
    if not inside.any():
        # curve entirely outside: all elements pure
        return CutTopology(mesh, curve, *_label_by_centre(mesh, curve), ())
    if not inside.all():
        raise UnresolvedTopology("curve crosses the domain boundary; unsupported")
    if curve.closed and not roots.size:
        raise UnresolvedTopology(
            "closed curve never crosses a mesh line (interior loop inside one "
            "element); refine the mesh"
        )

    # merge consecutive intervals sharing a host (grazing breakpoints)
    first = np.ones(t_lo.size, dtype=bool)
    first[1:] = (host[1:] != host[:-1]) | (on_edge[1:] != on_edge[:-1]) | ~(np.abs(t_hi[:-1] - t_lo[1:]) <= t_dedupe)
    t_hi = t_hi[np.append(np.flatnonzero(first)[1:], t_lo.size) - 1]
    t_lo, host, on_edge, neighbor = t_lo[first], host[first], on_edge[first], neighbor[first]
    # ... and the last with the first across t = period, kept last
    if (curve.closed and t_lo.size >= 2 and host[0] == host[-1] and on_edge[0] == on_edge[-1]
            and abs(t_hi[-1] % curve.period - t_lo[0]) <= t_dedupe):
        t_hi[-1] += t_hi[0] - t_lo[0]
        t_lo, t_hi, host, on_edge, neighbor = t_lo[1:], t_hi[1:], host[1:], on_edge[1:], neighbor[1:]

    if curve.closed and t_lo.size == 1:
        # the loop only touches grid lines tangentially: one host holds it all
        raise UnresolvedTopology(
            f"closed curve lies inside element {host[0]}, touching its "
            "boundary only; refine the mesh"
        )
    hosts, first_seen, count = np.unique(host, return_index=True, return_counts=True)
    if (count > 1).any():
        bad = hosts[count > 1][np.argsort(first_seen[count > 1])]
        raise MultiIntersection(
            f"element(s) {bad.tolist()} meet the curve in more than two boundary points; "
            "refine the mesh"
        )

    labels, fractions = _label_by_centre(mesh, curve)
    inner = np.flatnonzero(~on_edge)
    f1 = _side1_fractions(mesh, curve, t_lo[inner], t_hi[inner], host[inner])
    sliver = (f1 < cut_threshold) | ((1.0 - f1) < cut_threshold)
    dropped = 0.0
    for k in inner[sliver]:
        dropped += curve.arclength(t_lo[k], t_hi[k])
    cut = host[inner[~sliver]]
    labels[cut] = 0
    fractions[cut] = np.stack([f1[~sliver], 1.0 - f1[~sliver]], axis=1)
    keep = np.ones(t_lo.size, dtype=bool)
    keep[inner[sliver]] = False
    t_lo, t_hi, host, on_edge, neighbor = t_lo[keep], t_hi[keep], host[keep], on_edge[keep], neighbor[keep]
    side = _analysis_sides(mesh, curve, host, 0.5 * (t_lo + t_hi))

    if not curve.closed:
        ends = curve.point(np.array([0.0, curve.period]))
        inner_end = dom.contains(ends[:, 0], ends[:, 1], tol=-tol_geo)
        near = dom.contains(ends[:, 0], ends[:, 1], tol=tol_geo)
        if (inner_end | ~near).any():
            raise UnresolvedTopology(
                f"open curve ends at {ends[0].tolist()} and {ends[1].tolist()}, not both on the "
                "domain boundary; unsupported"
            )

    labels.setflags(write=False)
    fractions.setflags(write=False)
    segments = tuple(
        starmap(InterfaceSegment, zip(*(v.tolist() for v in (host, t_lo, t_hi, on_edge, neighbor, side))))
    )
    return CutTopology(mesh, curve, labels, fractions, segments, dropped_arclength=dropped)
