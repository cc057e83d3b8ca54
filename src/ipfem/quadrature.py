"""Reference Gauss rules, arc-length rules on interface segments, and
high-order quadrature on the curved parts of cut elements.

A cut element side is decomposed into at most three sub-cells: one cell with
the interface as a curved edge (a fan from an anchor corner, or a crescent
when both crossings sit on the same element edge) plus up to two straight
triangles/quadrilaterals.  Each sub-cell carries a blended (transfinite) map
pulling back a tensor Gauss rule, so geometric accuracy does not cap the hp
convergence the way straight sub-triangles would.

``cut_cell_rule`` builds all requested sides of one order together, in
rounds: round k tries candidate decomposition k of every side no earlier
round resolved (the compact ones by boundary-chain length, then the strip
fallback, whose geometry is built only for the sides that reach it).  A
round evaluates all its sub-cells' maps component-major, x and y as
separate (cell, node) arrays, and checks all its nodes with one
signed-distance call.  The accepted rules are returned as one stacked batch
(``CutRuleBatch``): node coordinates x and y and weights as flat arrays in
request order with one offset per rule, from which the integration plan
takes its groups by index; indexing the batch gives a rule as a
``CutCellRule``.  Each node and weight takes the same float operations in
the same order as a one-side-at-a-time build, so a rule does not depend on
what else is in its batch.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import CutTopology, InterfaceSegment, _gauss_legendre, boundary_chains_ccw


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
    """Verify exactness on monomials up to the declared order, all of them in
    one weighted product: w^T V for a 1-D rule, V_x^T diag(w) V_y for a
    tensor rule, where V holds the powers 0..order of the node coordinates.
    The first failing monomial (in (a, b) order for a tensor rule) is
    reported with its integral taken on its own."""
    powers = np.arange(rule.order + 1)
    want_1d = np.where(powers % 2, 0.0, 2.0 / (powers + 1))
    if rule.dim == 1:
        got = rule.weights @ rule.points[:, None] ** powers
        fail = np.abs(got - want_1d) > 1e-13 * np.maximum(1.0, np.abs(want_1d))
        if fail.any():
            k = int(np.argmax(fail))
            got = float(np.dot(rule.weights, rule.points**k))
            raise QuadratureError(f"1D rule fails monomial x^{k}: {got} vs {float(want_1d[k])}")
    else:
        x, y = rule.points[:, 0], rule.points[:, 1]
        got = (rule.weights[:, None] * x[:, None] ** powers).T @ y[:, None] ** powers
        want = np.outer(want_1d, want_1d)
        fail = np.abs(got - want) > 1e-13 * np.maximum(1.0, np.abs(want))
        fail &= powers[:, None] + powers <= rule.order
        if fail.any():
            a, b = (int(i) for i in np.argwhere(fail)[0])
            got = float(np.dot(rule.weights, x**a * y**b))
            raise QuadratureError(f"tensor rule fails monomial x^{a} y^{b}: {got} vs {float(want[a, b])}")


def pass_order(p: int, errors: bool = False) -> int:
    """Tensor Gauss order q of an assembly (p + 2) or error (p + 4) pass over
    degree-p functions; q sets its other rules (``cut_order``, ``segment_npoints``)."""
    return p + (4 if errors else 2)


def cut_order(quad_order: int, p: int) -> int:
    """Cut-cell rule order of a pass of tensor order ``quad_order``: on a
    blended sub-cell map the Q_2p products reach degree 4p per reference axis,
    and p orders more integrate every cut side's mass and stiffness to round-off."""
    return quad_order + p


def segment_npoints(quad_order: int, p: int) -> int:
    """Segment-rule Gauss nodes of a pass of tensor order ``quad_order``:
    traces of degree-p tensor polynomials along a parametric arc carry
    harmonics up to 2p, their products up to 4p; p extra nodes keep those
    integrals at round-off, not the ~1e-5 a bare (p+2)-point rule leaves at h ~ 1/8."""
    return max(quad_order + p + 2, 4)


@functools.lru_cache(maxsize=64)
def gauss_1d(n: int) -> QuadRule:
    """n-point Gauss-Legendre rule on [-1, 1], exact to degree 2n-1."""
    if n < 1:
        raise ValueError("point count must be >= 1")
    x, w = _gauss_legendre(n)
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
    """Physical quadrature along interface segments with arc-length weights.

    Fields carry a leading segment axis when built for a sequence of segments.
    """

    params: np.ndarray  # curve parameters of the nodes
    points: np.ndarray  # (n, 2)
    weights: np.ndarray  # positive, sum ~ segment arc length
    normals: np.ndarray  # (n, 2) unit normals, side 1 -> side 2


def segment_rule(segment, curve, npoints: int) -> SegmentRule:
    """Gauss rule on r([t_lo, t_hi]) with weights w_g * |r'| * interval/2.

    ``segment`` is one InterfaceSegment, or a sequence of them for one rule
    stacked along a leading segment axis, node for node the same floats.
    """
    single = isinstance(segment, InterfaceSegment)
    segments = [segment] if single else segment
    g = gauss_1d(int(npoints))
    t_lo = np.array([s.t_lo for s in segments], dtype=float)
    t_hi = np.array([s.t_hi for s in segments], dtype=float)
    half = 0.5 * (t_hi - t_lo)
    tq = 0.5 * (t_lo + t_hi)[:, None] + half[:, None] * g.points
    speed = np.linalg.norm(curve.tangent(tq), axis=-1)
    fields = (tq, curve.point(tq), g.weights * speed * half[:, None], curve.normal(tq))
    return SegmentRule(*(f[0] for f in fields)) if single else SegmentRule(*fields)


@dataclass(frozen=True, eq=False)
class CutCellRule:
    """Positive-weight rule over one side of a cut element, in physical space."""

    element: int
    side: int
    points: np.ndarray  # (n, 2)
    weights: np.ndarray


@dataclass(frozen=True, eq=False)
class CutRuleBatch(Sequence):
    """Cut-cell rules of many (element, side) requests, stacked in request
    order: rule k has the nodes (x, y)[start[k]:start[k + 1]] and their
    weights.  Item k is rule k as a ``CutCellRule``."""

    elements: np.ndarray  # (n,)
    sides: np.ndarray
    start: np.ndarray  # (n + 1,) node offsets
    x: np.ndarray  # (N,) node coordinates, one array per component
    y: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, k) -> CutCellRule:
        k = range(len(self))[operator.index(k)]  # negative and out-of-range k as a tuple takes them
        at = slice(self.start[k], self.start[k + 1])
        return CutCellRule(
            element=int(self.elements[k]),
            side=int(self.sides[k]),
            points=np.column_stack([self.x[at], self.y[at]]),
            weights=self.weights[at],
        )


# Vertex slots of a cut side: where the curve starts and ends on the element
# boundary, then the corners that the boundary walk from end to start passes.
_START, _END, _CHAIN = 0, 1, 2


def _polygon_cells(slots):
    """Straight cells (bottom, top0, top1) of a small ccw polygon (3 or 4
    vertex slots): a triangle lofts its first edge onto the apex, a
    quadrilateral onto the opposite edge."""
    if len(slots) < 3:
        return []
    if len(slots) == 3:
        return [((slots[0], slots[1]), slots[2], slots[2])]
    if len(slots) == 4:
        return [((slots[0], slots[1]), slots[3], slots[2])]
    raise QuadratureError(f"unexpected polygon with {len(slots)} vertices")


@functools.cache
def _compact_candidates(m: int) -> tuple:
    """Compact decompositions of a side whose boundary chain passes m
    corners, in the order they are tried: one cell with the curve as its
    bottom edge (bottom None), lofted onto a corner or onto the straight
    closing edge, plus at most two straight cells (bottom = two slots).
    Anchors that would leave a straight part of more than four vertices are
    skipped (for m = 4, the first and last corner)."""
    if m == 0:
        return (((None, _START, _END),),)
    if m == 2:
        return (((None, _CHAIN + 1, _CHAIN),),)
    chain = [_CHAIN + k for k in range(m)]
    candidates = []
    for shift in range(m):
        idx = ((m - 1) // 2 + shift) % m
        if idx + 2 > 4 or m - idx + 1 > 4:
            continue
        anchor = chain[idx]
        cells = [(None, anchor, anchor)]
        cells += _polygon_cells([_END, *chain[:idx], anchor])
        cells += _polygon_cells([anchor, *chain[idx + 1 :], _START])
        candidates.append(tuple(cells))
    return tuple(candidates)


def _strip_cells(start, end, chain):
    """Fallback decomposition: loft each curve sub-piece onto the matching
    edge of the straight boundary polyline (robust for thin regions hugging a
    strongly curved arc, where fans from a corner fold over).  Returns the
    cells as (s0, s1, top0, top1): the curve sub-range [s0, s1] and the edge."""
    nodes = [start, *chain[::-1], end]
    lengths = np.array([np.linalg.norm(b - a) for a, b in zip(nodes[:-1], nodes[1:])])
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    total = cum[-1]
    return [
        (cum[k] / total, cum[k + 1] / total, nodes[k], nodes[k + 1])
        for k in range(len(nodes) - 1)
        if lengths[k] != 0.0
    ]


@dataclass
class _Cells:
    """One round's sub-cells of many rules, each a blended (transfinite) map
    of [0, 1]^2 between a bottom edge and a straight top edge top0 -> top1
    (a point for a fan apex).  A curved bottom is the curve's sub-range
    [s0, s1] of its rule's side; a straight one runs p0 -> p1."""

    rule: np.ndarray  # (C,)
    curved: np.ndarray  # (C,) bool
    s0: np.ndarray  # (C,)
    s1: np.ndarray
    p0: np.ndarray  # (C, 2)
    p1: np.ndarray
    top0: np.ndarray
    top1: np.ndarray

    def evaluate(self, curve, t0, t1, s, u):
        """Mapped node coordinates x, y and Jacobian determinants, each (C, q),
        of the reference nodes (s, u), each cell as its own loft would compute
        them.  Every array holds one coordinate (component-major), so each
        ufunc runs one inner loop over a cell's nodes."""
        shape = (len(self.rule), len(s))
        c = np.flatnonzero(self.curved)
        st = np.flatnonzero(~self.curved)
        if c.size:
            r = self.rule[c, None]
            s0, s1 = self.s0[c, None], self.s1[c, None]
            dt = t1[r] - t0[r]
            tq = t0[r] + (s0 + s * (s1 - s0)) * dt
        maps = []
        for d in (0, 1):
            b = np.empty(shape)
            db = np.empty(shape)
            if c.size:
                b[c] = curve.coordinate(tq, d)
                db[c] = curve.tangent_coordinate(tq, d) * dt * (s1 - s0)
            if st.size:
                p0, p1 = self.p0[st, d, None], self.p1[st, d, None]
                b[st] = (1.0 - s) * p0 + s * p1
                db[st] = p1 - p0
            top0, top1 = self.top0[:, d, None], self.top1[:, d, None]
            # in place where a temporary can be reused: a * b and a + b take the
            # same bits in either operand order
            top = (1.0 - s) * top0
            top += s * top1
            dxdu = top - b
            top *= u
            point = (1.0 - u) * b
            point += top
            del b, top
            dxds = db
            dxds *= 1.0 - u
            dxds += u * (top1 - top0)
            maps.append((point, dxds, dxdu))
        (x, dxds_x, dxdu_x), (y, dxds_y, dxdu_y) = maps
        detj = dxds_x * dxdu_y
        detj -= dxds_y * dxdu_x
        return x, y, detj


def _round_cells(candidates, m, verts, rules, rnd) -> _Cells:
    """Candidate ``rnd`` of every rule in ``rules``: compact decompositions
    from the templates of each chain length, the strip fallback per rule."""
    parts = []
    for mm in sorted(set(m[rules].tolist())):
        group = rules[m[rules] == mm]
        if rnd < len(candidates[mm]):
            for bottom, top0, top1 in candidates[mm][rnd]:
                v = verts[group]
                p0, p1 = (v[:, 0], v[:, 0]) if bottom is None else (v[:, bottom[0]], v[:, bottom[1]])
                k = len(group)
                parts.append((group, np.full(k, bottom is None), np.zeros(k), np.ones(k), p0, p1, v[:, top0], v[:, top1]))
            continue
        for r in group:  # the strip round, reached by few rules
            for s0, s1, top0, top1 in _strip_cells(verts[r, _START], verts[r, _END], list(verts[r, _CHAIN : _CHAIN + mm])):
                one = np.array([r])  # p0, p1 are unused by a curved cell
                parts.append((one, np.ones(1, dtype=bool), np.array([s0]), np.array([s1]), top0[None], top1[None], top0[None], top1[None]))
    cols = [np.concatenate(c) for c in zip(*parts)]
    order = np.argsort(cols[0], kind="stable")  # cells of a rule in decomposition order
    return _Cells(*(c[order] for c in cols))


def _pinched(element, side, last_err) -> QuadratureError:
    return QuadratureError(
        f"cut rule for element {element} side {side} failed: {last_err}; the "
        "curve is likely (near-)tangent to a mesh line inside this element, "
        "pinching the region -- refine or shift the mesh"
    )


def _invalid_request(topology: CutTopology, element, side, order) -> Exception:
    """The error of a request that fails before any sub-cell is built."""
    if side not in (1, 2):
        return ValueError(f"side must be 1 or 2, got {side}")
    if order < 1:
        return ValueError("order must be >= 1")
    if topology.labels[element] != 0:
        return ValueError(f"element {element} is pure, no cut rule to build")
    if topology.fractions[element, side - 1] < 1e-12:
        return DegenerateSliver(
            f"element {element} side {side} fraction "
            f"{topology.fractions[element, side - 1]:.3e}"
        )
    return ValueError(f"element {element} is not cut")


def cut_cell_rule(topology: CutTopology, element, side, order: int):
    """Quadrature over K ∩ Ω_side for cut elements.

    ``element`` and ``side`` are scalars, giving one ``CutCellRule``, or
    equal-length 1-D arrays, giving a ``CutRuleBatch``: the rules stacked in
    input order, whose items are the same ``CutCellRule`` values; a scalar
    call is a batch of one.  Uses (order+2)^2 Gauss points per sub-cell.  All
    weights are positive and every node is verified to lie strictly on the
    requested side (nodes within 1e-13 of the curve are first nudged off it
    along the distance gradient).  A batch raises the error of its first
    failing (element, side), as one call per rule in input order would.
    """
    scalar = np.ndim(element) == 0 and np.ndim(side) == 0
    elements = np.atleast_1d(np.asarray(element))
    sides = np.atleast_1d(np.asarray(side))
    if elements.ndim != 1 or elements.shape != sides.shape:
        raise ValueError("element and side must be scalars or equal-length 1-D arrays")
    valid_side = (sides == 1) | (sides == 2)
    invalid = (
        ~valid_side
        | (order < 1)
        | (topology.labels[elements] != 0)
        | (topology.fractions[elements, np.where(valid_side, sides, 1) - 1] < 1e-12)
        | (topology.element_segment[elements] < 0)
    )
    stop = int(np.argmax(invalid)) if invalid.any() else len(elements)
    rules = _build_rules(topology, elements[:stop], sides[:stop], order)
    if stop < len(elements):
        raise _invalid_request(topology, elements[stop], sides[stop], order)
    return rules[0] if scalar else rules


def _build_rules(topology: CutTopology, elements, sides, order: int) -> CutRuleBatch:
    """All rules of valid requests, built together round by round: round k
    tries candidate k of every rule that no earlier round resolved.  Each
    round keeps the nodes of the rules it accepts; the rounds' nodes are
    stacked by rule at the end."""
    n = len(elements)
    if n == 0:
        empty = np.zeros(0)
        return CutRuleBatch(elements, sides, np.zeros(1, dtype=np.int64), empty, empty, empty)
    mesh, curve = topology.mesh, topology.curve
    segs = [topology.segments[k] for k in topology.element_segment[elements]]
    t_lo = np.array([seg.t_lo for seg in segs])
    t_hi = np.array([seg.t_hi for seg in segs])
    t0 = np.where(sides == 1, t_lo, t_hi)
    t1 = np.where(sides == 1, t_hi, t_lo)
    ends = curve.point(np.concatenate([t0, t1]))
    start, end = ends[:n], ends[n:]
    boxes = np.stack(mesh.element_box(elements), axis=-1)
    corners, m = boundary_chains_ccw(boxes, end, start, tol=1e-9 * mesh.h)
    verts = np.concatenate([start[:, None], end[:, None], corners], axis=1)

    errors = {}
    candidates = {}
    n_tries = np.zeros(n, dtype=np.int64)  # compact candidates, plus the strip when m >= 1
    for mm in set(m.tolist()):
        candidates[mm] = _compact_candidates(mm)
        n_tries[m == mm] = len(candidates[mm]) + (mm >= 1)

    n1 = order + 2
    g = gauss_1d(n1)
    s01 = 0.5 * (g.points + 1.0)
    w01 = 0.5 * g.weights
    squ, uqu = np.meshgrid(s01, s01, indexing="ij")
    wq = np.outer(w01, w01).ravel()
    squ = squ.ravel()
    uqu = uqu.ravel()
    q = len(wq)

    parts = []  # (rule, x, y, weight) of the accepted rules' nodes, per round
    last_err = {}
    pending = np.flatnonzero(n_tries > 0)
    rnd = 0
    while pending.size:
        for r in pending[n_tries[pending] == rnd].tolist():
            errors[r] = _pinched(elements[r], sides[r], last_err[r])
        pending = pending[n_tries[pending] > rnd]
        if not pending.size:
            break
        cells = _round_cells(candidates, m, verts, pending, rnd)
        x, y, detj = cells.evaluate(curve, t0, t1, squ, uqu)
        folded = np.zeros(n, dtype=bool)
        folded[cells.rule[np.any(detj <= 0.0, axis=1)]] = True
        for r in np.flatnonzero(folded).tolist():
            last_err[r] = "nonpositive jacobian in a sub-cell"

        keep = ~folded[cells.rule]
        if not keep.all():
            x, y, detj = x[keep], y[keep], detj[keep]
        node_rule = np.repeat(cells.rule[keep], q)
        x, y = x.reshape(-1), y.reshape(-1)
        weights = (wq * detj).reshape(-1)
        del detj
        wrong = _wrong_side(x, y, curve, sides[node_rule], mesh.h)
        bad = np.bincount(node_rule[wrong], minlength=n)
        for r in np.unique(node_rule[wrong]).tolist():
            last_err[r] = f"{bad[r]} node(s) on the wrong side"
        node = (node_rule, x, y, weights)
        if bad.any():
            ok = bad[node_rule] == 0
            node = tuple(a[ok] for a in node)
        parts.append(node)
        pending = pending[folded[pending] | (bad[pending] > 0)]
        rnd += 1
    if errors:
        raise errors[min(errors)]
    if len(parts) == 1:  # one round's nodes are already in rule order
        rule, x, y, weights = parts[0]
    else:
        rule, x, y, weights = (np.concatenate(a) for a in zip(*parts))
        by_rule = np.argsort(rule, kind="stable")
        rule, x, y, weights = rule[by_rule], x[by_rule], y[by_rule], weights[by_rule]
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rule, minlength=n), out=start[1:])
    return CutRuleBatch(elements, sides, start, x, y, weights)


def _wrong_side(x, y, curve, sides, h):
    """Nudge near-interface nodes (x, y) off the curve (in place), then flag
    the nodes that are not strictly on their requested side."""
    d = np.asarray(curve.signed_distance(x, y), dtype=float)
    near = np.abs(d) < 1e-13
    if np.any(near):
        gx, gy = curve.distance_gradient(x[near], y[near])
        shift = 1e-12 * h * np.where(sides[near] == 1, -1.0, 1.0)
        x[near] += shift * gx
        y[near] += shift * gy
        d = np.asarray(curve.signed_distance(x, y), dtype=float)
    return np.where(sides == 1, d >= 0.0, d <= 0.0)
