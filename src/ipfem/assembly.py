"""Assembly of the interface-penalty system.

The bilinear form is the side-wise weighted stiffness, minus the interface
consistency terms avg(a grad u . n) [v] + beta [u] avg(a grad v . n), plus the
jump penalty (weight gamma0 p^2 / h) and the flux-jump penalty (weight
gamma1 h / p^2).  beta = +1 gives the symmetric variant, beta = -1 the
non-symmetric one whose discrete energy equals the broken energy norm exactly.

Jumps are copy 1 minus copy 2 and averages are arithmetic with weights
(1/2, 1/2).  For a segment on a shared mesh edge, copy-1 traces come from the
side-1 element and copy-2 traces from the side-2 neighbor; on a cut element
both copies are evaluated on the host element itself.

Each pass first builds one integration plan (``build_plan``) holding the
geometry-only data: every cut-cell rule (in one batched call) and every
segment rule with its trace operators is built once, all uncut elements share
the reference tensor tables, and the cut sides form a few groups of equal
node count, taken by index straight from the batch's stacked node and weight
arrays, so the volume block, the load and the error norms loop over groups,
never over elements.  The five block functions then read the
plan, taking its groups in plan order: uncut side 1, uncut side 2, then the
cut groups by (side, node count).

A plan's rules follow from its tensor order q (``quadrature.pass_order``,
p + 2 for assembly): q^2 Gauss points on uncut elements, cut-cell rules of
order q + p and q + p + 2 Gauss points per segment (see ``build_plan``).
A plan depends on the space, its topology, q and p only, and is built
afresh for every pass and dropped after it.

The system is affine in the two penalties: gamma0 enters only as the weight
gamma0 p^2 / h of J0 and of the load's j_d term, gamma1 only as the weight
gamma1 h / p^2 of J1 and j_n.  The block functions know no penalty: they
return J0, J1, j_d and j_n of unit weight, and ``assemble`` alone scales
them and sums.  ``assemble`` keeps the parts of its last call that no
penalty enters in one slot on the space (``DoubledSpace.penalty_free``),
read-only: the volume and interface blocks, J0 and J1 of unit weight, and
the five load terms with j_d and j_n of unit weight.  The key is the
quadrature order, the identity of the ``Problem`` object (frozen, so a
coefficient cannot change under the same object) and beta; a call with that
key calls no block function and costs two CSR scalings, three block sums,
two vector scalings and four vector adds, so the first point of a
coercivity scan serves all of them.  Filling the slot on the first call
costs a run that assembles once per space little memory: it holds no plan
table (keeping the first request's plan once cost p-sweep 11 MB of peak
memory), only the volume and interface blocks, which the returned system
shares, and two blocks and five vectors the size of the system's own.  A
system built from the slot is byte-identical to one from a fresh space.

On an uncut element with a constant coefficient a the local stiffness is
a (S (x) M + M (x) S), scaled per axis, where S and M are the 1-D stiffness
and mass matrices of the two hats and the integrated Legendre bubbles.  Their
zero patterns are exact: S is the 2 x 2 hat block plus the diagonal (bubble
derivatives are Legendre polynomials, orthogonal to constants and to each
other), and M is the hat block, the hat couplings of bubbles 2 and 3 only,
and the bubble couplings with |k - l| in {0, 2}.  ``_stiffness_pattern``
derives the local (row, col) pairs of that pattern once per p.  For an uncut
group whose rule integrates the products exactly (p + 1 or more Gauss points
per axis) and whose a is equal at every quadrature point of each element,
``assemble_volume`` forms the reference-table columns at those pairs from the
group's shared gradients and computes and scatters only those entries; the
omitted entries are zero up to round-off.  At p = 8 on the nx = 16 mesh of a
straight interface that keeps 111,260 of the volume block's 1,556,256
entries.  Coefficients that vary within an element and p = 1, whose pattern
is full, take the full element clique from the shared (q, n_loc^2) reference
table (``_volume_table``).  A cut group takes its full cliques from one
batched product G^T diag(a w) G of its sides' physical gradients.

The trace blocks of a segment on a mesh edge are sparse in the same way.
Take the edge vertical (a horizontal edge swaps xi and eta), so each copy's
basis function is l_a(xi) l_b(eta).  On the edge a value trace is nonzero
only for the normal-direction hat that sits on it (a = 1 for the host on the
left, a = 0 for the host on the right), a normal flux for every a, and each
tangential product integrates to the 1-D mass M[b, b'].  Over the joint
(copy, a, b) index, J1 is nonzero only where M[b, b'] is, J0 only where both
factors are also trace hats, and the interface block only where at least
one is.  ``_trace_patterns`` derives these pairs once per (p, edge axis,
side of the copy-1 host) from the 1-D patterns (``_patterns_1d``) that the
stiffness pattern uses too.  The plan groups by that key the segments the
pattern holds for (``_edge_groups``): on a mesh edge, with the edge normal
as unit normal, and with a rule that is the affine image of a Gauss rule of
at least p + 1 nodes on the whole edge, so that the degree-2p tangential
products are integrated exactly.  A partial edge or a non-affine
parametrisation keeps its full clique, and so does a segment along which a
side's a varies, in the interface and J1 blocks.  The three trace functions
scatter the pattern entries of the grouped segments, taken from the full
local products, and the full cliques of all other segments, in one
conversion.  At p = 8 on the nx = 16 mesh of a straight interface, J1 keeps
140,940 of its 404,028 entries, J0 1,740 and the interface block 29,580.

Each block is one COO -> CSR conversion of all its local matrices, and each
load term one ``np.bincount`` of all its local vectors.  ``_csr`` drops the
entries at ids -1 chunk by chunk, as each chunk's triplets are formed, into
arrays sized once from the kept count, so the unfiltered triplets of the
whole block are never held at once; the kept triplets stay in input order.
scipy's conversion sums the duplicate entries in an order fixed by the
input, and bincount adds in input order, so reruns stay byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .fe_space import DoubledSpace
from .geometry import CutTopology, InterfaceSegment
from .mesh import element_map
from .quadrature import SegmentRule, cut_cell_rule, cut_order, gauss_1d, pass_order, segment_npoints, segment_rule, tensor_gauss


@dataclass
class PenaltyParams:
    """Penalty configuration: beta in {+1, -1}, nonnegative gamma0/gamma1, and
    the space degree p entering the scalings gamma0 p^2/h and gamma1 h/p^2."""

    beta: int
    gamma0: float
    gamma1: float
    p: int

    def __post_init__(self):
        if self.beta not in (1, -1):
            raise ValueError(f"beta must be +1 or -1, got {self.beta}")
        if not (math.isfinite(self.gamma0) and math.isfinite(self.gamma1)):
            raise ValueError(f"penalty parameters must be finite, got {self.gamma0}, {self.gamma1}")
        if self.gamma0 < 0 or self.gamma1 < 0:
            raise ValueError("penalty parameters must be nonnegative")

    def j0_weight(self, h: float) -> float:
        """Weight gamma0 p^2 / h of the jump penalty."""
        return self.gamma0 * self.p**2 / h

    def j1_weight(self, h: float) -> float:
        """Weight gamma1 h / p^2 of the flux-jump penalty."""
        return self.gamma1 * h / self.p**2


@dataclass(frozen=True)
class Problem:
    """Coefficient, data and (optionally) the exact solution pair.

    All fields are vectorized callables; ``a``, ``f``, ``exact`` and
    ``exact_grad`` are (side-1, side-2) pairs taking (x, y) arrays, with
    ``exact_grad[i]`` returning the tuple (du/dx, du/dy).  ``g_d`` and ``g_n``
    take the curve parameter.  Frozen, because ``assemble`` keys its kept
    parts on the object's identity: a changed field is a new object.
    """

    a: tuple
    f: tuple
    g_d: object = None
    g_n: object = None
    exact: tuple | None = None
    exact_grad: tuple | None = None

    def validate(self, curve, n: int = 50, seed: int = 0, tol: float = 1e-10):
        """Consistency self-test: interface data must match the jumps of the
        exact pair, and the coefficient must be positive."""
        rng = np.random.default_rng(seed)
        t = rng.uniform(0.0, curve.period, n)
        pts = curve.point(t)
        x, y = pts[:, 0], pts[:, 1]
        a1 = np.asarray(self.a[0](x, y), dtype=float)
        a2 = np.asarray(self.a[1](x, y), dtype=float)
        if np.any(a1 <= 0) or np.any(a2 <= 0):
            raise ValueError("coefficient a(x) must be positive on both sides")
        if self.exact is None:
            return
        nrm = curve.normal(t)
        ju = self.exact[0](x, y) - self.exact[1](x, y)
        g1x, g1y = self.exact_grad[0](x, y)
        g2x, g2y = self.exact_grad[1](x, y)
        jf = a1 * (g1x * nrm[:, 0] + g1y * nrm[:, 1]) - a2 * (
            g2x * nrm[:, 0] + g2y * nrm[:, 1]
        )
        scale = max(1.0, float(np.max(np.abs(ju))), float(np.max(np.abs(jf))))
        gd = np.zeros(n) if self.g_d is None else np.asarray(self.g_d(t), dtype=float)
        gn = np.zeros(n) if self.g_n is None else np.asarray(self.g_n(t), dtype=float)
        err_d = float(np.max(np.abs(gd - ju)))
        err_n = float(np.max(np.abs(gn - jf)))
        if err_d > tol * scale or err_n > tol * scale:
            raise ValueError(
                f"interface data inconsistent with the exact pair: "
                f"|g_D-[u]|={err_d:.2e}, |g_N-[a grad u . n]|={err_n:.2e}"
            )


@dataclass(eq=False)
class AssembledSystem:
    """Sparse system over the active unknowns with its matrix blocks."""

    matrix: sp.csr_matrix
    load: np.ndarray
    symmetric: bool
    params: PenaltyParams
    blocks: dict = field(default_factory=dict)
    order: np.ndarray | None = None  # the space's elimination order (``DoubledSpace.order``)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _T(a):
    """Transpose of the last two axes (of a single array or a stack)."""
    return np.swapaxes(a, -1, -2)


def _csr(idx, local, n: int, pairs=None) -> sp.csr_matrix:
    """Sum of the local matrices placed at the unknowns idx[e] of a (k, m) id
    array, as canonical n x n CSR; rows and columns with id -1 (constrained
    or inactive) are dropped.  local[e] holds the entries at the local
    (row, col) positions ``pairs``, by default the full m x m clique in
    row-major order.  ``idx``, ``local`` and ``pairs`` may also be lists of
    such chunks, converted together in list order.

    The kept triplets of all chunks are counted first, so the block's rows,
    cols and data are allocated once and each chunk fills its part as its
    triplets are formed; they keep the (chunk, element, local entry) order,
    which fixes the conversion's sums."""
    if not isinstance(idx, list):
        idx, local, pairs = [idx], [local], [pairs]
    total = 0
    for chunk, at in zip(idx, pairs):
        # both[i, j]: the elements that keep local row i and column j, a
        # count that floats hold exactly
        ok = (chunk >= 0).astype(float)
        both = ok.T @ ok
        total += int(both.sum() if at is None else both[at].sum())
    # int32, the index type scipy stores: int64 coordinates raised p-sweep's peak RSS
    rows, cols, data = np.empty(total, dtype=np.int32), np.empty(total, dtype=np.int32), np.empty(total)
    end = 0
    for chunk, values, at in zip(idx, local, pairs):
        chunk = chunk.astype(np.int32)
        if at is None:  # the full clique, row-major, its ids expanded: masking broadcast views is slower
            m = chunk.shape[1]
            r, c = np.repeat(chunk, m, axis=1), np.tile(chunk, (1, m))
        else:
            r, c = chunk[:, at[0]], chunk[:, at[1]]
        keep = (r >= 0) & (c >= 0)
        start, end = end, end + np.count_nonzero(keep)
        rows[start:end], cols[start:end] = r[keep], c[keep]
        data[start:end] = values.reshape(keep.shape)[keep]
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def _vector(idx, local, n: int) -> np.ndarray:
    """Sum of the local vectors local[e] placed at the unknowns idx[e], as a
    length-n array; ids -1 are dropped."""
    ok = idx >= 0
    return np.bincount(idx[ok], weights=local[ok], minlength=n)


def _evaluate(fn, x, y):
    """A vectorized coefficient or data callable over all points at once."""
    return _shaped(fn(x.ravel(), y.ravel()), x.shape)


def _shaped(values, shape):
    """Callable output (an array over the flattened points, or a scalar) in ``shape``."""
    return np.broadcast_to(np.asarray(values, dtype=float), (int(np.prod(shape)),)).reshape(shape)


@dataclass(eq=False)
class SegmentTraces:
    """Per-copy trace operators of the local bases at segment quadrature nodes,
    with the side coefficients ``a`` there that scaled the fluxes.

    Fields carry a leading segment axis when built for all segments at once.
    """

    idx1: np.ndarray
    idx2: np.ndarray
    vals1: np.ndarray  # (nq, nloc)
    vals2: np.ndarray
    flux1: np.ndarray  # (nq, nloc) a * grad(phi) . n
    flux2: np.ndarray
    a: tuple | None = None  # (a1, a2), (nq,) each; None for unit-coefficient fluxes

    @property
    def joint_idx(self) -> np.ndarray:
        return np.concatenate([self.idx1, self.idx2], axis=-1)

    @property
    def jump(self) -> np.ndarray:
        return np.concatenate([self.vals1, -self.vals2], axis=-1)

    @property
    def avg_flux(self) -> np.ndarray:
        return 0.5 * np.concatenate([self.flux1, self.flux2], axis=-1)

    @property
    def jump_flux(self) -> np.ndarray:
        return np.concatenate([self.flux1, -self.flux2], axis=-1)


def _basis_at(space: DoubledSpace, elems, x, y, rows: bool = False) -> tuple:
    """Basis values (..., q, n_loc) and physical gradients (..., q, n_loc, 2)
    at the nodes with coordinates ``x`` and ``y`` (..., q), each row of nodes
    mapped into its element in ``elems`` (shape ...).  With ``rows`` the
    gradients come as (..., 2q, n_loc), row 2k + d holding component d at
    node k."""
    c, half = element_map(space.mesh, elems)
    xi = ((x - c[..., None, 0]) / half[0]).ravel()
    eta = ((y - c[..., None, 1]) / half[1]).ravel()
    shape = x.shape + (space.basis.n_local,)
    grads = space.basis.gradients(xi, eta, rows)
    if rows:
        grads /= half[:, None]
        return space.basis.values(xi, eta).reshape(shape), grads.reshape(shape[:-2] + (-1, shape[-1]))
    grads /= half
    return space.basis.values(xi, eta).reshape(shape), grads.reshape(shape + (2,))


def _unit_traces(space: DoubledSpace, hosts, points, normals) -> SegmentTraces:
    """Both copies' traces at segment nodes ``points`` (..., nq, 2), with the
    normal fluxes of a unit coefficient; ``hosts`` holds the copy-1 and copy-2
    host elements of each segment, with the shape of points[..., 0, 0]."""
    out = {}
    for side, elems in zip((1, 2), hosts):
        vals, grads = _basis_at(space, elems, points[..., 0], points[..., 1])
        flux = np.einsum("...qld,...qd->...ql", grads, normals)
        out[side] = (space.element_unknowns(elems, side), vals, flux)
    return SegmentTraces(
        idx1=out[1][0],
        idx2=out[2][0],
        vals1=out[1][1],
        vals2=out[2][1],
        flux1=out[1][2],
        flux2=out[2][2],
    )


def _with_coefficient(unit: SegmentTraces, problem: Problem, points) -> SegmentTraces:
    """Scale unit-coefficient fluxes by each side's a at the segment nodes, kept as ``a``."""
    a1 = _evaluate(problem.a[0], points[..., 0], points[..., 1])
    a2 = _evaluate(problem.a[1], points[..., 0], points[..., 1])
    return replace(unit, flux1=a1[..., None] * unit.flux1, flux2=a2[..., None] * unit.flux2, a=(a1, a2))


def _segment_hosts(segments) -> tuple:
    """Copy-1 and copy-2 host elements: the side-2 neighbour for a segment on
    a shared mesh edge, the host element itself for a cut."""
    first = np.array([s.element for s in segments], dtype=np.int64)
    second = np.array([s.neighbor if s.on_edge else s.element for s in segments], dtype=np.int64)
    return first, second


def segment_trace_operators(
    space: DoubledSpace,
    problem: Problem,
    segment: InterfaceSegment,
    rule: SegmentRule,
) -> SegmentTraces:
    """Evaluate both copies' traces and normal fluxes along one segment.

    The one-segment entry point that the acceptance gate and the tests import
    to check a segment's traces outside the integration plan; no consumer in
    the package calls it, as each reads ``IntegrationPlan.segment_traces``."""
    hosts = tuple(h[0] for h in _segment_hosts([segment]))
    return _with_coefficient(_unit_traces(space, hosts, rule.points, rule.normals), problem, rule.points)


@dataclass(eq=False)
class ElementGroup:
    """Elements of one side integrated together: all uncut elements of the
    side, sharing the reference tensor rule's tables, or the cut elements'
    sides with one node count, each with its own cut-cell rule.  Only
    geometry: nothing here depends on the coefficient."""

    side: int
    x: np.ndarray  # (E, q) physical quadrature points
    y: np.ndarray
    w: np.ndarray  # physical weights: (q,) shared, or (E, q)
    vals: np.ndarray  # basis values: (q, n_loc) shared, or (E, q, n_loc)
    # physical basis gradients: (q, n_loc, 2) shared, or (E, 2q, n_loc) per
    # element, row 2k + d holding component d at node k: the G of G^T diag(a w) G
    grads: np.ndarray
    idx: np.ndarray  # (E, n_loc) unknown ids, -1 where constrained or inactive


def _contract(rows, table):
    """sum_q rows[e, q] table[.., q, k] for every element e: one GEMM with
    the shared (q, k) table of an uncut group, one vector-matrix product per
    element with the (E, q, k) tables of a cut group (the products a group
    of one element would take)."""
    if table.ndim == rows.ndim:
        return rows @ table
    return np.matmul(rows[:, None, :], table)[:, 0]


@dataclass(eq=False)
class IntegrationPlan:
    """Geometry-only quadrature data of one assembly or error pass.

    ``groups`` are the uncut elements of side 1 and of side 2, then the cut
    sides stacked by (side, node count); every consumer takes them in that
    order.  ``rule`` and ``traces`` hold the rule and the unit-coefficient
    trace operators of every segment (``traces.a`` is None), stacked along a
    leading segment axis, and ``edge_groups`` the segments with structurally
    sparse trace blocks.  Every rule is built exactly once per plan, and
    nothing keeps a plan after its pass.
    """

    space: DoubledSpace
    h: float  # element diagonal h_K, the same for every element
    groups: tuple
    rule: SegmentRule
    traces: SegmentTraces
    edge_groups: tuple = ()  # (segment indices, pattern key) (``_edge_groups``)

    @property
    def n(self) -> int:
        return self.space.n_unknowns

    def segment_traces(self, problem: Problem) -> SegmentTraces:
        """Segment traces with the fluxes a grad(phi) . n of ``problem``, and that a."""
        return _with_coefficient(self.traces, problem, self.rule.points)


def _cut_groups(space: DoubledSpace, topology: CutTopology, order: int) -> list:
    """One group per (side, node count) of the positive cut sides, in that
    order, taken by index from the stacked batch of one ``cut_cell_rule`` call
    at ``order``; each group holds its sides in (element, side) order."""
    cut = topology.cut_elements
    elems = np.repeat(cut, 2)
    sides = np.tile([1, 2], len(cut))
    positive = topology.fractions[elems, sides - 1] > 0.0
    elems, sides = elems[positive], sides[positive]
    if not len(elems):
        return []
    batch = cut_cell_rule(topology, elems, sides, order)
    counts = np.diff(batch.start)
    keys = sides * (counts.max() + 1) + counts
    groups = []
    for key in np.unique(keys):
        sel = np.flatnonzero(keys == key)
        side = int(sides[sel[0]])
        at = batch.start[sel, None] + np.arange(counts[sel[0]])
        x, y = batch.x[at], batch.y[at]
        vals, grads = _basis_at(space, elems[sel], x, y, rows=True)
        groups.append(
            ElementGroup(
                side=side,
                x=x,
                y=y,
                w=batch.weights[at],
                vals=vals,
                grads=grads,
                idx=space.element_unknowns(elems[sel], side),
            )
        )
    return groups


@lru_cache(maxsize=None)
def _patterns_1d(p: int) -> tuple:
    """Structural nonzeros (S, M), as (p+1, p+1) boolean arrays, of the 1-D
    stiffness and mass matrices of the two hats and the bubbles up to degree
    p (see the module docstring)."""
    k = np.arange(p + 1)
    hat = k < 2
    both_hats = hat[:, None] & hat[None, :]
    gap = np.abs(k[:, None] - k[None, :])
    s1d = both_hats | (gap == 0)
    m1d = (
        both_hats
        | (hat[:, None] & (k[None, :] <= 3))
        | (hat[None, :] & (k[:, None] <= 3))
        | (~hat[:, None] & ~hat[None, :] & ((gap == 0) | (gap == 2)))
    )
    s1d.setflags(write=False)
    m1d.setflags(write=False)
    return s1d, m1d


def _read_only_pairs(mask) -> tuple:
    """Row-major (row, col) pairs of the True entries of ``mask``."""
    rows, cols = np.nonzero(mask)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@lru_cache(maxsize=None)
def _stiffness_pattern(p: int):
    """Local (row, col) pairs, row-major, of the structural nonzeros of the
    constant-coefficient stiffness S (x) M + M (x) S of the degree-p basis
    (see the module docstring), or None for p = 1, where it is full."""
    s1d, m1d = _patterns_1d(p)
    mask = np.kron(s1d, m1d) | np.kron(m1d, s1d)
    return None if mask.all() else _read_only_pairs(mask)


@lru_cache(maxsize=None)
def _trace_patterns(p: int, axis: int, copy1_low: bool) -> dict:
    """Joint (row, col) pairs, row-major over the (copy, a, b) index, of the
    structural nonzeros of the interface, J0 and J1 blocks of a segment on a
    mesh edge normal to ``axis`` (0: x, 1: y), the copy-1 host on the low
    side of the edge when ``copy1_low`` (see the module docstring)."""
    n = p + 1
    a, b = np.divmod(np.arange(n * n), n)
    normal, tangent = (a, b) if axis == 0 else (b, a)
    # the edge is at +1 of the host below it, at -1 of the host above it
    hat1 = 1 if copy1_low else 0
    trace = np.concatenate([normal == hat1, normal == 1 - hat1])
    tangent = np.concatenate([tangent, tangent])
    mass = _patterns_1d(p)[1][tangent[:, None], tangent[None, :]]
    return {
        "interface": _read_only_pairs(mass & (trace[:, None] | trace[None, :])),
        "j0": _read_only_pairs(mass & trace[:, None] & trace[None, :]),
        "j1": _read_only_pairs(mass),
    }


def _edge_groups(space: DoubledSpace, topology: CutTopology, rule: SegmentRule) -> tuple:
    """Segments whose trace blocks have the pattern of ``_trace_patterns``,
    as (segment indices, (p, axis, copy1_low)) per pattern key.

    A segment qualifies when it lies on a mesh edge, its unit normal is the
    edge normal, and its rule is the affine image of a Gauss rule of at least
    p + 1 nodes on the whole edge, seen from each of its two hosts: then it
    integrates the degree-2p tangential products exactly.  A partial edge or
    a non-affine parametrisation does not qualify.  Coordinates and weights
    are compared within 64 ulps of their magnitude: the segment ends come
    from a root search on the curve parameter, which leaves the nodes of a
    fine mesh's segments some 30 ulps off the grid (nx = 128 on (-1, 1)^2).
    """
    on_edge = np.flatnonzero([s.on_edge for s in topology.segments])
    p = space.basis.p
    g = gauss_1d(rule.weights.shape[-1])
    if not on_edge.size or len(g.points) < p + 1:
        return ()
    ulps = 64 * np.finfo(float).eps
    points, normals, w = rule.points[on_edge], rule.normals[on_edge], rule.weights[on_edge]
    rows = np.arange(len(on_edge))
    axis = np.argmax(np.abs(normals[:, 0]), axis=-1)  # 0: a vertical edge
    tangent = 1 - axis
    copy1_low = normals[rows, 0, axis] > 0.0  # n points from side 1 into side 2
    along = points[rows, :, tangent]
    direction = np.where(along[:, -1] < along[:, 0], -1.0, 1.0)
    ok = (np.abs(normals[rows, :, tangent]) <= ulps).all(axis=1)
    for hosts, edge_at in zip(_segment_hosts([topology.segments[k] for k in on_edge]), (1.0, -1.0)):
        centers, half = element_map(space.mesh, hosts)
        c_n, c_t, h_n, h_t = centers[rows, axis], centers[rows, tangent], half[axis], half[tangent]
        edge = c_n + np.where(copy1_low, edge_at, -edge_at) * h_n
        nodes = c_t[:, None] + (direction * h_t)[:, None] * g.points
        ok &= (np.abs(points[rows, :, axis] - edge[:, None]) <= ulps * (np.abs(c_n) + h_n)[:, None]).all(axis=1)
        ok &= (np.abs(along - nodes) <= ulps * (np.abs(c_t) + h_t)[:, None]).all(axis=1)
        ok &= (np.abs(w - h_t[:, None] * g.weights) <= ulps * h_t[:, None]).all(axis=1)
    groups = []
    for key in sorted(set(zip(axis[ok].tolist(), copy1_low[ok].tolist()))):
        sel = ok & (axis == key[0]) & (copy1_low == key[1])
        groups.append((on_edge[sel], (p, *key)))
    return tuple(groups)


def _check_pass(space: DoubledSpace, topology: CutTopology, p: int) -> None:
    """Reject a topology or a degree other than the ones the space was built on."""
    if topology is not space.topology:
        raise ValueError("the topology is not the one the space was built on")
    if p != space.basis.p:
        raise ValueError(f"p = {p} does not match the space's degree {space.basis.p}")


def build_plan(space: DoubledSpace, topology: CutTopology, quad_order: int, p: int) -> IntegrationPlan:
    """Integration plan of one pass over ``space``: the (quad_order)^2 tensor
    Gauss rule on uncut elements, cut-cell rules of order
    ``cut_order(quad_order, p)``, and segment rules with
    ``segment_npoints(quad_order, p)`` nodes, with their basis tables."""
    _check_pass(space, topology, p)
    mesh = space.mesh
    basis = space.basis
    ref = tensor_gauss(quad_order)
    _, half = element_map(mesh, 0)  # the same for every element
    ref_vals = basis.values(ref.points[:, 0], ref.points[:, 1])
    ref_grads = basis.gradients(ref.points[:, 0], ref.points[:, 1]) / half
    ref_w = ref.weights * (half[0] * half[1])
    groups = []
    for side in (1, 2):
        elems = np.flatnonzero(topology.labels == side)
        centers, _ = element_map(mesh, elems)
        groups.append(
            ElementGroup(
                side=side,
                x=centers[:, 0:1] + half[0] * ref.points[None, :, 0],
                y=centers[:, 1:2] + half[1] * ref.points[None, :, 1],
                w=ref_w,
                vals=ref_vals,
                grads=ref_grads,
                idx=space.element_unknowns(elems, side),
            )
        )

    rule = segment_rule(topology.segments, topology.curve, segment_npoints(quad_order, p))
    traces = _unit_traces(space, _segment_hosts(topology.segments), rule.points, rule.normals)
    return IntegrationPlan(
        space=space,
        h=mesh.h,
        groups=tuple(groups + _cut_groups(space, topology, cut_order(quad_order, p))),
        rule=rule,
        traces=traces,
        edge_groups=_edge_groups(space, topology, rule),
    )


def _volume_table(g: ElementGroup, pairs=None) -> np.ndarray:
    """B[q, k] = sum_d G[q, l, d] G[q, m, d] of an uncut group's shared basis
    gradients G at the local pairs (l, m) = pairs[k], by default every pair
    in row-major order: the coefficient-free factor of its stiffness."""
    if pairs is None:
        # the indexed form's entries, C-ordered: on that form's layout (a w) @ table
        # takes another BLAS path and moves the full cliques (smooth-nojump) at round-off
        table = np.einsum("qld,qmd->qlm", g.grads, g.grads)
        return table.reshape(len(table), -1)
    gx, gy = g.grads[..., 0], g.grads[..., 1]
    rows, cols = pairs
    return gx[:, rows] * gx[:, cols] + gy[:, rows] * gy[:, cols]


def assemble_volume(plan: IntegrationPlan, problem: Problem) -> sp.csr_matrix:
    """Side-wise stiffness: sum_i int_{Omega_i} a grad u . grad v.

    An uncut group whose rule has p + 1 or more Gauss points per axis and
    whose a is equal at every quadrature point of each element gets only its
    structural nonzeros (``_stiffness_pattern``); every other group its full
    element cliques."""
    p = plan.space.basis.p
    local, pairs = [], []
    for g in plan.groups:
        a = _evaluate(problem.a[g.side - 1], g.x, g.y)
        aw = a * g.w
        if g.w.ndim == 2:  # G^T diag(a w) G per cut side
            at = None
            local.append(_T(g.grads) @ (np.repeat(aw, 2, axis=1)[..., None] * g.grads))
        else:  # uncut: the shared reference table, at the pattern's pairs only
            # the shared rule is build_plan's (quad_order)^2 Gauss: quad_order >= p + 1
            at = _stiffness_pattern(p) if len(g.w) >= (p + 1) ** 2 and (a == a[:, :1]).all() else None
            local.append(aw @ _volume_table(g, at))
        pairs.append(at)
    return _csr([g.idx for g in plan.groups], local, plan.n, pairs)


def _trace_csr(plan: IntegrationPlan, local, block: str, a: tuple | None = None) -> sp.csr_matrix:
    """One COO -> CSR conversion of a trace block's (segment, 2m, 2m) local
    matrices: the ``block`` pattern entries of each edge group, then the full
    cliques of the other segments in segment order.  With the coefficients
    ``a`` at the nodes, an edge segment keeps its full clique unless both
    sides' are constant along it, as a varying a enters the tangential sums."""
    idx = plan.traces.joint_idx
    idx_chunks, local_chunks, pairs = [], [], []
    full = np.ones(len(idx), dtype=bool)
    for segs, key in plan.edge_groups:
        if a is not None:
            segs = segs[np.logical_and.reduce([(s[segs] == s[segs, :1]).all(axis=1) for s in a])]
        if not segs.size:
            continue
        rows, cols = at = _trace_patterns(*key)[block]
        idx_chunks.append(idx[segs])
        local_chunks.append(local[segs[:, None], rows, cols])
        pairs.append(at)
        full[segs] = False
    if not idx_chunks:
        return _csr(idx, local, plan.n)
    if full.any():
        idx_chunks.append(idx[full])
        local_chunks.append(local[full])
        pairs.append(None)
    return _csr(idx_chunks, local_chunks, plan.n, pairs)


def assemble_interface(plan: IntegrationPlan, problem: Problem, beta: int) -> sp.csr_matrix:
    """Consistency terms: -sum_e int_e avg(a grad u . n)[v] + beta [u] avg(a grad v . n)."""
    tr = plan.segment_traces(problem)
    jump = tr.jump
    avg = tr.avg_flux
    w = plan.rule.weights[..., None]
    return _trace_csr(plan, -(_T(jump) @ (w * avg) + beta * _T(avg) @ (w * jump)), "interface", tr.a)


def assemble_J0(plan: IntegrationPlan) -> sp.csr_matrix:
    """Jump penalty of unit weight  sum_e int_e [u][v]."""
    jump = plan.traces.jump
    return _trace_csr(plan, _T(jump) @ (plan.rule.weights[..., None] * jump), "j0")


def assemble_J1(plan: IntegrationPlan, problem: Problem) -> sp.csr_matrix:
    """Flux-jump penalty of unit weight  sum_e int_e [a grad u . n][a grad v . n]."""
    tr = plan.segment_traces(problem)
    jf = tr.jump_flux
    return _trace_csr(plan, _T(jf) @ (plan.rule.weights[..., None] * jf), "j1", tr.a)


def assemble_load(plan: IntegrationPlan, problem: Problem, beta: int) -> dict:
    """The five load terms, kept separately: the volume source, int_G g_N avg(v),
    -beta int_G g_D avg(a grad v . n), and the Dirichlet and flux penalties
    J_D and J_N of unit weight."""
    n = plan.n
    local = [_contract(_evaluate(problem.f[g.side - 1], g.x, g.y) * g.w, g.vals) for g in plan.groups]
    volume = _vector(np.concatenate([g.idx for g in plan.groups]), np.concatenate(local), n)

    tr = plan.segment_traces(problem)
    t = plan.rule.params
    w = plan.rule.weights
    gd = np.zeros(t.shape) if problem.g_d is None else _shaped(problem.g_d(t.ravel()), t.shape)
    gn = np.zeros(t.shape) if problem.g_n is None else _shaped(problem.g_n(t.ravel()), t.shape)

    def project(ops, data):
        return np.einsum("...qi,...q->...i", ops, w * data)

    idx = tr.joint_idx
    avg_v = 0.5 * np.concatenate([tr.vals1, tr.vals2], axis=-1)
    return {
        "volume": volume,
        "gn_avg": _vector(idx, project(avg_v, gn), n),
        "gd_flux": _vector(idx, -beta * project(tr.avg_flux, gd), n),
        "j_d": _vector(idx, project(tr.jump, gd), n),
        "j_n": _vector(idx, project(tr.jump_flux, gn), n),
    }


def _total(terms: dict) -> np.ndarray:
    """The load: the sum of its five terms, in one fixed order."""
    return terms["volume"] + terms["gn_avg"] + terms["gd_flux"] + terms["j_d"] + terms["j_n"]


def _penalty_free(space: DoubledSpace, topology: CutTopology, problem: Problem, beta: int, quad_order: int) -> tuple:
    """The blocks and load terms that no penalty enters, read-only, from the
    space's slot when its key (quad_order, the ``problem`` object, beta) is
    this call's, else built and put in the slot."""
    kept = space.penalty_free
    if kept is not None and kept[0] == quad_order and kept[1] is problem and kept[2] == beta:
        return kept[3:]
    plan = build_plan(space, topology, quad_order, space.basis.p)
    blocks = {
        "volume": assemble_volume(plan, problem),
        "interface": assemble_interface(plan, problem, beta),
        "j0": assemble_J0(plan),
        "j1": assemble_J1(plan, problem),
    }
    terms = assemble_load(plan, problem, beta)
    for array in [a for b in blocks.values() for a in (b.data, b.indices, b.indptr)] + list(terms.values()):
        array.setflags(write=False)
    space.penalty_free = (quad_order, problem, beta, blocks, terms)
    return blocks, terms


def assemble(
    space: DoubledSpace,
    topology: CutTopology,
    problem: Problem,
    params: PenaltyParams,
    quad_order: int | None = None,
) -> AssembledSystem:
    """Full system for the interface-penalty method (beta from ``params``);
    ``quad_order`` is the plan's tensor order, by default ``pass_order(p)``."""
    if quad_order is None:
        quad_order = pass_order(params.p)
    _check_pass(space, topology, params.p)
    unit, terms = _penalty_free(space, topology, problem, params.beta, quad_order)
    w0, w1 = params.j0_weight(space.mesh.h), params.j1_weight(space.mesh.h)
    blocks = {**unit, "j0": w0 * unit["j0"], "j1": w1 * unit["j1"]}
    # a sum of canonical CSR matrices is canonical CSR: no conversion needed
    matrix = blocks["volume"] + blocks["interface"] + blocks["j0"] + blocks["j1"]
    return AssembledSystem(
        matrix=matrix,
        load=_total({**terms, "j_d": w0 * terms["j_d"], "j_n": w1 * terms["j_n"]}),
        symmetric=(params.beta == 1),
        params=params,
        blocks=blocks,
        order=space.order,
    )
