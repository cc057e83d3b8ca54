"""Tensor-product hp basis on rectangles, the conforming scalar space, and the
doubled (two-copy) space with per-copy activity masks.

The 1D basis is hierarchical: two nodal hat ends plus integrated-Legendre
bubbles, so spaces are nested in p and edge traces depend only on the edge's
own 1D factors.  On an axis-aligned structured mesh every shared edge is
parameterized identically from both sides, hence all edge orientation signs
are +1 and no sign array is needed.
"""

from __future__ import annotations

import numpy as np

from .geometry import CutTopology, signed_side
from .mesh import Mesh, element_map


class InactiveEvaluation(Exception):
    """Requested copy has no active degrees of freedom at this point."""


def _legendre_table(x, p):
    """Legendre values P_0..P_p at the points x, shape (len(x), p+1)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((x.size, p + 1))
    out[:, 0] = 1.0
    if p >= 1:
        out[:, 1] = x
    for k in range(2, p + 1):
        out[:, k] = ((2 * k - 1) * x * out[:, k - 1] - (k - 1) * out[:, k - 2]) / k
    return out


def shape_1d(x, p):
    """Values of the p+1 1D shape functions on [-1, 1] at points x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    leg = _legendre_table(x, max(p, 1))
    out = np.empty((x.size, p + 1))
    out[:, 0] = 0.5 * (1.0 - x)
    out[:, 1] = 0.5 * (1.0 + x)
    for k in range(2, p + 1):
        out[:, k] = (leg[:, k] - leg[:, k - 2]) / np.sqrt(2.0 * (2 * k - 1))
    return out


def shape_1d_deriv(x, p):
    """Derivatives of the 1D shape functions at points x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    leg = _legendre_table(x, max(p - 1, 1))
    out = np.empty((x.size, p + 1))
    out[:, 0] = -0.5
    out[:, 1] = 0.5
    for k in range(2, p + 1):
        out[:, k] = np.sqrt((2 * k - 1) / 2.0) * leg[:, k - 1]
    return out


class BasisSet:
    """All (p+1)^2 tensor-product shape functions on [-1, 1]^2.

    Local index l = a*(p+1)+b pairs the 1D factor a in xi with factor b in
    eta; factors 0 and 1 are the nodal hats at -1 and +1, factors >= 2 the
    integrated-Legendre bubbles of that degree.
    """

    def __init__(self, p: int):
        if not 1 <= p <= 10:
            raise ValueError(f"degree p={p} outside the supported range [1, 10]")
        self.p = p
        self.n_local = (p + 1) ** 2

    def values(self, xi, eta):
        """(npts, n_local) array of shape function values."""
        sx = shape_1d(xi, self.p)
        sy = shape_1d(eta, self.p)
        return np.einsum("qa,qb->qab", sx, sy).reshape(len(sx), self.n_local)

    def gradients(self, xi, eta, rows: bool = False):
        """(npts, n_local, 2) array of reference-coordinate gradients, or with
        ``rows`` the same values as (npts, 2, n_local), one row per component."""
        sx = shape_1d(xi, self.p)
        sy = shape_1d(eta, self.p)
        dx = shape_1d_deriv(xi, self.p)
        dy = shape_1d_deriv(eta, self.p)
        m = self.p + 1
        # written in place: no per-component copies of a table over many points
        if rows:
            out = np.empty((len(sx), 2, self.n_local))
            component = out.reshape(len(sx), 2, m, m).swapaxes(0, 1)
        else:
            out = np.empty((len(sx), self.n_local, 2))
            component = np.moveaxis(out.reshape(len(sx), m, m, 2), -1, 0)
        np.einsum("qa,qb->qab", dx, sy, out=component[0])
        np.einsum("qa,qb->qab", sx, dy, out=component[1])
        return out


def build_basis(p: int) -> BasisSet:
    """Reference basis of separate degree <= p with analytic gradients."""
    return BasisSet(p)


class DofMap:
    """Global numbering of the conforming degree-p space on a mesh.

    DOFs are blocked as vertices, horizontal-edge bubbles, vertical-edge
    bubbles, then element interiors, each block row-major, so the numbering
    is deterministic.  ``boundary`` marks DOFs constrained to zero by the
    homogeneous Dirichlet condition on the outer boundary.
    """

    def __init__(self, mesh: Mesh, p: int):
        self.mesh = mesh
        self.p = p
        nx, ny = mesh.nx, mesh.ny
        nv = (nx + 1) * (ny + 1)
        nhe = nx * (ny + 1)
        nve = (nx + 1) * ny
        nbub = p - 1
        self.n_dofs = nv + nbub * (nhe + nve) + nbub**2 * mesh.n_elements

        # every (element e, local l = a*(p+1) + b) pair at once; factors a, b
        # <= 1 are the vertex hats, so (i + a, j + b) is a lattice vertex,
        # horizontal edge row or vertical edge column
        e = np.arange(mesh.n_elements)[:, None]
        i, j = e % nx, e // nx
        a = np.repeat(np.arange(p + 1), p + 1)[None, :]
        b = np.tile(np.arange(p + 1), p + 1)[None, :]
        vertex = (a <= 1) & (b <= 1)
        h_edge = (a >= 2) & (b <= 1)
        v_edge = (a <= 1) & (b >= 2)
        on_x = (i + a == 0) | (i + a == nx)
        on_y = (j + b == 0) | (j + b == ny)
        self.element_dofs = np.select(
            [vertex, h_edge, v_edge],
            [
                (j + b) * (nx + 1) + (i + a),
                nv + ((j + b) * nx + i) * nbub + (a - 2),
                nv + nbub * nhe + (j * (nx + 1) + (i + a)) * nbub + (b - 2),
            ],
            nv + nbub * (nhe + nve) + e * nbub**2 + (a - 2) * nbub + (b - 2),
        )
        self.boundary = np.zeros(self.n_dofs, dtype=bool)
        self.boundary[self.element_dofs[(vertex & (on_x | on_y)) | (h_edge & on_y) | (v_edge & on_x)]] = True
        self.element_dofs.setflags(write=False)
        self.boundary.setflags(write=False)

    @property
    def n_free(self) -> int:
        return int(self.n_dofs - self.boundary.sum())


def build_dof_map(mesh: Mesh, p: int) -> DofMap:
    """Conforming DOF numbering; total count is (nx*p+1)*(ny*p+1)."""
    return DofMap(mesh, p)


def gather(coeffs: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Coefficients at unknown ids ``idx`` (any shape); zero where an id is -1
    (constrained or inactive)."""
    local = np.zeros(idx.shape)
    ok = idx >= 0
    local[ok] = coeffs[idx[ok]]
    return local


class DoubledSpace:
    """Two copies of the conforming space, each restricted to one side.

    A (copy, DOF) pair is active iff some element in the DOF's support has
    positive area fraction on that side; excluded pairs have identically zero
    rows, so dropping them is exact.  Unknowns are numbered copy-major, then
    by DOF id.
    """

    def __init__(self, dofmap: DofMap, topology: CutTopology):
        self.dofmap = dofmap
        self.topology = topology
        self.mesh = dofmap.mesh
        self.basis = build_basis(dofmap.p)

        active = np.zeros((2, dofmap.n_dofs), dtype=bool)
        for side in (1, 2):
            elems = np.flatnonzero(topology.fractions[:, side - 1] > 0.0)
            active[side - 1, dofmap.element_dofs[elems].ravel()] = True
        active &= ~dofmap.boundary[None, :]

        self.active = active
        self.unknown_of = np.full((2, dofmap.n_dofs), -1, dtype=np.int64)
        n1 = int(active[0].sum())
        self.unknown_of[0, active[0]] = np.arange(n1)
        self.unknown_of[1, active[1]] = n1 + np.arange(int(active[1].sum()))
        self.n_unknowns = int(active.sum())
        self.active.setflags(write=False)
        self.unknown_of.setflags(write=False)
        # elimination order of the unknowns for the sparse LU, or None for the
        # solver's default (see the solver module docstring)
        self.order = _grid_dissection(self.mesh, np.nonzero(active)[1]) if dofmap.p == 1 else None
        # (quad_order, problem, beta, blocks, load terms): the penalty-free parts
        # of assembly.assemble's last call, or None before the first
        self.penalty_free = None

    def element_unknowns(self, element: int, side: int) -> np.ndarray:
        """Unknown ids of the element's local DOFs in copy ``side`` (-1 where
        constrained or inactive)."""
        return self.unknown_of[side - 1, self.dofmap.element_dofs[element]]

    def gather(self, coeffs: np.ndarray, element: int, side: int) -> np.ndarray:
        """Local coefficient vector of copy ``side`` on one element; entries
        for constrained or inactive DOFs are zero."""
        return gather(coeffs, self.element_unknowns(element, side))


def _grid_dissection(mesh: Mesh, vertex_dofs: np.ndarray) -> np.ndarray:
    """Nested-dissection order of degree-1 unknowns sitting at the vertex
    DOFs ``vertex_dofs`` (A. George, SIAM J. Numer. Anal. 10, 1973).

    Each box of interior vertex lines is bisected on the middle line of its
    longer side (x on a tie), down to boxes of one element; the unknowns of
    a box come in the order [lower half, upper half, separator line],
    recursively, and the two copies of a vertex share its place.  Built in
    array passes over the boxes, one per level: the unfinished boxes of a
    level are stored as arrays, each with a sort key of base-3 digits, 0 for
    a lower half, 1 for an upper half.  A level gives each separator line,
    and each box too small to split, its box's key with a final digit 2,
    padded with 2s to the depth of the deepest level; those rectangles are
    painted with their keys on the vertex grid, each unknown takes the key
    of its vertex, and a stable argsort of the keys gives the order."""
    nx, ny = mesh.nx, mesh.ny
    # first and last interior vertex line of each box, per axis
    lo, hi = np.array([[1, 1]]), np.array([[nx - 1, ny - 1]])
    key = np.zeros(1, dtype=np.int64)
    placed = []  # per level: the painted rectangles' first and last lines, and their keys
    while len(lo):
        boxes = np.arange(len(lo))
        width = hi - lo
        axis = (width[:, 1] > width[:, 0]).astype(np.int64)
        first, last = lo[boxes, axis], hi[boxes, axis]
        split = np.flatnonzero(last - first >= 2)
        mid = (first + last)[split] // 2
        r_lo, r_hi = lo.copy(), hi.copy()  # a finished box is painted whole
        r_lo[split, axis[split]] = r_hi[split, axis[split]] = mid
        placed.append((r_lo, r_hi, 3 * key + 2))
        lower_hi, upper_lo = hi[split], lo[split]
        lower_hi[np.arange(len(split)), axis[split]] = mid - 1
        upper_lo[np.arange(len(split)), axis[split]] = mid + 1
        lo, hi = np.concatenate([lo[split], upper_lo]), np.concatenate([lower_hi, hi[split]])
        key = np.concatenate([3 * key[split], 3 * key[split] + 1])
    r_lo, r_hi, r_key = (np.concatenate(part) for part in zip(*placed))
    depth = np.repeat(np.arange(len(placed)), [len(k) for *_, k in placed])
    pad = 3 ** (len(placed) - 1 - depth)
    r_key = r_key * pad + (pad - 1)
    # every vertex of every rectangle, row by row
    size = np.maximum(r_hi - r_lo + 1, 0)
    count = size[:, 0] * size[:, 1]
    rect = np.repeat(np.arange(len(count)), count)
    j = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    x = r_lo[rect, 0] + j % size[rect, 0]
    y = r_lo[rect, 1] + j // size[rect, 0]
    grid = np.zeros((ny + 1) * (nx + 1), dtype=np.int64)
    grid[y * (nx + 1) + x] = r_key[rect]
    return np.argsort(grid[vertex_dofs], kind="stable")


def build_doubled_space(dofmap: DofMap, topology: CutTopology) -> DoubledSpace:
    """Doubled space with activity masks derived from the cut topology."""
    return DoubledSpace(dofmap, topology)


def evaluate_discrete(space: DoubledSpace, coeffs, point, side="auto"):
    """Value and gradient of the discrete function at one physical point.

    ``side`` selects the copy; "auto" infers it from the interface (and
    raises OnInterface for points on the curve).  Raises InactiveEvaluation
    when the requested copy has no support at the point.
    """
    mesh = space.mesh
    x, y = float(point[0]), float(point[1])
    if side == "auto":
        side = signed_side((x, y), space.topology.curve, tol=1e-12 * mesh.h)
    side = int(side)
    candidates = mesh.locate_candidates(x, y, tol=1e-12 * mesh.h)
    elem = next(
        (e for e in candidates if space.topology.fractions[e, side - 1] > 0.0), None
    )
    if elem is None:
        raise InactiveEvaluation(f"copy {side} is inactive at {point}")
    center, half = element_map(mesh, elem)
    xi, eta = (x - center[0]) / half[0], (y - center[1]) / half[1]
    local = space.gather(np.asarray(coeffs, dtype=float), elem, side)
    vals = space.basis.values(np.atleast_1d(xi), np.atleast_1d(eta))[0]
    grads = space.basis.gradients(np.atleast_1d(xi), np.atleast_1d(eta))[0]
    value = float(vals @ local)
    grad = grads.T @ local
    grad = np.array([grad[0] / half[0], grad[1] / half[1]])
    return value, grad
