"""Tensor-product hp basis on rectangles, the conforming scalar space, and the
doubled (two-copy) space with per-copy activity masks.

The 1D basis is hierarchical: two nodal hat ends plus integrated-Legendre
bubbles, so spaces are nested in p and edge traces depend only on the edge's
own 1D factors.  On an axis-aligned structured mesh every shared edge is
parameterized identically from both sides, hence all edge orientation signs
are +1 and no sign array is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CutTopology, OnInterface
from .mesh import Mesh, element_geometry


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

    def gradients(self, xi, eta):
        """(npts, n_local, 2) array of reference-coordinate gradients."""
        sx = shape_1d(xi, self.p)
        sy = shape_1d(eta, self.p)
        dx = shape_1d_deriv(xi, self.p)
        dy = shape_1d_deriv(eta, self.p)
        out = np.empty((len(sx), self.n_local, 2))
        # written in place: no per-component copies of a table over many points
        tensor = out.reshape(len(sx), self.p + 1, self.p + 1, 2)
        np.einsum("qa,qb->qab", dx, sy, out=tensor[..., 0])
        np.einsum("qa,qb->qab", sx, dy, out=tensor[..., 1])
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
        # (quad_order, p) -> the integration plan that assembly.build_plan
        # keeps, or None while the key has been requested only once
        self.plans = {}

    def element_unknowns(self, element: int, side: int) -> np.ndarray:
        """Unknown ids of the element's local DOFs in copy ``side`` (-1 where
        constrained or inactive)."""
        return self.unknown_of[side - 1, self.dofmap.element_dofs[element]]

    def gather(self, coeffs: np.ndarray, element: int, side: int) -> np.ndarray:
        """Local coefficient vector of copy ``side`` on one element; entries
        for constrained or inactive DOFs are zero."""
        return gather(coeffs, self.element_unknowns(element, side))


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
        side = 1 if float(space.topology.curve.signed_distance(x, y)) < 0.0 else 2
        d = abs(float(space.topology.curve.signed_distance(x, y)))
        if d <= 1e-12 * mesh.h:
            raise OnInterface(f"cannot infer side at {point}; specify side=1 or 2")
    side = int(side)
    candidates = mesh.locate_candidates(x, y, tol=1e-12 * mesh.h)
    elem = next(
        (e for e in candidates if space.topology.fractions[e, side - 1] > 0.0), None
    )
    if elem is None:
        raise InactiveEvaluation(f"copy {side} is inactive at {point}")
    geo = element_geometry(mesh, elem)
    xi, eta = geo.to_reference(x, y)
    local = space.gather(np.asarray(coeffs, dtype=float), elem, side)
    vals = space.basis.values(np.atleast_1d(xi), np.atleast_1d(eta))[0]
    grads = space.basis.gradients(np.atleast_1d(xi), np.atleast_1d(eta))[0]
    value = float(vals @ local)
    grad = grads.T @ local
    grad = np.array([grad[0] / geo.half[0], grad[1] / geo.half[1]])
    return value, grad
