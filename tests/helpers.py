"""Shared test utilities: hierarchical interpolation and small builders."""

from __future__ import annotations

import tracemalloc

import numpy as np

from ipfem.assembly import PenaltyParams, assemble
from ipfem.cases import DOMAIN
from ipfem.fe_space import build_dof_map, build_doubled_space, shape_1d
from ipfem.geometry import classify_elements
from ipfem.mesh import build_mesh, element_map
from ipfem.quadrature import gauss_1d, tensor_gauss


def build_pipeline(case, p, nx, beta=1, gamma0=None, gamma1=None, quad_extra=0):
    """mesh/topology/space/system for one manufactured case."""
    from ipfem.cli import default_penalties

    mesh = build_mesh(DOMAIN, nx, nx)
    topology = classify_elements(mesh, case.curve)
    space = build_doubled_space(build_dof_map(mesh, p), topology)
    g0_def, g1_def = default_penalties("sip" if beta == 1 else "nip", case)
    params = PenaltyParams(
        beta=beta,
        gamma0=g0_def if gamma0 is None else gamma0,
        gamma1=g1_def if gamma1 is None else gamma1,
        p=p,
    )
    system = assemble(space, topology, case.problem, params, quad_order=p + 2 + quad_extra)
    return mesh, topology, space, params, system


def traced_peak(fn, *args, **kwargs):
    """Run fn(*args, **kwargs) under tracemalloc; return its result and the
    peak of the memory traced meanwhile, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def interpolate_pair(space, fns):
    """Hierarchical interpolant of the callable pair onto the doubled space.

    Vertex DOFs take point values; edge and interior bubbles are L2
    projections of the residual, so polynomials of separate degree <= p are
    reproduced exactly.  Constrained (boundary) DOFs are dropped, inactive
    DOFs ignored.
    """
    dm = space.dofmap
    mesh = space.mesh
    p = dm.p
    nbub = p - 1
    coeffs = np.zeros(space.n_unknowns)

    g = gauss_1d(p + 3)
    s1 = shape_1d(g.points, p)
    bubbles = s1[:, 2:]
    gram_1d = bubbles.T @ (g.weights[:, None] * bubbles)
    rule2 = tensor_gauss(p + 3)
    vals2 = _tensor_values(rule2.points, p)

    for side in (1, 2):
        u = fns[side - 1]
        dofvals = np.zeros(dm.n_dofs)
        # vertex values
        vx = mesh.vertices[:, 0]
        vy = mesh.vertices[:, 1]
        dofvals[: mesh.n_vertices] = u(vx, vy)
        # edge bubbles by 1D projection of the residual against the hats
        nv = mesh.n_vertices
        nhe = mesh.nx * (mesh.ny + 1)
        for j in range(mesh.ny + 1):
            for i in range(mesh.nx):
                xa = mesh.domain.x0 + i * mesh.dx
                yline = mesh.domain.y0 + j * mesh.dy
                xs = xa + 0.5 * (g.points + 1.0) * mesh.dx
                ua = u(np.array([xa]), np.array([yline]))[0]
                ub = u(np.array([xa + mesh.dx]), np.array([yline]))[0]
                resid = u(xs, np.full_like(xs, yline)) - (
                    ua * s1[:, 0] + ub * s1[:, 1]
                )
                rhs = bubbles.T @ (g.weights * resid)
                edge = j * mesh.nx + i
                if nbub:
                    dofvals[nv + edge * nbub : nv + (edge + 1) * nbub] = np.linalg.solve(
                        gram_1d, rhs
                    )
        for j in range(mesh.ny):
            for i in range(mesh.nx + 1):
                xline = mesh.domain.x0 + i * mesh.dx
                ya = mesh.domain.y0 + j * mesh.dy
                ys = ya + 0.5 * (g.points + 1.0) * mesh.dy
                ua = u(np.array([xline]), np.array([ya]))[0]
                ub = u(np.array([xline]), np.array([ya + mesh.dy]))[0]
                resid = u(np.full_like(ys, xline), ys) - (
                    ua * s1[:, 0] + ub * s1[:, 1]
                )
                rhs = bubbles.T @ (g.weights * resid)
                edge = j * (mesh.nx + 1) + i
                base = nv + nhe * nbub
                if nbub:
                    dofvals[
                        base + edge * nbub : base + (edge + 1) * nbub
                    ] = np.linalg.solve(gram_1d, rhs)
        # interior bubbles element by element
        if nbub:
            interior = [
                a * (p + 1) + b
                for a in range(2, p + 1)
                for b in range(2, p + 1)
            ]
            gram_2d = np.einsum(
                "q,ql,qm->lm", rule2.weights, vals2[:, interior], vals2[:, interior]
            )
            for e in range(mesh.n_elements):
                center, half = element_map(mesh, e)
                x, y = (center + half * rule2.points).T
                known = dofvals[dm.element_dofs[e]].copy()
                for l in interior:
                    known[l] = 0.0
                resid = u(x, y) - vals2 @ known
                rhs = vals2[:, interior].T @ (rule2.weights * resid)
                sol = np.linalg.solve(gram_2d, rhs)
                dofvals[dm.element_dofs[e][interior]] = sol
        idx = space.unknown_of[side - 1]
        ok = idx >= 0
        coeffs[idx[ok]] = dofvals[ok]
    return coeffs


def _tensor_values(points, p):
    sx = shape_1d(points[:, 0], p)
    sy = shape_1d(points[:, 1], p)
    n = len(points)
    return np.einsum("qa,qb->qab", sx, sy).reshape(n, (p + 1) ** 2)


def random_unknowns(space, rng, scale=1.0):
    return scale * rng.standard_normal(space.n_unknowns)
