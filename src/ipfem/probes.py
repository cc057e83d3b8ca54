"""Numerical probes of the inequality infrastructure behind the method.

Each probe turns an analysis inequality into a measurable ratio: the local
trace and inverse-trace constants on the analysis side of each cut element,
the smallest Rayleigh quotient of the symmetric form against the energy Gram
matrix (the empirical coercivity region in the penalty plane), and the lower
bound on the distance function G built from the far corner of each segment's
host element.  A Rayleigh quotient is reduced exactly to the unknowns of
the segment hosts: one LU per topology for the volume Schur complement, then
one small LU and one Lanczos run per penalty point (see ``_point_quotient``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fe_space import build_basis
from .geometry import CutTopology, far_corners
from .mesh import element_geometry
from .quadrature import cut_cell_rule, segment_rule, tensor_gauss
from .solver import diagonal_scale, factor


class ProbeError(Exception):
    pass


# relative diagonal shift of both matrices in the Rayleigh-quotient solve
REGULARIZATION = 1e-14


@dataclass
class ProbeReport:
    name: str
    h: float
    p: int
    per_element: dict  # element -> constant estimate
    global_max: float
    global_median: float
    extra: dict = field(default_factory=dict)


def _report(name, mesh, p, per_element, extra=None) -> ProbeReport:
    """Report over the per-element constants, with their max and median."""
    if not per_element:
        raise ProbeError(f"no interface segments: the {name} probe has no element to measure")
    values = np.array(list(per_element.values()))
    return ProbeReport(
        name=name,
        h=mesh.h,
        p=p,
        per_element=per_element,
        global_max=float(values.max()),
        global_median=float(np.median(values)),
        extra={} if extra is None else extra,
    )


def _analysis_rules(topology, order) -> list:
    """Per segment, the cut-cell rule of its host's analysis side (None on a
    mesh edge), all from one batched ``cut_cell_rule`` call."""
    cut = [seg for seg in topology.segments if not seg.on_edge]
    rules = iter(cut_cell_rule(topology, np.array([seg.element for seg in cut], dtype=int),
                               np.array([seg.analysis_side for seg in cut], dtype=int), order))
    return [None if seg.on_edge else next(rules) for seg in topology.segments]


def _analysis_region_rule(geo, crule, order):
    """Quadrature over the analysis side of a segment's host: the whole element
    if ``crule`` is None (a mesh-edge segment), else the cut-cell rule
    ``crule``.  Returns physical nodes x, y, weights, reference nodes xi, eta."""
    if crule is None:
        rule = tensor_gauss(order)
        xi, eta = rule.points[:, 0], rule.points[:, 1]
        x, y = geo.to_physical(xi, eta)
        return x, y, rule.weights * geo.jacobian_det, xi, eta
    x, y = crule.points[:, 0], crule.points[:, 1]
    return (x, y, crule.weights, *geo.to_reference(x, y))


def _side_norm_matrices(topology, seg, crule, p, quad_order):
    """Edge and region Gram matrices of the local degree-p tensor basis on the
    host element, the edge over the segment, the region over the analysis
    side (``crule`` as in ``_analysis_region_rule``)."""
    basis = build_basis(p)
    geo = element_geometry(topology.mesh, seg.element)

    srule = segment_rule(seg, topology.curve, max(quad_order, 8))
    xi, eta = geo.to_reference(srule.points[:, 0], srule.points[:, 1])
    vals_e = basis.values(xi, eta)
    m_edge = vals_e.T @ (srule.weights[:, None] * vals_e)

    _, _, w, xi_k, eta_k = _analysis_region_rule(geo, crule, quad_order)
    vals_k = basis.values(xi_k, eta_k)
    m_region = vals_k.T @ (w[:, None] * vals_k)
    return m_edge, m_region, geo


def probe_inverse_trace(mesh, curve, topology: CutTopology, p: int, samples: int = 20, seed: int = 0) -> ProbeReport:
    """Constant in  ||v_h||_e <= C (p / h^(1/2)) ||v_h||_{K_ie}  over degree-p
    polynomials: per segment host, both the max over random samples and an
    exact dense solve of the generalized eigenproblem (m_edge, m_region)."""
    rng = np.random.default_rng(seed)
    quad_order = p + 3
    sampled = {}
    refined = {}
    for seg, crule in zip(topology.segments, _analysis_rules(topology, quad_order)):
        m_edge, m_region, geo = _side_norm_matrices(topology, seg, crule, p, quad_order)
        best = 0.0
        for _ in range(samples):
            c = rng.standard_normal(m_edge.shape[0])
            num = float(c @ (m_edge @ c))
            den = float(c @ (m_region @ c))
            if den <= 0.0:
                continue
            best = max(best, np.sqrt(num / den))
        scale = np.sqrt(geo.h_k) / p
        sampled[seg.element] = best * scale
        lam = la.eigh(m_edge, m_region, eigvals_only=True)[-1]
        refined[seg.element] = float(np.sqrt(max(lam, 0.0)) * scale)
    return _report("inverse-trace", mesh, p, refined, extra={"sampled_max": sampled})


def _random_smooth_fields(rng, n, h):
    """Cubic polynomials with analytic gradients, plus one oscillatory field."""
    fields = []
    for _ in range(n):
        coef = rng.standard_normal((4, 4))

        def val(x, y, c=coef):
            return sum(
                c[i, j] * x**i * y**j for i in range(4) for j in range(4)
            )

        def grad(x, y, c=coef):
            gx = sum(
                i * c[i, j] * x ** (i - 1) * y**j
                for i in range(1, 4)
                for j in range(4)
            )
            gy = sum(
                j * c[i, j] * x**i * y ** (j - 1)
                for i in range(4)
                for j in range(1, 4)
            )
            return gx, gy

        fields.append((val, grad))
    k = min(4.0 / h, 64.0)

    def osc(x, y, k=k):
        return np.sin(k * x) * np.cos(k * y)

    def osc_grad(x, y, k=k):
        return k * np.cos(k * x) * np.cos(k * y), -k * np.sin(k * x) * np.sin(k * y)

    fields.append((osc, osc_grad))
    return fields


def probe_trace(mesh, curve, topology: CutTopology, samples: int = 20, seed: int = 0) -> ProbeReport:
    """Constant in  ||v||_e <= C (h^(-1/2)||v|| + ||v||^(1/2)||grad v||^(1/2))
    over random smooth fields on the analysis side."""
    rng = np.random.default_rng(seed)
    quad_order = 8
    per_element = {}
    for seg, crule in zip(topology.segments, _analysis_rules(topology, quad_order)):
        geo = element_geometry(mesh, seg.element)
        srule = segment_rule(seg, topology.curve, 12)
        x, y, w, _, _ = _analysis_region_rule(geo, crule, quad_order)
        best = 0.0
        for val, grad in _random_smooth_fields(rng, samples, mesh.h):
            ve = np.sqrt(np.sum(srule.weights * val(srule.points[:, 0], srule.points[:, 1]) ** 2))
            vk = np.sqrt(np.sum(w * val(x, y) ** 2))
            gx, gy = grad(x, y)
            gk = np.sqrt(np.sum(w * (gx**2 + gy**2)))
            if vk == 0.0:
                continue
            denom = vk / np.sqrt(geo.h_k) + np.sqrt(vk) * np.sqrt(gk)
            if denom == 0.0:
                continue
            best = max(best, ve / denom)
        per_element[seg.element] = best
    return _report("trace", mesh, 0, per_element)


def probe_coercivity(
    system_builder,
    gamma0_values,
    gamma1_values,
    iters: int = 30,
    tol: float = 1e-8,
    seed: int = 0,
) -> dict:
    """Smallest Rayleigh quotient of the symmetric matrix against the energy
    Gram matrix (volume + both penalties) on a (gamma0, gamma1) grid.

    Returns {(gamma0, gamma1): quotient}; nonpositive quotients are reported,
    not raised.  Each point costs one small LU and one Lanczos run (at most
    ``max(200, 20 * iters)`` restarts, tolerance ``tol``, start vector from
    ``seed``) on the interface unknowns; the volume Schur complement is kept
    while the volume block and those unknowns stay the same.
    """
    out = {}
    kept = None
    for g1 in gamma1_values:
        for g0 in gamma0_values:
            # the system and its factors are freed before the next build
            out[(g0, g1)], kept = _point_quotient(system_builder(g0, g1), kept, iters, tol, seed)
    return out


def _point_quotient(system, kept=None, iters=30, tol=1e-8, seed=0):
    """Leftmost eigenvalue of the pencil (A + s, G + s), G = volume + j0 + j1,
    s = REGULARIZATION * diag(G), and the S_V with its key (I and the volume
    block's CSR arrays) to pass as ``kept`` to the next point.

    A sliver or a zero penalty weight leaves G singular to round-off; a shift
    of G alone would make its near-null vectors spurious large negative
    quotients, shifting both maps them near 1.  C = A - G, free of the shift,
    is stored (with j0 + j1) only on the unknowns I of the segment hosts, so
    the quotient is 1 if I is empty, else min(1, 1 + mu) for the leftmost mu
    of C_II y = mu S y, with S the Schur complement of G + s onto I:
    S_V (``_volume_schur``) + (j0 + j1)_II + s_I.  Lanczos runs on S^(-1) C_II
    in the S inner product, the LU of the Jacobi-scaled S as ``Minv``; the
    leftmost mu lies apart from the rest, so it needs no shift.
    """
    volume = system.blocks["volume"]
    jumps = system.blocks["j0"] + system.blocks["j1"]
    consistency = system.matrix - (volume + jumps)
    on_interface = np.zeros(system.matrix.shape[0], dtype=bool)
    for block in (consistency, jumps):
        block = block.tocoo()
        block.eliminate_zeros()
        on_interface[block.row] = on_interface[block.col] = True
    iface = np.flatnonzero(on_interface)
    if iface.size == 0:
        return 1.0, None
    key = (iface, volume.indptr, volume.indices, volume.data)
    if kept is None or not all(np.array_equal(a, b) for a, b in zip(kept[0], key)):
        kept = (key, _volume_schur(volume, on_interface))
    jumps = jumps[iface][:, iface]
    schur = kept[1] + jumps + sp.diags(REGULARIZATION * (volume.diagonal()[iface] + jumps.diagonal()))
    d = 1.0 / np.sqrt(schur.diagonal())
    schur = diagonal_scale(schur, d)
    lu = factor(schur.tocsc())
    m = iface.size
    try:
        mu = spla.eigsh(
            diagonal_scale(consistency[iface][:, iface], d), k=1, M=schur, which="SA",
            maxiter=max(200, 20 * iters), tol=tol, return_eigenvectors=False,
            v0=np.random.default_rng(seed).standard_normal(m),
            Minv=spla.LinearOperator((m, m), matvec=lu.solve, dtype=float),
        )[0]
    except (RuntimeError, spla.ArpackNoConvergence) as exc:
        raise ProbeError(f"Lanczos iteration failed: {exc}") from exc
    return min(1.0, 1.0 + float(mu)), kept


def _volume_schur(volume, on_interface):
    """S_V = V_II - V_IR V_RR^(-1) V_RI from one LU of V_RR, shifted as G is
    and Jacobi-scaled; V_RR is definite, as no nonzero constant vanishes on
    every segment host.  Only the columns of I that V_RI touches are solved
    for.  V never couples the two copies, so the solves keep exact zeros
    across them and the correction, stored without zeros, is block-diagonal."""
    iface, rest = np.flatnonzero(on_interface), np.flatnonzero(~on_interface)
    v_i, v_r = volume[iface], volume[rest]  # the rows of I and of R
    v_rr = v_r[:, rest]
    v_ri = v_r[:, iface].tocsc()
    touched = np.flatnonzero(np.diff(v_ri.indptr))
    v_rr = v_rr + sp.diags(REGULARIZATION * v_rr.diagonal())
    d = 1.0 / np.sqrt(v_rr.diagonal())
    lu = factor(diagonal_scale(v_rr, d).tocsc())
    x = d[:, None] * lu.solve(d[:, None] * v_ri[:, touched].toarray())  # V_RR^(-1) V_RI
    corr = sp.coo_matrix(v_i[touched][:, rest] @ x)
    corr = sp.csr_matrix((corr.data, (touched[corr.row], touched[corr.col])), shape=(iface.size,) * 2)
    return v_i[:, iface] - corr


def probe_G(topology: CutTopology, curve, samples_per_segment: int = 64) -> ProbeReport:
    """min over segments and parameters of G(t)/h_K, where G is the distance
    function |(r-P) x r'|/|r'| with origin at the far corner P."""
    mesh = topology.mesh
    elements = np.array([seg.element for seg in topology.segments], dtype=np.int64)
    t_lo = np.array([seg.t_lo for seg in topology.segments])
    t_hi = np.array([seg.t_hi for seg in topology.segments])
    p_far = far_corners(mesh, curve, elements, 0.5 * (t_lo + t_hi))[:, 0]
    ts = np.linspace(t_lo, t_hi, samples_per_segment, axis=1)
    r = curve.point(ts) - p_far[:, None, :]
    dr = curve.tangent(ts)
    g = np.abs(r[..., 0] * dr[..., 1] - r[..., 1] * dr[..., 0]) / np.linalg.norm(dr, axis=-1)
    per_element = dict(zip(elements.tolist(), (g.min(axis=1) / mesh.h).tolist()))
    report = _report("far-point-distance", mesh, 0, per_element)
    report.extra["global_min"] = min(per_element.values())
    return report
