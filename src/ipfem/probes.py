"""Numerical probes of the inequality infrastructure behind the method.

Each probe turns an analysis inequality into a measurable ratio: the local
trace and inverse-trace constants on the analysis side of each cut element,
the smallest Rayleigh quotient of the symmetric form against the energy Gram
matrix (the empirical coercivity region in the penalty plane), and the lower
bound on the distance function G built from the far corner of each segment's
host element.  Dense tables are formed in blocks of at most
``BLOCK_ENTRIES`` entries (``_blocks``).  The two trace probes run in array
passes over all segments, one block of segments at a time: every host's
analysis side is one row of padded node and weight arrays
(``_analysis_rules``), the random coefficients are drawn in the order of a
loop over the segments, the cubic fields are summed by one product with the
monomial tables of the nodes, and each inverse-trace constant comes from a
batched Cholesky reduction and ``eigvalsh`` (a host that does not factor
reads nan).  A Rayleigh quotient is reduced exactly to the unknowns of the
segment hosts: one LU per topology for the volume Schur complement, then one
small LU and one Lanczos run per penalty point (see ``_point_quotient``).
The Schur complement's correction V_IR V_RR^(-1) V_RI is formed one block of
b = ``BLOCK_ENTRIES // |R|`` columns at a time, so its dense work arrays take
O(|R| b) memory, not O(|R| |I|) (see ``_volume_schur``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fe_space import build_basis
from .geometry import CutTopology, far_corners
from .mesh import element_map
from .quadrature import cut_cell_rule, segment_rule, tensor_gauss
from .solver import diagonal_scale, factor


class ProbeError(Exception):
    pass


# relative diagonal shift of both matrices in the Rayleigh-quotient solve
REGULARIZATION = 1e-14
# Lanczos restarts and tolerance of each Rayleigh-quotient solve
LANCZOS_MAXITER = 600
LANCZOS_TOL = 1e-8
# float64 entries (1 MiB) of each dense table of a block: the trace probes'
# (segments, nodes, functions or fields) tables and ``_volume_schur``'s column
# blocks (69 columns on the penalty-scan mesh; on circle-jump at nx = 48, 2^16
# to 2^20 took the same time and 2^15 half as long again at p = 3).
BLOCK_ENTRIES = 2**17


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
    """Report over the per-element constants, with the max and median of those not nan."""
    if not per_element:
        raise ProbeError(f"no interface segments: the {name} probe has no element to measure")
    values = np.array(list(per_element.values()))
    values = values[~np.isnan(values)]
    if not values.size:
        raise ProbeError(f"the {name} probe could not measure any element")
    return ProbeReport(
        name=name,
        h=mesh.h,
        p=p,
        per_element=per_element,
        global_max=float(values.max()),
        global_median=float(np.median(values)),
        extra={} if extra is None else extra,
    )


def _analysis_rules(topology, order) -> tuple:
    """Physical nodes (n, q, 2), reference nodes (n, q, 2) and weights (n, q)
    of the analysis side of every segment's host, n = len(segments): the
    order^2 Gauss rule of the whole element for a mesh-edge segment, else
    its cut-cell rule, all from one batched ``cut_cell_rule`` call.  Rows
    shorter than the longest rule q are padded with zero-weight nodes at the
    host's centre."""
    segments = topology.segments
    hosts = np.array([seg.element for seg in segments], dtype=np.int64)
    on_edge = np.array([seg.on_edge for seg in segments], dtype=bool)
    cut = np.flatnonzero(~on_edge)
    rules = cut_cell_rule(topology, hosts[cut], np.array([segments[k].analysis_side for k in cut], dtype=int),
                          order)
    whole = tensor_gauss(order)
    q = max([len(whole.weights)] + [len(r.weights) for r in rules])
    centers, half = element_map(topology.mesh, hosts)
    ref = np.zeros((len(segments), q, 2))
    weights = np.zeros((len(segments), q))
    ref[on_edge, :len(whole.weights)] = whole.points
    weights[on_edge, :len(whole.weights)] = whole.weights * (half[0] * half[1])
    points = centers[:, None, :] + half * ref
    for k, rule in zip(cut, rules):
        n = len(rule.weights)
        points[k, :n], weights[k, :n] = rule.points, rule.weights
        ref[k, :n] = (rule.points - centers[k]) / half
    return points, ref, weights


def _blocks(n, per_item) -> list:
    """Consecutive slices of n items, max(1, BLOCK_ENTRIES // per_item) in each at most."""
    width = max(1, BLOCK_ENTRIES // per_item)
    return [slice(start, start + width) for start in range(0, n, width)]


def probe_inverse_trace(mesh, curve, topology: CutTopology, p: int, samples: int = 20, seed: int = 0) -> ProbeReport:
    """Constant in  ||v_h||_e <= C (p / h^(1/2)) ||v_h||_{K_ie}  over degree-p
    polynomials: per segment host, both the max over random samples and the
    exact constant, from the largest eigenvalue of the pencil (m_edge,
    m_region) of edge and region Gram matrices reduced by the Cholesky
    factor of m_region.  A host whose m_region does not factor reads nan and
    is listed in ``extra["not_positive_definite"]``, a key only present then."""
    if not topology.segments:
        return _report("inverse-trace", mesh, p, {})  # raises ProbeError
    rng = np.random.default_rng(seed)
    quad_order = p + 3
    basis = build_basis(p)
    hosts = np.array([seg.element for seg in topology.segments], dtype=np.int64)
    srule = segment_rule(topology.segments, topology.curve, max(quad_order, 8))
    centers, half = element_map(mesh, hosts)
    edge = (srule.points - centers[:, None, :]) / half
    _, ref, w = _analysis_rules(topology, quad_order)
    best, lam = [], []
    for at in _blocks(len(hosts), ref.shape[1] * basis.n_local):
        m_edge = _gram(basis, edge[at], srule.weights[at])
        m_region = _gram(basis, ref[at], w[at])
        # c^T (M c) per sample, as one matrix-vector product and one dot each
        c = rng.standard_normal((len(m_edge), samples, basis.n_local, 1))
        num, den = ((c.swapaxes(-1, -2) @ (m[:, None] @ c))[..., 0, 0] for m in (m_edge, m_region))
        best.append(np.divide(num, den, out=np.zeros_like(num), where=den > 0.0).max(axis=1, initial=0.0))
        lam.append(_largest_eigenvalues(m_edge, m_region))
    scale = np.sqrt(mesh.h) / p
    sampled = np.sqrt(np.concatenate(best)) * scale
    refined = np.sqrt(np.maximum(np.concatenate(lam), 0.0)) * scale  # keeps nan
    extra = {"sampled_max": dict(zip(hosts.tolist(), sampled.tolist()))}
    if np.isnan(refined).any():
        extra["not_positive_definite"] = hosts[np.isnan(refined)].tolist()
    return _report("inverse-trace", mesh, p, dict(zip(hosts.tolist(), refined.tolist())), extra=extra)


def _largest_eigenvalues(m_edge, m_region) -> np.ndarray:
    """Largest eigenvalue of each pencil (m_edge[k], m_region[k]), that of
    L^-1 m_edge L^-T with L L^T = m_region; when the stack does not factor,
    each pencil alone, nan for one that does not."""
    try:
        lower = np.linalg.cholesky(m_region)
    except np.linalg.LinAlgError:
        if len(m_region) == 1:
            return np.full(1, np.nan)
        return np.concatenate([_largest_eigenvalues(e[None], r[None]) for e, r in zip(m_edge, m_region)])
    reduced = np.linalg.solve(lower, np.linalg.solve(lower, m_edge).swapaxes(-1, -2))
    return np.linalg.eigvalsh(reduced)[:, -1]


def _gram(basis, nodes, weights) -> np.ndarray:
    """Gram matrices (n, n_local, n_local) of the reference basis over the
    reference nodes (n, q, 2) with weights (n, q)."""
    vals = basis.values(nodes[..., 0].ravel(), nodes[..., 1].ravel()).reshape(nodes.shape[:2] + (-1,))
    return vals.swapaxes(-1, -2) @ (weights[..., None] * vals)


def _cubic_tables(x, y) -> np.ndarray:
    """Monomials x^i y^j, i, j < 4, and their x- and y-derivatives at the
    nodes (..., q), as (3, ..., q, 16), column 4 i + j."""
    def powers(t):  # t^0..t^3 and their derivatives, (..., q, 4) each
        one, zero = np.ones_like(t), np.zeros_like(t)
        return np.stack([one, t, t * t, t * t * t], axis=-1), np.stack([zero, one, 2 * t, 3 * t * t], axis=-1)

    (xp, dx), (yp, dy) = powers(x), powers(y)
    outer = [a[..., :, None] * b[..., None, :] for a, b in ((xp, yp), (dx, yp), (xp, dy))]
    return np.stack(outer).reshape(3, *x.shape, 16)


def _field_norms(nodes, weights, coef, k) -> tuple:
    """L2 norms (n, f) of the value and of the gradient of each field over the
    nodes (n, q, 2) with weights (n, q): the cubics sum_ij coef[:, 4 i + j]
    x^i y^j, coef (n, 16, f - 1), then sin(kx) cos(ky)."""
    x, y = nodes[..., 0], nodes[..., 1]
    sx, sy, cx, cy = np.sin(k * x), np.sin(k * y), np.cos(k * x), np.cos(k * y)
    osc = np.stack([sx * cy, k * cx * cy, -k * sx * sy])[..., None]
    val, gx, gy = np.concatenate([_cubic_tables(x, y) @ coef, osc], axis=-1)
    return (np.sqrt(np.einsum("nq,nqf->nf", weights, val**2)),
            np.sqrt(np.einsum("nq,nqf->nf", weights, gx**2 + gy**2)))


def probe_trace(mesh, curve, topology: CutTopology, samples: int = 20, seed: int = 0) -> ProbeReport:
    """Constant in  ||v||_e <= C (h^(-1/2)||v|| + ||v||^(1/2)||grad v||^(1/2))
    over random smooth fields on the analysis side: per segment host,
    ``samples`` cubics with standard normal coefficients, drawn segment by
    segment, and sin(kx) cos(ky), k = min(4/h, 64)."""
    if not topology.segments:
        return _report("trace", mesh, 0, {})  # raises ProbeError
    rng = np.random.default_rng(seed)
    hosts = [seg.element for seg in topology.segments]
    srule = segment_rule(topology.segments, topology.curve, 12)
    points, _, w = _analysis_rules(topology, 8)
    k = min(4.0 / mesh.h, 64.0)
    best = []
    for at in _blocks(len(hosts), points.shape[1] * (samples + 1)):
        coef = rng.standard_normal((len(w[at]), samples, 16)).swapaxes(-1, -2)
        ve, _ = _field_norms(srule.points[at], srule.weights[at], coef, k)
        vk, gk = _field_norms(points[at], w[at], coef, k)
        denom = vk / np.sqrt(mesh.h) + np.sqrt(vk) * np.sqrt(gk)
        ok = (vk != 0.0) & (denom != 0.0)
        best.append(np.divide(ve, denom, out=np.zeros_like(ve), where=ok).max(axis=1, initial=0.0))
    return _report("trace", mesh, 0, dict(zip(hosts, np.concatenate(best).tolist())))


def probe_coercivity(system_builder, gamma0_values, gamma1_values, seed: int = 0) -> dict:
    """Smallest Rayleigh quotient of the symmetric matrix against the energy
    Gram matrix (volume + both penalties) on a (gamma0, gamma1) grid.

    Returns {(gamma0, gamma1): quotient}; nonpositive quotients are reported,
    not raised.  Each point costs one small LU and one Lanczos run (at most
    ``LANCZOS_MAXITER`` restarts, tolerance ``LANCZOS_TOL``, start vector from
    ``seed``) on the interface unknowns; the volume Schur complement is kept
    while the volume block and those unknowns stay the same.
    """
    out = {}
    kept = None
    for g1 in gamma1_values:
        for g0 in gamma0_values:
            # the system and its factors are freed before the next build
            out[(g0, g1)], kept = _point_quotient(system_builder(g0, g1), kept, seed)
    return out


def _point_quotient(system, kept=None, seed=0):
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
            maxiter=LANCZOS_MAXITER, tol=LANCZOS_TOL, return_eigenvectors=False,
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
    for, one block of b = ``BLOCK_ENTRIES // |R|`` columns (at least
    one) at a time, so the dense work arrays take O(|R| b) memory, and b
    shrinks as the mesh grows; each block keeps only the nonzero entries of
    its correction columns, and the CSR is built once from all of them.
    V never couples the two copies, so the solves keep exact zeros across
    them and the correction is block-diagonal."""
    iface, rest = np.flatnonzero(on_interface), np.flatnonzero(~on_interface)
    v_i, v_r = volume[iface], volume[rest]  # the rows of I and of R
    v_rr = v_r[:, rest]
    v_ri = v_r[:, iface].tocsc()
    touched = np.flatnonzero(np.diff(v_ri.indptr))
    v_rr = v_rr + sp.diags(REGULARIZATION * v_rr.diagonal())
    d = 1.0 / np.sqrt(v_rr.diagonal())
    lu = factor(diagonal_scale(v_rr, d).tocsc())
    v_ir = v_i[touched][:, rest]
    rows, cols, vals = [], [], []
    for at in _blocks(touched.size, rest.size):
        block = touched[at]
        x = d[:, None] * lu.solve(d[:, None] * v_ri[:, block].toarray())  # V_RR^(-1) V_RI
        corr = v_ir @ x
        r, c = np.nonzero(corr)
        rows.append(touched[r])
        cols.append(block[c])
        vals.append(corr[r, c])
    corr = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(iface.size,) * 2)
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
