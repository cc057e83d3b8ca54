"""Numerical probes of the inequality infrastructure behind the method.

Each probe turns an analysis inequality into a measurable ratio: the local
trace and inverse-trace constants on the analysis side of each cut element,
the smallest Rayleigh quotient of the symmetric form against the energy Gram
matrix (the empirical coercivity region in the penalty plane), and the lower
bound on the distance function G built from the far corner of each segment's
host element.  Each Rayleigh quotient of a large system costs one sparse LU,
of the Gram matrix, and one Lanczos run (see ``_min_rayleigh``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fe_space import build_basis
from .geometry import CutTopology, corners_farthest_first
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


def _analysis_region_rule(topology, seg, geo, order):
    """Quadrature over the analysis side of the segment's host element: the
    whole element for a segment on a mesh edge, else the cut-cell rule of
    side ``seg.analysis_side``.  Returns the physical nodes x, y, the weights
    and the reference nodes xi, eta."""
    if seg.on_edge:
        rule = tensor_gauss(order)
        xi, eta = rule.points[:, 0], rule.points[:, 1]
        x, y = geo.to_physical(xi, eta)
        return x, y, rule.weights * geo.jacobian_det, xi, eta
    crule = cut_cell_rule(topology, seg.element, seg.analysis_side, order=order)
    x, y = crule.points[:, 0], crule.points[:, 1]
    return (x, y, crule.weights, *geo.to_reference(x, y))


def _side_norm_matrices(topology, seg, p, quad_order):
    """Edge and region Gram matrices of the local degree-p tensor basis on the
    host element, the edge over the segment, the region over the analysis side."""
    basis = build_basis(p)
    geo = element_geometry(topology.mesh, seg.element)

    srule = segment_rule(seg, topology.curve, max(quad_order, 8))
    xi, eta = geo.to_reference(srule.points[:, 0], srule.points[:, 1])
    vals_e = basis.values(xi, eta)
    m_edge = vals_e.T @ (srule.weights[:, None] * vals_e)

    _, _, w, xi_k, eta_k = _analysis_region_rule(topology, seg, geo, quad_order)
    vals_k = basis.values(xi_k, eta_k)
    m_region = vals_k.T @ (w[:, None] * vals_k)
    return m_edge, m_region, geo


def _gen_max_eig_power(m_num, m_den, iters=50, seed=0):
    """Largest generalized eigenvalue of (m_num, m_den) by power iteration
    with a Cholesky solve of the SPD denominator."""
    try:
        chol = la.cho_factor(m_den)
    except la.LinAlgError:
        w = la.eigh(m_num, m_den, eigvals_only=True)
        return float(w[-1])
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(m_den.shape[0])
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(iters):
        y = la.cho_solve(chol, m_num @ x)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0
        x = y / ny
        lam = float(x @ (m_num @ x)) / float(x @ (m_den @ x))
    return lam


def probe_inverse_trace(mesh, curve, topology: CutTopology, p: int, samples: int = 20, seed: int = 0) -> ProbeReport:
    """Constant in  ||v_h||_e <= C (p / h^(1/2)) ||v_h||_{K_ie}  over degree-p
    polynomials: per segment host, both the max over random samples and an
    exact power-method solve of the generalized eigenproblem."""
    rng = np.random.default_rng(seed)
    quad_order = p + 3
    sampled = {}
    refined = {}
    for seg in topology.segments:
        m_edge, m_region, geo = _side_norm_matrices(topology, seg, p, quad_order)
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
        lam = _gen_max_eig_power(m_edge, m_region, seed=seed)
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
    for seg in topology.segments:
        geo = element_geometry(mesh, seg.element)
        srule = segment_rule(seg, topology.curve, 12)
        x, y, w, _, _ = _analysis_region_rule(topology, seg, geo, quad_order)
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
    not raised.  Both matrices carry a tiny relative diagonal shift, which
    keeps the Gram matrix definite when a sliver or a zero penalty weight
    makes it singular (see ``_min_rayleigh``).
    """
    out = {}
    for g1 in gamma1_values:
        for g0 in gamma0_values:
            system = system_builder(g0, g1)
            gram = system.blocks["volume"] + system.blocks["j0"] + system.blocks["j1"]
            out[(g0, g1)] = _min_rayleigh(system.matrix, gram, iters=iters, tol=tol, seed=seed)
    return out


def _min_rayleigh(a, gram, iters=30, tol=1e-8, seed=0, dense_cutoff=1500):
    """Leftmost generalized eigenvalue of (a, gram).

    Both matrices get the same shift REGULARIZATION * diag(gram).  A sliver
    cut or a zero penalty weight leaves the Gram matrix singular to round-off
    (its Jacobi-scaled smallest eigenvalue near +-1e-15), and a shift on the
    Gram matrix alone then turns its near-null vectors into spurious large
    negative quotients; shifting both maps them to quotients near 1 and moves
    the others by a relative amount of order REGULARIZATION.

    The shifted pencil is then Jacobi-scaled, (D a D, D gram D) with
    D = diag(gram)^(-1/2), which leaves its eigenvalues unchanged.  Small
    systems use a dense symmetric eigensolve of it.  Larger ones run
    Lanczos on gram^(-1) a in the gram inner product (``eigsh`` in its
    regular generalized mode) for the smallest algebraic eigenvalue; the
    one LU of the path, of the Gram matrix (passed as ``Minv``), comes from
    ``solver.factor``, and without the scaling its ordering returns a wrong
    quotient on a sliver.  a differs from gram only by the consistency
    block, which couples just the unknowns of interface elements, so most
    quotients equal 1 and the leftmost one lies apart from that cluster:
    Lanczos finds it without a shift.
    """
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    shift = REGULARIZATION * sp.diags(gram.diagonal())
    gram = gram + shift
    d = 1.0 / np.sqrt(gram.diagonal())
    a = diagonal_scale(a + shift, d)
    gram = diagonal_scale(gram, d)

    if n <= dense_cutoff:
        ad = a.toarray()
        gd = gram.toarray()
        ad = 0.5 * (ad + ad.T)
        gd = 0.5 * (gd + gd.T)
        vals = la.eigh(ad, gd, eigvals_only=True, subset_by_index=[0, 0])
        return float(vals[0])

    glu = factor(gram.tocsc())
    try:
        vals = spla.eigsh(
            a,
            k=1,
            M=gram,
            which="SA",
            maxiter=max(200, 20 * iters),
            tol=tol,
            return_eigenvectors=False,
            v0=rng.standard_normal(n),
            Minv=spla.LinearOperator((n, n), matvec=glu.solve, dtype=float),
        )
    except (RuntimeError, spla.ArpackNoConvergence) as exc:
        raise ProbeError(f"Lanczos iteration failed: {exc}") from exc
    return float(vals[0])


def probe_G(topology: CutTopology, curve, samples_per_segment: int = 64) -> ProbeReport:
    """min over segments and parameters of G(t)/h_K, where G is the distance
    function |(r-P) x r'|/|r'| with origin at the far corner P."""
    mesh = topology.mesh
    per_element = {}
    for seg in topology.segments:
        p_far = corners_farthest_first(seg, mesh, curve)[0]
        ts = np.linspace(seg.t_lo, seg.t_hi, samples_per_segment)
        r = curve.point(ts) - p_far[None, :]
        dr = curve.tangent(ts)
        g = np.abs(r[:, 0] * dr[:, 1] - r[:, 1] * dr[:, 0]) / np.linalg.norm(dr, axis=-1)
        h_e = element_geometry(mesh, seg.element).h_k
        per_element[seg.element] = float(g.min() / h_e)
    report = _report("far-point-distance", mesh, 0, per_element)
    report.extra["global_min"] = min(per_element.values())
    return report
