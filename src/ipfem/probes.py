"""Numerical probes of the inequality infrastructure behind the method.

Each probe turns an analysis inequality into a measurable ratio: the local
trace and inverse-trace constants on the analysis side of each cut element,
the smallest Rayleigh quotient of the symmetric form against the energy Gram
matrix (the empirical coercivity region in the penalty plane), and the lower
bound on the distance function G built from the far corner of each segment's
host element.  Every probe takes its mesh and curve from the topology.
Dense tables are formed in blocks of at most ``BLOCK_ENTRIES`` entries
(``_blocks``).  The two trace probes run in array passes over all segments,
one block of segments at a time: every host's analysis side is one row of
padded node and weight arrays (``_analysis_rules``).  The trace probe draws
its random coefficients in the order of a loop over the segments and sums
its cubic fields by one product with the monomial tables of the nodes; each
inverse-trace constant comes from a batched QR factor of the region's
weighted basis table, one triangular solve and the largest singular value
(see ``probe_inverse_trace``).  A Rayleigh quotient is reduced exactly to
the unknowns I of the segment hosts: one LU per topology for the volume
Schur correction X, dense but only on the unknowns T of I that the volume
couples to the rest R, then one Cholesky factor and one standard-mode
Lanczos run per penalty point (see ``_point_quotient``).  The reduced Gram
matrix is sparse off T x T, so it is factored in arrowhead order: a band
Cholesky of the other unknowns U in reverse Cuthill-McKee order, then a
dense Cholesky of the T corner (``_arrow_cholesky``).  X = V_TR V_RR^(-1)
V_RT is formed one block of b = ``BLOCK_ENTRIES // |R|`` columns at a time,
so its dense work arrays take O(|R| b) memory, not O(|R| |T|) (see
``_volume_schur``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack, solve_triangular

from .fe_space import build_basis
from .geometry import CutTopology, far_corners
from .mesh import element_map
from .quadrature import cut_cell_rule, cut_order, pass_order, segment_npoints, segment_rule, tensor_gauss
from .solver import diagonal_scale, factor


class ProbeError(Exception):
    pass


# relative diagonal shift of both matrices in the Rayleigh-quotient solve
REGULARIZATION = 1e-14
# share of v^T S v that the shift holds, at the leftmost Ritz vector v, above
# which a negative quotient is reported as -inf: the Gram matrix is then
# singular on v (0.36-0.42 with gamma0 = 0; at most 4.8e-4 with gamma0 >= 0.01
# on circle-jump and the penalty-scan ellipses)
SINGULAR_SHARE = 0.1
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


def _report(name, mesh, p, per_element) -> ProbeReport:
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
    )


def _analysis_rules(topology, order, cut_rule_order) -> tuple:
    """Physical nodes (n, q, 2), reference nodes (n, q, 2) and weights (n, q)
    of the analysis side of every segment's host, n = len(segments): the
    order^2 Gauss rule of the whole element for a mesh-edge segment, else
    its cut-cell rule of ``cut_rule_order``, all from one batched
    ``cut_cell_rule`` call.  Rows shorter than the longest rule q are padded
    with zero-weight nodes at the host's centre."""
    segments = topology.segments
    hosts = np.array([seg.element for seg in segments], dtype=np.int64)
    on_edge = np.array([seg.on_edge for seg in segments], dtype=bool)
    cut = np.flatnonzero(~on_edge)
    rules = cut_cell_rule(topology, hosts[cut], np.array([segments[k].analysis_side for k in cut], dtype=int),
                          cut_rule_order)
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


def probe_inverse_trace(topology: CutTopology, p: int) -> ProbeReport:
    """Constant in  ||v_h||_e <= C (p / h^(1/2)) ||v_h||_{K_ie}  over degree-p
    polynomials, per segment host and with the error pass's rules:
    C = (h^(1/2) / p) ||B_e R^(-1)||_2, where ||B_e R^(-1)||_2^2 is the largest
    eigenvalue of the pencil of edge and region Gram matrices, B_e and
    B_r = Q R the basis tables at the edge and region nodes scaled by the
    square roots of the weights.  The region Gram matrix B_r^T B_r, whose
    condition number (up to 1e19 at p = 8) is the square of R's, is never
    formed; every rule has at least (p + 1)^2 nodes, so R is invertible."""
    mesh = topology.mesh
    if not topology.segments:
        return _report("inverse-trace", mesh, p, {})  # raises ProbeError
    order = pass_order(p, errors=True)
    basis = build_basis(p)
    hosts = np.array([seg.element for seg in topology.segments], dtype=np.int64)
    srule = segment_rule(topology.segments, topology.curve, segment_npoints(order, p))
    centers, half = element_map(mesh, hosts)
    edge = (srule.points - centers[:, None, :]) / half
    _, ref, w = _analysis_rules(topology, order, cut_order(order, p))
    norms = []
    for at in _blocks(len(hosts), ref.shape[1] * basis.n_local):
        r = np.linalg.qr(_weighted_table(basis, ref[at], w[at]), mode="r")
        # (B_e R^(-1))^T from R^T Y = B_e^T, then its largest singular value
        y = solve_triangular(r, _weighted_table(basis, edge[at], srule.weights[at]).swapaxes(-1, -2), trans="T")
        norms.append(np.linalg.svd(y, compute_uv=False)[:, 0])
    constants = np.concatenate(norms) * (np.sqrt(mesh.h) / p)
    return _report("inverse-trace", mesh, p, dict(zip(hosts.tolist(), constants.tolist())))


def _weighted_table(basis, nodes, weights) -> np.ndarray:
    """Reference basis values (n, q, n_local) at the reference nodes
    (n, q, 2), each row scaled by the square root of its weight (n, q)."""
    vals = basis.values(nodes[..., 0].ravel(), nodes[..., 1].ravel()).reshape(nodes.shape[:2] + (-1,))
    return np.sqrt(weights)[..., None] * vals


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


def probe_trace(topology: CutTopology, samples: int = 20, seed: int = 0) -> ProbeReport:
    """Constant in  ||v||_e <= C (h^(-1/2)||v|| + ||v||^(1/2)||grad v||^(1/2))
    over random smooth fields on the analysis side: per segment host,
    ``samples`` cubics with standard normal coefficients, drawn segment by
    segment, and sin(kx) cos(ky), k = min(4/h, 64)."""
    mesh = topology.mesh
    if not topology.segments:
        return _report("trace", mesh, 0, {})  # raises ProbeError
    rng = np.random.default_rng(seed)
    hosts = [seg.element for seg in topology.segments]
    srule = segment_rule(topology.segments, topology.curve, 12)
    points, _, w = _analysis_rules(topology, 8, 8)
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
    not raised, and -inf where the penalties leave the Gram matrix singular
    (``_point_quotient``).  Each point costs one arrowhead Cholesky factor (a
    band and a dense corner, ``_arrow_cholesky``) and one standard-mode
    Lanczos run (at most ``LANCZOS_MAXITER`` restarts, tolerance
    ``LANCZOS_TOL``, start vector from ``seed``) on the interface unknowns;
    the volume Schur correction and the factor's layout are kept while the
    volume block, those unknowns and the jumps' pattern stay the same.
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
    s = REGULARIZATION * diag(G), and what to pass as ``kept`` to the next
    point: the key (I, the volume block's CSR arrays and the pattern of
    (j0 + j1)_II) with the arrowhead layout of S and the penalty-free part of
    S in it (``_arrow_parts``).

    A sliver or a zero penalty weight leaves G singular to round-off; a shift
    of G alone would make its near-null vectors spurious large negative
    quotients, shifting both maps them near 1.  C = A - G, free of the shift,
    is taken from the assembled matrix, not from its interface block, so the
    probe measures the matrix that is solved.  It is stored (with j0 + j1)
    only on the unknowns I of the segment hosts, so the quotient is 1 if I is
    empty, else min(1, 1 + mu) for the leftmost mu of C_II y = mu S y, with
    S the Schur complement of G + s onto I: S_V + (j0 + j1)_II + s_I,
    S_V = V_II - X on the unknowns T of I that the volume couples to the
    rest (``_volume_schur``).  One Cholesky factor P S P^T = L L^T in the
    arrowhead order P (``_arrow_cholesky``) turns the pencil into the
    standard problem for L^(-1) P C_II P^T L^(-T), so one standard-mode
    Lanczos run, with no M and no shift, finds mu (Lehoucq, Sorensen and
    Yang, ARPACK Users' Guide, SIAM 1998, section 3.2).  When mu < 0 and the
    shift holds more than ``SINGULAR_SHARE`` of v^T S v at its Ritz vector
    v, G itself is singular on v, as with gamma0 = 0, and the quotient is
    -inf.
    """
    volume = system.blocks["volume"]
    jumps = system.blocks["j0"] + system.blocks["j1"]
    consistency = system.matrix - (volume + jumps)
    # sparse sums store no zero entry, so the stored entries of both are their nonzeros
    on_interface = np.zeros(system.matrix.shape[0], dtype=bool)
    for block in (consistency, jumps):
        on_interface[np.diff(block.indptr) > 0] = True
        on_interface[block.indices] = True
    iface = np.flatnonzero(on_interface)
    if iface.size == 0:
        return 1.0, None
    c_ii, jumps = (_restricted(block, iface) for block in (consistency, jumps))
    key = (iface, volume.indptr, volume.indices, volume.data, jumps.indptr, jumps.indices)
    if kept is None or not all(np.array_equal(a, b) for a, b in zip(kept[0], key)):
        kept = (key, *_arrow_parts(volume, on_interface, jumps))
    _, arrow, base, (sel, at), diagonal = kept
    shift = REGULARIZATION * (volume.diagonal()[iface] + jumps.diagonal())
    entries = base.copy()
    entries[at] += jumps.data[sel]
    entries[diagonal] += shift
    forward, backward = _arrow_cholesky(arrow, entries)
    m = iface.size
    try:
        mu, y = spla.eigsh(
            spla.LinearOperator((m, m), matvec=lambda x: forward(c_ii @ backward(x)), dtype=float),
            k=1, which="SA", maxiter=LANCZOS_MAXITER, tol=LANCZOS_TOL,
            v0=np.random.default_rng(seed).standard_normal(m),
        )
    except (RuntimeError, spla.ArpackNoConvergence) as exc:
        raise ProbeError(f"Lanczos iteration failed: {exc}") from exc
    mu, y = float(mu[0]), y[:, 0]
    # v = L^(-T) y has v^T S v = |y|^2; the shift's share of that is ~0 unless
    # v is a near-null vector of the unshifted Gram matrix
    v = backward(y)
    if mu < 0.0 and shift @ (v * v) > SINGULAR_SHARE * (y @ y):
        return -np.inf, kept
    return min(1.0, 1.0 + mu), kept


def _restricted(block, iface) -> sp.csr_matrix:
    """block[I][:, I] in O(nnz) for the CSR ``block`` whose stored entries
    all lie in I x I, I = ``iface`` (sorted): the rows of I and the stored
    entries as they are, the column indices relabelled to their positions in
    I, which keeps each row's columns sorted."""
    at = np.zeros(block.shape[1], dtype=np.int64)
    at[iface] = np.arange(iface.size)
    return sp.csr_matrix((block.data, at[block.indices], np.concatenate([[0], block.indptr[iface + 1]])),
                         shape=(iface.size,) * 2)


@dataclass(frozen=True)
class _Arrow:
    """Arrowhead layout of a symmetric matrix on m unknowns (George and Liu,
    Computer Solution of Large Sparse Positive Definite Systems, 1981): the
    unknowns U of a sparse block first, in reverse Cuthill-McKee order with
    lower bandwidth ``kd``, then the unknowns T of a dense corner; ``order``
    maps each position to its unknown.  The lower triangle in that order is
    one flat array of entries: the U block in LAPACK lower band storage,
    (kd + 1) x |U|, then the T x U block as its transpose |U| x |T|, then
    the T block |T| x |T|, each in Fortran order."""
    order: np.ndarray
    nu: int
    kd: int

    @property
    def nt(self) -> int:
        return self.order.size - self.nu

    @property
    def sizes(self) -> tuple:
        return (self.kd + 1) * self.nu, self.nu * self.nt, self.nt * self.nt

    def views(self, entries) -> tuple:
        """The band, U x T and T x T blocks of the flat ``entries``, as
        Fortran-ordered views."""
        nb, nut, _ = self.sizes
        return (entries[:nb].reshape((self.kd + 1, self.nu), order="F"),
                entries[nb:nb + nut].reshape((self.nu, self.nt), order="F"),
                entries[nb + nut:].reshape((self.nt, self.nt), order="F"))

    def positions(self, block) -> tuple:
        """The stored entries of the square CSR ``block`` that lie in the
        lower triangle of the arrowhead order, as a mask, and their positions
        in the flat entries."""
        a, b = _ranks(self.order, block)
        sel = a >= b
        a, b = a[sel], b[sel]
        nb, nut, _ = self.sizes
        nu, nt = self.nu, self.nt
        pos = np.where(a < nu, (a - b) + b * (self.kd + 1),
                       np.where(b < nu, nb + b + (a - nu) * nu, nb + nut + (a - nu) + (b - nu) * nt))
        return sel, pos


def _arrow_layout(blocks, corner) -> _Arrow:
    """The arrowhead layout of the union of the patterns of the square CSR
    ``blocks``, with the sorted unknowns ``corner`` last."""
    m = blocks[0].shape[0]
    pattern = sum(sp.csr_matrix((np.ones(b.indices.size), b.indices, b.indptr), shape=(m, m)) for b in blocks)
    band = np.setdiff1d(np.arange(m), corner)
    order = np.concatenate([band[_reverse_cuthill_mckee(pattern[band][:, band].tocsr())], corner])
    a, b = _ranks(order, pattern)
    inside = (a < band.size) & (b < band.size)
    return _Arrow(order=order, nu=band.size, kd=int(np.abs(a - b)[inside].max(initial=0)))


def _reverse_cuthill_mckee(pattern) -> np.ndarray:
    """Reverse Cuthill-McKee order of the symmetric CSR ``pattern``: a
    breadth-first search from an unvisited vertex of least degree, each
    vertex's new neighbours by increasing degree, reversed (George and Liu,
    1981, section 4.3).  A Python loop over the vertices, as it runs once per
    topology on a few hundred of them; scipy.sparse.csgraph's version costs
    0.8 MiB of resident memory to import."""
    degree = np.diff(pattern.indptr)
    seen = np.zeros(degree.size, dtype=bool)
    order = []
    for start in np.argsort(degree, kind="stable"):
        if seen[start]:
            continue
        seen[start] = True
        head = len(order)
        order.append(start)
        while head < len(order):
            vertex = order[head]
            head += 1
            new = pattern.indices[pattern.indptr[vertex]:pattern.indptr[vertex + 1]]
            new = new[~seen[new]]
            seen[new] = True
            order.extend(new[np.argsort(degree[new], kind="stable")].tolist())
    return np.array(order[::-1], dtype=np.int64)


def _ranks(order, block) -> tuple:
    """The positions in ``order`` of the row and of the column of each stored
    entry of the square CSR ``block``."""
    at = np.empty(order.size, dtype=np.int64)
    at[order] = np.arange(order.size)
    return at[np.repeat(np.arange(block.shape[0]), np.diff(block.indptr))], at[block.indices]


def _arrow_parts(volume, on_interface, jumps) -> tuple:
    """The arrowhead layout of S on I with T last (``_volume_schur``), the
    flat entries of its penalty-free part V_II - X, the positions of the
    restricted ``jumps`` (``_Arrow.positions``) and those of the diagonal
    in the order of I."""
    iface = np.flatnonzero(on_interface)
    touched, x = _volume_schur(volume, on_interface)
    v_ii = volume[iface][:, iface]
    arrow = _arrow_layout((v_ii, jumps), touched)
    base = np.zeros(sum(arrow.sizes))
    sel, at = arrow.positions(v_ii)
    base[at] = v_ii.data[sel]
    arrow.views(base)[2][...] -= x  # the lower triangle holds S_V's T block; the rest is not read
    diagonal = arrow.positions(sp.identity(iface.size, format="csr"))[1]
    return arrow, base, arrow.positions(jumps), diagonal


def _arrow_cholesky(arrow: _Arrow, entries):
    """The half-solves x -> L^(-1) P x and y -> P^T L^(-T) y of the
    symmetric positive definite matrix whose lower triangle in the ``arrow``
    order P are the flat ``entries``, with P S P^T = L L^T, factored in
    place: LAPACK's band Cholesky ``dpbtrf`` of the U block, Y = L_UU^(-1)
    S_UT by ``dtbtrs``, and ``dpotrf`` of the dense corner S_TT - Y^T Y
    (``dsyrk``).  L is [[L_UU, 0], [Y^T, L_TT]], so each half-solve is one
    ``dtbsv``, one ``dgemv`` and one ``dtrsv`` on views of the entries, with
    no copy.  A matrix that does not factor raises ``ProbeError``."""
    band, ut, tt = arrow.views(entries)
    nu, nt, kd = arrow.nu, arrow.nt, arrow.kd

    def definite(info, offset):
        if info > 0:
            raise ProbeError(f"the Gram matrix on the interface unknowns is not positive definite "
                             f"(leading minor {offset + info})")

    if nu:
        band, info = lapack.dpbtrf(band, lower=1, overwrite_ab=1)
        definite(info, 0)
    if nt:
        if nu:
            ut, _ = lapack.dtbtrs(band, ut, uplo="L", overwrite_b=1)
            tt = blas.dsyrk(-1.0, ut, beta=1.0, c=tt, trans=1, lower=1, overwrite_c=1)
        tt, info = lapack.dpotrf(tt, lower=1, overwrite_a=1, clean=0)
        definite(info, nu)
    order = arrow.order
    work = np.zeros(order.size)
    head, tail = work[:nu], work[nu:]

    def forward(x):  # L y = P x
        np.take(x, order, out=work)
        if nu:
            blas.dtbsv(kd, band, head, lower=1, overwrite_x=1)
        if nt:
            if nu:
                blas.dgemv(-1.0, ut, head, beta=1.0, y=tail, trans=1, overwrite_y=1)
            blas.dtrsv(tt, tail, lower=1, overwrite_x=1)
        return work.copy()

    def backward(y):  # L^T P x = y
        work[:] = y
        if nt:
            blas.dtrsv(tt, tail, lower=1, trans=1, overwrite_x=1)
            if nu:
                blas.dgemv(-1.0, ut, tail, beta=1.0, y=head, overwrite_y=1)
        if nu:
            blas.dtbsv(kd, band, head, lower=1, trans=1, overwrite_x=1)
        x = np.empty_like(work)
        x[order] = work
        return x

    return forward, backward


def _volume_schur(volume, on_interface) -> tuple:
    """The positions T in I of the interface unknowns that V_RI touches, and
    the dense correction X = V_TR V_RR^(-1) V_RT, so that the volume Schur
    complement is S_V = V_II - X on T x T and V_II elsewhere.  One LU of
    V_RR, shifted as G is and Jacobi-scaled; V_RR is definite, as no nonzero
    constant vanishes on every segment host.  X is solved for one block of
    b = ``BLOCK_ENTRIES // |R|`` columns (at least one) at a time, so the
    dense work arrays take O(|R| b) memory, and b shrinks as the mesh grows.
    V never couples the two copies, so X is block-diagonal by copy."""
    iface, rest = np.flatnonzero(on_interface), np.flatnonzero(~on_interface)
    v_r = volume[rest]  # the rows of R
    v_rr = v_r[:, rest]
    v_ri = v_r[:, iface].tocsc()
    touched = np.flatnonzero(np.diff(v_ri.indptr))
    v_rr = v_rr + sp.diags(REGULARIZATION * v_rr.diagonal())
    d = 1.0 / np.sqrt(v_rr.diagonal())
    lu = factor(diagonal_scale(v_rr, d).tocsc())
    v_tr = volume[iface[touched]][:, rest]
    x = np.empty((touched.size,) * 2)
    for at in _blocks(touched.size, rest.size):
        cols = v_ri[:, touched[at]].toarray()
        cols *= d[:, None]
        cols = lu.solve(cols)  # V_RR^(-1) V_RT, scaled in place on both sides
        cols *= d[:, None]
        x[:, at] = v_tr @ cols
    return touched, x


def probe_G(topology: CutTopology, samples: int = 64) -> ProbeReport:
    """min over segments and ``samples`` equispaced parameters per segment of
    G(t)/h_K, where G is the distance function |(r-P) x r'|/|r'| with origin
    at the far corner P."""
    mesh, curve = topology.mesh, topology.curve
    elements = np.array([seg.element for seg in topology.segments], dtype=np.int64)
    t_lo = np.array([seg.t_lo for seg in topology.segments])
    t_hi = np.array([seg.t_hi for seg in topology.segments])
    p_far = far_corners(mesh, curve, elements, 0.5 * (t_lo + t_hi))[:, 0]
    ts = np.linspace(t_lo, t_hi, samples, axis=1)
    r = curve.point(ts) - p_far[:, None, :]
    dr = curve.tangent(ts)
    g = np.abs(r[..., 0] * dr[..., 1] - r[..., 1] * dr[..., 0]) / np.linalg.norm(dr, axis=-1)
    per_element = dict(zip(elements.tolist(), (g.min(axis=1) / mesh.h).tolist()))
    report = _report("far-point-distance", mesh, 0, per_element)
    report.extra["global_min"] = min(per_element.values())
    return report
