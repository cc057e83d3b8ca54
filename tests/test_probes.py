import numpy as np
import pytest
import scipy.linalg as la

from ipfem.assembly import PenaltyParams, Problem, assemble
from ipfem.cases import DOMAIN, catalog
from ipfem.fe_space import build_basis, build_dof_map, build_doubled_space
from ipfem.geometry import Circle, VerticalLine, classify_elements
from ipfem.mesh import Rectangle, build_mesh, element_map
from ipfem.probes import (
    probe_coercivity,
    probe_G,
    probe_inverse_trace,
    probe_trace,
)
from ipfem.quadrature import cut_cell_rule, cut_order, pass_order, segment_npoints, segment_rule, tensor_gauss

from helpers import traced_peak


def _topology(curve, nx):
    mesh = build_mesh(DOMAIN, nx, nx)
    return mesh, classify_elements(mesh, curve)


def test_inverse_trace_constant_closed_form_on_edge_case():
    # v = 1 on an edge-aligned segment: ratio = sqrt(|e| h_K) / (p sqrt(|K|))
    # = sqrt(h_K / dx) / p, and the probe's eigenvalue bound dominates it
    curve = VerticalLine(0.0, -1.0, 1.0)
    mesh, top = _topology(curve, 4)
    seg = top.segments[0]
    srule = segment_rule(seg, curve, 8)
    edge_sq = float(srule.weights.sum())  # |e| for v = 1
    region_sq = mesh.dx * mesh.dy
    p = 1
    hand = np.sqrt(edge_sq) * np.sqrt(mesh.h) / (p * np.sqrt(region_sq))
    assert hand == pytest.approx(np.sqrt(mesh.h / mesh.dx) / p, rel=1e-12)
    rep = probe_inverse_trace(top, p)
    assert rep.per_element[seg.element] >= hand - 1e-10


def _measured_max(top, p):
    """The inverse-trace max, over every host: each constant must be finite."""
    rep = probe_inverse_trace(top, p)
    assert np.isfinite(list(rep.per_element.values())).all()
    return rep.global_max


def test_inverse_trace_stability_in_h_and_p():
    curve = Circle(0.0, 0.0, 0.6)
    maxima = []
    for nx in (8, 16):
        _, top = _topology(curve, nx)
        maxima.append(_measured_max(top, 2))
    assert abs(maxima[1] - maxima[0]) < 0.2 * maxima[0]
    _, top = _topology(curve, 16)
    c1 = _measured_max(top, 1)
    c4 = _measured_max(top, 4)
    assert max(c1, c4) / min(c1, c4) < 3.0


def test_trace_probe_constant_bound_and_stability():
    curve = Circle(0.0, 0.0, 0.6)
    # v = 1: ratio = |e|^(1/2) / (h^(-1/2) |K_ie|^(1/2)), computable per element
    mesh, top = _topology(curve, 8)
    rep = probe_trace(top, samples=8, seed=0)
    for seg in top.segments:
        srule = segment_rule(seg, curve, 8)
        side = seg.analysis_side
        from ipfem.quadrature import cut_cell_rule

        region = cut_cell_rule(top, seg.element, side, order=4).weights.sum()
        hand = np.sqrt(srule.weights.sum()) / (np.sqrt(region / mesh.h))
        assert rep.per_element[seg.element] >= 0.0
        assert hand < 4.0  # computable bound stays desk-scale
    maxima = []
    for nx in (8, 16, 32, 64):
        m, t = _topology(curve, nx)
        maxima.append(probe_trace(t, samples=8, seed=0).global_max)
    assert max(maxima) / min(maxima) < 2.0


def test_g_probe_straight_interface_closed_form():
    curve = VerticalLine(0.0, -1.0, 1.0)
    mesh, top = _topology(curve, 8)
    rep = probe_G(top)
    # far corner sits at distance dx from the line; G is constant
    expected = mesh.dx / mesh.h
    for value in rep.per_element.values():
        assert value == pytest.approx(expected, rel=1e-12)


def test_g_probe_circle_lower_bound_and_h_stability():
    curve = Circle(0.0, 0.0, 0.5)
    minima = []
    for nx in (8, 16, 32):
        mesh, top = _topology(curve, nx)
        rep = probe_G(top)
        minima.append(rep.extra["global_min"])
    assert minima[0] >= 0.2
    for a, b in zip(minima[:-1], minima[1:]):
        assert b >= 0.7 * a  # halving h decreases the minimum by < 30%


def test_probe_translation_invariance():
    base_curve = Circle(0.0, 0.0, 0.6)
    mesh, top = _topology(base_curve, 8)
    rep = probe_inverse_trace(top, 2)
    dx, dy = 0.3, 0.7
    domain2 = Rectangle(-1.0 + dx, -1.0 + dy, 1.0 + dx, 1.0 + dy)
    mesh2 = build_mesh(domain2, 8, 8)
    curve2 = Circle(dx, dy, 0.6)
    top2 = classify_elements(mesh2, curve2)
    rep2 = probe_inverse_trace(top2, 2)
    a = np.sort(np.array(list(rep.per_element.values())))
    b = np.sort(np.array(list(rep2.per_element.values())))
    assert np.max(np.abs(a - b)) < 1e-9


def test_probe_determinism():
    _, top = _topology(Circle(0.0, 0.0, 0.6), 8)
    assert probe_inverse_trace(top, 2).per_element == probe_inverse_trace(top, 2).per_element
    assert probe_trace(top, 10, seed=3).per_element == probe_trace(top, 10, seed=3).per_element


@pytest.mark.parametrize("probe", [probe_inverse_trace, probe_trace])
def test_trace_probes_build_one_segment_rule(probe, monkeypatch):
    import ipfem.probes as probes

    calls = []

    def counted(segments, *args):
        calls.append(len(segments))
        return segment_rule(segments, *args)

    monkeypatch.setattr(probes, "segment_rule", counted)
    curve = catalog()["circle-jump"].curve
    _, top = _topology(curve, 8)
    probe(top, 2 if probe is probe_inverse_trace else 5)
    assert calls == [len(top.segments)]


def _coercivity_builder(p, nx=8):
    case = catalog()["circle-jump"]
    mesh = build_mesh(DOMAIN, nx, nx)
    top = classify_elements(mesh, case.curve)
    space = build_doubled_space(build_dof_map(mesh, p), top)

    def builder(g0, g1):
        params = PenaltyParams(beta=1, gamma0=g0, gamma1=g1, p=p)
        return assemble(space, top, case.problem, params)

    return builder


def test_coercivity_probe_region():
    for p in (1, 2):
        builder = _coercivity_builder(p)
        grid = probe_coercivity(builder, [0.01, 10.0, 100.0], [1.0], seed=0)
        assert grid[(100.0, 1.0)] > 0.0
        assert np.isfinite(grid[(0.01, 1.0)])  # reported, possibly negative
        assert grid[(0.01, 1.0)] < grid[(10.0, 1.0)] < grid[(100.0, 1.0)]


def test_coercivity_probe_zero_penalties_reports():
    # gamma0 = 0 leaves the energy Gram matrix singular: the leftmost Ritz
    # vector is a near-null vector of it (the shift holds 0.36-0.42 of its
    # energy), and the shifted pencil's spurious quotients, -1.7e7 and
    # -7.5e6, are reported as -inf
    builder = _coercivity_builder(1)
    grid = probe_coercivity(builder, [0.0], [0.0, 1.0], seed=0)
    assert grid == {(0.0, 0.0): -np.inf, (0.0, 1.0): -np.inf}


def test_coercivity_matches_dense_eigensolve():
    import scipy.linalg as la

    builder = _coercivity_builder(1)
    system = builder(50.0, 1.0)
    gram = (system.blocks["volume"] + system.blocks["j0"] + system.blocks["j1"]).toarray()
    dense = la.eigh(system.matrix.toarray(), gram, eigvals_only=True)[0]
    grid = probe_coercivity(builder, [50.0], [1.0], seed=0)
    assert grid[(50.0, 1.0)] == pytest.approx(float(dense), rel=1e-6)


def test_coercivity_positive_on_a_sliver_sparse_path():
    # An ellipse whose smallest cut fraction at nx = 24 is 9.8e-8: the energy
    # Gram matrix is singular to round-off, and the probe must
    # still find the positive leftmost quotient at a large jump penalty.
    from ipfem.geometry import Ellipse
    from ipfem.probes import _point_quotient

    curve = Ellipse(-0.012423625375440242, -0.025450219382129394, 0.4820860789418323, 0.7179139210581676)
    mesh, top = _topology(curve, 24)
    assert top.fractions[top.cut_elements].min() < 1e-6
    space = build_doubled_space(build_dof_map(mesh, 2), top)
    one = lambda x, y: np.ones_like(np.asarray(x, dtype=float))
    ten = lambda x, y: 10.0 * np.ones_like(np.asarray(x, dtype=float))
    zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    problem = Problem(a=(one, ten), f=(zero, zero))
    system = assemble(space, top, problem, PenaltyParams(beta=1, gamma0=1000.0, gamma1=1.0, p=2))
    quotient, _ = _point_quotient(system)
    assert quotient > 0.0


def test_sparse_coercivity_matches_dense_on_a_1e_8_sliver():
    # smallest cut fraction 1.3e-8 at nx = 24; without Jacobi scaling an
    # earlier shift-invert path missed the leftmost quotient by 1.9 % at (1000, 1)
    import scipy.linalg as la
    import scipy.sparse as sp

    from ipfem.geometry import Ellipse
    from ipfem.probes import REGULARIZATION, _point_quotient

    curve = Ellipse(-0.023853030956971416, 0.04476117018240089, 0.5466567978737936, 0.6533432021262063)
    mesh, top = _topology(curve, 24)
    assert top.fractions[top.cut_elements].min() < 1e-7
    space = build_doubled_space(build_dof_map(mesh, 2), top)
    one = lambda x, y: np.ones_like(np.asarray(x, dtype=float))
    ten = lambda x, y: 10.0 * np.ones_like(np.asarray(x, dtype=float))
    zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    problem = Problem(a=(one, ten), f=(zero, zero))
    for g0, g1 in ((1000.0, 1.0), (1.0, 0.01)):
        system = assemble(space, top, problem, PenaltyParams(beta=1, gamma0=g0, gamma1=g1, p=2))
        gram = system.blocks["volume"] + system.blocks["j0"] + system.blocks["j1"]
        shift = REGULARIZATION * sp.diags(gram.diagonal())
        ad = (system.matrix + shift).toarray()
        gd = (gram + shift).toarray()
        dense = la.eigh(0.5 * (ad + ad.T), 0.5 * (gd + gd.T), eigvals_only=True, subset_by_index=[0, 0])[0]
        quotient, _ = _point_quotient(system)
        assert quotient == pytest.approx(float(dense), rel=1e-6)


@pytest.mark.parametrize("g0, g1", [(1000.0, 1.0), (1.0, 0.01)])
def test_sparse_coercivity_matches_dense_on_the_scan_ellipse(g0, g1):
    # the ellipse of the penalty-scan benchmark at seed 1 (nx = 24, p = 2):
    # the interface-reduced probe must give the positive quotient at (1000, 1) and the
    # negative one at (1, 0.01) of a dense solve of the same shifted pencil
    import scipy.linalg as la
    import scipy.sparse as sp

    from ipfem.geometry import Ellipse
    from ipfem.probes import REGULARIZATION, _point_quotient

    curve = Ellipse(0.0023643249400513433, 0.09009273926518707, 0.49324788381589013, 0.7067521161841098)
    mesh, top = _topology(curve, 24)
    space = build_doubled_space(build_dof_map(mesh, 2), top)
    one = lambda x, y: np.ones_like(np.asarray(x, dtype=float))
    ten = lambda x, y: 10.0 * np.ones_like(np.asarray(x, dtype=float))
    zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    problem = Problem(a=(one, ten), f=(zero, zero))
    system = assemble(space, top, problem, PenaltyParams(beta=1, gamma0=g0, gamma1=g1, p=2))
    gram = system.blocks["volume"] + system.blocks["j0"] + system.blocks["j1"]
    shift = REGULARIZATION * sp.diags(gram.diagonal())
    ad = (system.matrix + shift).toarray()
    gd = (gram + shift).toarray()
    dense = la.eigh(0.5 * (ad + ad.T), 0.5 * (gd + gd.T), eigvals_only=True, subset_by_index=[0, 0])[0]
    quotient, _ = _point_quotient(system)
    assert (quotient > 0.0) == (g0 == 1000.0)
    assert quotient == pytest.approx(float(dense), rel=1e-8)


def _shifted_dense_quotient(system):
    """Leftmost eigenvalue of the full shifted pencil, by a dense solve."""
    import scipy.linalg as la
    import scipy.sparse as sp

    from ipfem.probes import REGULARIZATION

    gram = system.blocks["volume"] + system.blocks["j0"] + system.blocks["j1"]
    shift = REGULARIZATION * sp.diags(gram.diagonal())
    ad = (system.matrix + shift).toarray()
    gd = (gram + shift).toarray()
    return float(la.eigh(0.5 * (ad + ad.T), 0.5 * (gd + gd.T), eigvals_only=True, driver="gv")[0])


def test_coercivity_scan_matches_dense_at_every_point_of_the_scan_ellipse():
    # the 12 penalty-scan points on its seed-1 ellipse (nx = 24, p = 2): the
    # volume Schur complement is computed at the first point and kept
    from ipfem.geometry import Ellipse

    curve = Ellipse(0.0023643249400513433, 0.09009273926518707, 0.49324788381589013, 0.7067521161841098)
    mesh, top = _topology(curve, 24)
    space = build_doubled_space(build_dof_map(mesh, 2), top)
    one = lambda x, y: np.ones_like(np.asarray(x, dtype=float))
    ten = lambda x, y: 10.0 * np.ones_like(np.asarray(x, dtype=float))
    zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    problem = Problem(a=(one, ten), f=(zero, zero))

    def builder(g0, g1):
        return assemble(space, top, problem, PenaltyParams(beta=1, gamma0=g0, gamma1=g1, p=2))

    grid = probe_coercivity(builder, [1000.0, 100.0, 10.0, 1.0], [1.0, 0.1, 0.01])
    assert len(grid) == 12
    for (g0, g1), quotient in grid.items():
        dense = _shifted_dense_quotient(builder(g0, g1))
        assert quotient == pytest.approx(dense, rel=1e-8), (g0, g1)


def test_coercivity_recomputes_the_volume_schur_complement_when_the_volume_changes():
    # the coefficient on side 1 alternates between points, so every volume
    # block differs from the one before it: each quotient must equal, bitwise,
    # that of a probe of its point alone
    case = catalog()["circle-jump"]
    mesh = build_mesh(DOMAIN, 8, 8)
    top = classify_elements(mesh, case.curve)
    space = build_doubled_space(build_dof_map(mesh, 2), top)
    zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    gamma0 = [100.0, 10.0, 1.0, 1000.0]

    def builder(g0, g1):
        a1 = 1.0 + 4.0 * (gamma0.index(g0) % 2)
        coef = lambda x, y, a1=a1: a1 * np.ones_like(np.asarray(x, dtype=float))
        problem = Problem(a=(coef, case.problem.a[1]), f=(zero, zero))
        return assemble(space, top, problem, PenaltyParams(beta=1, gamma0=g0, gamma1=g1, p=2))

    grid = probe_coercivity(builder, gamma0, [1.0, 0.1], seed=2)
    for (g0, g1), quotient in grid.items():
        assert quotient == probe_coercivity(builder, [g0], [g1], seed=2)[(g0, g1)]
    assert len(set(grid.values())) == len(grid)


def _volume_schur_inputs(system, monkeypatch):
    """The (volume, on_interface) that ``_point_quotient`` passes to ``_volume_schur``."""
    import ipfem.probes as probes

    class Seen(Exception):
        pass

    seen = []

    def record(*args):
        seen.append(args)
        raise Seen

    with monkeypatch.context() as m:
        m.setattr(probes, "_volume_schur", record)
        with pytest.raises(Seen):
            probes._point_quotient(system)
    return seen[0]


def _scan_ellipse_system():
    # the ellipse of the penalty-scan benchmark at seed 1 (nx = 24, p = 2)
    from ipfem.geometry import Ellipse

    curve = Ellipse(0.0023643249400513433, 0.09009273926518707, 0.49324788381589013, 0.7067521161841098)
    mesh, top = _topology(curve, 24)
    space = build_doubled_space(build_dof_map(mesh, 2), top)
    one = lambda x, y: np.ones_like(np.asarray(x, dtype=float))
    ten = lambda x, y: 10.0 * np.ones_like(np.asarray(x, dtype=float))
    zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    problem = Problem(a=(one, ten), f=(zero, zero))
    return assemble(space, top, problem, PenaltyParams(beta=1, gamma0=1000.0, gamma1=1.0, p=2))


@pytest.mark.parametrize("which", ["scan-ellipse", "circle-jump-16"])
def test_volume_schur_does_not_depend_on_the_column_block_width(which, monkeypatch):
    # one column per block against one block for every touched column: the
    # same T and, on these two inputs, the same bits of X.  Bitwise equality
    # is not general: SuperLU's solve with several right-hand sides rounds
    # differently as their number changes, and on circle-jump at nx = 48,
    # p = 2 the two widths differ by 1.1e-18 of X's largest entry.
    import ipfem.probes as probes

    system = _scan_ellipse_system() if which == "scan-ellipse" else _coercivity_builder(2, nx=16)(1000.0, 1.0)
    volume, on_interface = _volume_schur_inputs(system, monkeypatch)
    out = []
    for entries in (1, volume.shape[0] ** 2):
        monkeypatch.setattr(probes, "BLOCK_ENTRIES", entries)
        out.append(probes._volume_schur(volume, on_interface))
    (t_one, x_one), (t_whole, x_whole) = out
    assert 0 < t_one.size < on_interface.sum()
    assert t_one.tobytes() == t_whole.tobytes()
    assert x_one.shape == (t_one.size,) * 2
    assert x_one.tobytes() == x_whole.tobytes()


def test_volume_schur_memory_does_not_grow_with_the_touched_columns(monkeypatch):
    # circle-jump at nx = 48, p = 2 (|R| = 8,329, 1,392 interface unknowns,
    # 464 of them touched): the tracemalloc peak inside _volume_schur was
    # 63.4 MiB while V_RR^(-1) V_RT was one dense |R| x |T| array, and is
    # 6.1 MiB with column blocks of BLOCK_ENTRIES entries and a dense X.
    import ipfem.probes as probes

    volume, on_interface = _volume_schur_inputs(_coercivity_builder(2, nx=48)(1000.0, 1.0), monkeypatch)
    _, peak = traced_peak(probes._volume_schur, volume, on_interface)
    assert peak < 32 * 2**20, peak / 2**20


def _arrow_matrix(rng, m, nt):
    """A random symmetric positive definite matrix of order m whose unknowns
    off a random sorted corner of nt couple only along a scrambled chain with
    a few chords, and its corner."""
    labels = rng.permutation(m)
    corner = np.sort(labels[m - nt:])
    band = labels[:m - nt]
    matrix = np.zeros((m, m))
    for k in range(band.size):
        for step in (1, 3):
            if k + step < band.size:
                matrix[band[k], band[k + step]] = rng.standard_normal()
    if nt:
        matrix[np.ix_(corner, corner)] = np.triu(rng.standard_normal((nt, nt)), 1)
        hit = band[rng.random(band.size) < 0.3]
        matrix[np.ix_(hit, corner)] = rng.standard_normal((hit.size, nt))
    matrix = matrix + matrix.T
    matrix += np.diag(np.abs(matrix).sum(axis=1) + 1.0)
    return matrix, corner


def _arrow_factor(matrix, corner):
    import scipy.sparse as sp

    from ipfem.probes import _arrow_cholesky, _arrow_layout

    block = sp.csr_matrix(matrix)
    arrow = _arrow_layout((block,), corner)
    entries = np.zeros(sum(arrow.sizes))
    sel, at = arrow.positions(block)
    entries[at] = block.data[sel]
    return arrow, _arrow_cholesky(arrow, entries)


@pytest.mark.parametrize("m", [1, 2, 7, 8, 81])
def test_arrow_cholesky_half_solves_match_a_dense_factor(m):
    # every order with no corner (|T| = 0), a corner of half the unknowns,
    # and all of them in the corner (|U| = 0)
    rng = np.random.default_rng(m)
    for nt in sorted({0, m // 2, m}):
        matrix, corner = _arrow_matrix(rng, m, nt)
        arrow, (forward, backward) = _arrow_factor(matrix, corner)
        assert arrow.nt == nt and arrow.order[arrow.nu:].tolist() == corner.tolist()
        order = arrow.order
        band = matrix[np.ix_(order[:arrow.nu], order[:arrow.nu])]
        assert not np.tril(band, -arrow.kd - 1).any()
        lower = la.cholesky(matrix[np.ix_(order, order)], lower=True)
        x = rng.standard_normal(m)
        want = np.empty(m)
        want[order] = la.solve_triangular(lower.T, x)
        for got, want in ((forward(x), la.solve_triangular(lower, x[order], lower=True)), (backward(x), want)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), nt


def test_reverse_cuthill_mckee_orders_a_scrambled_path_and_ring():
    # a path in random labels comes out as a path (band width 1), and a ring
    # with two components as two runs of band width 2
    import scipy.sparse as sp

    from ipfem.probes import _reverse_cuthill_mckee

    labels = np.random.default_rng(3).permutation(40)
    path = [(labels[k], labels[k + 1]) for k in range(19)]
    ring = [(labels[20 + k], labels[20 + (k + 1) % 20]) for k in range(20)]
    i, j = np.array(path + ring).T
    pattern = sp.csr_matrix((np.ones(2 * i.size), (np.r_[i, j], np.r_[j, i])), shape=(40, 40))
    order = _reverse_cuthill_mckee(pattern)
    assert sorted(order.tolist()) == list(range(40))
    at = np.empty(40, dtype=int)
    at[order] = np.arange(40)
    width = np.abs(at[i] - at[j])
    assert width[:19].max() == 1 and width[19:].max() == 2


def test_arrow_cholesky_raises_on_an_indefinite_matrix():
    # the negative pivot in the band, then in the dense corner
    from ipfem.probes import ProbeError

    matrix = np.diag([2.0, 1.0, -1.0, 3.0, 1.0])
    for corner in ([3, 4], [1, 2]):
        with pytest.raises(ProbeError, match="not positive definite"):
            _arrow_factor(matrix, np.array(corner))


def test_restricted_blocks_are_the_sliced_blocks():
    # the probe relabels the stored entries of C and j0 + j1 instead of
    # slicing both to I x I; the result must be the slice, byte for byte
    from ipfem.probes import _restricted

    system = _scan_ellipse_system()
    jumps = system.blocks["j0"] + system.blocks["j1"]
    consistency = system.matrix - (system.blocks["volume"] + jumps)
    iface = np.unique(np.concatenate([np.concatenate(block.nonzero()) for block in (consistency, jumps)]))
    assert 0 < iface.size < system.n
    for block in (consistency, jumps):
        got, want = _restricted(block, iface), block[iface][:, iface]
        for field in ("data", "indices", "indptr"):
            assert getattr(got, field).tobytes() == getattr(want, field).astype(getattr(got, field).dtype).tobytes()


def test_kept_path_point_memory_stays_below_a_dense_factor():
    # tracemalloc peak of one point with the volume Schur correction kept
    # (672 interface unknowns, 224 of them in the dense corner): 2.0 MiB with
    # its arrowhead Cholesky (1.3 MiB), 2.8 MiB with the RFP Cholesky before
    # it; a dense factor alone is 3.4 MiB
    import ipfem.probes as probes

    system = _scan_ellipse_system()
    _, kept = probes._point_quotient(system)
    _, peak = traced_peak(probes._point_quotient, system, kept)
    assert peak < 4 * 2**20, peak / 2**20


def test_coercivity_is_one_without_an_interface(monkeypatch):
    # a circle outside the domain leaves no segment, so C = A - G vanishes:
    # the quotient is exactly 1 and nothing is factored or iterated
    import ipfem.probes as probes

    def forbidden(*args, **kwargs):
        raise AssertionError("the probe factored or iterated without an interface")

    monkeypatch.setattr(probes, "factor", forbidden)
    monkeypatch.setattr(probes, "_arrow_cholesky", forbidden)
    monkeypatch.setattr(probes.spla, "eigsh", forbidden)
    case = catalog()["circle-jump"]
    mesh, top = _topology(Circle(3.0, 3.0, 0.5), 8)
    assert not top.segments
    space = build_doubled_space(build_dof_map(mesh, 1), top)

    def builder(g0, g1):
        return assemble(space, top, case.problem, PenaltyParams(beta=1, gamma0=g0, gamma1=g1, p=1))

    assert probe_coercivity(builder, [1.0, 10.0], [1.0]) == {(1.0, 1.0): 1.0, (10.0, 1.0): 1.0}


# ---------------------------------------------------------------------------
# Reference oracle: the two trace probes as loops over the segments, one
# segment, sample and field at a time, each host's region rule from its own
# scalar cut_cell_rule call.


def _loop_region(mesh, seg, crule, order):
    """Physical nodes, weights and reference nodes of a segment host's analysis
    side: the whole element when ``crule`` is None, else ``crule``."""
    center, half = element_map(mesh, seg.element)
    if crule is None:
        rule = tensor_gauss(order)
        xi, eta = rule.points[:, 0], rule.points[:, 1]
        x, y = center[0] + half[0] * xi, center[1] + half[1] * eta
        return x, y, rule.weights * float(half[0] * half[1]), xi, eta
    x, y = crule.points[:, 0], crule.points[:, 1]
    return x, y, crule.weights, (x - center[0]) / half[0], (y - center[1]) / half[1]


def _loop_rules(top, order):
    return [None if seg.on_edge else cut_cell_rule(top, seg.element, seg.analysis_side, order)
            for seg in top.segments]


def _loop_inverse_trace(mesh, top, p):
    """per_element of the inverse-trace probe, segment by segment, from the
    error pass's rules and LAPACK's generalized eigensolver."""
    quad_order = pass_order(p, errors=True)
    basis = build_basis(p)
    refined = {}
    srule = segment_rule(top.segments, top.curve, segment_npoints(quad_order, p))
    for seg, points, weights, crule in zip(top.segments, srule.points, srule.weights,
                                           _loop_rules(top, cut_order(quad_order, p))):
        center, half = element_map(mesh, seg.element)
        vals_e = basis.values((points[:, 0] - center[0]) / half[0], (points[:, 1] - center[1]) / half[1])
        m_edge = vals_e.T @ (weights[:, None] * vals_e)
        _, _, w, xi_k, eta_k = _loop_region(mesh, seg, crule, quad_order)
        vals_k = basis.values(xi_k, eta_k)
        m_region = vals_k.T @ (w[:, None] * vals_k)
        lam = la.eigh(m_edge, m_region, eigvals_only=True)[-1]
        refined[seg.element] = float(np.sqrt(max(lam, 0.0)) * np.sqrt(mesh.h) / p)
    return refined


def _loop_fields(rng, n, h):
    """``n`` random cubics and one oscillatory field, as (value, gradient)."""
    fields = []
    for _ in range(n):
        coef = rng.standard_normal((4, 4))

        def val(x, y, c=coef):
            return sum(c[i, j] * x**i * y**j for i in range(4) for j in range(4))

        def grad(x, y, c=coef):
            gx = sum(i * c[i, j] * x ** (i - 1) * y**j for i in range(1, 4) for j in range(4))
            gy = sum(j * c[i, j] * x**i * y ** (j - 1) for i in range(4) for j in range(1, 4))
            return gx, gy

        fields.append((val, grad))
    k = min(4.0 / h, 64.0)
    fields.append((lambda x, y: np.sin(k * x) * np.cos(k * y),
                   lambda x, y: (k * np.cos(k * x) * np.cos(k * y), -k * np.sin(k * x) * np.sin(k * y))))
    return fields


def _loop_trace(mesh, curve, top, samples=20, seed=0):
    """per_element of the trace probe, segment by segment and field by field."""
    rng = np.random.default_rng(seed)
    per_element = {}
    srule = segment_rule(top.segments, top.curve, 12)
    for seg, points, weights, crule in zip(top.segments, srule.points, srule.weights, _loop_rules(top, 8)):
        x, y, w, _, _ = _loop_region(mesh, seg, crule, 8)
        best = 0.0
        for val, grad in _loop_fields(rng, samples, mesh.h):
            ve = np.sqrt(np.sum(weights * val(points[:, 0], points[:, 1]) ** 2))
            vk = np.sqrt(np.sum(w * val(x, y) ** 2))
            gx, gy = grad(x, y)
            gk = np.sqrt(np.sum(w * (gx**2 + gy**2)))
            if vk == 0.0:
                continue
            denom = vk / np.sqrt(mesh.h) + np.sqrt(vk) * np.sqrt(gk)
            if denom == 0.0:
                continue
            best = max(best, ve / denom)
        per_element[seg.element] = best
    return per_element


def _rel_change(got, want):
    a, b = np.array(list(got.values())), np.array(list(want.values()))
    return float(np.max(np.abs(a - b) / np.abs(b)))


_ORACLE_INPUTS = {
    "circle-jump-8": (catalog()["circle-jump"].curve, 8),
    "circle-jump-32": (catalog()["circle-jump"].curve, 32),
    # every segment on a mesh edge, measured over the whole-element rule
    "vertical-line-8": (VerticalLine(0.0, -1.0, 1.0), 8),
}


@pytest.mark.parametrize("which", sorted(_ORACLE_INPUTS))
def test_batched_inverse_trace_probe_matches_the_per_segment_loop(which):
    # the probe reduces the pencil by a QR factor of the region's weighted
    # basis table, never forming the region Gram matrix that LAPACK's sygvd
    # factors here; those Gram matrices of small cut sides reach a condition
    # number of 1e9 at p = 4, where the two moved apart by up to 3.4e-9
    # relative (circle-jump, nx = 32), and by 1.5e-13 at p <= 2
    curve, nx = _ORACLE_INPUTS[which]
    mesh, top = _topology(curve, nx)
    for p in (1, 2, 4):
        rep = probe_inverse_trace(top, p)
        refined = _loop_inverse_trace(mesh, top, p)
        assert list(rep.per_element) == list(refined)
        assert _rel_change(rep.per_element, refined) < 1e-8


@pytest.mark.parametrize("which", sorted(_ORACLE_INPUTS))
def test_batched_trace_probe_matches_the_per_segment_loop(which):
    # the cubics are summed by one product with the monomial tables, not
    # term by term: the constants moved by at most 7.3e-16 relative
    curve, nx = _ORACLE_INPUTS[which]
    mesh, top = _topology(curve, nx)
    rep = probe_trace(top, samples=20, seed=0)
    want = _loop_trace(mesh, curve, top, samples=20, seed=0)
    assert list(rep.per_element) == list(want)
    assert _rel_change(rep.per_element, want) < 1e-13


@pytest.mark.parametrize("probe", [probe_inverse_trace, probe_trace])
def test_trace_probes_do_not_depend_on_the_segment_block_size(probe, monkeypatch):
    import ipfem.probes as probes

    curve = catalog()["circle-jump"].curve
    _, top = _topology(curve, 16)
    args = (4,) if probe is probe_inverse_trace else (20, 0)
    whole = probe(top, *args)
    monkeypatch.setattr(probes, "BLOCK_ENTRIES", 1)  # one segment per block
    single = probe(top, *args)
    assert single.per_element == whole.per_element
    assert single.extra == whole.extra


def test_trace_probe_memory_does_not_grow_with_the_fields_of_every_segment():
    # circle-jump at nx = 64 (156 segments, 300 padded region nodes, 21
    # fields): the tracemalloc peak of probe_trace is 48.8 MiB with every
    # segment in one block, and 7.9 MiB with blocks of
    # BLOCK_ENTRIES entries
    curve = catalog()["circle-jump"].curve
    _, top = _topology(curve, 64)
    _, peak = traced_peak(probe_trace, top, samples=20, seed=0)
    assert peak < 24 * 2**20, peak / 2**20
