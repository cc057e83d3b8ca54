import numpy as np
import pytest

from ipfem.fe_space import (
    InactiveEvaluation,
    build_basis,
    build_dof_map,
    build_doubled_space,
    evaluate_discrete,
    shape_1d,
)
from ipfem.geometry import Circle, classify_elements
from ipfem.mesh import Rectangle, build_mesh, element_geometry
from ipfem.quadrature import tensor_gauss

from helpers import interpolate_pair

BIUNIT = Rectangle(-1.0, -1.0, 1.0, 1.0)


def test_p1_nodal_property():
    basis = build_basis(1)
    corners = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    vals = basis.values(corners[:, 0], corners[:, 1])
    assert vals.shape == (4, 4)
    # each corner is hit by exactly one basis function with value 1
    assert np.allclose(np.sort(vals, axis=1)[:, :-1], 0.0, atol=1e-14)
    assert np.allclose(np.sort(vals, axis=1)[:, -1], 1.0, atol=1e-14)
    assert np.allclose(vals.sum(axis=1), 1.0)


def test_p2_bubbles_vanish_at_ends():
    s = shape_1d(np.array([-1.0, 1.0]), 5)
    assert np.allclose(s[:, 2:], 0.0, atol=1e-14)
    basis = build_basis(2)
    assert basis.n_local == 9


def test_partition_of_unity_vertex_functions():
    basis = build_basis(3)
    rng = np.random.default_rng(7)
    xi = rng.uniform(-1, 1, 30)
    eta = rng.uniform(-1, 1, 30)
    vals = basis.values(xi, eta)
    vertex_ids = [a * 4 + b for a in (0, 1) for b in (0, 1)]
    assert np.allclose(vals[:, vertex_ids].sum(axis=1), 1.0, atol=1e-14)


@pytest.mark.parametrize("p", [1, 2, 4])
def test_gradients_match_finite_differences(p):
    basis = build_basis(p)
    rng = np.random.default_rng(3)
    xi = rng.uniform(-0.95, 0.95, 20)
    eta = rng.uniform(-0.95, 0.95, 20)
    grads = basis.gradients(xi, eta)
    h = 1e-6
    gx = (basis.values(xi + h, eta) - basis.values(xi - h, eta)) / (2 * h)
    gy = (basis.values(xi, eta + h) - basis.values(xi, eta - h)) / (2 * h)
    assert np.max(np.abs(grads[:, :, 0] - gx)) < 1e-7
    assert np.max(np.abs(grads[:, :, 1] - gy)) < 1e-7


def test_gram_matrix_nonsingular():
    basis = build_basis(4)
    rule = tensor_gauss(8)
    vals = basis.values(rule.points[:, 0], rule.points[:, 1])
    gram = vals.T @ (rule.weights[:, None] * vals)
    evals = np.linalg.eigvalsh(gram)
    assert evals.min() > 0.0
    assert np.isfinite(evals.max() / evals.min())


def test_basis_degree_bounds():
    with pytest.raises(ValueError):
        build_basis(0)
    with pytest.raises(ValueError):
        build_basis(11)


@pytest.mark.parametrize(
    "nx,ny,p,total,free",
    [(2, 2, 1, 9, 1), (2, 2, 2, 25, 9), (3, 2, 2, 35, 15), (4, 4, 3, 169, 121)],
)
def test_dof_counts(nx, ny, p, total, free):
    mesh = build_mesh(BIUNIT, nx, ny)
    dm = build_dof_map(mesh, p)
    assert dm.n_dofs == total == (nx * p + 1) * (ny * p + 1)
    assert dm.n_free == free == (nx * p - 1) * (ny * p - 1)


def _loop_dof_map(nx, ny, p):
    """Reference numbering, one (element, a, b) triple at a time: vertices,
    horizontal-edge bubbles, vertical-edge bubbles, interiors."""
    nv = (nx + 1) * (ny + 1)
    nhe = nx * (ny + 1)
    nve = (nx + 1) * ny
    nbub = p - 1
    element_dofs = np.empty((nx * ny, (p + 1) ** 2), dtype=np.int64)
    boundary = np.zeros(nv + nbub * (nhe + nve) + nbub**2 * nx * ny, dtype=bool)
    for e in range(nx * ny):
        i, j = e % nx, e // nx
        for a in range(p + 1):
            for b in range(p + 1):
                if a <= 1 and b <= 1:
                    gid = (j + b) * (nx + 1) + (i + a)
                    on_boundary = i + a in (0, nx) or j + b in (0, ny)
                elif b <= 1:
                    gid = nv + ((j + b) * nx + i) * nbub + (a - 2)
                    on_boundary = j + b in (0, ny)
                elif a <= 1:
                    gid = nv + nbub * nhe + (j * (nx + 1) + (i + a)) * nbub + (b - 2)
                    on_boundary = i + a in (0, nx)
                else:
                    gid = nv + nbub * (nhe + nve) + e * nbub**2 + (a - 2) * nbub + (b - 2)
                    on_boundary = False
                element_dofs[e, a * (p + 1) + b] = gid
                boundary[gid] |= on_boundary
    return element_dofs, boundary


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (5, 7)])
def test_dof_map_matches_loop_numbering(nx, ny, p):
    dm = build_dof_map(build_mesh(BIUNIT, nx, ny), p)
    element_dofs, boundary = _loop_dof_map(nx, ny, p)
    assert dm.element_dofs.dtype == element_dofs.dtype
    assert np.array_equal(dm.element_dofs, element_dofs)
    assert np.array_equal(dm.boundary, boundary)
    assert dm.n_dofs == boundary.size


@pytest.mark.parametrize("p", [1, 2, 3])
def test_global_continuity_across_edges(p):
    mesh = build_mesh(BIUNIT, 3, 3)
    dm = build_dof_map(mesh, p)
    basis = build_basis(p)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(dm.n_dofs)
    # vertical edge between elements 4 and 5, ten random points
    e_left, e_right = 4, 5
    ys = rng.uniform(-1 / 3, 1 / 3, 10)
    x_edge = mesh.domain.x0 + 2 * mesh.dx
    for y in ys:
        vals = []
        for e in (e_left, e_right):
            geo = element_geometry(mesh, e)
            xi, eta = geo.to_reference(x_edge, y)
            v = basis.values(np.atleast_1d(xi), np.atleast_1d(eta))[0]
            vals.append(float(v @ coeffs[dm.element_dofs[e]]))
        assert vals[0] == pytest.approx(vals[1], abs=1e-12)
    # horizontal edge between elements 1 and 4
    xs = rng.uniform(-1 / 3, 1 / 3, 10)
    y_edge = mesh.domain.y0 + mesh.dy
    for x in xs:
        vals = []
        for e in (1, 4):
            geo = element_geometry(mesh, e)
            xi, eta = geo.to_reference(x, y_edge)
            v = basis.values(np.atleast_1d(xi), np.atleast_1d(eta))[0]
            vals.append(float(v @ coeffs[dm.element_dofs[e]]))
        assert vals[0] == pytest.approx(vals[1], abs=1e-12)


def test_doubled_space_one_sided():
    mesh = build_mesh(BIUNIT, 4, 4)
    top = classify_elements(mesh, Circle(0.0, 0.0, 50.0))  # domain inside the curve
    space = build_doubled_space(build_dof_map(mesh, 2), top)
    assert space.active[0].sum() == space.dofmap.n_free
    assert space.active[1].sum() == 0
    assert space.n_unknowns == space.dofmap.n_free


def test_activity_matches_brute_force_support():
    mesh = build_mesh(BIUNIT, 8, 8)
    curve = Circle(0.0, 0.0, 0.5)
    top = classify_elements(mesh, curve)
    dm = build_dof_map(mesh, 1)
    space = build_doubled_space(dm, top)
    offs = (np.arange(64) + 0.5) / 64
    has_area = np.zeros((mesh.n_elements, 2), dtype=bool)
    for e in range(mesh.n_elements):
        x0, y0, x1, y1 = mesh.element_box(e)
        d = curve.signed_distance(
            (x0 + offs * (x1 - x0))[:, None], (y0 + offs * (y1 - y0))[None, :]
        )
        has_area[e] = (np.any(d < 0), np.any(d > 0))
    for side in (1, 2):
        expected = np.zeros(dm.n_dofs, dtype=bool)
        for e in range(mesh.n_elements):
            if has_area[e, side - 1]:
                expected[dm.element_dofs[e]] = True
        expected &= ~dm.boundary
        assert np.array_equal(space.active[side - 1], expected)
    # every DOF whose support touches the cut annulus is active in both copies
    cut_dofs = np.unique(dm.element_dofs[top.cut_elements])
    free_cut = cut_dofs[~dm.boundary[cut_dofs]]
    assert np.all(space.active[0][free_cut])
    assert np.all(space.active[1][free_cut])


def test_unknown_count_bound():
    mesh = build_mesh(BIUNIT, 8, 8)
    dm = build_dof_map(mesh, 2)
    cut = build_doubled_space(dm, classify_elements(mesh, Circle(0.0, 0.0, 0.6)))
    pure = build_doubled_space(dm, classify_elements(mesh, Circle(0.0, 0.0, 50.0)))
    assert cut.n_unknowns > dm.n_free
    assert pure.n_unknowns == dm.n_free


def test_evaluate_constant_and_zero():
    mesh = build_mesh(BIUNIT, 8, 8)
    curve = Circle(0.0, 0.0, 0.6)
    top = classify_elements(mesh, curve)
    space = build_doubled_space(build_dof_map(mesh, 2), top)
    one = lambda x, y: np.ones_like(np.asarray(x, dtype=float))
    coeffs = interpolate_pair(space, (one, one))
    rng = np.random.default_rng(5)
    # keep clear of boundary elements: there the constrained (Dirichlet) DOFs
    # pull the interpolant of 1 back to zero
    for _ in range(20):
        pt = rng.uniform(-0.74, 0.74, 2)
        d = float(curve.signed_distance(pt[0], pt[1]))
        if abs(d) < 1e-6:
            continue
        val, grad = evaluate_discrete(space, coeffs, pt)
        assert val == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(grad)) < 1e-11
    val, grad = evaluate_discrete(space, np.zeros(space.n_unknowns), (0.3, 0.2), side=1)
    assert val == 0.0 and np.all(grad == 0.0)


def test_evaluate_inactive_side_raises():
    mesh = build_mesh(BIUNIT, 8, 8)
    top = classify_elements(mesh, Circle(0.0, 0.0, 0.6))
    space = build_doubled_space(build_dof_map(mesh, 1), top)
    with pytest.raises(InactiveEvaluation):
        evaluate_discrete(space, np.zeros(space.n_unknowns), (0.95, 0.95), side=1)


def test_jump_matches_assembly_traces():
    from ipfem.assembly import segment_trace_operators
    from ipfem.cases import catalog
    from ipfem.quadrature import segment_rule

    for case_name in ("circle-jump", "aligned-edge"):
        case = catalog()[case_name]
        mesh = build_mesh(BIUNIT, 8, 8)
        top = classify_elements(mesh, case.curve)
        space = build_doubled_space(build_dof_map(mesh, 2), top)
        rng = np.random.default_rng(17)
        coeffs = rng.standard_normal(space.n_unknowns)
        for seg in top.segments[:4]:
            rule = segment_rule(seg, case.curve, 5)
            tr = segment_trace_operators(space, case.problem, seg, rule)
            c1 = space.gather(coeffs, seg.element, 1)
            c2 = space.gather(
                coeffs, seg.neighbor if seg.on_edge else seg.element, 2
            )
            jump_asm = tr.vals1 @ c1 - tr.vals2 @ c2
            for q, pt in enumerate(rule.points):
                v1, _ = evaluate_discrete(space, coeffs, pt, side=1)
                v2, _ = evaluate_discrete(space, coeffs, pt, side=2)
                assert v1 - v2 == pytest.approx(jump_asm[q], abs=1e-12)


def test_auto_side_on_interface_raises():
    from ipfem.geometry import OnInterface

    mesh = build_mesh(BIUNIT, 8, 8)
    curve = Circle(0.0, 0.0, 0.6)
    top = classify_elements(mesh, curve)
    space = build_doubled_space(build_dof_map(mesh, 1), top)
    pt = curve.point(0.3)
    with pytest.raises(OnInterface):
        evaluate_discrete(space, np.zeros(space.n_unknowns), pt, side="auto")
