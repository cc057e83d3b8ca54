import numpy as np
import pytest

from ipfem.fe_space import (
    InactiveEvaluation,
    _grid_dissection,
    build_basis,
    build_dof_map,
    build_doubled_space,
    evaluate_discrete,
    shape_1d,
)
from ipfem.geometry import Circle, classify_elements
from ipfem.mesh import Rectangle, build_mesh, element_map
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
    assert np.max(np.abs(grads[:, 0] - gx)) < 1e-7
    assert np.max(np.abs(grads[:, 1] - gy)) < 1e-7


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
            center, half = element_map(mesh, e)
            xi, eta = (np.array([x_edge, y]) - center) / half
            v = basis.values(np.atleast_1d(xi), np.atleast_1d(eta))[0]
            vals.append(float(v @ coeffs[dm.element_dofs[e]]))
        assert vals[0] == pytest.approx(vals[1], abs=1e-12)
    # horizontal edge between elements 1 and 4
    xs = rng.uniform(-1 / 3, 1 / 3, 10)
    y_edge = mesh.domain.y0 + mesh.dy
    for x in xs:
        vals = []
        for e in (1, 4):
            center, half = element_map(mesh, e)
            xi, eta = (np.array([x, y_edge]) - center) / half
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


@pytest.mark.parametrize("p", [1, 2, 3])
def test_only_degree_one_spaces_carry_an_elimination_order(p):
    mesh = build_mesh(BIUNIT, 8, 8)
    space = build_doubled_space(build_dof_map(mesh, p), classify_elements(mesh, Circle(0.0, 0.0, 0.6)))
    if p == 1:
        assert space.order is not None
    else:
        assert space.order is None


ORDER_MESHES = [(16, 16, Circle(0.0, 0.0, 0.6)), (13, 9, Circle(0.1, 0.0, 0.5)), (8, 8, Circle(0.0, 0.0, 50.0))]


@pytest.mark.parametrize("nx, ny, curve", ORDER_MESHES)
def test_elimination_order_is_a_permutation_of_the_unknowns(nx, ny, curve):
    mesh = build_mesh(BIUNIT, nx, ny)
    space = build_doubled_space(build_dof_map(mesh, 1), classify_elements(mesh, curve))
    assert space.order.dtype.kind == "i"
    assert np.array_equal(np.sort(space.order), np.arange(space.n_unknowns))


def _recursive_dissection(mesh, dofs):
    """Nested dissection of the unknowns at the vertex DOFs ``dofs`` by
    recursion over boxes of interior vertex lines: split on the middle line
    of the longer side (x on a tie), down to boxes of one element, emitting
    [lower half, upper half, separator]."""
    pos = (dofs % (mesh.nx + 1), dofs // (mesh.nx + 1))
    out = []

    def visit(ids, box):
        axis = 1 if box[1][1] - box[1][0] > box[0][1] - box[0][0] else 0
        lo, hi = box[axis]
        if hi - lo < 2:
            out.extend(ids)
            return
        mid = (lo + hi) // 2
        c = pos[axis][ids]
        for part, bounds in ((c < mid, (lo, mid - 1)), (c > mid, (mid + 1, hi))):
            sub = list(box)
            sub[axis] = bounds
            visit(ids[part], sub)
        out.extend(ids[c == mid])

    visit(np.arange(len(dofs)), [(1, mesh.nx - 1), (1, mesh.ny - 1)])
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize("nx, ny, curve", ORDER_MESHES)
def test_elimination_order_matches_recursive_dissection(nx, ny, curve):
    mesh = build_mesh(BIUNIT, nx, ny)
    space = build_doubled_space(build_dof_map(mesh, 1), classify_elements(mesh, curve))
    assert np.array_equal(space.order, _recursive_dissection(mesh, np.nonzero(space.active)[1]))


@pytest.mark.parametrize("nx", range(2, 65))
def test_grid_dissection_matches_recursive_dissection_on_every_grid_size(nx):
    # two copies of the interior vertices, copy 2 missing about a third of
    # them, numbered copy-major like a doubled space's unknowns; square and
    # non-square grids, ny above and below nx
    rng = np.random.default_rng(nx)
    for ny in sorted({nx, max(1, nx // 3), nx + 5}):
        mesh = build_mesh(BIUNIT, nx, ny)
        x, y = np.meshgrid(np.arange(1, nx), np.arange(1, ny))
        interior = (y * (nx + 1) + x).ravel()
        dofs = np.concatenate([interior, interior[rng.random(interior.size) < 0.65]])
        want = _recursive_dissection(mesh, dofs)
        got = _grid_dissection(mesh, dofs)
        assert got.dtype.kind == "i" and np.array_equal(got, want), (nx, ny)
