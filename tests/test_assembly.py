import dataclasses
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from ipfem.assembly import (
    ElementGroup,
    PenaltyParams,
    _T,
    Problem,
    _csr,
    _evaluate,
    _stiffness_pattern,
    _trace_patterns,
    _vector,
    assemble,
    assemble_interface,
    assemble_J0,
    assemble_J1,
    assemble_load,
    assemble_volume,
    build_plan,
    segment_trace_operators,
)
from ipfem.cases import DOMAIN, catalog
from ipfem.errors import _squared_parts, compute_errors, energy_norm_squared
from ipfem.fe_space import build_dof_map, build_doubled_space
from ipfem.geometry import Circle, Ellipse, InterfaceCurve, InterfaceSegment, VerticalLine, classify_elements
from ipfem.mesh import Rectangle, build_mesh, element_map
from ipfem.quadrature import cut_cell_rule, cut_order, pass_order, segment_npoints, segment_rule, tensor_gauss

from helpers import build_pipeline

BIUNIT = Rectangle(-1.0, -1.0, 1.0, 1.0)
UNIT = Rectangle(0.0, 0.0, 1.0, 1.0)


def _const(v):
    return lambda x, y: v * np.ones_like(np.asarray(x, dtype=float))


def _one_sided_space(mesh, p):
    top = classify_elements(mesh, Circle(0.0, 0.0, 50.0))
    return build_doubled_space(build_dof_map(mesh, p), top), top


def test_penalty_params_validation():
    with pytest.raises(ValueError):
        PenaltyParams(beta=2, gamma0=1.0, gamma1=1.0, p=1)
    with pytest.raises(ValueError):
        PenaltyParams(beta=1, gamma0=-1.0, gamma1=1.0, p=1)
    # nan passes a "< 0" check; it made a matrix of nan entries that the solve
    # reported as exactly singular
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            PenaltyParams(beta=1, gamma0=bad, gamma1=1.0, p=1)
        with pytest.raises(ValueError, match="finite"):
            PenaltyParams(beta=1, gamma0=1.0, gamma1=bad, p=1)


def test_problem_is_frozen():
    # assemble keys its kept parts on the Problem object: a coefficient
    # swapped in place under that key once returned the old system's blocks
    case, p = catalog()["circle-jump"], 2
    space, top = _scan_space(case, p, 8)
    assemble(space, top, case.problem, PenaltyParams(1, 10.0, 1.0, p))
    with pytest.raises(dataclasses.FrozenInstanceError):
        case.problem.a = (case.problem.a[1], case.problem.a[0])


def test_problem_validate_catches_bad_data():
    case = catalog()["circle-jump"]
    case.problem.validate(case.curve)
    broken = Problem(
        a=case.problem.a,
        f=case.problem.f,
        g_d=lambda t: case.problem.g_d(t) + 1e-3,
        g_n=case.problem.g_n,
        exact=case.problem.exact,
        exact_grad=case.problem.exact_grad,
    )
    with pytest.raises(ValueError):
        broken.validate(case.curve)


def test_empty_system_on_single_cell():
    mesh = build_mesh(UNIT, 1, 1)
    space, top = _one_sided_space(mesh, 1)
    assert space.n_unknowns == 0
    problem = Problem(a=(_const(1.0), _const(1.0)), f=(_const(1.0), _const(1.0)))
    mat = assemble_volume(build_plan(space, top, 3, 1), problem)
    assert mat.shape == (0, 0)


def test_center_stiffness_diagonal():
    mesh = build_mesh(UNIT, 2, 2)
    space, top = _one_sided_space(mesh, 1)
    assert space.n_unknowns == 1
    problem = Problem(a=(_const(1.0), _const(1.0)), f=(_const(0.0), _const(0.0)))
    plan = build_plan(space, top, 3, 1)
    mat = assemble_volume(plan, problem)
    assert mat[0, 0] == pytest.approx(8.0 / 3.0, rel=1e-13)
    mat2 = assemble_volume(plan, Problem(a=(_const(2.0), _const(2.0)), f=problem.f))
    assert np.allclose(mat2.toarray(), 2.0 * mat.toarray(), rtol=1e-13)


def test_center_load_entry():
    # hand value: the global tensor hat integrates to (1/2)*(1/2) = 1/4
    mesh = build_mesh(UNIT, 2, 2)
    space, top = _one_sided_space(mesh, 1)
    problem = Problem(a=(_const(1.0), _const(1.0)), f=(_const(1.0), _const(1.0)))
    params = PenaltyParams(beta=1, gamma0=1.0, gamma1=1.0, p=1)
    terms = assemble_load(build_plan(space, top, 3, params.p), problem, params.beta)
    load = assemble(space, top, problem, params, quad_order=3).load
    assert load[0] == pytest.approx(0.25, rel=1e-13)
    assert np.allclose(terms["gn_avg"], 0.0)


def test_zero_data_zero_load():
    case = catalog()["circle-jump"]
    mesh = build_mesh(BIUNIT, 8, 8)
    top = classify_elements(mesh, case.curve)
    space = build_doubled_space(build_dof_map(mesh, 1), top)
    problem = Problem(a=case.problem.a, f=(_const(0.0), _const(0.0)))
    params = PenaltyParams(beta=1, gamma0=5.0, gamma1=1.0, p=1)
    terms = assemble_load(build_plan(space, top, 3, params.p), problem, params.beta)
    assert all(np.all(term == 0.0) for term in terms.values())
    assert np.all(assemble(space, top, problem, params, quad_order=3).load == 0.0)


def _hand_stencil(beta, g0, g1):
    """2x2 interface matrix for the center hat pair on a 2x2 mesh of (-1,1)^2
    with the interface on x=0, a=1 and p=1 (hand-assembled)."""
    root2 = np.sqrt(2.0)
    diag = 4.0 / 3.0 - (1.0 + beta) / 3.0 + root2 * g0 / 3.0 + 2.0 * root2 * g1 / 3.0
    off = (1.0 + beta) / 3.0 - root2 * g0 / 3.0 + 2.0 * root2 * g1 / 3.0
    return np.array([[diag, off], [off, diag]])


@pytest.mark.parametrize("beta", [1, -1])
def test_edge_aligned_hand_stencil(beta):
    mesh = build_mesh(BIUNIT, 2, 2)
    top = classify_elements(mesh, VerticalLine(0.0, -1.0, 1.0))
    space = build_doubled_space(build_dof_map(mesh, 1), top)
    assert space.n_unknowns == 2
    problem = Problem(a=(_const(1.0), _const(1.0)), f=(_const(0.0), _const(0.0)))
    g0, g1 = 3.7, 0.9
    params = PenaltyParams(beta=beta, gamma0=g0, gamma1=g1, p=1)
    system = assemble(space, top, problem, params, quad_order=4)
    assert np.allclose(system.matrix.toarray(), _hand_stencil(beta, g0, g1), atol=1e-13)


def test_sip_symmetry_on_all_cases():
    for name in ("circle-jump", "aligned-edge", "smooth-nojump"):
        case = catalog()[name]
        for p in (1, 2):
            _, _, _, _, system = build_pipeline(case, p, 8, beta=1)
            a = system.matrix
            asym = abs(a - a.T).max()
            assert asym <= 1e-12 * abs(a).max()


def test_nip_energy_identity_small():
    case = catalog()["circle-jump"]
    _, top, space, params, system = build_pipeline(case, 2, 8, beta=-1, gamma0=1.0, gamma1=1.0)
    rng = np.random.default_rng(42)
    for _ in range(10):
        v = rng.standard_normal(space.n_unknowns)
        quad_form = float(v @ (system.matrix @ v))
        norm_sq = energy_norm_squared(space, top, case.problem, params, v)
        assert abs(quad_form - norm_sq) <= 1e-9 * norm_sq


def test_nip_sip_difference_is_adjoint_term():
    case = catalog()["smooth-nojump"]
    mesh = build_mesh(BIUNIT, 8, 8)
    top = classify_elements(mesh, case.curve)
    space = build_doubled_space(build_dof_map(mesh, 2), top)
    quad_order = 4
    plan = build_plan(space, top, quad_order, 2)
    sip = assemble_interface(plan, case.problem, 1)
    nip = assemble_interface(plan, case.problem, -1)
    adj = np.zeros((space.n_unknowns, space.n_unknowns))
    for seg in top.segments:
        rule = segment_rule(seg, case.curve, segment_npoints(quad_order, 2))
        tr = segment_trace_operators(space, case.problem, seg, rule)
        local = (tr.avg_flux.T * rule.weights) @ tr.jump  # B^T with B = J^T W A
        idx = tr.joint_idx
        ok = idx >= 0
        adj[np.ix_(idx[ok], idx[ok])] += local[np.ix_(ok, ok)]
    assert np.allclose((nip - sip).toarray(), 2.0 * adj, atol=1e-12)


def test_continuous_function_annihilated():
    case = catalog()["smooth-nojump"]
    mesh = build_mesh(BIUNIT, 8, 8)
    top = classify_elements(mesh, case.curve)
    space = build_doubled_space(build_dof_map(mesh, 2), top)
    quad_order = 4
    plan = build_plan(space, top, quad_order, 2)
    ifc = assemble_interface(plan, case.problem, 1)
    j0 = assemble_J0(plan)
    j1 = assemble_J1(plan, case.problem)
    rng = np.random.default_rng(3)

    def continuous_vector():
        g = rng.standard_normal(space.dofmap.n_dofs)
        v = np.zeros(space.n_unknowns)
        for side in (1, 2):
            idx = space.unknown_of[side - 1]
            ok = idx >= 0
            v[idx[ok]] = g[ok]
        return v

    scale = abs(ifc).max()
    # the consistency terms pair a jump with a flux average; both vanish only
    # when trial AND test are continuous with continuous flux
    for _ in range(5):
        v = continuous_vector()
        w = continuous_vector()
        assert abs(w @ (ifc @ v)) <= 1e-11 * max(scale, 1.0) * np.linalg.norm(v) * np.linalg.norm(w)
        assert abs(v @ (j0 @ v)) <= 1e-11 * max(1.0, abs(j0).max()) * float(v @ v)
        assert abs(v @ (j1 @ v)) <= 1e-11 * max(1.0, abs(j1).max()) * float(v @ v)


def test_j0_scaling_and_independence():
    case = catalog()["circle-jump"]
    mesh = build_mesh(BIUNIT, 8, 8)
    top = classify_elements(mesh, case.curve)
    space = build_doubled_space(build_dof_map(mesh, 2), top)
    # assemble's J0 and J1 blocks are the weights times the unit blocks
    p0 = PenaltyParams(beta=1, gamma0=0.0, gamma1=0.0, p=2)
    zero = assemble(space, top, case.problem, p0).blocks
    assert abs(zero["j0"]).max() == 0.0
    assert abs(zero["j1"]).max() == 0.0
    p1 = PenaltyParams(beta=1, gamma0=2.0, gamma1=1.0, p=2)
    p2 = PenaltyParams(beta=1, gamma0=4.0, gamma1=1.0, p=2)
    j0a = assemble(space, top, case.problem, p1).blocks["j0"]
    j0b = assemble(space, top, case.problem, p2).blocks["j0"]
    unit = assemble_J0(build_plan(space, top, pass_order(2), 2))
    assert np.array_equal((p1.j0_weight(mesh.h) * unit).toarray(), j0a.toarray())
    assert np.allclose(j0b.toarray(), 2.0 * j0a.toarray(), rtol=1e-13)
    # quadratic form against an independently quadratured value
    rng = np.random.default_rng(9)
    v = rng.standard_normal(space.n_unknowns)
    quad_form = float(v @ (j0a @ v))
    indep = 0.0
    for seg in top.segments:
        rule = segment_rule(seg, case.curve, 12)
        tr = segment_trace_operators(space, case.problem, seg, rule)
        c1 = space.gather(v, seg.element, 1)
        c2 = space.gather(v, seg.neighbor if seg.on_edge else seg.element, 2)
        jump = tr.vals1 @ c1 - tr.vals2 @ c2
        h_e = mesh.h
        indep += p1.gamma0 * p1.p**2 / h_e * float(rule.weights @ jump**2)
    assert quad_form == pytest.approx(indep, rel=1e-11)


def test_average_identity_at_quadrature_points():
    case = catalog()["circle-jump"]
    mesh = build_mesh(BIUNIT, 8, 8)
    top = classify_elements(mesh, case.curve)
    space = build_doubled_space(build_dof_map(mesh, 2), top)
    rng = np.random.default_rng(12)
    for trial in range(20):
        v = rng.standard_normal(space.n_unknowns)
        for seg in top.segments:
            rule = segment_rule(seg, case.curve, 6)
            tr = segment_trace_operators(space, case.problem, seg, rule)
            c1 = space.gather(v, seg.element, 1)
            c2 = space.gather(v, seg.neighbor if seg.on_edge else seg.element, 2)
            f1 = tr.flux1 @ c1
            f2 = tr.flux2 @ c2
            avg = 0.5 * (f1 + f2)
            jump = f1 - f2
            ie = seg.analysis_side
            f_ie = f1 if ie == 1 else f2
            rhs = f_ie + ((-1.0) ** ie / 2.0) * jump
            scale = max(1.0, np.max(np.abs(avg)))
            assert np.max(np.abs(avg - rhs)) <= 1e-12 * scale


def test_mask_soundness_no_zero_rows():
    case = catalog()["circle-jump"]
    _, _, space, _, system = build_pipeline(case, 2, 8)
    a = system.matrix.tocsr()
    row_max = np.array(
        [np.max(np.abs(a.data[a.indptr[i] : a.indptr[i + 1]]), initial=0.0) for i in range(a.shape[0])]
    )
    assert np.all(row_max > 0.0)
    col_max = np.array(
        [np.max(np.abs(c.data), initial=0.0) for c in a.T.tocsr()[np.arange(a.shape[0])]]
    )
    assert np.all(col_max > 0.0)


def test_penalty_blocks_positive_semidefinite():
    case = catalog()["circle-jump"]
    _, _, _, _, system = build_pipeline(case, 2, 8)
    rng = np.random.default_rng(21)
    for name in ("j0", "j1"):
        block = system.blocks[name]
        for _ in range(50):
            v = rng.standard_normal(block.shape[0])
            assert float(v @ (block @ v)) >= -1e-10 * float(v @ v)


def test_consistency_residual_decreases():
    from helpers import interpolate_pair

    case = catalog()["smooth-nojump"]
    p = 2
    resid = []
    hs = []
    for nx in (8, 16, 32):
        mesh, top, space, params, system = build_pipeline(case, p, nx, beta=1, gamma0=20.0, gamma1=1.0)
        u_i = interpolate_pair(space, case.problem.exact)
        r = system.matrix @ u_i - system.load
        resid.append(float(np.linalg.norm(r)))
        hs.append(mesh.h)
    slope = np.polyfit(np.log(hs), np.log(resid), 1)[0]
    assert resid[0] > resid[1] > resid[2]
    assert slope >= p - 0.25


def _element_sides(space, top, quad_order):
    """Reference iteration, one element side at a time: physical points,
    weights and basis tables of every element side with positive area, from
    the rules of a plan of tensor order ``quad_order``."""
    mesh, basis = space.mesh, space.basis
    rule = tensor_gauss(quad_order)
    for e in range(mesh.n_elements):
        center, half = element_map(mesh, e)
        for side in (1, 2):
            if top.fractions[e, side - 1] <= 0.0:
                continue
            if top.labels[e] != 0:
                x, y = (center + half * rule.points).T
                w = rule.weights * float(half[0] * half[1])
            else:
                crule = cut_cell_rule(top, e, side, order=cut_order(quad_order, basis.p))
                x, y = crule.points[:, 0], crule.points[:, 1]
                w = crule.weights
            xi, eta = (x - center[0]) / half[0], (y - center[1]) / half[1]
            grads = basis.gradients(xi, eta) / half[:, None]
            yield e, side, x, y, w, basis.values(xi, eta), grads


def _rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("name", ["circle-jump", "aligned-edge", "smooth-nojump"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_batched_volume_and_load_match_element_loop(name, p):
    case = catalog()[name]
    problem = case.problem
    mesh, top, space, params, system = build_pipeline(case, p, 8)
    n = space.n_unknowns
    stiffness = np.zeros((n, n))
    source = np.zeros(n)
    for e, side, x, y, w, vals, grads in _element_sides(space, top, pass_order(p)):
        aw = np.asarray(problem.a[side - 1](x, y), dtype=float) * w
        fw = np.asarray(problem.f[side - 1](x, y), dtype=float) * w
        idx = space.element_unknowns(e, side)
        ok = idx >= 0
        local = np.einsum("q,qdl,qdm->lm", aw, grads, grads)
        stiffness[np.ix_(idx[ok], idx[ok])] += local[np.ix_(ok, ok)]
        source[idx[ok]] += (vals.T @ fw)[ok]
    assert _rel(system.blocks["volume"].toarray(), stiffness) <= 1e-13
    terms = assemble_load(build_plan(space, top, pass_order(p), p), problem, params.beta)
    assert _rel(terms["volume"], source) <= 1e-13


@pytest.mark.parametrize("name", ["circle-jump", "aligned-edge"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_batched_error_norms_match_element_loop(name, p):
    case = catalog()[name]
    problem = case.problem
    mesh, top, space, params, system = build_pipeline(case, p, 8)
    coeffs = np.random.default_rng(p).standard_normal(space.n_unknowns)
    l2_sq = h1_sq = 0.0
    for e, side, x, y, w, vals, grads in _element_sides(space, top, pass_order(p, errors=True)):
        local = space.gather(coeffs, e, side)
        gx, gy = problem.exact_grad[side - 1](x, y)
        guh = np.einsum("qdl,l->qd", grads, local)
        aq = np.asarray(problem.a[side - 1](x, y), dtype=float)
        l2_sq += float(w @ (problem.exact[side - 1](x, y) - vals @ local) ** 2)
        h1_sq += float((w * aq) @ ((gx - guh[:, 0]) ** 2 + (gy - guh[:, 1]) ** 2))
    report = compute_errors(space, top, problem, coeffs, params)
    assert report.l2 == pytest.approx(np.sqrt(l2_sq), rel=1e-13)
    assert report.h1_broken == pytest.approx(np.sqrt(h1_sq), rel=1e-13)


@pytest.mark.parametrize("name", ["circle-jump", "aligned-edge"])
def test_each_rule_is_built_once_per_pass(name, monkeypatch):
    import sys

    import ipfem.quadrature as quadrature

    cut_calls, segment_calls, batches, segment_batches = [], [], [], []
    real_cut, real_segment = quadrature.cut_cell_rule, quadrature.segment_rule

    def counted_cut(topology, element, side, order):
        # one (element, side, order) triple per rule, scalar or batched call
        batches.append(order)
        cut_calls.extend((int(e), int(s), order) for e, s in zip(np.atleast_1d(element), np.atleast_1d(side)))
        return real_cut(topology, element, side, order=order)

    def counted_segment(segment, curve, npoints):
        # one id per segment, single or batched call
        segment_batches.append(npoints)
        segment_calls.extend(id(s) for s in ([segment] if isinstance(segment, InterfaceSegment) else segment))
        return real_segment(segment, curve, npoints)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "ipfem":
            if getattr(module, "cut_cell_rule", None) is real_cut:
                monkeypatch.setattr(module, "cut_cell_rule", counted_cut)
            if getattr(module, "segment_rule", None) is real_segment:
                monkeypatch.setattr(module, "segment_rule", counted_segment)

    case = catalog()[name]
    p = 2
    mesh, top, space, params, system = build_pipeline(case, p, 8)
    sides = sorted((int(e), side) for e in top.cut_elements for side in (1, 2))
    segments = sorted(id(seg) for seg in top.segments)
    order = cut_order(pass_order(p), p)
    assert sorted(cut_calls) == [(e, side, order) for e, side in sides]
    assert sorted(segment_calls) == segments
    # one batched call per pass, none without cut elements
    assert batches == ([] if name == "aligned-edge" else [order])
    assert len(segment_batches) == 1

    cut_calls.clear()
    segment_calls.clear()
    batches.clear()
    segment_batches.clear()
    compute_errors(space, top, case.problem, np.zeros(space.n_unknowns), params)
    order = cut_order(pass_order(p, errors=True), p)
    assert sorted(cut_calls) == [(e, side, order) for e, side in sides]
    assert sorted(segment_calls) == segments
    assert batches == ([] if name == "aligned-edge" else [order])
    assert len(segment_batches) == 1


def _one_group_per_side(plan, space, top, quad_order):
    """``plan`` (of tensor order ``quad_order``) with every cut side in a
    group of its own, from one scalar ``cut_cell_rule`` call each at the
    plan's cut order, in the stacked plan's (side, node count) order and
    (element, side) order within it."""
    basis = space.basis
    groups = []
    for e in top.cut_elements:
        center, half = element_map(space.mesh, e)
        for side in (1, 2):
            crule = cut_cell_rule(top, int(e), side, cut_order(quad_order, basis.p))
            xi, eta = ((crule.points - center) / half).T
            groups.append(
                ElementGroup(
                    side=side,
                    x=crule.points[None, :, 0],
                    y=crule.points[None, :, 1],
                    w=crule.weights[None],
                    vals=basis.values(xi, eta)[None],
                    grads=(basis.gradients(xi, eta) / half[:, None])[None],
                    idx=space.element_unknowns(e, side)[None, :],
                )
            )
    groups.sort(key=lambda g: (g.side, g.w.shape[1]))  # stable: (element, side) within a key
    return replace(plan, groups=plan.groups[:2] + tuple(groups))


@pytest.mark.parametrize("name", ["circle-jump", "smooth-nojump"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_stacked_cut_groups_match_one_group_per_side(name, p):
    case = catalog()[name]
    mesh, top, space, params, system = build_pipeline(case, p, 8)
    coeffs = np.random.default_rng(p).standard_normal(space.n_unknowns)
    for quad_order in (pass_order(p), pass_order(p, errors=True)):
        plan = build_plan(space, top, quad_order, p)
        assert len(plan.groups) <= 10
        ref = _one_group_per_side(plan, space, top, quad_order)
        got, want = assemble_volume(plan, case.problem), assemble_volume(ref, case.problem)
        for field in ("data", "indices", "indptr"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        load = assemble_load(plan, case.problem, params.beta)["volume"]
        assert load.tobytes() == assemble_load(ref, case.problem, params.beta)["volume"].tobytes()
        parts = _squared_parts(plan, case.problem, params, coeffs, exact=True)
        assert parts == _squared_parts(ref, case.problem, params, coeffs, exact=True)


# the benchmark's h-sweep seed-1 ellipse
SEED1_ELLIPSE = Ellipse(0.0023643249400513433, 0.09009273926518707, 0.49324788381589013, 0.7067521161841098)


# an ellipse whose cut rules at nx = 27 take the strip fallback on two sides
STRIP_ELLIPSE = Ellipse(-1.087053655260406e-05, 0.09763899171305929, 0.7736961651870667, 0.10419894914740759)


@pytest.mark.parametrize("which", ["seed1-ellipse-32", "seed1-ellipse-64", "seed1-ellipse-128", "strip-ellipse-27"])
def test_plan_cut_groups_are_the_scalar_rules_stacked(which):
    # the plan's cut groups, taken by index from one stacked batch, hold
    # bitwise the points and weights of one scalar cut_cell_rule call per
    # positive cut side, grouped by (side, node count) in that order and in
    # (element, side) order within a group
    curve, nx = {
        "seed1-ellipse-32": (SEED1_ELLIPSE, 32),
        "seed1-ellipse-64": (SEED1_ELLIPSE, 64),
        "seed1-ellipse-128": (SEED1_ELLIPSE, 128),
        "strip-ellipse-27": (STRIP_ELLIPSE, 27),
    }[which]
    mesh = build_mesh(BIUNIT if which.startswith("strip") else DOMAIN, nx, nx)
    top = classify_elements(mesh, curve)
    space = build_doubled_space(build_dof_map(mesh, 1), top)
    for errors in (False, True):
        quad_order = pass_order(1, errors=errors)
        rules = [
            cut_cell_rule(top, int(e), side, cut_order(quad_order, 1))
            for e in top.cut_elements
            for side in (1, 2)
        ]
        keys = sorted({(r.side, len(r.weights)) for r in rules})
        groups = build_plan(space, top, quad_order, 1).groups[2:]
        assert [(g.side, g.w.shape[1]) for g in groups] == keys
        for g, key in zip(groups, keys):
            want = [r for r in rules if (r.side, len(r.weights)) == key]
            points = np.stack([r.points for r in want])
            assert g.x.tobytes() == np.ascontiguousarray(points[..., 0]).tobytes()
            assert g.y.tobytes() == np.ascontiguousarray(points[..., 1]).tobytes()
            assert g.w.tobytes() == np.stack([r.weights for r in want]).tobytes()
            idx = space.element_unknowns(np.array([r.element for r in want]), key[0])
            assert np.array_equal(g.idx, idx)


def _side_matrices(basis, half, points, weights, centers) -> tuple:
    """Mass and stiffness (E, n_loc, n_loc) of each cut side from its nodes
    (E, q, 2) and weights (E, q), the element centres (E, 2) and half sizes."""
    ref = (points - centers[:, None, :]) / half
    vals = basis.values(ref[..., 0].ravel(), ref[..., 1].ravel()).reshape(ref.shape[:2] + (-1,))
    grads = basis.gradients(ref[..., 0].ravel(), ref[..., 1].ravel()) / half[:, None]
    grads = grads.reshape(ref.shape[:2] + grads.shape[1:])
    w = weights[..., None]
    mass = _T(vals) @ (w * vals)
    return mass, sum(_T(grads[..., d, :]) @ (w * grads[..., d, :]) for d in (0, 1))


@pytest.mark.parametrize("which", ["circle-jump-8", "circle-jump-16", "seed1-ellipse-16"])
def test_plan_cut_rules_integrate_the_cut_side_mass_and_stiffness_to_round_off(which):
    # a cut sub-cell is a blended map of the unit square, so the Q_2p mass
    # and stiffness reach degree 4p per reference axis; the plan's cut rules
    # of order q + p integrate them to round-off: at most 7.8e-14 relative
    # against order 2p + 12.  Rules of the tensor order q alone were off by
    # 1.1e-11 at p = 1 (circle-jump, nx = 8) and by 1.5e-3 at p = 8.
    curve, nx = {
        "circle-jump-8": (catalog()["circle-jump"].curve, 8),
        "circle-jump-16": (catalog()["circle-jump"].curve, 16),
        "seed1-ellipse-16": (SEED1_ELLIPSE, 16),
    }[which]
    mesh = build_mesh(DOMAIN, nx, nx)
    top = classify_elements(mesh, curve)
    cut = top.cut_elements
    elems, sides = np.repeat(cut, 2), np.tile([1, 2], len(cut))
    centers, half = element_map(mesh, elems)
    for p in range(1, 9):
        space = build_doubled_space(build_dof_map(mesh, p), top)
        want = {}
        for e, s, rule, c in zip(elems, sides, cut_cell_rule(top, elems, sides, 2 * p + 12), centers):
            mass, stiffness = _side_matrices(space.basis, half, rule.points[None], rule.weights[None], c[None])
            want[int(e), int(s)] = (mass[0], stiffness[0])
        for errors in (False, True):
            plan = build_plan(space, top, pass_order(p, errors=errors), p)
            seen = []
            for g in plan.groups[2:]:
                points = np.stack([g.x, g.y], axis=-1)
                at = mesh.locate(*(np.sum(g.w[..., None] * points, axis=1) / g.w.sum(axis=1)[:, None]).T)
                got = _side_matrices(space.basis, half, points, g.w, element_map(mesh, at)[0])
                for k, e in enumerate(at.tolist()):
                    seen.append((e, g.side))
                    # the assembly pass integrates the stiffness, the error
                    # pass both the L2 (mass) and the H1 (stiffness) terms
                    for m in ((0, 1) if errors else (1,)):
                        ref = want[e, g.side][m]
                        rel = np.max(np.abs(got[m][k] - ref)) / np.max(np.abs(ref))
                        assert rel <= 1e-12, (p, errors, e, g.side, m, rel)
            assert sorted(seen) == sorted(want)


def _canonical(a):
    """has_canonical_format checked on the arrays, not read from a cached flag."""
    return sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape).has_canonical_format


@pytest.mark.parametrize("k", [0, 40])
def test_csr_and_vector_match_dense_accumulation(k):
    rng = np.random.default_rng(11)
    n, m = 13, 5
    idx = rng.integers(-1, n, size=(k, m))
    mats = rng.standard_normal((k, m, m))
    vecs = rng.standard_normal((k, m))
    if k:
        kept = idx[idx >= 0]
        assert (idx < 0).any() and len(np.unique(kept)) < len(kept)

    rows = np.broadcast_to(idx[:, :, None], mats.shape)
    cols = np.broadcast_to(idx[:, None, :], mats.shape)
    ok = (rows >= 0) & (cols >= 0)
    dense = np.zeros((n, n))
    np.add.at(dense, (rows[ok], cols[ok]), mats[ok])
    a = _csr(idx, mats, n)
    assert a.shape == (n, n) and _canonical(a)
    np.testing.assert_allclose(a.toarray(), dense, rtol=0, atol=1e-15 * np.abs(dense).max(initial=0.0))

    # two chunks in one conversion: the first half's elements at the local
    # positions ``sub`` only, the second half's at their full clique
    sub = np.zeros((m, m), dtype=bool)
    sub.flat[rng.choice(m * m, 9, replace=False)] = True
    half = k // 2
    mask = ok & (sub | (np.arange(k) >= half)[:, None, None])
    mixed = np.zeros((n, n))
    np.add.at(mixed, (rows[mask], cols[mask]), mats[mask])
    got = _csr([idx[:half], idx[half:]], [mats[:half][:, sub], mats[half:]], n, [np.nonzero(sub), None])
    assert got.shape == (n, n) and _canonical(got)
    np.testing.assert_allclose(got.toarray(), mixed, rtol=0, atol=1e-15 * np.abs(mixed).max(initial=0.0))

    ref = np.zeros(n)
    np.add.at(ref, idx[idx >= 0], vecs[idx >= 0])
    got = _vector(idx, vecs, n)
    assert got.shape == (n,) and np.array_equal(got.view(np.int64), ref.view(np.int64))


def _expand_then_mask_csr(idx, local, n, pairs):
    """``_csr`` as expand -> concatenate -> mask -> convert: every chunk's
    (row, col, value) triplets, -1 ids included, are concatenated first and
    the kept ones are then copied out by one mask."""
    rows, cols = [], []
    for chunk, at in zip(idx, pairs):
        chunk = chunk.astype(np.int32)
        if at is None:
            m = chunk.shape[1]
            rows.append(np.repeat(chunk, m, axis=1).ravel())
            cols.append(np.tile(chunk, (1, m)).ravel())
        else:
            rows.append(chunk[:, at[0]].ravel())
            cols.append(chunk[:, at[1]].ravel())
    rows, cols, data = (np.concatenate(c) for c in (rows, cols, [v.ravel() for v in local]))
    keep = (rows >= 0) & (cols >= 0)
    return sp.coo_matrix((data[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()


def _no_segment_chunk():
    """The (0, 2m) joint ids of a p = 2 plan whose curve misses the domain."""
    mesh = build_mesh(BIUNIT, 8, 8)
    top = classify_elements(mesh, Circle(3.0, 3.0, 0.5))
    space = build_doubled_space(build_dof_map(mesh, 2), top)
    plan = build_plan(space, top, 4, 2)
    assert not top.segments and plan.traces.joint_idx.shape == (0, 18)
    return plan.traces.joint_idx, plan.n


@pytest.mark.parametrize("chunks", ["full", "stiffness-pattern", "trace-pattern", "mixed", "no-segment"])
def test_csr_is_bitwise_the_expand_then_mask_conversion(chunks):
    # dropping the -1 ids chunk by chunk keeps the triplet order, so scipy's
    # conversion sums every duplicate in the same order
    rng = np.random.default_rng(5)
    n = 40

    def chunk(k, m, at=None):
        ids = rng.integers(-1, n, size=(k, m))
        ids[rng.random((k, m)) < 0.2] = -1
        shape = (k, m, m) if at is None else (k, len(at[0]))
        return ids, rng.standard_normal(shape), at

    if chunks == "no-segment":
        empty, n = _no_segment_chunk()
        parts = [(empty, np.zeros((0, 18, 18)), None)]
    else:
        stiffness, trace = _stiffness_pattern(3), _trace_patterns(2, 0, True)["j1"]
        parts = {
            "full": [chunk(30, 6)],
            "stiffness-pattern": [chunk(30, 16, stiffness)],
            "trace-pattern": [chunk(30, 18, trace)],
            "mixed": [chunk(20, 16, stiffness), chunk(15, 18, trace), chunk(0, 18), chunk(25, 18), chunk(10, 16)],
        }[chunks]
        assert all((ids < 0).any() for ids, _, _ in parts if ids.size)
    idx, local, pairs = (list(c) for c in zip(*parts))
    want = _expand_then_mask_csr(idx, local, n, pairs)
    got = [_csr(idx, local, n, pairs)]
    if len(idx) == 1:  # the single-chunk call without lists
        got.append(_csr(idx[0], local[0], n, pairs[0]))
    for a in got:
        assert a.shape == want.shape == (n, n)
        for part in ("data", "indices", "indptr"):
            assert getattr(a, part).tobytes() == getattr(want, part).tobytes(), part


@pytest.mark.parametrize("name", ["circle-jump", "aligned-edge"])
def test_assembled_matrices_are_canonical_csr(name):
    # assemble() sums the blocks without a conversion on the strength of this
    *_, system = build_pipeline(catalog()[name], 2, 8)
    assert all(_canonical(b) for b in system.blocks.values())
    assert _canonical(system.matrix)


def _full_volume(plan, problem, monkeypatch):
    """``assemble_volume`` with every group scattering its whole element clique."""
    import ipfem.assembly as assembly

    with monkeypatch.context() as m:
        m.setattr(assembly, "_stiffness_pattern", lambda p: None)
        return assemble_volume(plan, problem)


# perfbench's p-sweep seed-0 input: the interface on mesh line 11 of the
# nx = 16 mesh, a = (1, 10)
PSWEEP_SEED0 = (VerticalLine(0.375, -1.0, 1.0), Problem(a=(_const(1.0), _const(10.0)), f=(_const(0.0), _const(0.0))))


@pytest.mark.parametrize("name", ["circle-jump", "aligned-edge", "smooth-nojump", "p-sweep-seed0"])
def test_volume_block_omits_only_round_off(name, monkeypatch):
    if name == "p-sweep-seed0":
        (curve, problem), nx, degrees = PSWEEP_SEED0, 16, range(2, 9)
    else:
        curve, problem, nx, degrees = catalog()[name].curve, catalog()[name].problem, 8, range(1, 9)
    mesh = build_mesh(DOMAIN, nx, nx)
    top = classify_elements(mesh, curve)
    for p in degrees:
        space = build_doubled_space(build_dof_map(mesh, p), top)
        plan = build_plan(space, top, pass_order(p), p)
        got, full = assemble_volume(plan, problem), _full_volume(plan, problem, monkeypatch)
        if name == "smooth-nojump" or p == 1:
            # a varies within the elements, or the pattern is the full clique
            for field in ("data", "indices", "indptr"):
                assert getattr(got, field).tobytes() == getattr(full, field).tobytes()
            continue
        assert got.nnz < full.nnz
        # every stored entry is one of the full assembly's, and every omitted
        # or changed entry is round-off against its diagonal
        stored = [sp.csr_matrix((np.ones(a.nnz), a.indices, a.indptr), shape=a.shape) for a in (got, full)]
        assert (stored[0] + stored[1]).nnz == full.nnz
        diff = (full - got).tocoo()
        diag = np.abs(full.diagonal())
        assert np.all(np.abs(diff.data) <= 1e-13 * np.sqrt(diag[diff.row] * diag[diff.col]))


def _trace_blocks(plan, problem, params):
    """The interface block, and J0 and J1 at the weights of ``params``."""
    return {
        "interface": assemble_interface(plan, problem, params.beta),
        "j0": params.j0_weight(plan.h) * assemble_J0(plan),
        "j1": params.j1_weight(plan.h) * assemble_J1(plan, problem),
    }


class _HorizontalLine(InterfaceCurve):
    """Open straight interface y = y0 across the domain, run left to right;
    side 1 is y > y0, so the copy-1 host sits above each edge."""

    closed, period, name = False, 2.0, "hline"

    def __init__(self, y0):
        self.y0 = y0

    def coordinate(self, t, axis):
        t = np.asarray(t, dtype=float)
        return -1.0 + t if axis == 0 else np.full_like(t, self.y0)

    def tangent_coordinate(self, t, axis):
        t = np.asarray(t, dtype=float)
        return np.ones_like(t) if axis == 0 else np.zeros_like(t)

    def signed_distance(self, x, y):
        return self.y0 - np.asarray(y, dtype=float) + 0.0 * np.asarray(x)

    def distance_gradient(self, x, y):
        z = 0.0 * (np.asarray(x) + np.asarray(y))
        return z, z - 1.0


@pytest.mark.parametrize("beta", [1, -1])
@pytest.mark.parametrize("name", ["circle-jump", "aligned-edge", "p-sweep-seed0", "horizontal"])
def test_trace_blocks_omit_only_round_off(name, beta, monkeypatch):
    if name == "p-sweep-seed0":
        (curve, problem), nx, degrees = PSWEEP_SEED0, 16, range(2, 9)
    elif name == "horizontal":
        curve, problem, nx, degrees = _HorizontalLine(-0.25), PSWEEP_SEED0[1], 8, range(1, 9)
    else:
        curve, problem, nx, degrees = catalog()[name].curve, catalog()[name].problem, 8, range(1, 9)
    mesh = build_mesh(DOMAIN, nx, nx)
    top = classify_elements(mesh, curve)
    for p in degrees:
        space = build_doubled_space(build_dof_map(mesh, p), top)
        plan = build_plan(space, top, pass_order(p), p)
        full_plan = replace(plan, edge_groups=())
        params = PenaltyParams(beta, 10.0, 1.0, p)
        got, full = _trace_blocks(plan, problem, params), _trace_blocks(full_plan, problem, params)
        if name == "circle-jump":
            # no segment on a mesh edge: every block is the full-clique one
            assert plan.edge_groups == ()
            for key in full:
                for field in ("data", "indices", "indptr"):
                    assert getattr(got[key], field).tobytes() == getattr(full[key], field).tobytes()
            continue
        assert sum(len(segs) for segs, _ in plan.edge_groups) == len(top.segments)
        diag = np.abs((_full_volume(full_plan, problem, monkeypatch) + sum(full.values())).diagonal())
        for key in full:
            if not (key == "j1" and p <= 2):  # M_1, and so the J1 pattern, is full
                assert got[key].nnz < full[key].nnz
            # every stored entry is one of the full block's, and every omitted
            # or changed entry is round-off against the full matrix's diagonal
            stored = [sp.csr_matrix((np.ones(a.nnz), a.indices, a.indptr), shape=a.shape) for a in (got[key], full[key])]
            assert (stored[0] + stored[1]).nnz == full[key].nnz
            diff = (full[key] - got[key]).tocoo()
            assert np.all(np.abs(diff.data) <= 1e-13 * np.sqrt(diag[diff.row] * diag[diff.col]))


class _NonAffineLine(VerticalLine):
    """x = 0 with y(t) = (2/3)(2^t - 1) - 1, t in [0, 2]: monotone, ending on
    the boundary, but not an affine map of t."""

    def __init__(self):
        super().__init__(0.0, -1.0, 1.0)

    def coordinate(self, t, axis):
        t = np.asarray(t, dtype=float)
        return np.zeros_like(t) if axis == 0 else (2.0 / 3.0) * (2.0**t - 1.0) - 1.0

    def tangent_coordinate(self, t, axis):
        t = np.asarray(t, dtype=float)
        return np.zeros_like(t) if axis == 0 else (2.0 / 3.0) * np.log(2.0) * 2.0**t


class _LeavingLine(InterfaceCurve):
    """x = -1e-17 up to y = 0.1, then x = -1e-17 + (y - 0.1)^3 / 2: on the
    mesh line x = 0 within round-off until it crosses it at y ~ 0.1 and
    bends into the elements on the right, so the last on-edge segment covers
    only [0, 0.1] of its edge."""

    closed, period, name = False, 2.0, "leaving"

    def coordinate(self, t, axis):
        y = -1.0 + np.asarray(t, dtype=float)
        return -1e-17 + 0.5 * np.maximum(y - 0.1, 0.0) ** 3 if axis == 0 else y

    def tangent_coordinate(self, t, axis):
        y = -1.0 + np.asarray(t, dtype=float)
        return 1.5 * np.maximum(y - 0.1, 0.0) ** 2 if axis == 0 else np.ones_like(y)

    def signed_distance(self, x, y):
        return np.asarray(x, dtype=float) + 1e-17 - 0.5 * np.maximum(np.asarray(y, dtype=float) - 0.1, 0.0) ** 3

    def distance_gradient(self, x, y):
        gx, gy = 1.0 + 0.0 * np.asarray(x), -1.5 * np.maximum(np.asarray(y, dtype=float) - 0.1, 0.0) ** 2
        n = np.hypot(gx, gy)
        return gx / n, gy / n


@pytest.mark.parametrize("curve", [Circle(0.05, -0.1, 0.6), Ellipse(0.1, -0.05, 0.55, 0.35),
                                   VerticalLine(0.1, -1.0, 1.0), _HorizontalLine(-0.25),
                                   _NonAffineLine(), _LeavingLine()], ids=lambda c: type(c).__name__)
def test_curve_coordinates_are_those_of_point_and_tangent(curve):
    # classification brackets crossings on point() and refines them on
    # coordinate() and tangent_coordinate(): the two must give the same floats
    t = np.linspace(0.0, curve.period, 1001)
    for axis in (0, 1):
        assert curve.coordinate(t, axis).tobytes() == np.ascontiguousarray(curve.point(t)[..., axis]).tobytes()
        assert curve.tangent_coordinate(t, axis).tobytes() == np.ascontiguousarray(curve.tangent(t)[..., axis]).tobytes()


@pytest.mark.parametrize("name", ["non-affine", "partial-edge"])
def test_trace_pattern_needs_an_exact_rule_on_the_whole_edge(name):
    mesh = build_mesh(DOMAIN, 8, 8)
    if name == "non-affine":
        curve = _NonAffineLine()
        top = classify_elements(mesh, curve)
        qualifying, inexact = [], list(range(8))
        # whole edges, ends on the grid lines: only the parametrisation disqualifies them
        ends = curve.point(np.array([[s.t_lo, s.t_hi] for s in top.segments]))[..., 1]
        assert np.abs(ends - (np.arange(8)[:, None] + [0, 1]) / 4 + 1).max() <= 1e-15
    else:
        # four whole edges below y = 0, then [0, 0.1] of the fifth, then cuts
        top = classify_elements(mesh, _LeavingLine())
        qualifying, inexact = [0, 1, 2, 3], [4]
        assert (top.segments[4].t_lo, top.segments[4].t_hi) == pytest.approx((1.0, 1.1), abs=1e-5)
        assert not top.segments[5].on_edge
    assert all(top.segments[k].on_edge for k in qualifying + inexact)
    problem = PSWEEP_SEED0[1]
    for p in (2, 5):
        space = build_doubled_space(build_dof_map(mesh, p), top)
        plan = build_plan(space, top, pass_order(p), p)
        assert sorted(k for segs, _ in plan.edge_groups for k in segs.tolist()) == qualifying
        idx = plan.traces.joint_idx
        # entries that a qualifying segment's clique touches
        touched = _csr(idx[qualifying], np.ones((len(qualifying),) + idx.shape[1:] * 2), space.n_unknowns)
        inexact_clique = _csr(idx[inexact], np.ones((len(inexact),) + idx.shape[1:] * 2), space.n_unknowns)
        params = PenaltyParams(-1, 10.0, 1.0, p)
        got = _trace_blocks(plan, problem, params)
        full = _trace_blocks(replace(plan, edge_groups=()), problem, params)
        for key in full:
            # the inexact segments' cliques are stored in full, and every
            # entry no qualifying clique touches has the full path's bits
            stored = sp.csr_matrix((np.ones(got[key].nnz), got[key].indices, got[key].indptr), shape=got[key].shape)
            assert (stored + inexact_clique).nnz == got[key].nnz
            diff = got[key] - full[key]
            assert (diff - diff.multiply(touched != 0)).count_nonzero() == 0


def test_trace_pattern_needs_a_constant_coefficient_along_the_edge():
    mesh = build_mesh(DOMAIN, 8, 8)
    top = classify_elements(mesh, VerticalLine(0.0, -1.0, 1.0))
    problem = Problem(a=(_const(1.0), lambda x, y: 2.0 + np.cos(y)), f=PSWEEP_SEED0[1].f)
    p = 4
    space = build_doubled_space(build_dof_map(mesh, p), top)
    plan = build_plan(space, top, pass_order(p), p)
    assert plan.edge_groups
    params = PenaltyParams(-1, 10.0, 1.0, p)
    got = _trace_blocks(plan, problem, params)
    full = _trace_blocks(replace(plan, edge_groups=()), problem, params)
    # a varying a enters the flux blocks' tangential integrals; J0 has no a
    for key in ("interface", "j1"):
        for field in ("data", "indices", "indptr"):
            assert getattr(got[key], field).tobytes() == getattr(full[key], field).tobytes()
    assert got["j0"].nnz < full["j0"].nnz


@pytest.mark.parametrize("name", ["circle-jump", "smooth-nojump"])
def test_segment_traces_carry_the_side_coefficients_that_scale_the_fluxes(name):
    case, p = catalog()[name], 3
    mesh = build_mesh(DOMAIN, 8, 8)
    top = classify_elements(mesh, case.curve)
    plan = build_plan(build_doubled_space(build_dof_map(mesh, p), top), top, pass_order(p), p)
    assert plan.traces.a is None
    tr = plan.segment_traces(case.problem)
    x, y = plan.rule.points[..., 0], plan.rule.points[..., 1]
    for a, fn, flux, unit in zip(tr.a, case.problem.a, (tr.flux1, tr.flux2), (plan.traces.flux1, plan.traces.flux2)):
        want = _evaluate(fn, x, y)
        assert a.shape == want.shape and a.tobytes() == want.tobytes()
        assert flux.tobytes() == (a[..., None] * unit).tobytes()


def test_each_pass_evaluates_the_coefficient_at_the_segment_nodes_once_per_consumer():
    # aligned-edge: every segment is on a mesh edge and in one edge group, so
    # a per-group coefficient test would also evaluate a at all segment nodes
    case, p = catalog()["aligned-edge"], 2
    mesh = build_mesh(DOMAIN, 8, 8)
    top = classify_elements(mesh, case.curve)
    space = build_doubled_space(build_dof_map(mesh, p), top)
    nodes = [build_plan(space, top, q, p).rule.points[..., 0].ravel() for q in (pass_order(p), pass_order(p, errors=True))]
    calls = [0, 0]

    def counted(side):
        def a(x, y):
            calls[side] += any(x.shape == n.shape and np.array_equal(x, n) for n in nodes)
            return case.problem.a[side](x, y)
        return a

    problem = replace(case.problem, a=(counted(0), counted(1)))
    params = PenaltyParams(1, 10.0, 1.0, p)
    system = assemble(space, top, problem, params)
    assert calls == [3, 3]  # the interface block, J1 and the load
    calls[:] = [0, 0]
    compute_errors(space, top, problem, np.zeros(system.n), params)
    assert calls == [1, 1]


def _scan_space(case, p, nx):
    mesh = build_mesh(BIUNIT, nx, nx)
    top = classify_elements(mesh, case.curve)
    return build_doubled_space(build_dof_map(mesh, p), top), top


def test_repeated_assembly_keeps_the_first_point_s_parts(monkeypatch):
    import ipfem.assembly as assembly

    calls = {"cut": 0, "segment": 0}
    real_cut, real_segment = assembly.cut_cell_rule, assembly.segment_rule

    def counted_cut(*args, **kwargs):
        calls["cut"] += 1
        return real_cut(*args, **kwargs)

    def counted_segment(*args, **kwargs):
        calls["segment"] += 1
        return real_segment(*args, **kwargs)

    monkeypatch.setattr(assembly, "cut_cell_rule", counted_cut)
    monkeypatch.setattr(assembly, "segment_rule", counted_segment)
    case, p, nx = catalog()["circle-jump"], 2, 8
    scan = [(g0, g1) for g1 in (1.0, 0.1, 0.01) for g0 in (1000.0, 100.0, 10.0, 1.0)]
    space, top = _scan_space(case, p, nx)
    systems = [assemble(space, top, case.problem, PenaltyParams(1, g0, g1, p)) for g0, g1 in scan]
    # the first point's plan builds the parts that serve the whole scan
    assert calls == {"cut": 1, "segment": 1}

    for (g0, g1), system in zip(scan, systems):
        fresh_space, fresh_top = _scan_space(case, p, nx)
        _assert_same_system(system, assemble(fresh_space, fresh_top, case.problem, PenaltyParams(1, g0, g1, p)))


def _assert_same_system(got, want):
    """Matrix, blocks and load equal byte for byte."""
    for a, b in [(got.matrix, want.matrix)] + [(got.blocks[k], want.blocks[k]) for k in want.blocks]:
        for field in ("data", "indices", "indptr"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
    assert got.load.tobytes() == want.load.tobytes()


def test_repeated_assembly_calls_each_block_function_once(monkeypatch):
    import ipfem.assembly as assembly

    calls = {"assemble_volume": 0, "assemble_interface": 0, "assemble_load": 0}

    def counted(name):
        real = getattr(assembly, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(assembly, name, counted(name))
    case, p = catalog()["circle-jump"], 2
    space, top = _scan_space(case, p, 8)
    scan = [(g0, g1) for g1 in (1.0, 0.1, 0.01) for g0 in (1000.0, 100.0, 10.0, 1.0)]
    for g0, g1 in scan:
        system = assemble(space, top, case.problem, PenaltyParams(1, g0, g1, p))
    assert calls == dict.fromkeys(calls, 1)
    # the kept blocks and load terms are read-only
    _, _, _, blocks, terms = space.penalty_free
    assert system.blocks["volume"] is blocks["volume"] and system.blocks["interface"] is blocks["interface"]
    for block in blocks.values():
        with pytest.raises(ValueError, match="read-only"):
            block.data[0] = 1.0
    for term in terms.values():
        with pytest.raises(ValueError, match="read-only"):
            term[0] = 1.0


def test_kept_parts_follow_the_problem_and_beta():
    case, p = catalog()["circle-jump"], 2
    space, top = _scan_space(case, p, 8)
    for g0 in (10.0, 100.0):
        assemble(space, top, case.problem, PenaltyParams(1, g0, 1.0, p))
    other = replace(case.problem, a=(case.problem.a[1], case.problem.a[0]))
    # and the quadrature order, the third part of the key
    for problem, beta, quad_order in (
        (other, 1, pass_order(p)),
        (case.problem, -1, pass_order(p)),
        (case.problem, 1, pass_order(p) + 1),
        (case.problem, 1, pass_order(p)),
    ):
        params = PenaltyParams(beta, 50.0, 0.5, p)
        fresh_space, fresh_top = _scan_space(case, p, 8)
        _assert_same_system(assemble(space, top, problem, params, quad_order),
                            assemble(fresh_space, fresh_top, problem, params, quad_order))
        kept = space.penalty_free
        assert kept[0] == quad_order and kept[1] is problem and kept[2] == beta


def test_kept_parts_die_with_their_space():
    import gc
    import weakref

    case, p = catalog()["circle-jump"], 1
    space, top = _scan_space(case, p, 8)
    for g0 in (10.0, 100.0):
        assemble(space, top, case.problem, PenaltyParams(1, g0, 1.0, p))
    kept = weakref.ref(space.penalty_free[3]["volume"])
    assert kept() is not None
    del space, top
    gc.collect()
    assert kept() is None


def test_plan_rejects_a_topology_the_space_was_not_built_on():
    case, p = catalog()["circle-jump"], 1
    space, top = _scan_space(case, p, 8)
    other = classify_elements(space.mesh, case.curve)  # equal, but not the same object
    params = PenaltyParams(1, 10.0, 1.0, p)
    coeffs = np.zeros(space.n_unknowns)
    with pytest.raises(ValueError, match="topology"):
        build_plan(space, other, 3, p)
    with pytest.raises(ValueError, match="topology"):
        assemble(space, other, case.problem, params)
    with pytest.raises(ValueError, match="topology"):
        compute_errors(space, other, case.problem, coeffs, params)
    with pytest.raises(ValueError, match="topology"):
        energy_norm_squared(space, other, case.problem, params, coeffs)
    assert space.penalty_free is None
    # a kept slot is no way round the check
    assemble(space, top, case.problem, params)
    with pytest.raises(ValueError, match="topology"):
        assemble(space, other, case.problem, params)


def test_plan_rejects_a_degree_other_than_the_space_s():
    # a degree-2 space assembled with p = 1 weights and rule orders used to
    # return a solvable system of the wrong method
    case = catalog()["circle-jump"]
    space, top = _scan_space(case, 2, 8)
    params = PenaltyParams(1, 10.0, 1.0, 1)
    coeffs = np.zeros(space.n_unknowns)
    with pytest.raises(ValueError, match="degree"):
        build_plan(space, top, 3, 1)
    with pytest.raises(ValueError, match="degree"):
        assemble(space, top, case.problem, params)
    with pytest.raises(ValueError, match="degree"):
        compute_errors(space, top, case.problem, coeffs, params)
    with pytest.raises(ValueError, match="degree"):
        energy_norm_squared(space, top, case.problem, params, coeffs)
    assert space.penalty_free is None
    # a kept slot is no way round the check
    assemble(space, top, case.problem, replace(params, p=2))
    with pytest.raises(ValueError, match="degree"):
        assemble(space, top, case.problem, params, quad_order=pass_order(2))
