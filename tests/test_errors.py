import numpy as np
import pytest

from ipfem.assembly import PenaltyParams, Problem, assemble
from ipfem.cases import catalog
from ipfem.errors import (
    ErrorReport,
    InsufficientData,
    MissingExact,
    compute_errors,
    energy_norm_squared,
    estimate_rates,
)
from ipfem.fe_space import build_dof_map, build_doubled_space
from ipfem.geometry import Circle, classify_elements
from ipfem.mesh import Rectangle, build_mesh
from ipfem.solver import solve

from helpers import build_pipeline, interpolate_pair, traced_peak

BIUNIT = Rectangle(-1.0, -1.0, 1.0, 1.0)


def _report(h, l2, a=None, p=1):
    return ErrorReport(
        l2=l2,
        h1_broken=l2,
        norm_a=a if a is not None else l2,
        norm_b=a if a is not None else l2,
        j0_value=l2,
        j1_value=l2,
        dofs=1,
        h=h,
        p=p,
        gamma0=1.0,
        gamma1=1.0,
        beta=1,
    )


def test_synthetic_slopes():
    hs = [0.25, 0.125, 0.0625]
    reports = [_report(h, 3.0 * h**2) for h in hs]
    rates = estimate_rates(reports)
    assert rates.slopes["l2"] == pytest.approx(2.0, abs=1e-12)
    reports = [_report(h, 0.7 * h**1.5) for h in hs]
    assert estimate_rates(reports).slopes["l2"] == pytest.approx(1.5, abs=1e-12)
    assert len(estimate_rates(reports).pairwise["l2"]) == 2


def test_rates_input_validation():
    hs = [0.25, 0.125]
    with pytest.raises(InsufficientData):
        estimate_rates([_report(h, h) for h in hs])
    bad_order = [_report(h, h) for h in [0.125, 0.25, 0.0625]]
    with pytest.raises(InsufficientData):
        estimate_rates(bad_order)
    mixed_p = [_report(0.25, 1.0, p=1), _report(0.125, 0.5, p=2), _report(0.0625, 0.25, p=1)]
    with pytest.raises(InsufficientData):
        estimate_rates(mixed_p)


def test_missing_exact():
    case = catalog()["circle-jump"]
    mesh = build_mesh(BIUNIT, 8, 8)
    top = classify_elements(mesh, case.curve)
    space = build_doubled_space(build_dof_map(mesh, 1), top)
    params = PenaltyParams(beta=1, gamma0=1.0, gamma1=1.0, p=1)
    bare = Problem(a=case.problem.a, f=case.problem.f)
    with pytest.raises(MissingExact):
        compute_errors(space, top, bare, np.zeros(space.n_unknowns), params)


def test_zero_everything():
    zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    zgrad = lambda x, y: (np.zeros_like(np.asarray(x, dtype=float)),) * 2
    one = lambda x, y: np.ones_like(np.asarray(x, dtype=float))
    problem = Problem(
        a=(one, one), f=(zero, zero), exact=(zero, zero), exact_grad=(zgrad, zgrad)
    )
    mesh = build_mesh(BIUNIT, 8, 8)
    top = classify_elements(mesh, Circle(0.0, 0.0, 0.6))
    space = build_doubled_space(build_dof_map(mesh, 2), top)
    params = PenaltyParams(beta=1, gamma0=2.0, gamma1=1.0, p=2)
    rep = compute_errors(space, top, problem, np.zeros(space.n_unknowns), params)
    for field in ("l2", "h1_broken", "norm_a", "norm_b", "j0_value", "j1_value"):
        assert getattr(rep, field) == 0.0


def test_polynomial_interpolant_reproduced():
    # exact solution in the space (biquadratic, vanishing on the boundary so
    # the constrained DOFs are consistent), same constant coefficient on both
    # sides, zero interface terms: every error entry at round-off level
    u0 = lambda x, y: (1 - x**2) * (1 - y**2)
    du0 = lambda x, y: (-2 * x * (1 - y**2), -2 * y * (1 - x**2))
    two = lambda x, y: 2.0 * np.ones_like(np.asarray(x, dtype=float))
    zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    problem = Problem(a=(two, two), f=(zero, zero), exact=(u0, u0), exact_grad=(du0, du0))
    mesh = build_mesh(BIUNIT, 8, 8)
    top = classify_elements(mesh, Circle(0.0, 0.0, 0.6))
    space = build_doubled_space(build_dof_map(mesh, 2), top)
    params = PenaltyParams(beta=1, gamma0=2.0, gamma1=1.0, p=2)
    coeffs = interpolate_pair(space, (u0, u0))
    rep = compute_errors(space, top, problem, coeffs, params)
    for field in ("l2", "h1_broken", "norm_a", "norm_b"):
        assert getattr(rep, field) <= 1e-10


def test_norm_nesting_and_definition():
    case = catalog()["circle-jump"]
    _, top, space, params, system = build_pipeline(case, 2, 8)
    rep_solve = solve(system)
    rep = compute_errors(space, top, case.problem, rep_solve.solution, params)
    assert rep.norm_b >= rep.norm_a >= rep.h1_broken >= 0.0
    assert rep.norm_a**2 == pytest.approx(
        rep.h1_broken**2 + rep.j0_value + rep.j1_value, rel=1e-12
    )


def test_norm_b_requires_positive_gamma0():
    case = catalog()["circle-jump"]
    _, top, space, params, system = build_pipeline(case, 1, 8, beta=-1, gamma0=0.0, gamma1=1.0)
    rep_solve = solve(system)
    rep = compute_errors(space, top, case.problem, rep_solve.solution, params)
    assert np.isnan(rep.norm_b)


def test_quadrature_stability_of_reported_errors():
    case = catalog()["circle-jump"]
    _, top, space, params, system = build_pipeline(case, 2, 8)
    solution = solve(system).solution
    rep_lo = compute_errors(space, top, case.problem, solution, params, quad_order=4)
    rep_hi = compute_errors(space, top, case.problem, solution, params, quad_order=8)
    for field in ("l2", "h1_broken", "norm_a", "norm_b"):
        lo = getattr(rep_lo, field)
        hi = getattr(rep_hi, field)
        assert abs(lo - hi) <= 1e-3 * abs(hi)


def test_j0_decays_under_refinement():
    case = catalog()["circle-jump"]
    vals = []
    for nx in (8, 16, 32):
        _, top, space, params, system = build_pipeline(case, 1, nx)
        rep = compute_errors(space, top, case.problem, solve(system).solution, params)
        vals.append(rep.j0_value)
    drops = [vals[k + 1] < vals[k] for k in range(len(vals) - 1)]
    assert sum(drops) >= len(drops) - 1  # monotone up to one exception


def test_energy_norm_matches_block_quadratic_form():
    case = catalog()["circle-jump"]
    _, top, space, params, system = build_pipeline(case, 2, 8)
    gram = system.blocks["volume"] + system.blocks["j0"] + system.blocks["j1"]
    rng = np.random.default_rng(4)
    v = rng.standard_normal(space.n_unknowns)
    direct = float(v @ (gram @ v))
    indep = energy_norm_squared(space, top, case.problem, params, v)
    assert direct == pytest.approx(indep, rel=1e-9)


def _block_cases():
    """(space, topology, problem, params, coefficients): circle-jump solutions at
    p = 1..3 on nx = 8, and random coefficients on a cut ellipse at nx = 16."""
    from ipfem.geometry import Ellipse

    case = catalog()["circle-jump"]
    for p in (1, 2, 3):
        _, top, space, params, system = build_pipeline(case, p, 8)
        yield space, top, case.problem, params, solve(system).solution
    mesh = build_mesh(BIUNIT, 16, 16)
    top = classify_elements(mesh, Ellipse(0.1, -0.05, 0.55, 0.35))
    for p in (1, 2, 3):
        space = build_doubled_space(build_dof_map(mesh, p), top)
        coeffs = np.random.default_rng(p).standard_normal(space.n_unknowns)
        yield space, top, case.problem, PenaltyParams(beta=1, gamma0=20.0, gamma1=1.0, p=p), coeffs


def test_error_reports_do_not_depend_on_the_element_block_size(monkeypatch):
    # One element per block against one block per group.  Cut groups take one
    # product per element either way; an uncut group's BLAS products round a
    # row differently as the number of rows changes, so the reports agree to
    # round-off, not bitwise: measured at most 5.0e-15 relative (circle-jump
    # l2 at p = 3, where u - u_h is 1e-4 of u), and 0 on the ellipse.
    import ipfem.errors as errors

    for space, top, problem, params, coeffs in _block_cases():
        out = []
        for entries in (1, 2**62):
            monkeypatch.setattr(errors, "ERROR_BLOCK_ENTRIES", entries)
            out.append((compute_errors(space, top, problem, coeffs, params),
                        energy_norm_squared(space, top, problem, params, coeffs)))
        (one, one_energy), (whole, whole_energy) = out
        for field in ("l2", "h1_broken", "norm_a", "norm_b", "j0_value", "j1_value", "dofs"):
            assert getattr(one, field) == pytest.approx(getattr(whole, field), rel=1e-12, abs=0.0), field
        assert one_energy == pytest.approx(whole_energy, rel=1e-12, abs=0.0)


def _h_sweep_ellipse():
    """perfbench's h-sweep seed-1 ellipse at nx = 128, p = 1: the problem,
    mesh, topology and penalties."""
    from ipfem.geometry import Ellipse

    u = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    grad = lambda x, y: (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y), np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))
    one = lambda x, y: np.ones_like(np.asarray(x, dtype=float))
    ten = lambda x, y: 10.0 * np.ones_like(np.asarray(x, dtype=float))
    problem = Problem(a=(one, ten), f=(u, u), exact=(u, u), exact_grad=(grad, grad))
    mesh = build_mesh(BIUNIT, 128, 128)
    top = classify_elements(mesh, Ellipse(0.0023643249400513433, 0.09009273926518707, 0.49324788381589013, 0.7067521161841098))
    params = PenaltyParams(beta=1, gamma0=20.0, gamma1=1.0, p=1)
    return problem, mesh, top, params


def test_error_pass_memory_does_not_grow_with_whole_group_tables():
    # perfbench's h-sweep seed-1 ellipse at nx = 128, p = 1.  The tracemalloc
    # peak inside compute_errors was 31.6 MiB while each group's (E, q) tables
    # of exact values, coefficients and errors were live at once, and is
    # 15.4 MiB with element blocks of ERROR_BLOCK_ENTRIES entries; most of
    # the rest is the plan's own (E, q) node arrays.
    problem, mesh, top, params = _h_sweep_ellipse()
    space = build_doubled_space(build_dof_map(mesh, 1), top)
    coeffs = np.zeros(space.n_unknowns)
    _, peak = traced_peak(compute_errors, space, top, problem, coeffs, params)
    assert peak < 24 * 2**20, peak / 2**20


def test_assembly_memory_does_not_hold_every_unfiltered_triplet():
    # the same input, one assemble on a fresh space (so a fresh plan).  The
    # tracemalloc peak was 19.43 MiB while _csr concatenated the unfiltered
    # (row, col, value) triplets of all chunks and then masked them, and is
    # 16.02 MiB with each chunk's constrained entries dropped as its
    # triplets are formed
    problem, mesh, top, params = _h_sweep_ellipse()
    space = build_doubled_space(build_dof_map(mesh, 1), top)
    _, peak = traced_peak(assemble, space, top, problem, params)
    assert peak < 17.5 * 2**20, peak / 2**20
