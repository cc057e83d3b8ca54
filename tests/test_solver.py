from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import ipfem.solver as solver
from ipfem.assembly import AssembledSystem, PenaltyParams
from ipfem.cases import catalog
from ipfem.geometry import Ellipse
from ipfem.solver import (
    ConvergenceFailure,
    SolverError,
    ZeroDiagonal,
    _jacobi_factors,
    diagonal_scale,
    factor,
    solve,
)

from helpers import build_pipeline


def _system(matrix, load) -> AssembledSystem:
    """A bare matrix and load as a system with no elimination order."""
    return AssembledSystem(matrix=sp.csr_matrix(matrix), load=load,
                           params=PenaltyParams(beta=1, gamma0=0.0, gamma1=0.0, p=1))


def _scaled(matrix):
    """The Jacobi factors s and diag(s) A diag(s), as ``solve`` scales."""
    s = _jacobi_factors(matrix)
    return s, diagonal_scale(matrix, s)


def test_identity_solve():
    n = 5
    b = np.zeros(n)
    b[0] = 1.0
    rep = solve(_system(sp.identity(n), b))
    assert np.allclose(rep.solution, b)
    assert rep.rel_residual <= 1e-10


def _min_eigenvalue(matrix):
    return float(la.eigvalsh(matrix.toarray(), subset_by_index=[0, 0])[0])


def test_sip_is_positive_definite_with_good_penalties():
    case = catalog()["circle-jump"]
    _, _, _, _, system = build_pipeline(case, 1, 8, beta=1, gamma0=220.0, gamma1=1.0)
    assert _min_eigenvalue(system.matrix) > 0.0


def test_sip_without_penalties_reported_indefinite():
    case = catalog()["circle-jump"]
    _, _, _, _, system = build_pipeline(case, 1, 8, beta=1, gamma0=0.0, gamma1=0.0)
    assert _min_eigenvalue(system.matrix) <= 0.0


@pytest.mark.parametrize("beta, gamma0, gamma1", [(1, 220.0, 1.0), (-1, 1.0, 1.0)])
def test_direct_solve_matches_dense_solve(beta, gamma0, gamma1):
    case = catalog()["circle-jump"]
    _, _, _, _, system = build_pipeline(case, 1, 8, beta=beta, gamma0=gamma0, gamma1=gamma1)
    rep = solve(system)
    dense = np.linalg.solve(system.matrix.toarray(), system.load)
    assert np.linalg.norm(rep.solution - dense) <= 1e-10 * np.linalg.norm(dense)
    # the degree-1 grid order of ``system`` moves the solution only at
    # round-off against the minimum-degree LU of a system without one
    mmd = solve(replace(system, order=None))
    assert np.linalg.norm(mmd.solution - rep.solution) <= 1e-12 * np.linalg.norm(rep.solution)


def test_refinement_stall_raises(monkeypatch):
    # round-off keeps the residual near 1e-16, far above this target
    case = catalog()["circle-jump"]
    _, _, _, _, system = build_pipeline(case, 1, 8, beta=1)
    monkeypatch.setattr(solver, "RESIDUAL_TOL", 1e-30)
    with pytest.raises(ConvergenceFailure):
        solve(system)


def test_jacobi_scale_basics():
    a = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 1.0]]))
    s, scaled = _scaled(a)
    assert np.allclose(s, [0.5, 1.0])
    assert np.allclose(scaled.toarray().diagonal(), [1.0, 1.0])
    _, scaled_eye = _scaled(sp.identity(3, format="csr"))
    assert np.allclose(scaled_eye.toarray(), np.eye(3))
    bad = sp.csr_matrix(np.array([[1.0, 0.5], [0.5, 0.0]]))
    with pytest.raises(ZeroDiagonal):
        solve(_system(bad, np.ones(2)))


def test_jacobi_scaling_improves_conditioning():
    case = catalog()["circle-jump"]
    rng = np.random.default_rng(0)
    for trial in range(10):
        g0 = float(rng.uniform(5.0, 500.0))
        g1 = float(rng.uniform(0.1, 10.0))
        _, _, _, _, system = build_pipeline(case, 1, 8, beta=1, gamma0=g0, gamma1=g1)
        before = np.linalg.cond(system.matrix.toarray())  # 89 unknowns
        after = np.linalg.cond(_scaled(system.matrix)[1].toarray())
        assert after <= before * (1.0 + 1e-9)


def test_empty_system_rejected():
    with pytest.raises(SolverError):
        solve(_system(sp.csr_matrix((0, 0)), np.zeros(0)))


def test_zero_load_short_circuit():
    rep = solve(_system(sp.identity(4), np.zeros(4)))
    assert np.all(rep.solution == 0.0)
    assert rep.rel_residual == 0.0


def test_solve_factors_once(monkeypatch):
    case = catalog()["circle-jump"]
    _, _, _, _, system = build_pipeline(case, 1, 8, beta=1)
    calls = []

    def counted(matrix, order=None):
        calls.append(matrix.shape)
        return factor(matrix, order)

    monkeypatch.setattr(solver, "factor", counted)
    solve(system)
    assert len(calls) == 1


def test_factor_uses_a_symmetric_fill_reducing_ordering():
    # measured: 549,466 L+U nonzeros against 1,944,720 for SuperLU's default
    # COLAMD ordering of the same matrix
    case = catalog()["aligned-edge"]
    _, _, _, _, system = build_pipeline(case, 6, 16, beta=-1)
    scaled = _scaled(system.matrix)[1].tocsc()
    lu = factor(scaled)
    colamd = spla.splu(scaled)
    assert lu.L.nnz + lu.U.nnz <= 0.6 * (colamd.L.nnz + colamd.U.nnz)
    x = np.ones(scaled.shape[0])
    assert np.linalg.norm(scaled @ lu.solve(x) - x) <= 1e-10 * np.linalg.norm(x)


def test_top_level_dissection_halves_share_no_stored_entry():
    # nx = 16: the interior vertex columns are 1..15, and the square box is
    # first split on column 8, so the order is [x < 8, x > 8, x = 8]
    case = catalog()["circle-jump"]
    _, _, space, _, system = build_pipeline(case, 1, 16)
    column = np.nonzero(space.active)[1] % 17
    ranked = column[system.order]
    n_low, n_up = int(np.sum(column < 8)), int(np.sum(column > 8))
    assert np.all(ranked[:n_low] < 8)
    assert np.all(ranked[n_low : n_low + n_up] > 8)
    assert np.all(ranked[n_low + n_up :] == 8)
    permuted = system.matrix[system.order][:, system.order]
    low, up = slice(0, n_low), slice(n_low, n_low + n_up)
    assert permuted[low, low].nnz > 0 and permuted[up, up].nnz > 0
    assert permuted[low, up].nnz == 0 and permuted[up, low].nnz == 0


def test_grid_order_fills_less_than_minimum_degree_at_degree_one():
    # measured: 1,126,082 against 1,303,526 stored L + U entries (0.86)
    ellipse = Ellipse(0.0023643249400513433, 0.09009273926518707, 0.49324788381589013, 0.7067521161841098)
    case = replace(catalog()["circle-jump"], curve=ellipse)
    _, _, _, _, system = build_pipeline(case, 1, 128)
    rep = solve(system)
    mmd = factor(_scaled(system.matrix)[1].T)
    assert rep.iterations == 0
    assert rep.factor_nnz <= 0.9 * mmd.nnz


@pytest.mark.parametrize("p", [2, 3])
def test_higher_degrees_keep_the_minimum_degree_lu(p):
    case = catalog()["circle-jump"]
    _, _, _, _, system = build_pipeline(case, p, 8)
    assert system.order is None
    rep = solve(system)
    assert rep.iterations == 0
    s, scaled = _scaled(system.matrix)
    lu = spla.splu(
        scaled.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1, options={"SymmetricMode": True}
    )
    assert np.array_equal(rep.solution, s * lu.solve(s * system.load, trans="T"))
    assert rep.factor_nnz == lu.nnz
