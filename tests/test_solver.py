import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import ipfem.solver as solver
from ipfem.cases import catalog
from ipfem.solver import (
    ConvergenceFailure,
    SolverError,
    ZeroDiagonal,
    condition_estimate,
    factor,
    jacobi_scale,
    solve,
)

from helpers import build_pipeline


def test_identity_solve():
    n = 5
    b = np.zeros(n)
    b[0] = 1.0
    rep = solve((sp.identity(n, format="csr"), b))
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
    pair = solve((system.matrix, system.load))
    assert np.array_equal(pair.solution, rep.solution)


def test_refinement_stall_raises():
    # round-off keeps the residual near 1e-16, far above this target
    case = catalog()["circle-jump"]
    _, _, _, _, system = build_pipeline(case, 1, 8, beta=1)
    with pytest.raises(ConvergenceFailure):
        solve(system, tol=1e-30)


def test_jacobi_scale_basics():
    a = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 1.0]]))
    scaled = jacobi_scale((a, np.array([1.0, 1.0])))
    assert np.allclose(scaled.scale, [0.5, 1.0])
    assert np.allclose(scaled.matrix.toarray().diagonal(), [1.0, 1.0])
    eye = sp.identity(3, format="csr")
    scaled_eye = jacobi_scale((eye, np.ones(3)))
    assert np.allclose(scaled_eye.matrix.toarray(), np.eye(3))
    bad = sp.csr_matrix(np.array([[1.0, 0.5], [0.5, 0.0]]))
    with pytest.raises(ZeroDiagonal):
        jacobi_scale((bad, np.ones(2)))


def test_jacobi_scaling_improves_conditioning():
    case = catalog()["circle-jump"]
    rng = np.random.default_rng(0)
    for trial in range(10):
        g0 = float(rng.uniform(5.0, 500.0))
        g1 = float(rng.uniform(0.1, 10.0))
        _, _, _, _, system = build_pipeline(case, 1, 8, beta=1, gamma0=g0, gamma1=g1)
        before = condition_estimate(system.matrix, iters=30)
        after = condition_estimate(jacobi_scale(system).matrix, iters=30)
        assert after <= before * (1.0 + 1e-9)


def test_empty_system_rejected():
    with pytest.raises(SolverError):
        solve((sp.csr_matrix((0, 0)), np.zeros(0)))


def test_zero_load_short_circuit():
    rep = solve((sp.identity(4, format="csr"), np.zeros(4)))
    assert np.all(rep.solution == 0.0)
    assert rep.rel_residual == 0.0


def test_condition_estimate_path():
    case = catalog()["circle-jump"]
    _, _, _, _, system = build_pipeline(case, 1, 8, beta=1)
    rep = solve(system, estimate_cond=True)
    assert rep.condition_estimate is not None
    assert rep.condition_estimate > 1.0


def test_solve_factors_once_with_condition_estimate(monkeypatch):
    case = catalog()["circle-jump"]
    _, _, _, _, system = build_pipeline(case, 1, 8, beta=1)
    calls = []

    def counted(matrix):
        calls.append(matrix.shape)
        return factor(matrix)

    monkeypatch.setattr(solver, "factor", counted)
    rep = solve(system, estimate_cond=True)
    assert len(calls) == 1
    alone = condition_estimate(jacobi_scale(system).matrix)
    assert rep.condition_estimate == pytest.approx(alone, rel=1e-12)


def test_factor_uses_a_symmetric_fill_reducing_ordering():
    # measured: 549,466 L+U nonzeros against 1,944,720 for SuperLU's default
    # COLAMD ordering of the same matrix
    case = catalog()["aligned-edge"]
    _, _, _, _, system = build_pipeline(case, 6, 16, beta=-1)
    scaled = jacobi_scale(system).matrix.tocsc()
    lu = factor(scaled)
    colamd = spla.splu(scaled)
    assert lu.L.nnz + lu.U.nnz <= 0.6 * (colamd.L.nnz + colamd.U.nnz)
    x = np.ones(scaled.shape[0])
    assert np.linalg.norm(scaled @ lu.solve(x) - x) <= 1e-10 * np.linalg.norm(x)
