"""Sparse solves and conditioning diagnostics.

Every system is solved by a sparse LU factorization of the Jacobi-scaled
matrix followed by up to three steps of iterative refinement; this is robust
under the ill-conditioning that small cut fractions induce (the method has no
stabilization for those by design, so the solver measures the consequences
instead of patching them).  ``condition_estimate`` reports how ill-conditioned
the scaled matrix is.

Every LU in the package comes from ``factor``.  The matrices here (the
interface-penalty systems, and the coercivity probe's volume block off the
interface unknowns and Schur complement onto them) all have a symmetric
nonzero pattern, so ``factor``
orders the columns by minimum degree on the pattern of A + A^T (Liu, ACM TOMS
11, 1985) and keeps that ordering through pivoting in SuperLU's symmetric
mode, which prefers the diagonal pivot unless it is below 0.1 of the column
maximum (Demmel, Eisenstat, Gilbert, Li and Liu, SIMAX 20, 1999).  SuperLU's
default COLAMD ordering is meant for unsymmetric patterns: on the p = 8,
nx = 16 aligned-edge system (NIP, 16,256 unknowns, 0.24 M nonzeros) it
gives 3.3 M L+U nonzeros against 1.12 M for this ordering, and a
factorization more than three times as slow.  Weaker pivots would show as refinement
steps in ``SolveReport.iterations``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import AssembledSystem


class SolverError(Exception):
    pass


class ConvergenceFailure(SolverError):
    """Iterative refinement stalled above the residual target."""


class SingularMatrix(SolverError):
    pass


class ZeroDiagonal(SolverError):
    """A zero diagonal entry: a dead DOF escaped the activity mask."""


@dataclass(eq=False)
class SolveReport:
    solution: np.ndarray
    rel_residual: float
    iterations: int = 0  # refinement steps taken after the first LU solve
    condition_estimate: float | None = None


@dataclass(eq=False)
class ScaledSystem:
    matrix: sp.csr_matrix
    load: np.ndarray
    scale: np.ndarray  # x = scale * y recovers the unscaled solution


def jacobi_scale(system) -> ScaledSystem:
    """Symmetric diagonal scaling to unit absolute diagonal."""
    matrix, load = _unpack(system)
    d = matrix.diagonal()
    if np.any(d == 0.0):
        dead = np.flatnonzero(d == 0.0)[:10]
        raise ZeroDiagonal(f"zero diagonal at unknowns {dead.tolist()}")
    s = 1.0 / np.sqrt(np.abs(d))
    return ScaledSystem(matrix=diagonal_scale(matrix, s), load=s * load, scale=s)


def diagonal_scale(matrix, s) -> sp.csr_matrix:
    """diag(s) @ matrix @ diag(s) in CSR, in one pass over the stored entries:
    entry (i, j) becomes (a_ij * s_i) * s_j, the product the two diagonal
    matmuls take.  Unlike the matmuls, stored zeros are kept."""
    matrix = sp.csr_matrix(matrix)
    data = (matrix.data * np.repeat(s, np.diff(matrix.indptr))) * s[matrix.indices]
    return sp.csr_matrix((data, matrix.indices, matrix.indptr), shape=matrix.shape)


def _unpack(system):
    """(matrix, load) of an AssembledSystem or of a (matrix, load) pair."""
    if isinstance(system, AssembledSystem):
        return system.matrix, system.load
    matrix, load = system
    return matrix, load


def solve(system, tol: float = 1e-10, estimate_cond: bool = False) -> SolveReport:
    """Solve the assembled system to a relative residual of ``tol``: sparse LU
    of the Jacobi-scaled matrix, then up to three refinement steps."""
    matrix, load = _unpack(system)
    if matrix.shape[0] == 0:
        raise SolverError("empty system")
    bnorm = float(np.linalg.norm(load))
    if bnorm == 0.0:
        return SolveReport(solution=np.zeros(matrix.shape[0]), rel_residual=0.0)

    scaled = jacobi_scale((matrix, load))
    # the CSR arrays read as CSC are the transpose: factor that, solve with
    # trans="T", and no format conversion is needed
    lu = factor(scaled.matrix.T)
    x = scaled.scale * lu.solve(scaled.load, trans="T")
    iterations = 0
    r = load - matrix @ x
    while iterations < 3 and np.linalg.norm(r) > tol * bnorm:
        x = x + scaled.scale * lu.solve(scaled.scale * r, trans="T")
        iterations += 1
        r = load - matrix @ x

    rel = float(np.linalg.norm(r) / bnorm)
    if rel > tol:
        raise ConvergenceFailure(
            f"direct solve stalled at relative residual {rel:.3e} (target {tol:.1e})"
        )
    cond = condition_estimate(scaled.matrix, lu_t=lu) if estimate_cond else None
    return SolveReport(solution=x, rel_residual=rel, iterations=iterations, condition_estimate=cond)


def factor(matrix: sp.csc_matrix) -> spla.SuperLU:
    """Sparse LU of a square CSC matrix with a symmetric nonzero pattern:
    minimum-degree ordering on A + A^T, kept through pivoting (see the module
    docstring).  Raises ``SingularMatrix`` when the factorization fails."""
    try:
        return spla.splu(
            matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1, options={"SymmetricMode": True}
        )
    except RuntimeError as exc:
        raise SingularMatrix(str(exc)) from exc


def condition_estimate(matrix: sp.spmatrix, iters: int = 50, seed: int = 0, lu_t=None) -> float:
    """2-norm condition estimate by power and inverse-power iteration.

    ``lu_t`` is ``factor(matrix.T)`` when the caller already has it, as
    ``solve`` does; otherwise it is computed here, the same way."""
    n = matrix.shape[0]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    mt = matrix.T.tocsr()
    for _ in range(iters):
        x = matrix @ x
        x = mt @ x
        nx = np.linalg.norm(x)
        if nx == 0.0:
            return np.inf
        x /= nx
    smax = np.sqrt(np.linalg.norm(mt @ (matrix @ x)))
    if lu_t is None:
        try:
            lu_t = factor(matrix.T.tocsc())
        except SingularMatrix:
            return np.inf

    def inv_normal(v):  # (A A^T)^-1 v = A^-T (A^-1 v), with A^T = LU
        return lu_t.solve(lu_t.solve(v, trans="T"), trans="N")

    y = rng.standard_normal(n)
    for _ in range(iters):
        y = inv_normal(y)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return np.inf
        y /= ny
    smin = 1.0 / np.sqrt(np.linalg.norm(inv_normal(y)))
    return float(smax / smin)
