"""Sparse solves and conditioning diagnostics.

Every system is solved by a sparse LU factorization of the Jacobi-scaled
matrix followed by up to three steps of iterative refinement; this is robust
under the ill-conditioning that small cut fractions induce (the method has no
stabilization for those by design, so the solver measures the consequences
instead of patching them).  ``condition_estimate`` reports how ill-conditioned
the scaled matrix is.
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
    ds = sp.diags(s)
    scaled = (ds @ matrix @ ds).tocsr()
    return ScaledSystem(matrix=scaled, load=s * load, scale=s)


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
    try:
        lu = spla.splu(scaled.matrix.tocsc())
    except RuntimeError as exc:
        raise SingularMatrix(str(exc)) from exc
    x = scaled.scale * lu.solve(scaled.load)
    iterations = 0
    for _ in range(3):
        r = load - matrix @ x
        if np.linalg.norm(r) <= tol * bnorm:
            break
        x = x + scaled.scale * lu.solve(scaled.scale * r)
        iterations += 1

    rel = float(np.linalg.norm(load - matrix @ x) / bnorm)
    if rel > tol:
        raise ConvergenceFailure(
            f"direct solve stalled at relative residual {rel:.3e} (target {tol:.1e})"
        )
    cond = condition_estimate(scaled.matrix) if estimate_cond else None
    return SolveReport(solution=x, rel_residual=rel, iterations=iterations, condition_estimate=cond)


def condition_estimate(matrix: sp.spmatrix, iters: int = 50, seed: int = 0) -> float:
    """2-norm condition estimate by power and inverse-power iteration."""
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
    try:
        lu = spla.splu(matrix.tocsc())
    except RuntimeError:
        return np.inf
    y = rng.standard_normal(n)
    for _ in range(iters):
        y = lu.solve(y, trans="N")
        y = lu.solve(y, trans="T")
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return np.inf
        y /= ny
    smin = 1.0 / np.sqrt(np.linalg.norm(lu.solve(lu.solve(y, trans="N"), trans="T")))
    return float(smax / smin)
