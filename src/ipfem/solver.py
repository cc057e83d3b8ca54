"""Sparse solves.

Every system is solved by a sparse LU factorization of the Jacobi-scaled
matrix followed by up to three steps of iterative refinement; this is robust
under the ill-conditioning that small cut fractions induce (the method has no
stabilization for those by design, so the solver measures the consequences
instead of patching them).  Where that ill-conditioning sits is read off the
diagonal blocks of the cut (element, side) copies, scaled by the same
``_jacobi_factors``: the local figure of ``ipfem-study run --check-spread``
(``cli._local_figure``).

Every LU in the package comes from ``factor``, apart from the deliberate
second one of ``colamd_solve``.  The matrices here (the interface-penalty
systems, and the coercivity probe's volume block off the interface unknowns)
all have a symmetric nonzero pattern, so ``factor`` keeps its ordering
through pivoting in SuperLU's symmetric mode, which prefers the diagonal
pivot unless it is below 0.1 of the column maximum (Demmel, Eisenstat,
Gilbert, Li and Liu, SIMAX 20, 1999).  Weaker pivots would show as
refinement steps in ``SolveReport.iterations``.  The probe's Schur
complement onto the interface unknowns takes no LU: one band-plus-corner
Cholesky and one standard-mode Lanczos run per point
(``probes._point_quotient``).

The ordering depends only on the degree.  A degree-1 space carries the
nested-dissection order of its vertex grid (``DoubledSpace.order``; A.
George, SIAM J. Numer. Anal. 10, 1973), ``assemble`` passes it on in the
``AssembledSystem``, and ``solve`` factors the scaled matrix permuted into
that order, built in the same pass as the scaling, with no further
reordering.  On the h-sweep ellipse of seed 1 at nx = 128 (16,741 unknowns)
that stores 1.13 M L + U entries against 1.30 M for minimum degree, and the
scaling and LU take about a third less time: 63 against 93 ms and 58 against
84 ms in two runs (best of 5, one BLAS thread, on a shared two-core x86-64
VM).  At nx = 256 it is 5.34 M against 6.79 M entries and 239-299 against
490-546 ms.  Every other LU (the solve at p >= 2, the probes') orders the
columns by minimum degree on the pattern of A + A^T (Liu, ACM TOMS 11,
1985).  At p >= 2 a dissection
of all DOF positions down to one element per leaf loses to it: on the
p-sweep system of seed 1 (NIP, nx = 16) it stores 69,900 against 38,962
L + U entries at p = 2 and 3.63 M against 1.12 M at p = 8 (1.73 M with the
element interiors first).  SuperLU's default COLAMD ordering is meant for
unsymmetric patterns: on the p = 8, nx = 16 aligned-edge system (NIP,
16,256 unknowns, 0.24 M nonzeros) it gives 3.3 M L+U nonzeros against
1.12 M for minimum degree, and a factorization more than three times as
slow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import AssembledSystem

RESIDUAL_TOL = 1e-10  # relative residual every solve must reach


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
    factor_nnz: int = 0  # L + U entries SuperLU stored (``SuperLU.nnz``); 0 without an LU


def _jacobi_factors(matrix) -> np.ndarray:
    """1 / sqrt|a_ii|; raises ``ZeroDiagonal`` on a zero diagonal entry."""
    d = matrix.diagonal()
    if np.any(d == 0.0):
        dead = np.flatnonzero(d == 0.0)[:10]
        raise ZeroDiagonal(f"zero diagonal at unknowns {dead.tolist()}")
    return 1.0 / np.sqrt(np.abs(d))


def diagonal_scale(matrix, s, order=None) -> sp.csr_matrix:
    """diag(s) @ matrix @ diag(s) in CSR, in one pass over the stored entries:
    entry (i, j) becomes (a_ij * s_i) * s_j, the product the two diagonal
    matmuls take.  Unlike the matmuls, stored zeros are kept.

    With ``order``, the result is also permuted, P (diag(s) A diag(s)) P^T
    with row k taken from row order[k], in the same pass; its column indices
    are left unsorted."""
    matrix = sp.csr_matrix(matrix)
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    if order is None:
        scaled = data * np.repeat(s, np.diff(indptr))
        scaled *= s[indices]
        return sp.csr_matrix((scaled, indices, indptr), shape=matrix.shape)
    lengths = np.diff(indptr)[order]
    new_indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(indptr.dtype)
    src = np.arange(len(data)) + np.repeat(indptr[order] - new_indptr[:-1], lengths)
    cols = indices[src]
    scaled = data[src]
    del src
    scaled *= np.repeat(s[order], lengths)
    scaled *= s[cols]
    position = np.empty_like(indices)
    position[order] = np.arange(len(order))
    return sp.csr_matrix((scaled, position[cols], new_indptr), shape=matrix.shape)


def solve(system: AssembledSystem) -> SolveReport:
    """Solve the assembled system to a relative residual of RESIDUAL_TOL:
    sparse LU of the Jacobi-scaled matrix, then up to three refinement
    steps.  The LU takes the system's elimination order when it has one (a
    degree-1 space), minimum degree otherwise."""
    matrix, load = system.matrix, system.load
    if matrix.shape[0] == 0:
        raise SolverError("empty system")
    bnorm = float(np.linalg.norm(load))
    if bnorm == 0.0:
        return SolveReport(solution=np.zeros(matrix.shape[0]), rel_residual=0.0)

    s = _jacobi_factors(matrix)
    # the CSR arrays read as CSC are the transpose: factor that, solve with
    # trans="T", and no format conversion is needed
    lu = factor(diagonal_scale(matrix, s, system.order).T, system.order)
    return _refined_solve(matrix, load, s, lu)


def colamd_solve(system: AssembledSystem) -> SolveReport:
    """``solve`` through SuperLU's default LU (COLAMD column ordering, partial
    pivoting) of the same Jacobi-scaled matrix, with the same refinement: a
    second pivot order, for measuring how much the solution depends on it."""
    s = _jacobi_factors(system.matrix)
    try:
        lu = spla.splu(diagonal_scale(system.matrix, s).T)
    except RuntimeError as exc:
        raise SingularMatrix(str(exc)) from exc
    return _refined_solve(system.matrix, system.load, s, lu)


def _refined_solve(matrix, load, s, lu) -> SolveReport:
    """x from ``lu``, the LU of (diag(s) A diag(s))^T, with up to three
    refinement steps on the unscaled residual."""
    bnorm = float(np.linalg.norm(load))
    x = s * lu.solve(s * load, trans="T")
    iterations = 0
    r = load - matrix @ x
    while iterations < 3 and np.linalg.norm(r) > RESIDUAL_TOL * bnorm:
        x = x + s * lu.solve(s * r, trans="T")
        iterations += 1
        r = load - matrix @ x

    rel = float(np.linalg.norm(r) / bnorm)
    if rel > RESIDUAL_TOL:
        raise ConvergenceFailure(
            f"direct solve stalled at relative residual {rel:.3e} (target {RESIDUAL_TOL:.1e})"
        )
    return SolveReport(solution=x, rel_residual=rel, iterations=iterations, factor_nnz=int(lu.nnz))


def factor(matrix: sp.csc_matrix, order=None):
    """Sparse LU of a square CSC matrix with a symmetric nonzero pattern,
    pivoting in SuperLU's symmetric mode (see the module docstring).

    Without ``order`` the columns are ordered by minimum degree on A + A^T.
    With it, ``matrix`` is already P A P^T, row and column k being A's
    order[k] (``diagonal_scale(..., order)``), and is factored in its own
    order; the returned LU then takes and returns vectors in A's numbering.
    Raises ``SingularMatrix`` when the factorization fails."""
    try:
        lu = spla.splu(
            matrix,
            permc_spec="MMD_AT_PLUS_A" if order is None else "NATURAL",
            diag_pivot_thresh=0.1,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SingularMatrix(str(exc)) from exc
    return lu if order is None else PermutedLU(lu, order)


class PermutedLU:
    """The LU of P A P^T, solving with A: x[order] = LU^-1 (b[order])."""

    def __init__(self, lu: spla.SuperLU, order: np.ndarray):
        self.lu = lu
        self.order = order
        self.nnz = lu.nnz

    def solve(self, b, trans: str = "N") -> np.ndarray:
        x = np.empty(np.shape(b))
        x[self.order] = self.lu.solve(np.asarray(b)[self.order], trans=trans)
        return x

