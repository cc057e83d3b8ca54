"""Error measurement in the method's own norms.

Reports the L2 error, the broken weighted H1 seminorm, the energy norm
(broken H1 plus both penalty terms) and the augmented energy norm that adds
the scaled flux-average term; the two penalty magnitudes are kept separately.
All integrals use the assembly's integration plan, built with the same rule
generators (tensor Gauss, cut-cell and segment rules) at a higher order, by
default ``quadrature.pass_order(p, errors=True)``: p + 4 against the
assembly's p + 2, so cut-cell rules of order 2p + 4 against 2p + 2.  The
higher order keeps the quadrature error below the discretisation error; it
does not make the error quadrature independent of the assembly's.  Each of
the plan's groups, uncut or cut, is integrated in blocks of consecutive
elements, so no table of exact values, coefficients or errors is formed for
a whole group; the per-element integrals are summed over the groups and
blocks in plan order, as the assembly scatters them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .assembly import ElementGroup, IntegrationPlan, PenaltyParams, Problem, _contract, _evaluate, _shaped, _T, build_plan
from .fe_space import DoubledSpace, gather
from .geometry import CutTopology
from .quadrature import pass_order


# float64 entries (256 KiB) of each (element, quadrature node) table of one
# element block: 1,310 elements at p = 1 (q = 25), 227 at p = 8 (q = 144).
# On the h-sweep seed-1 ellipse at nx = 128 the pass's tracemalloc peak is
# 15.4 MiB at this budget, 14.5 MiB at 2^14 and below (the plan's own arrays)
# and 23.7 MiB at 2^17; the pass time did not change within the noise.
ERROR_BLOCK_ENTRIES = 2**15


class MissingExact(Exception):
    """The problem carries no exact solution to measure against."""


class InsufficientData(Exception):
    """Too few refinement levels to estimate rates."""


@dataclass
class ErrorReport:
    l2: float
    h1_broken: float
    norm_a: float
    norm_b: float  # nan when gamma0 == 0 (the flux-average weight is undefined)
    j0_value: float
    j1_value: float
    dofs: int
    h: float
    p: int
    gamma0: float
    gamma1: float
    beta: int


def _squared_parts(plan: IntegrationPlan, problem: Problem, params: PenaltyParams, coeffs, exact: bool) -> dict:
    """Squared norms of u - u_h by part, where u_h has the coefficients
    ``coeffs`` and u is the problem's exact pair, or zero without ``exact``:
    L2, broken weighted H1, both penalty terms and the flux-average term."""
    coeffs = np.asarray(coeffs, dtype=float)
    p = params.p

    def exact_at(side, x, y):
        if not exact:
            zero = np.zeros(x.shape)
            return zero, zero, zero
        gx, gy = problem.exact_grad[side - 1](x.ravel(), y.ravel())
        return (
            _evaluate(problem.exact[side - 1], x, y),
            _shaped(gx, x.shape),
            _shaped(gy, x.shape),
        )

    def integrate(values, w):
        # (E, q) values against shared (q,) or per-element (E, q) weights
        return _contract(values, w[..., None])[:, 0]

    l2_parts, h1_parts = [], []
    for group in plan.groups:
        for g in _element_blocks(group, max(1, ERROR_BLOCK_ENTRIES // group.x.shape[1])):
            local = gather(coeffs, g.idx)
            ue, gx, gy = exact_at(g.side, g.x, g.y)
            aq = _evaluate(problem.a[g.side - 1], g.x, g.y)
            err = ue - _contract(local, _T(g.vals))
            gerr_sq = (gx - _gradient(local, g, 0)) ** 2 + (gy - _gradient(local, g, 1)) ** 2
            l2_parts.append(integrate(err**2, g.w))
            h1_parts.append(integrate(aq * gerr_sq, g.w))

    tr = plan.segment_traces(problem)
    x, y = plan.rule.points[..., 0], plan.rule.points[..., 1]
    nrm = plan.rule.normals
    c1 = gather(coeffs, tr.idx1)[..., None, :]
    c2 = gather(coeffs, tr.idx2)[..., None, :]
    f1_h = np.sum(tr.flux1 * c1, axis=-1)
    f2_h = np.sum(tr.flux2 * c2, axis=-1)
    jump_h = np.sum(tr.vals1 * c1, axis=-1) - np.sum(tr.vals2 * c2, axis=-1)
    u1, g1x, g1y = exact_at(1, x, y)
    u2, g2x, g2y = exact_at(2, x, y)
    a1, a2 = tr.a
    f1 = a1 * (g1x * nrm[..., 0] + g1y * nrm[..., 1])
    f2 = a2 * (g2x * nrm[..., 0] + g2y * nrm[..., 1])
    w = plan.rule.weights
    out = {
        "l2": float(np.sum(np.concatenate(l2_parts))),
        "h1": float(np.sum(np.concatenate(h1_parts))),
        "j0": params.j0_weight(plan.h) * float(np.sum(w * ((u1 - u2) - jump_h) ** 2)),
        "j1": params.j1_weight(plan.h) * float(np.sum(w * ((f1 - f2) - (f1_h - f2_h)) ** 2)),
        "avg": 0.0,
    }
    if params.gamma0 > 0.0:
        favg_err = 0.5 * (f1 + f2) - 0.5 * (f1_h + f2_h)
        out["avg"] = plan.h / (params.gamma0 * p**2) * float(np.sum(w * favg_err**2))
    return out


def _element_blocks(g: ElementGroup, size: int):
    """Group ``g`` as consecutive groups of at most ``size`` elements, in
    order: the per-element fields sliced (x, y, idx, and w, vals and grads
    of a cut group), the shared tables of an uncut group kept whole."""
    per_element = g.w.ndim == 2
    for start in range(0, len(g.idx), size):
        at = slice(start, start + size)
        yield replace(
            g, x=g.x[at], y=g.y[at], idx=g.idx[at],
            **({"w": g.w[at], "vals": g.vals[at], "grads": g.grads[at]} if per_element else {}),
        )


def _gradient(local, g: ElementGroup, d: int) -> np.ndarray:
    """Component d of grad u_h at the nodes of group ``g``, (E, q), where u_h
    has the local coefficients ``local``.  A cut group's (E, q, n_loc)
    component rows are summed over the local functions in order, one
    multiply-add each, so the sum does not depend on how a BLAS kernel
    blocks it."""
    if g.w.ndim == 1:
        return _contract(local, _T(g.grads[:, d]))
    rows = g.grads[..., d, :]
    out = local[:, None, 0] * rows[..., 0]
    for k in range(1, rows.shape[-1]):
        out += local[:, None, k] * rows[..., k]
    return out


def compute_errors(
    space: DoubledSpace,
    topology: CutTopology,
    problem: Problem,
    solution: np.ndarray,
    params: PenaltyParams,
    quad_order: int | None = None,
) -> ErrorReport:
    """All error norms of ``solution`` against the problem's exact pair."""
    if problem.exact is None or problem.exact_grad is None:
        raise MissingExact("compute_errors requires problem.exact and exact_grad")
    p = params.p
    if quad_order is None:
        quad_order = pass_order(p, errors=True)
    parts = _squared_parts(build_plan(space, topology, quad_order, p), problem, params, solution, exact=True)
    norm_a = math.sqrt(parts["h1"] + parts["j0"] + parts["j1"])
    norm_b = math.sqrt(norm_a**2 + parts["avg"]) if params.gamma0 > 0.0 else float("nan")
    return ErrorReport(
        l2=math.sqrt(parts["l2"]),
        h1_broken=math.sqrt(parts["h1"]),
        norm_a=norm_a,
        norm_b=norm_b,
        j0_value=parts["j0"],
        j1_value=parts["j1"],
        dofs=space.n_unknowns,
        h=space.mesh.h,
        p=p,
        gamma0=params.gamma0,
        gamma1=params.gamma1,
        beta=params.beta,
    )


def energy_norm_squared(
    space: DoubledSpace,
    topology: CutTopology,
    problem: Problem,
    params: PenaltyParams,
    coeffs: np.ndarray,
    quad_order: int | None = None,
):
    """Energy norm squared of a discrete function, measured like the error of
    ``compute_errors`` against a zero exact pair: broken weighted gradient
    energy plus both penalty terms.  ``coeffs`` is one coefficient vector,
    which gives one float, or a sequence of them (a 2-D array), which gives
    a list of floats, one per vector, all measured over one plan."""
    if quad_order is None:
        quad_order = pass_order(params.p, errors=True)
    plan = build_plan(space, topology, quad_order, params.p)
    many = np.ndim(coeffs) == 2
    values = []
    for c in coeffs if many else [coeffs]:
        parts = _squared_parts(plan, problem, params, c, exact=False)
        values.append(parts["h1"] + parts["j0"] + parts["j1"])
    return values if many else values[0]


@dataclass
class RateSummary:
    slopes: dict  # field -> least-squares slope over the finest three levels
    pairwise: dict  # field -> list of per-pair incremental rates


_RATE_FIELDS = ("l2", "h1_broken", "norm_a", "norm_b", "j0_value", "j1_value")


def estimate_rates(reports: list[ErrorReport]) -> RateSummary:
    """log-log slopes of each error against h.

    Requires at least three reports at strictly decreasing h and a common p;
    the headline slope is the least-squares fit over the finest three levels,
    with all pairwise incremental rates returned alongside.
    """
    if len(reports) < 3:
        raise InsufficientData(f"need >= 3 reports, got {len(reports)}")
    hs = np.array([r.h for r in reports])
    if not np.all(np.diff(hs) < 0):
        raise InsufficientData("reports must be ordered by strictly decreasing h")
    if len({r.p for r in reports}) != 1:
        raise InsufficientData("reports mix polynomial degrees")
    slopes = {}
    pairwise = {}
    for name in _RATE_FIELDS:
        vals = np.array([getattr(r, name) for r in reports], dtype=float)
        pw = []
        for k in range(len(vals) - 1):
            ok = vals[k] > 0 and vals[k + 1] > 0 and np.isfinite(vals[k]) and np.isfinite(vals[k + 1])
            pw.append(
                float(np.log(vals[k] / vals[k + 1]) / np.log(hs[k] / hs[k + 1]))
                if ok
                else float("nan")
            )
        pairwise[name] = pw
        tail_v = vals[-3:]
        tail_h = hs[-3:]
        if np.all(tail_v > 0) and np.all(np.isfinite(tail_v)):
            slope, _ = np.polyfit(np.log(tail_h), np.log(tail_v), 1)
            slopes[name] = float(slope)
        else:
            slopes[name] = float("nan")
    return RateSummary(slopes=slopes, pairwise=pairwise)
