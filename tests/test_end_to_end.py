"""End-to-end gates on manufactured problems built here, not in the catalog:
an algebraic p-rate on a solution of finite regularity, and the whole
pipeline on random conics.  Both take g_D and g_N from the jumps of their
exact pair (``cases.with_exact_jumps``), so no interface data is derived by
hand."""

import math
from dataclasses import replace

import numpy as np

from ipfem.assembly import Problem
from ipfem.cases import ManufacturedCase, catalog, with_exact_jumps
from ipfem.cli import _spread
from ipfem.errors import compute_errors
from ipfem.geometry import Circle, Ellipse, MultiIntersection, TangencyUnresolved, UnresolvedTopology
from ipfem.quadrature import QuadratureError, pass_order
from ipfem.solver import solve

from helpers import build_pipeline, random_conic

# ---------------------------------------------------------------------------
# An algebraic p-rate: aligned-edge plus w = (1 - x^2)(1 - y^2)|y - Y0|^ALPHA
# on both sides, so w is in H^(3 - eps) and its singular line y = Y0 is a line
# of the nx = 4 mesh.  There the energy error falls like p^(-2(s - 1)), the
# doubled rate of a singularity on mesh lines (Babuska and Suri, SIAM J.
# Numer. Anal. 24 (1987)), well above the paper's bound p^(-(s - 3/2)).

Y0, ALPHA = 0.5, 2.5
P_RATE_DEGREES = (4, 5, 6, 7, 8)
P_RATE_NX, P_RATE_QUAD_EXTRA = 4, 12
P_RATE_BOUND = -3.5  # fixed before the first run; measured NIP -3.86, SIP -3.89
PAPER_P_RATE = -(3.0 - 1.5)  # -(s - 3/2) with s = 3


def _w(x, y):
    return (1.0 - x**2) * (1.0 - y**2) * np.abs(y - Y0) ** ALPHA


def _grad_w(x, y):
    d = y - Y0
    s = np.abs(d) ** ALPHA
    ds = ALPHA * d * np.abs(d) ** (ALPHA - 2.0)
    return -2.0 * x * (1.0 - y**2) * s, (1.0 - x**2) * (-2.0 * y * s + (1.0 - y**2) * ds)


def _laplacian_w(x, y):
    d = y - Y0
    s = np.abs(d) ** ALPHA
    ds = ALPHA * d * np.abs(d) ** (ALPHA - 2.0)
    dds = ALPHA * (ALPHA - 1.0) * np.abs(d) ** (ALPHA - 2.0)
    k = 1.0 - y**2
    return -2.0 * k * s + (1.0 - x**2) * (-2.0 * s - 4.0 * y * ds + k * dds)


def _finite_regularity_case() -> ManufacturedCase:
    """aligned-edge with w added to both sides; only the source changes by
    hand, f_i - a_i lap w."""
    case = catalog()["aligned-edge"]
    base = case.problem

    def side(i):
        def f(x, y):
            return base.f[i](x, y) - base.a[i](x, y) * _laplacian_w(x, y)

        def u(x, y):
            return base.exact[i](x, y) + _w(x, y)

        def grad_u(x, y):
            (ux, uy), (wx, wy) = base.exact_grad[i](x, y), _grad_w(x, y)
            return ux + wx, uy + wy

        return f, u, grad_u

    f, exact, exact_grad = zip(side(0), side(1))
    problem = Problem(a=base.a, f=f, exact=exact, exact_grad=exact_grad)
    return replace(case, name="aligned-edge-w", problem=with_exact_jumps(problem, case.curve))


def test_finite_regularity_part_is_consistent():
    # gradient and Laplacian of w against central differences off y = Y0
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.9, 0.9, 40)
    y = np.concatenate([rng.uniform(-0.9, 0.4, 20), rng.uniform(0.6, 0.9, 20)])
    h = 1e-5
    wx, wy = _grad_w(x, y)
    assert np.allclose(wx, (_w(x + h, y) - _w(x - h, y)) / (2 * h), atol=1e-8)
    assert np.allclose(wy, (_w(x, y + h) - _w(x, y - h)) / (2 * h), atol=1e-8)
    lap = (_grad_w(x + h, y)[0] - _grad_w(x - h, y)[0] + _grad_w(x, y + h)[1] - _grad_w(x, y - h)[1]) / (2 * h)
    assert np.allclose(_laplacian_w(x, y), lap, atol=1e-7)


def _p_slope(beta, gamma0, gamma1):
    """Least-squares slope of log normA against log p over P_RATE_DEGREES."""
    case = _finite_regularity_case()
    norms = []
    for p in P_RATE_DEGREES:
        _, topology, space, params, system = build_pipeline(
            case, p, P_RATE_NX, beta=beta, gamma0=gamma0, gamma1=gamma1, quad_extra=P_RATE_QUAD_EXTRA)
        report = solve(system)
        err = compute_errors(space, topology, case.problem, report.solution, params,
                             quad_order=pass_order(p, errors=True) + P_RATE_QUAD_EXTRA)
        norms.append(err.norm_a)
    return float(np.polyfit(np.log(P_RATE_DEGREES), np.log(norms), 1)[0]), norms


def test_algebraic_p_rate_on_a_finite_regularity_solution():
    # gates the hp rate only: a broken p-scaling of either penalty leaves
    # this slope near -3.87, so it is no check on the penalty weights
    for name, beta, gamma0, gamma1 in (("NIP", -1, 1.0, 1.0), ("SIP", 1, 220.0, 1.0)):
        slope, norms = _p_slope(beta, gamma0, gamma1)
        assert slope <= P_RATE_BOUND, (name, slope, norms)
        assert slope < PAPER_P_RATE, (name, slope, norms)
        print(f"PASS algebraic p-rate ({name}): slope(normA) over p = 4..8 is {slope:.3f} "
              f"(bound {P_RATE_BOUND}, paper {PAPER_P_RATE})")


# ---------------------------------------------------------------------------
# The whole pipeline on random circles and ellipses: classify -> space ->
# assemble -> solve -> errors, plus a second pivot order for delta.

A_VALUES = (1.0, 10.0)


def _u(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def _grad_u(x, y):
    return np.pi * np.cos(np.pi * x) * np.sin(np.pi * y), np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)


def _conic_case(curve) -> ManufacturedCase:
    """u = sin(pi x) sin(pi y) on both sides, a = (1, 10), f_i = 2 pi^2 a_i u."""
    def constant(value):
        return lambda x, y: value * np.ones_like(np.asarray(x, dtype=float))

    def source(a_i):
        return lambda x, y: 2.0 * np.pi**2 * a_i * _u(x, y)

    problem = Problem(a=tuple(map(constant, A_VALUES)), f=tuple(map(source, A_VALUES)),
                      exact=(_u, _u), exact_grad=(_grad_u, _grad_u))
    return ManufacturedCase(name="random-conic", description=curve.name, curve=curve,
                            problem=with_exact_jumps(problem, curve), a_ratio=10.0)


# conics tangent to the grid line y = 0, whose pinched cut sides are refused
# at some rule orders: (curve, nx, p)
PINCHED_CONIC_RUNS = (
    (Circle(0.0297, 0.08, 0.08), 6, 2),
    (Ellipse(0.364, 0.274, 0.145, 0.274), 12, 2),
    (Ellipse(0.364, 0.364, 0.145, 0.364), 12, 2),
)


def _conic_runs(seed=1, count=30):
    """Random conics (``helpers.random_conic``), mesh sizes and degrees; as
    in the classification test, some curves leave the domain or meet a cell
    more than twice."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield random_conic(rng), int(rng.integers(6, 25)), int(rng.choice((1, 2)))


def _touches_a_grid_line(curve, nx) -> bool:
    """Whether an extreme point of the axis-aligned conic lies on a line of
    the nx-by-nx grid of (-1, 1)^2, up to rounding: a tangent touch."""
    h = 2.0 / nx
    semi = (curve.radius, curve.radius) if isinstance(curve, Circle) else (curve.a, curve.b)
    ends = [c + sign * s for c, s in zip(curve.center, semi) for sign in (-1.0, 1.0)]
    return any(abs(-1.0 + round((v + 1.0) / h) * h - v) <= 1e-12 * h for v in ends)


def test_pipeline_on_random_conics():
    outcomes = []
    for curve, nx, p in PINCHED_CONIC_RUNS + tuple(_conic_runs()):
        try:
            outcomes.append(_pipeline_outcome(curve, nx, p))
        except Exception as exc:
            raise AssertionError(f"{curve.name} at nx = {nx}, p = {p}") from exc
    # the pinched runs keep the refusal path covered
    assert "refused" in outcomes[:len(PINCHED_CONIC_RUNS)], outcomes


def _pipeline_outcome(curve, nx, p) -> str:
    """How one run ends: solved, rejected by classification, or refused by a
    pinched cut rule."""
    case = _conic_case(curve)
    try:
        _, topology, space, params, system = build_pipeline(case, p, nx, beta=1, gamma0=220.0, gamma1=1.0)
        matrix = system.matrix
        assert abs(matrix - matrix.T).max() <= 1e-13 * abs(matrix).max()
        report = solve(system)
        assert report.rel_residual <= 1e-10
        err = compute_errors(space, topology, case.problem, report.solution, params)
        assert all(math.isfinite(v) for v in (err.l2, err.h1_broken, err.norm_a, err.norm_b, err.j0_value, err.j1_value))
        # delta: the solution must not depend on the pivot order, at any cut fraction
        assert _spread(space, topology, case.problem, system, report.solution, 0) <= 1e-8
    except (MultiIntersection, TangencyUnresolved, UnresolvedTopology):
        return "rejected"
    except QuadratureError as exc:
        # classification keeps a grid-tangent touch (the grazing merge), which
        # pinches a cut side; its cut rule is refused at some orders only
        if not (_touches_a_grid_line(curve, nx) and "pinching the region" in str(exc)):
            raise
        return "refused"
    return "solved"
