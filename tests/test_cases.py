import numpy as np
import pytest

from ipfem.cases import DOMAIN, catalog
from ipfem.geometry import classify_elements
from ipfem.mesh import build_mesh

# analytic coefficient gradients per case (the FD residual oracle needs them;
# the two jump cases use piecewise-constant a)
A_GRADS = {
    "circle-jump": (
        lambda x, y: (0.0 * x, 0.0 * y),
        lambda x, y: (0.0 * x, 0.0 * y),
    ),
    "aligned-edge": (
        lambda x, y: (0.0 * x, 0.0 * y),
        lambda x, y: (0.0 * x, 0.0 * y),
    ),
    "smooth-nojump": (
        lambda x, y: (-np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)),
        lambda x, y: (-np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)),
    ),
}


def _fd_gradient(u, x, y, h=1e-6):
    return (
        (u(x + h, y) - u(x - h, y)) / (2 * h),
        (u(x, y + h) - u(x, y - h)) / (2 * h),
    )


def _fd_laplacian(u, x, y, h):
    return (
        u(x + h, y) + u(x - h, y) + u(x, y + h) + u(x, y - h) - 4.0 * u(x, y)
    ) / h**2


def _fd_laplacian_richardson(u, x, y, h=2e-3):
    # 5-point Laplacian at h and h/2, Richardson-extrapolated to O(h^4)
    lap_h = _fd_laplacian(u, x, y, h)
    lap_h2 = _fd_laplacian(u, x, y, h / 2)
    return (4.0 * lap_h2 - lap_h) / 3.0


def test_catalog_contents():
    cases = catalog()
    assert len(cases) >= 3
    assert {"circle-jump", "aligned-edge", "smooth-nojump"} <= set(cases)
    for case in cases.values():
        assert case.description


@pytest.mark.parametrize("name", ["circle-jump", "aligned-edge", "smooth-nojump"])
def test_pde_residual_vanishes(name):
    # -div(a grad u) - f = 0 at 100 random points per side, FD oracle
    case = catalog()[name]
    rng = np.random.default_rng(101)
    ga1, ga2 = A_GRADS[name]
    for side in (1, 2):
        u = case.problem.exact[side - 1]
        f = case.problem.f[side - 1]
        a = case.problem.a[side - 1]
        g_a = (ga1, ga2)[side - 1]
        pts = []
        while len(pts) < 100:
            x, y = rng.uniform(-0.93, 0.93, 2)
            d = float(case.curve.signed_distance(x, y))
            if (d < -0.02 and side == 1) or (d > 0.02 and side == 2):
                pts.append((x, y))
        for x, y in pts:
            ux, uy = _fd_gradient(u, x, y)
            lap = _fd_laplacian_richardson(u, x, y)
            gax, gay = g_a(x, y)
            resid = -(gax * ux + gay * uy) - a(x, y) * lap - f(x, y)
            assert abs(resid) < 1e-8, (name, side, x, y, resid)


@pytest.mark.parametrize("name", ["circle-jump", "aligned-edge", "smooth-nojump"])
def test_gradients_match_fd(name):
    case = catalog()[name]
    rng = np.random.default_rng(7)
    for side in (1, 2):
        u = case.problem.exact[side - 1]
        gu = case.problem.exact_grad[side - 1]
        x = rng.uniform(-0.9, 0.9, 50)
        y = rng.uniform(-0.9, 0.9, 50)
        gx, gy = gu(x, y)
        fx, fy = _fd_gradient(u, x, y)
        assert np.max(np.abs(gx - fx)) < 1e-8
        assert np.max(np.abs(gy - fy)) < 1e-8


@pytest.mark.parametrize("name", ["circle-jump", "aligned-edge", "smooth-nojump"])
def test_interface_data_consistent(name):
    case = catalog()[name]
    case.problem.validate(case.curve, n=50, seed=3, tol=1e-10)


@pytest.mark.parametrize("name", ["circle-jump", "aligned-edge", "smooth-nojump"])
def test_interface_data_are_the_jumps_of_the_exact_pair(name):
    # no case states g_D or g_N by hand: both are the exact pair's jumps
    case = catalog()[name]
    t = np.linspace(0.0, case.curve.period, 97)
    jump_u, jump_flux = case.problem.jumps(case.curve, t)
    assert np.asarray(case.problem.g_d(t), dtype=float).tobytes() == jump_u.tobytes()
    assert np.asarray(case.problem.g_n(t), dtype=float).tobytes() == jump_flux.tobytes()


def test_homogeneous_dirichlet_data():
    cases = catalog()
    t = np.linspace(-1.0, 1.0, 101)
    borders = [
        (t, np.full_like(t, -1.0)),
        (t, np.full_like(t, 1.0)),
        (np.full_like(t, -1.0), t),
        (np.full_like(t, 1.0), t),
    ]
    # circle-jump: only side 2 touches the outer boundary
    u2 = cases["circle-jump"].problem.exact[1]
    for x, y in borders:
        assert np.max(np.abs(u2(x, y))) < 1e-14
    # aligned-edge: side 1 covers x<0, side 2 covers x>0
    u1 = cases["aligned-edge"].problem.exact[0]
    u2 = cases["aligned-edge"].problem.exact[1]
    xs = np.linspace(-1.0, 0.0, 51)
    assert np.max(np.abs(u1(np.full_like(t, -1.0), t))) < 1e-14
    assert np.max(np.abs(u1(xs, np.ones_like(xs)))) < 1e-14
    assert np.max(np.abs(u1(xs, -np.ones_like(xs)))) < 1e-14
    assert np.max(np.abs(u2(np.full_like(t, 1.0), t))) < 1e-14
    u = cases["smooth-nojump"].problem.exact[0]
    for x, y in borders:
        assert np.max(np.abs(u(x, y))) < 1e-13


def test_nontrivial_interface_data():
    case = catalog()["circle-jump"]
    t = np.linspace(0.0, case.curve.period, 64, endpoint=False)
    assert np.max(np.abs(case.problem.g_d(t))) > 0.1
    assert np.max(np.abs(case.problem.g_n(t))) > 0.1


def test_coefficient_bounds():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 200)
    y = rng.uniform(-1, 1, 200)
    for case in catalog().values():
        a1 = np.asarray(case.problem.a[0](x, y))
        a2 = np.asarray(case.problem.a[1](x, y))
        lo = min(a1.min(), a2.min())
        hi = max(a1.max(), a2.max())
        assert lo > 0.0
        assert hi / lo <= case.a_ratio + 1e-12


def test_case_curves_classify_cleanly():
    for case in catalog().values():
        mesh = build_mesh(DOMAIN, 8, 8)
        top = classify_elements(mesh, case.curve)
        assert len(top.segments) > 0
