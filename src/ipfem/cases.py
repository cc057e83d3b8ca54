"""Catalog of manufactured interface problems on the square (-1, 1)^2.

Each case fixes a curve, a side-wise coefficient and an exact solution pair.
The sources below are hand-derived closed forms (the test suite re-checks
them against finite differences); the interface data g_D and g_N are the
jumps of the exact pair (``with_exact_jumps``), so they cannot disagree with
it.  Solutions are entire, so the observed h-rates are limited by the space
degree and not by regularity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .assembly import Problem
from .geometry import Circle, InterfaceCurve, VerticalLine
from .mesh import Rectangle

DOMAIN = Rectangle(-1.0, -1.0, 1.0, 1.0)


@dataclass
class ManufacturedCase:
    name: str
    description: str
    curve: InterfaceCurve
    problem: Problem
    a_ratio: float  # max(a)/min(a), used by the default penalty choice


def with_exact_jumps(problem: Problem, curve: InterfaceCurve) -> Problem:
    """``problem`` with g_D and g_N the jumps of its exact pair along ``curve``."""
    return replace(problem, g_d=lambda t: problem.jumps(curve, t)[0], g_n=lambda t: problem.jumps(curve, t)[1])


def _circle_jump() -> ManufacturedCase:
    radius = 0.6
    curve = Circle(0.0, 0.0, radius)
    a1 = lambda x, y: np.ones_like(np.asarray(x, dtype=float))
    a2 = lambda x, y: 10.0 * np.ones_like(np.asarray(x, dtype=float))

    def u1(x, y):
        return np.exp(x) * np.sin(y) + x**2 * y

    def grad_u1(x, y):
        return np.exp(x) * np.sin(y) + 2 * x * y, np.exp(x) * np.cos(y) + x**2

    def f1(x, y):
        return -2.0 * y + 0.0 * x

    # side 2: (x^2+y^2-R^2) * (1-x^2)(1-y^2) * cos(x+y); the quadratic factor
    # vanishes on the circle and the box factors vanish on the outer boundary
    def _parts(x, y):
        phi = x**2 + y**2 - radius**2
        g = 1.0 - x**2
        k = 1.0 - y**2
        return phi, g, k

    def u2(x, y):
        phi, g, k = _parts(x, y)
        return phi * g * k * np.cos(x + y)

    def grad_u2(x, y):
        phi, g, k = _parts(x, y)
        c, s = np.cos(x + y), np.sin(x + y)
        p = phi * g * k
        px = 2 * x * k * (g - phi)
        py = 2 * y * g * (k - phi)
        return px * c - p * s, py * c - p * s

    def f2(x, y):
        phi, g, k = _parts(x, y)
        c, s = np.cos(x + y), np.sin(x + y)
        p = phi * g * k
        px = 2 * x * k * (g - phi)
        py = 2 * y * g * (k - phi)
        pxx = 2 * k * (g - phi) - 8 * x**2 * k
        pyy = 2 * g * (k - phi) - 8 * y**2 * g
        lap = (pxx + pyy - 2 * p) * c - 2 * (px + py) * s
        return -10.0 * lap

    problem = Problem(
        a=(a1, a2),
        f=(f1, f2),
        exact=(u1, u2),
        exact_grad=(grad_u1, grad_u2),
    )
    return ManufacturedCase(
        name="circle-jump",
        description="circle R=0.6, a=(1,10), nontrivial jumps in value and flux",
        curve=curve,
        problem=with_exact_jumps(problem, curve),
        a_ratio=10.0,
    )


def _aligned_edge() -> ManufacturedCase:
    curve = VerticalLine(0.0, -1.0, 1.0)
    a1 = lambda x, y: np.ones_like(np.asarray(x, dtype=float))
    a2 = lambda x, y: 10.0 * np.ones_like(np.asarray(x, dtype=float))

    def u1(x, y):
        return (1.0 + x) * (1.0 - y**2) * np.sin(y + 1.0)

    def grad_u1(x, y):
        s = np.sin(y + 1.0)
        c = np.cos(y + 1.0)
        return (1.0 - y**2) * s, (1.0 + x) * (-2 * y * s + (1.0 - y**2) * c)

    def f1(x, y):
        s = np.sin(y + 1.0)
        c = np.cos(y + 1.0)
        return (1.0 + x) * (2 * s + 4 * y * c + (1.0 - y**2) * s)

    def u2(x, y):
        return (1.0 - x) * (1.0 - y**2) * (x + np.cos(y))

    def grad_u2(x, y):
        cy = np.cos(y)
        sy = np.sin(y)
        ux = (1.0 - 2 * x - cy) * (1.0 - y**2)
        uy = (1.0 - x) * (-2 * y * (x + cy) - (1.0 - y**2) * sy)
        return ux, uy

    def f2(x, y):
        cy = np.cos(y)
        sy = np.sin(y)
        uxx = -2.0 * (1.0 - y**2)
        uyy = (1.0 - x) * (-2 * (x + cy) + 4 * y * sy - (1.0 - y**2) * cy)
        return -10.0 * (uxx + uyy)

    problem = Problem(
        a=(a1, a2),
        f=(f1, f2),
        exact=(u1, u2),
        exact_grad=(grad_u1, grad_u2),
    )
    return ManufacturedCase(
        name="aligned-edge",
        description="interface on the mesh line x=0 (shared-edge trace branch)",
        curve=curve,
        problem=with_exact_jumps(problem, curve),
        a_ratio=10.0,
    )


def _smooth_nojump() -> ManufacturedCase:
    curve = Circle(0.0, 0.0, 0.5)

    def a(x, y):
        return 2.0 + np.cos(x) * np.cos(y)

    def u(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    def grad_u(x, y):
        return (
            np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
        )

    def f(x, y):
        ux, uy = grad_u(x, y)
        return (
            np.sin(x) * np.cos(y) * ux
            + np.cos(x) * np.sin(y) * uy
            + 2.0 * np.pi**2 * a(x, y) * u(x, y)
        )

    problem = Problem(
        a=(a, a),
        f=(f, f),
        exact=(u, u),
        exact_grad=(grad_u, grad_u),
    )
    return ManufacturedCase(
        name="smooth-nojump",
        description="globally smooth solution, continuous coefficient (sanity)",
        curve=curve,
        problem=with_exact_jumps(problem, curve),
        a_ratio=3.0,
    )


def catalog() -> dict[str, ManufacturedCase]:
    """All built-in cases, keyed by name."""
    cases = [_circle_jump(), _aligned_edge(), _smooth_nojump()]
    return {c.name: c for c in cases}
