"""Structured rectangular meshes of axis-aligned domains.

Elements are numbered row-major (x fastest), vertices likewise, so every
derived quantity is reproducible bit-for-bit across runs.  All objects are
immutable after construction and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle given by its lower-left and upper-right corners."""

    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    def contains(self, x, y, tol: float = 0.0):
        return (
            (x >= self.x0 - tol)
            & (x <= self.x1 + tol)
            & (y >= self.y0 - tol)
            & (y <= self.y1 + tol)
        )


@dataclass(frozen=True, eq=False)
class ElementGeometry:
    """Geometry of one rectangular element.

    The reference map sends [-1,1]^2 to the element with a constant diagonal
    Jacobian diag(half_x, half_y).
    """

    corners: np.ndarray  # (4, 2), counterclockwise from the lower-left corner
    center: np.ndarray  # (2,)
    half: np.ndarray  # (2,) half-widths (dx/2, dy/2)
    h_k: float  # element diagonal

    def to_physical(self, xi, eta):
        return self.center[0] + self.half[0] * np.asarray(xi), self.center[
            1
        ] + self.half[1] * np.asarray(eta)

    def to_reference(self, x, y):
        return (np.asarray(x) - self.center[0]) / self.half[0], (
            np.asarray(y) - self.center[1]
        ) / self.half[1]

    @property
    def jacobian_det(self) -> float:
        return float(self.half[0] * self.half[1])


class Mesh:
    """Uniform nx-by-ny partition of a rectangle into axis-aligned elements.

    Attributes
    ----------
    vertices : (n_vertices, 2) float array, row-major lattice.
    elements : (n_elements, 4) int array of vertex indices, counterclockwise
        from the lower-left corner.
    """

    def __init__(self, domain: Rectangle, nx: int, ny: int):
        if nx < 1 or ny < 1:
            raise ValueError(f"element counts must be positive, got nx={nx} ny={ny}")
        if domain.width <= 0.0 or domain.height <= 0.0:
            raise ValueError(f"degenerate domain rectangle {domain}")
        self.domain = domain
        self.nx = int(nx)
        self.ny = int(ny)
        self.dx = domain.width / nx
        self.dy = domain.height / ny
        self.h = float(np.hypot(self.dx, self.dy))

        xs = domain.x0 + self.dx * np.arange(nx + 1)
        ys = domain.y0 + self.dy * np.arange(ny + 1)
        xv, yv = np.meshgrid(xs, ys, indexing="xy")
        self.vertices = np.column_stack([xv.ravel(), yv.ravel()])
        self.vertices.setflags(write=False)

        i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
        i = i.ravel()
        j = j.ravel()
        v00 = j * (nx + 1) + i
        self.elements = np.column_stack([v00, v00 + 1, v00 + nx + 2, v00 + nx + 1])
        self.elements.setflags(write=False)

    @property
    def n_elements(self) -> int:
        return self.nx * self.ny

    @property
    def n_vertices(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    def element_index(self, i: int, j: int) -> int:
        return j * self.nx + i

    def element_cell(self, k: int):
        """Column/row coordinates (i, j) of element k."""
        return k % self.nx, k // self.nx

    def element_box(self, k: int):
        """Bounding coordinates (x_lo, y_lo, x_hi, y_hi) of element k."""
        i, j = self.element_cell(k)
        x0 = self.domain.x0 + i * self.dx
        y0 = self.domain.y0 + j * self.dy
        return x0, y0, x0 + self.dx, y0 + self.dy

    def locate(self, x: float, y: float) -> int:
        """Element containing (x, y); points on internal lines go to the
        higher-index cell, points on the domain boundary are clamped."""
        fx = (x - self.domain.x0) / self.dx
        fy = (y - self.domain.y0) / self.dy
        i = min(max(int(np.floor(fx)), 0), self.nx - 1)
        j = min(max(int(np.floor(fy)), 0), self.ny - 1)
        return self.element_index(i, j)

    def locate_candidates(self, x: float, y: float, tol: float) -> list[int]:
        """All elements whose closed box contains (x, y) within tol."""
        fx = (x - self.domain.x0) / self.dx
        fy = (y - self.domain.y0) / self.dy
        i_set = {min(max(int(np.floor(fx)), 0), self.nx - 1)}
        j_set = {min(max(int(np.floor(fy)), 0), self.ny - 1)}
        if abs(fx - round(fx)) * self.dx <= tol:
            k = int(round(fx))
            i_set.update(i for i in (k - 1, k) if 0 <= i < self.nx)
        if abs(fy - round(fy)) * self.dy <= tol:
            k = int(round(fy))
            j_set.update(j for j in (k - 1, k) if 0 <= j < self.ny)
        return sorted(self.element_index(i, j) for i in i_set for j in j_set)


def build_mesh(domain: Rectangle, nx: int, ny: int) -> Mesh:
    """Build the uniform structured mesh of ``domain`` with nx-by-ny elements."""
    return Mesh(domain, nx, ny)


def element_geometry(mesh: Mesh, k: int) -> ElementGeometry:
    """Corner coordinates, diagonal h_K and the affine reference map of element k."""
    if not 0 <= k < mesh.n_elements:
        raise IndexError(f"element index {k} out of range [0, {mesh.n_elements})")
    corners = mesh.vertices[mesh.elements[k]]
    center = 0.5 * (corners[0] + corners[2])
    half = np.array([mesh.dx / 2.0, mesh.dy / 2.0])
    return ElementGeometry(corners=corners, center=center, half=half, h_k=mesh.h)
