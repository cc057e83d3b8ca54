import numpy as np
import pytest

from ipfem.mesh import Rectangle, build_mesh, element_map

UNIT = Rectangle(0.0, 0.0, 1.0, 1.0)
BIUNIT = Rectangle(-1.0, -1.0, 1.0, 1.0)


def test_single_cell_counts():
    mesh = build_mesh(UNIT, 1, 1)
    assert mesh.n_elements == 1
    assert mesh.n_vertices == 4


def test_two_by_two_counts():
    mesh = build_mesh(UNIT, 2, 2)
    assert mesh.n_elements == 4
    assert mesh.n_vertices == 9


def test_uniform_diagonal():
    mesh = build_mesh(BIUNIT, 8, 8)
    expected = (2.0 / 8.0) * np.sqrt(2.0)
    for k in range(mesh.n_elements):
        _, half = element_map(mesh, k)
        assert float(np.hypot(*(2.0 * half))) == pytest.approx(expected, rel=1e-14)
    assert mesh.h == pytest.approx(expected, rel=1e-14)


def test_reference_map_unit_cell():
    mesh = build_mesh(UNIT, 1, 1)
    center, half = element_map(mesh, 0)
    xi = np.array([-1.0, 0.3, 1.0])
    eta = np.array([-1.0, -0.4, 1.0])
    x, y = center[0] + half[0] * xi, center[1] + half[1] * eta
    assert np.allclose(x, (xi + 1) / 2)
    assert np.allclose(y, (eta + 1) / 2)


def test_map_lower_left_corner():
    mesh = build_mesh(Rectangle(-2.0, 1.0, 4.0, 3.0), 5, 3)
    for k in (0, 7, mesh.n_elements - 1):
        center, half = element_map(mesh, k)
        x, y = center - half
        assert np.allclose([x, y], mesh.vertices[mesh.elements[k, 0]])


def test_row_major_corner_enumeration():
    mesh = build_mesh(BIUNIT, 2, 2)
    center, half = element_map(mesh, 3)
    expected = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    corners = center + half * np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    assert np.allclose(corners, expected)
    assert np.allclose(mesh.vertices[mesh.elements[3]], expected)


def test_area_partition():
    mesh = build_mesh(Rectangle(0.3, -0.7, 2.9, 1.1), 7, 5)
    total = sum(
        4.0 * float(np.prod(element_map(mesh, k)[1])) for k in range(mesh.n_elements)
    )
    assert total == pytest.approx(mesh.domain.area, rel=1e-13)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_mesh(UNIT, 0, 2)
    with pytest.raises(ValueError):
        build_mesh(UNIT, 2, -1)
    with pytest.raises(ValueError):
        build_mesh(Rectangle(0.0, 0.0, 0.0, 1.0), 2, 2)
    mesh = build_mesh(UNIT, 2, 2)
    with pytest.raises(IndexError):
        element_map(mesh, 4)


def test_locate_and_candidates():
    mesh = build_mesh(BIUNIT, 4, 4)
    assert mesh.locate(-0.9, -0.9) == 0
    assert mesh.locate(0.9, 0.9) == 15
    # arrays: interior lines go to the higher-index cell, the boundary and
    # points beyond it are clamped, each as the scalar call does
    x = np.array([-0.9, 0.0, -1.0, 1.0, 1.5, -0.5])
    y = np.array([-0.9, 0.0, -1.0, 1.0, 0.2, -3.0])
    assert mesh.locate(x, y).tolist() == [0, 10, 0, 15, 11, 1]
    assert mesh.locate(x, y).tolist() == [mesh.locate(a, b) for a, b in zip(x, y)]
    # a point on an interior mesh line belongs to two candidate cells
    cands = mesh.locate_candidates(0.0, -0.7, tol=1e-12)
    assert len(cands) == 2
