import numpy as np
import pytest

from ipfem.mesh import Rectangle, build_mesh, element_geometry

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
        assert element_geometry(mesh, k).h_k == pytest.approx(expected, rel=1e-14)
    assert mesh.h == pytest.approx(expected, rel=1e-14)


def test_reference_map_unit_cell():
    mesh = build_mesh(UNIT, 1, 1)
    geo = element_geometry(mesh, 0)
    xi = np.array([-1.0, 0.3, 1.0])
    eta = np.array([-1.0, -0.4, 1.0])
    x, y = geo.to_physical(xi, eta)
    assert np.allclose(x, (xi + 1) / 2)
    assert np.allclose(y, (eta + 1) / 2)


def test_map_lower_left_corner():
    mesh = build_mesh(Rectangle(-2.0, 1.0, 4.0, 3.0), 5, 3)
    for k in (0, 7, mesh.n_elements - 1):
        geo = element_geometry(mesh, k)
        x, y = geo.to_physical(-1.0, -1.0)
        assert np.allclose([x, y], geo.corners[0])


def test_row_major_corner_enumeration():
    mesh = build_mesh(BIUNIT, 2, 2)
    geo = element_geometry(mesh, 3)
    expected = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert np.allclose(geo.corners, expected)


def test_area_partition():
    mesh = build_mesh(Rectangle(0.3, -0.7, 2.9, 1.1), 7, 5)
    total = sum(
        4.0 * element_geometry(mesh, k).jacobian_det for k in range(mesh.n_elements)
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
        element_geometry(mesh, 4)


def test_locate_and_candidates():
    mesh = build_mesh(BIUNIT, 4, 4)
    assert mesh.locate(-0.9, -0.9) == 0
    assert mesh.locate(0.9, 0.9) == 15
    # a point on an interior mesh line belongs to two candidate cells
    cands = mesh.locate_candidates(0.0, -0.7, tol=1e-12)
    assert len(cands) == 2
