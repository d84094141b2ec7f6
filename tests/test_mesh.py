import numpy as np
import pytest

from stokes_asgs import build_unit_square_mesh
from stokes_asgs.mesh import Mesh


def test_smallest_grid():
    mesh = build_unit_square_mesh(1)
    assert mesh.n_vertices == 4
    assert mesh.n_triangles == 2
    assert set(np.flatnonzero(mesh.boundary_mask)) == {0, 1, 2, 3}


def test_counts_nx10():
    mesh = build_unit_square_mesh(10)
    assert mesh.n_vertices == 11 ** 2 == 121
    assert mesh.n_triangles == 2 * 10 ** 2 == 200


def test_interior_vertices_nx2():
    mesh = build_unit_square_mesh(2)
    interior = set(np.flatnonzero(~mesh.boundary_mask))
    assert len(interior) == 1
    (v,) = interior
    assert np.allclose(mesh.vertices[v], [0.5, 0.5])


def test_vertex_layout_row_major():
    mesh = build_unit_square_mesh(4)
    for j in range(5):
        for i in range(5):
            assert np.allclose(mesh.vertices[j * 5 + i], [i / 4, j / 4])


def test_boundary_characterisation():
    mesh = build_unit_square_mesh(5)
    for v, (x, y) in enumerate(mesh.vertices):
        on = x in (0.0, 1.0) or y in (0.0, 1.0)
        assert mesh.boundary_mask[v] == on


def test_rejects_nx_zero():
    # a non-integral nx is refused, not truncated
    for nx in (0, 2.5):
        with pytest.raises(ValueError, match="positive integer"):
            build_unit_square_mesh(nx)


def test_accepts_integral_nx_of_any_type():
    for nx in (3, 3.0, np.int64(3)):
        mesh = build_unit_square_mesh(nx)
        assert type(mesh.nx) is int and mesh.nx == 3 and mesh.n_triangles == 18


_UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def test_unit_right_triangle_geometry():
    mesh = build_unit_square_mesh(1)
    # element 1 has vertices (0,0), (1,1), (0,1)
    assert mesh.areas[1] == pytest.approx(0.5, abs=1e-15)
    assert mesh.diameters[1] == pytest.approx(np.sqrt(2.0), abs=1e-15)

    # canonical triangle (0,0), (1,0), (0,1): gradient of the basis at the
    # right-angle vertex is (-1, -1) by differentiating 1 - x - y
    tri = Mesh(1, _UNIT_SQUARE, np.array([[0, 1, 2], [1, 3, 2]]))
    assert tri.areas[0] == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(tri.shape_gradients[0, 0], [-1.0, -1.0], atol=1e-14)
    assert tri.diameters[0] == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_element_areas_nx10():
    mesh = build_unit_square_mesh(10)
    for k in (0, 57, 199):
        assert mesh.areas[k] == pytest.approx(1.0 / 200.0, abs=1e-15)


def test_index_errors():
    # a vertex index outside [0, n_vertices) is refused before any geometry
    # is computed; a negative one would otherwise wrap to a real vertex
    for bad in ([0, 1, 4], [0, 1, -2], [0, 1, -5]):
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            Mesh(1, _UNIT_SQUARE, np.array([[1, 3, 2], bad]))


def test_vertex_index_out_of_range_rejected():
    # an element entry outside [0, n_vertices) never reaches the assembly:
    # the mesh refuses it
    vertices = build_unit_square_mesh(1).vertices
    with pytest.raises(ValueError):
        Mesh(1, vertices, np.array([[0, 1, 4]]))
    with pytest.raises(ValueError):
        Mesh(1, vertices, np.array([[0, -1, 2]]))


@pytest.mark.parametrize("triangle", [[0, 1, 1], [0, 2, 1]])
def test_degenerate_or_clockwise_triangle_rejected(triangle):
    # a repeated vertex has zero area, a clockwise one negative area
    with pytest.raises(ValueError, match="non-positive signed area"):
        Mesh(1, _UNIT_SQUARE, np.array([[1, 3, 2], triangle]))


def test_triangles_match_cell_loop():
    # the index arithmetic of build_unit_square_mesh against the plain loop
    # over cells in row-major order
    for nx in range(1, 41):
        want = []
        for j in range(nx):
            for i in range(nx):
                v00 = j * (nx + 1) + i
                want += [(v00, v00 + 1, v00 + nx + 2),
                         (v00, v00 + nx + 2, v00 + nx + 1)]
        assert np.array_equal(build_unit_square_mesh(nx).triangles, np.array(want))


@pytest.mark.parametrize("nx", [1, 2, 3, 5, 10])
def test_mesh_invariants(nx):
    mesh = build_unit_square_mesh(nx)
    assert abs(mesh.areas.sum() - 1.0) < 1e-12
    assert np.all(mesh.areas > 0)
    assert np.abs(mesh.shape_gradients.sum(axis=1)).max() < 1e-14 * nx
    assert np.abs(mesh.diameters - np.sqrt(2.0) / nx).max() < 1e-14


def test_triangles_counter_clockwise():
    mesh = build_unit_square_mesh(3)
    p = mesh.vertices[mesh.triangles]
    cross = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
    assert np.all(cross > 0)


def test_mesh_arrays_read_only():
    mesh = build_unit_square_mesh(2)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 5.0
