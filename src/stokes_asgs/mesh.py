"""Structured triangulations of the unit square and per-element P1 geometry."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ElementGeometry:
    """Geometry of one linear triangle.

    Attributes
    ----------
    area : float
        Triangle area (positive for counter-clockwise vertices).
    vertex_coords : ndarray, shape (3, 2)
        Vertex coordinates in counter-clockwise order.
    shape_gradients : ndarray, shape (3, 2)
        Constant gradients of the three barycentric basis functions.
    diameter : float
        Longest edge length.
    """

    area: float
    vertex_coords: np.ndarray
    shape_gradients: np.ndarray
    diameter: float


class Mesh:
    """Triangulation of the unit square (0,1) x (0,1).

    Vertex (i, j) sits at (i/nx, j/nx) with row-major index j*(nx+1) + i.
    Every grid cell is split along its bottom-left to top-right diagonal
    into two counter-clockwise triangles, so the triangulation is fully
    deterministic.  Instances are immutable after construction and safe to
    share read-only.
    """

    def __init__(self, nx, vertices, triangles):
        self.nx = nx
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.n_vertices = self.vertices.shape[0]
        self.n_triangles = self.triangles.shape[0]

        x, y = self.vertices[:, 0], self.vertices[:, 1]
        on_boundary = (x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0)
        self.boundary_mask = on_boundary
        self.boundary_vertices = frozenset(np.nonzero(on_boundary)[0].tolist())

        self.areas, self.shape_gradients, self.diameters = _geometry_tables(
            self.vertices, self.triangles
        )
        for arr in (self.vertices, self.triangles, self.areas,
                    self.shape_gradients, self.diameters):
            arr.setflags(write=False)
        self._quad_point_cache = {}

    def quad_points(self, rule):
        """Physical coordinates of a quadrature rule on every element.

        Returns an array of shape (n_triangles, n_points, 2), each coordinate
        slice contiguous; the result is cached per rule degree.
        """
        key = rule.degree
        if key not in self._quad_point_cache:
            corners = self.vertices[self.triangles].transpose(2, 0, 1)  # (2, m, 3)
            pts = (corners @ rule.points.T).transpose(1, 2, 0)
            pts.setflags(write=False)
            self._quad_point_cache[key] = pts
        return self._quad_point_cache[key]


def build_unit_square_mesh(nx):
    """Build the structured nx-by-nx triangulation of the unit square.

    Parameters
    ----------
    nx : int
        Number of grid subdivisions per side, at least 1.

    Returns
    -------
    Mesh
        (nx+1)^2 vertices and 2*nx^2 triangles.
    """
    nx = int(nx)
    if nx < 1:
        raise ValueError(f"nx must be a positive integer, got {nx}")

    side = np.linspace(0.0, 1.0, nx + 1)
    xv, yv = np.meshgrid(side, side, indexing="xy")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    triangles = np.empty((2 * nx * nx, 3), dtype=np.int64)
    k = 0
    for j in range(nx):
        for i in range(nx):
            v00 = j * (nx + 1) + i
            v10 = v00 + 1
            v01 = v00 + (nx + 1)
            v11 = v01 + 1
            triangles[k] = (v00, v10, v11)
            triangles[k + 1] = (v00, v11, v01)
            k += 2
    return Mesh(nx, vertices, triangles)


def element_geometry(mesh, k):
    """Geometry of triangle ``k`` of ``mesh``.

    Raises ``IndexError`` for an out-of-range index; generated meshes never
    contain degenerate triangles, but a zero-area triangle raises
    ``ValueError`` as a hard error.
    """
    if not 0 <= k < mesh.n_triangles:
        raise IndexError(f"triangle index {k} out of range [0, {mesh.n_triangles})")
    area = float(mesh.areas[k])
    if area <= 0.0:
        raise ValueError(f"triangle {k} is degenerate (area {area})")
    return ElementGeometry(
        area=area,
        vertex_coords=mesh.vertices[mesh.triangles[k]],
        shape_gradients=mesh.shape_gradients[k],
        diameter=float(mesh.diameters[k]),
    )


def _geometry_tables(vertices, triangles):
    """Areas, barycentric gradients and diameters for all triangles at once."""
    p = vertices[triangles]  # (m, 3, 2)
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    two_area = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    if np.any(two_area <= 0.0):
        bad = int(np.argmin(two_area))
        raise ValueError(f"triangle {bad} has non-positive signed area")
    areas = 0.5 * two_area

    # grad(lambda_i) is the +90 degree rotation of the opposite edge vector
    # v_{i+2} - v_{i+1}, scaled by 1/(2*area).
    grads = np.empty_like(p)
    for i in range(3):
        d = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        grads[:, i, 0] = -d[:, 1] / two_area
        grads[:, i, 1] = d[:, 0] / two_area

    edges = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]], axis=1)
    diameters = np.sqrt((edges ** 2).sum(axis=2)).max(axis=1)
    return areas, grads, diameters
