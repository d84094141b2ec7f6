"""Structured triangulations of the unit square and per-element P1 geometry."""

import numpy as np

# elements per block of a whole-mesh evaluation at quadrature points
ELEMENT_BLOCK = 2048


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
        if self.triangles.size and (self.triangles.min() < 0
                                    or self.triangles.max() >= self.n_vertices):
            raise ValueError(f"triangle vertex indices must lie in [0, {self.n_vertices})")

        x, y = self.vertices[:, 0], self.vertices[:, 1]
        on_boundary = (x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0)
        self.boundary_mask = on_boundary

        self.areas, self.shape_gradients, self.diameters = _geometry_tables(
            self.vertices, self.triangles
        )
        for arr in (self.vertices, self.triangles, self.areas,
                    self.shape_gradients, self.diameters):
            arr.setflags(write=False)
        self._tables = {}

    def table(self, key, build):
        """``build(self)``, computed on the first call for ``key`` and kept."""
        if key not in self._tables:
            self._tables[key] = build(self)
        return self._tables[key]

    def blocks(self):
        """Slices of ``ELEMENT_BLOCK`` consecutive elements, in order; slicing clips the last."""
        return (slice(s, s + ELEMENT_BLOCK) for s in range(0, self.n_triangles, ELEMENT_BLOCK))

    def quad_points(self, rule, elements=slice(None)):
        """Physical coordinates of a quadrature rule on the ``elements``.

        Returns an array of shape (n_elements, n_points, 2), each coordinate
        slice contiguous, computed on each call: its callers evaluate a
        whole mesh one block (``blocks``) at a time and keep what they
        derive per mesh, not the points.
        """
        corners = self.vertices[self.triangles[elements]].transpose(2, 0, 1)  # (2, m, 3)
        return (corners @ rule.points.T).transpose(1, 2, 0)


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
    if nx != int(nx) or nx < 1:
        raise ValueError(f"nx must be a positive integer, got {nx}")
    nx = int(nx)

    side = np.linspace(0.0, 1.0, nx + 1)
    xv, yv = np.meshgrid(side, side, indexing="xy")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    # cell (i, j) has lower-left vertex v00 = j*(nx+1) + i and is split into
    # (v00, v10, v11) and (v00, v11, v01), cells in row-major order
    v00 = (np.arange(nx)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    v10, v01 = v00 + 1, v00 + nx + 1
    v11 = v01 + 1
    triangles = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    return Mesh(nx, vertices, triangles)


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
