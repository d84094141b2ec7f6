"""P1 Lagrange basis, triangle quadrature, degree-of-freedom layout and the
sum of element arrays onto the vertices.

Every element-to-vertex sum in the package goes through ``assemble_vector``
((m, 3[, d]) element vectors to (n[, d]) nodal vectors), ``assemble_matrix``
((m, 3, 3) element matrices to an n x n CSR matrix on the P1
vertex-coupling pattern, built once per mesh) or ``assemble_system`` (nine
such blocks written straight into the data of the blocked system's CSR,
whose pattern is also built once per mesh).

Global unknowns are blocked as [u1 | u2 | p | mean-pressure multiplier]:
velocity components first (one scalar dof per vertex each), then pressure
(one dof per vertex, equal order), then a single Lagrange multiplier that
pins the pressure mean to zero.  This layout, with identity rows on the
Dirichlet dofs, is that of the assembled system; the direct solver
factorizes only its interior part, vertex by vertex in the dofmap's
nested-dissection order, and recovers the multiplier.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class QuadratureRule:
    """Symmetric Gaussian rule on the reference triangle.

    ``points`` holds barycentric triples, ``weights`` are normalized so they
    sum to one; the physical integral over a triangle of area A is
    A * sum(w_q * f(x_q)).
    """

    points: np.ndarray
    weights: np.ndarray


def _rule_degree5():
    # 7-point rule; orbit coordinates are algebraic in sqrt(15).
    s15 = np.sqrt(15.0)
    b1 = (6.0 - s15) / 21.0
    b2 = (6.0 + s15) / 21.0
    w1 = (155.0 - s15) / 1200.0
    w2 = (155.0 + s15) / 1200.0
    third = 1.0 / 3.0
    points = np.array([
        [third, third, third],
        [1.0 - 2.0 * b1, b1, b1],
        [b1, 1.0 - 2.0 * b1, b1],
        [b1, b1, 1.0 - 2.0 * b1],
        [1.0 - 2.0 * b2, b2, b2],
        [b2, 1.0 - 2.0 * b2, b2],
        [b2, b2, 1.0 - 2.0 * b2],
    ])
    weights = np.array([9.0 / 40.0, w1, w1, w1, w2, w2, w2])
    return points, weights


def _rule_degree8():
    # 16-point rule.  Orbit constants were Newton-refined against the full
    # set of degree-8 moment equations; commonly tabulated 15-digit values
    # are off by ~1e-11 on the hardest monomials.
    pts = [[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]]
    wts = [0.1443156076777871]
    three_orbits = [
        (0.0950916342672872, 0.0814148234145587),
        (0.1032173705347178, 0.6588613844964892),
        (0.0324584976231974, 0.8989055433659401),
    ]
    for w, a in three_orbits:
        b = 0.5 * (1.0 - a)
        for perm in ((a, b, b), (b, a, b), (b, b, a)):
            pts.append(list(perm))
            wts.append(w)
    w6 = 0.0272303141744349
    a, b = 0.0083947774099546, 0.2631128296346465
    c = 1.0 - a - b
    for perm in ((a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)):
        pts.append(list(perm))
        wts.append(w6)
    points = np.array(pts)
    weights = np.array(wts)
    weights /= weights.sum()
    return points, weights


def _frozen_rule(build):
    points, weights = build()
    points.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(points=points, weights=weights)


_RULES = {d: _frozen_rule(build) for d, build in
          ((5, _rule_degree5), (8, _rule_degree8))}


def quadrature_rule(degree):
    """Return the quadrature rule exact to ``degree`` (5 or 8).

    Each rule is built once; every call returns the same read-only object.
    """
    if degree not in _RULES:
        raise ValueError(f"unsupported quadrature degree {degree}; choose from {sorted(_RULES)}")
    return _RULES[degree]


@dataclass(frozen=True)
class DofMap:
    """Blocked global dof layout for the equal-order P1/P1 pair.

    Attributes
    ----------
    n_u : int
        Scalar velocity dofs per component (= number of vertices).
    n_p : int
        Pressure dofs (= number of vertices).
    dirichlet_dofs : ndarray
        Sorted global indices of constrained velocity dofs (both components
        of every boundary vertex).
    mean_vector : ndarray, shape (n_p,)
        Integrals of the pressure basis functions; its entries sum to the
        domain area.
    elimination_order : ndarray, shape (n_u,)
        The vertices in the order the direct solver eliminates their dofs
        (``nested_dissection``).
    """

    n_u: int
    n_p: int
    dirichlet_dofs: np.ndarray
    mean_vector: np.ndarray
    elimination_order: np.ndarray

    @property
    def n_dofs(self):
        return 2 * self.n_u + self.n_p + 1

    @property
    def multiplier_index(self):
        return 2 * self.n_u + self.n_p

    def dirichlet_mask(self):
        mask = np.zeros(self.n_dofs, dtype=bool)
        mask[self.dirichlet_dofs] = True
        return mask


def build_dofmap(mesh):
    """Dof layout, Dirichlet set and pressure mean weights for ``mesh``."""
    n = mesh.n_vertices
    boundary = np.nonzero(mesh.boundary_mask)[0]
    dirichlet = np.sort(np.concatenate([boundary, n + boundary]))

    mean_vector = assemble_vector(
        mesh, np.broadcast_to((mesh.areas / 3.0)[:, None], mesh.triangles.shape))

    order = nested_dissection(mesh.vertices)
    for arr in (dirichlet, mean_vector, order):
        arr.setflags(write=False)
    return DofMap(n_u=n, n_p=n, dirichlet_dofs=dirichlet, mean_vector=mean_vector,
                  elimination_order=order)


def _bisection_digits(n, depth):
    """(depth, n) side of each point 0..n-1 of a line at every level of its
    recursive bisection: 0 left of the cut, 1 right, 2 the cut, 0 after it.
    The bisection of n points has n.bit_length() levels."""
    index, lo, hi, digits = np.arange(n), np.zeros(n, dtype=np.int64), np.full(n, n), []
    for _ in range(depth):  # a cut point leaves with lo = hi = its index + 1
        mid = (lo + hi) // 2
        digits.append(np.where(index == mid, 2, index > mid))
        lo = np.where(index >= mid, mid + 1, lo)
        hi = np.where(index < mid, mid, np.where(index == mid, mid + 1, hi))
    return np.array(digits)


def nested_dissection(vertices):
    """Vertex order of a recursive bisection along grid lines (George 1973):
    each axis is bisected at the middle of its sorted distinct coordinates,
    the cuts alternate x, y, x, ..., and a part is ordered left, right, then
    its cut line.  On a tensor grid every cut line separates its two parts;
    other vertex sets still get a permutation."""
    axes = [np.unique(coord, return_inverse=True) for coord in vertices.T]
    depth = max(values.size for values, _ in axes).bit_length()
    keys = np.stack([_bisection_digits(values.size, depth)[:, rank]
                     for values, rank in axes], axis=1)  # x, y, x, ... per level
    return np.lexsort(keys.reshape(2 * depth, -1)[::-1])


def assemble_vector(mesh, local):
    """Sum of the element vectors ``local`` (m, 3[, d]) onto the vertices.

    Entry i of element k adds to vertex triangles[k, i], in element order;
    returns shape (n_vertices[, d]).
    """
    tri, n = mesh.triangles.ravel(), mesh.n_vertices
    cols = local.reshape(tri.size, math.prod(local.shape[2:]))
    return np.stack([np.bincount(tri, weights=cols[:, c], minlength=n)
                     for c in range(cols.shape[1])], axis=-1).reshape((n,) + local.shape[2:])


def _p1_pattern(mesh):
    """Read-only CSR (indptr, indices) of the vertex pairs that share an
    element, and the position in ``indices`` of every element entry
    (k, i, j), (m, 3, 3)."""
    n, tri = mesh.n_vertices, mesh.triangles
    pairs, slots = np.unique((tri[:, :, None] * n + tri[:, None, :]).ravel(),
                             return_inverse=True)
    dtype = np.int32 if pairs.size < 2 ** 31 else np.int64  # as scipy would choose
    indptr = np.searchsorted(pairs, n * np.arange(n + 1)).astype(dtype)
    indices = (pairs % n).astype(dtype)
    for arr in (indptr, indices):
        arr.setflags(write=False)
    return indptr, indices, slots.reshape(tri.shape + (3,))


def assemble_matrix(mesh, local):
    """Sum of the element matrices ``local`` (m, 3, 3) into an n x n CSR matrix.

    Entry (i, j) of element k adds to (triangles[k, i], triangles[k, j]).
    The pattern is every vertex pair that shares an element, whatever the
    values: a sum that is zero stays a stored entry.  The index arrays are
    the mesh's, shared by every matrix assembled on it.
    """
    indptr, indices, slots = mesh.table("p1_pattern", _p1_pattern)
    n = mesh.n_vertices
    data = np.bincount(slots.ravel(), weights=np.ravel(local), minlength=indices.size)
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _scatter(mesh, indptr, blocks, constraints, dtype):
    """An array laid out as the data of the system with row pointers
    ``indptr``: the kept entries of the P1 pattern in block (r, c) hold
    ``blocks(r, c)``, called one block at a time, and the Dirichlet rows'
    diagonals, the multiplier column and the multiplier row hold the three
    ``constraints``."""
    p1_indptr = mesh.table("p1_pattern", _p1_pattern)[0]
    n = mesh.n_vertices
    length = np.diff(p1_indptr)
    row = np.repeat(np.arange(n), length)
    out = np.empty(indptr[-1], dtype=dtype)
    for r in range(3):
        # the entries that block row r keeps, where each lands in block
        # column 0, and its row's length, by which each next column shifts it
        kept = np.arange(row.size)
        if r < 2:
            kept = kept[~mesh.boundary_mask[row]]
        first = kept + (indptr[r * n:(r + 1) * n] - p1_indptr[:-1])[row[kept]]
        shift = length[row[kept]]
        for c in range(3):
            out[first + c * shift] = blocks(r, c)[kept]
    diagonal, column, multiplier_row = constraints
    out[indptr[:2 * n][np.tile(mesh.boundary_mask, 2)]] = diagonal
    out[indptr[2 * n + 1:3 * n + 1] - 1] = column
    out[indptr[3 * n]:] = multiplier_row
    return out


def _system_pattern(mesh):
    """Read-only CSR (indptr, indices) of the blocked [u1 | u2 | p] system:
    row r*n + v holds vertex v's P1 row in each of the three block columns,
    except that a Dirichlet row (either velocity component of a boundary
    vertex, as ``build_dofmap`` lays them out) holds only its diagonal, a
    pressure row ends with the multiplier column, and the multiplier row
    holds every pressure column."""
    p1_indptr, p1_indices, _ = mesh.table("p1_pattern", _p1_pattern)
    n = mesh.n_vertices
    dirichlet = np.tile(mesh.boundary_mask, 2)
    size = np.tile(3 * np.diff(p1_indptr), 3)
    size[:2 * n][dirichlet] = 1
    size[2 * n:] += 1
    size = np.append(size, n)
    dtype = np.int32 if size.sum() < 2 ** 31 else np.int64
    indptr = np.concatenate([[0], np.cumsum(size)]).astype(dtype)
    indices = _scatter(mesh, indptr, lambda r, c: c * n + p1_indices,
                       (np.flatnonzero(dirichlet), 3 * n, 2 * n + np.arange(n)), dtype)
    for arr in (indptr, indices):
        arr.setflags(write=False)
    return indptr, indices


def assemble_system(mesh, dofmap, block):
    """The constrained blocked [u1 | u2 | p] system whose block (r, c) is
    ``assemble_matrix(mesh, block(r, c))``, bitwise, as one CSR matrix,
    with identity rows on the Dirichlet dofs and the mean-pressure
    multiplier row and column, ``dofmap.mean_vector``, appended.

    ``block(r, c)`` returns element matrices (m, 3, 3) and is called one
    block at a time, so only one of them is alive at once; each block's
    sums go straight into the data array, and the index arrays are the
    mesh's, shared by every system assembled on it.
    """
    indptr, indices = mesh.table("system_pattern", _system_pattern)
    data = _scatter(mesh, indptr, lambda r, c: assemble_matrix(mesh, block(r, c)).data,
                    (1.0, dofmap.mean_vector, dofmap.mean_vector), float)
    return sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1,) * 2)


def interpolate(g, mesh):
    """Nodal interpolant of a scalar field ``g(x, y)``.

    ``g`` must accept numpy arrays (a scalar return value is broadcast).
    """
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    vals = np.asarray(g(x, y), dtype=float)
    return np.broadcast_to(vals, x.shape).copy()
