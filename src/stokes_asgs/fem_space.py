"""P1 Lagrange basis, triangle quadrature and degree-of-freedom layout.

Global unknowns are blocked as [u1 | u2 | p | mean-pressure multiplier]:
velocity components first (one scalar dof per vertex each), then pressure
(one dof per vertex, equal order), then a single Lagrange multiplier that
pins the pressure mean to zero.  This layout, with identity rows on the
Dirichlet dofs, is that of the assembled system; the direct solver
factorizes only its interior part and recovers the multiplier.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Symmetric Gaussian rule on the reference triangle.

    ``points`` holds barycentric triples, ``weights`` are normalized so they
    sum to one; the physical integral over a triangle of area A is
    A * sum(w_q * f(x_q)).
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int


def _rule_degree2():
    points = np.array([
        [0.5, 0.5, 0.0],
        [0.0, 0.5, 0.5],
        [0.5, 0.0, 0.5],
    ])
    weights = np.full(3, 1.0 / 3.0)
    return points, weights


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


def _frozen_rule(degree, build):
    points, weights = build()
    points.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(points=points, weights=weights, degree=degree)


_RULES = {d: _frozen_rule(d, build) for d, build in
          ((2, _rule_degree2), (5, _rule_degree5), (8, _rule_degree8))}


def quadrature_rule(degree):
    """Return the quadrature rule exact to ``degree`` (one of 2, 5, 8).

    Each rule is built once; every call returns the same read-only object.
    """
    if degree not in _RULES:
        raise ValueError(f"unsupported quadrature degree {degree}; choose from {sorted(_RULES)}")
    return _RULES[degree]


def p1_eval(bary):
    """P1 basis values at a barycentric point: the coordinates themselves."""
    return np.asarray(bary, dtype=float)


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
    """

    n_u: int
    n_p: int
    dirichlet_dofs: np.ndarray
    mean_vector: np.ndarray

    @property
    def n_dofs(self):
        return 2 * self.n_u + self.n_p + 1

    @property
    def multiplier_index(self):
        return 2 * self.n_u + self.n_p

    def dirichlet_mask(self, n_total=None):
        mask = np.zeros(n_total if n_total is not None else self.n_dofs, dtype=bool)
        mask[self.dirichlet_dofs] = True
        return mask


def build_dofmap(mesh):
    """Dof layout, Dirichlet set and pressure mean weights for ``mesh``."""
    n = mesh.n_vertices
    boundary = np.nonzero(mesh.boundary_mask)[0]
    dirichlet = np.sort(np.concatenate([boundary, n + boundary]))

    mean_vector = np.zeros(n)
    np.add.at(mean_vector, mesh.triangles.ravel(),
              np.repeat(mesh.areas / 3.0, 3))

    dirichlet.setflags(write=False)
    mean_vector.setflags(write=False)
    return DofMap(n_u=n, n_p=n, dirichlet_dofs=dirichlet, mean_vector=mean_vector)


def interpolate(g, mesh):
    """Nodal interpolant of a scalar field ``g(x, y)``.

    ``g`` must accept numpy arrays (a scalar return value is broadcast).
    """
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    vals = np.asarray(g(x, y), dtype=float)
    return np.broadcast_to(vals, x.shape).copy()
