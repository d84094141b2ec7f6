import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokes_asgs import (Mesh, build_dofmap, build_unit_square_mesh,
                         interpolate, quadrature_rule)
from stokes_asgs.fem_space import assemble_matrix, assemble_vector
from stokes_asgs.manufactured import exact_velocity


def bary_monomial_mean(a, b, c):
    """Mean value of l1^a l2^b l3^c over a triangle (analytic)."""
    return 2.0 * math.factorial(a) * math.factorial(b) * math.factorial(c) \
        / math.factorial(a + b + c + 2)


@pytest.mark.parametrize("degree", [5, 8])
def test_rule_basics(degree):
    rule = quadrature_rule(degree)
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    assert np.all(rule.points >= 0.0) and np.all(rule.points <= 1.0)
    assert np.abs(rule.points.sum(axis=1) - 1.0).max() < 1e-14
    # built once and shared: every caller gets the same read-only arrays
    assert quadrature_rule(degree) is rule
    assert not rule.points.flags.writeable and not rule.weights.flags.writeable


@pytest.mark.parametrize("degree,n_points", [(5, 7), (8, 16)])
def test_rule_point_counts(degree, n_points):
    assert len(quadrature_rule(degree).weights) == n_points


@pytest.mark.parametrize("degree", [5, 8])
def test_rule_monomial_exactness(degree):
    rule = quadrature_rule(degree)
    l1, l2, l3 = rule.points.T
    for d in range(degree + 1):
        for a in range(d + 1):
            for b in range(d + 1 - a):
                c = d - a - b
                val = (rule.weights * l1 ** a * l2 ** b * l3 ** c).sum()
                assert abs(val - bary_monomial_mean(a, b, c)) < 1e-13


def test_rule5_mixed_monomial():
    rule = quadrature_rule(5)
    l1, l2, l3 = rule.points.T
    val = (rule.weights * l1 ** 2 * l2 ** 2 * l3).sum()
    assert val == pytest.approx(8.0 / 5040.0, abs=1e-16)


def test_rule8_x_power_eight():
    # x = second barycentric coordinate on the reference right triangle;
    # normalized value is 2 * 8! / 10! = 1/45
    rule = quadrature_rule(8)
    val = (rule.weights * rule.points[:, 1] ** 8).sum()
    assert val == pytest.approx(1.0 / 45.0, abs=1e-15)


def test_unsupported_degree():
    for degree in (2, 3):
        with pytest.raises(ValueError):
            quadrature_rule(degree)


def test_p1_nodal_and_centroid():
    # the P1 basis values at a point are its barycentric coordinates: at
    # the degree-5 rule's first point, the centroid, they are all one third
    mesh = build_unit_square_mesh(1)
    corners = mesh.vertices[mesh.triangles]  # (m, 3, 2)
    third = 1.0 / 3.0
    rule = quadrature_rule(5)
    assert np.allclose(rule.points[0], [third, third, third])
    assert np.allclose(mesh.quad_points(rule)[:, 0], corners.mean(axis=1))


def test_p1_partition_of_unity_random():
    # every rule point is a barycentric triple, and a P1 field evaluated
    # through it reproduces a linear field at the mapped point
    for degree in (5, 8):
        points = quadrature_rule(degree).points
        assert np.abs(points.sum(axis=1) - 1.0).max() < 1e-14
        assert points.min() >= 0.0
    mesh = build_unit_square_mesh(2)
    u = interpolate(lambda x, y: 0.4 - 1.3 * x + 2.1 * y, mesh)
    rng = np.random.default_rng(11)
    for _ in range(100):
        r = rng.dirichlet(np.ones(3))
        assert abs(r.sum() - 1.0) < 1e-14
        x, y = r @ mesh.vertices[mesh.triangles[3]]
        assert abs(r @ u[mesh.triangles[3]] - (0.4 - 1.3 * x + 2.1 * y)) < 1e-14


@pytest.mark.parametrize("nx,dim", [(1, 13), (10, 364)])
def test_dofmap_dimensions(nx, dim):
    mesh = build_unit_square_mesh(nx)
    dm = build_dofmap(mesh)
    assert dm.n_dofs == 2 * dm.n_u + dm.n_p + 1 == dim


def test_dofmap_mean_vector_nx1():
    # two triangles of area 1/2; the diagonal vertices belong to both
    mesh = build_unit_square_mesh(1)
    dm = build_dofmap(mesh)
    counts = np.zeros(4)
    for tri in mesh.triangles:
        counts[tri] += 0.5 / 3.0
    assert np.allclose(dm.mean_vector, counts)
    assert dm.mean_vector.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("nx", [1, 3, 10])
def test_mean_vector_sums_to_area(nx):
    dm = build_dofmap(build_unit_square_mesh(nx))
    assert abs(dm.mean_vector.sum() - 1.0) < 1e-12


def test_dirichlet_dofs_both_components():
    mesh = build_unit_square_mesh(3)
    dm = build_dofmap(mesh)
    boundary = np.flatnonzero(mesh.boundary_mask).tolist()
    expected = sorted(boundary + [mesh.n_vertices + v for v in boundary])
    assert list(dm.dirichlet_dofs) == expected


def test_interpolate_zero_and_linear():
    mesh = build_unit_square_mesh(2)
    assert np.all(interpolate(lambda x, y: 0.0, mesh) == 0.0)
    vals = interpolate(lambda x, y: x, mesh)
    assert np.allclose(vals, np.tile([0.0, 0.5, 1.0], 3))


def test_interpolate_exact_velocity_boundary_zero():
    mesh = build_unit_square_mesh(7)
    u1 = interpolate(lambda x, y: exact_velocity(x, y, 0.0)[0], mesh)
    idx = np.flatnonzero(mesh.boundary_mask)
    assert np.abs(u1[idx]).max() == 0.0


def test_interpolate_linearity():
    mesh = build_unit_square_mesh(4)
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal(2)
    g1 = lambda x, y: np.sin(x) * y
    g2 = lambda x, y: x ** 2 - y
    combo = interpolate(lambda x, y: a * g1(x, y) + b * g2(x, y), mesh)
    parts = a * interpolate(g1, mesh) + b * interpolate(g2, mesh)
    assert np.abs(combo - parts).max() < 1e-13


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(1, 6), keep=st.floats(0.0, 1.0), zeros=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_assembly_forms_equal_element_loop(nx, keep, zeros, seed):
    # a random subset of the elements (possibly none, leaving vertices
    # without elements) with random element arrays, part of them zero
    rng = np.random.default_rng(seed)
    full = build_unit_square_mesh(nx)
    mesh = Mesh(nx, full.vertices, full.triangles[rng.random(full.n_triangles) < keep])
    m, n = mesh.n_triangles, mesh.n_vertices
    mat = rng.standard_normal((m, 3, 3))
    mat[rng.random(mat.shape) < zeros] = 0.0
    vec = rng.standard_normal((m, 3))
    vec2 = rng.standard_normal((m, 3, 2))

    dense = np.zeros((n, n))
    pairs = set()
    want, want2 = np.zeros(n), np.zeros((n, 2))
    for k, idx in enumerate(mesh.triangles):
        for i in range(3):
            want[idx[i]] += vec[k, i]
            want2[idx[i]] += vec2[k, i]
            for j in range(3):
                dense[idx[i], idx[j]] += mat[k, i, j]
                pairs.add((idx[i], idx[j]))

    A = assemble_matrix(mesh, mat)
    x = rng.standard_normal(n)
    assert A.shape == (n, n) and A.has_canonical_format
    assert np.abs(A @ x - dense @ x).max(initial=0.0) <= 1e-13
    # every coupled pair is stored once, zero sums included
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    assert set(zip(rows.tolist(), A.indices.tolist())) == pairs
    assert A.nnz == len(pairs) == assemble_matrix(mesh, 0.0 * mat).nnz
    assert np.abs(assemble_vector(mesh, vec) - want).max(initial=0.0) <= 1e-13
    assert np.abs(assemble_vector(mesh, vec2) - want2).max(initial=0.0) <= 1e-13
    assert assemble_vector(mesh, vec).shape == (n,)
    assert assemble_vector(mesh, vec2).shape == (n, 2)


def test_assembled_matrices_share_the_mesh_pattern():
    # every matrix assembled on a mesh holds the mesh's read-only int32
    # index arrays, not copies of them
    mesh = build_unit_square_mesh(4)
    mat = np.random.default_rng(3).standard_normal((mesh.n_triangles, 3, 3))
    A, B = assemble_matrix(mesh, mat), assemble_matrix(mesh, 2.0 * mat)
    for name in ("indptr", "indices"):
        a, b = getattr(A, name), getattr(B, name)
        assert a.dtype == np.int32 and np.shares_memory(a, b)
        assert not a.flags.writeable


@settings(max_examples=30, deadline=None)
@given(nx=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
def test_nested_dissection_ends_with_a_separating_grid_line(nx, seed):
    mesh = build_unit_square_mesh(nx)
    order = build_dofmap(mesh).elimination_order
    assert np.array_equal(np.sort(order), np.arange(mesh.n_vertices))
    ij = np.rint(mesh.vertices * nx).astype(int)
    line = ij[order[-(nx + 1):]]
    axis = int(np.all(line[:, 1] == line[0, 1]))  # 0: a line of constant x
    assert np.all(line[:, axis] == line[0, axis])
    assert np.array_equal(np.sort(line[:, 1 - axis]), np.arange(nx + 1))
    # -1 and +1 on the two parts the line leaves; no element joins them
    side = np.sign(ij[:, axis] - line[0, axis])
    corners = side[mesh.triangles]
    assert not np.any((corners.min(axis=1) < 0) & (corners.max(axis=1) > 0))
    # post-order: one part, then the other, then the line
    position = np.argsort(order)
    assert position[side < 0].max(initial=-1) < position[side > 0].min(initial=order.size)
    # off the grid the order is still a permutation
    jitter = np.random.default_rng(seed).uniform(-0.05 / nx, 0.05 / nx, mesh.vertices.shape)
    moved = Mesh(nx, mesh.vertices + jitter * ~mesh.boundary_mask[:, None], mesh.triangles)
    assert np.array_equal(np.sort(build_dofmap(moved).elimination_order),
                          np.arange(mesh.n_vertices))
