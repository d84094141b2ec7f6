import math

import numpy as np
import pytest

from stokes_asgs import (build_dofmap, build_unit_square_mesh, interpolate,
                         p1_eval, quadrature_rule)
from stokes_asgs.manufactured import exact_velocity


def bary_monomial_mean(a, b, c):
    """Mean value of l1^a l2^b l3^c over a triangle (analytic)."""
    return 2.0 * math.factorial(a) * math.factorial(b) * math.factorial(c) \
        / math.factorial(a + b + c + 2)


@pytest.mark.parametrize("degree", [2, 5, 8])
def test_rule_basics(degree):
    rule = quadrature_rule(degree)
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    assert np.all(rule.points >= 0.0) and np.all(rule.points <= 1.0)
    assert np.abs(rule.points.sum(axis=1) - 1.0).max() < 1e-14
    # built once and shared: every caller gets the same read-only arrays
    assert quadrature_rule(degree) is rule
    assert not rule.points.flags.writeable and not rule.weights.flags.writeable


@pytest.mark.parametrize("degree,n_points", [(2, 3), (5, 7), (8, 16)])
def test_rule_point_counts(degree, n_points):
    assert len(quadrature_rule(degree).weights) == n_points


@pytest.mark.parametrize("degree", [2, 5, 8])
def test_rule_monomial_exactness(degree):
    rule = quadrature_rule(degree)
    l1, l2, l3 = rule.points.T
    for d in range(degree + 1):
        for a in range(d + 1):
            for b in range(d + 1 - a):
                c = d - a - b
                val = (rule.weights * l1 ** a * l2 ** b * l3 ** c).sum()
                assert abs(val - bary_monomial_mean(a, b, c)) < 1e-13


def test_rule_constant_is_one():
    rule = quadrature_rule(2)
    assert (rule.weights * np.ones(3)).sum() == pytest.approx(1.0, abs=1e-15)


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
    with pytest.raises(ValueError):
        quadrature_rule(3)


def test_p1_nodal_and_centroid():
    assert np.allclose(p1_eval((1.0, 0.0, 0.0)), [1.0, 0.0, 0.0])
    third = 1.0 / 3.0
    assert np.allclose(p1_eval((third, third, third)), [third, third, third])


def test_p1_partition_of_unity_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        r = rng.dirichlet(np.ones(3))
        vals = p1_eval(r)
        assert abs(vals.sum() - 1.0) < 1e-14
        assert np.allclose(vals, r)


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
    boundary = sorted(mesh.boundary_vertices)
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
    idx = sorted(mesh.boundary_vertices)
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
