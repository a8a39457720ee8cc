"""Grid operations have one path for dims 1 and 2. The reference_* functions
keep the earlier per-dimension bodies, and every test asserts that the single
path gives the same arrays (shape, dtype and bits) and the same floats."""

import itertools

import numpy as np
import pytest

from invdiff.mesh import Mesh, Partition
from invdiff.field import (CoefficientField, ScalarField, corner_average,
                           gradient, norm_h10, coefficient_h1_seminorm)
from invdiff.forward import RightHandSide, load_functional
from invdiff.positivity import compute_weight
from invdiff.recovery import subcube_bump
from invdiff.mollify import bump_profile

DIMS = (1, 2)
NS = (2, 3, 8, 9, 64)
PARTS = (1, 2, 4)


def reference_padded(u):
    n = u.mesh.n
    full = np.zeros((n + 1,) * u.mesh.dim)
    if u.mesh.dim == 1:
        full[1:n] = u.values
    else:
        full[1:n, 1:n] = u.values
    return full


def reference_gradient(u):
    full = reference_padded(u)
    h = u.mesh.h
    if u.mesh.dim == 1:
        return (np.diff(full) / h,)
    return (np.diff(full, axis=0) / h, np.diff(full, axis=1) / h)


def reference_norm_h10(u):
    total = sum(float(np.sum(c * c)) for c in reference_gradient(u))
    return float(np.sqrt(u.mesh.h ** u.mesh.dim * total))


def reference_coefficient_h1_seminorm(a):
    mesh, values = a.mesh, np.asarray(a.values, dtype=float)
    h = mesh.h
    if mesh.dim == 1:
        g = np.diff(values) / h
        return float(np.sqrt(h * np.sum(g * g)))
    gx = np.diff(values, axis=0) / h
    gy = np.diff(values, axis=1) / h
    return float(np.sqrt(h ** 2 * (np.sum(gx * gx) + np.sum(gy * gy))))


def reference_node_average_of_cells(values):
    if values.ndim == 1:
        return 0.5 * (values[:-1] + values[1:])
    return 0.25 * (values[:-1, :-1] + values[1:, :-1]
                   + values[:-1, 1:] + values[1:, 1:])


def reference_load_functional(f, v):
    mesh = f.mesh
    if mesh.dim == 1:
        fbar = 0.5 * (f.values[:-1] + f.values[1:])
        total = mesh.h * float(np.sum(fbar * v.values))
        if f.point_masses:
            x = mesh.node_coords_1d()
            for loc, w in f.point_masses:
                total += w * float(np.interp(loc, x, v.values))
        return total
    fbar = reference_node_average_of_cells(f.values)
    return float(mesh.h ** 2 * np.sum(fbar * v.values))


def reference_u_to_cells(u):
    full = reference_padded(u)
    if u.mesh.dim == 1:
        return 0.5 * (full[:-1] + full[1:])
    return 0.25 * (full[:-1, :-1] + full[1:, :-1]
                   + full[:-1, 1:] + full[1:, 1:])


def reference_gradient_sq_to_cells(u):
    g = reference_gradient(u)
    if u.mesh.dim == 1:
        return g[0] ** 2
    gx, gy = g
    gxc = 0.5 * (gx[:, :-1] + gx[:, 1:])
    gyc = 0.5 * (gy[:-1, :] + gy[1:, :])
    return gxc ** 2 + gyc ** 2


def reference_weight(a, u, f):
    return (a.values * reference_gradient_sq_to_cells(u)
            + f.values * reference_u_to_cells(u))


def reference_boundary_distances(mesh):
    x = mesh.cell_centers_1d()
    axis_dist = np.minimum(x, 1.0 - x)
    if mesh.dim == 1:
        return axis_dist
    return np.minimum(axis_dist[:, None], axis_dist[None, :])


def reference_subcube_of_cells(part):
    q1 = np.arange(part.mesh.n) // part.cells_per_side
    if part.mesh.dim == 1:
        return q1
    return q1[:, None] * part.n + q1[None, :]


def reference_subcube_center(part, q):
    side = 1.0 / part.n
    if part.mesh.dim == 1:
        return np.array([(q + 0.5) * side])
    return np.array([(q // part.n + 0.5) * side, (q % part.n + 0.5) * side])


def reference_subcube_bump(part, q):
    mesh = part.mesh
    h = mesh.h
    radius = 0.5 / part.n - h
    center = reference_subcube_center(part, q)
    xc = mesh.cell_centers_1d()
    xn = np.arange(mesh.n + 1) * h
    if mesh.dim == 1:
        cell_vals = bump_profile((xc - center[0]) / radius)
        node_vals = bump_profile((xn - center[0]) / radius)
    else:
        cell_vals = np.multiply.outer(bump_profile((xc - center[0]) / radius),
                                      bump_profile((xc - center[1]) / radius))
        node_vals = np.multiply.outer(bump_profile((xn - center[0]) / radius),
                                      bump_profile((xn - center[1]) / radius))
    mass = float(mesh.h ** mesh.dim * cell_vals.sum())
    return cell_vals / mass, node_vals / mass


def assert_same(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape and new.dtype == ref.dtype
    assert np.array_equal(new, ref)


def random_fields(dim, n):
    """A coefficient, a sign-changing right side and a solution-type field
    with random entries, so that any change of summation order shows."""
    mesh = Mesh(dim, n)
    rng = np.random.default_rng([dim, n])
    a = CoefficientField(mesh, rng.uniform(0.5, 2.0, mesh.cell_shape), 0.5, 2.0)
    f = RightHandSide(mesh, rng.standard_normal(mesh.cell_shape))
    u = ScalarField(mesh, rng.standard_normal(mesh.node_shape))
    return a, f, u


MESHES = list(itertools.product(DIMS, NS))
PARTITIONS = [(dim, n, p) for dim, n in MESHES for p in PARTS if n % p == 0]
# subcube_bump needs a one-cell margin inside each subcube: N > 2n
BUMPS = [(dim, n, p) for dim, n, p in PARTITIONS if n > 2 * p]


@pytest.mark.parametrize("dim, n", MESHES)
def test_padded_and_gradient(dim, n):
    _, _, u = random_fields(dim, n)
    assert_same(u.padded(), reference_padded(u))
    new, ref = gradient(u).components, reference_gradient(u)
    assert len(new) == len(ref) == dim
    for g_new, g_ref in zip(new, ref):
        assert_same(g_new, g_ref)


@pytest.mark.parametrize("dim, n", MESHES)
def test_difference_norms(dim, n):
    a, _, u = random_fields(dim, n)
    assert norm_h10(u) == reference_norm_h10(u)
    assert coefficient_h1_seminorm(a) == reference_coefficient_h1_seminorm(a)


@pytest.mark.parametrize("dim, n", MESHES)
def test_corner_average_cells_to_nodes(dim, n):
    _, f, v = random_fields(dim, n)
    assert_same(corner_average(f.values),
                reference_node_average_of_cells(f.values))
    assert load_functional(f, v) == reference_load_functional(f, v)


@pytest.mark.parametrize("n", NS)
def test_load_functional_with_point_masses(n):
    _, f, v = random_fields(1, n)
    f = RightHandSide(f.mesh, f.values, point_masses=((0.3, 1.5), (0.8, -0.25)))
    assert load_functional(f, v) == reference_load_functional(f, v)


@pytest.mark.parametrize("dim, n", MESHES)
def test_corner_average_nodes_to_cells(dim, n):
    _, _, u = random_fields(dim, n)
    assert_same(corner_average(u.padded()), reference_u_to_cells(u))


@pytest.mark.parametrize("dim, n", MESHES)
def test_weight(dim, n):
    a, f, u = random_fields(dim, n)
    assert_same(compute_weight(a, u, f).values, reference_weight(a, u, f))


@pytest.mark.parametrize("dim, n", MESHES)
def test_boundary_distances(dim, n):
    mesh = Mesh(dim, n)
    assert_same(mesh.boundary_distances(), reference_boundary_distances(mesh))


@pytest.mark.parametrize("dim, n, p", PARTITIONS)
def test_subcube_maps(dim, n, p):
    part = Partition(Mesh(dim, n), p)
    assert_same(part.subcube_of_cells(), reference_subcube_of_cells(part))
    for q in range(part.n_subcubes):
        assert_same(part.subcube_center(q), reference_subcube_center(part, q))


@pytest.mark.parametrize("dim, n, p", BUMPS)
def test_subcube_bump(dim, n, p):
    part = Partition(Mesh(dim, n), p)
    for q in range(part.n_subcubes):
        cells, nodes = subcube_bump(part, q)
        ref_cells, ref_nodes = reference_subcube_bump(part, q)
        assert_same(cells, ref_cells)
        assert_same(nodes, ref_nodes)
