import numpy as np
import pytest

from invdiff.mesh import (Mesh, Partition, boundary_distance, region_split,
                          MeshArgumentError)
from invdiff.mesh import MAX_CELLS


def test_mesh_geometry():
    mesh = Mesh(2, 4)
    assert mesh.h == 0.25
    assert mesh.h * mesh.n == 1.0
    assert np.allclose(mesh.cell_centers_1d(), [0.125, 0.375, 0.625, 0.875])


def test_mesh_validation():
    with pytest.raises(MeshArgumentError):
        Mesh(3, 8)
    with pytest.raises(MeshArgumentError):
        Mesh(1, 1)


def test_mesh_cell_limit():
    assert Mesh(1, MAX_CELLS).n == MAX_CELLS
    assert Mesh(2, 11585).n == 11585  # 11585**2 <= 2**27 < 11586**2
    for dim, n in [(1, MAX_CELLS + 1), (2, 11586), (2, 10 ** 10)]:
        with pytest.raises(MeshArgumentError, match="exceeds"):
            Mesh(dim, n)


def test_boundary_distance_examples():
    # cell (0,1) has center (0.125, 0.375)
    assert boundary_distance(Mesh(2, 4), (0, 1)) == pytest.approx(0.125)
    # cell 1 of a 2-cell interval has center 0.75
    assert boundary_distance(Mesh(1, 2), 1) == pytest.approx(0.25)
    # center (0.5625, 0.5625): min-formula gives 0.4375
    assert boundary_distance(Mesh(2, 8), (4, 4)) == pytest.approx(0.4375)


def test_boundary_distance_bad_index():
    with pytest.raises(MeshArgumentError):
        boundary_distance(Mesh(1, 4), 4)
    with pytest.raises(MeshArgumentError):
        boundary_distance(Mesh(2, 4), (1, -1))
    with pytest.raises(MeshArgumentError):
        boundary_distance(Mesh(2, 4), 1)


def test_boundary_distance_reflection_symmetric():
    mesh = Mesh(2, 8)
    dist = mesh.boundary_distances()
    assert np.array_equal(dist, dist[::-1, :])
    assert np.array_equal(dist, dist[:, ::-1])
    assert np.array_equal(dist, dist.T)


def test_region_split_examples():
    mesh = Mesh(1, 10)
    far, near = region_split(mesh, 0.0)
    assert far.all() and not near.any()

    far, near = region_split(mesh, 0.2)
    assert near.sum() == 4  # centers 0.05, 0.15, 0.85, 0.95

    far, near = region_split(Mesh(2, 4), 0.3)
    assert far.sum() == 4


def test_region_split_nesting_and_measure():
    mesh = Mesh(2, 32)
    prev = None
    for rho in (0.05, 0.1, 0.2, 0.4):
        far, near = region_split(mesh, rho)
        if prev is not None:
            assert np.all(far <= prev)  # D_rho2 subset of D_rho1
        prev = far
        measure = near.sum() * mesh.h ** 2
        assert measure <= 2 * mesh.dim * rho + 4 * mesh.h


def test_region_split_negative_rho():
    with pytest.raises(MeshArgumentError):
        region_split(Mesh(1, 4), -0.1)


def test_partition_counts():
    mesh = Mesh(2, 16)
    part = Partition(mesh, 4)
    qmap = part.subcube_of_cells()
    counts = np.bincount(qmap.ravel(), minlength=part.n_subcubes)
    assert (counts == (16 // 4) ** 2).all()
    assert counts.sum() == 16 ** 2
    for q in range(part.n_subcubes):
        assert part.cell_mask(q).sum() == 16


def test_partition_requires_divisibility():
    with pytest.raises(MeshArgumentError):
        Partition(Mesh(1, 10), 4)


def test_partition_centers():
    part = Partition(Mesh(2, 8), 2)
    assert np.allclose(part.subcube_center(0), [0.25, 0.25])
    assert np.allclose(part.subcube_center(3), [0.75, 0.75])
