import numpy as np
import pytest

from invdiff.mesh import Mesh, Partition, MeshArgumentError
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
    assert Mesh(2, 4).boundary_distances()[0, 1] == pytest.approx(0.125)
    # cell 1 of a 2-cell interval has center 0.75
    assert Mesh(1, 2).boundary_distances()[1] == pytest.approx(0.25)
    # center (0.5625, 0.5625): min-formula gives 0.4375
    assert Mesh(2, 8).boundary_distances()[4, 4] == pytest.approx(0.4375)


def test_boundary_distance_reflection_symmetric():
    mesh = Mesh(2, 8)
    dist = mesh.boundary_distances()
    assert np.array_equal(dist, dist[::-1, :])
    assert np.array_equal(dist, dist[:, ::-1])
    assert np.array_equal(dist, dist.T)


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
