# Uniform cell-centered grids on the unit interval / unit square.

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["Mesh", "Partition", "InputError", "NumericalError",
           "MeshArgumentError", "MAX_CELLS"]


# cells per mesh: 2**27 float64 values are 1 GiB, for each array of a solve
MAX_CELLS = 2 ** 27


# The base of each error class is its exit code in the CLI.
class InputError(ValueError):
    """The input cannot be used: a bad config, argument or file (exit 2)."""


class NumericalError(Exception):
    """A computation failed on usable input (exit 3)."""


class MeshArgumentError(InputError):
    """Invalid mesh, cell index, or partition argument."""


@dataclass(frozen=True)
class Mesh:
    """Uniform grid on (0,1)^dim with n cells per axis.

    Coefficients live at cell centers ((i+1/2)h per axis), solutions at
    interior lattice nodes (i*h), gradients on the faces between nodes.
    """

    dim: int
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise MeshArgumentError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 2:
            raise MeshArgumentError(f"n must be >= 2, got {self.n}")
        if self.n ** self.dim > MAX_CELLS:
            raise MeshArgumentError(
                f"mesh of {self.n}^{self.dim} cells exceeds the "
                f"limit of {MAX_CELLS} cells")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def cell_shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def node_shape(self) -> tuple:
        """Shape of the interior-node array (boundary nodes excluded)."""
        return (self.n - 1,) * self.dim

    def cell_centers_1d(self) -> np.ndarray:
        """Per-axis cell-center coordinates (i+1/2)h, i = 0..N-1."""
        return (np.arange(self.n) + 0.5) * self.h

    def node_coords_1d(self) -> np.ndarray:
        """Per-axis interior-node coordinates i*h, i = 1..N-1."""
        return np.arange(1, self.n) * self.h

    def boundary_distances(self) -> np.ndarray:
        """dist(x, boundary) at every cell center, shaped like cells."""
        x = self.cell_centers_1d()
        axis_dist = np.minimum(x, 1.0 - x)
        return functools.reduce(np.minimum.outer, [axis_dist] * self.dim)


@dataclass(frozen=True)
class Partition:
    """Partition of the mesh cells into n^d congruent subcubes.

    Requires n to divide the mesh cell count per side so every subcube
    holds exactly (N/n)^d cells.
    """

    mesh: Mesh
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise MeshArgumentError(f"partition n must be >= 1, got {self.n}")
        if self.mesh.n % self.n != 0:
            raise MeshArgumentError(
                f"mesh N={self.mesh.n} not divisible by partition n={self.n}")

    @property
    def cells_per_side(self) -> int:
        return self.mesh.n // self.n

    @property
    def n_subcubes(self) -> int:
        return self.n ** self.mesh.dim

    def subcube_of_cells(self) -> np.ndarray:
        """Subcube index Q for every mesh cell, shaped like cells."""
        q1 = np.arange(self.mesh.n) // self.cells_per_side
        # row-major subcube index: each further axis multiplies the index by n
        return functools.reduce(lambda q, qk: np.add.outer(q * self.n, qk),
                                [q1] * self.mesh.dim)

    def cell_mask(self, q: int) -> np.ndarray:
        """Boolean mask of the mesh cells belonging to subcube q."""
        if not 0 <= q < self.n_subcubes:
            raise MeshArgumentError(f"subcube index {q} out of range")
        return self.subcube_of_cells() == q

    def subcube_center(self, q: int) -> np.ndarray:
        """Physical center of subcube q."""
        if not 0 <= q < self.n_subcubes:
            raise MeshArgumentError(f"subcube index {q} out of range")
        index = np.unravel_index(q, (self.n,) * self.mesh.dim)
        return (np.array(index) + 0.5) * (1.0 / self.n)
