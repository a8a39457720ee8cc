# Coefficient / scalar / gradient fields on a mesh, and the norms used
# by the stability estimates: L2, the H1_0 seminorm, the Gagliardo H^s
# seminorm, and the weighted L2 functional.

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh

__all__ = [
    "CoefficientField", "ScalarField", "GradientField",
    "FieldArgumentError", "FieldInvariantError",
    "gradient", "corner_average", "norm_l2", "grid_l2", "norm_h10", "seminorm_hs",
    "coefficient_h1_seminorm", "weighted_l2_sq",
    "write_csv", "write_field_csv", "read_field_csv",
]


class FieldArgumentError(ValueError):
    """Field arguments inconsistent with the mesh or each other."""


class FieldInvariantError(ValueError):
    """A field value violates its declared invariant."""


@dataclass(frozen=True)
class CoefficientField:
    """Cell-centered diffusion coefficient with class bounds lam <= a <= Lam.

    Construction rejects out-of-range values rather than clamping them.
    """

    mesh: Mesh
    values: np.ndarray
    lam: float
    Lam: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != self.mesh.cell_shape:
            raise FieldArgumentError(
                f"coefficient shape {values.shape} != cells {self.mesh.cell_shape}")
        if not np.all(np.isfinite(values)):
            raise FieldArgumentError("coefficient has non-finite values")
        if not (0 < self.lam < self.Lam):
            raise FieldInvariantError(
                f"need 0 < lam < Lam, got ({self.lam}, {self.Lam})")
        if values.min() < self.lam or values.max() > self.Lam:
            raise FieldInvariantError(
                f"coefficient range [{values.min()}, {values.max()}] leaves "
                f"[{self.lam}, {self.Lam}]")

    @staticmethod
    def constant(mesh: Mesh, value: float, lam: float, Lam: float) -> "CoefficientField":
        return CoefficientField(mesh, np.full(mesh.cell_shape, float(value)), lam, Lam)


@dataclass(frozen=True)
class ScalarField:
    """Solution-type field on interior nodes; zero trace on the boundary
    is implied and never stored."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != self.mesh.node_shape:
            raise FieldArgumentError(
                f"scalar shape {values.shape} != interior nodes {self.mesh.node_shape}")
        if not np.all(np.isfinite(values)):
            raise FieldArgumentError("scalar field has non-finite values")

    def padded(self) -> np.ndarray:
        """Nodal values including the zero boundary ring, shape (N+1,)^d."""
        n = self.mesh.n
        full = np.zeros((n + 1,) * self.mesh.dim)
        full[(slice(1, n),) * self.mesh.dim] = self.values
        return full


@dataclass(frozen=True)
class GradientField:
    """Face-centered directional differences of a ScalarField.

    dim 1: one component of shape (N,), living at cell midpoints.
    dim 2: components (gx, gy) of shapes (N, N+1) and (N+1, N); gx[i, j]
    sits between nodes (i, j) and (i+1, j), spacing h.
    """

    mesh: Mesh
    components: tuple


def gradient(u: ScalarField) -> GradientField:
    """Divided differences of adjacent nodal values with spacing h."""
    full = u.padded()
    return GradientField(u.mesh, tuple(np.diff(full, axis=k) / u.mesh.h
                                       for k in range(u.mesh.dim)))


def corner_average(values: np.ndarray, axes=None) -> np.ndarray:
    """Mean of the 2^k corners of every unit cell spanned by `axes` (all
    axes by default); each of those axes loses one entry. Cell values give
    node values this way and padded node values give cell values. The
    corners are summed with the first axis varying fastest, which fixes
    the rounding of every artifact built on them.
    """
    axes = range(values.ndim) if axes is None else axes
    corners = [values]
    for k in axes:
        head = (slice(None),) * k
        corners = ([c[head + (slice(None, -1),)] for c in corners]
                   + [c[head + (slice(1, None),)] for c in corners])
    return 0.5 ** len(axes) * functools.reduce(np.add, corners)


def grid_l2(mesh: Mesh, values: np.ndarray) -> float:
    """sqrt(h^d * sum(values^2)), the grid L2 norm of any cell/node array."""
    v = np.asarray(values, dtype=float)
    return float(np.sqrt(mesh.h ** mesh.dim * np.sum(v * v)))


def norm_l2(field) -> float:
    """Grid L2 norm of a coefficient (cells) or scalar (nodes) field."""
    return grid_l2(field.mesh, field.values)


def _difference_norm(mesh: Mesh, values: np.ndarray) -> float:
    """sqrt(h^d * sum of the squared divided differences along every axis)."""
    total = 0.0
    for k in range(mesh.dim):
        g = np.diff(values, axis=k) / mesh.h
        total += float(np.sum(g * g))
    return float(np.sqrt(mesh.h ** mesh.dim * total))


def norm_h10(u: ScalarField) -> float:
    """Discrete H1_0 seminorm ||grad u||_{L2}, faces weighted h^d."""
    return _difference_norm(u.mesh, u.padded())


def coefficient_h1_seminorm(a) -> float:
    """Discrete ||grad a||_{L2} of a cell field via adjacent-cell differences."""
    return _difference_norm(a.mesh, np.asarray(a.values, dtype=float))


def seminorm_hs(a: CoefficientField, s: float) -> float:
    """Gagliardo H^s seminorm by double sum over cell centers.

    Quadrature excludes the diagonal x = y. Used for scaling/boundedness
    classification only; no equivalence constants are claimed. Cost is
    O(N^2) pairs, so dim 2 requires N <= 128.
    """
    if not 0 < s < 1:
        raise FieldArgumentError(f"s must be in (0,1), got {s}")
    mesh = a.mesh
    if mesh.dim == 2 and mesh.n > 128:
        raise FieldArgumentError("dim-2 Gagliardo sum limited to N <= 128")
    h = mesh.h
    exponent = mesh.dim + 2 * s
    if mesh.dim == 1:
        x = mesh.cell_centers_1d()
        dx = np.abs(x[:, None] - x[None, :])
        da = a.values[:, None] - a.values[None, :]
        np.fill_diagonal(dx, 1.0)  # diagonal da is 0, denominator value irrelevant
        total = np.sum(da * da / dx ** exponent)
        return float(np.sqrt(total * h ** 2))
    x = mesh.cell_centers_1d()
    xs = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
    vals = a.values.reshape(-1)
    total = 0.0
    chunk = 1024
    for start in range(0, len(vals), chunk):
        stop = min(start + chunk, len(vals))
        diff = xs[start:stop, None, :] - xs[None, :, :]
        r = np.sqrt(np.sum(diff * diff, axis=-1))
        da = vals[start:stop, None] - vals[None, :]
        mask = r > 0
        total += np.sum(da[mask] ** 2 / r[mask] ** exponent)
    return float(np.sqrt(total * h ** 4))


def weighted_l2_sq(mesh: Mesh, ratio_sq: np.ndarray, w: np.ndarray) -> float:
    """h^d * sum(ratio_sq * w), the weighted L2 functional with weight w >= 0."""
    ratio_sq = np.asarray(ratio_sq, dtype=float)
    w = np.asarray(w, dtype=float)
    if ratio_sq.shape != mesh.cell_shape or w.shape != mesh.cell_shape:
        raise FieldArgumentError("weighted_l2_sq inputs must be cellwise")
    if w.min() < 0:
        raise FieldInvariantError(f"weight has negative entry {w.min()}")
    return float(mesh.h ** mesh.dim * np.sum(ratio_sq * w))


# ---------------------------------------------------------------------------
# rows per write: the whole text of an N=512 field at once adds ~40 MiB of peak memory
_CSV_CHUNK_ROWS = 2048
_CSV_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%d", "U": "%s", "O": "%s"}


def write_csv(path, header: str, columns) -> None:
    """Write a CSV artifact: `header`, then line k from entry k of each column.
    Floats get 17 significant digits, which read back to the same float64;
    integers and booleans are written as integers, strings as they are."""
    columns = [np.asarray(c) for c in columns]
    fmt = ",".join(_CSV_FORMATS[c.dtype.kind] for c in columns) + "\n"
    with open(path, "w") as f:
        f.write(header + "\n")
        for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            chunk = (c[start:start + _CSV_CHUNK_ROWS].tolist() for c in columns)
            f.write("".join(fmt % row for row in zip(*chunk)))


# Field CSV format: header `index,value` (dim 1) or `i,j,value` (dim 2),
# row-major. Cell arrays use 0-based cell indices; node arrays use the
# interior lattice indices 1..N-1 (position = index * h).

_FIELD_HEADERS = {1: "index,value", 2: "i,j,value"}


def _index_range(mesh: Mesh, location: str):
    if location == "cells":
        return 0, mesh.n, mesh.cell_shape
    if location == "nodes":
        return 1, mesh.n, mesh.node_shape
    raise FieldArgumentError(f"location must be 'cells' or 'nodes', got {location!r}")


def write_field_csv(path, mesh: Mesh, values: np.ndarray, location: str = "cells"):
    lo, _, shape = _index_range(mesh, location)
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise FieldArgumentError(f"array shape {values.shape} != {shape}")
    # int32, offset in place: the index columns are the writer's largest temporary
    index = np.indices(shape, dtype=np.int32).reshape(mesh.dim, -1)
    index += lo
    write_csv(path, _FIELD_HEADERS[mesh.dim], [*index, values.ravel()])


def read_field_csv(path, mesh: Mesh, location: str = "cells") -> np.ndarray:
    """Read a field CSV written by write_field_csv; rows may come in any
    order and blank lines are skipped, but every position of the declared
    mesh must appear exactly once with a finite value."""
    lo, hi, shape = _index_range(mesh, location)
    expected_header = _FIELD_HEADERS[mesh.dim]
    with open(path) as f:
        header = f.readline().strip()
        if header != expected_header:
            raise FieldArgumentError(
                f"bad field CSV header {header!r}, expected {expected_header!r}")
        # np.loadtxt warns, rather than raising, on a body without rows
        has_rows = any(line.strip() for line in f)
    dtype = [(f"i{k}", np.int64) for k in range(mesh.dim)] + [("value", np.float64)]
    rows = np.empty(0, dtype)
    if has_rows:
        try:
            rows = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None,
                              skiprows=1, ndmin=1)
        except ValueError as exc:
            raise FieldArgumentError(f"malformed field CSV body: {exc}") from None
    idx = np.stack([rows[f"i{k}"] for k in range(mesh.dim)])
    values = rows["value"]
    bad = np.flatnonzero(np.any((idx < lo) | (idx >= hi), axis=0))
    if bad.size:
        raise FieldArgumentError(
            f"index {tuple(idx[:, bad[0]].tolist())} out of range [{lo},{hi}) "
            f"for declared mesh")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise FieldArgumentError(
            f"non-finite value {values[bad[0]]} at index "
            f"{tuple(idx[:, bad[0]].tolist())} in field CSV")
    flat = np.ravel_multi_index(tuple(idx - lo), shape)
    counts = np.bincount(flat, minlength=math.prod(shape))
    if counts.max(initial=0) > 1:
        twice = np.unravel_index(np.argmax(counts), shape)
        raise FieldArgumentError(
            f"duplicate field CSV rows for index "
            f"{tuple(int(k) + lo for k in twice)}")
    if len(values) != counts.size:
        raise FieldArgumentError(
            f"field CSV row count {len(values)} does not cover declared mesh "
            f"shape {shape}")
    out = np.empty(counts.size)
    out[flat] = values
    return out.reshape(shape)
