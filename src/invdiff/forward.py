# Forward solvers for -div(a grad u) = f with zero Dirichlet data:
# an exact 1D integral-formula solver, a 2D five-point flux scheme with
# harmonic face averaging, and the cube eigenfunction series.

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .mesh import Mesh
from .field import CoefficientField, ScalarField, FieldArgumentError

__all__ = [
    "RightHandSide", "SolveReport", "SolverError",
    "solve_1d", "solve_fd_2d", "series_cube", "maximum_principle_check",
    "face_coefficients", "energy_form", "load_functional",
]


class SolverError(RuntimeError):
    """Iterative solver failed to reach the requested residual."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class RightHandSide:
    """Right side f: a cellwise smooth part plus optional 1D point masses."""

    mesh: Mesh
    values: np.ndarray
    point_masses: tuple = ()
    positive: bool = False  # when set, asserts smooth part > 0 and no masses

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "point_masses",
                           tuple((float(x), float(w)) for x, w in self.point_masses))
        if values.shape != self.mesh.cell_shape:
            raise FieldArgumentError(
                f"rhs shape {values.shape} != cells {self.mesh.cell_shape}")
        if not np.all(np.isfinite(values)):
            raise FieldArgumentError("rhs has non-finite values")
        if self.point_masses and self.mesh.dim != 1:
            raise FieldArgumentError("point masses are supported in dim 1 only")
        for x, _ in self.point_masses:
            if not 0.0 < x < 1.0:
                raise FieldArgumentError(f"point mass location {x} outside (0,1)")
        if self.positive:
            if self.point_masses:
                raise FieldArgumentError("positive rhs cannot carry point masses")
            if values.min() <= 0:
                raise FieldArgumentError(
                    f"positive rhs has min {values.min()} <= 0")

    @staticmethod
    def constant(mesh: Mesh, value: float, positive=None) -> "RightHandSide":
        if positive is None:
            positive = value > 0
        return RightHandSide(mesh, np.full(mesh.cell_shape, float(value)),
                             positive=positive)

    @staticmethod
    def point_mass(mesh: Mesh, location: float, weight: float) -> "RightHandSide":
        return RightHandSide(mesh, np.zeros(mesh.cell_shape),
                             point_masses=((location, weight),))

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    @property
    def is_nonnegative(self) -> bool:
        return self.values.min() >= 0 and all(w >= 0 for _, w in self.point_masses)


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_relative_residual: float
    solver: str

    def to_json_dict(self) -> dict:
        return {"iterations": self.iterations,
                "residual": self.final_relative_residual,
                "solver": self.solver}


# ---------------------------------------------------------------------------
# 1D: a u' = c - F with F the antiderivative of f (jumps at point masses)
# and c fixed by u(1) = 0. Midpoint quadrature on cells, cumulative sums
# for u at nodes. For f = 1 this is the explicit pivot solution and the
# returned gamma is the pivot in (0,1).

def _antiderivative_at_centers(f: RightHandSide) -> np.ndarray:
    mesh = f.mesh
    h = mesh.h
    x = mesh.cell_centers_1d()
    cum = np.concatenate(([0.0], np.cumsum(f.values))) * h
    F = cum[:-1] + 0.5 * h * f.values
    for loc, w in f.point_masses:
        F = F + w * (x > loc)
    return F


def solve_1d(a: CoefficientField, f: RightHandSide):
    """Exact-quadrature 1D solve; returns (u, gamma, report)."""
    mesh = a.mesh
    if mesh.dim != 1:
        raise FieldArgumentError("solve_1d requires a dim-1 mesh")
    if f.mesh != mesh:
        raise FieldArgumentError("coefficient and rhs meshes differ")
    h = mesh.h
    # 1/a overflows for an in-bounds a near the float minimum; checked below
    with np.errstate(over="ignore", invalid="ignore"):
        A = 1.0 / a.values
        F = _antiderivative_at_centers(f)
        c = float(np.sum(A * F) / np.sum(A))
        u_full = np.concatenate(([0.0], np.cumsum(h * A * (c - F))))
    if not np.all(np.isfinite(u_full)):
        raise SolverError("1D solve overflows to non-finite values", iterations=0)
    scale = float(np.max(np.abs(u_full)))
    closure = abs(float(u_full[-1])) / scale if scale > 0 else 0.0
    u = ScalarField(mesh, u_full[1:-1].copy())
    report = SolveReport(iterations=0, final_relative_residual=closure,
                         solver="exact1d")
    return u, c, report


# ---------------------------------------------------------------------------
# 2D five-point flux scheme. Unknowns are the interior nodes, the face
# coefficient is the harmonic mean of the two adjacent cell values, and
# the load is the nodal four-cell average of f times h^2.

def _harmonic(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return 2.0 * u * v / (u + v)


def face_coefficients(a: CoefficientField):
    """Face coefficient arrays from harmonic cell averaging.

    dim 1: the cells themselves (gradient cells coincide with coefficient
    cells). dim 2: (ax, ay); ax[p, j-1] belongs to the x-face between
    nodes (p, j) and (p+1, j) for j = 1..N-1, ay transposed likewise.
    Faces lying on the boundary carry no degrees of freedom and are omitted.
    """
    vals = a.values
    if a.mesh.dim == 1:
        return (vals.copy(),)
    ax = _harmonic(vals[:, :-1], vals[:, 1:])
    ay = _harmonic(vals[:-1, :], vals[1:, :])
    return ax, ay


def _node_average_of_cells(values: np.ndarray) -> np.ndarray:
    """Four-cell average at the interior nodes, shape (N-1, N-1)."""
    return 0.25 * (values[:-1, :-1] + values[1:, :-1]
                   + values[:-1, 1:] + values[1:, 1:])


def energy_form(a: CoefficientField, u: ScalarField, v: ScalarField) -> float:
    """Discrete bilinear form sum_faces a_face grad(u).grad(v) h^d.

    This is the exact form the 2D solver assembles, so the discrete weak
    identity energy_form(a,u,v) == load_functional(f,v) holds to solver
    residual for every discrete v.
    """
    mesh = a.mesh
    U, V = u.padded(), v.padded()
    if mesh.dim == 1:
        du, dv = np.diff(U), np.diff(V)
        return float(np.sum(a.values * du * dv) / mesh.h)
    ax, ay = face_coefficients(a)
    dux, dvx = np.diff(U, axis=0), np.diff(V, axis=0)
    duy, dvy = np.diff(U, axis=1), np.diff(V, axis=1)
    total = np.sum(ax * dux[:, 1:-1] * dvx[:, 1:-1])
    total += np.sum(ay * duy[1:-1, :] * dvy[1:-1, :])
    return float(total)


def load_functional(f: RightHandSide, v: ScalarField) -> float:
    """Discrete right side sum f v h^d with f averaged to the nodes."""
    mesh = f.mesh
    if mesh.dim == 1:
        fbar = 0.5 * (f.values[:-1] + f.values[1:])
        total = mesh.h * float(np.sum(fbar * v.values))
        if f.point_masses:
            x = mesh.node_coords_1d()
            for loc, w in f.point_masses:
                total += w * float(np.interp(loc, x, v.values))
        return total
    fbar = _node_average_of_cells(f.values)
    return float(mesh.h ** 2 * np.sum(fbar * v.values))


def _five_point(a: CoefficientField):
    """Matrix-free five-point operator on (N-1, N-1) interior-node arrays.

    Row (i, j) is the flux balance of node (i, j) with the harmonic face
    coefficients of its east, west, north and south faces; neighbours on the
    boundary ring carry zero Dirichlet data and drop out. apply(x, out)
    writes A x into out through one scratch array, so that repeated applies
    allocate nothing.
    """
    ax, ay = face_coefficients(a)
    diag = ax[1:] + ax[:-1] + ay[:, 1:] + ay[:, :-1]
    # a face between two interior nodes couples each of them to the other
    fx, fy = ax[1:-1], ay[:, 1:-1]
    tmp = np.empty_like(diag)

    def apply(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        y = np.multiply(diag, x, out=out)
        y[:-1] -= np.multiply(fx, x[1:], out=tmp[:-1])
        y[1:] -= np.multiply(fx, x[:-1], out=tmp[:-1])
        y[:, :-1] -= np.multiply(fy, x[:, 1:], out=tmp[:, :-1])
        y[:, 1:] -= np.multiply(fy, x[:, :-1], out=tmp[:, :-1])
        return y

    return apply


def _laplacian_inverse(n: int):
    """Exact inverse of the unit five-point Dirichlet Laplacian on the
    (n-1, n-1) interior nodes, diagonalised by the type-1 sine transform.

    Its condition number against the variable-coefficient operator is at
    most Lam/lam at every n, so CG iteration counts do not grow with the
    mesh; the missing coefficient scale does not change the CG iterates.
    Single-worker transforms keep the result independent of threading.
    apply(r, out) transforms in place in out.
    """
    s = np.sin(np.pi * np.arange(1, n) / (2 * n)) ** 2
    inv_eig = 1.0 / (4.0 * (s[:, None] + s[None, :]))

    def apply(r: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.copyto(out, r)
        c = scipy.fft.dstn(out, type=1, workers=1, overwrite_x=True)
        c *= inv_eig
        return scipy.fft.idstn(c, type=1, workers=1, overwrite_x=True)

    return apply


def _dot(x: np.ndarray, y: np.ndarray, scratch: np.ndarray) -> float:
    # np.sum keeps the pairwise reduction single threaded and deterministic,
    # unlike BLAS-backed np.dot.
    return float(np.sum(np.multiply(x, y, out=scratch)))


def _pcg(apply_A, apply_M, b, tol, max_iter):
    """Preconditioned CG on preallocated iterate arrays.

    The loop allocates no arrays: every update writes into x, r, z, p, Ap
    or one scratch array, each of the size of b.
    """
    scratch = np.empty_like(b)
    norm_b = math.sqrt(_dot(b, b, scratch))
    if norm_b == 0.0:
        return np.zeros_like(b), 0, 0.0
    x = np.zeros_like(b)
    r = b.copy()
    z = apply_M(r, np.empty_like(b))
    p = z.copy()
    Ap = np.empty_like(b)
    rz = _dot(r, z, scratch)
    rel = 1.0
    for it in range(1, max_iter + 1):
        apply_A(p, Ap)
        pAp = _dot(p, Ap, scratch)
        # both curvatures are positive and finite for an SPD operator; an
        # overflowing coefficient would otherwise iterate on NaN to max_iter
        if not (0.0 < rz < math.inf and 0.0 < pAp < math.inf):
            raise SolverError(
                f"PCG breakdown at iteration {it}: r.z={rz:.3e}, p.Ap={pAp:.3e}",
                residual=rel, iterations=it)
        alpha = rz / pAp
        x += np.multiply(p, alpha, out=scratch)
        r -= np.multiply(Ap, alpha, out=scratch)
        rel = math.sqrt(_dot(r, r, scratch)) / norm_b
        if not math.isfinite(rel):
            raise SolverError(
                f"PCG residual is not finite at iteration {it}",
                residual=rel, iterations=it)
        if rel <= tol:
            return x, it, rel
        z = apply_M(r, z)
        rz_new = _dot(r, z, scratch)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise SolverError(
        f"PCG stalled at relative residual {rel:.3e} after {max_iter} iterations",
        residual=rel, iterations=max_iter)


def solve_fd_2d(a: CoefficientField, f: RightHandSide, tol: float = 1e-10,
                max_iter: int = 50000):
    """Five-point harmonic-flux solve on the unit square; returns (u, report)."""
    mesh = a.mesh
    if mesh.dim != 2:
        raise FieldArgumentError("solve_fd_2d requires a dim-2 mesh")
    if f.mesh != mesh:
        raise FieldArgumentError("coefficient and rhs meshes differ")
    if f.point_masses:
        raise FieldArgumentError("point-mass right sides are dim-1 only")
    if tol <= 0:
        raise FieldArgumentError(f"tol must be > 0, got {tol}")
    b = mesh.h ** 2 * _node_average_of_cells(f.values)
    # an in-bounds coefficient can still overflow its harmonic face mean; the
    # CG breakdown checks then raise SolverError, so numpy's own warnings
    # about the inf and nan on the way there are silenced
    with np.errstate(over="ignore", invalid="ignore"):
        x, iterations, rel = _pcg(_five_point(a), _laplacian_inverse(mesh.n),
                                  b, tol, max_iter)
    u = ScalarField(mesh, x)
    return u, SolveReport(iterations=iterations, final_relative_residual=rel,
                          solver="fd2d")


# ---------------------------------------------------------------------------
# Eigenfunction series for -Laplace u = 1 on the unit cube: only all-odd
# multi-indices contribute, with coefficients
# 4^d / (pi^(2+d) (n1^2+...+nd^2) n1...nd).

def series_cube(point, n_max: int, d: int) -> float:
    """Partial sum of the unit-cube torsion series over odd indices <= n_max."""
    if d not in (1, 2):
        raise FieldArgumentError(f"d must be 1 or 2, got {d}")
    if n_max < 1 or n_max % 2 == 0:
        raise FieldArgumentError(f"n_max must be odd and >= 1, got {n_max}")
    pt = np.atleast_1d(np.asarray(point, dtype=float))
    if pt.shape != (d,):
        raise FieldArgumentError(f"point {point!r} does not match d={d}")
    if np.any(pt < 0) or np.any(pt > 1):
        raise FieldArgumentError(f"point {point!r} outside the closed unit cube")
    odd = np.arange(1, n_max + 1, 2, dtype=float)
    if d == 1:
        coef = 4.0 / (np.pi ** 3 * odd ** 3)
        return float(np.sum(coef * np.sin(np.pi * odd * pt[0])))
    m2 = odd[:, None] ** 2 + odd[None, :] ** 2
    coef = 16.0 / (np.pi ** 4 * m2 * odd[:, None] * odd[None, :])
    sx = np.sin(np.pi * odd * pt[0])
    sy = np.sin(np.pi * odd * pt[1])
    return float(sx @ coef @ sy)


def maximum_principle_check(u: ScalarField, f: RightHandSide) -> bool:
    """True iff min u >= -1e-12 * max u; requires f >= 0."""
    if not f.is_nonnegative:
        raise FieldArgumentError("maximum principle check requires f >= 0")
    top = max(float(u.values.max()), 0.0)
    return bool(u.values.min() >= -1e-12 * top)
