# Forward solvers for -div(a grad u) = f with zero Dirichlet data:
# an exact 1D integral-formula solver, a 2D five-point flux scheme with
# harmonic face averaging, and the cube eigenfunction series.

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh
from .field import (CoefficientField, ScalarField, FieldArgumentError,
                    checked_values, corner_average, same_mesh)

__all__ = [
    "RightHandSide", "SolveReport", "SolverError",
    "solve_1d", "solve_fd_2d", "series_cube", "maximum_principle_check",
    "face_coefficients", "energy_form", "load_functional", "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-10  # relative residual at which a 2D solve stops


class SolverError(RuntimeError):
    """Iterative solver failed to reach the requested residual."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class RightHandSide:
    """Right side f: a cellwise smooth part plus optional 1D point masses.

    values is not written after construction: the 1D antiderivative is
    cached on first use and would go stale.
    """

    mesh: Mesh
    values: np.ndarray
    point_masses: tuple = ()

    def __post_init__(self):
        checked_values(self, self.mesh.cell_shape)
        object.__setattr__(self, "point_masses",
                           tuple((float(x), float(w)) for x, w in self.point_masses))
        if self.point_masses and self.mesh.dim != 1:
            raise FieldArgumentError("point masses are supported in dim 1 only")
        for x, _ in self.point_masses:
            if not 0.0 < x < 1.0:
                raise FieldArgumentError(f"point mass location {x} outside (0,1)")

    @staticmethod
    def constant(mesh: Mesh, value: float) -> "RightHandSide":
        return RightHandSide(mesh, np.full(mesh.cell_shape, float(value)))

    @staticmethod
    def point_mass(mesh: Mesh, location: float, weight: float) -> "RightHandSide":
        return RightHandSide(mesh, np.zeros(mesh.cell_shape),
                             point_masses=((location, weight),))

    @functools.cached_property
    def antiderivative(self) -> np.ndarray:
        """F at the 1D cell centers, computed once per right side; read-only."""
        F = _antiderivative_at_centers(self)
        F.setflags(write=False)
        return F

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

def _mass_node(mesh: Mesh, loc: float) -> int:
    """Node 0..N that a 1D point mass at loc acts on: the one between the
    two cell centers around loc, a center at loc counting as left of it."""
    return int(np.searchsorted(mesh.cell_centers_1d(), loc, side="right"))


def _antiderivative_at_centers(f: RightHandSide) -> np.ndarray:
    mesh = f.mesh
    h = mesh.h
    cum = np.concatenate(([0.0], np.cumsum(f.values))) * h
    F = cum[:-1] + 0.5 * h * f.values
    for loc, w in f.point_masses:
        # a mass on node 0 adds a constant to every F, which c absorbs;
        # adding it anyway leaves rounding noise of either sign
        node = _mass_node(mesh, loc)
        if node > 0:
            F[node:] += w
    return F


def solve_1d(a: CoefficientField, f: RightHandSide):
    """Exact-quadrature 1D solve; returns (u, gamma, report)."""
    mesh = same_mesh(a, f)
    if mesh.dim != 1:
        raise FieldArgumentError("solve_1d requires a dim-1 mesh")
    u_full = np.zeros(mesh.n + 1)
    # 1/a overflows for an in-bounds a near the float minimum; checked below
    with np.errstate(over="ignore", invalid="ignore"):
        A = 1.0 / a.values
        F = f.antiderivative
        c = float(np.sum(A * F) / np.sum(A))
        # h * A * (c - F), operation for operation, with c - F in A's buffer
        g = mesh.h * A
        g *= np.subtract(c, F, out=A)
        np.cumsum(g, out=u_full[1:])
    if not np.all(np.isfinite(u_full)):
        raise SolverError("1D solve overflows to non-finite values", iterations=0)
    scale = float(np.max(np.abs(u_full)))
    closure = abs(float(u_full[-1])) / scale if scale > 0 else 0.0
    u = ScalarField(mesh, u_full[1:-1])
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


def energy_form(a: CoefficientField, u: ScalarField, v: ScalarField) -> float:
    """Discrete bilinear form sum_faces a_face grad(u).grad(v) h^d.

    This is the exact form the 2D solver assembles, so the discrete weak
    identity energy_form(a,u,v) == load_functional(f,v) holds to solver
    residual for every discrete v.
    """
    mesh = a.mesh
    U, V = u.padded(), v.padded()
    total = 0.0
    for k, a_face in enumerate(face_coefficients(a)):
        # faces along k between interior node lines across every other axis
        faces = tuple(slice(None) if j == k else slice(1, -1) for j in range(mesh.dim))
        total += np.sum(a_face * np.diff(U, axis=k)[faces] * np.diff(V, axis=k)[faces])
    return float(total / mesh.h ** (2 - mesh.dim))


def load_functional(f: RightHandSide, v: ScalarField) -> float:
    """Discrete right side sum f v h^d with f averaged to the nodes; a 1D
    point mass w adds w v at the node solve_1d puts it on."""
    mesh = f.mesh
    total = float(mesh.h ** mesh.dim * np.sum(corner_average(f.values) * v.values))
    for loc, w in f.point_masses:  # dim 1 only
        total += w * float(v.padded()[_mass_node(mesh, loc)])
    return total


def _five_point(a: CoefficientField, tmp: np.ndarray | None = None):
    """Matrix-free five-point operator on (N-1, N-1) interior-node arrays.

    Row (i, j) is the flux balance of node (i, j) with the harmonic face
    coefficients of its east, west, north and south faces; neighbours on the
    boundary ring carry zero Dirichlet data and drop out. apply(x, out)
    writes A x into out through the scratch array tmp (made here if not
    given), so that repeated applies allocate nothing. tmp holds nothing
    between applies, so a caller may use it for other work in between.
    """
    ax, ay = face_coefficients(a)
    diag = ax[1:] + ax[:-1] + ay[:, 1:] + ay[:, :-1]
    # a face between two interior nodes couples each of them to the other
    fx, fy = ax[1:-1], ay[:, 1:-1]
    if tmp is None:
        tmp = np.empty_like(diag)

    def apply(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        y = np.multiply(diag, x, out=out)
        y[:-1] -= np.multiply(fx, x[1:], out=tmp[:-1])
        y[1:] -= np.multiply(fx, x[:-1], out=tmp[:-1])
        y[:, :-1] -= np.multiply(fy, x[:, 1:], out=tmp[:, :-1])
        y[:, 1:] -= np.multiply(fy, x[:, :-1], out=tmp[:, :-1])
        return y

    return apply


@functools.lru_cache(maxsize=1)
def _inverse_eigenvalues(n: int) -> np.ndarray:
    """1/eigenvalues of the unit five-point Dirichlet Laplacian on the
    (n-1, n-1) interior nodes, in sine-transform order.

    Cached for the last n and read-only, so that the solves of a scan, also
    concurrent ones, share one table.
    """
    s = np.sin(np.pi * np.arange(1, n) / (2 * n)) ** 2
    inv_eig = 1.0 / (4.0 * (s[:, None] + s[None, :]))
    inv_eig.setflags(write=False)
    return inv_eig


def _laplacian_inverse(n: int):
    """Exact inverse of the unit five-point Dirichlet Laplacian on the
    (n-1, n-1) interior nodes, diagonalised by the type-1 sine transform.

    Its condition number against the variable-coefficient operator is at
    most Lam/lam at every n, so CG iteration counts do not grow with the
    mesh; the missing coefficient scale does not change the CG iterates.
    Single-worker transforms keep the result independent of threading.
    apply(r, out) transforms in place in out.
    """
    # imported here, so that only 2D solves pay scipy's ~0.3 s import
    import scipy.fft

    inv_eig = _inverse_eigenvalues(n)

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


def _pcg(apply_A, apply_M, b, tol, max_iter, scratch):
    """Preconditioned CG on preallocated iterate arrays.

    b becomes the residual r and is overwritten. The loop allocates no
    arrays: every update writes into x, r, z, p, Ap or scratch, each of the
    size of b; apply_A may use scratch too, as it holds nothing across calls.
    """
    norm_b = math.sqrt(_dot(b, b, scratch))
    if norm_b == 0.0:
        return np.zeros_like(b), 0, 0.0
    x = np.zeros_like(b)
    r = b
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


def solve_fd_2d(a: CoefficientField, f: RightHandSide,
                tol: float = DEFAULT_TOL, max_iter: int = 50000):
    """Five-point harmonic-flux solve on the unit square; returns (u, report)."""
    mesh = same_mesh(a, f)
    if mesh.dim != 2:
        raise FieldArgumentError("solve_fd_2d requires a dim-2 mesh")
    if tol <= 0:
        raise FieldArgumentError(f"tol must be > 0, got {tol}")
    b = mesh.h ** 2 * corner_average(f.values)
    # built before the stencil: the first call imports scipy.fft, whose
    # long-lived objects would otherwise land above the stencil's arrays in
    # the heap and keep the pages they free resident
    apply_M = _laplacian_inverse(mesh.n)
    scratch = np.empty_like(b)
    # an in-bounds coefficient can still overflow its harmonic face mean; the
    # CG breakdown checks then raise SolverError, so numpy's own warnings
    # about the inf and nan on the way there are silenced
    with np.errstate(over="ignore", invalid="ignore"):
        x, iterations, rel = _pcg(_five_point(a, scratch), apply_M, b, tol,
                                  max_iter, scratch)
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
    m2 = functools.reduce(np.add.outer, [odd ** 2] * d)
    terms = functools.reduce(np.multiply.outer,
                             [np.sin(np.pi * odd * x) / odd for x in pt])
    return float(4.0 ** d / np.pi ** (2 + d) * np.sum(terms / m2))


def maximum_principle_check(u: ScalarField, f: RightHandSide) -> bool:
    """True iff min u >= -1e-12 * max u; requires f >= 0."""
    if not f.is_nonnegative:
        raise FieldArgumentError("maximum principle check requires f >= 0")
    top = max(float(u.values.max()), 0.0)
    return bool(u.values.min() >= -1e-12 * top)
