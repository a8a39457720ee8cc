# Inverse maps u -> a: mollifier-weighted piecewise-constant recovery on a
# partition, and pivot-based full recovery on the interval.

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh, Partition, NumericalError
from .field import ScalarField, FieldArgumentError, face_gradient, same_mesh
from .forward import RightHandSide
from .mollify import bump_profile

__all__ = [
    "PwcRecovery", "Recovery1D",
    "RecoveryFailureError", "MalformedInputError", "AmbiguousPivotError",
    "recover_pwc", "recover_1d", "subcube_bump", "SANITY_FACTOR",
]

SANITY_FACTOR = 10.0  # recovered values outside [lam/10, Lam*10] get flagged


class RecoveryFailureError(NumericalError, RuntimeError):
    """No subcube produced a usable recovered value."""


class MalformedInputError(NumericalError, ValueError):
    """The discrete derivative never changes sign, so there is no pivot."""


class AmbiguousPivotError(NumericalError, ValueError):
    """The discrete derivative changes sign more than once."""

    def __init__(self, crossings):
        super().__init__(f"multiple pivot candidates at x = {list(crossings)}")
        self.crossings = tuple(crossings)


@dataclass(frozen=True)
class PwcRecovery:
    partition: Partition
    values: np.ndarray
    flags: tuple


@dataclass(frozen=True)
class Recovery1D:
    mesh: Mesh
    gamma_hat: float
    values: np.ndarray
    w_excl: float
    n_clamped: int  # cells whose quotient fell outside [lam, Lam]


def subcube_bump(partition: Partition, q: int):
    """Normalized interior bump for subcube q, as (cell values, node values).

    The bump is the smooth kernel scaled to the subcube with a one-cell
    support margin, so it vanishes on the cells and nodes adjacent to the
    subcube boundary; the cell values integrate to one discretely.
    """
    return _bump(partition, q, partition.mesh.n)


def _bump(partition: Partition, q: int, extent: int):
    """subcube_bump's values on the first extent cells and extent + 1 nodes
    along each axis. The mass sums the cell values over the whole mesh, so
    that its rounding does not depend on extent."""
    mesh = partition.mesh
    h = mesh.h
    radius = 0.5 / partition.n - h
    if radius <= 0:
        raise FieldArgumentError(
            f"subcubes of P_{partition.n} too small for a one-cell margin at N={mesh.n}")
    center = partition.subcube_center(q)

    def bump(x):
        return functools.reduce(np.multiply.outer,
                                [bump_profile((x - c) / radius) for c in center])

    cell_vals = bump(mesh.cell_centers_1d())
    mass = float(mesh.h ** mesh.dim * cell_vals.sum())
    node_vals = bump(np.arange(extent + 1) * h)
    return cell_vals[(slice(0, extent),) * mesh.dim] / mass, node_vals / mass


def recover_pwc(u: ScalarField, f: RightHandSide, partition: Partition,
                bounds=None, eps_den: float = 1e-8) -> PwcRecovery:
    """Per-subcube coefficient recovery via interior test bumps.

    Each subcube Q yields a_Q = (sum f phi_Q h^d) / (sum grad u . grad phi_Q h^d),
    the weak-form quotient with the bump phi_Q from subcube_bump. The
    denominator uses grad u rather than a discrete Laplacian, which keeps the
    quotient stable for solutions that are only H1-accurate at interfaces.

    Every phi_Q is a translate of phi_0, and its support ends one cell inside
    Q, so each sum runs over the m^d cells of Q (m = cells_per_side) with
    the weights of phi_0. All subcubes are then one contraction of the field
    viewed as (n, m)^d blocks with an m^d window: O(N^d) in total.

    bounds, when given as (lam, Lam), flags recovered values outside
    [lam/10, Lam*10] as out-of-range (they are reported unclamped).
    """
    mesh = same_mesh(u, f, partition)
    if f.point_masses or f.values.min() <= 0:
        raise FieldArgumentError("recovery requires f >= c_f > 0 with no point masses")
    dim, h, n, m = mesh.dim, mesh.h, partition.n, partition.cells_per_side
    hd = h ** dim
    scale = n ** ((dim + 2) / 2.0)
    phi_cells, phi_nodes = _bump(partition, 0, m)
    window = (slice(0, m),) * dim
    # np.diff along axis k gives m faces along k and m+1 face lines across
    # each other axis; the last of those lies on Q's far edge, outside the
    # support, so the m^d window keeps every nonzero face.
    g_phi = [np.diff(phi_nodes, axis=k)[window] / h for k in range(dim)]

    # block subscripts: "ai" in 1D, "aibj" in 2D; a, b index subcubes
    block = "aibj"[:2 * dim]
    contract = f"{block},{block[1::2]}->{block[::2]}"
    square = f"{block},{block}->{block[::2]}"

    def blocks(arr):
        return arr[(slice(0, mesh.n),) * dim].reshape((n, m) * dim)

    # einsum sums in an order that follows its operands' strides, so a
    # broadcast f is laid out in full first; it is freed before the gradient
    num = hd * np.einsum(contract, blocks(np.ascontiguousarray(f.values)), phi_cells)
    den = np.zeros(num.shape)
    grad_sq = np.zeros(num.shape)
    for k in range(dim):
        g_blocks = blocks(face_gradient(u, k))
        den += np.einsum(contract, g_blocks, g_phi[k])
        # ||grad u||_{L2(Q)} counts the faces strictly inside Q: across each
        # axis other than k, the first face line of the block is Q's edge
        inner = g_blocks[tuple(slice(None) if ax % 2 == 0 or ax // 2 == k
                               else slice(1, None) for ax in range(2 * dim))]
        grad_sq += np.einsum(square, inner, inner)
        del g_blocks, inner  # one gradient component is resident at a time
    den = (hd * den).ravel()
    num = num.ravel()
    grad_local = np.sqrt(hd * grad_sq).ravel()

    values = np.divide(num, den, out=np.full(num.shape, np.nan), where=den != 0.0)
    unstable = (np.abs(den) < eps_den * scale * grad_local) | (den == 0.0)
    out_of_range = np.zeros(num.shape, dtype=bool)
    if bounds is not None:
        lam, Lam = bounds
        out_of_range = ~((lam / SANITY_FACTOR <= values)
                         & (values <= Lam * SANITY_FACTOR))
    flags = np.where(unstable, "unstable-denominator",
                     np.where(out_of_range, "out-of-range", "ok"))
    if not np.any(flags == "ok"):
        raise RecoveryFailureError("every subcube was flagged; recovery failed")
    return PwcRecovery(partition, values, tuple(flags.tolist()))


def recover_1d(u: ScalarField, f: RightHandSide, w_excl: float = None,
               *, lam: float, Lam: float) -> Recovery1D:
    """Pivot-based full recovery on (0,1): a = (F(gamma) - F(x)) / u'(x).

    The pivot gamma is the sign change of the discrete derivative, located
    by linear interpolation; cells inside |x - gamma| < w_excl are filled by
    linear interpolation of the window edge values (the quotient is 0/0 at
    the pivot), and the result is clamped to [lam, Lam], counting the clamped
    cells in n_clamped. w_excl defaults to four mesh cells.
    """
    mesh = same_mesh(u, f)
    if mesh.dim != 1:
        raise FieldArgumentError("recover_1d requires a dim-1 mesh")
    if w_excl is None:
        w_excl = 4.0 * mesh.h
    if w_excl <= 0:
        raise FieldArgumentError(f"w_excl must be > 0, got {w_excl}")
    h = mesh.h
    x = mesh.cell_centers_1d()
    du = face_gradient(u, 0)
    sign = np.sign(du)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if len(flips) == 0:
        raise MalformedInputError("discrete derivative has no sign change")
    crossings = x[flips] + h * du[flips] / (du[flips] - du[flips + 1])
    if len(flips) > 1:
        raise AmbiguousPivotError(crossings.tolist())
    gamma = float(crossings[0])

    F = f.antiderivative
    F_gamma = float(np.interp(gamma, x, F))
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (F_gamma - F) / du
    # the window is one run of cells; fill it from the cells next to it
    inside = np.flatnonzero(np.abs(x - gamma) < w_excl)
    if len(inside) == mesh.n:
        raise FieldArgumentError("exclusion window swallows the whole domain")
    if len(inside):
        lo, hi = inside[0] - 1, inside[-1] + 1
        if lo >= 0 and hi < mesh.n:
            a[inside] = a[lo] + (x[inside] - x[lo]) * (a[hi] - a[lo]) / (x[hi] - x[lo])
        else:
            a[inside] = a[lo] if lo >= 0 else a[hi]
    n_clamped = int(np.count_nonzero((a < lam) | (a > Lam)))
    a = np.clip(a, lam, Lam)
    return Recovery1D(mesh, gamma, a, w_excl, n_clamped)
