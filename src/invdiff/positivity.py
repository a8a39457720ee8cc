# The positivity weight w = a |grad u|^2 + f u and the empirical fit of
# the lower bound w >= c * dist(x, boundary)^beta.

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh
from .field import (CoefficientField, ScalarField, FieldArgumentError,
                    FieldInvariantError, checked_values, corner_average,
                    gradient, same_mesh, write_csv)
from .forward import RightHandSide

__all__ = ["WeightField", "PositivityFit", "DegenerateFitError",
           "compute_weight", "fit_pc_beta", "check_pc"]


class DegenerateFitError(ValueError):
    """Envelope fit impossible (weight vanishes or too few usable bins)."""


@dataclass(frozen=True)
class WeightField:
    """Cellwise positivity weight; tiny negatives near the boundary are a
    discretization artifact and tolerated up to 1e-12 * max."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        checked_values(self, self.mesh.cell_shape)

    def clipped(self) -> np.ndarray:
        return np.maximum(self.values, 0.0)


@dataclass(frozen=True)
class PositivityFit:
    """Fitted (c, beta) of the lower envelope, with the envelope points kept
    for export. beta_hat is reported as fitted, even if slightly negative."""

    c_hat: float
    beta_hat: float
    n_bins: int
    r2: float
    log_dist: np.ndarray
    log_wmin: np.ndarray

    @property
    def beta_hat_clipped(self) -> float:
        return max(self.beta_hat, 0.0)

    def to_json_dict(self) -> dict:
        return {"c_hat": self.c_hat, "beta_hat": self.beta_hat,
                "r2": self.r2, "n_bins": self.n_bins}


def _interpolate_gradient_sq_to_cells(u: ScalarField) -> np.ndarray:
    """|grad u|^2 at cell centers; faces are averaged arithmetically per axis."""
    dim = u.mesh.dim
    # component k lies on faces across axis k, between the cell centers
    # along every other axis
    return functools.reduce(np.add, (
        corner_average(g, [j for j in range(dim) if j != k]) ** 2
        for k, g in enumerate(gradient(u).components)))


def compute_weight(a: CoefficientField, u: ScalarField,
                   f: RightHandSide) -> WeightField:
    """Cellwise a |grad u|^2 + f u with face-to-center interpolation."""
    mesh = same_mesh(a, u, f)
    if f.point_masses:
        raise FieldArgumentError("weight computation needs a smooth right side")
    # an in-range a, u and f can still overflow w; checked below
    with np.errstate(over="ignore", invalid="ignore"):
        w = a.values * _interpolate_gradient_sq_to_cells(u) \
            + f.values * corner_average(u.padded())
    if not np.all(np.isfinite(w)):
        raise DegenerateFitError("weight overflows to non-finite values")
    if f.is_nonnegative:
        floor = -1e-12 * max(float(w.max()), 0.0)
        if w.min() < floor:
            raise FieldInvariantError(
                f"weight reaches {w.min():.3e} although f >= 0")
    return WeightField(mesh, w)


def _loglog_fit(log_x: np.ndarray, log_y: np.ndarray):
    """Least-squares line log_y ~ slope * log_x + intercept; returns
    (slope, intercept, r2), with r2 = 1 for a constant log_y, and
    (nan, nan, 0.0) when log_x has too little spread to fix a slope."""
    (slope, intercept), _, rank, _, _ = np.polyfit(log_x, log_y, 1, full=True)
    if rank < 2:
        return float("nan"), float("nan"), 0.0
    pred = slope * log_x + intercept
    ss_res = float(np.sum((log_y - pred) ** 2))
    ss_tot = float(np.sum((log_y - log_y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def fit_pc_beta(w: WeightField, n_bins: int) -> PositivityFit:
    """Lower-envelope power-law fit of w against boundary distance.

    Cells are binned by log dist into n_bins log-spaced bins over
    [h, max dist] (the first boundary layer dist < h is dropped); each bin
    with at least 5 cells contributes its minimal-w cell as an envelope
    point, and a least-squares line on (log dist, log w_min) gives
    slope beta_hat and exp(intercept) c_hat.
    """
    if n_bins < 4:
        raise FieldArgumentError(f"n_bins must be >= 4, got {n_bins}")
    mesh = w.mesh
    vals = w.values.ravel()
    if np.all(vals <= 0):
        raise DegenerateFitError("weight is non-positive everywhere")
    dist = mesh.boundary_distances().ravel()
    h = mesh.h
    dmax = float(dist.max())
    if dmax <= h:
        raise DegenerateFitError(f"no cells beyond one layer (max dist {dmax} <= h)")
    edges = np.geomspace(h, dmax, n_bins + 1)
    edges[-1] = np.nextafter(edges[-1], np.inf)  # keep the farthest cell inside
    which = np.digitize(dist, edges) - 1
    log_d, log_w = [], []
    for b in range(n_bins):
        members = np.nonzero(which == b)[0]
        if len(members) < 5:
            continue
        k = members[np.argmin(vals[members])]
        if vals[k] <= 0:
            continue
        log_d.append(np.log(dist[k]))
        log_w.append(np.log(vals[k]))
    if len(log_d) < 2:
        raise DegenerateFitError(
            f"only {len(log_d)} usable envelope bins out of {n_bins}")
    log_d = np.asarray(log_d)
    log_w = np.asarray(log_w)
    beta, intercept, r2 = _loglog_fit(log_d, log_w)
    return PositivityFit(c_hat=float(np.exp(intercept)), beta_hat=float(beta),
                         n_bins=n_bins, r2=r2, log_dist=log_d, log_wmin=log_w)


def check_pc(w: WeightField, c: float, beta: float):
    """Exhaustive check of w >= c * dist^beta over all cells.

    Returns (holds, worst_cell, worst_ratio) where worst_ratio is the
    minimum of w / dist^beta and worst_cell its cell index.
    """
    if c <= 0:
        raise FieldArgumentError(f"c must be > 0, got {c}")
    if beta < 0:
        raise FieldArgumentError(f"beta must be >= 0, got {beta}")
    dist = w.mesh.boundary_distances()
    ratio = w.values / dist ** beta
    flat = int(np.argmin(ratio))
    worst_cell = flat if w.mesh.dim == 1 else tuple(
        int(k) for k in np.unravel_index(flat, ratio.shape))
    worst_ratio = float(ratio.ravel()[flat])
    return worst_ratio >= c, worst_cell, worst_ratio


def write_envelope_csv(path, fit: PositivityFit):
    """Envelope points as CSV with header log_dist,log_wmin."""
    write_csv(path, "log_dist,log_wmin", [fit.log_dist, fit.log_wmin])
