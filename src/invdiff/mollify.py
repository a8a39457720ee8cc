# Smoothing map a -> a_t and the approximation functional
# ||a - a_t||_L2 + t ||grad a_t||_L2 used to verify its t^s scaling.

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import InputError
from .field import (CoefficientField, FieldArgumentError, grid_l2,
                    coefficient_h1_seminorm, same_mesh)

__all__ = ["MollifierSpec", "ResolutionError", "mollify",
           "approximation_functional", "bump_profile", "KERNELS"]

KERNELS = ("box", "bump")


class ResolutionError(InputError):
    """Smoothing scale too small for the grid (t < 2h)."""


def bump_profile(r):
    """Unnormalized C-infinity bump exp(-1/(1-r^2)) on |r| < 1, else 0."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


@dataclass(frozen=True)
class MollifierSpec:
    """Kernel choice and smoothing scale; boundary handling is reflection."""

    t: float
    kernel: str = "box"

    def __post_init__(self):
        if not 0.0 < self.t < 1.0:
            raise FieldArgumentError(f"t must be in (0,1), got {self.t}")
        if self.kernel not in KERNELS:
            raise FieldArgumentError(f"kernel must be one of {KERNELS}")

    def weights(self, h: float) -> np.ndarray:
        """Symmetric 1D stencil with unit mass on a grid of spacing h."""
        if self.t < 2.0 * h:
            raise ResolutionError(
                f"t = {self.t} under the resolution limit 2h = {2 * h}")
        if self.kernel == "box":
            # exact overlap of each cell with [-t, t], so the discrete
            # convolution is the continuous box moll. of a cellwise field
            k_max = int(np.ceil(self.t / h + 0.5))
            k = np.arange(-k_max, k_max + 1)
            lo = np.maximum(-self.t, k * h - 0.5 * h)
            hi = np.minimum(self.t, k * h + 0.5 * h)
            w = np.maximum(hi - lo, 0.0)
        else:
            k_max = int(np.ceil(self.t / h))
            k = np.arange(-k_max, k_max + 1)
            w = bump_profile(k * h / self.t)
        return w / w.sum()


def _fast_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: a length numpy's FFT transforms quickly."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _convolve_reflect(x: np.ndarray, w: np.ndarray, axis: int) -> np.ndarray:
    """Convolve x with the odd-length stencil w along axis, reflecting x
    across each end with the edge sample repeated (d c b a | a b c d).

    One FFT product on the field extended by r = len(w)//2 cells; outputs
    that the circular wrap reaches are the first 2r, which are discarded.
    """
    n, r = x.shape[axis], len(w) // 2
    pad = [(0, 0)] * x.ndim
    pad[axis] = (r, r)
    # 'symmetric' repeats the edge sample, the cell-centered reflection
    # across the physical boundary, and reflects again if r > n
    ext = np.pad(x, pad, mode="symmetric")
    length = _fast_length(n + 2 * r)
    kernel = np.fft.rfft(w, length).reshape(
        [-1 if ax == axis else 1 for ax in range(x.ndim)])
    full = np.fft.irfft(np.fft.rfft(ext, length, axis=axis) * kernel, length,
                        axis=axis)
    keep = [slice(None)] * x.ndim
    keep[axis] = slice(2 * r, 2 * r + n)
    return full[tuple(keep)]


def mollify(a: CoefficientField, spec: MollifierSpec) -> CoefficientField:
    """Convolve a with the kernel of radius t, reflecting across the boundary.

    Convex averaging keeps the result inside [lam, Lam], so the output is a
    member of the same coefficient class.
    """
    w = spec.weights(a.mesh.h)
    out = a.values
    for axis in range(a.mesh.dim):
        out = _convolve_reflect(out, w, axis)
    out = np.clip(out, a.lam, a.Lam)  # shave one-ulp convexity overshoot
    return CoefficientField(a.mesh, out, a.lam, a.Lam)


def approximation_functional(a: CoefficientField, a_t: CoefficientField,
                             t: float) -> float:
    """||a - a_t||_L2 + t ||grad a_t||_L2 on the shared mesh."""
    return grid_l2(same_mesh(a, a_t), a.values - a_t.values) \
        + t * coefficient_h1_seminorm(a_t)
