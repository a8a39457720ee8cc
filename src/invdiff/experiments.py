# Orchestrated empirical studies: Hoelder-exponent scans over coefficient
# families, the explicit step-family lower bound, the weighted-estimate
# monitor, and the point-mass non-identifiability demonstration.

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh, Partition
from .field import (CoefficientField, ScalarField, FieldArgumentError,
                    grid_l2, norm_h10, coefficient_h1_seminorm, same_mesh,
                    weighted_l2_sq)
from .forward import RightHandSide, solve_1d
from .positivity import compute_weight, power_law_fit

__all__ = [
    "PIVOT_ALPHA0", "FAMILY_TAGS", "PairSample", "ExponentFit",
    "LowerBoundValues", "sine_basis", "sine_series", "step_coefficient",
    "coefficient_family", "stability_scan", "fit_exponent",
    "envelope_constant", "lower_bound_closed_form",
    "weighted_estimate_monitor", "nonidentifiability_demo",
]

# In-range stationary point of g(t) = (1 - t^2/2)/(2 - t): the root of
# 1 - 2 t + t^2/2 in (0,1). g(PIVOT_ALPHA0) equals PIVOT_ALPHA0.
PIVOT_ALPHA0 = 2.0 - math.sqrt(2.0)

FAMILY_TAGS = ("smooth-fourier", "pwc-random", "step-1d-lowerbound")


@dataclass(frozen=True)
class PairSample:
    delta_l2: float
    e_h10: float
    metadata: dict
    excluded: bool = False


@dataclass(frozen=True)
class ExponentFit:
    alpha_hat: float
    c_hat: float
    r2: float
    n_used: int
    n_excluded: int
    status: str = "ok"


def _pivot_g(t: float) -> float:
    return (1.0 - t * t / 2.0) / (2.0 - t)


def _snap(x: float, n: int) -> float:
    return round(x * n) / n


def sine_basis(x: np.ndarray, k_max: int) -> np.ndarray:
    """Rows sin(pi k x) for k = 1..k_max at the points x."""
    k = np.arange(1, k_max + 1)
    return np.sin(np.pi * k[:, None] * x[None, :])


def sine_series(xi: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """sum_k xi_k k^-2 sin(pi k x) over the rows of a sine_basis."""
    c = xi * np.arange(1, len(xi) + 1) ** -2.0
    # row by row, the order np.sum(axis=0) adds rows in, so the same bits
    acc = c[0] * basis[0]
    for ck, row in zip(c[1:], basis[1:]):
        acc += ck * row
    return acc


def _fourier_sampler(x: np.ndarray, dim: int, k_max: int):
    """rng -> random sine series with k^-2 decay on the dim-fold product of
    the points x, normalized so sup <= 1 by the coefficient bound
    (clamp-free class membership). The sine basis is built once here and,
    like every array draw reads, is read-only."""
    k = np.arange(1, k_max + 1)
    if dim == 1:
        basis = sine_basis(x, k_max)
        shared = (k, basis)
    else:
        # np.outer rounds pi k x differently from sine_basis; kept so that
        # the 2D fields stay bit for bit what they were
        s = np.sin(np.pi * np.outer(k, x))
        decay = np.outer(k ** -2.0, k ** -2.0)
        shared = (k, s, decay)
    for arr in shared:
        arr.setflags(write=False)

    def draw(rng):
        if dim == 1:
            xi = rng.standard_normal(k_max)
            series = sine_series(xi, basis)
            bound = np.sum(np.abs(xi) * k ** -2.0)
        else:
            xi = rng.standard_normal((k_max, k_max))
            series = s.T @ (xi * decay) @ s
            bound = np.sum(np.abs(xi) * decay)
        return series / bound if bound > 0 else series

    return draw


def step_coefficient(mesh: Mesh, alpha: float, lam: float = 0.4,
                     Lam: float = 1.1) -> CoefficientField:
    """The two-level 1D step, 1/a in {1, 2}, with the jump at alpha."""
    x = mesh.cell_centers_1d()
    return CoefficientField(mesh, np.where(x < alpha, 1.0, 0.5), lam, Lam)


def coefficient_family(tag: str, seeds, mesh: Mesh, n_pairs: int = 12,
                       lam: float = 0.5, Lam: float = 2.0,
                       partition_n: int = 2, k_max: int = 6,
                       eps_min: float = 1e-3, eps_max: float = 1e-1):
    """Deterministic stream of coefficient pairs (a, b, metadata): the
    n_pairs pairs of each seed in seeds in turn, pair j of a seed drawn from
    default_rng([seed, j]) with the perturbation amplitudes log-spaced from
    eps_min to eps_max. What the pairs share (the sine basis, the subcube
    map, the step family's a) is built once for the whole stream.

    smooth-fourier: random sine fields with k^-2 decay; every field stays
    inside [lam, Lam] by construction, no clamping.
    pwc-random: piecewise constants on P_partition_n.
    step-1d-lowerbound: step_coefficient with its default class bounds,
    the jump at the pivot for a and at the amplitudes as offsets for b,
    offsets snapped to mesh nodes; the same pairs for every seed.
    """
    if tag not in FAMILY_TAGS:
        raise FieldArgumentError(f"unknown family tag {tag!r}")
    if n_pairs < 1:
        raise FieldArgumentError(f"n_pairs must be >= 1, got {n_pairs}")
    eps_values = np.geomspace(eps_min, eps_max, n_pairs)

    if tag == "step-1d-lowerbound":
        if mesh.dim != 1:
            raise FieldArgumentError("step-1d-lowerbound is a dim-1 family")
        alpha_eff = _snap(PIVOT_ALPHA0, mesh.n)
        a = step_coefficient(mesh, alpha_eff)
        for seed in seeds:
            for j, offset in enumerate(eps_values):
                beta_eff = _snap(PIVOT_ALPHA0 + offset, mesh.n)
                b = step_coefficient(mesh, beta_eff)
                meta = {"family": tag, "seed": seed * 10000 + j, "n": mesh.n,
                        "alpha_eff": alpha_eff, "beta_eff": beta_eff}
                yield a, b, meta
        return

    CoefficientField.check_class(lam, Lam)
    mid = 0.5 * (lam + Lam)
    half = 0.5 * (Lam - lam)
    base_amp = 0.35 * (Lam - lam)
    margin = float(eps_values.max()) * (Lam - lam)
    if base_amp + margin >= half:
        raise FieldArgumentError("perturbation amplitudes would leave the class")
    if tag == "smooth-fourier":
        fourier_field = _fourier_sampler(mesh.cell_centers_1d(), mesh.dim,
                                         k_max)
    else:
        part = Partition(mesh, partition_n)
        qmap = part.subcube_of_cells()

    for seed in seeds:
        for j, eps in enumerate(eps_values):
            rng = np.random.default_rng([seed, j])
            if tag == "smooth-fourier":
                base = fourier_field(rng)
                pert = fourier_field(rng)
                a_vals = mid + base_amp * base
                b_vals = a_vals + eps * (Lam - lam) * pert
            else:  # pwc-random
                base_q = rng.uniform(lam + margin, Lam - margin,
                                     part.n_subcubes)
                pert_q = rng.uniform(-1.0, 1.0, part.n_subcubes)
                a_vals = base_q[qmap]
                b_vals = a_vals + eps * (Lam - lam) * pert_q[qmap]
            a = CoefficientField(mesh, a_vals, lam, Lam)
            b = CoefficientField(mesh, b_vals, lam, Lam)
            meta = {"family": tag, "seed": seed * 10000 + j, "n": mesh.n,
                    "eps": float(eps)}
            yield a, b, meta


def stability_scan(pairs, solve, floor: float = 1e-8, solver_tol=None,
                   workers: int = 1):
    """Solve both members of every pair and fit the log-log stability slope.

    solve maps a CoefficientField to a ScalarField. Samples with
    e_h10 < floor are excluded from the fit. The fit needs at least 8
    usable samples spanning two decades of e_h10, otherwise its status is
    insufficient-range.

    With workers > 1, up to workers pairs are measured at once on a thread
    pool, so solve must be safe to call from several threads. The pairs are
    drawn in the calling thread and the samples come back in pair order, so
    they do not depend on workers.
    """
    if floor <= 0:
        raise FieldArgumentError(f"floor must be > 0, got {floor}")
    if solver_tol is not None and floor < 10.0 * solver_tol:
        raise FieldArgumentError(
            f"floor {floor} must be at least 10x the solver tolerance {solver_tol}")
    if workers < 1:
        raise FieldArgumentError(f"workers must be >= 1, got {workers}")

    def measure(a, b, meta):
        u_a = solve(a)
        u_b = solve(b)
        diff = ScalarField(a.mesh, u_a.values - u_b.values)
        delta = grid_l2(a.mesh, a.values - b.values)
        e = norm_h10(diff)
        return PairSample(delta_l2=delta, e_h10=e, metadata=meta,
                          excluded=e < floor)

    if workers == 1:
        # in the calling thread: a pool thread would take the solves' arrays
        # from a malloc arena of its own, which stays resident
        samples = [measure(a, b, meta) for a, b, meta in pairs]
    else:
        # imported here, so that importing the CLI does not pay for it
        from concurrent.futures import ThreadPoolExecutor

        # at most workers pairs in flight; Executor.map would draw and
        # submit every pair at once, so all their fields would be resident
        samples, pending = [], deque()
        with ThreadPoolExecutor(workers) as pool:
            for a, b, meta in pairs:
                if len(pending) == workers:
                    samples.append(pending.popleft().result())
                pending.append(pool.submit(measure, a, b, meta))
            samples.extend(future.result() for future in pending)
    fit = fit_exponent(samples)
    return samples, fit


def fit_exponent(samples) -> ExponentFit:
    """Least-squares log-log fit of delta_l2 against e_h10; envelope_constant
    gives the conservative constant for the fitted exponent."""
    used = [s for s in samples if not s.excluded]
    n_excluded = len(samples) - len(used)
    if len(used) < 2:
        return ExponentFit(float("nan"), float("nan"), 0.0, len(used),
                           n_excluded, status="insufficient-range")
    log_e = np.log(np.array([s.e_h10 for s in used]))
    log_d = np.log(np.array([s.delta_l2 for s in used]))
    alpha, c_hat, r2 = power_law_fit(log_e, log_d)
    status = "ok"
    span = float(np.exp(log_e.max() - log_e.min()))
    if len(used) < 8 or span < 100.0:
        status = "insufficient-range"
    return ExponentFit(alpha, c_hat, r2, len(used), n_excluded, status)


def envelope_constant(samples, alpha: float) -> float:
    """Smallest c with delta_l2 <= c * e_h10^alpha over the included samples."""
    ratios = [s.delta_l2 / s.e_h10 ** alpha for s in samples if not s.excluded]
    if not ratios:
        raise FieldArgumentError("no included samples")
    return float(max(ratios))


# ---------------------------------------------------------------------------
# Explicit two-level step family: closed forms for the coefficient gap, the
# pivot gap eta, and the derivative-difference norm.

@dataclass(frozen=True)
class LowerBoundValues:
    delta_a_l2: float        # ||A - B||_L2 = |alpha - beta|^(1/2)
    eta: float               # |g(alpha) - g(beta)|
    e_prime_l2_upper: float  # sqrt((2/3)|beta-alpha|^3 + 8 eta^2)
    e_prime_l2_exact: float  # exactly integrated ||E'||_L2


def lower_bound_closed_form(beta: float,
                            alpha: float = PIVOT_ALPHA0) -> LowerBoundValues:
    """Closed-form quantities for the pair of two-level steps at alpha, beta."""
    if not 0.0 < beta < 1.0:
        raise FieldArgumentError(f"beta must be in (0,1), got {beta}")
    if not 0.0 < alpha < 1.0:
        raise FieldArgumentError(f"alpha must be in (0,1), got {alpha}")
    gamma_a = _pivot_g(alpha)
    gamma_b = _pivot_g(beta)
    eta_signed = gamma_a - gamma_b
    eta = abs(eta_signed)
    gap = abs(beta - alpha)
    delta_a = math.sqrt(gap)
    upper = math.sqrt((2.0 / 3.0) * gap ** 3 + 8.0 * eta ** 2)

    # E'(x) = -(A - B)(x - gamma_a) + B(x) eta_signed is linear between the
    # breakpoints of A and B; integrate its square exactly piece by piece.
    lo, hi = min(alpha, beta), max(alpha, beta)
    total = 0.0
    for x0, x1 in ((0.0, lo), (lo, hi), (hi, 1.0)):
        if x1 <= x0:
            continue
        xm = 0.5 * (x0 + x1)
        a_side = 1.0 if xm <= alpha else 2.0
        b_side = 1.0 if xm <= beta else 2.0
        slope = -(a_side - b_side)
        intercept = (a_side - b_side) * gamma_a + b_side * eta_signed
        if slope == 0.0:
            total += intercept ** 2 * (x1 - x0)
        else:
            total += ((intercept + slope * x1) ** 3
                      - (intercept + slope * x0) ** 3) / (3.0 * slope)
    return LowerBoundValues(delta_a, eta, upper, math.sqrt(total))


def weighted_estimate_monitor(a: CoefficientField, b: CoefficientField,
                              f: RightHandSide, solve):
    """Both sides of the weighted L2 estimate for one coefficient pair.

    lhs is the weighted integral of (delta/a)^2 against w = a|grad u_a|^2 + f u_a,
    rhs_norm the computable part of its upper bound; negative weight noise
    within the WeightField tolerance is clipped at zero before integrating.
    Returns (lhs, rhs_norm, ratio).
    """
    mesh = same_mesh(a, b, f)
    u_a = solve(a)
    u_b = solve(b)
    w = compute_weight(a, u_a, f)
    delta = a.values - b.values
    lhs = weighted_l2_sq(mesh, delta ** 2 / a.values ** 2, np.maximum(w.values, 0.0))
    diff = ScalarField(mesh, u_a.values - u_b.values)
    grad_bound = max(coefficient_h1_seminorm(a), coefficient_h1_seminorm(b))
    rhs_norm = norm_h10(diff) * f.sup_norm * (1.0 + grad_bound)
    if rhs_norm > 0:
        ratio = lhs / rhs_norm
    else:
        ratio = 0.0 if lhs == 0.0 else float("inf")
    return lhs, rhs_norm, ratio


def nonidentifiability_demo(q: float) -> float:
    """Sup-norm gap between the solution for the two-level coefficient a_q
    (with right side a point mass of weight 2 at 1/2) and the q = 1 hat.

    Every q in (0,2) yields the same hat solution up to discretization, so
    the gap stays at the O(h) level: distinct coefficients, one solution.
    """
    if not 0.0 < q < 2.0:
        raise FieldArgumentError(f"q must be in (0,2), got {q}")
    mesh = Mesh(1, 1024)
    f = RightHandSide.point_mass(mesh, 0.5, 2.0)
    x = mesh.cell_centers_1d()
    lam = 0.5 * min(q, 2.0 - q, 1.0)
    Lam = 2.0 * max(q, 2.0 - q, 1.0)
    a_q = CoefficientField(mesh, np.where(x < 0.5, q, 2.0 - q), lam, Lam)
    a_ref = CoefficientField(mesh, np.ones(mesh.cell_shape), lam, Lam)
    u_q, _, _ = solve_1d(a_q, f)
    u_ref, _, _ = solve_1d(a_ref, f)
    return float(np.max(np.abs(u_q.values - u_ref.values)))
