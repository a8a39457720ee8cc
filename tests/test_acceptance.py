# Acceptance gate: every criterion runs at its stated tolerance and prints
# one PASS/FAIL line. Regression-pinned constants were recorded on the
# reference run of this suite and are asserted byte-stable.

import json

import numpy as np
import pytest

from invdiff.mesh import Mesh, Partition
from invdiff.field import CoefficientField, ScalarField, grid_l2, norm_h10
from invdiff.forward import RightHandSide, solve_1d, solve_fd_2d, series_cube
from invdiff.positivity import compute_weight, fit_pc_beta, check_pc, power_law_fit
from invdiff.mollify import MollifierSpec, mollify, approximation_functional
from invdiff.recovery import recover_pwc, recover_1d
from invdiff.experiments import (coefficient_family, stability_scan,
                                 envelope_constant, lower_bound_closed_form,
                                 weighted_estimate_monitor,
                                 nonidentifiability_demo, PIVOT_ALPHA0)
from invdiff.cli import main as cli_main

# Regression-pinned constants (reference run of this machine/configuration).
PINNED_RATIO_MAX_1D = 0.3863501943156543   # max delta/e^(2/9), 1D families
PINNED_RATIO_MAX_2D = 0.0976448591449116   # max delta/e^(1/6), 2D smooth
PINNED_MONITOR_MAX = 0.0044884801847442915  # weighted-estimate ratio, 100 seeds
REFINEMENT_DRIFT = 1.02


def report(tag, ok, detail):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


def torsion_2d(n, tol=1e-10):
    mesh = Mesh(2, n)
    a = CoefficientField.constant(mesh, 1.0, 0.5, 2.0)
    f = RightHandSide.constant(mesh, 1.0)
    u, _ = solve_fd_2d(a, f, tol=tol)
    return mesh, a, f, u


@pytest.fixture(scope="module")
def torsion_solutions():
    return {n: torsion_2d(n) for n in (128, 256)}


def test_criterion_1_forward_1d_exactness():
    mesh = Mesh(1, 1024)
    a = CoefficientField.constant(mesh, 1.0, 0.5, 2.0)
    f = RightHandSide.constant(mesh, 1.0)
    u, gamma, _ = solve_1d(a, f)
    x = mesh.node_coords_1d()
    err = float(np.max(np.abs(u.values - x * (1 - x) / 2)))
    a_lin = CoefficientField(mesh, 1.0 + mesh.cell_centers_1d(), 0.5, 2.5)
    _, gamma_lin, _ = solve_1d(a_lin, f)
    gamma_exact = (1 - np.log(2)) / np.log(2)
    ok = (abs(gamma - 0.5) <= 1e-12 and err <= mesh.h ** 2
          and abs(gamma_lin - gamma_exact) <= 1e-4)
    report(1, ok, f"gamma={gamma}, nodal err={err:.2e} (h^2={mesh.h**2:.2e}), "
                  f"gamma(1+x) err={abs(gamma_lin - gamma_exact):.2e}")


def test_criterion_2_forward_2d_order():
    errors = {}
    for n in (128, 256):
        mesh = Mesh(2, n)
        a = CoefficientField.constant(mesh, 1.0, 0.5, 2.0)
        xc = mesh.cell_centers_1d()
        f = RightHandSide(mesh, 2 * np.pi ** 2
                          * np.outer(np.sin(np.pi * xc), np.sin(np.pi * xc)))
        u, _ = solve_fd_2d(a, f, tol=1e-11)
        xn = mesh.node_coords_1d()
        exact = np.outer(np.sin(np.pi * xn), np.sin(np.pi * xn))
        errors[n] = float(np.max(np.abs(u.values - exact)))
    ratio = errors[128] / errors[256]
    report(2, 3.6 <= ratio <= 4.4,
           f"Linf error ratio N=128/N=256 = {ratio:.4f}, window [3.6, 4.4]")


def test_criterion_3_series_vs_richardson(torsion_solutions):
    centers = {}
    for n in (128, 256):
        _, _, _, u = torsion_solutions[n]
        centers[n] = u.values[n // 2 - 1, n // 2 - 1]
    richardson = (4 * centers[256] - centers[128]) / 3
    series = series_cube([0.5, 0.5], 199, 2)
    diff = abs(series - richardson)
    report(3, diff <= 5e-4,
           f"series={series:.7f} richardson={richardson:.7f} diff={diff:.2e}")


def test_criterion_4a_pc_fit_1d():
    mesh = Mesh(1, 16384)
    a = CoefficientField.constant(mesh, 1.0, 0.5, 2.0)
    f = RightHandSide.constant(mesh, 1.0)
    u, _, _ = solve_1d(a, f)
    fit = fit_pc_beta(compute_weight(a, u, f), 12)
    report("4a", -0.1 <= fit.beta_hat <= 0.1,
           f"d=1 torsion beta_hat={fit.beta_hat:.4f}, window [-0.1, 0.1]")


def test_criterion_4b_pc_fit_2d(torsion_solutions):
    # The right-angle corners of the square carry a resonant r^2 log r term
    # (u/(r^2 ln(1/r)) -> 1/pi along the diagonal), so the measured
    # full-range envelope slope stays near 1.2 at reachable meshes; the
    # clean quadratic target below is out of reach for this fitter and is
    # expected to fail. The quadratic lower bound itself does hold, see
    # test_pc_two_minorization_diagnostic.
    _, a, f, u = torsion_solutions[256]
    fit = fit_pc_beta(compute_weight(a, u, f), 12)
    report("4b", 1.6 <= fit.beta_hat <= 2.2,
           f"d=2 torsion N=256 beta_hat={fit.beta_hat:.4f}, window [1.6, 2.2]")


def test_pc_two_minorization_diagnostic(torsion_solutions):
    # supplementary: w >= c dist^2 holds uniformly with a mesh-stable c
    _, a, f, u = torsion_solutions[256]
    w = compute_weight(a, u, f)
    holds, _, worst = check_pc(w, 0.25, 2.0)
    print(f"ACCEPTANCE 4b-diagnostic: quadratic minorization holds={holds} "
          f"(min w/dist^2 = {worst:.4f})")
    assert holds


# The README's account of the red criterion 4b, checked: the corner term
# of the solution, where the envelope points sit, and how the full-range
# slope drifts with N while the log^2-corrected slope stays in the window.

@pytest.fixture(scope="module")
def torsion_512():
    return torsion_2d(512)


@pytest.fixture(scope="module")
def torsion_fits(torsion_solutions, torsion_512):
    """Weight and 12-bin envelope fit of the 2D torsion at N = 128, 256, 512."""
    fits = {}
    for n, (_, a, f, u) in [*torsion_solutions.items(), (512, torsion_512)]:
        w = compute_weight(a, u, f)
        fits[n] = w, fit_pc_beta(w, 12)
    return fits


def test_4b_corner_term_on_diagonal(torsion_solutions, torsion_512):
    # pi u / (r^2 ln(1/r)) at the diagonal node (k, k), r = sqrt(2) k h,
    # falls toward 1 as r shrinks, alike at N = 256 and N = 512
    ratios = {}
    for n, (mesh, _, _, u) in [(256, torsion_solutions[256]), (512, torsion_512)]:
        k = np.array([n // 64, n // 32, n // 16, n // 8])
        r = np.sqrt(2) * k * mesh.h
        ratios[n] = np.pi * u.values[k - 1, k - 1] / (r ** 2 * np.log(1 / r))
    assert np.all((1.0 < ratios[512]) & (ratios[512] < 1.07))
    assert np.all(np.diff(ratios[512]) > 0)
    assert np.max(np.abs(ratios[256] - ratios[512])) < 1e-3


def test_4b_envelope_on_corner_diagonals(torsion_fits):
    # corner distance / boundary distance is sqrt 2 on a diagonal only
    for n in (128, 256):
        w, fit = torsion_fits[n]
        dist = w.mesh.boundary_distances()
        x = w.mesh.cell_centers_1d()
        axis_dist = np.minimum(x, 1 - x)
        corner = np.hypot.outer(axis_dist, axis_dist)
        for log_d, log_w in zip(fit.log_dist, fit.log_wmin):
            cells = (np.log(dist) == log_d) & (np.log(w.values) == log_w)
            assert cells.any()
            assert np.allclose(corner[cells] / dist[cells], np.sqrt(2))


def test_4b_full_range_slope_rises_with_n(torsion_fits):
    slopes = [torsion_fits[n][1].beta_hat for n in (128, 256, 512)]
    assert np.all(np.diff(slopes) > 0)


def test_4b_log_squared_corrected_slope_in_window(torsion_fits):
    # w ~ dist^2 log^2(1/dist) at the corners: fit log w - 2 log log(1/dist)
    for _, fit in torsion_fits.values():
        corrected = fit.log_wmin - 2 * np.log(-fit.log_dist)
        slope = power_law_fit(fit.log_dist, corrected)[0]
        assert 1.6 <= slope <= 2.2


def test_criterion_5_mollification_scaling():
    mesh = Mesh(1, 4096)
    x = mesh.cell_centers_1d()
    fields = {
        "smooth": CoefficientField(mesh, 2.0 + np.sin(2 * np.pi * x), 0.5, 3.5),
        "step": CoefficientField(mesh, np.where(x < 0.5, 1.0, 2.0), 1.0, 2.0),
    }
    windows = {"smooth": (0.9, 1.1), "step": (0.4, 0.6)}
    slopes = {}
    ok = True
    for name, a in fields.items():
        ts = np.geomspace(4 * mesh.h, 0.1, 8)
        vals = [approximation_functional(a, mollify(a, MollifierSpec(t)), t)
                for t in ts]
        slopes[name] = float(np.polyfit(np.log(ts), np.log(vals), 1)[0])
        lo, hi = windows[name]
        ok = ok and lo <= slopes[name] <= hi
    report(5, ok, f"slopes smooth={slopes['smooth']:.4f} (target [0.9,1.1]), "
                  f"step={slopes['step']:.4f} (target [0.4,0.6])")


def test_criterion_6_pwc_recovery():
    n = 256
    mesh = Mesh(2, n)
    f = RightHandSide.constant(mesh, 1.0)

    # 4x4 checkerboard round trip on P_4
    q4 = np.add.outer(np.arange(n) // 64, np.arange(n) // 64) % 2
    a4 = np.where(q4 == 0, 1.0, 2.0)
    u4, _ = solve_fd_2d(CoefficientField(mesh, a4, 1.0, 2.0), f, tol=1e-11)
    part4 = Partition(mesh, 4)
    rec = recover_pwc(u4, f, part4, bounds=(1.0, 2.0))
    truth4 = np.array([a4[part4.cell_mask(k)][0] for k in range(16)])
    rel_err = float(np.max(np.abs(rec.values - truth4) / truth4))

    # noise scaling on a 2x2 board (subordinate to both partitions)
    q2 = np.add.outer(np.arange(n) // 128, np.arange(n) // 128) % 2
    a2 = np.where(q2 == 0, 1.0, 2.0)
    u2, _ = solve_fd_2d(CoefficientField(mesh, a2, 1.0, 2.0), f, tol=1e-11)
    xn = mesh.node_coords_1d()
    rng = np.random.default_rng(42)
    ks = np.arange(1, 9)
    s = np.sin(np.pi * np.outer(ks, xn))
    noise = s.T @ (rng.standard_normal((8, 8)) * np.outer(1 / ks, 1 / ks)) @ s
    noise *= 3e-3 / norm_h10(ScalarField(mesh, noise))
    u_noisy = ScalarField(mesh, u2.values + noise)
    errs = {}
    for nq in (2, 4):
        part = Partition(mesh, nq)
        rec_n = recover_pwc(u_noisy, f, part, bounds=(1.0, 2.0))
        truth = np.array([a2[part.cell_mask(k)][0]
                          for k in range(part.n_subcubes)])
        errs[nq] = float(np.max(np.abs(rec_n.values - truth)))
    growth = errs[4] / errs[2]
    bound = 2 ** ((mesh.dim + 2) / 2) * 1.5
    ok = rel_err <= 0.05 and growth <= bound
    report(6, ok, f"checkerboard rel Linf={rel_err:.2%} (<=5%), noise error "
                  f"growth n=2->4: {growth:.2f} (<= {bound})")


def test_criterion_7_full_1d_recovery():
    mesh = Mesh(1, 2048)
    a = CoefficientField(mesh, 1.0 + mesh.cell_centers_1d(), 0.5, 2.5)
    f = RightHandSide.constant(mesh, 1.0)
    u, _, _ = solve_1d(a, f)
    rec = recover_1d(u, f, w_excl=0.02, lam=0.5, Lam=2.5)
    rel = grid_l2(mesh, rec.values - a.values) / grid_l2(mesh, a.values)
    report(7, rel <= 0.01, f"a=1+x round trip rel L2 error {rel:.4%} (<=1%)")


def test_criterion_8_lower_bound_exponent():
    mesh = Mesh(1, 4096)
    f = RightHandSide.constant(mesh, 1.0)

    def solve(a):
        return solve_1d(a, f)[0]

    # smallest offset at least five cells so the midpoint quadrature of the
    # discrete norm stays within the 1% comparison budget
    pairs = list(coefficient_family("step-1d-lowerbound", [0], mesh,
                                    n_pairs=10, eps_min=1.25e-3, eps_max=1e-1))
    samples, fit = stability_scan(iter(pairs), solve, floor=1e-8)
    worst = 0.0
    for (a, b, meta), s in zip(pairs, samples):
        lb = lower_bound_closed_form(meta["beta_eff"], alpha=meta["alpha_eff"])
        worst = max(worst, abs(lb.e_prime_l2_exact - s.e_h10)
                    / lb.e_prime_l2_exact)
    ok = 0.28 <= fit.alpha_hat <= 0.39 and worst <= 0.01
    report(8, ok, f"alpha_hat={fit.alpha_hat:.4f} (target [0.28,0.39] around "
                  f"alpha0={PIVOT_ALPHA0:.6f}), closed-vs-grid worst "
                  f"rel diff {worst:.3%} (<=1%)")


def test_criterion_9_upper_bound_envelopes():
    def scan_1d(n, family, seed, n_pairs):
        mesh = Mesh(1, n)
        f = RightHandSide.constant(mesh, 1.0)
        samples, _ = stability_scan(
            coefficient_family(family, [seed], mesh, n_pairs=n_pairs),
            lambda a: solve_1d(a, f)[0], floor=1e-8)
        return samples

    def scan_2d(n):
        mesh = Mesh(2, n)
        f = RightHandSide.constant(mesh, 1.0)
        samples, _ = stability_scan(
            coefficient_family("smooth-fourier", [21], mesh, n_pairs=10),
            lambda a: solve_fd_2d(a, f, tol=1e-10)[0], floor=1e-8)
        return samples

    base_1d = scan_1d(2048, "smooth-fourier", 11, 12) \
        + scan_1d(4096, "step-1d-lowerbound", 0, 10)
    c29 = envelope_constant(base_1d, 2.0 / 9.0)
    fine_1d = scan_1d(4096, "smooth-fourier", 11, 12) \
        + scan_1d(8192, "step-1d-lowerbound", 0, 10)
    c29_fine = envelope_constant(fine_1d, 2.0 / 9.0)

    c16 = envelope_constant(scan_2d(64), 1.0 / 6.0)
    c16_fine = envelope_constant(scan_2d(128), 1.0 / 6.0)

    ok = (abs(c29 - PINNED_RATIO_MAX_1D) <= 1e-9 * PINNED_RATIO_MAX_1D
          and c29_fine <= PINNED_RATIO_MAX_1D * REFINEMENT_DRIFT
          and abs(c16 - PINNED_RATIO_MAX_2D) <= 1e-9 * PINNED_RATIO_MAX_2D
          and c16_fine <= PINNED_RATIO_MAX_2D * REFINEMENT_DRIFT)
    report(9, ok, f"1D c(2/9)={c29:.10f} (pinned {PINNED_RATIO_MAX_1D:.10f}, "
                  f"refined {c29_fine:.10f}); 2D c(1/6)={c16:.10f} "
                  f"(pinned {PINNED_RATIO_MAX_2D:.10f}, refined {c16_fine:.10f})")


def test_criterion_10_nonidentifiability():
    h = 1.0 / 1024
    gaps = {q: nonidentifiability_demo(q) for q in (0.5, 1.0, 1.5)}
    ok = all(gap <= 10 * h for gap in gaps.values())
    report(10, ok, "sup gaps vs hat: "
           + ", ".join(f"q={q}: {g:.2e}" for q, g in gaps.items())
           + f" (<= 10h = {10 * h:.2e})")


def test_criterion_11_weighted_estimate_monitor():
    mesh = Mesh(1, 512)
    f = RightHandSide.constant(mesh, 1.0)

    def solve(a):
        return solve_1d(a, f)[0]

    triples = []
    for seed in range(100):
        a, b, _ = next(coefficient_family("smooth-fourier", [seed], mesh,
                                          n_pairs=1, eps_min=1e-2,
                                          eps_max=1e-2))
        triples.append(weighted_estimate_monitor(a, b, f, solve))
    ratio_max = max(t[2] for t in triples)
    none_violates = all(lhs <= ratio_max * rhs * (1 + 1e-12)
                        for lhs, rhs, _ in triples)
    a, _, _ = next(coefficient_family("smooth-fourier", [0], mesh, n_pairs=1))
    lhs_same, _, _ = weighted_estimate_monitor(a, a, f, solve)
    ok = (abs(ratio_max - PINNED_MONITOR_MAX) <= 1e-9 * PINNED_MONITOR_MAX
          and none_violates and lhs_same == 0.0)
    report(11, ok, f"ratio_max={ratio_max:.10f} "
                   f"(pinned {PINNED_MONITOR_MAX:.10f}), lhs(a=a)={lhs_same}")


def test_criterion_12_determinism(tmp_path):
    configs = {
        "solve": {
            "mesh": {"dim": 2, "n": 32},
            "coefficient": {"kind": "fourier", "seed": 5,
                            "lambda": 0.5, "Lambda": 2.0},
            "rhs": {"constant": 1.0},
            "solver": {"tol": 1e-10},
        },
        "scan": {
            "mesh": {"dim": 1, "n": 1024},
            "experiment": {"family": "smooth-fourier", "seeds": [2, 3],
                           "n_pairs": 6},
        },
        "pcfit": {
            "mesh": {"dim": 1, "n": 4096},
            "coefficient": {"kind": "constant", "value": 1.0,
                            "lambda": 0.5, "Lambda": 2.0},
            "rhs": {"constant": 1.0},
            "fit": {"n_bins": 10},
        },
    }
    ok = True
    details = []
    for command, payload in configs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(payload))
        out_a, out_b = tmp_path / f"{command}_a", tmp_path / f"{command}_b"
        rc_a = cli_main([command, "--config", str(cfg), "--out", str(out_a),
                         "--threads", "1"])
        rc_b = cli_main([command, "--config", str(cfg), "--out", str(out_b),
                         "--threads", "7"])
        identical = rc_a == rc_b == 0 and all(
            (out_a / p.name).read_bytes() == p.read_bytes()
            for p in sorted(out_b.iterdir()))
        details.append(f"{command}: {'identical' if identical else 'DIFFERS'}")
        ok = ok and identical
    report(12, ok, "; ".join(details))
