import warnings

import numpy as np
import pytest

from invdiff.mesh import Mesh
from invdiff.field import (CoefficientField, ScalarField, FieldArgumentError,
                           FieldInvariantError)
from invdiff.forward import RightHandSide, solve_1d, solve_fd_2d
from invdiff.positivity import (WeightField, compute_weight, fit_pc_beta,
                                power_law_fit, check_pc, DegenerateFitError)


def torsion_weight(dim, n, tol=1e-10):
    mesh = Mesh(dim, n)
    a = CoefficientField.constant(mesh, 1.0, 0.5, 2.0)
    f = RightHandSide.constant(mesh, 1.0)
    if dim == 1:
        u, _, _ = solve_1d(a, f)
    else:
        u, _ = solve_fd_2d(a, f, tol=tol)
    return mesh, a, f, u, compute_weight(a, u, f)


class TestComputeWeight:
    def test_1d_torsion_closed_form(self):
        # u = x(1-x)/2 gives w(x) = (1/2-x)^2 + x(1-x)/2 = 1/4 - x(1-x)/2
        mesh, _, _, _, w = torsion_weight(1, 1024)
        x = mesh.cell_centers_1d()
        exact = 0.25 - x * (1 - x) / 2
        assert np.max(np.abs(w.values - exact)) <= 5 * mesh.h ** 2

    def test_zero_inputs(self):
        mesh = Mesh(1, 16)
        a = CoefficientField.constant(mesh, 1.0, 0.5, 2.0)
        f = RightHandSide.constant(mesh, 0.0)
        u = ScalarField(mesh, np.zeros(mesh.node_shape))
        w = compute_weight(a, u, f)
        assert np.all(w.values == 0.0)

    def test_corner_cell_shrinks_with_beta_two_rate(self):
        # corner behaviour carries a resonant log, so the observed halving
        # factor sits a little below the clean beta=2 value of 4
        values = {}
        for n in (64, 128, 256):
            _, _, _, _, w = torsion_weight(2, n)
            values[n] = w.values[0, 0]
        for ratio in (values[64] / values[128], values[128] / values[256]):
            assert 2.8 <= ratio <= 4.0

    def test_joint_scaling_is_quadratic(self):
        # (u, f) -> (su, sf) stays a consistent pair for the linear problem
        # and both weight terms pick up s^2
        mesh, a, f, u, w = torsion_weight(1, 128)
        for s in (2.0, 10.0):
            fs = RightHandSide(mesh, s * f.values)
            us = ScalarField(mesh, s * u.values)
            ws = compute_weight(a, us, fs)
            assert np.allclose(ws.values, s ** 2 * w.values, rtol=1e-12)

    def test_mismatch_rejected(self):
        mesh, a, f, u, _ = torsion_weight(1, 64)
        other = ScalarField(Mesh(1, 32), np.zeros(31))
        with pytest.raises(FieldArgumentError):
            compute_weight(a, other, f)

    def test_violation_detected_for_positive_f(self):
        # a flat negative plateau has no gradient to offset f*u < 0
        mesh, a, f, _, _ = torsion_weight(1, 64)
        bad = np.full(mesh.node_shape, -0.5)
        with pytest.raises(FieldInvariantError):
            compute_weight(a, ScalarField(mesh, bad), f)

    def test_point_mass_rejected(self):
        mesh, a, _, u, _ = torsion_weight(1, 64)
        f = RightHandSide.point_mass(mesh, 0.5, 1.0)
        with pytest.raises(FieldArgumentError):
            compute_weight(a, u, f)

    def test_peak_memory(self, traced_peak):
        # one gradient component at a time: the running |grad u|^2, one face
        # component and corner_average's sum and scaled copy, four
        # (N+1)^2 arrays at most; with both components alive it took five
        n = 256
        mesh = Mesh(2, n)
        a = CoefficientField.constant(mesh, 1.0, 0.5, 2.0)
        f = RightHandSide.constant(mesh, 1.0)
        u = ScalarField(mesh, np.ones(mesh.node_shape))
        _, peak = traced_peak(compute_weight, a, u, f)
        assert peak <= 4 * (n + 1) ** 2 * 8 + traced_peak.overhead


def reference_envelope(w, n_bins):
    """fit_pc_beta's envelope points, found by scanning every cell once per
    bin; each bin's first minimal cell in cell order is its point."""
    mesh = w.mesh
    vals = w.values.ravel()
    dist = mesh.boundary_distances().ravel()
    edges = np.geomspace(mesh.h, float(dist.max()), n_bins + 1)
    edges[-1] = np.nextafter(edges[-1], np.inf)
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
    return np.asarray(log_d), np.asarray(log_w)


class TestFitPcBeta:
    @pytest.mark.parametrize("n_bins", [4, 12, 1200])
    @pytest.mark.parametrize("dim,n", [(1, 65536), (2, 96)])
    def test_envelope_matches_per_bin_scan(self, dim, n, n_bins):
        # the torsion weight is symmetric, so bins hold tied minima; the
        # rounded noise has more ties, and zeros within two cells of the
        # boundary, so that the nearest bin's point is skipped
        mesh, _, _, _, torsion = torsion_weight(dim, n)
        rng = np.random.default_rng(n_bins)
        noise = np.round(rng.uniform(0.01, 1.0, mesh.cell_shape), 2)
        noise[mesh.boundary_distances() < 2 * mesh.h] = 0.0
        for w in (torsion, WeightField(mesh, noise)):
            log_d, log_w = reference_envelope(w, n_bins)
            fit = fit_pc_beta(w, n_bins)
            assert np.array_equal(fit.log_dist, log_d)
            assert np.array_equal(fit.log_wmin, log_w)

    def test_recovers_synthetic_model(self):
        mesh = Mesh(2, 128)
        w = WeightField(mesh, mesh.boundary_distances() ** 2)
        fit = fit_pc_beta(w, 12)
        assert fit.beta_hat == pytest.approx(2.0, abs=1e-6)
        assert fit.c_hat == pytest.approx(1.0, abs=1e-6)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_scale_equivariance(self):
        mesh = Mesh(2, 64)
        w = WeightField(mesh, 0.3 * mesh.boundary_distances() ** 1.5)
        fit = fit_pc_beta(w, 10)
        fit_scaled = fit_pc_beta(WeightField(mesh, 8.0 * w.values), 10)
        assert fit_scaled.beta_hat == pytest.approx(fit.beta_hat, rel=1e-12)
        assert fit_scaled.c_hat == pytest.approx(8.0 * fit.c_hat, rel=1e-12)

    def test_1d_torsion_flat_envelope(self):
        # bounded-below weight: fitted exponent near zero, intercept near
        # the boundary value 1/4 damped by the interior dip to 1/8
        _, _, _, _, w = torsion_weight(1, 16384)
        fit = fit_pc_beta(w, 12)
        assert -0.1 <= fit.beta_hat <= 0.1
        assert 0.10 <= fit.c_hat <= 0.25

    def test_2d_torsion_envelope_slope(self):
        # honest discrete slope at desk meshes: the corner resonance
        # r^2 log^2 r keeps the full-range fit near 1.0-1.3, short of the
        # clean beta=2 value
        _, _, _, _, w = torsion_weight(2, 128)
        fit = fit_pc_beta(w, 12)
        assert 0.9 <= fit.beta_hat <= 1.45
        assert fit.r2 > 0.9

    def test_degenerate_and_validation(self):
        mesh = Mesh(1, 64)
        with pytest.raises(DegenerateFitError):
            fit_pc_beta(WeightField(mesh, np.zeros(64)), 8)
        with pytest.raises(FieldArgumentError):
            fit_pc_beta(WeightField(mesh, np.ones(64)), 3)

    def test_overflowing_constant_is_inf(self):
        # tiny weights near the boundary and huge ones inside fit a slope
        # near 850, whose constant exp(intercept) is beyond a float
        mesh = Mesh(1, 64)
        d = mesh.boundary_distances()
        w = WeightField(mesh, np.where(d < 0.1, 1e-300, 1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_pc_beta(w, 4)
        assert fit.c_hat == np.inf
        assert fit.beta_hat > 100

    def test_clipped_copy(self):
        mesh = Mesh(1, 4096)
        x = mesh.cell_centers_1d()
        # decreasing weight: the slightly negative slope is reported unclipped
        w = WeightField(mesh, 1.0 / (1.0 + np.minimum(x, 1 - x)))
        fit = fit_pc_beta(w, 8)
        assert fit.beta_hat < 0


class TestPowerLawFit:
    def test_exact_power_law(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        slope, constant, r2 = power_law_fit(np.log(x), np.log(3.0 * x ** 1.5))
        assert slope == pytest.approx(1.5, rel=1e-12)
        assert constant == pytest.approx(3.0, rel=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)
        assert all(type(v) is float for v in (slope, constant, r2))

    def test_constant_log_y_has_r2_one(self):
        assert power_law_fit(np.log([1.0, 2.0, 4.0]), np.zeros(3)) == (0.0, 1.0, 1.0)

    @pytest.mark.parametrize("log_x", [np.full(3, 0.5), np.zeros(3)],
                             ids=["constant", "zero"])
    def test_rank_deficient_is_nan(self, log_x):
        slope, constant, r2 = power_law_fit(log_x, np.arange(3.0))
        assert np.isnan(slope) and np.isnan(constant) and r2 == 0.0


class TestCheckPc:
    def test_synthetic_true_false(self):
        mesh = Mesh(2, 64)
        w = WeightField(mesh, 2.0 * mesh.boundary_distances() ** 2)
        holds, _, _ = check_pc(w, 1.0, 2.0)
        assert holds
        holds, _, worst_ratio = check_pc(w, 3.0, 2.0)
        assert not holds
        assert worst_ratio == pytest.approx(2.0)

    def test_torsion_weight_with_fitted_pair(self):
        _, _, _, _, w = torsion_weight(2, 128)
        fit = fit_pc_beta(w, 12)
        holds, _, _ = check_pc(w, fit.c_hat / 4, fit.beta_hat)
        assert holds
        holds, _, _ = check_pc(w, 2 * fit.c_hat, fit.beta_hat)
        assert not holds

    def test_pc_two_holds_uniformly(self):
        # w >= c dist^2 with a mesh-stable constant: the discrete face of
        # the Green's-function lower bound
        ratios = []
        for n in (64, 128):
            mesh, _, _, _, w = torsion_weight(2, n)
            holds, _, worst = check_pc(w, 0.25, 2.0)
            assert holds
            ratios.append(worst)
        assert abs(ratios[0] - ratios[1]) / ratios[0] < 0.2

    def test_validation(self):
        mesh = Mesh(1, 16)
        w = WeightField(mesh, np.ones(16))
        with pytest.raises(FieldArgumentError):
            check_pc(w, 0.0, 1.0)
        with pytest.raises(FieldArgumentError):
            check_pc(w, 1.0, -1.0)
