import numpy as np
import pytest

from invdiff.mesh import Mesh, Partition
from invdiff.field import (CoefficientField, ScalarField, FieldArgumentError,
                           face_gradient, grid_l2, norm_h10)
from invdiff.forward import RightHandSide, solve_1d, solve_fd_2d
from invdiff.recovery import (recover_pwc, recover_1d, subcube_bump, _bump,
                              MalformedInputError, AmbiguousPivotError,
                              RecoveryFailureError, SANITY_FACTOR)


def checkerboard(n_side, blocks, lo=1.0, hi=2.0):
    mesh = Mesh(2, n_side)
    q = np.add.outer(np.arange(n_side) // (n_side // blocks),
                     np.arange(n_side) // (n_side // blocks)) % 2
    values = np.where(q == 0, lo, hi)
    return mesh, CoefficientField(mesh, values, lo, hi), values


def subcube_truth(values, partition):
    return np.array([values[partition.cell_mask(q)][0]
                     for q in range(partition.n_subcubes)])


def reference_recover_pwc(u, f, partition, bounds=None, eps_den=1e-8):
    """recover_pwc as one loop over subcubes, each with its own full-mesh bump
    and gradient; recover_pwc must agree with it up to summation order.

    Returns the values, the flags and each subcube's stability ratio
    |den| / (n^{(d+2)/2} ||grad u||_{L2(Q)}), which is flagged below eps_den.
    """
    mesh = u.mesh
    h = mesh.h
    m = partition.cells_per_side
    hd = h ** mesh.dim
    scale = partition.n ** ((mesh.dim + 2) / 2.0)
    g_u = [face_gradient(u, k) for k in range(mesh.dim)]
    values = np.empty(partition.n_subcubes)
    ratios = np.empty(partition.n_subcubes)
    flags = []
    for q in range(partition.n_subcubes):
        phi_cells, phi_nodes = subcube_bump(partition, q)
        interior = phi_nodes[(slice(1, -1),) * mesh.dim]
        phi = ScalarField(mesh, interior)
        g_phi = [face_gradient(phi, k) for k in range(mesh.dim)]
        num = hd * float(np.sum(f.values * phi_cells))
        den = hd * sum(float(np.sum(cu * cp))
                       for cu, cp in zip(g_u, g_phi))
        # ||grad u||_{L2(Q)} over the faces strictly inside Q
        if mesh.dim == 1:
            sq = np.sum(g_u[0][q * m:(q + 1) * m] ** 2)
        else:
            gx, gy = g_u
            q1, q2 = q // partition.n, q % partition.n
            sx = slice(q1 * m, (q1 + 1) * m)
            sy = slice(q2 * m, (q2 + 1) * m)
            inner_x = slice(q1 * m + 1, (q1 + 1) * m)
            inner_y = slice(q2 * m + 1, (q2 + 1) * m)
            sq = np.sum(gx[sx, inner_y] ** 2) + np.sum(gy[inner_x, sy] ** 2)
        grad_local = float(np.sqrt(hd * sq))
        ratios[q] = abs(den) / (scale * grad_local) if grad_local else np.nan
        if abs(den) < eps_den * scale * grad_local or den == 0.0:
            values[q] = np.nan if den == 0.0 else num / den
            flags.append("unstable-denominator")
            continue
        values[q] = num / den
        if bounds is not None:
            lam, Lam = bounds
            if not lam / SANITY_FACTOR <= values[q] <= Lam * SANITY_FACTOR:
                flags.append("out-of-range")
                continue
        flags.append("ok")
    return values, tuple(flags), ratios


def pwc_solution(dim, n_side, blocks, seed, lo=1.0, hi=2.0):
    """Solution of -div(a grad u) = 1 for a random piecewise-constant a."""
    mesh = Mesh(dim, n_side)
    part = Partition(mesh, blocks)
    rng = np.random.default_rng(seed)
    a = CoefficientField(mesh, rng.uniform(lo, hi, part.n_subcubes)[
        part.subcube_of_cells()], lo, hi)
    f = RightHandSide.constant(mesh, 1.0)
    u = solve_1d(a, f)[0] if dim == 1 else solve_fd_2d(a, f, tol=1e-11)[0]
    return mesh, a, f, u


class TestRecoverPwcMatchesReference:
    @pytest.mark.parametrize("dim,n_side", [(1, 256), (2, 64)])
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_matches_per_subcube_loop(self, dim, n_side, n):
        mesh, a, f, u = pwc_solution(dim, n_side, 4, seed=7)
        part = Partition(mesh, n)
        rec = recover_pwc(u, f, part, bounds=(1.0, 2.0))
        values, flags, _ = reference_recover_pwc(u, f, part, bounds=(1.0, 2.0))
        np.testing.assert_allclose(rec.values, values, rtol=1e-12)
        assert rec.flags == flags

    @pytest.mark.parametrize("dim,n_side", [(1, 256), (2, 64)])
    @pytest.mark.parametrize("region", ["zero", "oscillating"])
    def test_unstable_denominator_flags(self, dim, n_side, region):
        # u is flat (den == 0, value NaN) or oscillates cell by cell (den
        # tiny against ||grad u||) on the lower half of the first axis
        mesh, a, f, u = pwc_solution(dim, n_side, 4, seed=3)
        part = Partition(mesh, 4)
        v = u.values.copy()
        low = slice(0, n_side // 2 - 1)
        parity = (-1.0) ** np.indices(v.shape).sum(axis=0)
        v[low] = 0.0 if region == "zero" else 1e-3 * parity[low]
        u = ScalarField(mesh, v)
        rec = recover_pwc(u, f, part, bounds=(1.0, 2.0), eps_den=0.05)
        values, flags, _ = reference_recover_pwc(u, f, part, bounds=(1.0, 2.0),
                                              eps_den=0.05)
        np.testing.assert_allclose(rec.values, values, rtol=1e-12)
        assert rec.flags == flags
        assert flags.count("unstable-denominator") == part.n_subcubes // 2
        assert np.isnan(values).any() == (region == "zero")

    @pytest.mark.parametrize("dim,n_side", [(1, 256), (2, 64)])
    def test_stability_threshold_edges(self, dim, n_side):
        # eps_den just below and just above one subcube's stability ratio
        # flips that subcube only, so ||grad u||_{L2(Q)} must run over the
        # same faces as the reference, well beyond summation-order rounding
        mesh, a, f, u = pwc_solution(dim, n_side, 4, seed=11)
        part = Partition(mesh, 4)
        _, _, ratios = reference_recover_pwc(u, f, part)
        edge = np.sort(ratios)[part.n_subcubes // 2]
        counts = []
        for eps_den in (edge * (1 - 1e-9), edge * (1 + 1e-9)):
            rec = recover_pwc(u, f, part, eps_den=eps_den)
            _, flags, _ = reference_recover_pwc(u, f, part, eps_den=eps_den)
            assert rec.flags == flags
            counts.append(flags.count("unstable-denominator"))
        assert counts[0] < counts[1]

    @pytest.mark.parametrize("dim,n_side", [(1, 256), (2, 64)])
    def test_out_of_range_flags(self, dim, n_side):
        # a in [1, 2]; with bounds (15, 20) the sanity floor is 1.5
        mesh, a, f, u = pwc_solution(dim, n_side, 4, seed=5)
        part = Partition(mesh, 4)
        rec = recover_pwc(u, f, part, bounds=(15.0, 20.0))
        values, flags, _ = reference_recover_pwc(u, f, part, bounds=(15.0, 20.0))
        np.testing.assert_allclose(rec.values, values, rtol=1e-12)
        assert rec.flags == flags
        assert "out-of-range" in flags and "ok" in flags


class TestSubcubeBump:
    def test_unit_mass_and_margin(self):
        for dim, n_side, n in ((1, 128, 4), (2, 64, 2)):
            mesh = Mesh(dim, n_side)
            part = Partition(mesh, n)
            cells, nodes = subcube_bump(part, 0)
            assert mesh.h ** dim * cells.sum() == pytest.approx(1.0, rel=1e-12)
            # support strictly inside the first subcube
            outside = ~part.cell_mask(0)
            assert np.all(cells[outside] == 0.0)

    def test_gradient_scaling(self):
        # ||grad phi_Q|| stays within a uniform multiple of n^{(d+2)/2}
        for dim, n_side in ((1, 512), (2, 128)):
            mesh = Mesh(dim, n_side)
            ratios = []
            for n in (2, 4, 8):
                part = Partition(mesh, n)
                _, nodes = subcube_bump(part, 0)
                interior = nodes[(slice(1, -1),) * dim]
                g = norm_h10(ScalarField(mesh, interior))
                ratios.append(g / n ** ((dim + 2) / 2))
            assert max(ratios) <= 10.0
            assert max(ratios) / min(ratios) <= 1.5

    @pytest.mark.parametrize("dim", [1, 2])
    def test_window_is_a_slice_of_the_full_bump(self, dim):
        # bit for bit, also where the window's own sum would give another
        # mass: in dim 2 at (24, 2), (64, 4) and (100, 2), among others
        for n_side in (24, 48, 64, 96, 100, 128):
            for n in (2, 3, 4, 8):
                if n_side % n or n_side <= 2 * n:
                    continue
                part = Partition(Mesh(dim, n_side), n)
                m = part.cells_per_side
                cells, nodes = _bump(part, 0, m)
                full_cells, full_nodes = subcube_bump(part, 0)
                assert np.array_equal(cells, full_cells[(slice(0, m),) * dim])
                assert np.array_equal(nodes, full_nodes[(slice(0, m + 1),) * dim])

    def test_too_fine_partition_rejected(self):
        with pytest.raises(FieldArgumentError):
            subcube_bump(Partition(Mesh(1, 8), 4), 0)


class TestRecoverPwc:
    def test_peak_memory(self, traced_peak):
        # one (N+1)^2 array at most: one gradient component at a time, made
        # with no padded copy of u; the bump is held on one subcube's window
        mesh, _, f, u = pwc_solution(2, 128, 4, seed=2)
        _, peak = traced_peak(recover_pwc, u, f, Partition(mesh, 8))
        assert peak <= 1 * 129 ** 2 * 8 + traced_peak.overhead

    def test_constant_coefficient_1d(self):
        mesh = Mesh(1, 128)
        x = mesh.node_coords_1d()
        u = ScalarField(mesh, x * (1 - x) / 2)
        f = RightHandSide.constant(mesh, 1.0)
        rec = recover_pwc(u, f, Partition(mesh, 4), bounds=(0.5, 2.0))
        assert np.max(np.abs(rec.values - 1.0)) <= 1e-3
        assert all(flag == "ok" for flag in rec.flags)

    def test_checkerboard_round_trip(self):
        mesh, a, values = checkerboard(128, 4)
        f = RightHandSide.constant(mesh, 1.0)
        u, _ = solve_fd_2d(a, f, tol=1e-11)
        part = Partition(mesh, 4)
        rec = recover_pwc(u, f, part, bounds=(1.0, 2.0))
        truth = subcube_truth(values, part)
        assert np.max(np.abs(rec.values - truth) / truth) <= 0.05

    def test_round_trip_contraction(self):
        # error keeps contracting under mesh refinement at fixed partition
        errs = []
        for n_side in (64, 128):
            mesh, a, values = checkerboard(n_side, 4)
            f = RightHandSide.constant(mesh, 1.0)
            u, _ = solve_fd_2d(a, f, tol=1e-11)
            part = Partition(mesh, 4)
            rec = recover_pwc(u, f, part, bounds=(1.0, 2.0))
            truth = subcube_truth(values, part)
            errs.append(np.linalg.norm(rec.values - truth))
        assert errs[0] / errs[1] >= 1.5

    def test_noise_scaling_when_partition_doubles(self):
        mesh, a, values = checkerboard(128, 2)
        f = RightHandSide.constant(mesh, 1.0)
        u, _ = solve_fd_2d(a, f, tol=1e-11)
        xn = mesh.node_coords_1d()
        rng = np.random.default_rng(42)
        ks = np.arange(1, 9)
        s = np.sin(np.pi * np.outer(ks, xn))
        noise = s.T @ (rng.standard_normal((8, 8)) * np.outer(1 / ks, 1 / ks)) @ s
        noise *= 3e-3 / norm_h10(ScalarField(mesh, noise))
        u_noisy = ScalarField(mesh, u.values + noise)
        errors = {}
        for n in (2, 4):
            part = Partition(mesh, n)
            rec = recover_pwc(u_noisy, f, part, bounds=(1.0, 2.0))
            truth = subcube_truth(values, part)
            errors[n] = np.max(np.abs(rec.values - truth))
        assert errors[4] / errors[2] <= 2 ** ((mesh.dim + 2) / 2) * 1.5

    def test_family_generated_field_round_trip(self):
        # random piecewise-constant coefficient from the pair family
        from invdiff.experiments import coefficient_family
        mesh = Mesh(2, 128)
        a, _, _ = next(coefficient_family("pwc-random", [9], mesh, n_pairs=1,
                                          partition_n=4))
        f = RightHandSide.constant(mesh, 1.0)
        u, _ = solve_fd_2d(a, f, tol=1e-11)
        part = Partition(mesh, 4)
        rec = recover_pwc(u, f, part, bounds=(a.lam, a.Lam))
        truth = subcube_truth(a.values, part)
        assert np.max(np.abs(rec.values - truth) / truth) <= 0.05

    def test_invariant_under_constant_shift(self):
        # only gradients enter, and the bumps vanish near the boundary ring
        mesh, a, values = checkerboard(64, 2)
        f = RightHandSide.constant(mesh, 1.0)
        u, _ = solve_fd_2d(a, f, tol=1e-11)
        part = Partition(mesh, 2)
        base = recover_pwc(u, f, part, bounds=(1.0, 2.0))
        shifted = recover_pwc(ScalarField(mesh, u.values + 0.37), f, part,
                              bounds=(1.0, 2.0))
        assert np.allclose(base.values, shifted.values, rtol=1e-12)

    def test_scale_equivariance(self):
        mesh, a, values = checkerboard(64, 2)
        f = RightHandSide.constant(mesh, 1.0)
        u, _ = solve_fd_2d(a, f, tol=1e-11)
        part = Partition(mesh, 2)
        base = recover_pwc(u, f, part, bounds=(1.0, 2.0))
        s = 3.0
        fs = RightHandSide(mesh, s * f.values)
        us = ScalarField(mesh, s * u.values)
        scaled = recover_pwc(us, fs, part, bounds=(1.0, 2.0))
        assert np.allclose(base.values, scaled.values, rtol=1e-12)

    def test_unstable_denominator_flagged(self):
        # a flat solution puts every quotient below the stability threshold
        mesh = Mesh(1, 64)
        u = ScalarField(mesh, np.full(mesh.node_shape, 0.0))
        f = RightHandSide.constant(mesh, 1.0)
        with pytest.raises(RecoveryFailureError):
            recover_pwc(u, f, Partition(mesh, 2), bounds=(0.5, 2.0))

    def test_requires_positive_f(self):
        mesh = Mesh(1, 64)
        u = ScalarField(mesh, np.zeros(mesh.node_shape))
        with pytest.raises(FieldArgumentError):
            recover_pwc(u, RightHandSide.constant(mesh, 0.0),
                        Partition(mesh, 2))


class TestRecover1d:
    def test_exact_parabola(self):
        mesh = Mesh(1, 1024)
        x = mesh.node_coords_1d()
        u = ScalarField(mesh, x * (1 - x) / 2)
        f = RightHandSide.constant(mesh, 1.0)
        rec = recover_1d(u, f, w_excl=4 * mesh.h, lam=0.5, Lam=2.0)
        assert rec.gamma_hat == pytest.approx(0.5, abs=1e-6)
        assert np.max(np.abs(rec.values - 1.0)) <= 1e-3

    def test_round_trip_linear_coefficient(self):
        mesh = Mesh(1, 2048)
        a = CoefficientField(mesh, 1.0 + mesh.cell_centers_1d(), 0.5, 2.5)
        f = RightHandSide.constant(mesh, 1.0)
        u, gamma, _ = solve_1d(a, f)
        rec = recover_1d(u, f, w_excl=0.02, lam=0.5, Lam=2.5)
        rel = grid_l2(mesh, rec.values - a.values) / grid_l2(mesh, a.values)
        assert rel <= 0.01
        assert rec.gamma_hat == pytest.approx(gamma, abs=1e-6)

    def test_hat_recovers_q_family_member(self):
        # identifiability genuinely fails; the recovered coefficient is the
        # family member with q = 1 and reproduces the hat when solved forward
        mesh = Mesh(1, 1024)
        a = CoefficientField.constant(mesh, 1.0, 0.4, 1.6)
        f = RightHandSide.point_mass(mesh, 0.5, 2.0)
        u, _, _ = solve_1d(a, f)
        rec = recover_1d(u, f, w_excl=0.02, lam=0.4, Lam=1.6)
        a_rec = CoefficientField(mesh, rec.values, 0.4, 1.6)
        u_again, _, _ = solve_1d(a_rec, f)
        assert np.max(np.abs(u_again.values - u.values)) <= mesh.h

    def test_no_sign_change(self):
        # the zero trace is implied, so only the flat field lacks a pivot
        mesh = Mesh(1, 64)
        u = ScalarField(mesh, np.zeros(mesh.node_shape))
        f = RightHandSide.constant(mesh, 1.0)
        with pytest.raises(MalformedInputError):
            recover_1d(u, f, w_excl=0.02, lam=0.5, Lam=2.0)

    def test_ambiguous_pivot_lists_crossings(self):
        mesh = Mesh(1, 64)
        x = mesh.node_coords_1d()
        u = ScalarField(mesh, np.sin(2 * np.pi * x))
        f = RightHandSide.constant(mesh, 1.0)
        with pytest.raises(AmbiguousPivotError) as info:
            recover_1d(u, f, w_excl=0.02, lam=0.5, Lam=2.0)
        assert len(info.value.crossings) == 2
        assert info.value.crossings[0] == pytest.approx(0.25, abs=0.02)
        assert info.value.crossings[1] == pytest.approx(0.75, abs=0.02)

    def test_output_clamped_and_window(self):
        mesh = Mesh(1, 512)
        a = CoefficientField(mesh, 1.0 + mesh.cell_centers_1d(), 0.5, 2.5)
        f = RightHandSide.constant(mesh, 1.0)
        u, _, _ = solve_1d(a, f)
        rec = recover_1d(u, f, w_excl=0.03, lam=1.2, Lam=1.8)
        assert rec.values.min() >= 1.2 and rec.values.max() <= 1.8
        assert rec.w_excl == 0.03

    def test_clamped_cells_counted(self):
        mesh = Mesh(1, 512)
        a = CoefficientField(mesh, 1.0 + mesh.cell_centers_1d(), 0.5, 2.5)
        f = RightHandSide.constant(mesh, 1.0)
        u, _, _ = solve_1d(a, f)
        wide = recover_1d(u, f, w_excl=0.03, lam=0.5, Lam=2.5)
        assert wide.n_clamped == 0
        tight = recover_1d(u, f, w_excl=0.03, lam=1.2, Lam=1.8)
        outside = (wide.values < 1.2) | (wide.values > 1.8)
        assert tight.n_clamped == np.count_nonzero(outside) > 0
        assert np.array_equal(tight.values[~outside], wide.values[~outside])

    def test_validation(self):
        mesh = Mesh(1, 64)
        u = ScalarField(mesh, np.zeros(mesh.node_shape))
        f = RightHandSide.constant(mesh, 1.0)
        with pytest.raises(FieldArgumentError):
            recover_1d(u, f, w_excl=0.0, lam=0.5, Lam=2.0)
