import warnings

import numpy as np
import pytest

from invdiff.mesh import Mesh
from invdiff.field import (CoefficientField, ScalarField, FieldArgumentError,
                           norm_h10)
from invdiff.forward import (RightHandSide, SolveReport, SolverError,
                             solve_1d, solve_fd_2d, series_cube,
                             maximum_principle_check, face_coefficients,
                             energy_form, load_functional, _five_point)

GAMMA_ONE_PLUS_X = (1 - np.log(2)) / np.log(2)  # integrals of t/(1+t), 1/(1+t)


def torsion_setup(dim, n, lam=0.5, Lam=2.0):
    mesh = Mesh(dim, n)
    a = CoefficientField.constant(mesh, 1.0, lam, Lam)
    f = RightHandSide.constant(mesh, 1.0)
    return mesh, a, f


class TestRightHandSide:
    def test_point_masses_dim1_only(self):
        with pytest.raises(FieldArgumentError):
            RightHandSide(Mesh(2, 4), np.zeros((4, 4)),
                          point_masses=((0.5, 1.0),))
        with pytest.raises(FieldArgumentError):
            RightHandSide.point_mass(Mesh(1, 4), 1.5, 1.0)

    def test_positive_flag(self):
        f = RightHandSide.constant(Mesh(1, 4), 2.0)
        assert f.sup_norm == 2.0 and f.is_nonnegative

    @pytest.mark.parametrize("with_point_mass", [True, False])
    def test_rejects_non_finite_values(self, with_point_mass):
        masses = ((0.5, 1.0),) if with_point_mass else ()
        for bad in (np.nan, np.inf):
            with pytest.raises(FieldArgumentError, match="non-finite"):
                RightHandSide(Mesh(1, 4), np.array([1.0, bad, 1.0, 1.0]),
                              point_masses=masses)


class TestSolve1d:
    def test_torsion_exact(self):
        mesh, a, f = torsion_setup(1, 1024)
        u, gamma, report = solve_1d(a, f)
        x = mesh.node_coords_1d()
        assert gamma == pytest.approx(0.5, abs=1e-14)
        assert np.max(np.abs(u.values - x * (1 - x) / 2)) <= mesh.h ** 2
        assert report.solver == "exact1d"
        assert report.final_relative_residual <= 1e-12

    def test_linear_coefficient_gamma(self):
        mesh = Mesh(1, 1024)
        a = CoefficientField(mesh, 1.0 + mesh.cell_centers_1d(), 0.5, 2.5)
        _, gamma, _ = solve_1d(a, RightHandSide.constant(mesh, 1.0))
        assert gamma == pytest.approx(GAMMA_ONE_PLUS_X, abs=1e-4)

    def test_point_mass_hat(self):
        mesh, a, _ = torsion_setup(1, 1024)
        f = RightHandSide.point_mass(mesh, 0.5, 2.0)
        u, _, _ = solve_1d(a, f)
        x = mesh.node_coords_1d()
        hat = np.minimum(x, 1 - x)
        assert np.max(np.abs(u.values - hat)) <= mesh.h

    def test_manufactured_variable_coefficient(self):
        # u = sin(pi x), a = 1 + x, f = -(a u')' = -pi cos(pi x)
        #   + (1+x) pi^2 sin(pi x); second-order nodal accuracy
        errors = {}
        for n in (256, 512):
            mesh = Mesh(1, n)
            xc = mesh.cell_centers_1d()
            a = CoefficientField(mesh, 1.0 + xc, 0.5, 2.5)
            fvals = (-np.pi * np.cos(np.pi * xc)
                     + (1.0 + xc) * np.pi ** 2 * np.sin(np.pi * xc))
            u, _, _ = solve_1d(a, RightHandSide(mesh, fvals))
            xn = mesh.node_coords_1d()
            errors[n] = np.max(np.abs(u.values - np.sin(np.pi * xn)))
        assert errors[256] <= 1e-4
        assert 3.0 <= errors[256] / errors[512] <= 5.0

    def test_pivot_identity_at_nodes(self):
        # -A(x)(x - gamma) matches the nodal central difference to O(h)
        mesh = Mesh(1, 512)
        a = CoefficientField(mesh, 1.0 + mesh.cell_centers_1d(), 0.5, 2.5)
        u, gamma, _ = solve_1d(a, RightHandSide.constant(mesh, 1.0))
        full = u.padded()
        x = mesh.node_coords_1d()
        central = (full[2:] - full[:-2]) / (2 * mesh.h)
        target = -(x - gamma) / (1.0 + x)
        assert np.max(np.abs(central - target)) <= mesh.h

    def test_requires_dim1(self):
        mesh, a, f = torsion_setup(2, 8)
        with pytest.raises(FieldArgumentError):
            solve_1d(a, f)

    def test_integral_solution_satisfies_weak_identity(self):
        # the integral-formula solver and the energy form are independent
        # code paths; for cellwise f the identity is exact by telescoping
        mesh = Mesh(1, 128)
        rng = np.random.default_rng(4)
        a = CoefficientField(mesh, rng.uniform(0.5, 2.0, mesh.cell_shape),
                             0.5, 2.0)
        f = RightHandSide(mesh, rng.uniform(0.2, 3.0, mesh.cell_shape))
        u, _, _ = solve_1d(a, f)
        for seed in range(5):
            v = ScalarField(mesh,
                            np.random.default_rng(seed).standard_normal(
                                mesh.node_shape))
            assert energy_form(a, u, v) == pytest.approx(
                load_functional(f, v), rel=1e-10)


class TestSolveFd2d:
    def test_manufactured_solution_order(self):
        errors = {}
        for n in (64, 128):
            mesh = Mesh(2, n)
            a = CoefficientField.constant(mesh, 1.0, 0.5, 2.0)
            xc = mesh.cell_centers_1d()
            f = RightHandSide(mesh, 2 * np.pi ** 2
                              * np.outer(np.sin(np.pi * xc), np.sin(np.pi * xc)))
            u, _ = solve_fd_2d(a, f, tol=1e-11)
            xn = mesh.node_coords_1d()
            exact = np.outer(np.sin(np.pi * xn), np.sin(np.pi * xn))
            errors[n] = np.max(np.abs(u.values - exact))
        assert 3.6 <= errors[64] / errors[128] <= 4.4

    def test_manufactured_variable_coefficient_order(self):
        # u = sin(pi x) sin(pi y), a = 1 + (x+y)/2:
        # f = -(pi/2)(cos pi x sin pi y + sin pi x cos pi y)
        #     + 2 a pi^2 sin pi x sin pi y
        errors = {}
        for n in (32, 64):
            mesh = Mesh(2, n)
            xc = mesh.cell_centers_1d()
            X, Y = np.meshgrid(xc, xc, indexing="ij")
            avals = 1.0 + 0.5 * (X + Y)
            a = CoefficientField(mesh, avals, 0.5, 2.5)
            fvals = (-(np.pi / 2) * (np.cos(np.pi * X) * np.sin(np.pi * Y)
                                     + np.sin(np.pi * X) * np.cos(np.pi * Y))
                     + 2 * avals * np.pi ** 2
                     * np.sin(np.pi * X) * np.sin(np.pi * Y))
            u, _ = solve_fd_2d(a, RightHandSide(mesh, fvals), tol=1e-11)
            xn = mesh.node_coords_1d()
            exact = np.outer(np.sin(np.pi * xn), np.sin(np.pi * xn))
            errors[n] = np.max(np.abs(u.values - exact))
        assert 3.0 <= errors[32] / errors[64] <= 5.0

    def test_torsion_center_against_series(self):
        mesh, a, f = torsion_setup(2, 64)
        u, report = solve_fd_2d(a, f, tol=1e-10)
        center = u.values[31, 31]
        assert center == pytest.approx(series_cube([0.5, 0.5], 199, 2), abs=5e-5)
        assert report.final_relative_residual <= 1e-10
        assert report.iterations > 0

    def test_torsion_off_center_against_series(self):
        mesh, a, f = torsion_setup(2, 128)
        u, _ = solve_fd_2d(a, f, tol=1e-11)
        # node (i, j) = (32, 64) sits at (0.25, 0.5)
        assert u.values[31, 63] == pytest.approx(
            series_cube([0.25, 0.5], 199, 2), abs=5e-5)

    def test_discrete_weak_identity_checkerboard(self):
        mesh = Mesh(2, 64)
        q = np.add.outer(np.arange(64) // 16, np.arange(64) // 16) % 2
        a = CoefficientField(mesh, np.where(q == 0, 0.5, 2.0), 0.5, 2.0)
        f = RightHandSide.constant(mesh, 1.0)
        u, _ = solve_fd_2d(a, f, tol=1e-12)
        lhs = energy_form(a, u, u)
        rhs = load_functional(f, u)
        assert lhs == pytest.approx(rhs, rel=1e-10)
        # and against an arbitrary discrete test vector
        rng = np.random.default_rng(2)
        v = ScalarField(mesh, rng.standard_normal(mesh.node_shape))
        assert energy_form(a, u, v) == pytest.approx(load_functional(f, v),
                                                     abs=1e-9)

    def test_coefficient_difference_identity(self):
        # sum (a_e - b_e) |grad u_a|^2 = -sum b_e grad E . grad u_a
        mesh = Mesh(2, 32)
        rng = np.random.default_rng(7)
        f = RightHandSide.constant(mesh, 1.0)
        av = rng.uniform(0.5, 2.0, mesh.cell_shape)
        bv = rng.uniform(0.5, 2.0, mesh.cell_shape)
        a = CoefficientField(mesh, av, 0.5, 2.0)
        b = CoefficientField(mesh, bv, 0.5, 2.0)
        ua, _ = solve_fd_2d(a, f, tol=1e-12)
        ub, _ = solve_fd_2d(b, f, tol=1e-12)
        axa, aya = face_coefficients(a)
        axb, ayb = face_coefficients(b)
        U, E = ua.padded(), ua.padded() - ub.padded()
        dux, duy = np.diff(U, axis=0), np.diff(U, axis=1)
        dex, dey = np.diff(E, axis=0), np.diff(E, axis=1)
        lhs = (np.sum((axa - axb) * dux[:, 1:-1] ** 2)
               + np.sum((aya - ayb) * duy[1:-1, :] ** 2))
        rhs = -(np.sum(axb * dex[:, 1:-1] * dux[:, 1:-1])
                + np.sum(ayb * dey[1:-1, :] * duy[1:-1, :]))
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_ordered_coefficients_monotone_identity(self):
        # for a <= b cellwise, the face coefficients order the same way and
        # the difference form is nonpositive while matching -sum b grad E
        # grad u_a to residual tolerance
        mesh = Mesh(2, 32)
        rng = np.random.default_rng(11)
        f = RightHandSide.constant(mesh, 1.0)
        av = rng.uniform(0.5, 1.2, mesh.cell_shape)
        bv = av + rng.uniform(0.0, 0.6, mesh.cell_shape)
        a = CoefficientField(mesh, av, 0.5, 2.0)
        b = CoefficientField(mesh, bv, 0.5, 2.0)
        ua, _ = solve_fd_2d(a, f, tol=1e-12)
        ub, _ = solve_fd_2d(b, f, tol=1e-12)
        axa, aya = face_coefficients(a)
        axb, ayb = face_coefficients(b)
        U, E = ua.padded(), ua.padded() - ub.padded()
        dux, duy = np.diff(U, axis=0), np.diff(U, axis=1)
        dex, dey = np.diff(E, axis=0), np.diff(E, axis=1)
        lhs = (np.sum((axa - axb) * dux[:, 1:-1] ** 2)
               + np.sum((aya - ayb) * duy[1:-1, :] ** 2))
        rhs = -(np.sum(axb * dex[:, 1:-1] * dux[:, 1:-1])
                + np.sum(ayb * dey[1:-1, :] * duy[1:-1, :]))
        assert lhs <= 0.0
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_nonconvergence_raises_with_residual(self):
        # the checkerboard of test_discrete_weak_identity_checkerboard: a
        # constant coefficient converges in one step, since the
        # preconditioner is then the exact inverse
        mesh, _, f = torsion_setup(2, 64)
        q = np.add.outer(np.arange(64) // 16, np.arange(64) // 16) % 2
        a = CoefficientField(mesh, np.where(q == 0, 0.5, 2.0), 0.5, 2.0)
        with pytest.raises(SolverError) as info:
            solve_fd_2d(a, f, tol=1e-12, max_iter=3)
        assert info.value.residual is not None
        assert info.value.residual > 1e-12
        assert info.value.iterations == 3

    def test_overflowing_coefficient_breaks_down_at_once(self):
        # in class bounds, but the harmonic face mean overflows to inf
        mesh = Mesh(2, 64)
        a = CoefficientField.constant(mesh, 1e200, 1.0, 1e300)
        f = RightHandSide.constant(mesh, 1.0)
        with np.errstate(all="ignore"), pytest.raises(SolverError) as info:
            solve_fd_2d(a, f)
        assert info.value.residual is not None
        assert info.value.iterations <= 2

    def test_overflowing_coefficient_raises_without_warnings(self):
        mesh = Mesh(2, 64)
        a = CoefficientField.constant(mesh, 1e200, 1.0, 1e300)
        f = RightHandSide.constant(mesh, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError):
                solve_fd_2d(a, f)

    def test_iterations_independent_of_mesh(self):
        for n in (32, 64, 128, 256):
            mesh = Mesh(2, n)
            rng = np.random.default_rng(n)
            a = CoefficientField(mesh, rng.uniform(0.5, 2.0, mesh.cell_shape),
                                 0.5, 2.0)
            _, report = solve_fd_2d(a, RightHandSide.constant(mesh, 1.0),
                                    tol=1e-10)
            assert report.iterations <= 30, n

    def test_operator_is_the_energy_form(self):
        mesh = Mesh(2, 32)
        rng = np.random.default_rng(3)
        a = CoefficientField(mesh, rng.uniform(0.5, 2.0, mesh.cell_shape),
                             0.5, 2.0)
        apply_A = _five_point(a)
        for _ in range(3):
            x = rng.standard_normal(mesh.node_shape)
            y = rng.standard_normal(mesh.node_shape)
            xAy = float(np.sum(x * apply_A(y)))
            assert xAy == pytest.approx(
                energy_form(a, ScalarField(mesh, x), ScalarField(mesh, y)),
                rel=1e-12)
            assert xAy == pytest.approx(float(np.sum(y * apply_A(x))),
                                        rel=1e-12)

    def test_input_validation(self):
        mesh, a, f = torsion_setup(2, 8)
        with pytest.raises(FieldArgumentError):
            solve_fd_2d(a, f, tol=0.0)
        mesh1, a1, _ = torsion_setup(1, 8)
        with pytest.raises(FieldArgumentError):
            solve_fd_2d(a1, RightHandSide.constant(mesh1, 1.0))


class TestSeriesCube:
    def test_1d_center(self):
        assert series_cube([0.5], 99, 1) == pytest.approx(0.125, abs=1e-5)

    @pytest.mark.parametrize("x", [0.25, 0.5, 0.7])
    def test_1d_matches_parabola(self, x):
        assert series_cube([x], 399, 1) == pytest.approx(x * (1 - x) / 2,
                                                         abs=1e-6)

    def test_2d_leading_coefficient(self):
        # the (1,1) term alone at the center is 16/(2 pi^4) = 8/pi^4
        assert series_cube([0.5, 0.5], 1, 2) == pytest.approx(
            8 / np.pi ** 4, rel=1e-12)

    def test_boundary_point_zero(self):
        assert series_cube([0.0, 0.3], 99, 2) == 0.0
        assert series_cube([0.0], 99, 1) == 0.0

    def test_partial_sums_stabilize_monotonically(self):
        ref = series_cube([0.5, 0.5], 501, 2)
        errs = [abs(series_cube([0.5, 0.5], nmax, 2) - ref)
                for nmax in (9, 19, 39, 79, 159)]
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))

    def test_validation(self):
        with pytest.raises(FieldArgumentError):
            series_cube([0.5], 100, 1)  # even
        with pytest.raises(FieldArgumentError):
            series_cube([0.5, 0.5], 99, 3)
        with pytest.raises(FieldArgumentError):
            series_cube([1.5], 99, 1)


class TestMaximumPrinciple:
    def test_torsion_both_dims(self):
        mesh, a, f = torsion_setup(1, 64)
        u, _, _ = solve_1d(a, f)
        assert maximum_principle_check(u, f)
        mesh2, a2, f2 = torsion_setup(2, 16)
        u2, _ = solve_fd_2d(a2, f2)
        assert maximum_principle_check(u2, f2)

    def test_random_coefficients_50_seeds(self):
        mesh = Mesh(2, 24)
        f = RightHandSide.constant(mesh, 1.0)
        for seed in range(50):
            rng = np.random.default_rng([seed])
            a = CoefficientField(mesh, rng.uniform(0.5, 2.0, mesh.cell_shape),
                                 0.5, 2.0)
            u, _ = solve_fd_2d(a, f, tol=1e-10)
            assert maximum_principle_check(u, f)

    def test_constructed_violation(self):
        mesh, a, f = torsion_setup(2, 16)
        u, _ = solve_fd_2d(a, f)
        bad = u.values.copy()
        bad[7, 7] = -0.1
        assert not maximum_principle_check(ScalarField(mesh, bad), f)

    def test_requires_nonnegative_f(self):
        mesh, a, _ = torsion_setup(1, 16)
        f = RightHandSide.constant(mesh, -1.0)
        u = ScalarField(mesh, np.zeros(mesh.node_shape))
        with pytest.raises(FieldArgumentError):
            maximum_principle_check(u, f)


def test_solve_report_json_dict():
    rep = SolveReport(12, 1e-11, "fd2d")
    assert rep.to_json_dict() == {"iterations": 12, "residual": 1e-11,
                                  "solver": "fd2d"}
