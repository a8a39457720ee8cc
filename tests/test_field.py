from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from invdiff.mesh import Mesh, Partition
from invdiff.field import (CoefficientField, ScalarField, FieldArgumentError,
                           FieldInvariantError, gradient, norm_l2, norm_h10,
                           grid_l2, seminorm_hs, coefficient_h1_seminorm,
                           weighted_l2_sq, write_field_csv, read_field_csv)
from invdiff.forward import RightHandSide, solve_1d, solve_fd_2d
from invdiff.positivity import WeightField, compute_weight
from invdiff.recovery import recover_pwc, recover_1d
from invdiff.experiments import weighted_estimate_monitor
from invdiff.mollify import approximation_functional


def coeff(mesh, values, lam=0.1, Lam=10.0):
    return CoefficientField(mesh, values, lam, Lam)


# every field type, with the shape its values take on a mesh
ARRAY_FIELDS = {
    "coefficient": (lambda mesh, v: CoefficientField(mesh, v, 0.5, 2.0), "cell_shape"),
    "scalar": (ScalarField, "node_shape"),
    "rhs": (RightHandSide, "cell_shape"),
    "weight": (WeightField, "cell_shape"),
}


@pytest.mark.parametrize("bad", ["shape", np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ARRAY_FIELDS)
def test_array_check(kind, bad):
    make, shape = ARRAY_FIELDS[kind]
    mesh = Mesh(2, 4)
    values = np.ones(getattr(mesh, shape))
    if bad == "shape":
        values, match = values[:-1], "shape"
    else:
        values[1, 2], match = bad, "non-finite"
    with pytest.raises(FieldArgumentError, match=match):
        make(mesh, values)


Fields = namedtuple("Fields", "a u f")


def fields(dim, n):
    mesh = Mesh(dim, n)
    return Fields(CoefficientField.constant(mesh, 1.0, 0.5, 2.0),
                  ScalarField(mesh, np.zeros(mesh.node_shape)),
                  RightHandSide.constant(mesh, 1.0))


def solved_first(a):
    pytest.fail("solved before the mesh check")


# every function that takes fields (x, y) which must share a mesh, with
# the mesh dimension it runs in
MESH_CALLS = {
    "solve_1d": (1, lambda x, y: solve_1d(x.a, y.f)),
    "solve_fd_2d": (2, lambda x, y: solve_fd_2d(x.a, y.f)),
    "compute_weight": (1, lambda x, y: compute_weight(x.a, y.u, x.f)),
    "recover_pwc": (1, lambda x, y: recover_pwc(x.u, x.f, Partition(y.a.mesh, 2))),
    "recover_1d": (1, lambda x, y: recover_1d(x.u, y.f, lam=0.5, Lam=2.0)),
    "weighted_estimate_monitor": (1, lambda x, y: weighted_estimate_monitor(
        x.a, y.a, x.f, solved_first)),
    "approximation_functional": (1, lambda x, y: approximation_functional(
        x.a, y.a, 0.1)),
}


@pytest.mark.parametrize("name", MESH_CALLS)
def test_mesh_check(name):
    dim, call = MESH_CALLS[name]
    with pytest.raises(FieldArgumentError, match="meshes differ"):
        call(fields(dim, 8), fields(dim, 16))


class TestConstruction:
    def test_rejects_out_of_class(self):
        mesh = Mesh(1, 4)
        with pytest.raises(FieldInvariantError):
            CoefficientField(mesh, np.array([1.0, 1.0, 1.0, 3.0]), 0.5, 2.0)
        with pytest.raises(FieldInvariantError):
            CoefficientField(mesh, np.full(4, 1.0), 2.0, 0.5)

    def test_rejects_bad_shapes(self):
        with pytest.raises(FieldArgumentError):
            CoefficientField(Mesh(1, 4), np.ones(5), 0.5, 2.0)
        with pytest.raises(FieldArgumentError):
            ScalarField(Mesh(2, 4), np.zeros((4, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_coefficient(self, bad):
        # NaN slips past the min/max class-bound comparisons
        values = np.array([1.0, bad, 1.0, 1.0])
        with pytest.raises(FieldArgumentError, match="non-finite"):
            CoefficientField(Mesh(1, 4), values, 0.5, np.inf)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_scalar(self, bad):
        values = np.array([1.0, bad, 1.0])
        with pytest.raises(FieldArgumentError, match="non-finite"):
            ScalarField(Mesh(1, 4), values)

    def test_scalar_padding_is_zero_trace(self):
        u = ScalarField(Mesh(1, 4), np.array([1.0, 2.0, 3.0]))
        full = u.padded()
        assert full[0] == 0.0 and full[-1] == 0.0
        assert np.array_equal(full[1:-1], u.values)


class TestNormL2:
    def test_constant_one_unit_square(self):
        mesh = Mesh(2, 8)
        assert norm_l2(coeff(mesh, np.ones((8, 8)))) == pytest.approx(1.0)

    def test_plus_minus_one(self):
        # cellwise {1,-1} has unit L2 norm
        assert grid_l2(Mesh(1, 2), np.array([1.0, -1.0])) == pytest.approx(1.0)

    def test_hand_sum(self):
        mesh = Mesh(1, 4)
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        assert grid_l2(mesh, vals) == pytest.approx(np.sqrt(7.5))

    def test_homogeneity_and_triangle(self):
        mesh = Mesh(2, 16)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(mesh.cell_shape)
            y = rng.standard_normal(mesh.cell_shape)
            s = rng.uniform(-3, 3)
            assert grid_l2(mesh, s * x) == pytest.approx(abs(s) * grid_l2(mesh, x))
            assert grid_l2(mesh, x + y) <= grid_l2(mesh, x) + grid_l2(mesh, y) + 1e-12


class TestNormH10:
    def test_zero(self):
        assert norm_h10(ScalarField(Mesh(1, 8), np.zeros(7))) == 0.0

    def test_parabola(self):
        mesh = Mesh(1, 512)
        x = mesh.node_coords_1d()
        u = ScalarField(mesh, x * (1 - x) / 2)
        # analytic: || 1/2 - x ||_L2 = 1/sqrt(12)
        assert norm_h10(u) == pytest.approx(1 / np.sqrt(12), abs=1e-3)

    def test_hat_peak_one(self):
        # slopes are +-2, so the analytic integral of |u'|^2 over (0,1) is 4
        mesh = Mesh(1, 8)
        x = mesh.node_coords_1d()
        u = ScalarField(mesh, 2 * np.minimum(x, 1 - x))
        assert norm_h10(u) == pytest.approx(2.0)

    def test_vanishes_only_at_zero_and_poincare(self):
        rng = np.random.default_rng(1)
        for mesh in (Mesh(1, 32), Mesh(2, 16)):
            for _ in range(10):
                u = ScalarField(mesh, rng.standard_normal(mesh.node_shape))
                h10 = norm_h10(u)
                assert h10 > 0
                assert norm_l2(u) <= 1.0 * h10


class TestSeminormHs:
    def test_constant_is_zero(self):
        mesh = Mesh(1, 64)
        assert seminorm_hs(coeff(mesh, np.full(64, 1.3)), 0.5) == 0.0

    @pytest.mark.parametrize("s,grows", [(0.6, True), (0.3, False)])
    def test_step_scaling(self, s, grows):
        prev = None
        ratios = []
        for n in (64, 128, 256, 512):
            mesh = Mesh(1, n)
            x = mesh.cell_centers_1d()
            a = coeff(mesh, np.where(x < 0.5, 1.0, 2.0))
            val = seminorm_hs(a, s)
            if prev is not None:
                ratios.append(val / prev)
            prev = val
        if grows:
            assert all(r > 1.05 for r in ratios)
        else:
            assert all(r < 1.03 for r in ratios)
            assert ratios == sorted(ratios, reverse=True)  # heading to 1

    def test_shift_invariance(self):
        mesh = Mesh(1, 128)
        x = mesh.cell_centers_1d()
        base = 0.3 * np.sin(2 * np.pi * x)
        a1 = seminorm_hs(coeff(mesh, 1.2 + base), 0.4)
        a2 = seminorm_hs(coeff(mesh, 1.7 + base), 0.4)
        assert a1 == pytest.approx(a2, rel=1e-12)

    def test_s_range_checked(self):
        a = coeff(Mesh(1, 16), np.ones(16))
        for s in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(FieldArgumentError):
                seminorm_hs(a, s)

    def test_dim2_homogeneity_and_symmetry(self):
        mesh = Mesh(2, 24)
        rng = np.random.default_rng(3)
        vals = 1.5 + 0.4 * rng.uniform(-1, 1, mesh.cell_shape)
        base = seminorm_hs(coeff(mesh, vals), 0.4)
        scaled = seminorm_hs(coeff(mesh, 1.5 + 3 * (vals - 1.5)), 0.4)
        assert scaled == pytest.approx(3 * base, rel=1e-12)
        transposed = seminorm_hs(coeff(mesh, vals.T.copy()), 0.4)
        assert transposed == pytest.approx(base, rel=1e-12)

    def test_dim2_guard(self):
        a = coeff(Mesh(2, 256), np.ones((256, 256)))
        with pytest.raises(FieldArgumentError):
            seminorm_hs(a, 0.5)


class TestWeightedL2Sq:
    def test_zero_delta(self):
        mesh = Mesh(1, 8)
        assert weighted_l2_sq(mesh, np.zeros(8), np.ones(8)) == 0.0

    def test_all_ones(self):
        mesh = Mesh(1, 8)
        assert weighted_l2_sq(mesh, np.ones(8), np.ones(8)) == pytest.approx(1.0)

    def test_hand_sum(self):
        mesh = Mesh(1, 2)
        val = weighted_l2_sq(mesh, np.array([1.0, 4.0]), np.array([2.0, 0.5]))
        assert val == pytest.approx(2.0)

    def test_negative_weight_rejected(self):
        mesh = Mesh(1, 2)
        with pytest.raises(FieldInvariantError):
            weighted_l2_sq(mesh, np.ones(2), np.array([1.0, -0.1]))


class TestGradient:
    def test_1d_divided_differences(self):
        mesh = Mesh(1, 4)
        u = ScalarField(mesh, np.array([1.0, 3.0, 2.0]))
        g = gradient(u).components[0]
        assert np.allclose(g, [4.0, 8.0, -4.0, -8.0])

    def test_2d_shapes(self):
        mesh = Mesh(2, 8)
        g = gradient(ScalarField(mesh, np.ones(mesh.node_shape)))
        assert g.components[0].shape == (8, 9)
        assert g.components[1].shape == (9, 8)

    def test_coefficient_h1_seminorm_linear(self):
        mesh = Mesh(1, 256)
        a = coeff(mesh, 1.0 + mesh.cell_centers_1d())
        # slope one everywhere, norm of the gradient is sqrt(1 - h)
        assert coefficient_h1_seminorm(a) == pytest.approx(
            np.sqrt(1 - mesh.h), rel=1e-12)


class TestFieldCsv:
    @pytest.mark.parametrize("dim,location", [(1, "cells"), (1, "nodes"),
                                              (2, "cells"), (2, "nodes")])
    def test_round_trip(self, tmp_path, dim, location):
        mesh = Mesh(dim, 8)
        shape = mesh.cell_shape if location == "cells" else mesh.node_shape
        rng = np.random.default_rng(5)
        values = rng.standard_normal(shape)
        path = tmp_path / "f.csv"
        write_field_csv(path, mesh, values, location)
        back = read_field_csv(path, mesh, location)
        assert np.array_equal(back, values)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([1, 2]), n=st.integers(2, 9),
           location=st.sampled_from(["cells", "nodes"]))
    def test_round_trip_is_bit_exact(self, tmp_path_factory, data, dim, n,
                                     location):
        mesh = Mesh(dim, n)
        shape = mesh.cell_shape if location == "cells" else mesh.node_shape
        values = data.draw(arrays(np.float64, shape, elements=st.floats(
            allow_nan=False, allow_infinity=False, allow_subnormal=True)))
        path = tmp_path_factory.mktemp("csv") / "f.csv"
        write_field_csv(path, mesh, values, location)
        back = read_field_csv(path, mesh, location)
        assert np.array_equal(back, values)
        assert np.array_equal(np.signbit(back), np.signbit(values))

    def test_rejects_mesh_mismatch(self, tmp_path):
        mesh = Mesh(1, 8)
        path = tmp_path / "f.csv"
        write_field_csv(path, mesh, np.ones(8), "cells")
        with pytest.raises(FieldArgumentError):
            read_field_csv(path, Mesh(1, 16), "cells")
        with pytest.raises(FieldArgumentError):
            read_field_csv(path, Mesh(2, 8), "cells")

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x,y\n0,1\n")
        with pytest.raises(FieldArgumentError):
            read_field_csv(path, Mesh(1, 8), "cells")

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_rejects_non_finite_value(self, tmp_path, bad):
        path = tmp_path / "f.csv"
        path.write_text(f"index,value\n0,1\n1,{bad}\n2,1\n3,1\n")
        with pytest.raises(FieldArgumentError, match="non-finite"):
            read_field_csv(path, Mesh(1, 4), "cells")

    # dim-2 nodes on Mesh(2, 3): interior indices 1..2 per axis
    GOOD_ROWS = ["1,1,0.5", "1,2,1.5", "2,1,2.5", "2,2,3.5"]

    @pytest.mark.parametrize("rows,match", [
        (["1.5,1,2"] + GOOD_ROWS[1:], "malformed"),
        (["1,1,abc"] + GOOD_ROWS[1:], "malformed"),
        (["1,1"] + GOOD_ROWS[1:], "malformed"),
        (["1,1,0.5,7"] + GOOD_ROWS[1:], "malformed"),
        (GOOD_ROWS + ["2,2,3.5"], "duplicate"),
        (GOOD_ROWS[:2] + ["1,2,9.0"] + GOOD_ROWS[3:], "duplicate"),
        (GOOD_ROWS[:3], "does not cover"),
        ([], "does not cover"),
        (GOOD_ROWS[:3] + ["3,2,3.5"], "out of range"),
        (GOOD_ROWS[:3] + ["2,0,3.5"], "out of range"),
    ])
    def test_rejects_malformed_body(self, tmp_path, rows, match):
        path = tmp_path / "f.csv"
        path.write_text("i,j,value\n" + "".join(r + "\n" for r in rows))
        with pytest.raises(FieldArgumentError, match=match):
            read_field_csv(path, Mesh(2, 3), "nodes")

    def test_accepts_any_row_order_and_blank_lines(self, tmp_path):
        path = tmp_path / "f.csv"
        rows = [self.GOOD_ROWS[k] for k in (3, 0, 2, 1)]
        path.write_text("i,j,value\n\n" + rows[0] + "\n\n"
                        + "\n".join(rows[1:]) + "\n\n")
        back = read_field_csv(path, Mesh(2, 3), "nodes")
        assert np.array_equal(back, [[0.5, 1.5], [2.5, 3.5]])
