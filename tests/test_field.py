import contextlib
import re
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from invdiff.mesh import Mesh, Partition
from invdiff.field import (CoefficientField, ScalarField, FieldArgumentError,
                           FieldInvariantError, face_gradient, norm_h10,
                           grid_l2, coefficient_h1_seminorm,
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
        assert grid_l2(mesh, np.ones((8, 8))) == pytest.approx(1.0)

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
                assert grid_l2(mesh, u.values) <= 1.0 * h10

    @pytest.mark.parametrize("dim,n", [(1, 2), (1, 4097), (2, 2), (2, 3), (2, 128)])
    def test_same_bits_as_padded_differences(self, dim, n):
        mesh = Mesh(dim, n)
        rng = np.random.default_rng([dim, n])
        for scale in (1e-160, 1.0, 1e100):
            u = ScalarField(mesh, scale * rng.standard_normal(mesh.node_shape))
            padded = u.padded()
            total = 0.0
            for k in range(dim):
                g = np.diff(padded, axis=k) / mesh.h
                total += float(np.sum(g * g))
            assert norm_h10(u) == float(np.sqrt(mesh.h ** dim * total))

    def test_peak_memory(self, traced_peak):
        # one face array alive at a time: the padded copy, a difference
        # array and its square per axis made it 2.03 face arrays
        mesh = Mesh(2, 128)
        u = ScalarField(mesh, np.random.default_rng(0).standard_normal(
            mesh.node_shape))
        _, peak = traced_peak(norm_h10, u)
        assert peak <= 128 * 129 * 8 + traced_peak.overhead


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
        g = face_gradient(u, 0)
        assert np.allclose(g, [4.0, 8.0, -4.0, -8.0])

    def test_2d_shapes(self):
        mesh = Mesh(2, 8)
        u = ScalarField(mesh, np.ones(mesh.node_shape))
        assert face_gradient(u, 0).shape == (8, 9)
        assert face_gradient(u, 1).shape == (9, 8)

    @pytest.mark.parametrize("dim,n", [(1, 2), (1, 3), (1, 16), (2, 2), (2, 3), (2, 16)])
    def test_face_gradient_is_diff_of_padded(self, dim, n):
        # bit for bit, signs of zero included: +0.0, then -0.0, on the nodes
        # next to the boundary, where a face meets a boundary zero
        mesh = Mesh(dim, n)
        values = np.random.default_rng(n).standard_normal(mesh.node_shape)
        edge = np.zeros(mesh.node_shape, dtype=bool)
        for k in range(dim):
            edge[(slice(None),) * k + ([0, -1],)] = True
        for zero in (0.0, -0.0):
            values[edge] = zero
            u = ScalarField(mesh, values)
            for k in range(dim):
                new, ref = face_gradient(u, k), np.diff(u.padded(), axis=k) / mesh.h
                assert new.shape == ref.shape
                assert np.array_equal(new, ref)
                assert np.array_equal(np.signbit(new), np.signbit(ref))

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
        with pytest.raises(FieldArgumentError, match=re.escape(
                f"non-finite value {bad} at index (1,) in field CSV")):
            read_field_csv(path, Mesh(1, 4), "cells")

    # dim-2 nodes on Mesh(2, 3): interior indices 1..2 per axis
    GOOD_ROWS = ["1,1,0.5", "1,2,1.5", "2,1,2.5", "2,2,3.5"]
    DUPLICATE = "duplicate field CSV rows for index "
    RANGE = " out of range [1,3) for declared mesh"
    COUNT = " does not cover declared mesh shape (2, 2)"

    @staticmethod
    def fault_kind(message):
        """The kind of fault a message names, as the case's id."""
        if isinstance(message, str):
            return next(kind for kind in ("malformed", "duplicate", "does not cover",
                                          "out of range", "non-finite")
                        if kind in message)
        return None

    # a fault's message names the first faulty row, and a range fault comes
    # before a non-finite value, before a duplicate, before the row count
    @pytest.mark.parametrize("rows,message", [
        (["1.5,1,2"] + GOOD_ROWS[1:], "malformed"),
        (["1,1,abc"] + GOOD_ROWS[1:], "malformed"),
        (["1,1"] + GOOD_ROWS[1:], "malformed"),
        (["1,1,0.5,7"] + GOOD_ROWS[1:], "malformed"),
        # one row too many
        (GOOD_ROWS + ["2,2,3.5"], DUPLICATE + "(2, 2)"),
        # the right row count, one position twice and one missing
        (GOOD_ROWS[:2] + ["1,2,9.0"] + GOOD_ROWS[3:], DUPLICATE + "(1, 2)"),
        (GOOD_ROWS[:3], "field CSV row count 3" + COUNT),
        ([], "field CSV row count 0" + COUNT),
        (GOOD_ROWS[:3] + ["3,2,3.5"], "index (3, 2)" + RANGE),
        (GOOD_ROWS[:3] + ["2,0,3.5"], "index (2, 0)" + RANGE),
        (["2,2,1", "0,0,1", "1,1,1", "3,1,1"], "index (0, 0)" + RANGE),
        (GOOD_ROWS[:2] + ["2,1,nan", "3,2,3.5"], "index (3, 2)" + RANGE),
        (GOOD_ROWS[:3] + ["2,1,inf"], "non-finite value inf at index (2, 1) in field CSV"),
        (GOOD_ROWS[:2] + ["2,1,-inf", "1,2,1.0"],
         "non-finite value -inf at index (2, 1) in field CSV"),
        (["1,1,1"] + GOOD_ROWS, DUPLICATE + "(1, 1)"),
    ], ids=fault_kind)
    def test_rejects_malformed_body(self, tmp_path, rows, message):
        path = tmp_path / "f.csv"
        path.write_text("i,j,value\n" + "".join(r + "\n" for r in rows))
        match = message if message == "malformed" else f"^{re.escape(message)}$"
        with pytest.raises(FieldArgumentError, match=match):
            read_field_csv(path, Mesh(2, 3), "nodes")

    # a body that parses is parsed once, whatever its fault; only a body the
    # narrow index type cannot hold is parsed again, as int64
    @pytest.mark.parametrize("rows,parses", [
        (GOOD_ROWS, 1),
        (GOOD_ROWS + ["2,2,3.5"], 1),
        (GOOD_ROWS[:3], 1),
        (GOOD_ROWS[:3] + ["3,2,3.5"], 1),
        (GOOD_ROWS[:3] + ["2,1,inf"], 1),
        ([], 0),
        (GOOD_ROWS[:3] + ["70000,1,0.5"], 2),
        (["1,1,abc"] + GOOD_ROWS[1:], 2),
    ])
    def test_parses_a_body_once(self, tmp_path, monkeypatch, rows, parses):
        loadtxt, calls = np.loadtxt, []

        def counting(*args, **kwargs):
            calls.append(kwargs["dtype"])
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting)
        path = tmp_path / "f.csv"
        path.write_text("i,j,value\n" + "".join(r + "\n" for r in rows))
        with contextlib.suppress(FieldArgumentError):
            read_field_csv(path, Mesh(2, 3), "nodes")
        assert len(calls) == parses

    def test_peak_memory(self, tmp_path, traced_peak):
        # below what np.loadtxt holds with int64 indices: the narrow index
        # table saves more than half the output array, which the rows are
        # written into directly
        mesh = Mesh(2, 128)
        values = np.random.default_rng(4).standard_normal(mesh.node_shape)
        path = tmp_path / "u.csv"
        write_field_csv(path, mesh, values, "nodes")
        dtype = [("i0", np.int64), ("i1", np.int64), ("value", np.float64)]
        _, bare = traced_peak(np.loadtxt, path, dtype=dtype, delimiter=",",
                              comments=None, skiprows=1, ndmin=1)
        back, peak = traced_peak(read_field_csv, path, mesh, "nodes")
        assert np.array_equal(back, values)
        assert peak - bare <= -0.5 * back.nbytes

    # an index the narrow index type cannot hold is named as an int64 one
    @pytest.mark.parametrize("dim,n,row,message", [
        (2, 3, "70000,1,0.5", "index (70000, 1)" + RANGE),
        (2, 3, "1,-129,0.5", "index (1, -129)" + RANGE),
        (1, 40000, "2147483648,1", "index (2147483648,) out of range [0,40000) "
                                   "for declared mesh"),
        (2, 3, "9223372036854775808,1,0.5",
         "malformed field CSV body: could not convert string "
         "'9223372036854775808' to int64 at row 0, column 1."),
    ], ids=["above-int8", "below-int8", "above-int32", "above-int64"])
    def test_index_beyond_narrow_type(self, tmp_path, dim, n, row, message):
        mesh = Mesh(dim, n)
        location, shape = (("nodes", mesh.node_shape) if dim == 2
                           else ("cells", mesh.cell_shape))
        path = tmp_path / "f.csv"
        write_field_csv(path, mesh, np.ones(shape), location)
        lines = path.read_text().splitlines()
        lines[1] = row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FieldArgumentError, match=f"^{re.escape(message)}$"):
            read_field_csv(path, mesh, location)

    def test_accepts_any_row_order_and_blank_lines(self, tmp_path):
        path = tmp_path / "f.csv"
        rows = [self.GOOD_ROWS[k] for k in (3, 0, 2, 1)]
        path.write_text("i,j,value\n\n" + rows[0] + "\n\n"
                        + "\n".join(rows[1:]) + "\n\n")
        back = read_field_csv(path, Mesh(2, 3), "nodes")
        assert np.array_equal(back, [[0.5, 1.5], [2.5, 3.5]])
